"""The constraints a successful RowHammer attack must satisfy
(Section 5, Table 3).

An attack is a sequence of epochs; with ``n_i`` = number of epochs of
type ``T_i`` inside one refresh window, a *successful* attack needs:

1. total activations exceed the threshold, with all epochs fitting in
   the window:  ``sum(n_i * Nepmax_i) >= NRH*`` and
   ``sum(n_i) <= floor(tREFW / tep)``;
2. sequence validity: a type can only appear after one of its allowed
   predecessors, which collapses (Table 3) to ``n2 <= n3 + s`` and
   ``n3 <= n2 + s``.  The paper's constraints are the equalities
   (``s = 0``, the default); a slack accommodates sequence-edge effects
   but also admits epoch-count vectors that the inter-epoch NBL*
   coupling (which this independent-epoch model drops) makes physically
   unrealizable, so nonzero slack is for sensitivity analysis only —
   the adversarial simulation (``repro.security.adversary``) provides
   the coupling-faithful empirical check;
3. non-negativity: ``n_i >= 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import BlockHammerConfig
from repro.security.epochs import EpochModel, EpochType


@dataclass(frozen=True)
class AttackConstraints:
    """Linear-program form of Table 3 for one configuration.

    Maximize ``c . n`` subject to ``A_ub @ n <= b_ub`` and ``n >= 0``,
    where ``c[i] = Nepmax(T_i)``.
    """

    nepmax: tuple[int, ...]
    max_epochs: int
    ordering_slack: int
    target: float  # NRH*: the count a successful attack must reach

    @classmethod
    def for_config(
        cls, config: BlockHammerConfig, ordering_slack: int = 0
    ) -> "AttackConstraints":
        model = EpochModel(config)
        return cls(
            nepmax=tuple(model.nepmax(t) for t in EpochType),
            max_epochs=model.epochs_per_refresh_window(),
            ordering_slack=ordering_slack,
            target=config.nrh_star,
        )

    def objective(self) -> tuple[float, ...]:
        """Coefficients of the activation-count objective."""
        return tuple(float(m) for m in self.nepmax)

    def inequality_matrix(
        self,
    ) -> tuple[tuple[tuple[float, ...], ...], tuple[float, ...]]:
        """(A_ub, b_ub) for ``A_ub @ n <= b_ub``."""
        # n indices: [n0, n1, n2, n3, n4]
        a_ub = (
            (1.0, 1.0, 1.0, 1.0, 1.0),  # total epochs fit in the window
            (0.0, 0.0, 1.0, -1.0, 0.0),  # n2 <= n3 + slack
            (0.0, 0.0, -1.0, 1.0, 0.0),  # n3 <= n2 + slack
        )
        slack = float(self.ordering_slack)
        b_ub = (float(self.max_epochs), slack, slack)
        return a_ub, b_ub

    def satisfied_by(self, counts: tuple[int, int, int, int, int]) -> bool:
        """Whether an epoch-count vector meets constraints (2) and (3)."""
        if any(c < 0 for c in counts):
            return False
        if sum(counts) > self.max_epochs:
            return False
        n2, n3 = counts[2], counts[3]
        return abs(n2 - n3) <= self.ordering_slack

    def activations(self, counts: tuple[int, int, int, int, int]) -> int:
        """Total activations achieved by an epoch-count vector."""
        return sum(n * m for n, m in zip(counts, self.nepmax))

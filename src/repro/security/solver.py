"""The infeasibility proof (Section 5).

The paper uses an analytical solver [154] to show no epoch-count vector
satisfies all constraints of Table 3.  We do the same two ways:

* **LP relaxation** (scipy ``linprog``): maximize total activations over
  real-valued epoch counts.  The LP optimum upper-bounds every integer
  attack, so ``lp_max < NRH*`` proves no attack exists.
* **Exhaustive integer enumeration**: for the small epoch budgets real
  configurations produce (tREFW / (tCBF/2) epochs), enumerate every
  valid integer vector and confirm the bound — a cross-check of the LP
  and a constructive worst case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.core.config import BlockHammerConfig
from repro.security.constraints import AttackConstraints


@dataclass(frozen=True)
class SecurityProof:
    """Outcome of the Section 5 analysis for one configuration.

    ``lp_max_activations`` / ``enumeration_max_activations`` follow the
    paper's whole-epoch framework (Tables 2/3) literally.  The
    ``fast_delayed_max`` bound decomposes any refresh window into fast
    (pre-blacklist, tRC-paced, at most NBL per filter lifetime) and
    delayed (tDelay-paced) activations; it is conservative for *any*
    window placement — including windows that straddle epoch boundaries,
    which the whole-epoch model cannot see — and is the bound ``safe``
    is judged on.
    """

    nrh_star: float
    lp_max_activations: float
    enumeration_max_activations: int | None
    best_counts: tuple[int, int, int, int, int] | None
    max_epochs: int
    fast_delayed_max: float

    @property
    def safe(self) -> bool:
        """True when no attack can exceed NRH* (the paper's conclusion).

        Eq. 1 is designed so the worst schedule lands *exactly at* the
        per-window budget; exceeding it is impossible.
        """
        bound = max(self.lp_max_activations, self.fast_delayed_max)
        if self.enumeration_max_activations is not None:
            bound = max(bound, float(self.enumeration_max_activations))
        return bound <= self.nrh_star


def fast_delayed_bound(config: BlockHammerConfig) -> float:
    """Upper-bound activations of one row in any tREFW-long window.

    Any activation is either *fast* (row not yet blacklisted) or
    *delayed* (>= tDelay since the row's last activation).  The active
    filter always covers the current and previous epoch, so fast
    activations are limited to NBL per two-epoch filter lifetime —
    ``NBL * ceil(E/2)`` in a window of E epochs — and delayed
    activations fill the remaining time at one per tDelay.
    """
    import math

    epochs = max(1, int(config.t_refw_ns / config.epoch_ns))
    fast = config.nbl * math.ceil(epochs / 2)
    fast_time = fast * config.t_rc_ns
    delayed = max(0.0, (config.t_refw_ns - fast_time)) / config.t_delay_ns
    return fast + delayed


def _solve_lp(constraints: AttackConstraints) -> float:
    # scipy (and the numpy it loads) is needed only here, so importing
    # it lazily keeps it out of every simulation process.
    from scipy.optimize import linprog

    c = [-coeff for coeff in constraints.objective()]  # linprog minimizes
    a_ub, b_ub = constraints.inequality_matrix()
    result = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(0, None)] * 5, method="highs")
    if not result.success:  # pragma: no cover - defensive
        raise RuntimeError(f"LP solve failed: {result.message}")
    return -result.fun


def _enumerate(
    constraints: AttackConstraints, limit: int
) -> tuple[int, tuple[int, int, int, int, int]] | None:
    """Exhaustive search over integer epoch-count vectors."""
    if constraints.max_epochs > limit:
        return None
    best = (-1, (0, 0, 0, 0, 0))
    budget = constraints.max_epochs
    for n0, n1, n2, n3 in itertools.product(range(budget + 1), repeat=4):
        if n0 + n1 + n2 + n3 > budget:
            continue
        n4 = budget - (n0 + n1 + n2 + n3)
        counts = (n0, n1, n2, n3, n4)
        if not constraints.satisfied_by(counts):
            continue
        total = constraints.activations(counts)
        if total > best[0]:
            best = (total, counts)
    if best[0] < 0:
        return 0, (0, 0, 0, 0, 0)
    return best


def prove_safety(
    config: BlockHammerConfig,
    ordering_slack: int = 0,
    enumeration_limit: int = 12,
) -> SecurityProof:
    """Run the full Section 5 analysis for a configuration.

    ``enumeration_limit`` bounds the exhaustive search (epoch budgets
    beyond it rely on the LP bound alone, which is already sufficient).
    """
    constraints = AttackConstraints.for_config(config, ordering_slack)
    lp_max = _solve_lp(constraints)
    enumerated = _enumerate(constraints, enumeration_limit)
    if enumerated is None:
        enum_max, best_counts = None, None
    else:
        enum_max, best_counts = enumerated
    return SecurityProof(
        nrh_star=config.nrh_star,
        lp_max_activations=lp_max,
        enumeration_max_activations=enum_max,
        best_counts=best_counts,
        max_epochs=constraints.max_epochs,
        fast_delayed_max=fast_delayed_bound(config),
    )

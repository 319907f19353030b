"""Unit tests for multiprogrammed performance metrics."""

import math

import pytest

from repro.metrics.speedup import (
    MultiprogramMetrics,
    compute_metrics,
    harmonic_speedup,
    maximum_slowdown,
    weighted_speedup,
)
from repro.utils.validation import ConfigError


def test_no_interference_is_identity():
    shared = {0: 1.0, 1: 2.0}
    alone = {0: 1.0, 1: 2.0}
    assert weighted_speedup(shared, alone) == pytest.approx(2.0)
    assert harmonic_speedup(shared, alone) == pytest.approx(1.0)
    assert maximum_slowdown(shared, alone) == pytest.approx(1.0)


def test_uniform_halving():
    shared = {0: 0.5, 1: 1.0}
    alone = {0: 1.0, 1: 2.0}
    assert weighted_speedup(shared, alone) == pytest.approx(1.0)
    assert harmonic_speedup(shared, alone) == pytest.approx(0.5)
    assert maximum_slowdown(shared, alone) == pytest.approx(2.0)


def test_max_slowdown_tracks_worst_thread():
    shared = {0: 0.9, 1: 0.1}
    alone = {0: 1.0, 1: 1.0}
    assert maximum_slowdown(shared, alone) == pytest.approx(10.0)


def test_zero_shared_ipc_handled():
    shared = {0: 0.0}
    alone = {0: 1.0}
    assert harmonic_speedup(shared, alone) == 0.0
    assert maximum_slowdown(shared, alone) == float("inf")


def test_mismatched_threads_rejected():
    with pytest.raises(ConfigError):
        weighted_speedup({0: 1.0}, {1: 1.0})
    with pytest.raises(ConfigError):
        weighted_speedup({}, {})
    with pytest.raises(ConfigError):
        weighted_speedup({0: 1.0}, {0: 0.0})  # alone IPC must be positive


def test_compute_and_normalize():
    metrics = compute_metrics({0: 0.5}, {0: 1.0})
    baseline = MultiprogramMetrics(1.0, 1.0, 1.0)
    normalized = metrics.normalized_to(baseline)
    assert normalized.weighted_speedup == pytest.approx(0.5)
    assert normalized.maximum_slowdown == pytest.approx(2.0)


def test_weighted_speedup_bounded_by_thread_count():
    shared = {i: 1.0 for i in range(8)}
    alone = {i: 1.0 for i in range(8)}
    assert weighted_speedup(shared, alone) == pytest.approx(8.0)


def test_normalize_to_zero_harmonic_baseline():
    """A baseline benign thread that retired nothing has harmonic speedup
    0 and maximum slowdown inf: normalization follows IEEE division
    (x/0 -> inf, 0/0 -> nan, inf/inf -> nan) instead of raising."""
    inf = float("inf")
    baseline = MultiprogramMetrics(1.0, 0.0, inf)
    normalized = MultiprogramMetrics(0.8, 0.5, inf).normalized_to(baseline)
    assert normalized.weighted_speedup == pytest.approx(0.8)
    assert normalized.harmonic_speedup == inf
    assert math.isnan(normalized.maximum_slowdown)
    stalled = MultiprogramMetrics(0.5, 0.0, 2.0).normalized_to(baseline)
    assert math.isnan(stalled.harmonic_speedup)
    assert stalled.maximum_slowdown == 0.0

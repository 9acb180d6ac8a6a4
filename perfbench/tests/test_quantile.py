"""The Harrell-Davis quantile estimate behind request_p50_ms and request_p99_ms."""

import random

import pytest

from worker import quantile


def test_known_values():
    # reference values from scipy.stats.mstats.hdquantiles
    squares = [k * k for k in range(1, 12)]
    assert quantile(squares, 0.5) == pytest.approx(38.41024345260516, rel=1e-12)
    assert quantile(squares, 0.99) == pytest.approx(120.35623644338058, rel=1e-12)
    # symmetric data: the median estimate is the centre
    assert quantile([float(k) for k in range(1, 45)], 0.5) == pytest.approx(22.5)


def test_single_and_constant_lists():
    assert quantile([3.0], 0.5) == pytest.approx(3.0)
    assert quantile([2.0] * 1000, 0.99) == pytest.approx(2.0)


def test_order_does_not_matter_and_estimates_stay_in_range():
    rng = random.Random(3)
    values = [rng.expovariate(1.0) for _ in range(44)]
    shuffled = values[:]
    rng.shuffle(shuffled)
    for q in (0.5, 0.99):
        assert quantile(values, q) == pytest.approx(quantile(shuffled, q))
        assert min(values) <= quantile(values, q) <= max(values)
    assert quantile(values, 0.5) < quantile(values, 0.99)

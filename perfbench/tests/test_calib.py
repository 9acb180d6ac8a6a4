"""Host-speed calibration."""

import gc
import signal
import time

import pytest

import calib


def test_scaled_uses_the_samples_nearest_the_operation(monkeypatch):
    monkeypatch.setattr(calib, "MIN_SAMPLES", 2)
    s = calib.Sampler()
    s.samples = [(0.0, 0.005), (0.1, 0.005), (0.2, 0.005), (5.0, 0.001), (5.1, 0.001)]
    ref = calib.REFERENCE_S
    got = s.scaled([(0.05, 0.15, 1.0), (5.0, 5.05, 2.0), (2.5, 2.6, 3.0)])
    assert got[0] == pytest.approx(ref / 0.005)
    assert got[1] == pytest.approx(2.0 * ref / 0.001)
    # too few samples near it: the window widens until it holds enough
    assert got[2] == pytest.approx(3.0 * ref * 5 / 0.017)


def test_sampler_subtracts_its_own_time_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    s = calib.Sampler(interval=0.01)
    s.start()
    try:
        mark = s.mark()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
        start, end, work = s.since(mark)
    finally:
        s.stop()
    assert len(s.samples) >= 5
    assert work == pytest.approx(end - start - s.spent, abs=1e-6)
    assert 0 < work < end - start
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_reference_does_not_advance_the_garbage_collector():
    ref = calib.Reference()
    first = ref()
    gc.collect()
    before = gc.get_count()[0]
    assert ref() == first
    assert gc.get_count()[0] - before <= 1


def test_an_unstarted_sampler_is_a_plain_clock():
    s = calib.Sampler()
    start, end, work = s.since(s.mark())
    s.stop()
    assert work == end - start >= 0 and not s.samples

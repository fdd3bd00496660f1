"""Tail rule, outcome classification and span self time."""

import random

import pytest

import stats
from tracing import Tracer


def test_tail_is_highest_percentile_with_ten_beyond():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    t = stats.tail(values)
    assert (t.value, t.percentile, t.beyond, t.samples) == (90, 90.0, 10, 100)


def test_tail_cut_off_at_eleven_and_ten_samples():
    t = stats.tail(range(1, 12))
    assert (t.value, t.beyond, t.samples) == (1, 10, 11)
    assert t.percentile == pytest.approx(100.0 / 11)
    t = stats.tail(range(1, 11))
    assert (t.value, t.percentile, t.beyond, t.samples) == (10, 100.0, 0, 10)


def test_tail_steps_below_ties():
    t = stats.tail([1.0] * 50 + [2.0] * 50)
    assert (t.value, t.percentile, t.beyond) == (1.0, 50.0, 50)


def test_summary_reports_tail_and_counts():
    latencies = [0.001 * i for i in range(1, 41)]
    outcomes = [stats.OK] * 36 + [stats.VIOLATION] * 3 + [stats.ERROR]
    values, counts = stats.summarize(latencies, outcomes)
    assert values["op_tail_ms"] == pytest.approx(30.0)
    assert values["ok_ratio"] == pytest.approx(0.9)
    assert values["ops_per_s"] == pytest.approx(40 / sum(latencies))
    assert counts["tail_percentile"] == 75.0 and counts["samples"] == 40
    assert (counts["ok"], counts["violation"], counts["error"]) == (36, 3, 1)


def test_ok_ratio_is_the_mean_score():
    outcomes = [stats.OK, stats.VIOLATION, stats.ERROR, stats.OK]
    values, counts = stats.summarize([1.0] * 4, outcomes, [1.0, 0.9, 0.0, 1.0])
    assert values["ok_ratio"] == pytest.approx(0.725)
    assert counts["ok"] == 2


def test_ops_are_scaled_by_the_probes_around_them():
    refs = stats.bracketing_means(3, [(-1, 2.0), (1, 4.0), (2, 6.0)])
    assert refs == [3.0, 3.0, 5.0]
    scaled = stats.at_reference_speed([1.0, 1.0, 1.0], [stats.REF_MS, 2 * stats.REF_MS, stats.REF_MS / 2])
    assert scaled == [1.0, 0.5, 2.0]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def test_outcome_classification():
    clock = FakeClock()

    def work():
        clock.tick(2.0)
        return 7

    def boom():
        clock.tick(1.0)
        raise ValueError("refused")

    def bad_check(_):
        raise IndexError

    assert stats.run_op(work, lambda r: r == 7, clock) == (stats.OK, 2.0, 7)
    assert stats.run_op(work, lambda r: r == 8, clock) == (stats.VIOLATION, 2.0, 7)
    assert stats.run_op(work, bad_check, clock)[0] == stats.VIOLATION
    outcome, elapsed, result = stats.run_op(boom, lambda r: True, clock)
    assert (outcome, elapsed) == (stats.ERROR, 1.0)
    assert isinstance(result, ValueError)


def test_self_time_on_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    leaf = tracer.wrap("leaf", lambda: clock.tick(1.0))

    def inner_body():
        clock.tick(2.0)
        leaf()
        clock.tick(3.0)

    inner = tracer.wrap("inner", inner_body)

    def outer_body():
        clock.tick(4.0)
        inner()
        inner()
        clock.tick(5.0)

    tracer.wrap("outer", outer_body)()
    st = tracer.stats
    assert (st["outer"].calls, st["outer"].total_s, st["outer"].self_s) == (1, 21.0, 9.0)
    assert (st["inner"].calls, st["inner"].total_s, st["inner"].self_s) == (2, 12.0, 10.0)
    assert (st["leaf"].calls, st["leaf"].total_s, st["leaf"].self_s) == (2, 2.0, 2.0)


def test_raised_calls_are_counted_and_unwind_the_stack():
    clock = FakeClock()
    tracer = Tracer(clock=clock, tags={"fail": lambda args, kwargs: f"k{args[0]}"})

    def fail_body(k):
        clock.tick(1.0)
        raise RuntimeError

    fail = tracer.wrap("fail", fail_body)

    def outer_body():
        with pytest.raises(RuntimeError):
            fail(3)
        clock.tick(2.0)

    tracer.wrap("outer", outer_body)()
    assert tracer.stats["fail"].raised == 1
    assert tracer.stats["fail[k3]"].calls == 1
    assert tracer.stats["outer"].self_s == 2.0
    with tracer.paused():
        with pytest.raises(RuntimeError):
            fail(3)
    assert tracer.stats["fail"].calls == 1


def test_install_wraps_every_namespace_and_uninstall_restores():
    import numpy as np

    import sympspec
    from sympspec import core, extremal

    original = core.williamson
    tracer = Tracer()
    tracer.install()
    try:
        a = core.random_pd(2, np.random.default_rng(0))
        sympspec.williamson(a)
        extremal.williamson(a)
        core.williamson(a)
        sympspec.SymplecticBasis.standard(2).coords(np.ones(4))
    finally:
        tracer.uninstall()
    assert tracer.stats["core.williamson"].calls == 3
    assert tracer.stats["linalg.skew_canonical"].calls == 3
    assert tracer.stats["basis.SymplecticBasis.coords"].calls == 1
    assert tracer.stats["numpy.linalg.eigh"].calls >= 3
    assert core.williamson is original and sympspec.williamson is original
    assert np.linalg.svd.__module__.startswith("numpy")

"""Tests for the benchmark pieces whose mistakes would falsify its numbers.

    python3 -m pytest perfbench/test_harness.py -q

They need numpy only; no Ray, no index.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import stats  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402


class FakeClock:
    """A clock that advances only when told to (or when `sleep` is called)."""

    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t

    def sleep(self, d):
        self.t += d


# ---- percentile choice -----------------------------------------------------

def test_p99_needs_a_thousand_samples():
    assert stats.min_samples(99) == 1000
    assert stats.min_samples(95) == 200
    assert stats.min_samples(50) == 20
    with pytest.raises(ValueError):
        stats.percentile(np.arange(70), 99)       # the old bench.py "p99"
    with pytest.raises(ValueError):
        stats.percentile(np.arange(999), 99)
    xs = np.arange(1, 1001)
    # ten samples lie above the nearest-rank p99
    assert stats.percentile(xs, 99) == 990
    assert (xs > stats.percentile(xs, 99)).sum() == 10


def test_tail_pct_leaves_ten_beyond():
    assert stats.tail_pct(10) is None
    assert stats.tail_pct(100) == pytest.approx(90.0)
    assert stats.tail_pct(200) == pytest.approx(95.0)
    assert stats.tail_pct(1000) == pytest.approx(99.0)
    for n in (11, 37, 150, 1400):
        xs = np.arange(n)
        p = stats.tail_pct(n)
        assert (xs > stats.percentile(xs, p)).sum() == 10


# ---- open-loop due-time accounting ------------------------------------------

def _service(clock, seconds):
    def call():
        clock.sleep(seconds)
        return True
    return call


def test_open_loop_times_from_due():
    clock = FakeClock()
    step = stats.Step(rate=10.0)
    # due at 0, 0.1, 0.2 s; the first call stalls for 0.35 s
    calls = [_service(clock, 0.35), _service(clock, 0.01), _service(clock, 0.01)]
    stats.run_step(step, calls, dues=[0.0, 0.1, 0.2], clock=clock, sleep=clock.sleep)
    lat = step.latency_ms()
    # the stall is charged to the requests queued behind it
    assert lat == pytest.approx([350.0, 260.0, 170.0])
    assert step.wait_ms() == pytest.approx([0.0, 250.0, 160.0])
    assert step.service_ms() == pytest.approx([350.0, 10.0, 10.0])


def test_open_loop_sleeps_until_due():
    clock = FakeClock()
    step = stats.Step(rate=2.0)
    stats.run_step(step, [_service(clock, 0.01)] * 3, dues=[0.5, 1.0, 1.5],
                   clock=clock, sleep=clock.sleep)
    assert step.latency_ms() == pytest.approx([10.0, 10.0, 10.0])
    assert step.wait_ms() == pytest.approx([0.0, 0.0, 0.0])


def test_closed_loop_is_due_at_send():
    clock = FakeClock()
    step = stats.Step(rate=math.inf)
    stats.run_step(step, [_service(clock, 0.2), _service(clock, 0.1)],
                   clock=clock, sleep=clock.sleep)
    assert step.latency_ms() == pytest.approx([200.0, 100.0])
    assert not step.backlog_growing()


def test_failed_request_misses_every_limit():
    clock = FakeClock()
    step = stats.Step(rate=10.0)
    stats.run_step(step, [lambda: False], dues=[0.0], clock=clock, sleep=clock.sleep)
    assert step.latency_ms()[0] == math.inf


def _step(rate, n, service_s, stall_every=0, stall_s=0.0):
    clock = FakeClock()
    step = stats.Step(rate=rate)
    calls = [_service(clock, stall_s if stall_every and i % stall_every == stall_every - 1
                      else service_s) for i in range(n)]
    stats.run_step(step, calls, dues=np.arange(1, n + 1) / rate, clock=clock,
                   sleep=clock.sleep)
    return step


def test_backlog_growing_when_overloaded():
    over = _step(rate=100.0, n=200, service_s=0.012)     # utilisation 1.2
    assert over.backlog_growing()
    assert over.wait_ms()[-1] > over.wait_ms()[0]
    under = _step(rate=50.0, n=200, service_s=0.012)     # utilisation 0.6
    assert not under.backlog_growing()


def test_one_stall_is_not_a_backlog():
    # one 0.5 s stall in the last quarter queues a few requests behind it,
    # but the server keeps up on average
    st = _step(rate=40.0, n=100, service_s=0.005, stall_every=90, stall_s=0.5)
    assert st.wait_ms()[-5:].max() > 100
    assert not st.backlog_growing()


def _search(rung, iters, lo=20.0, hi=160.0, limit_ms=50.0):
    srch = stats.SloSearch(lo, hi, 95.0, limit_ms)
    for _ in range(iters):
        srch.record(rung(srch.next_rate()))
    if srch.needs_floor():
        srch.record(rung(lo))
    return srch.result(), srch.steps


def test_slo_search_finds_the_knee():
    capacity = 80.0                               # 12.5 ms per request

    def rung(rate):
        return _step(rate, 200, 1.0 / capacity)

    rate, steps = _search(rung, 5)
    assert len(steps) == 5
    assert all(s.backlog_growing() for s in steps if s.rate >= capacity)
    passed = [s.rate for s in steps if stats.passes(s, 95.0, 50.0)]
    failed = [s.rate for s in steps if not stats.passes(s, 95.0, 50.0)]
    # the answer lies between the best passing rung and the first failing one
    assert max(passed) <= rate <= min(failed)
    assert max(passed) < capacity <= min(failed)
    assert rate == pytest.approx(capacity, rel=0.05)


def test_slo_search_moves_with_the_tail():
    # a server whose tail grows with the rate: the answer is interpolated
    # between rungs, so a slightly slower server gives a slightly lower rate
    def server(extra):
        def rung(rate):
            return _step(rate, 200, 0.004 + extra, stall_every=20,
                         stall_s=0.004 * rate / 10)
        return rung

    fast, _ = _search(server(0.0), 4, hi=320.0, limit_ms=40.0)
    slow, _ = _search(server(0.0005), 4, hi=320.0, limit_ms=40.0)
    assert 0 < slow < fast


def test_slo_search_zero_when_lowest_rate_fails():
    def rung(rate):
        return _step(rate, 200, 1.0)                # 1 s per request
    rate, steps = _search(rung, 3)
    assert rate == 0.0
    assert steps[-1].rate == 20.0


# ---- spans -------------------------------------------------------------------

def test_span_parent_linkage_and_requests():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    with tr.span("query", request="r1") as root:
        clock.sleep(1)
        with tr.span("compile") as c:
            clock.sleep(2)
        with tr.span("search_shard") as s1:
            with tr.span("postings") as p:
                clock.sleep(3)
    with tr.span("query", request="r2") as root2:
        clock.sleep(1)
    assert root.parent is None and root2.parent is None
    assert c.parent == root.sid and s1.parent == root.sid
    assert p.parent == s1.sid
    assert [sp.request for sp in tr.spans] == ["r1", "r1", "r1", "r1", "r2"]


def test_self_time_subtracts_children_once():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    with tr.span("root") as root:
        clock.sleep(1)
        with tr.span("a"):
            clock.sleep(2)
        clock.sleep(1)
        with tr.span("b") as b:
            with tr.span("b1"):
                clock.sleep(3)
            clock.sleep(1)
    st = tr.self_times()
    assert root.dur == pytest.approx(8)
    assert st[root.sid] == pytest.approx(2)
    assert st[b.sid] == pytest.approx(1)
    assert sum(st.values()) == pytest.approx(root.dur)
    # the children a and b cover 6 of the root's 8 seconds
    assert tr.child_share([root]) == pytest.approx(0.75)


def test_self_time_with_overlapping_children():
    tr = Tracer()
    from perfbench.trace import Span

    tr.spans = [Span(0, "root", 0.0, 10.0, None, None),
                Span(1, "x", 1.0, 5.0, 0, None),
                Span(2, "y", 3.0, 7.0, 0, None),       # overlaps x
                Span(3, "z", 9.0, 12.0, 0, None)]      # runs past the parent
    assert tr.self_times()[0] == pytest.approx(10 - 6 - 1)


def test_wrap_and_patched_restore():
    class Thing:
        def work(self, x):
            return x * 2

    clock = FakeClock()
    tr = Tracer(clock=clock)
    seen = []
    with tr.patched([(Thing, "work", "thing.work", lambda self, x: seen.append(x))]):
        with tr.span("outer", request="q"):
            assert Thing().work(3) == 6
    assert Thing.work.__name__ == "work" and not hasattr(Thing.work, "__wrapped__")
    assert seen == [3]
    inner = [s for s in tr.spans if s.name == "thing.work"][0]
    assert inner.parent == 0 and inner.request == "q"
    assert tr.per_request("thing.work").tolist() == [0.0]

"""Percentiles, open-loop accounting and the latency-limit search.

These are the pieces whose mistakes would falsify the numbers, so each is a
small pure function with a test in ``test_harness.py``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

MIN_BEYOND = 10     # a percentile needs this many samples above it


def min_samples(pct: float) -> int:
    """Fewest samples for which ``pct`` leaves MIN_BEYOND samples above it."""
    return math.ceil(MIN_BEYOND / (1.0 - pct / 100.0) - 1e-9)


def tail_pct(n: int) -> float | None:
    """The highest percentile with at least MIN_BEYOND samples beyond it."""
    if n < MIN_BEYOND + 1:
        return None
    return 100.0 * (n - MIN_BEYOND) / n


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile; refuses a percentile the samples cannot carry
    (a "p99" of 70 samples is their maximum, not a tail)."""
    xs = np.sort(np.asarray(samples, dtype=np.float64))
    if len(xs) < min_samples(pct):
        raise ValueError(f"p{pct:g} needs >= {min_samples(pct)} samples, got {len(xs)}")
    rank = math.ceil(pct / 100.0 * len(xs))
    return float(xs[max(rank, 1) - 1])


def median(samples) -> float:
    return float(np.median(np.asarray(samples, dtype=np.float64)))


def poisson_dues(rng, rate: float, n: int, start: float = 0.0) -> np.ndarray:
    """n seeded Poisson arrival times (seconds from the step start)."""
    return start + np.cumsum(rng.exponential(1.0 / rate, size=n))


@dataclass
class Step:
    """One open-loop step: every request's due, start and end time."""

    rate: float
    log_idx: list[int] = field(default_factory=list)   # requests' places in a log
    checked: int = 0            # requests already checked for correctness
    due: list[float] = field(default_factory=list)
    start: list[float] = field(default_factory=list)
    end: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    shape: list[str] = field(default_factory=list)

    def latency_ms(self) -> np.ndarray:
        """Time from when each request was due, so a stall also charges the
        requests queued behind it; a failed request counts as missing any
        limit (infinite latency)."""
        lat = (np.asarray(self.end) - np.asarray(self.due)) * 1e3
        return np.where(np.asarray(self.ok, dtype=bool), lat, np.inf)

    def service_ms(self) -> np.ndarray:
        return (np.asarray(self.end) - np.asarray(self.start)) * 1e3

    def wait_ms(self) -> np.ndarray:
        return (np.asarray(self.start) - np.asarray(self.due)) * 1e3

    def backlog_growing(self) -> bool:
        """True when requests arrive faster than the step served them: the
        offered rate times the mean service time (the utilisation) is at
        least 1, so the queue has no steady state and grows for as long as
        the step lasts.  A short step cannot show that growth in its waits,
        and one slow request with the few queued behind it would look like
        growth; the utilisation shows neither mistake."""
        return self.utilisation() >= 1.0

    def utilisation(self) -> float:
        """Offered rate times mean service time; 0 for a closed loop."""
        if not math.isfinite(self.rate) or not self.due:
            return 0.0
        return float(self.rate * self.service_ms().mean() / 1e3)


def run_step(step: Step, calls, dues=None, clock=time.perf_counter,
             sleep=time.sleep) -> Step:
    """Send ``calls[i]()`` from one client thread.  With ``dues`` (seconds
    after now) the loop is open: a request that comes due while the previous
    one runs starts late, and its latency is still timed from its due time.
    Without ``dues`` it is closed: each request is due when the previous one
    ends.  A call returns True on a correct result."""
    t0 = clock()
    for i, call in enumerate(calls):
        now = clock()
        due = now if dues is None else t0 + dues[i]
        if now < due:
            sleep(due - now)
            now = clock()
        ok = call()
        end = clock()
        step.due.append(due)
        step.start.append(now)
        step.end.append(end)
        step.ok.append(bool(ok))
    return step


def passes(step: Step, pct: float, limit_ms: float) -> bool:
    """The step's ``pct`` latency meets the limit and its backlog is flat."""
    return percentile(step.latency_ms(), pct) <= limit_ms and not step.backlog_growing()


class SloSearch:
    """The highest rate whose ``pct`` latency meets ``limit_ms`` with no
    growing backlog, by bisection on the log of the rate between ``lo`` and
    ``hi``.  Ask ``next_rate()``, run one open-loop step at that rate, hand
    it to ``record()``; rungs may be interleaved with other work.

    ``result()`` places the answer between the highest passing and the
    lowest failing rung where, interpolated on log rate, the tail latency
    reaches the limit or the utilisation reaches 1, whichever comes first;
    so it moves continuously rather than in bisection steps.  When no rung passed,
    ``lo`` itself must be run (``needs_floor()``); 0.0 if it fails too.
    """

    def __init__(self, lo: float, hi: float, pct: float, limit_ms: float):
        self.lo, self.a, self.b = lo, lo, hi
        self.pct, self.limit = pct, limit_ms
        self.tails: dict[float, float] = {}
        self.floor_failed = False
        self.steps: list[Step] = []
        self._by_rate: dict[float, Step] = {}

    def next_rate(self) -> float:
        return math.sqrt(self.a * self.b)

    def record(self, step: Step) -> None:
        self.steps.append(step)
        self._by_rate[step.rate] = step
        self.tails[step.rate] = percentile(step.latency_ms(), self.pct)
        ok = passes(step, self.pct, self.limit)
        if step.rate == self.lo:
            self.floor_failed = not ok
        elif ok:
            self.a = step.rate
        else:
            self.b = step.rate

    def needs_floor(self) -> bool:
        return self.a == self.lo and self.lo not in self.tails

    def result(self) -> float:
        if self.floor_failed:
            return 0.0
        lo, hi = self._by_rate.get(self.a), self._by_rate.get(self.b)
        if lo is None or hi is None:
            return float(self.a)
        # how far towards the failing rung each criterion still holds, on
        # log rate: the tail up to the limit, the utilisation up to 1
        fs = []
        for f_lo, f_hi, cap in ((self.tails[self.a], self.tails[self.b], self.limit),
                                (lo.utilisation(), hi.utilisation(), 1.0)):
            if math.isfinite(f_hi) and f_hi > cap and f_hi > f_lo:
                fs.append((cap - f_lo) / (f_hi - f_lo))
        f = min(max(min(fs, default=0.0), 0.0), 1.0)
        return float(self.a * (self.b / self.a) ** f)

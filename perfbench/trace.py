"""In-memory spans for the traced run.

A span has a name, a start, an end, a parent and a request id.  Spans are
recorded from the benchmark's own files, around the public calls into each
``lucene_ray`` layer: ``Tracer.wrap`` replaces a function or method for the
life of a ``Tracer.patched`` block and restores it afterwards.  Nothing is
written until ``dump``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import asdict, dataclass

import numpy as np


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.request: str | None = None

    @contextlib.contextmanager
    def span(self, name: str, request: str | None = None):
        parent = self._stack[-1] if self._stack else None
        if request is not None:
            self.request = request
        sid = len(self.spans)
        sp = Span(sid, name, self.clock(), float("nan"), parent, self.request)
        self.spans.append(sp)
        self._stack.append(sid)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._stack.pop()
            if parent is None:
                self.request = None

    def wrap(self, fn, name: str, before=None):
        """fn timed as span `name`; `before(*args)` runs first, untimed."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            with tracer.span(name):
                return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def patched(self, targets):
        """targets: (owner, attribute, span name[, before]) tuples."""
        saved = []
        try:
            for owner, attr, name, *before in targets:
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(orig, name, *before))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    # ---- analysis -------------------------------------------------------

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                out.setdefault(s.parent, []).append(s)
        return out

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part of its interval its children cover
        (overlapping children are counted once)."""
        kids = self.children()
        out = {}
        for s in self.spans:
            covered = 0.0
            cur_lo = cur_hi = None
            for c in sorted(kids.get(s.sid, ()), key=lambda c: c.start):
                lo, hi = max(c.start, s.start), min(c.end, s.end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[s.sid] = s.dur - covered
        return out

    def total(self, name: str, by_self: bool = False) -> float:
        st = self.self_times() if by_self else None
        return float(sum(st[s.sid] if by_self else s.dur
                         for s in self.spans if s.name == name))

    def per_request(self, name: str) -> np.ndarray:
        """Seconds spent in `name` summed per request id, one entry per
        request that has any span at all, in order of first appearance."""
        acc: dict[str, float] = {}
        for s in self.spans:
            if s.request is None:
                continue
            acc.setdefault(s.request, 0.0)
            if s.name == name:
                acc[s.request] += s.dur
        return np.array(list(acc.values()), dtype=np.float64)

    def child_share(self, roots: list[Span]) -> float:
        """Share of the roots' time that their direct children cover: the
        part of each request the layer spans account for."""
        st = self.self_times()
        total = sum(r.dur for r in roots)
        return 1.0 - sum(st[r.sid] for r in roots) / total if total > 0 else float("nan")

    def dump(self, path: str, append: bool = False) -> None:
        with open(path, "a" if append else "w") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")

"""Bit-parallel edit distance of one query term against a whole sorted term
dictionary — the vectorized stand-in for intersecting the reference's
`util/automaton/LevenshteinAutomata` with a TermsEnum (`FuzzyTermsEnum`).

The dictionary is encoded once into length buckets: each bucket holds the
row indices (dictionary order) of its terms and an ``(n, L)`` matrix of
ranks into the dictionary's code-point alphabet.  A query of m <= 64 code
points runs Myers' bit-vector algorithm (Myers 1999, in Hyyrö's global
edit-distance form) down every row of the buckets with L in [m-k, m+k] at
once, one numpy step per column; with transpositions Hyyrö's OSA step
(Hyyrö 2003) makes an adjacent swap one edit, the ``_edit_distance``
contract.  Longer queries do not fit one 64-bit word; callers keep a
per-term scan for them."""

from __future__ import annotations

import numpy as np

MAX_PATTERN = 64

_ONE = np.uint64(1)


def _code_points(s: str) -> np.ndarray:
    # UTF-32 gives one unit per code point, the unit Python's len counts
    # (supplementary-plane characters are one, not a surrogate pair)
    return np.frombuffer(s.encode("utf-32-le", "surrogatepass"), dtype="<u4")


class TermCodes:
    """Length-bucketed code-point-rank encoding of one sorted term array."""

    def __init__(self, terms):
        n = len(terms)
        lens = np.fromiter(map(len, terms), dtype=np.int64, count=n)
        self.alphabet, ranks = np.unique(_code_points("".join(terms)),
                                         return_inverse=True)
        dt = (np.uint8 if len(self.alphabet) <= 1 << 8 else
              np.uint16 if len(self.alphabet) <= 1 << 16 else np.uint32)
        ranks = ranks.astype(dt).reshape(-1)
        starts = np.zeros(n, dtype=np.int64)
        np.cumsum(lens[:-1], out=starts[1:])
        order = np.argsort(lens, kind="stable")   # dictionary order per length
        bounds = np.flatnonzero(np.diff(lens[order])) + 1
        # L -> (rows, ranks matrix); column-major so each column step reads
        # a contiguous slice
        self.buckets: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for rows in np.split(order, bounds) if n else ():
            L = int(lens[rows[0]])
            mat = ranks[starts[rows][:, None] + np.arange(L)]
            self.buckets[L] = (rows, np.asfortranarray(mat))

    def within(self, term: str, k: int, transpositions: bool,
               lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Sorted row indices in [lo, hi) whose term is within edit
        distance ``k`` of ``term`` (at most MAX_PATTERN code points)."""
        m = len(term)
        if m > MAX_PATTERN:
            raise ValueError(f"query term longer than {MAX_PATTERN}")
        hits = []
        peq = None
        if m:
            # Peq: bit i of peq[rank] is set where term[i] is that character;
            # characters outside the dictionary's alphabet match nothing
            peq = np.zeros(len(self.alphabet), dtype=np.uint64)
            cps = _code_points(term)
            idx = np.searchsorted(self.alphabet, cps)
            present = idx < len(self.alphabet)
            present[present] = self.alphabet[idx[present]] == cps[present]
            for i in np.flatnonzero(present):
                peq[idx[i]] |= _ONE << np.uint64(i)
        for L in range(max(0, m - k), m + k + 1):
            bucket = self.buckets.get(L)
            if bucket is None:
                continue
            rows, mat = bucket
            a = int(np.searchsorted(rows, lo))
            b = len(rows) if hi is None else int(np.searchsorted(rows, hi))
            if a >= b:
                continue
            if not m:                 # distance == L <= k for every row
                hits.append(rows[a:b])
                continue
            dist = _myers(peq, mat[a:b], m, transpositions)
            hits.append(rows[a:b][dist <= k])
        if not hits:
            return np.zeros(0, dtype=np.int64)
        return np.sort(np.concatenate(hits))


def _myers(peq: np.ndarray, mat: np.ndarray, m: int,
           transpositions: bool) -> np.ndarray:
    """Edit distance of the m-character pattern encoded in ``peq`` to every
    row of ``mat`` (one column step per text character).  Carries and shifts
    only move bits upward, so bits at and above m never reach the low m."""
    n, L = mat.shape
    vp = np.full(n, ~np.uint64(0))
    vn = np.zeros(n, dtype=np.uint64)
    d0 = np.zeros(n, dtype=np.uint64)
    pm_old = np.zeros(n, dtype=np.uint64)
    dist = np.full(n, m, dtype=np.int32)
    last = _ONE << np.uint64(m - 1)
    for j in range(L):
        pm = peq[mat[:, j]]
        if transpositions:
            tr = ((~d0 & pm) << _ONE) & pm_old
            pm_old = pm
        d0 = (((pm & vp) + vp) ^ vp) | pm | vn
        if transpositions:
            d0 |= tr
        hp = vn | ~(d0 | vp)
        hn = d0 & vp
        dist += (hp & last) != 0
        dist -= (hn & last) != 0
        hp = (hp << _ONE) | _ONE
        vp = (hn << _ONE) | ~(d0 | hp)
        vn = hp & d0
    return dist

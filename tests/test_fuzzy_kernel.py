"""Bit-parallel fuzzy expansion (`util/levenshtein.TermCodes`) against the
per-term banded scan it replaces (`_levenshtein_leq`), and the per-reader
encoding cache across NRT refresh and force-merge."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_ray.search.query import FuzzyQuery
from lucene_ray.search.searcher import (
    IndexSearcher,
    _expand_terms,
    _levenshtein_leq,
    _prefix_range,
)
from lucene_ray.util.levenshtein import MAX_PATTERN, TermCodes

# ASCII, accented Latin, CJK, supplementary-plane (one code point each,
# two UTF-16 units) and the keyword namespace separator
CHARS = "abeé" + "ü" + "中文" + "\U0001F600\U00010400" + "\x1f"
text = st.text(alphabet=CHARS, max_size=8)


def _scan(terms: np.ndarray, q: FuzzyQuery) -> list[str]:
    pre = q.term[:q.prefix_length]
    lo, hi = _prefix_range(terms, pre) if pre else (0, len(terms))
    return [t for t in terms[lo:hi]
            if abs(len(t) - len(q.term)) <= q.max_edits
            and _levenshtein_leq(t, q.term, q.max_edits, q.transpositions)]


def _mutate(s: str, ops) -> str:
    t = list(s)
    for op, i, c in ops:
        i = i % (len(t) + 1)
        if op == "ins":
            t.insert(i, c)
        elif t and op == "del":
            del t[min(i, len(t) - 1)]
        elif t and op == "sub":
            t[min(i, len(t) - 1)] = c
        elif len(t) > 1 and op == "swap":
            i = min(i, len(t) - 2)
            t[i], t[i + 1] = t[i + 1], t[i]
    return "".join(t)


@st.composite
def _case(draw):
    n = draw(st.sampled_from([0, 1, 2, 5, MAX_PATTERN - 1, MAX_PATTERN,
                              MAX_PATTERN + 1, MAX_PATTERN + 6]))
    term = draw(st.text(alphabet=CHARS, min_size=n, max_size=n))
    if n > 5 and draw(st.booleans()):
        term = "role\x1f" + term[5:]          # keyword-namespaced term
    ops = st.lists(st.tuples(st.sampled_from(["ins", "del", "sub", "swap"]),
                             st.integers(0, 80), st.sampled_from(CHARS)),
                   max_size=3)
    near = [_mutate(term, o) for o in draw(st.lists(ops, max_size=25))]
    far = draw(st.lists(text, max_size=25))
    spaced = ["tool\x1f" + t for t in draw(st.lists(text, max_size=5))]
    terms = np.array(sorted(set(near + far + spaced)), dtype=object)
    queries = [FuzzyQuery(draw(st.sampled_from([term] + near)) if near
                          else term,
                          max_edits=draw(st.integers(0, 2)),
                          prefix_length=draw(st.integers(0, 3)),
                          transpositions=draw(st.booleans()))
               for _ in range(4)]
    return terms, queries


@settings(max_examples=250, deadline=None)
@given(_case())
def test_kernel_expansion_equals_scan(case):
    terms, queries = case
    codes = TermCodes(terms)
    for q in queries:
        want = _scan(terms, q)
        # cached encoding (the shard-reader path) and on-the-fly encoding
        # (the doc-values vocab path), element for element, in order
        assert _expand_terms(terms, q, lambda: codes) == want, q
        assert _expand_terms(terms, q) == want, q


def test_kernel_distance_boundaries():
    terms = np.array(sorted(["", "a", "ab", "ba", "abc", "acb", "x" * 64,
                             "x" * 63 + "y", "x" * 65]), dtype=object)
    codes = TermCodes(terms)

    def got(term, k, tr=True):
        return terms[codes.within(term, k, tr)].tolist()

    assert got("", 0) == [""]
    assert got("", 1) == ["", "a"]
    assert got("ab", 1) == ["a", "ab", "abc", "acb", "ba"]
    assert got("ab", 1, False) == ["a", "ab", "abc", "acb"]  # swap: 2 edits
    assert got("abc", 1) == ["ab", "abc", "acb"]
    assert got("x" * 64, 1) == ["x" * 64, "x" * 65, "x" * 63 + "y"]
    assert got("\U0001F600b", 1) == ["ab"]                  # one code point
    assert codes.within("ab", 2, True, lo=3, hi=5).tolist() == [3, 4]


def _table(texts, start):
    n = len(texts)
    return pa.table({
        "conv_id": [f"conv-{i:08d}" for i in range(start, start + n)],
        "turn_idx": pa.array([0] * n, type=pa.int32()),
        "role": ["user"] * n,
        "tool": ["none"] * n,
        "ts": pa.array(list(range(start, start + n)), type=pa.int64()),
        "text": texts,
    })


def _check(held, d, queries):
    # top-k equals a fresh searcher's, and each reader's expansion equals
    # the scan of that reader's own dictionary
    fresh = IndexSearcher(d)
    for q in queries:
        assert ([(h.conv_id, h.score) for h in held.search(q, k=20).hits]
                == [(h.conv_id, h.score) for h in fresh.search(q, k=20).hits])
        for pid in held._pids:
            r = held.reader(pid)
            assert _expand_terms(r._term_np, q, r.term_codes) \
                == _scan(r._term_np, q)


def test_held_searcher_sees_no_stale_encoding(ray_session, tmp_path):
    import ray.data as rd

    from lucene_ray.index.build import append_index, build_index
    from lucene_ray.index.merge import force_merge

    d = str(tmp_path / "idx")
    base = [f"merge join plan {w}" for w in
            ("sort", "scan", "marge", "hash", "emerge", "lists", "mergers")]
    build_index(rd.from_arrow(_table(base * 3, 0)), d,
                target_docs_per_partition=5, input_desc="base")
    queries = [FuzzyQuery("merge", max_edits=1),
               FuzzyQuery("merge", max_edits=2, prefix_length=1),
               FuzzyQuery("lists", max_edits=1, rewrite="constant_score")]
    held = IndexSearcher(d)
    _check(held, d, queries)
    n_before = held.search(queries[0], k=100).total_hits

    more = [f"{w} plan" for w in ("mergx", "merga", "lisst", "emerges")]
    append_index(rd.from_arrow(_table(more * 2, 1000)), d,
                 target_docs_per_partition=3, input_desc="more")
    assert held.refresh()
    _check(held, d, queries)
    assert held.search(queries[0], k=100).total_hits > n_before

    force_merge(d, 1)
    assert held.refresh()
    assert len(held._pids) == 1
    _check(held, d, queries)

"""Property fuzzing of the analyzer invariants (hypothesis):

- fast single-regex path == longest-match rule scanner (token text)
- columnar (polars) tokenizer == per-row analyzer, also on long ASCII rows
  and around the 255-char token limit, and only non-ASCII or long-token
  rows reach the per-row analyzer
- offsets returned by scan() are consistent and non-overlapping
"""

import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

import lucene_ray.analysis.standard as standard
from lucene_ray.analysis.standard import (
    DEFAULT_MAX_TOKEN_LENGTH,
    _ASCII,
    analyze,
    fast_tokens,
    scan,
    tokenize_column,
)

# alphabet mixing every class family the scanner distinguishes
ALPHABET = (
    "abc XYZ 019 .,;:'\"_-@/ \t\n"
    "éüİßΣσ日本ひカ한ไทย🇺🇸👍❤️#*"
)

texts = st.text(alphabet=ALPHABET, min_size=0, max_size=80)


@settings(max_examples=300, deadline=None)
@given(texts)
def test_fast_matches_scan(t):
    assert fast_tokens(t) == [tok for tok, *_ in scan(t)]


@settings(max_examples=150, deadline=None)
@given(st.lists(texts, min_size=0, max_size=8))
def test_columnar_matches_rowwise(ts):
    lengths, flat = tokenize_column(pa.array(ts, type=pa.string()))
    got, off = [], 0
    for n in lengths:
        got.append(flat.slice(off, int(n)).to_pylist())
        off += int(n)
    want = [analyze(t) if t else [] for t in ts]
    assert got == want


ASCII_ALPHABET = "abc XYZ 019 .,;:'\"_-@/ \t\n"
# runs at and around the token limit, alone or glued to other characters
long_runs = st.builds(lambda c, n: c * n, st.sampled_from(["a", "Z", "7", "a1_"]),
                      st.sampled_from([254, 255, 256, 600]))
pieces = st.one_of(long_runs, st.text(alphabet=ASCII_ALPHABET, max_size=40),
                   st.text(alphabet=ALPHABET, max_size=20))
rows = st.one_of(
    st.none(), st.just(""),
    st.text(alphabet=ASCII_ALPHABET, min_size=200, max_size=2000),
    st.lists(pieces, max_size=6).map("".join),
    st.lists(pieces, max_size=6).map(" ".join),
    texts,
)


def _needs_analyze(t) -> bool:
    if not t:
        return False
    return not t.isascii() or any(
        len(tok) > DEFAULT_MAX_TOKEN_LENGTH for tok in _ASCII.findall(t.lower()))


@settings(max_examples=150, deadline=None)
@given(st.lists(rows, min_size=0, max_size=8), st.integers(0, 8))
def test_columnar_long_rows_and_tokens(ts, cut):
    """Rows of any length take the columnar path when ASCII; a row holding a
    token over the limit goes to analyze() (which chops it), as does every
    non-ASCII row, and nothing else does.  The input is a two-chunk
    ChunkedArray."""
    cut = min(cut, len(ts))
    col = pa.chunked_array([pa.array(ts[:cut], type=pa.string()),
                            pa.array(ts[cut:], type=pa.string())])
    seen = []

    def counting(text, *a, **kw):
        seen.append(text)
        return analyze(text, *a, **kw)

    standard.analyze = counting
    try:
        lengths, flat = tokenize_column(col)
    finally:
        standard.analyze = analyze
    got, off = [], 0
    for n in lengths:
        got.append(flat.slice(off, int(n)).to_pylist())
        off += int(n)
    assert off == len(flat)
    assert got == [analyze(t) if t else [] for t in ts]
    assert seen == [t for t in ts if _needs_analyze(t)]


@settings(max_examples=200, deadline=None)
@given(texts)
def test_scan_offsets_consistent(t):
    prev_end = 0
    for tok, s, e, _ in scan(t):
        assert 0 <= s < e <= len(t)
        assert s >= prev_end
        assert t[s:e] == tok
        prev_end = e

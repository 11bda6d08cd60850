"""Shard flush: keyword postings spliced into the sorted text dictionary, and
the small-term postings encoder, checked against brute force.

Every term's docs, freqs and positions are read back through ShardReader and
compared with an inversion of the input table done row by row.
"""

import numpy as np
import pyarrow as pa
import pytest

from lucene_ray.analysis.standard import analyze
from lucene_ray.index.postings import vint_encode
from lucene_ray.index.shard import (
    ShardReader,
    _encode_small_terms,
    keyword_term,
    write_shard,
)

KW_COLS = ("role", "tool", "missing")


def _table(texts, roles, tools):
    n = len(texts)
    return pa.table({
        "conv_id": pa.array([f"c{i:05d}" for i in range(n)], pa.string()),
        "turn_idx": pa.array(np.zeros(n, dtype=np.int32)),
        "role": pa.array(roles, pa.string()),
        "text": pa.array(texts, pa.string()),
        "tool": pa.array(tools, pa.string()),
    })


def _brute(table, keyword_cols):
    """term -> {local doc: positions}; rows are already in docID order."""
    post = {}
    for d, text in enumerate(table.column("text").to_pylist()):
        for i, tok in enumerate(analyze(text) if text else []):
            post.setdefault(tok, {}).setdefault(d, []).append(i)
    for col in keyword_cols:
        if col not in table.column_names:
            continue
        for d, v in enumerate(table.column(col).to_pylist()):
            if v is not None and v != "":
                post.setdefault(keyword_term(col, v), {})[d] = [0]
    return post


def _check_shard(tmp_path, name, table, keyword_cols=KW_COLS):
    meta = write_shard(str(tmp_path), 0, table, f"splice-{name}",
                       keyword_cols=keyword_cols)
    r = ShardReader(str(tmp_path / "shard-00000"))
    want = _brute(table, keyword_cols)
    terms = list(r._term_np)
    assert terms == sorted(want)            # code-point order, no duplicates
    assert meta["n_terms"] == len(want)
    for tid, term in enumerate(terms):
        docs, freqs = r.postings(tid)
        pos = r.positions(tid, freqs)
        exp = want[term]
        assert docs.tolist() == sorted(exp), term
        assert freqs.tolist() == [len(exp[d]) for d in sorted(exp)], term
        assert pos.tolist() == [p for d in sorted(exp) for p in exp[d]], term
        assert r.term_stats(tid) == (len(exp), sum(len(v) for v in exp.values()))
    return r


def test_keyword_terms_beside_text_terms(tmp_path):
    """Keyword terms `role\\x1f...` sort between the text terms `role` and
    `role0`; non-ASCII, empty and null values; a missing keyword column."""
    texts = ["role role0 tool", "tool0 role", "Role tool tools", "",
             None, "café role0 rolé", "日本 tool role"]
    roles = ["user", "tool", "é", "", None, "user", "日本"]
    tools = ["bash", None, "", "role", "bash", "édit", "tool0"]
    _check_shard(tmp_path, "beside", _table(texts, roles, tools))


def test_keyword_only_shard(tmp_path):
    """Every text is empty or null, so the dictionary holds keyword terms
    only."""
    texts = ["", None, "", "  ", ".,;"]
    roles = ["user", "assistant", None, "user", "système"]
    tools = ["", "bash", "bash", None, "editor"]
    r = _check_shard(tmp_path, "kwonly", _table(texts, roles, tools))
    assert all("\x1f" in t for t in r._term_np)


def test_no_keyword_values(tmp_path):
    """Keyword columns with nothing to index leave the text dictionary as
    it is."""
    texts = ["role tool", "tool role0"]
    _check_shard(tmp_path, "novals", _table(texts, [None, ""], ["", None]))


@pytest.mark.parametrize("seed", [0, 1])
def test_full_blocks(tmp_path, seed):
    """More than 128 docs: text and keyword terms both reach full PFor
    blocks, others stay in the vint tail."""
    rng = np.random.default_rng(seed)
    words = np.array(["role", "role0", "tool", "tools", "merge", "ßeta",
                      "x" * 255, "y" * 300, "data"], dtype=object)
    n = 400
    texts = [" ".join(rng.choice(words, size=rng.integers(0, 12)))
             for _ in range(n)]
    roles = rng.choice(np.array(["user", "assistant", "", None, "rôle"],
                                dtype=object), size=n).tolist()
    tools = rng.choice(np.array(["bash", "search", "", None], dtype=object),
                       size=n).tolist()
    r = _check_shard(tmp_path, f"blocks{seed}", _table(texts, roles, tools))
    assert int(r._df.max()) > 128


def test_encode_small_terms_matches_per_term_vints():
    """The interleaved one-shot encoder writes, per term, the vints of
    [doc deltas (first = doc + 1) | freqs], back to back."""
    rng = np.random.default_rng(7)
    V = 500
    dfs = rng.integers(1, 128, size=V)
    term_starts = np.concatenate(([0], np.cumsum(dfs)))
    doc_of = np.concatenate([
        np.sort(rng.choice(2**31 - 1, size=df, replace=False)) for df in dfs
    ]).astype(np.int32)
    freq = rng.integers(1, 70000, size=len(doc_of)).astype(np.int32)
    small_ids = np.sort(rng.choice(V, size=300, replace=False))
    payload, nbytes = _encode_small_terms(term_starts, doc_of, freq, small_ids)
    want = []
    for t in small_ids:
        docs = doc_of[term_starts[t]:term_starts[t + 1]].astype(np.int64)
        deltas = np.diff(docs, prepend=-1)
        want.append(vint_encode(np.concatenate(
            (deltas, freq[term_starts[t]:term_starts[t + 1]]))))
    assert payload == b"".join(want)
    assert nbytes.tolist() == [len(w) for w in want]
    payload, nbytes = _encode_small_terms(term_starts, doc_of, freq, small_ids[:0])
    assert payload == b"" and len(nbytes) == 0

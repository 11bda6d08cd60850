"""Regression tests for the round-1 advisor findings (ADVICE.md):

1. Phrase composite key must stay non-negative for phrases with >= 6 terms
   whose terms also occur at low positions elsewhere (no phantom doc -1).
2. PFor bits==0 blocks with a 2-byte vint value (all-equal delta >= 128)
   must not shift the freq-block offsets in the batched decode_list path.
3. searchAfter total_hits counts every match (pages 2+ report the same
   total as page 1), matching the reference paging collector.
4. Prefix expansion upper bound includes terms whose next code point is
   supplementary (> U+FFFF).
"""

import numpy as np
import pyarrow as pa
import pytest

from lucene_ray.index.postings import (
    decode_list,
    decode_postings,
    encode_postings,
)
from lucene_ray.index.shard import ShardReader, write_shard
from lucene_ray.search.query import SHOULD, TermQuery, bool_query
from lucene_ray.search.scorer import (
    search_shard_exhaustive,
    search_shard_phrase,
)
from lucene_ray.search.searcher import _prefix_range
from lucene_ray.search.similarity import BM25Similarity


NUMS = ["one", "two", "three", "four", "five", "six", "seven"]


@pytest.fixture(scope="module")
def phrase_shard(tmp_path_factory):
    texts = []
    # docs with the full 7-term phrase, preceded by "seven" so the last
    # phrase term also occurs at position 0 (pos < i - 4 for i = 6)
    for j in range(5):
        texts.append("seven " + " ".join(NUMS) + f" pad{j}")
    # docs with "seven" (and other phrase terms) at low positions but NO phrase
    for j in range(40):
        texts.append(f"seven six five four pad{j} filler")
    # noise
    for j in range(40):
        texts.append(f"alpha beta pad{j}")
    table = pa.table({
        "conv_id": pa.array([f"c{i:05d}" for i in range(len(texts))]),
        "turn_idx": pa.array([0] * len(texts), type=pa.int32()),
        "text": pa.array(texts),
    })
    d = str(tmp_path_factory.mktemp("phr"))
    m = write_shard(d, 0, table, "phrfp")
    return ShardReader(f"{d}/shard-00000"), m, texts


def test_long_phrase_no_phantom_docs(phrase_shard):
    rdr, m, texts = phrase_shard
    sim = BM25Similarity()
    dfs = []
    for t in NUMS:
        tid = rdr.seek_exact(t)
        assert tid >= 0
        dfs.append(rdr.term_stats(tid)[0])
    idf_sum = np.float32(0.0)
    for d in dfs:
        idf_sum = idf_sum + sim.idf(d, m["doc_count_field"])
    scorer = sim.scorer_with_idf(1.0, idf_sum, m["doc_count_field"], m["sum_ttf"])
    scores, docs, total, _ = search_shard_phrase(rdr, [(t,) for t in NUMS], 0, scorer, k=50)
    # brute-force oracle on the raw text
    phrase = " ".join(NUMS)
    expect = {i for i, t in enumerate(texts) if phrase in t}
    assert set(docs.tolist()) == expect
    assert total == len(expect)
    assert (docs >= 0).all()
    assert (scores > 0).all()


def test_pfor_two_byte_vint_uniform_delta():
    # 512 docs with uniform delta 200: every doc-delta block is all-equal with
    # value >= 128 -> bits==0 token + 2-byte vint. 4 full blocks, no tail, so
    # decode_list takes the batched path and must step block offsets by the
    # real vint length.
    docs = (np.arange(512, dtype=np.int64) * 200 + 199).astype(np.int64)
    freqs = np.ones(512, dtype=np.int64)
    payload, offs, lasts = encode_postings(docs, freqs)
    d1, f1 = decode_postings(payload, 512)
    d2, f2 = decode_list(payload, 512, offs)
    np.testing.assert_array_equal(d1, docs)
    np.testing.assert_array_equal(d2, docs)
    np.testing.assert_array_equal(f1, freqs)
    np.testing.assert_array_equal(f2, freqs)


def test_pfor_mixed_vint_lengths_with_exceptions():
    rng = np.random.default_rng(3)
    # blocks alternating small/large uniform deltas plus a couple of exceptions
    deltas = []
    for b in range(8):
        base = 5 if b % 2 == 0 else 300
        blk = np.full(128, base, dtype=np.int64)
        if b % 3 == 0:
            blk[rng.integers(0, 128, size=2)] += rng.integers(1000, 5000, size=2)
        deltas.append(blk)
    deltas = np.concatenate(deltas)
    docs = np.cumsum(deltas) - 1
    freqs = rng.integers(1, 9, size=len(docs)).astype(np.int64)
    payload, offs, lasts = encode_postings(docs, freqs)
    d1, f1 = decode_postings(payload, len(docs))
    d2, f2 = decode_list(payload, len(docs), offs)
    np.testing.assert_array_equal(d1, docs)
    np.testing.assert_array_equal(d2, docs)
    np.testing.assert_array_equal(f2, freqs)


@pytest.fixture(scope="module")
def page_shard(tmp_path_factory):
    rng = np.random.default_rng(11)
    texts = []
    for i in range(3000):
        words = []
        if rng.random() < 0.5:
            words += ["apple"] * int(rng.integers(1, 4))
        if rng.random() < 0.3:
            words += ["banana"] * int(rng.integers(1, 3))
        words += [f"f{int(rng.integers(200))}" for _ in range(3)]
        rng.shuffle(words)
        texts.append(" ".join(words))
    table = pa.table({
        "conv_id": pa.array([f"c{i:05d}" for i in range(len(texts))]),
        "turn_idx": pa.array([0] * len(texts), type=pa.int32()),
        "text": pa.array(texts),
    })
    d = str(tmp_path_factory.mktemp("page"))
    m = write_shard(d, 0, table, "pagefp")
    return ShardReader(f"{d}/shard-00000"), m


def test_search_after_total_hits_stable(page_shard):
    rdr, m = page_shard
    sim = BM25Similarity()
    compiled = {"scoring": [(t, sim.scorer(1.0, m["doc_count_field"], m["sum_ttf"],
                                           rdr.term_stats(rdr.seek_exact(t))[0]), SHOULD)
                            for t in ("apple", "banana")],
                "filters": [], "must_nots": [], "msm": 0, "n_required": 0}
    s1, d1, t1, _ = search_shard_exhaustive(rdr, compiled, 10)
    after = (float(s1[-1]), int(d1[-1]))
    s2, d2, t2, _ = search_shard_exhaustive(rdr, compiled, 10, after=after)
    assert t2 == t1            # page 2 reports the same total as page 1
    assert len(set(d1.tolist()) & set(d2.tolist())) == 0


def test_prefix_range_supplementary():
    terms = np.sort(np.array(
        ["ab", "ab\U00010000c", "abz", "ac", "a", "b"], dtype=object))
    lo, hi = _prefix_range(terms, "ab")
    got = set(terms[lo:hi].tolist())
    assert got == {"ab", "ab\U00010000c", "abz"}
    # prefix ending at the max code point falls back to the parent bound
    lo2, hi2 = _prefix_range(terms, "a\U0010FFFF")
    assert all(t.startswith("a") for t in terms[lo2:hi2])

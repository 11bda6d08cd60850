"""Sloppy phrase matching (non-repeating terms) — SloppyPhraseMatcher
greedy-traversal semantics, through the matcher and the phrase executor."""

import numpy as np
import pyarrow as pa
import pytest

from lucene_ray.index.shard import ShardReader, write_shard
from lucene_ray.search.phrase_matcher import SloppyPhraseMatcher
from lucene_ray.search.query import PhraseQuery
from lucene_ray.search.scorer import search_shard_phrase
from lucene_ray.search.similarity import BM25Similarity


def _freq(texts_tokens, phrase, slop):
    """Run the matcher directly on the phrase terms' position lists."""
    pls = []
    for t in phrase:
        pos = [j for j, w in enumerate(texts_tokens) if w == t]
        if not pos:
            return np.float32(0.0)
        pls.append(np.array(pos, dtype=np.int64))
    return SloppyPhraseMatcher([(t,) for t in phrase], slop).freq(pls)


def test_javadoc_example():
    # SloppyPhraseMatcher javadoc: "a b"~2 over "x a b a y" matches twice:
    # distance 0 ("a b") and distance 2 ("b a") -> 1/1 + 1/3
    doc = "x a b a y".split()
    f = _freq(doc, ("a", "b"), 2)
    assert f == np.float32(1.0) + np.float32(1.0) / np.float32(3.0)


def test_exact_match_weight():
    assert _freq("a b".split(), ("a", "b"), 0) == np.float32(1.0)
    assert _freq("a x b".split(), ("a", "b"), 0) == np.float32(0.0)
    assert _freq("a x b".split(), ("a", "b"), 1) == np.float32(0.5)   # distance 1


def test_reversed_order_distance():
    # "b a": positions a@1,b@0 -> shifted a:1, b:-1 -> distance 2
    assert _freq("b a".split(), ("a", "b"), 2) == np.float32(1.0) / np.float32(3.0)
    assert _freq("b a".split(), ("a", "b"), 1) == np.float32(0.0)


def test_match_set_equals_bruteforce_window():
    """MATCH/NO-MATCH (not freq) equals exists-alignment-with-distance<=slop."""
    rng = np.random.default_rng(4)
    vocab = list("abcdefg")
    for _ in range(300):
        doc = [vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(2, 15))]
        phrase = tuple(rng.choice(vocab, size=2, replace=False))
        slop = int(rng.integers(0, 4))
        got = _freq(doc, phrase, slop) > 0
        # brute force: any (p0, p1) with |p0 - (p1 - 1)| <= slop
        p0s = [j for j, w in enumerate(doc) if w == phrase[0]]
        p1s = [j for j, w in enumerate(doc) if w == phrase[1]]
        want = any(abs(a - (b - 1)) <= slop for a in p0s for b in p1s)
        assert got == want, (doc, phrase, slop)


@pytest.fixture(scope="module")
def shard(tmp_path_factory):
    texts = ["x a b a y", "a b", "b a", "a x b", "a x x x b", "b x a",
             "a b c", "c b a", "a c b", "nothing here", "a y b c"]
    t = pa.table({
        "conv_id": pa.array([f"c{i:03d}" for i in range(len(texts))]),
        "turn_idx": pa.array([0] * len(texts), type=pa.int32()),
        "text": pa.array(texts),
    })
    d = str(tmp_path_factory.mktemp("slopshard"))
    m = write_shard(d, 0, t, "slopfp")
    return ShardReader(f"{d}/shard-00000"), m, [t.split() for t in texts]


def test_shard_sloppy_matches_direct(shard):
    rdr, m, docs_tokens = shard
    sim = BM25Similarity()
    scorer = sim.scorer_with_idf(1.0, np.float32(1.0), m["doc_count_field"], m["sum_ttf"])
    for phrase, slop in [(("a", "b"), 2), (("a", "b"), 0), (("a", "b"), 1),
                         (("a", "b", "c"), 2), (("b", "c"), 3)]:
        sc, dd, total, _ = search_shard_phrase(rdr, [(t,) for t in phrase], slop,
                                               scorer, 20)
        want = {}
        for i, toks in enumerate(docs_tokens):
            f = _freq(toks, phrase, slop)
            if f > 0:
                want[i] = scorer.score(np.array([f], np.float32), rdr.norms[i:i + 1])[0]
        assert total == len(want)
        got = dict(zip(dd.tolist(), sc.tolist()))
        assert set(got) == set(want)
        for d_ in got:
            assert np.float32(got[d_]) == np.float32(want[d_])


def test_slop0_equals_exact(shard):
    """The exact kernel (slop 0) ranks like the sloppy matcher at slop 0."""
    rdr, m, docs_tokens = shard
    sim = BM25Similarity()
    scorer = sim.scorer_with_idf(1.0, np.float32(1.0), m["doc_count_field"], m["sum_ttf"])
    se, de, te, _ = search_shard_phrase(rdr, [("a",), ("b",)], 0, scorer, 20)
    freqs = np.array([_freq(toks, ("a", "b"), 0) for toks in docs_tokens],
                     dtype=np.float32)
    ds = np.nonzero(freqs > 0)[0]
    ss = scorer.score(freqs[ds], rdr.norms[ds])
    order = np.lexsort((ds, -ss))
    assert np.array_equal(de, ds[order]) and te == len(ds)
    assert np.array_equal(se, ss[order])


def test_repeating_terms_now_supported():
    # round-2: the guard is gone — repeating-term sloppy phrases route to the
    # full SloppyPhraseMatcher (tests/test_sloppy_repeats.py)
    q = PhraseQuery(("a", "b", "a"), slop=1)
    assert q.slop == 1

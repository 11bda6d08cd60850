"""SloppyPhraseMatcher with repeating terms + MultiPhraseQuery — fixtures
ported from the semantics exercised by the reference's TestSloppyPhraseQuery
(core/src/test/.../TestSloppyPhraseQuery.java: DOC_1..DOC_5, LUCENE-1310 /
LUCENE-3412 regressions) plus parity with the non-repeating greedy matcher
and end-to-end searcher checks."""

import numpy as np
import pyarrow as pa
import pytest

from lucene_ray.index.shard import ShardReader, write_shard
from lucene_ray.search.phrase_matcher import SloppyPhraseMatcher
from lucene_ray.search.query import MultiPhraseQuery, PhraseQuery
from lucene_ray.search.scorer import search_shard_phrase
from lucene_ray.search.searcher import IndexSearcher
from lucene_ray.search.similarity import BM25Similarity
from test_phrase_routes import greedy_sloppy_freq


def doc_freq(tokens, slots, slop) -> float:
    """Run the matcher over a raw token list (slots = tuple of accepted
    terms per phrase position)."""
    m = SloppyPhraseMatcher([tuple(s) for s in slots], slop)
    pls = []
    for s in slots:
        pl = [j for j, w in enumerate(tokens) if w in s]
        if not pl:
            return 0.0
        pls.append(np.array(sorted(pl), dtype=np.int64))
    return float(m.freq(pls))


S_1 = "A A A"
S_2 = "A 1 2 3 A 4 5 6 A"
DOC_1 = f"X {S_1} Y".split()
DOC_2 = f"X {S_2} Y".split()
DOC_3 = f"X {S_1} A Y".split()
DOC_1_B = f"X {S_1} Y N N N N {S_1} Z".split()
DOC_2_B = f"X {S_2} Y N N N N {S_2} Z".split()
DOC_3_B = f"X {S_1} A Y N N N N {S_1} A Y".split()
DOC_4 = "A A X A X B A X B B A A X B A A".split()
Q_1 = [(t,) for t in S_1.split()]
Q_2 = [(t,) for t in S_2.split()]
Q_4 = [("X",), ("A",), ("A",)]


def test_doc4_query4_all_slops():
    # only one fuzzy (len=1) alignment exists; slop 0 fails, slop>=1 matches
    for slop in range(0, 30):
        f = doc_freq(DOC_4, Q_4, slop)
        assert (f > 0) == (slop >= 1), slop


def test_doc1_query1_all_slops_match_and_b_scores_higher():
    for slop in range(0, 30):
        f1 = doc_freq(DOC_1, Q_1, slop)
        f2 = doc_freq(DOC_1_B, Q_1, slop)
        assert f1 > 0
        assert f2 > f1, slop


def test_doc2_query1_slop6_minimum():
    for slop in range(0, 30):
        f1 = doc_freq(DOC_2, Q_1, slop)
        assert (f1 > 0) == (slop >= 6), slop
        if f1 > 0:
            f2 = doc_freq(DOC_2_B, Q_1, slop)
            assert f2 > f1


def test_doc2_query2_all_slops():
    for slop in range(0, 30):
        f1 = doc_freq(DOC_2, Q_2, slop)
        f2 = doc_freq(DOC_2_B, Q_2, slop)
        assert f1 > 0
        assert f2 > f1


def test_doc3_query1_all_slops():
    for slop in range(0, 30):
        f1 = doc_freq(DOC_3, Q_1, slop)
        f2 = doc_freq(DOC_3_B, Q_1, slop)
        assert f1 > 0
        assert f2 > f1


def test_doc5_hhh_consistency():
    # LUCENE-3412 shape: repeated runs of H
    doc53 = "H H H X X X H H H X X X H H H".split()
    doc54 = "H H H H".split()
    q = [("H",)] * 4
    for slop in range(0, 3):
        f53 = doc_freq(doc53, q, slop)
        f54 = doc_freq(doc54, q, slop)
        assert f54 > 0          # exact run of 4 H's always matches
        assert f53 == doc_freq(doc53, q, slop)     # deterministic
    assert doc_freq(doc53, q, 0) == 0.0            # no 4-in-a-row anywhere


def test_parity_with_nonrepeating_greedy():
    """On phrases WITHOUT repeats the full matcher must equal the greedy
    reference matcher (tests/test_phrase_routes.py) bit-for-bit."""
    rng = np.random.default_rng(17)
    vocab = list("abcdefg")
    for _ in range(400):
        doc = [vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(2, 16))]
        nterms = int(rng.integers(2, 4))
        phrase = list(rng.choice(vocab, size=nterms, replace=False))
        slop = int(rng.integers(0, 5))
        pls = []
        ok = True
        for i, t in enumerate(phrase):
            pos = [j - i for j, w in enumerate(doc) if w == t]
            if not pos:
                ok = False
                break
            pls.append(np.array(pos, dtype=np.int64))
        if not ok:
            continue
        fast = greedy_sloppy_freq(pls, slop)
        full = doc_freq(doc, [(t,) for t in phrase], slop)
        assert np.float32(full) == fast, (doc, phrase, slop)


def test_multiphrase_exact_union():
    # slot 0 accepts quick|fast: both docs match "(quick|fast) fox"
    assert doc_freq("the quick fox".split(), [("quick", "fast"), ("fox",)], 0) == 1.0
    assert doc_freq("the fast fox".split(), [("quick", "fast"), ("fox",)], 0) == 1.0
    assert doc_freq("the slow fox".split(), [("quick", "fast"), ("fox",)], 0) == 0.0


def test_multiphrase_hidden_collision():
    """SloppyPhraseMatcher.java:477 example: P1={A,B}, P2={B,C}, doc "A C B"
    — the pps repeat each other through the shared term B."""
    f = doc_freq("A C B".split(), [("A", "B"), ("B", "C")], 2)
    assert f > 0
    # doc with only one B and no other accepted terms: both slots would need
    # the SAME occurrence -> collision resolution must refuse
    assert doc_freq("X B Y".split(), [("A", "B"), ("B", "C")], 3) == 0.0


@pytest.fixture(scope="module")
def repeat_shard(tmp_path_factory):
    texts = [
        " ".join(DOC_1), " ".join(DOC_2), " ".join(DOC_3), " ".join(DOC_4),
        "the quick fox jumps", "the fast fox rests", "the slow fox naps",
        "merge join merge join window", "noise filler words here",
    ] + [f"pad doc {i} content alpha" for i in range(30)]
    table = pa.table({
        "conv_id": pa.array([f"c{i:05d}" for i in range(len(texts))]),
        "turn_idx": pa.array([0] * len(texts), type=pa.int32()),
        "text": pa.array(texts),
    })
    d = str(tmp_path_factory.mktemp("rpt"))
    write_shard(d, 0, table, "rptfp")
    return d, texts


def _mini_searcher(shard_dir):
    """Single-shard reader bypassing the commit machinery."""
    return ShardReader(f"{shard_dir}/shard-00000")


def test_end_to_end_repeating_sloppy(repeat_shard):
    d, texts = repeat_shard
    rdr = _mini_searcher(d)
    sim = BM25Similarity()
    m = rdr.manifest if hasattr(rdr, "manifest") else None
    # a a a with slop 6: DOC_1(0), DOC_2(1), DOC_3(2), DOC_4(3) candidates
    scorer = sim.scorer_with_idf(1.0, np.float32(1.0),
                                 int(m["doc_count_field"]), int(m["sum_ttf"]))
    slots = (("a",), ("a",), ("a",))
    scores, docs, total, _ = search_shard_phrase(rdr, slots, 6, scorer, 10)
    got = set(docs.tolist())
    expect = {i for i, t in enumerate(texts)
              if doc_freq(t.lower().split(), [("a",)] * 3, 6) > 0}
    assert got == expect


def test_end_to_end_multiphrase(repeat_shard):
    d, texts = repeat_shard
    rdr = _mini_searcher(d)
    sim = BM25Similarity()
    m = rdr.manifest
    scorer = sim.scorer_with_idf(1.0, np.float32(1.0),
                                 int(m["doc_count_field"]), int(m["sum_ttf"]))
    slots = (("quick", "fast"), ("fox",))
    scores, docs, total, _ = search_shard_phrase(rdr, slots, 0, scorer, 10)
    expect = {i for i, t in enumerate(texts)
              if doc_freq(t.lower().split(), [("quick", "fast"), ("fox",)], 0) > 0}
    assert set(docs.tolist()) == expect
    assert total == len(expect)

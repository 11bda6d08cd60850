"""Impact-ordered TAAT (MaxScore essential/non-essential partition) for
dense disjunctions: bit-identical top-k to the exhaustive oracle, pruning
that provably avoids full decode of non-essential hot terms, and
totalHitsThreshold semantics (`search/MaxScoreBulkScorer.java`)."""

import numpy as np
import pyarrow as pa
import pytest

from lucene_ray.index.shard import ShardReader, write_shard
from lucene_ray.search.query import SHOULD
from lucene_ray.search.scorer import (
    search_shard_exhaustive,
    search_shard_maxscore,
)
from lucene_ray.search.similarity import BM25Similarity


@pytest.fixture(scope="module")
def mixed_shard(tmp_path_factory):
    """Hot low-idf terms (the dense-disjunction tail) + rare high-idf terms
    whose partial top-k quickly clears the hot terms' max mass."""
    rng = np.random.default_rng(13)
    n = 20000
    texts = []
    for i in range(n):
        words = []
        if rng.random() < 0.92:
            words += ["hotone"] * int(rng.integers(1, 5))
        if rng.random() < 0.55:
            words += ["hottwo"] * int(rng.integers(1, 3))
        if rng.random() < 0.35:
            words.append("warm")
        if rng.random() < 0.02:
            words += ["rareone"] * int(rng.integers(1, 3))
        if rng.random() < 0.01:
            words.append("raretwo")
        words += ["pad"] * int(rng.integers(0, 4))
        rng.shuffle(words)
        texts.append(" ".join(words) if words else "filler")
    table = pa.table({
        "conv_id": pa.array([f"conv-{i // 8:08d}" for i in range(n)]),
        "turn_idx": pa.array([i % 8 for i in range(n)], type=pa.int32()),
        "text": pa.array(texts),
    })
    d = str(tmp_path_factory.mktemp("msshard"))
    m = write_shard(d, 0, table, "msfp")
    return ShardReader(f"{d}/shard-00000"), m


def _compiled(rdr, m, terms):
    sim = BM25Similarity()
    scoring = []
    for t in terms:
        tid = rdr.seek_exact(t)
        assert tid >= 0, t
        df = rdr.term_stats(tid)[0]
        scoring.append((t, sim.scorer(1.0, m["doc_count_field"],
                                      m["sum_ttf"], df), SHOULD))
    return {"scoring": scoring, "filters": [], "must_nots": [],
            "msm": 0, "n_required": 0}


@pytest.mark.parametrize("terms,k", [
    (["hotone", "hottwo"], 10),
    (["hotone", "hottwo", "warm"], 10),
    (["rareone", "hotone"], 10),
    (["raretwo", "hotone", "hottwo"], 25),
    (["rareone", "raretwo", "warm", "hotone"], 100),
    (["hotone"], 10),
])
def test_maxscore_matches_exhaustive(mixed_shard, terms, k):
    rdr, m = mixed_shard
    compiled = _compiled(rdr, m, terms)
    es, ed, etotal, _ = search_shard_exhaustive(rdr, compiled, k)
    ms, md, mtotal, mrel = search_shard_maxscore(rdr, compiled, k)
    assert np.array_equal(ed, md)
    assert np.array_equal(es, ms)           # bit-identical float32
    if mrel == "EQUAL_TO":
        assert mtotal == etotal
    else:
        assert mtotal <= etotal


def test_maxscore_prunes_hot_term_decode(mixed_shard):
    """With a low threshold and a rare lead term, the hot term's posting
    list must never be FULLY decoded: its contributions come from
    skip-table block lookups at candidate positions only."""
    rdr, m = mixed_shard
    terms = ["rareone", "hotone"]
    compiled = _compiled(rdr, m, terms)
    hot_tid = rdr.seek_exact("hotone")

    es, ed, _, _ = search_shard_exhaustive(rdr, compiled, 10)

    full_decodes = []
    orig = ShardReader.postings

    def counting(self, tid):
        full_decodes.append(tid)
        return orig(self, tid)

    ShardReader.postings = counting
    try:
        ms, md, _, mrel = search_shard_maxscore(rdr, compiled, 10,
                                                threshold=10)
    finally:
        ShardReader.postings = orig
    assert mrel == "GREATER_THAN_OR_EQUAL_TO"       # pruning engaged
    assert hot_tid not in full_decodes, \
        "non-essential hot term was fully decoded"
    assert np.array_equal(ed, md)
    assert np.array_equal(es, ms)


def test_maxscore_with_deletes(mixed_shard):
    rdr, m = mixed_shard
    compiled = _compiled(rdr, m, ["rareone", "hotone", "hottwo"])
    es0, ed0, _, _ = search_shard_exhaustive(rdr, compiled, 10)
    deleted = np.zeros(rdr.doc_count, dtype=bool)
    deleted[ed0[:5].astype(np.int64)] = True        # kill half the top-10
    old = rdr.deleted
    rdr.deleted = deleted
    try:
        es, ed, _, _ = search_shard_exhaustive(rdr, compiled, 10)
        ms, md, _, _ = search_shard_maxscore(rdr, compiled, 10, threshold=10)
    finally:
        rdr.deleted = old
    assert not set(ed0[:5]) & set(md)
    assert np.array_equal(ed, md)
    assert np.array_equal(es, ms)


def test_maxscore_threshold_semantics(mixed_shard):
    """Totals below the threshold stay exact (EQUAL_TO, exact count)."""
    rdr, m = mixed_shard
    compiled = _compiled(rdr, m, ["rareone", "raretwo"])
    _, _, etotal, _ = search_shard_exhaustive(rdr, compiled, 5)
    _, _, mtotal, mrel = search_shard_maxscore(rdr, compiled, 5,
                                               threshold=100000)
    assert mrel == "EQUAL_TO"
    assert mtotal == etotal


def test_maxscore_fuzz_parity(mixed_shard):
    """Randomized disjunctions x thresholds x k: top-k docs AND float32
    scores must match the exhaustive oracle exactly."""
    rdr, m = mixed_shard
    rng = np.random.default_rng(99)
    vocab = ["hotone", "hottwo", "warm", "rareone", "raretwo", "pad"]
    for trial in range(40):
        nt = int(rng.integers(2, 5))
        terms = list(rng.choice(vocab, size=nt, replace=False))
        k = int(rng.choice([1, 3, 10, 50]))
        thr = int(rng.choice([10, 1000]))
        compiled = _compiled(rdr, m, terms)
        es, ed, etotal, _ = search_shard_exhaustive(rdr, compiled, k)
        ms, md, mtotal, mrel = search_shard_maxscore(rdr, compiled, k,
                                                     threshold=thr)
        assert np.array_equal(ed, md), (terms, k, thr)
        assert np.array_equal(es, ms), (terms, k, thr)
        if mrel == "EQUAL_TO":
            assert mtotal == etotal, (terms, k, thr)


def test_msm_lead_matches_bruteforce(mixed_shard):
    """minimumShouldMatch lead path (uint8 count scatter + candidate
    scoring) vs an independent dense recount — docs, float32 scores and
    totals bit-identical."""
    rdr, m = mixed_shard
    for terms, msm in [(["hotone", "hottwo"], 2),
                       (["hotone", "hottwo", "warm"], 2),
                       (["hotone", "hottwo", "warm", "rareone"], 3)]:
        compiled = _compiled(rdr, m, terms)
        compiled["msm"] = msm
        s_new, d_new, t_new, _ = search_shard_exhaustive(rdr, compiled, 25)
        acc = np.zeros(rdr.doc_count, np.float32)
        cnt = np.zeros(rdr.doc_count, np.int32)
        for t, scorer, _ in compiled["scoring"]:
            tid = rdr.seek_exact(t)
            docs, freqs = rdr.postings(tid)
            acc[docs] += scorer.score(freqs, rdr.norms[docs])
            cnt[docs] += 1
        el = np.nonzero(cnt >= msm)[0].astype(np.int32)
        order = np.lexsort((el, -acc[el]))[:25]
        assert np.array_equal(d_new, el[order]), (terms, msm)
        assert np.array_equal(s_new, acc[el][order]), (terms, msm)
        assert t_new == len(el)


def test_required_lead_matches_bruteforce(mixed_shard):
    """Required-lead path (MUST/FILTER bitmask intersect + candidate
    scoring) vs an independent dense recount."""
    from lucene_ray.search.query import MUST

    rdr, m = mixed_shard
    for must, should in [(["hotone", "hottwo"], []),
                         (["rareone"], ["hotone", "warm"]),
                         (["hotone"], ["raretwo"])]:
        compiled = _compiled(rdr, m, must + should)
        scoring = []
        for i, (t, sc, _o) in enumerate(compiled["scoring"]):
            scoring.append((t, sc, MUST if i < len(must) else SHOULD))
        compiled["scoring"] = scoring
        compiled["n_required"] = len(must)
        s_new, d_new, t_new, _ = search_shard_exhaustive(rdr, compiled, 25)
        acc = np.zeros(rdr.doc_count, np.float32)
        req = np.zeros(rdr.doc_count, np.int32)
        for t, scorer, occ in scoring:
            tid = rdr.seek_exact(t)
            docs, freqs = rdr.postings(tid)
            acc[docs] += scorer.score(freqs, rdr.norms[docs])
            if occ == MUST:
                req[docs] += 1
        el = np.nonzero(req >= len(must))[0].astype(np.int32)
        order = np.lexsort((el, -acc[el]))[:25]
        assert np.array_equal(d_new, el[order]), (must, should)
        assert np.array_equal(s_new, acc[el][order]), (must, should)
        assert t_new == len(el)

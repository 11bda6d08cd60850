"""Differential harness over every boolean scoring route.

Seeded adversarial shards (hot terms in every 128-doc block, terms with
>= 4 full blocks and an empty or one-posting vint tail, candidates that
lie past a term's last posting, deletes) are queried through each route that accepts the
compiled shape — the full TAAT accumulator, required-lead, msm-lead and
MaxScore at totalHitsThresholds 10 and 1000 — with cold and warm postings
caches.  Every route must return bit-identical docs and float32 scores to
an independent brute-force BM25 (straight-line Lucene op order, clause-order
float32 accumulation as in test_search.py's Oracle), and exact totals
whenever it reports EQUAL_TO.
"""

import numpy as np
import pyarrow as pa
import pytest

from lucene_ray.index.shard import ShardReader, write_shard
from lucene_ray.search.query import FILTER, MUST, SHOULD, bool_query
from lucene_ray.search.scorer import (
    _search_shard_msm_lead,
    _search_shard_required_lead,
    _search_shard_taat,
    search_shard_maxscore,
)
from lucene_ray.search.similarity import BM25Similarity
from lucene_ray.util.smallfloat import LENGTH_TABLE, int_to_byte4

N_DOCS = 6000
EARLY_END = 1200          # "early" and "exact" occur only before this doc
LATE_START = 5600         # "late" occurs only from this doc on
VOCAB = ["hot", "warm", "exact", "single", "early", "late", "rare", "absent"]


def _shard_texts(seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    docs = [[] for _ in range(N_DOCS)]
    for d in range(N_DOCS):
        if rng.random() < 0.9:                       # every block
            docs[d] += ["hot"] * int(rng.integers(1, 5))
        if rng.random() < 0.4:
            docs[d] += ["warm"] * int(rng.integers(1, 3))
        if rng.random() < 0.01:
            docs[d] += ["rare"] * int(rng.integers(1, 4))
        if d < EARLY_END and rng.random() < 0.6:     # df >= 512, early only
            docs[d].append("early")
        if d >= LATE_START and rng.random() < 0.3:
            docs[d] += ["late"] * int(rng.integers(1, 3))
        docs[d] += ["pad"] * int(rng.integers(1, 12))
    # exactly 5 full blocks: df % 128 == 0 leaves an empty vint tail
    for d in rng.choice(EARLY_END, size=640, replace=False):
        docs[int(d)].append("exact")
    # 4 full blocks before the late docs plus a one-posting vint tail on
    # the last doc, which also holds "late"
    for d in rng.choice(LATE_START, size=512, replace=False):
        docs[int(d)].append("single")
    docs[-1] += ["single", "late"]
    for words in docs:
        rng.shuffle(words)
    return [" ".join(w) for w in docs]


class BruteForceBM25:
    """Straight-line float32 BM25 (`BM25Similarity.java` op order) over
    whitespace tokens, sharing no code with the engine's scorer."""

    def __init__(self, texts, k1=1.2, b=0.75):
        toks = [t.split() for t in texts]
        lengths = np.array([len(t) for t in toks], dtype=np.int64)
        self.norm_bytes = int_to_byte4(lengths)
        self.doc_count = int((lengths > 0).sum())
        self.avgdl = np.float32(int(lengths.sum()) / float(self.doc_count))
        self.k1, self.b = np.float32(k1), np.float32(b)
        self.tf: dict[str, dict[int, int]] = {}
        for d, words in enumerate(toks):
            for w in words:
                self.tf.setdefault(w, {})
                self.tf[w][d] = self.tf[w].get(d, 0) + 1

    def term_scores(self, term):
        postings = self.tf.get(term, {})
        df = len(postings)
        if not df:
            return {}
        weight = np.float32(1.0) * np.float32(
            np.log(1 + (self.doc_count - df + 0.5) / (df + 0.5)))
        one = np.float32(1.0)
        out = {}
        for d, f in postings.items():
            ln = LENGTH_TABLE[int(self.norm_bytes[d])]
            norm_inv = one / (self.k1 * ((one - self.b)
                                         + self.b * ln / self.avgdl))
            out[d] = weight - weight / (one + np.float32(f) * norm_inv)
        return out

    def search(self, clauses, must_nots, msm, deleted, k):
        """clauses: [(term, occur)] in compiled order.  Returns
        (docs, float32 scores, exact total)."""
        scores, n_should = {}, {}
        required = None
        for term, occur in clauses:
            ts = self.term_scores(term) if occur != FILTER else \
                dict.fromkeys(self.tf.get(term, {}))
            if occur in (MUST, FILTER):
                required = set(ts) if required is None else required & set(ts)
            if occur == SHOULD:
                for d in ts:
                    n_should[d] = n_should.get(d, 0) + 1
            if occur != FILTER:
                for d, v in ts.items():
                    scores[d] = scores.get(d, np.float32(0)) + v
        if required is None:
            eligible = {d for d, c in n_should.items() if c >= max(1, msm)}
        else:
            eligible = {d for d in required if n_should.get(d, 0) >= msm}
        for term in must_nots:
            eligible -= set(self.tf.get(term, {}))
        eligible = {d for d in eligible if deleted is None or not deleted[d]}
        zero = np.float32(0)
        ranked = sorted(eligible, key=lambda d: (-scores.get(d, zero), d))[:k]
        return (np.array(ranked, dtype=np.int32),
                np.array([scores.get(d, zero) for d in ranked],
                         dtype=np.float32),
                len(eligible))


@pytest.fixture(scope="module", params=[(3, False), (3, True), (29, True)],
                ids=["seed3", "seed3-deletes", "seed29-deletes"])
def shard(request, tmp_path_factory):
    seed, with_deletes = request.param
    texts = _shard_texts(seed)
    table = pa.table({
        "conv_id": pa.array([f"c{i:06d}" for i in range(N_DOCS)]),
        "turn_idx": pa.array([0] * N_DOCS, type=pa.int32()),
        "text": pa.array(texts),
    })
    d = str(tmp_path_factory.mktemp(f"routes{seed}"))
    m = write_shard(d, 0, table, f"routes{seed}")
    rdr = ShardReader(f"{d}/shard-00000")
    assert rdr.doc_count == N_DOCS
    for term in ("early", "exact", "hot"):
        df = int(rdr._df[rdr.seek_exact(term)])
        assert df >= 4 * 128, term
    assert int(rdr._df[rdr.seek_exact("exact")]) % 128 == 0
    assert int(rdr._df[rdr.seek_exact("single")]) == 4 * 128 + 1
    if with_deletes:
        rng = np.random.default_rng(seed + 1)
        deleted = rng.random(N_DOCS) < 0.07
        deleted[LATE_START::3] = True
        rdr.deleted = deleted
    return rdr, m, BruteForceBM25(texts)


def _compile(rdr, m, clauses, must_nots=(), msm=0):
    sim = BM25Similarity()
    scoring, filters = [], []
    for term, occur in clauses:
        if occur == FILTER:
            filters.append(term)
            continue
        tid = rdr.seek_exact(term)
        df = rdr.term_stats(tid)[0] if tid >= 0 else 0
        scoring.append((term, sim.scorer(1.0, m["doc_count_field"],
                                         m["sum_ttf"], max(df, 1)), occur))
    n_required = sum(o == MUST for _, _, o in scoring) + len(filters)
    return {"scoring": scoring, "filters": filters,
            "must_nots": list(must_nots), "msm": msm,
            "n_required": n_required}


def _routes(compiled):
    """Every route whose preconditions the compiled shape meets."""
    routes = [("taat", _search_shard_taat)]
    if compiled["n_required"] and not compiled["msm"]:
        routes.append(("required_lead", _search_shard_required_lead))
    if (compiled["msm"] >= 2 and not compiled["n_required"]
            and len(compiled["scoring"]) >= 2):
        routes.append(("msm_lead", _search_shard_msm_lead))
    if (compiled["msm"] <= 1 and not compiled["filters"]
            and not compiled["must_nots"]
            and all(o == SHOULD for _, _, o in compiled["scoring"])):
        for thr in (10, 1000):
            routes.append((f"maxscore@{thr}",
                           lambda r, c, k, thr=thr:
                           search_shard_maxscore(r, c, k, threshold=thr)))
    return routes


FIXED_SHAPES = [
    # (clauses, must_nots, msm)
    ([("hot", SHOULD), ("warm", SHOULD)], (), 0),
    ([("hot", SHOULD), ("early", SHOULD), ("late", SHOULD)], (), 0),
    ([("exact", SHOULD), ("hot", SHOULD)], (), 0),
    ([("rare", SHOULD), ("hot", SHOULD), ("warm", SHOULD), ("exact", SHOULD)],
     (), 0),
    ([("early", SHOULD), ("absent", SHOULD)], (), 0),
    # candidates all past the SHOULD term's last posting (>= 4 full blocks)
    ([("early", SHOULD), ("late", MUST)], (), 0),
    ([("exact", SHOULD), ("late", MUST)], (), 0),
    ([("single", SHOULD), ("late", MUST)], (), 0),
    ([("hot", MUST), ("exact", MUST)], (), 0),
    ([("late", MUST), ("hot", MUST)], (), 0),
    ([("hot", MUST), ("warm", FILTER)], (), 0),
    ([("hot", MUST)], ("warm",), 0),
    ([("hot", SHOULD), ("warm", SHOULD)], ("exact",), 0),
    ([("hot", SHOULD), ("warm", SHOULD), ("early", SHOULD), ("late", SHOULD)],
     (), 2),
    ([("hot", SHOULD), ("warm", SHOULD), ("exact", SHOULD), ("rare", SHOULD)],
     (), 3),
]


def _random_shapes(n, seed=11):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        terms = [str(t) for t in rng.choice(VOCAB, size=int(rng.integers(2, 5)),
                                            replace=False)]
        occurs = [[SHOULD, SHOULD, MUST, FILTER][int(i)]
                  for i in rng.integers(0, 4, size=len(terms))]
        clauses = list(zip(terms, occurs))
        others = [t for t in VOCAB if t not in terms]
        must_nots = (str(rng.choice(others)),) if rng.random() < 0.2 else ()
        n_should = sum(o == SHOULD for o in occurs)
        msm = int(rng.integers(2, n_should + 1)) \
            if n_should >= 2 and rng.random() < 0.25 else 0
        out.append((clauses, must_nots, msm))
    return out


def _cold_cache(monkeypatch):
    monkeypatch.setattr(ShardReader, "_CACHE", {})
    monkeypatch.setattr(ShardReader, "_CACHE_BYTES", [0])


def _check_all_routes(rdr, m, oracle, clauses, must_nots, msm, k,
                      monkeypatch):
    compiled = _compile(rdr, m, clauses, must_nots, msm)
    want_docs, want_scores, want_total = oracle.search(
        clauses, must_nots, msm, rdr.deleted, k)
    routes = _routes(compiled)
    for warm in (False, True):
        for name, route in routes:
            _cold_cache(monkeypatch)
            if warm:
                for term, _ in clauses:
                    tid = rdr.seek_exact(term)
                    if tid >= 0:
                        rdr.postings(tid)
            scores, docs, total, rel = route(rdr, compiled, k)
            ctx = (name, "warm" if warm else "cold", clauses, must_nots,
                   msm, k)
            np.testing.assert_array_equal(docs, want_docs, err_msg=str(ctx))
            assert scores.dtype == np.float32, ctx
            np.testing.assert_array_equal(scores, want_scores,
                                          err_msg=str(ctx))
            if rel == "EQUAL_TO":
                assert total == want_total, ctx
            else:
                assert total <= want_total, ctx
    return [name for name, _ in routes]


@pytest.mark.parametrize("k", [1, 10, 100])
def test_fixed_shapes_all_routes_match_bruteforce(shard, k, monkeypatch):
    rdr, m, oracle = shard
    seen = set()
    for clauses, must_nots, msm in FIXED_SHAPES:
        seen.update(_check_all_routes(rdr, m, oracle, clauses, must_nots,
                                      msm, k, monkeypatch))
    assert seen == {"taat", "required_lead", "msm_lead", "maxscore@10",
                    "maxscore@1000"}


def test_random_shapes_all_routes_match_bruteforce(shard, monkeypatch):
    rdr, m, oracle = shard
    rng = np.random.default_rng(5)
    for clauses, must_nots, msm in _random_shapes(30):
        k = int(rng.choice([1, 7, 50]))
        _check_all_routes(rdr, m, oracle, clauses, must_nots, msm, k,
                          monkeypatch)


def test_maxscore_prunes_on_adversarial_shard(shard, monkeypatch):
    """The threshold-10 MaxScore run of a fixed shape must actually prune
    (GTE relation), or the harness would only compare unpruned
    accumulators."""
    rdr, m, _ = shard
    _cold_cache(monkeypatch)
    clauses, _, _ = FIXED_SHAPES[3]
    compiled = _compile(rdr, m, clauses)
    _, _, _, rel = search_shard_maxscore(rdr, compiled, 10, threshold=10)
    assert rel == "GREATER_THAN_OR_EQUAL_TO"


def test_required_lead_late_candidates_via_searcher(ray_session,
                                                    tmp_path_factory):
    """A MUST term on late docs plus a SHOULD term (df >= 512) that occurs
    only in early docs: the selective candidate scorer must score the
    SHOULD term as absent at every candidate instead of raising
    IndexError on an empty block list."""
    import ray.data as rd

    from lucene_ray.index.build import build_index
    from lucene_ray.search.searcher import IndexSearcher

    n = 2000
    texts = [("early filler" if d < 700 else "filler")
             + (" late" if d >= 1900 else "") for d in range(n)]
    table = pa.table({
        "conv_id": pa.array([f"c{i:06d}" for i in range(n)]),
        "turn_idx": pa.array([0] * n, type=pa.int32()),
        "text": pa.array(texts),
    })
    d = str(tmp_path_factory.mktemp("latecand"))
    build_index(rd.from_arrow(table), d, target_docs_per_partition=n,
                input_desc="latecand")
    s = IndexSearcher(d)
    td = s.search(bool_query(must=["late"], should=["early"]), k=10)
    oracle = BruteForceBM25(texts)
    want_docs, want_scores, want_total = oracle.search(
        [("early", SHOULD), ("late", MUST)], (), 0, None, 10)
    assert [h.gid for h in td.hits] == want_docs.tolist()
    assert [h.score for h in td.hits] == want_scores.tolist()
    assert td.total_hits == want_total == 100

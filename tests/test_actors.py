"""Query actor pool returns identical results to the single-process searcher."""

import pytest

from lucene_ray.index.build import build_index
from lucene_ray.search.query import (
    FuzzyQuery,
    PhraseQuery,
    PrefixQuery,
    TermQuery,
    WildcardQuery,
    bool_query,
)
from lucene_ray.search.searcher import IndexSearcher
from lucene_ray.sources.transcripts import synth_transcripts


@pytest.fixture(scope="module")
def index(ray_session, tmp_path_factory):
    import ray.data as rd

    d = str(tmp_path_factory.mktemp("actidx"))
    build_index(rd.from_arrow(synth_transcripts(2500, seed=5)), d,
                target_docs_per_partition=400, input_desc="actors")
    return d


class _CountingHandle:
    """Stands in for a query actor handle and records the batch size of
    every ``search`` RPC."""

    def __init__(self, handle, sizes: list):
        self._handle, self._sizes = handle, sizes
        self.search = self              # handle.search.remote(...)

    def remote(self, compiled, *args):
        self._sizes.append(len(compiled))
        return self._handle.search.remote(compiled, *args)


def _hits(td):
    return ([(h.gid, h.score, h.conv_id, h.turn_idx) for h in td.hits],
            td.total_hits, td.relation)


def test_actor_pool_matches_local(index):
    from lucene_ray.search.actors import QueryService

    svc = QueryService(index, num_actors=3)
    local = IndexSearcher(index)
    queries = [
        TermQuery("query"),
        bool_query(should=["data", "merge", "join"]),
        bool_query(must=["sort", "scan"]),
        bool_query(must=["data"], filter_=["merge"]),
        bool_query(should=["data"], must_not=["the"]),
        bool_query(should=["data", "merge", "join"], minimum_should_match=2),
        PhraseQuery(("the", "data")),
        PrefixQuery("mer"),
        WildcardQuery("j?in"),
        FuzzyQuery("qurey", max_edits=2),
        TermQuery("query"),                  # duplicate within the batch
    ]
    singles = [svc.search(q, k=15) for q in queries]
    for q, a in zip(queries, singles):
        assert _hits(a) == _hits(local.search(q, k=15)), q
    assert any(td.hits for td in singles[6:10])   # phrase..fuzzy match something
    sizes: list[int] = []
    handles = svc.actors
    svc.actors = [_CountingHandle(a, sizes) for a in handles]
    try:
        many = svc.search_many(queries, k=15)
        assert sizes == [len(queries)] * len(handles)    # one RPC per actor
        assert svc.search_many([], k=15) == []
        assert len(sizes) == len(handles)                # empty batch: none
    finally:
        svc.actors = handles
    assert [_hits(td) for td in many] == [_hits(td) for td in singles]
    svc.shutdown()


def test_pool_refresh_after_merge(ray_session, tmp_path_factory):
    """A merge removes pids and moves doc bases: after force_merge +
    refresh the pool serves the merged shard, not the pre-merge shards
    (whose deleted docs would come back)."""
    import pyarrow as pa
    import ray.data as rd

    from lucene_ray.index.deletes import delete_by_keys
    from lucene_ray.index.merge import force_merge
    from lucene_ray.search.actors import QueryService

    d = str(tmp_path_factory.mktemp("mergepool"))
    build_index(rd.from_arrow(synth_transcripts(2000, seed=5)), d,
                target_docs_per_partition=400, input_desc="mergepool")
    q = bool_query(should=["data", "merge", "join"])
    svc = QueryService(d, num_actors=2)
    assert len(svc.searcher.commit["shards"]) == 5
    top = IndexSearcher(d).search(q, k=5).hits
    delete_by_keys(d, pa.table({
        "conv_id": pa.array([h.conv_id for h in top], pa.string()),
        "turn_idx": pa.array([h.turn_idx for h in top], pa.int32())}))
    for step in ("delete", "merge"):
        if step == "merge":
            force_merge(d, 1)
        assert svc.refresh() is True
        want = _hits(IndexSearcher(d).search(q, k=20))
        assert _hits(svc.search(q, k=20)) == want, step
        assert [_hits(td) for td in svc.search_many([q, q], k=20)] == [want] * 2, step
    assert len(svc.searcher.commit["shards"]) == 1
    svc.shutdown()


def test_pool_pruning_thresholds_match_local(ray_session, tmp_path_factory):
    """With a low totalHitsThreshold (MaxScore pruning engaged on the dense
    disjunction), the pool's top-k stays identical to the local searcher's
    exact run; only total_hits may become a GTE lower bound."""
    import ray.data as rd

    from lucene_ray.search.actors import QueryService

    d = str(tmp_path_factory.mktemp("pruneidx"))
    build_index(rd.from_arrow(synth_transcripts(40000, seed=13)), d,
                target_docs_per_partition=3000, input_desc="prune")
    local = IndexSearcher(d)
    queries = [
        bool_query(should=["the", "data", "query"]),     # hot disjunction
        bool_query(should=["merge", "join", "scan", "sort"]),
        TermQuery("table"),
    ]
    svc = QueryService(d, num_actors=3, num_cpus_per_actor=1)
    results = {(qi, threshold): svc.search(q, k=10, threshold=threshold)
               for qi, q in enumerate(queries) for threshold in (50, 1000)}
    svc.shutdown()
    for qi, q in enumerate(queries):
        c = local.search(q, k=10, total_hits_threshold=2**31 - 1)
        for threshold in (50, 1000):
            a = results[(qi, threshold)]
            b = local.search(q, k=10, total_hits_threshold=threshold)
            assert [(h.gid, round(h.score, 5)) for h in a.hits] == \
                   [(h.gid, round(h.score, 5)) for h in c.hits]
            assert [h.gid for h in a.hits] == [h.gid for h in b.hits]
            # totals are a valid lower bound of the exact count
            assert a.total_hits <= c.total_hits


def test_actor_pool_nrt_refresh(ray_session, tmp_path_factory):
    """Append a new generation, refresh the pool, results include new docs
    and match the local searcher."""
    import pyarrow as pa
    import ray.data as rd

    from lucene_ray.index.build import append_index
    from lucene_ray.search.actors import QueryService

    d = str(tmp_path_factory.mktemp("nrtpool"))
    t1 = synth_transcripts(1500, seed=71)
    build_index(rd.from_arrow(t1), d, target_docs_per_partition=500,
                input_desc="nrt-base")
    svc = QueryService(d, num_actors=2)
    q = bool_query(should=["merge"])
    before = svc.search(q, k=10)
    t2 = synth_transcripts(600, seed=72)
    conv = ["zz" + c for c in t2.column("conv_id").to_pylist()]
    t2 = t2.set_column(0, "conv_id", pa.array(conv, type=pa.string()))
    append_index(rd.from_arrow(t2), d, input_desc="nrt-more",
                 target_docs_per_partition=500)
    assert svc.refresh() is True
    after = svc.search(q, k=2200)
    local = IndexSearcher(d)
    expect = local.search(q, k=2200, total_hits_threshold=2**31 - 1)
    # pool counts pruned-threshold-free? use large k and compare hit sets
    assert {h.gid for h in after.hits} == {h.gid for h in expect.hits}
    assert after.total_hits >= before.total_hits
    assert svc.refresh() is False          # no newer generation
    svc.shutdown()


def test_actor_parity_new_query_types(ray_session, tmp_path):
    """Actor-pool vs local searcher for the round-4 query families (point /
    geo / feature): identical hits and totals through the compiled-dict
    shipping path."""
    import ray.data as rd

    from lucene_ray.index.build import build_index
    from lucene_ray.search.actors import QueryService
    from lucene_ray.search.feature import FeatureQuery, encode_feature_value
    from lucene_ray.search.geo import LatLonDistanceQuery, encode_latitude, \
        encode_longitude
    from lucene_ray.search.query import PointRangeQuery
    from lucene_ray.search.searcher import IndexSearcher
    from lucene_ray.sources.transcripts import synth_transcripts

    import numpy as np
    import pyarrow as pa

    n = 1000
    t = synth_transcripts(n, seed=44)
    st = t.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    i = np.arange(n, dtype=np.int64)
    lat = (i % 180) - 90.0 + 0.25
    lon = ((i * 3) % 360) - 180.0 + 0.25
    st = st.append_column("lat_e", pa.array(encode_latitude(lat), type=pa.int64()))
    st = st.append_column("lon_e", pa.array(encode_longitude(lon), type=pa.int64()))
    st = st.append_column("f", pa.array(
        encode_feature_value((i % 31 + 1).astype(np.float32)), type=pa.int64()))
    d = str(tmp_path / "actgeo")
    build_index(rd.from_arrow(st), d, target_docs_per_partition=300,
                point_cols={"loc": ("lat_e", "lon_e"), "ts_pt": ("ts",)},
                docvalue_cols=("f",), input_desc="actgeo")
    svc = QueryService(d, num_actors=2)
    s = IndexSearcher(d)
    ts0 = int(st.column("ts").cast("int64")[200].as_py())
    for q in (LatLonDistanceQuery("loc", 10.0, 10.0, 4_000_000.0),
              PointRangeQuery("ts_pt", ts0, None),
              FeatureQuery("f", "saturation", boost=2.0, pivot=5.0)):
        a = svc.search(q, k=15)
        b = s.search(q, k=15)
        assert [h.gid for h in a.hits] == [h.gid for h in b.hits]
        assert np.allclose([h.score for h in a.hits],
                           [h.score for h in b.hits])
        assert a.total_hits == b.total_hits


def test_actor_parity_session5_query_types(ray_session, tmp_path_factory):
    """Actor-pool vs local for the session-5 families: CombinedFieldQuery
    (BM25F) and FuzzyLikeThisQuery ship compiled scorers; join_search runs
    driver-side over the same shards either way."""
    import numpy as np

    from lucene_ray.pipelines.flagship import build_transcript_index
    from lucene_ray.search.actors import QueryService
    from lucene_ray.search.query import CombinedFieldQuery, FuzzyLikeThisQuery
    from lucene_ray.search.searcher import IndexSearcher

    d = build_transcript_index("/root/testdata/sf0.001")
    svc = QueryService(d, num_actors=2)
    s = IndexSearcher(d)
    for q in (CombinedFieldQuery(("user", "merge"),
                                 (("text", 1.0), ("role", 2.0))),
              FuzzyLikeThisQuery((("vectr merge", 1, 1),), max_num_terms=8)):
        a = svc.search(q, k=12)
        b = s.search(q, k=12)
        assert [h.gid for h in a.hits] == [h.gid for h in b.hits], type(q)
        assert np.allclose([h.score for h in a.hits],
                           [h.score for h in b.hits])
        assert a.total_hits == b.total_hits
    svc.shutdown()


def test_actor_pool_timeout(ray_session, tmp_path_factory):
    """Pool timeout: generous budget = identical full result unflagged;
    zero budget = flagged partial (possibly empty) with GTE relation."""
    from lucene_ray.pipelines.flagship import build_transcript_index
    from lucene_ray.search.actors import QueryService
    from lucene_ray.search.query import TermQuery

    d = build_transcript_index("/root/testdata/sf0.001")
    svc = QueryService(d, num_actors=2)
    full = svc.search(TermQuery("merge"), k=10)
    ok = svc.search(TermQuery("merge"), k=10, timeout_ms=60_000)
    assert not ok.timed_out
    assert [h.gid for h in ok.hits] == [h.gid for h in full.hits]
    quick = svc.search(TermQuery("merge"), k=10, timeout_ms=0)
    assert quick.timed_out
    assert quick.relation == "GREATER_THAN_OR_EQUAL_TO"
    assert quick.total_hits <= full.total_hits
    svc.shutdown()

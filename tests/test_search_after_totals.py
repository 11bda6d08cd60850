"""searchAfter paging keeps total_hits: page 2 reports every match, the
earlier pages included, as Lucene's paging collector does
(`TopScoreDocCollector` counts each collected doc before the `after`
comparison).  One multi-shard index, one query per scoring route."""

import numpy as np
import pyarrow as pa
import pytest

from lucene_ray.search.query import (
    DisjunctionMaxQuery,
    MultiPhraseQuery,
    PhraseQuery,
    SynonymQuery,
    TermQuery,
)
from lucene_ray.search.scorer import RELATION_EQ
from lucene_ray.search.searcher import IndexSearcher

N_DOCS = 600


@pytest.fixture(scope="module")
def searcher(ray_session, tmp_path_factory):
    import ray.data as rd

    from lucene_ray.index.build import build_index

    rng = np.random.default_rng(23)
    words = ["apple", "banana", "cherry"] + [f"f{i}" for i in range(40)]
    p = np.array([0.2, 0.15, 0.1] + [0.55 / 40] * 40)
    texts = [" ".join(rng.choice(words, size=int(rng.integers(3, 12)), p=p))
             for _ in range(N_DOCS)]
    t = pa.table({
        "conv_id": [f"conv-{i:08d}" for i in range(N_DOCS)],
        "turn_idx": pa.array([0] * N_DOCS, type=pa.int32()),
        "role": ["user"] * N_DOCS,
        "tool": ["none"] * N_DOCS,
        "ts": pa.array(list(range(N_DOCS)), type=pa.int64()),
        "text": texts,
    })
    d = str(tmp_path_factory.mktemp("after_totals"))
    build_index(rd.from_arrow(t), d, target_docs_per_partition=200,
                input_desc="after_totals")
    s = IndexSearcher(d)
    assert len(s._pids) >= 2
    return s


QUERIES = {
    "dismax": DisjunctionMaxQuery((TermQuery("apple"), TermQuery("banana")),
                                  tie_breaker=0.1),
    "synonym": SynonymQuery(("apple", "banana")),
    "sloppy-phrase": PhraseQuery(("apple", "banana"), slop=2),
    "exact-phrase": PhraseQuery(("apple", "banana")),
    "multiphrase": MultiPhraseQuery((("apple", "cherry"), ("banana",))),
    "term": TermQuery("apple"),
}


@pytest.mark.parametrize("name", list(QUERIES))
def test_page2_total_hits_equal_page1(searcher, name):
    q = QUERIES[name]
    p1 = searcher.search(q, k=5)
    assert p1.relation == RELATION_EQ and p1.total_hits > 10, p1.total_hits
    last = p1.hits[-1]
    p2 = searcher.search(q, k=5, after=(last.score, last.gid))
    assert p2.total_hits == p1.total_hits
    assert len(p2.hits) == 5
    assert not {h.gid for h in p1.hits} & {h.gid for h in p2.hits}

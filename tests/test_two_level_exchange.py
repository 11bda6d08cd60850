"""Partition exchange above TWO_LEVEL_PARTS (a reduce task owns a range of
pids): a 500-partition build answers queries exactly like a few-partition
build of the same input, and resume still skips committed shards."""

import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


def _one_turn_convs(ds):
    """Every turn its own conversation: partitions split on conv_id, so
    the corpus's 100 conversations alone would cap the build at 100."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def remap(b):
        conv = pc.binary_join_element_wise(
            pc.cast(b["conv_id"], pa.string()), pc.cast(b["turn_idx"], pa.string()), "-")
        return b.set_column(b.schema.get_field_index("conv_id"), "conv_id", conv)

    return ds.map_batches(remap, batch_format="pyarrow")


def test_two_level_matches_single_level(ray_session, tmp_path):
    from lucene_ray.index.build import TWO_LEVEL_PARTS, build_index
    from lucene_ray.search.query import PhraseQuery, bool_query
    from lucene_ray.search.searcher import IndexSearcher
    from lucene_ray.sources.transcripts import transcripts_from_documents

    base = str(tmp_path / "single")
    build_index(_one_turn_convs(transcripts_from_documents(SF)), base,
                target_docs_per_partition=200, input_desc="single")
    # 1 doc per partition target -> ~500 partitions > TWO_LEVEL_PARTS
    two = str(tmp_path / "two")
    c2 = build_index(_one_turn_convs(transcripts_from_documents(SF)), two,
                     target_docs_per_partition=1, input_desc="two")
    assert c2["doc_count"] == 500
    assert len(c2["shards"]) > TWO_LEVEL_PARTS
    s1, s2 = IndexSearcher(base), IndexSearcher(two)
    for q in (bool_query(must=["merge"]), bool_query(should=["merge", "join"]),
              PhraseQuery(("merge", "join"))):
        assert s1.count(q) == s2.count(q)
        h1 = [(h.conv_id, h.turn_idx, round(h.score, 5))
              for h in s1.search(q, k=8).hits]
        h2 = [(h.conv_id, h.turn_idx, round(h.score, 5))
              for h in s2.search(q, k=8).hits]
        assert h1 == h2


def test_two_level_resume(ray_session, tmp_path):
    """A rebuild over an existing commit with the same input is a no-op."""
    from lucene_ray.index.build import build_index
    from lucene_ray.sources.transcripts import transcripts_from_documents

    idx = str(tmp_path / "idx")
    c1 = build_index(transcripts_from_documents(SF), idx,
                     target_docs_per_partition=1, input_desc="resume-two")
    c2 = build_index(transcripts_from_documents(SF), idx,
                     target_docs_per_partition=1, input_desc="resume-two")
    assert c1["fingerprint"] == c2["fingerprint"]
    assert c2["generation"] == c1["generation"]

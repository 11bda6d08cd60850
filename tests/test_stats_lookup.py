"""Global term-stats lookups (`IndexSearcher.df` / `ttf`): a binary search
over each bucket's term-sorted columns, loaded once per bucket, and correct
also on buckets that are not sorted by term (indexes written before the
stats merge sorted its buckets)."""

import glob
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq

from lucene_ray.index.build import build_index
from lucene_ray.search.searcher import IndexSearcher
from lucene_ray.sources.transcripts import synth_transcripts

EXTRA = ["über", "émigré", "日本語", "zebra", "Zebra", "a", "ab", "aB"]


def _store(index_dir):
    got = {}
    for p in glob.glob(os.path.join(index_dir, "term_stats", "*.parquet")):
        t = pq.read_table(p)
        for term, df, ttf in zip(*(t.column(c).to_pylist() for c in ("term", "df", "ttf"))):
            got[term] = (df, ttf)
    return got


def _check(s, want):
    for term, (df, ttf) in want.items():
        assert (s.df(term), s.ttf(term)) == (df, ttf), term
    for absent in ("", "zzzabsent", "über0", "a\x00", "￿"):
        assert (s.df(absent), s.ttf(absent)) == (0, 0)


def test_sorted_and_unsorted_buckets(ray_session, tmp_path):
    import ray.data as rd

    t = synth_transcripts(400, seed=5)
    texts = [f"{x} {EXTRA[i % len(EXTRA)]}" for i, x in enumerate(t.column("text").to_pylist())]
    t = t.set_column(t.schema.get_field_index("text"), "text", pa.array(texts))
    d = str(tmp_path / "idx")
    build_index(rd.from_arrow(t), d, target_docs_per_partition=150,
                keyword_cols=("role",), input_desc="stats-lookup")
    want = _store(d)
    assert len(want) > 100
    _check(IndexSearcher(d), want)

    # the same store with every bucket reversed, several row groups each,
    # and narrower integer columns
    old = str(tmp_path / "old")
    shutil.copytree(d, old)
    for p in glob.glob(os.path.join(old, "term_stats", "*.parquet")):
        b = pq.read_table(p)
        b = b.take(pa.array(range(b.num_rows - 1, -1, -1)))
        b = pa.table({"term": b.column("term"),
                      "df": b.column("df").cast(pa.int32()),
                      "ttf": b.column("ttf")})
        pq.write_table(b, p, row_group_size=7)
    s = IndexSearcher(old)
    _check(s, want)
    assert len(s._stats) == len(glob.glob(os.path.join(old, "term_stats", "*.parquet")))

    # a bucket with no file reads as empty
    missing = sorted(glob.glob(os.path.join(old, "term_stats", "*.parquet")))[0]
    gone = pq.read_table(missing).column("term").to_pylist()
    os.remove(missing)
    s = IndexSearcher(old)
    assert all(s.df(x) == 0 and s.ttf(x) == 0 for x in gone)

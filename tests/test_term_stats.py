"""Merged term-stats store (``term_stats/bucket-%04d.parquet``) against a
brute-force sum of the committed shards' dictionaries, after every
operation that re-merges it: build, append, update-append, force-merge,
addIndexes, rollback and CheckIndex -exorcise."""

import glob
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.index import build
from lucene_ray.index import manifest as mf
from lucene_ray.index.build import (
    STATS_BUCKETS,
    add_indexes,
    append_index,
    build_index,
    merge_term_stats,
)
from lucene_ray.index.check import check_index
from lucene_ray.index.merge import force_merge
from lucene_ray.sources.transcripts import synth_transcripts
from lucene_ray.util.hashing import fnv1a64_str

EVERY = "zzeveryshard"          # planted in every row, so in every shard
EXTRA = ["über", "émigré", "日本語", "zebra", "Zebra", "a", "ab", "aB"]


def _table(n, seed, prefix=""):
    t = synth_transcripts(n, seed=seed)
    texts = t.column("text").to_pylist()
    texts = [f"{x} {EVERY} {EXTRA[i % len(EXTRA)]}" for i, x in enumerate(texts)]
    t = t.set_column(t.schema.get_field_index("text"), "text", pa.array(texts))
    if prefix:
        conv = [prefix + c for c in t.column("conv_id").to_pylist()]
        t = t.set_column(t.schema.get_field_index("conv_id"), "conv_id", pa.array(conv))
    return t


def _brute(index_dir, commit):
    want = {}
    for m in commit["shards"]:
        t = pq.read_table(os.path.join(mf.shard_dirpath(index_dir, m), "terms.parquet"),
                          columns=["term", "df", "ttf"])
        for term, df, ttf in zip(*(t.column(c).to_pylist() for c in ("term", "df", "ttf"))):
            s = want.setdefault(term, [0, 0])
            s[0] += df
            s[1] += ttf
    return want


def _bucket_files(index_dir):
    return sorted(glob.glob(os.path.join(index_dir, "term_stats", "*.parquet")))


def _check_store(index_dir, commit):
    """term_stats/ == brute-force (df, ttf) sums over commit's shards; each
    term in bucket fnv1a64 % STATS_BUCKETS, each bucket sorted by term."""
    got = {}
    for p in _bucket_files(index_dir):
        name = os.path.basename(p)
        assert name.startswith("bucket-") and name.endswith(".parquet")
        b = int(name[len("bucket-"):-len(".parquet")])
        assert 0 <= b < STATS_BUCKETS
        t = pq.read_table(p)
        assert t.schema.names == ["term", "df", "ttf"]
        assert t.schema.types == [pa.string(), pa.int64(), pa.int64()]
        terms = t.column("term").to_pylist()
        assert t.num_rows > 0
        assert terms == sorted(terms) and len(set(terms)) == len(terms), name
        assert all(fnv1a64_str(x) % STATS_BUCKETS == b for x in terms), name
        for term, df, ttf in zip(terms, t.column("df").to_pylist(),
                                 t.column("ttf").to_pylist()):
            got[term] = [df, ttf]
    want = _brute(index_dir, commit)
    assert got == want
    assert got[EVERY][0] == sum(m["doc_count"] for m in commit["shards"])
    return got


def _store_bytes(index_dir):
    return {os.path.basename(p): open(p, "rb").read() for p in _bucket_files(index_dir)}


@pytest.fixture()
def idx(ray_session, tmp_path):
    import ray
    import ray.data as rd

    d = str(tmp_path / "idx")
    c = build_index(rd.from_arrow(_table(1200, 70)), d,
                    target_docs_per_partition=100, input_desc="base")
    assert len(c["shards"]) >= 2 * int(ray.cluster_resources()["CPU"]) + 1
    return d, c


def test_stats_store_tracks_every_commit(idx, tmp_path):
    import ray.data as rd

    d, c = idx
    _check_store(d, c)
    before = _store_bytes(d)
    merge_term_stats(d, c)
    assert _store_bytes(d) == before          # merging twice: identical bytes

    c = append_index(rd.from_arrow(_table(300, 71, prefix="app-")), d,
                     target_docs_per_partition=100, input_desc="app")
    _check_store(d, c)
    gen_after_append = c["generation"]

    # updateDocument: re-add existing keys (deletes leave df/ttf unchanged)
    upd = _table(200, 70)
    c = append_index(rd.from_arrow(upd), d, target_docs_per_partition=100,
                     input_desc="upd", update=True)
    assert any(m.get("del_count") for m in c["shards"])
    _check_store(d, c)

    c = force_merge(d, 3)
    assert len(c["shards"]) == 3
    _check_store(d, c)

    other = str(tmp_path / "other")
    build_index(rd.from_arrow(_table(250, 72, prefix="oth-")), other,
                target_docs_per_partition=100, input_desc="other")
    c = add_indexes(d, [other])
    _check_store(d, c)

    c = mf.rollback(d, gen_after_append)
    _check_store(d, c)

    # CheckIndex -exorcise drops a damaged shard from the commit and
    # re-merges the store from the survivors
    victim = c["shards"][1]
    with open(os.path.join(mf.shard_dirpath(d, victim), "norms.bin"), "ab") as f:
        f.write(b"\xff\xff\xff")
    rep = check_index(d, exorcise=True)
    assert rep["exorcised_pids"] == [victim["pid"]]
    c = mf.latest_commit(d)
    assert victim["pid"] not in {m["pid"] for m in c["shards"]}
    _check_store(d, c)
    assert check_index(d)["ok"]


def test_stats_merge_unifies_shard_schemas(idx, tmp_path):
    """A dictionary written with other Arrow types (large_string terms,
    int64 df, int32 ttf) merges into the same store."""
    d0, c = idx
    d = str(tmp_path / "foreign")
    shutil.copytree(d0, d)
    want = _check_store(d, c)
    p = os.path.join(mf.shard_dirpath(d, c["shards"][0]), "terms.parquet")
    t = pq.read_table(p)
    t = t.cast(pa.schema([f.with_type({"term": pa.large_string(), "df": pa.int64(),
                                       "ttf": pa.int32()}.get(f.name, f.type))
                          for f in t.schema]))
    pq.write_table(t, p)
    merge_term_stats(d, c)
    assert _check_store(d, c) == want


def test_append_keys_count_new_partitions_only(idx, monkeypatch):
    """The append's partition exchange is keyed from the first new pid: its
    key count is the new partition count, not the index's pid range."""
    import ray.data as rd

    d, c0 = idx
    calls = []
    real = build._exchange

    def spy(inputs, tag, n_keys, n_reducers, reduce_one):
        calls.append(n_keys)
        return real(inputs, tag, n_keys, n_reducers, reduce_one)

    monkeypatch.setattr(build, "_exchange", spy)
    c = append_index(rd.from_arrow(_table(300, 73, prefix="inc-")), d,
                     target_docs_per_partition=100, input_desc="inc")
    offset = 1 + max(m["pid"] for m in c0["shards"])
    new = sorted(m["pid"] for m in c["shards"] if m["pid"] >= offset)
    assert len(new) >= 2
    assert new == list(range(offset, offset + len(new)))
    assert calls == [len(new), STATS_BUCKETS]     # flush exchange, stats merge
    _check_store(d, c)

"""Distributed index build — the Ray-Data re-expression of the Lucene write
path (`index/DocumentsWriter.java` DWPT flush → `SegmentInfos` publish):

    read_parquet(transcripts) → materialized block refs (one execution)
      → seeded conv_id sample per block           (tiny planning tasks)
      → [driver] quantile range boundaries       (P-1 split points only)
      → _exchange: map tasks tag each row's pid (searchsorted), drop
        already-committed pids (resume), split into contiguous pid ranges;
        one reduce task per range writes its shards (one shard write = one
        DWPT-equivalent flush)
      → commit segments_N (assigns doc bases)
      → merge_term_stats: the same _exchange keyed by term bucket

Partitioning: conv_id range buckets (ONE partitioning key reused across
stages); every partition owns a contiguous (conv_id, turn_idx) range, and
the commit assigns ``doc_base[pid]`` as the prefix sum of shard doc counts
in pid order, so ``global_doc_id = doc_base[pid] + local_id`` preserves the
stable global (conv_id, turn_idx) order (SURVEY.md §1.5) without an exact
global counting pass.  The driver only ever holds the P split points, never
the data.
"""

from __future__ import annotations

import math
import os
import sys
import time

import numpy as np
import pyarrow as pa

from . import manifest as mf
from .shard import write_shard

FORMAT_VERSION = 4
STATS_BUCKETS = 64     # hash-partitions of the merged term-stats store

# above this many partitions a flush reduce task owns a contiguous range of
# pids instead of one: a map task's return-object count is the range count
# R = max(√P, 2×CPUs), not P, so total exchange objects stay
# O(map_tasks × √P + P) instead of O(map_tasks × P), and per-range work
# shrinks as the pool grows; at 10^12 turns / 5M partitions this keeps the
# object count in the tens of millions instead of tens of billions
# (NOTES.md round-3)
TWO_LEVEL_PARTS = 384

_KEY = "__exchange_key"


def _n_cpus() -> int:
    import ray

    return int(ray.cluster_resources().get("CPU", 8))


def _block_refs(ds) -> tuple[list, int]:
    """Materialize ``ds`` once: its non-empty block refs and their row total
    (from block metadata — a separate ds.count() would re-execute any
    map_batches transforms feeding the build)."""
    pairs = [(br, meta.num_rows)
             for bundle in ds.iter_internal_ref_bundles()
             for br, meta in zip(bundle.block_refs, bundle.metadata)
             if meta.num_rows]                # drop empty sentinel blocks
    return [br for br, _ in pairs], sum(n for _, n in pairs)


def plan_split_points(ds, n_parts: int, key: str, sample_per_part: int = 256) -> list[str]:
    """Range boundaries from a seeded conv_id sample (quantile split) —
    the planner the build runs, over ``ds``'s ``key`` column blocks.

    Exact per-partition doc counts are NOT needed at planning time: global
    doc bases are assigned at commit as the prefix sum of shard doc_counts
    in pid order, so sampling only has to balance partition sizes.  The
    sample is seeded; the resulting split points are part of the build
    fingerprint, so a resume either sees identical boundaries (and skips
    committed shards) or rebuilds under a new fingerprint.
    """
    if n_parts <= 1:
        return []
    refs, _ = _block_refs(ds.select_columns([key]))
    return _plan_from_blocks(refs, n_parts, key, sample_per_part)


def _plan_from_blocks(block_refs, n_parts: int, key: str,
                      sample_per_part: int = 256) -> list[str]:
    """Split points from already-materialized block refs: one tiny ray task
    per block samples its key column (seeded by the block's first key, so
    resume sees identical boundaries); quantiles over the union."""
    import ray

    from ..util.hashing import fnv1a64_str

    if n_parts <= 1 or not block_refs:
        return []

    target = sample_per_part * n_parts

    @ray.remote
    def sample_block(tbl, per_block: int):
        col = tbl.column(key)
        n = len(col)
        if n == 0:
            return np.empty(0, dtype=object)
        vals = col.to_numpy(zero_copy_only=False)
        if per_block >= n:
            return vals.astype(object)
        seed = fnv1a64_str(str(vals[0])) & 0x7FFFFFFF
        idx = np.random.default_rng((42, seed, n)).choice(n, size=per_block,
                                                          replace=False)
        return vals[np.sort(idx)].astype(object)

    per_block = max(1, target // len(block_refs))
    samples = ray.get([sample_block.remote(br, per_block) for br in block_refs])
    cids = np.sort(np.concatenate(samples)) if samples else np.empty(0, object)
    if len(cids) == 0:
        return []
    q = (np.arange(1, n_parts) * len(cids)) // n_parts
    return np.unique(cids[q]).tolist()


def _compact(tbl: pa.Table) -> pa.Table:
    # CRITICAL: pickling a sliced Arrow table serializes the WHOLE parent
    # buffer (R-fold write amplification through the object store);
    # concat_arrays on the sliced chunks copies just the slice
    return pa.table({name: pa.concat_arrays([c for c in tbl.column(name).chunks])
                     for name in tbl.column_names})


def _exchange(inputs, tag, n_keys: int, n_reducers: int, reduce_one) -> list:
    """Explicit map/reduce hash exchange over raw Ray tasks — the build's
    only shuffle (shard flush and term-stats merge).

    Map side: one task per group of inputs calls ``tag(input) -> (table,
    keys)`` (int keys in ``[0, n_keys)``) and splits the rows into R
    contiguous key ranges (R-way returns, so each reduce task fetches
    exactly its own slices from the object store — a shuffle's byte volume,
    no global sort).  Reduce side: one task per range orders its rows by
    key (stable, so a key's rows keep map-task order) and calls
    ``reduce_one(key, table)`` for each non-empty key; the results come
    back as one flat list.  R is ``n_reducers`` capped at ``n_keys``.
    Failure handling: tasks are retried by Ray, so ``reduce_one`` must be
    idempotent (write_shard's tmp dir + rename keyed by pid + fingerprint,
    a bucket file overwritten whole).
    """
    import ray

    n_cpus = _n_cpus()
    step = -(-n_keys // min(n_reducers, n_keys))    # keys per range
    R = -(-n_keys // step)                       # tighten after rounding

    @ray.remote(num_returns=R)
    def split(*items):
        parts = [tag(x) for x in items]
        key = np.concatenate([k for _, k in parts]).astype(np.int32)
        tbl = pa.concat_tables([t for t, _ in parts]).append_column(
            _KEY, pa.array(key, type=pa.int32()))
        rng = key // step
        order = np.argsort(rng, kind="stable")
        tbl = tbl.take(pa.array(order))
        bounds = np.searchsorted(rng[order], np.arange(R + 1)).tolist()
        out = [_compact(tbl.slice(bounds[r], bounds[r + 1] - bounds[r]))
               for r in range(R)]
        return out if R > 1 else out[0]

    @ray.remote
    def reduce(r: int, *tables):
        tables = [t for t in tables if t.num_rows]
        if not tables:
            return []
        tbl = pa.concat_tables(tables)
        key = tbl.column(_KEY).to_numpy()
        tbl = tbl.drop_columns([_KEY])
        if step > 1:                 # a one-key range is already in order
            order = np.argsort(key, kind="stable")
            tbl, key = tbl.take(pa.array(order)), key[order]
        keys = range(r * step, min((r + 1) * step, n_keys))
        bounds = np.searchsorted(key, np.arange(keys.start, keys.stop + 1)).tolist()
        return [reduce_one(k, tbl.slice(bounds[i], bounds[i + 1] - bounds[i]))
                for i, k in enumerate(keys) if bounds[i + 1] > bounds[i]]

    # several inputs per map task: fewer (task, object) overheads while
    # keeping enough tasks to fill the CPU pool
    per_task = max(1, len(inputs) // (2 * n_cpus))
    per_range: list[list] = [[] for _ in range(R)]
    for i in range(0, len(inputs), per_task):
        refs = split.remote(*inputs[i:i + per_task])
        for r, ref in enumerate(refs if R > 1 else [refs]):
            per_range[r].append(ref)
    return [x for out in ray.get([reduce.remote(r, *per_range[r]) for r in range(R)])
            for x in out]


def _flush_partitions(block_refs, split_points, done, shards_dir: str, fp: str,
                      pid_offset: int = 0, **shard_kw) -> list[dict]:
    """Run the partition exchange: a row's key is its conv_id range
    partition (its pid minus ``pid_offset``), rows of already-committed
    pids in ``done`` are dropped (resume), and each non-empty partition is
    one ``write_shard`` (it re-sorts by the key columns, so slice arrival
    order does not matter); empty partitions produce no shard."""
    splits = np.array(split_points, dtype=object)
    skip = np.array(sorted(p - pid_offset for p in done), dtype=np.int64)
    key_col = shard_kw["key_cols"][0]

    def tag(tbl: pa.Table):
        k = np.searchsorted(splits, tbl.column(key_col).to_numpy(zero_copy_only=False),
                            side="right")
        if len(skip):
            keep = ~np.isin(k, skip)
            tbl, k = tbl.filter(pa.array(keep)), k[keep]
        return tbl, k

    def write(k: int, rows: pa.Table) -> dict:
        return write_shard(shards_dir, pid_offset + k, rows, fp, **shard_kw)

    n_parts = len(split_points) + 1
    n_reducers = (n_parts if n_parts <= TWO_LEVEL_PARTS
                  else max(math.ceil(math.sqrt(n_parts)), 2 * _n_cpus()))
    return _exchange(block_refs, tag, n_parts, n_reducers, write)


def build_index(ds, index_dir: str, *, target_docs_per_partition: int = 200_000,
                text_col: str = "text", key_cols: tuple[str, str] = ("conv_id", "turn_idx"),
                keyword_cols: tuple[str, ...] = (),
                docvalue_cols: tuple[str, ...] = (),
                token_filters: tuple[str, ...] = (),
                vector_col: str | None = None,
                term_vectors: bool = False,
                point_cols: dict | None = None,
                shape_cols: dict | None = None,
                bloom_fields: tuple = (),
                id_version_fields: tuple = (),
                bp_reorder: bool = False,
                index_sort: tuple = (),
                input_desc: str = "", merge_stats: bool = True) -> dict:
    """Build (or resume) an index from a transcripts Dataset; returns commit.

    ``ds`` must contain key_cols + text_col.  Ray must already be
    initialized by the caller.  The partition exchange is an explicit
    two-stage map/reduce over raw Ray tasks (``_exchange``): map tasks
    split each group of input blocks by pid range, reduce tasks gather
    exactly their slices and write the shards — the same bytes a shuffle
    moves, with no sort barrier and full reduce parallelism.
    """
    prof = os.environ.get("LUCENE_RAY_PROFILE")
    t_start = time.perf_counter()

    def _mark(name):
        if prof:
            print(f"[build-prof] {name}: {time.perf_counter() - t_start:.2f}s",
                  file=sys.stderr)

    os.makedirs(os.path.join(index_dir, "shards"), exist_ok=True)

    # fast path: a commit with this input already exists and is intact
    prev = mf.latest_commit(index_dir)
    if prev is not None and input_desc and prev.get("input_desc") == input_desc \
            and prev.get("format") == FORMAT_VERSION:
        have = mf.committed_shards(index_dir, prev["fingerprint"])
        if set(have) == {m["pid"] for m in prev["shards"]}:
            return prev

    # ---- planning pass: materialize the projected block refs ONCE and
    # sample them with tiny ray tasks — the same refs then feed the
    # exchange, so the corpus is read exactly once ----
    extra_dv = [c for c in docvalue_cols if c not in key_cols]
    # "col:int8" (scalar-quantized store) still reads the plain column
    extra_vec = [vector_col.split(":")[0]] if vector_col else []
    extra_pt = [c for cols in (point_cols or {}).values() for c in cols
                if c not in key_cols and c not in docvalue_cols
                and c not in keyword_cols and c != text_col]
    extra_shp = [c for cols in (shape_cols or {}).values()
                 for c in cols[-2:]          # leading entries are markers
                 if c not in key_cols and c != text_col]
    block_refs, n_total = _block_refs(ds.select_columns(
        [*key_cols, text_col, *keyword_cols, *extra_dv, *extra_vec, *extra_pt,
         *extra_shp]))
    n_parts = max(1, -(-n_total // target_docs_per_partition))
    split_points = _plan_from_blocks(block_refs, n_parts, key_cols[0])

    fp = mf.fingerprint({
        "input": input_desc,
        "splits": split_points,
        "format": FORMAT_VERSION,
        "text_col": text_col,
        "key_cols": list(key_cols),
        "keyword_cols": list(keyword_cols),
        "docvalue_cols": list(docvalue_cols),
        "token_filters": list(token_filters),
        "vector_col": vector_col,
        "term_vectors": bool(term_vectors),
        "point_cols": {k: list(v) for k, v in (point_cols or {}).items()},
        "shape_cols": {k: list(v) for k, v in (shape_cols or {}).items()},
        **({"bloom_fields": list(bloom_fields)} if bloom_fields else {}),
        **({"id_version_fields": list(id_version_fields)}
           if id_version_fields else {}),
        **({"bp_reorder": True} if bp_reorder else {}),
        **({"index_sort": [list(x) for x in index_sort]} if index_sort else {}),
    })

    done = mf.committed_shards(index_dir, fp)
    _mark("plan")

    if len(done) < len(split_points) + 1:
        for m in _flush_partitions(
                block_refs, split_points, done, os.path.join(index_dir, "shards"), fp,
                text_col=text_col, key_cols=key_cols,
                keyword_cols=keyword_cols, docvalue_cols=docvalue_cols,
                token_filters=token_filters, vector_col=vector_col,
                term_vectors=term_vectors, point_cols=point_cols,
                shape_cols=shape_cols, bloom_fields=bloom_fields,
                id_version_fields=id_version_fields, bp_reorder=bp_reorder,
                index_sort=index_sort):
            done[int(m["pid"])] = dict(m)
    _mark("exchange+flush")

    commit = mf.commit_index(index_dir, list(done.values()), {
        "fingerprint": fp,
        "input_desc": input_desc,
        "split_points": split_points,
        "key_cols": list(key_cols),
        "keyword_cols": list(keyword_cols),
        "docvalue_cols": list(docvalue_cols),
        "token_filters": list(token_filters),
        "vector_col": vector_col,
        "term_vectors": bool(term_vectors),
        "point_cols": {k: list(v) for k, v in (point_cols or {}).items()},
        "shape_cols": {k: list(v) for k, v in (shape_cols or {}).items()},
        "bloom_fields": list(bloom_fields),
        "id_version_fields": list(id_version_fields),
        "bp_reorder": bool(bp_reorder),
        "index_sort": [list(x) for x in index_sort],
        "text_col": text_col,
        "format": FORMAT_VERSION,
    })

    if merge_stats:
        merge_term_stats(index_dir, commit)
    _mark("stats-merge")
    return commit


def merge_term_stats(index_dir: str, commit: dict) -> str:
    """Global term statistics: the Lucene merge's ``mergeTerms`` statistics
    half (`index/SegmentMerger.java:196`) as one hash-by-term map/reduce
    over the partition exchange.

    Map: each task reads its shards' ``(term, df, ttf)`` rows, casts them
    to one schema and keys every row by its bucket ``fnv1a64(term) %
    STATS_BUCKETS``.  Reduce: one task per contiguous bucket range
    (``min(STATS_BUCKETS, CPUs)`` ranges) sums (df, ttf) per term with an
    Arrow group_by, sorts by term and writes ``bucket-%04d.parquet``.  No
    salt is needed: every shard dictionary holds a term at most once, so a
    term adds at most one row per shard to its bucket.

    The output is hash-partitioned by term so searchers load only the
    buckets their query terms hash to — the driver never holds the
    dictionary.  ``term_stats/`` is rewritten in place.
    """
    import shutil

    import pyarrow.parquet as pq

    from ..util.hashing import fnv1a64

    out_dir = os.path.join(index_dir, "term_stats")
    if os.path.exists(out_dir):
        shutil.rmtree(out_dir)
    os.makedirs(out_dir)
    schema = pa.schema([("term", pa.string()), ("df", pa.int32()), ("ttf", pa.int64())])

    def tag(path: str):
        t = pq.read_table(path, columns=["term", "df", "ttf"]).cast(schema)
        return t, fnv1a64(t.column("term")) % np.uint64(STATS_BUCKETS)

    def write_bucket(b: int, rows: pa.Table) -> int:
        merged = (rows.group_by("term").aggregate([("df", "sum"), ("ttf", "sum")])
                  .rename_columns(["term", "df", "ttf"]).sort_by("term"))
        pq.write_table(merged, os.path.join(out_dir, f"bucket-{b:04d}.parquet"))
        return merged.num_rows

    paths = [os.path.join(mf.shard_dirpath(index_dir, m), "terms.parquet")
             for m in commit["shards"]]
    _exchange(paths, tag, STATS_BUCKETS, min(STATS_BUCKETS, _n_cpus()), write_bucket)
    return out_dir


def append_index(ds, index_dir: str, *, input_desc: str,
                 target_docs_per_partition: int = 200_000,
                 text_col: str = "text",
                 key_cols: tuple[str, str] = ("conv_id", "turn_idx"),
                 keyword_cols: tuple[str, ...] | None = None,
                 docvalue_cols: tuple[str, ...] | None = None,
                 token_filters: tuple[str, ...] | None = None,
                 term_vectors: bool | None = None,
                 merge_stats: bool = True, update: bool = False) -> dict:
    """Incremental build: index NEW rows as additional shards and publish a
    new commit generation containing old + new (the near-real-time refresh
    model, `DirectoryReader.openIfChanged` / segment append — SURVEY §2.10).

    Appended docs get doc bases AFTER all existing docs (arrival order, like
    Lucene segment docIDs), so global ordering is (existing corpus order,
    then appended corpus order) — not a re-sort of the union.

    ``update=True`` gives updateDocument semantics (delete-by-term + add,
    `index/IndexWriter.java:1517`): after the appended shards commit, any
    OLDER doc sharing an appended (conv_id, turn_idx) key is marked deleted
    via the live-docs sidecar (a second commit generation; a crash between
    the two commits leaves duplicates visible, unlike the reference's
    single-IW-lock atomicity — rerun the delete to converge).
    """
    prev = mf.latest_commit(index_dir)
    if prev is None:
        return build_index(ds, index_dir, target_docs_per_partition=target_docs_per_partition,
                           text_col=text_col, key_cols=key_cols,
                           keyword_cols=keyword_cols or (),
                           docvalue_cols=docvalue_cols or (),
                           token_filters=token_filters or (),
                           term_vectors=bool(term_vectors),
                           input_desc=input_desc, merge_stats=merge_stats)
    if keyword_cols is None:
        # inherit the existing index's keyword fields — appending without them
        # would leave keyword filters silently blind to the new docs
        keyword_cols = tuple(prev.get("keyword_cols", ()))
    if docvalue_cols is None:
        # inherit doc-values fields for the same reason
        docvalue_cols = tuple(prev.get("docvalue_cols", ()))
    if token_filters is None:
        # inherit the analyzer chain — appending unfiltered tokens would
        # silently split the dictionary between stemmed and raw forms
        token_filters = tuple(prev.get("token_filters", ()))
    if term_vectors is None:
        # inherit so appended shards stay term-vector-complete
        term_vectors = bool(prev.get("term_vectors", False))
    # inherit bloom sidecar fields so appended shards stay prunable
    bloom_fields = tuple(prev.get("bloom_fields", ()))
    # inherit the per-segment one-doc-per-ID writer contract
    id_version_fields = tuple(prev.get("id_version_fields", ()))
    # inherit the BP / index-sort layout choices so appended shards match
    bp_reorder = bool(prev.get("bp_reorder", False))
    index_sort = tuple(tuple(x) for x in prev.get("index_sort", ()))
    pid_offset = 1 + max(m["pid"] for m in prev["shards"])

    extra_dv = [c for c in docvalue_cols if c not in key_cols]
    block_refs, n_total = _block_refs(
        ds.select_columns([*key_cols, text_col, *keyword_cols, *extra_dv]))
    n_parts = max(1, -(-n_total // target_docs_per_partition))
    split_points = _plan_from_blocks(block_refs, n_parts, key_cols[0])
    fp = mf.fingerprint({
        "input": input_desc, "splits": split_points, "format": FORMAT_VERSION,
        "text_col": text_col, "key_cols": list(key_cols),
        "keyword_cols": list(keyword_cols), "append_after": prev["fingerprint"],
        "docvalue_cols": list(docvalue_cols),
        "token_filters": list(token_filters),
        "term_vectors": bool(term_vectors),
        **({"bp_reorder": True} if bp_reorder else {}),
        **({"index_sort": [list(x) for x in index_sort]} if index_sort else {}),
    })
    done = mf.committed_shards(index_dir, fp)
    if len(done) < len(split_points) + 1:
        # keys count from the first new pid, so no empty slice or flush
        # task is spent on the existing shards' pids
        for m in _flush_partitions(
                block_refs, split_points, done, os.path.join(index_dir, "shards"),
                fp, pid_offset,
                text_col=text_col, key_cols=key_cols, keyword_cols=keyword_cols,
                docvalue_cols=docvalue_cols, token_filters=token_filters,
                term_vectors=term_vectors, bloom_fields=bloom_fields,
                id_version_fields=id_version_fields, bp_reorder=bp_reorder,
                index_sort=index_sort):
            done[int(m["pid"])] = dict(m)

    all_shards = [m for m in prev["shards"]] + list(done.values())
    commit = mf.commit_index(index_dir, all_shards, {
        "fingerprint": fp, "input_desc": input_desc,
        "split_points": prev.get("split_points", []) + split_points,
        "key_cols": list(key_cols), "keyword_cols": list(keyword_cols),
        "docvalue_cols": list(docvalue_cols),
        "token_filters": list(token_filters),
        "term_vectors": bool(term_vectors),
        "bloom_fields": list(bloom_fields),
        "id_version_fields": list(id_version_fields),
        "bp_reorder": bool(bp_reorder),
        "index_sort": [list(x) for x in index_sort],
        "text_col": text_col,
        "format": FORMAT_VERSION,
    })
    if update:
        import pyarrow.parquet as pq

        from .deletes import delete_by_keys

        new_shards = sorted((m for m in commit["shards"] if m["pid"] >= pid_offset),
                            key=lambda m: m["pid"])
        keys = pa.concat_tables([
            pq.read_table(os.path.join(mf.shard_dirpath(index_dir, m), "docmap.parquet"))
            for m in new_shards])
        commit = delete_by_keys(index_dir, keys, key_cols=key_cols,
                                only_pids={m["pid"] for m in prev["shards"]})
    if merge_stats:
        merge_term_stats(index_dir, commit)
    return commit


def add_indexes(dest_dir: str, src_dirs, *, merge_stats: bool = True) -> dict:
    """IndexWriter.addIndexes(Directory...) analogue
    (`index/IndexWriter.java:3006-3080`): graft every committed shard of the
    source indexes into the destination as pid-renumbered segments — shard
    directories are copied verbatim (they are immutable and self-contained:
    postings, norms, docmap, vector/point/shape/payload sidecars), live-docs
    bitmaps and dv-update sidecars are copied and re-referenced, then one
    new commit generation is written and the global term-stats store is
    re-merged.  Analyzer chains must agree across indexes (the reference's
    shared-Analyzer contract — mixing chains would desynchronize query-side
    normalization)."""
    import shutil

    commit = mf.latest_commit(dest_dir)
    if commit is None:
        raise FileNotFoundError(dest_dir)
    shards = [dict(m) for m in commit["shards"]]
    next_pid = 1 + max((m["pid"] for m in shards), default=-1)
    gen = commit["generation"]
    del_dir = os.path.join(dest_dir, "deletes")
    dv_dir = os.path.join(dest_dir, "dvups")
    for src in src_dirs:
        sc = mf.latest_commit(src)
        if sc is None:
            raise FileNotFoundError(src)
        if sc.get("token_filters") != commit.get("token_filters"):
            raise ValueError(
                "addIndexes requires identical analyzer chains: "
                f"{sc.get('token_filters')} != {commit.get('token_filters')}")
        for m in sc["shards"]:
            m2 = dict(m)
            new_dir = f"addidx-g{gen}-{next_pid:05d}"
            shutil.copytree(mf.shard_dirpath(src, m),
                            os.path.join(dest_dir, "shards", new_dir))
            m2["pid"] = next_pid
            m2["dir"] = new_dir
            if m.get("del_file"):
                os.makedirs(del_dir, exist_ok=True)
                dst = os.path.join(
                    del_dir, f"{new_dir}-{os.path.basename(m['del_file'])}")
                shutil.copy(m["del_file"], dst)
                m2["del_file"] = dst
            if m.get("dv_files"):
                os.makedirs(dv_dir, exist_ok=True)
                new_dv = {}
                for col, p in m["dv_files"].items():
                    dst = os.path.join(
                        dv_dir, f"{new_dir}-{os.path.basename(p)}")
                    shutil.copy(p, dst)
                    new_dv[col] = dst
                m2["dv_files"] = new_dv
            shards.append(m2)
            next_pid += 1
    meta = {k: v for k, v in commit.items()
            if k not in ("generation", "shards", "doc_count",
                         "doc_count_field", "sum_ttf", "sum_df")}
    new_commit = mf.commit_index(dest_dir, shards, meta)
    if merge_stats:
        merge_term_stats(dest_dir, new_commit)
    return new_commit

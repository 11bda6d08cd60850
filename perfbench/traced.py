"""The traced run: per-layer numbers from spans around public calls.

Build layers come from replaying each build stage in the driver on the same
corpus and partitioning (``plan_split_points``, ``write_shard`` per
partition with ``tokenize_column`` inside it, ``merge_term_stats``).
Serving layers come from an in-process ``IndexSearcher`` over the same index
and the same seeded queries, with ``ShardReader.postings`` wrapped and
``postings_if_cached`` probed before each call.  The pool's own numbers
(RPCs, queue wait, refresh, per-shape latency) come from the served phases
of the same run.
"""

from __future__ import annotations

import math
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import stats
from .trace import Tracer
from .workloads import K, RAY_CPUS, SHAPES, Run

IN_PROCESS_QUERIES = 500      # queries replayed through the in-process searcher
OVERHEAD_QUERIES = 200        # warm queries timed with and without wrappers


class CountingActor:
    """Stands in for a query actor handle and counts ``search`` RPCs."""

    def __init__(self, handle, counter: list):
        self._h = handle
        self._n = counter

    def __getattr__(self, name):
        return getattr(self._h, name)

    @property
    def search(self):
        method, counter = self._h.search, self._n

        class _Remote:
            @staticmethod
            def remote(*a, **kw):
                counter[0] += 1
                return method.remote(*a, **kw)

        return _Remote


def replay_build(run: Run, r: dict) -> dict:
    import ray.data as rd

    import lucene_ray.analysis.standard as standard
    import lucene_ray.index.shard as shard_mod
    from lucene_ray.index.build import merge_term_stats, plan_split_points

    tr = Tracer()
    run.replays.append(tr)
    commit, corpus = r["commit"], r["corpus"]
    table = corpus.table.select(["conv_id", "turn_idx", "text", "role", "tool", "ts"])
    splits = np.array(commit["split_points"], dtype=object)
    pid = np.searchsorted(splits, table.column("conv_id").to_numpy(zero_copy_only=False),
                          side="right")
    out_dir = os.path.join(run.work, "replay-shards")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    tokens, rows, slow = [0], [0], [0]
    orig_tok = shard_mod.tokenize_column
    orig_analyze = standard.analyze

    def analyze(*a, **kw):
        # tokenize_column hands each row its fast path rejects to analyze()
        slow[0] += 1
        return orig_analyze(*a, **kw)

    def tok(col):
        standard.analyze = analyze
        try:
            with tr.span("analysis.standard.tokenize_column"):
                lengths, flat = orig_tok(col)
        finally:
            standard.analyze = orig_analyze
        tokens[0] += int(lengths.sum())
        rows[0] += len(col)
        return lengths, flat

    with tr.span("index.build.plan_split_points") as plan_sp:
        plan_split_points(rd.read_parquet(r["corpus_path"]), len(commit["shards"]), "conv_id")
    shard_mod.tokenize_column = tok
    try:
        for p in range(len(splits) + 1):
            part = table.filter(pa.array(pid == p))
            if part.num_rows == 0:
                continue
            with tr.span("index.shard.write_shard"):
                shard_mod.write_shard(out_dir, p, part, "perfbench-replay",
                                      keyword_cols=("role", "tool"), docvalue_cols=("ts",))
    finally:
        shard_mod.tokenize_column = orig_tok
    with tr.span("index.build.merge_term_stats"):
        merge_term_stats(r["index_dir"], commit)
    shutil.rmtree(out_dir, ignore_errors=True)

    tok_s = tr.total("analysis.standard.tokenize_column")
    write_self = tr.total("index.shard.write_shard", by_self=True)
    merge_s = tr.total("index.build.merge_term_stats")
    r["replay"] = {"plan_s": plan_sp.dur, "write_s": tr.total("index.shard.write_shard"),
                   "merge_s": merge_s}
    return {
        "index.build.plan_s": (plan_sp.dur, "s"),
        "analysis.standard.tokenize_s": (tok_s, "s"),
        "analysis.standard.tokens_per_s": (tokens[0] / tok_s, "tokens/s"),
        "analysis.standard.fast_path_ratio": (1.0 - slow[0] / max(rows[0], 1), "ratio"),
        "index.shard.write_shard_self_s": (write_self, "s"),
        "index.build.merge_term_stats_s": (merge_s, "s"),
        "index.build.term_rows": (sum(int(m["n_terms"]) for m in commit["shards"]), "count"),
    }


def _postings_count(index_dir: str, commit: dict) -> int:
    import pyarrow.parquet as pq

    from lucene_ray.index.manifest import shard_dirpath

    return sum(int(pc.sum(pq.read_table(os.path.join(shard_dirpath(index_dir, m), "terms.parquet"),
                                        columns=["df"]).column("df")).as_py() or 0)
               for m in commit["shards"])


def replay_serving(run: Run, r: dict) -> dict:
    from lucene_ray.index.shard import ShardReader
    from lucene_ray.search.searcher import IndexSearcher

    queries = r["main_queries"][:IN_PROCESS_QUERIES]
    tr = Tracer()
    run.replays.append(tr)
    hits = {"calls": 0, "hits": 0}

    def probe(rdr, tid, *a, **kw):
        hits["calls"] += 1
        hits["hits"] += rdr.postings_if_cached(tid) is not None

    targets = [
        (IndexSearcher, "compile", "search.searcher.compile"),
        (IndexSearcher, "search_shard", "search.searcher.search_shard"),
        (ShardReader, "postings", "index.shard.postings", probe),
        (ShardReader, "positions_with_bounds", "index.shard.positions"),
        (ShardReader, "lookup_docs", "index.shard.lookup_docs"),
    ]
    s = IndexSearcher(r["index_dir"])
    if run.name == "serve-hot":
        for q in queries[:28]:
            s.search(q, k=K)
    with tr.patched(targets):
        for i, q in enumerate(queries):
            with tr.span("query", request=f"q{i}"):
                s.search(q, k=K)
    roots = [sp for sp in tr.spans if sp.parent is None]

    # tracing overhead: the same warm queries with and without the wrappers
    warm = queries[:OVERHEAD_QUERIES]
    for q in warm:
        s.search(q, k=K)
    t0 = time.perf_counter()
    for q in warm:
        s.search(q, k=K)
    plain = time.perf_counter() - t0
    with tr.patched(targets):
        t0 = time.perf_counter()
        for i, q in enumerate(warm):
            with tr.span("query", request=f"w{i}"):
                s.search(q, k=K)
        traced = time.perf_counter() - t0

    def per_q(name):
        """Mean milliseconds per query in spans called `name`."""
        return float(tr.per_request(name)[:len(queries)].mean()) * 1e3

    r["in_process_ms"] = (per_q("search.searcher.compile") + per_q("search.searcher.search_shard")
                          + per_q("index.shard.lookup_docs"))
    ib = r["index_bytes"]
    postings = _postings_count(r["index_dir"], r["commit"])
    return {
        "index.postings.bytes_per_posting": (ib["postings"] / max(postings, 1), "bytes"),
        **{f"index.shard.bytes.{k}": (ib[k], "bytes")
           for k in ("postings", "positions", "norms", "terms", "docmap")},
        "search.searcher.compile_ms": (per_q("search.searcher.compile"), "ms"),
        "search.searcher.search_shard_ms": (per_q("search.searcher.search_shard"), "ms"),
        "index.shard.postings_decode_ms": (per_q("index.shard.postings"), "ms"),
        "index.shard.postings_calls": (hits["calls"] / len(queries), "count"),
        "index.shard.postings_cache_hit_ratio": (hits["hits"] / max(hits["calls"], 1), "ratio"),
        "index.shard.positions_ms": (per_q("index.shard.positions"), "ms"),
        "index.shard.lookup_docs_ms": (per_q("index.shard.lookup_docs"), "ms"),
        # compile, search_shard and lookup_docs under each query, over the
        # queries' time: what IndexSearcher.search spends outside them is missed
        "trace.serve_coverage": (tr.child_share(roots), "ratio"),
        "trace.overhead_ratio": (traced / plain - 1.0, "ratio"),
    }


def pool_layers(run: Run, r: dict) -> dict:
    """Layers seen from the pool's served phases, after the rounds."""
    main: stats.Step = r["main"]
    rp = r["replay"]
    # shard flushes run min(P, CPUs) at a time inside the Ray build
    slots = min(len(r["commit"]["shards"]), RAY_CPUS)
    served_ms = float(np.mean(main.service_ms()[r["main_pos"][:IN_PROCESS_QUERIES]]))
    build_s = stats.median(r["builds"]) if r["builds"] else float("nan")
    out = {
        "index.build.exchange_s": (build_s - rp["plan_s"] - rp["merge_s"]
                                   - rp["write_s"] / slots, "s"),
        # the replayed stages, run one after another in the driver, over the
        # real warm build, whose shard flushes overlap on the host's cores
        "trace.build_coverage": ((rp["plan_s"] + rp["write_s"] + rp["merge_s"]) / build_s,
                                 "ratio"),
        "search.actors.overhead_ms": (served_ms - r["in_process_ms"], "ms"),
        "search.actors.rpcs_per_query": (r["batch_rpcs"] / max(r["batch_queries"], 1), "count"),
        # open-loop rungs only: in the closed loop nothing waits
        "search.actors.queue_wait_ms": (float(np.mean(np.concatenate(
            [st.wait_ms() for st in r["steps"] if math.isfinite(st.rate)]))), "ms"),
        "search.actors.refresh_ms": (stats.median(r["refresh_s"]) * 1e3 if r["refresh_s"]
                                     else float("nan"), "ms"),
    }
    lat = main.latency_ms()
    shapes = np.array(main.shape)
    for sh in SHAPES:
        xs = lat[shapes == sh]
        p50 = stats.median(xs) if len(xs) else 0.0
        out[f"shape.{sh}.n"] = (int(len(xs)), "count")
        out[f"shape.{sh}.p50_ms"] = (p50, "ms")
        # the highest percentile with ten samples beyond it; below 20 samples
        # that would lie under the median, so the median stands in
        out[f"shape.{sh}.tail_ms"] = (stats.percentile(xs, stats.tail_pct(len(xs)))
                                      if len(xs) >= 2 * stats.MIN_BEYOND else p50, "ms")
    return out



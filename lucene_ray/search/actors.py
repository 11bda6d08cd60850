"""Stateful query-serving actor pool.

The Ray re-expression of `IndexSearcher` slice execution
(`search/IndexSearcher.java:107-109,330-336,693`: leaves grouped into slices,
executed on an executor, merged with `TopDocs.merge`): each actor is a "slice
executor" that memory-maps a balanced subset of posting shards ONCE in
``__init__`` and serves queries from that hot state; the driver compiles the
queries (weights from global stats), scatters them to all actors, and merges
per-actor top-k with the (score desc, global-docID asc) tie-break.
``QueryActor.search`` takes a list of compiled queries, so a batch costs one
RPC per actor, not one per query per actor.

The pool is created only after the embedding application has initialized Ray.
"""

from __future__ import annotations

import numpy as np
import ray

from .scorer import RELATION_EQ, RELATION_GTE
from .searcher import IndexSearcher, ScoreDoc, TopDocs


@ray.remote
class QueryActor:
    def __init__(self, index_dir: str, pids: list[int]):
        self.searcher = IndexSearcher(index_dir)
        self._attach(pids)

    def _attach(self, pids: list[int]):
        # eager mmap open (the expensive part amortized across queries);
        # searcher.reader keeps a shard's reader until its directory changes
        self.pids = pids
        self.readers = {pid: self.searcher.reader(pid) for pid in pids}
        self.bases = {pid: self.searcher._bases[pid] for pid in pids}

    def search(self, compiled: list[dict], k: int, after=None,
               threshold: int = 1000) -> list[tuple]:
        """Run each compiled query over this actor's shards; one
        (scores, gids, conv_ids, turn_idxs, total, relation) per query."""
        return [self._search_one(c, k, after, threshold) for c in compiled]

    def _search_one(self, compiled: dict, k: int, after, threshold: int):
        if self.searcher.query_cache is not None:
            self.searcher.query_cache.begin_search()
        out_scores, out_gids, out_pids, out_local = [], [], [], []
        total = 0
        relation = RELATION_EQ
        for pid in self.pids:
            rdr = self.readers[pid]
            base = self.bases[pid]
            local_after = None if after is None else (after[0], after[1] - base)
            scores, local_docs, t, rel = self.searcher.search_shard(
                rdr, compiled, k, after=local_after, total_hits_threshold=threshold)
            total += t
            if rel == RELATION_GTE:
                relation = RELATION_GTE
            if len(local_docs):
                out_scores.append(scores)
                out_gids.append(local_docs.astype(np.int64) + base)
                out_pids.append(np.full(len(local_docs), pid, np.int64))
                out_local.append(local_docs.astype(np.int64))
        scores = np.concatenate(out_scores) if out_scores else np.zeros(0, np.float32)
        gids = np.concatenate(out_gids) if out_gids else np.zeros(0, np.int64)
        pids_a = np.concatenate(out_pids) if out_pids else np.zeros(0, np.int64)
        local_a = np.concatenate(out_local) if out_local else np.zeros(0, np.int64)
        # local merge down to k BEFORE any stored-field fetch: the old
        # per-shard lookup cost ~5 ms x n_shards for rows the merge then
        # discarded — fetch only the actor-level winners, grouped by shard
        order = np.lexsort((gids, -scores))[:k]
        conv = [None] * len(order)
        turn = [None] * len(order)
        sel_pid = pids_a[order]
        sel_local = local_a[order]
        for pid in np.unique(sel_pid):
            m = sel_pid == pid
            rows = self.readers[int(pid)].lookup_docs(sel_local[m])
            cv = rows.column("conv_id").to_pylist()
            tn = rows.column("turn_idx").to_pylist()
            for j, idx in enumerate(np.nonzero(m)[0]):
                conv[int(idx)] = cv[j]
                turn[int(idx)] = tn[j]
        return (scores[order], gids[order], conv, turn, total, relation)

    def refresh(self, pids: list[int]):
        """openIfChanged for the pool: reload the commit, take over the new
        shard assignment and re-read every doc base (a merge moves them).
        Readers of pids that left the assignment are dropped; a pid whose
        directory a merge rewrote gets a new reader."""
        self.searcher.refresh()
        self._attach(pids)
        return len(self.pids)

    def ping(self):
        return len(self.pids)


class QueryService:
    """Driver-side facade over the actor pool (parse → compile → scatter →
    gather → TopDocs.merge)."""

    def __init__(self, index_dir: str, num_actors: int = 4,
                 num_cpus_per_actor: float = 1):
        self.index_dir = index_dir
        self.searcher = IndexSearcher(index_dir)  # stats + compile
        commit = self.searcher.commit
        shards = sorted(commit["shards"], key=lambda m: -m["doc_count"])
        num_actors = max(1, min(num_actors, len(shards)))
        # balance shards across actors by doc count (greedy bin packing)
        assign = [[] for _ in range(num_actors)]
        load = [0] * num_actors
        for m in shards:
            i = int(np.argmin(load))
            assign[i].append(m["pid"])
            load[i] += m["doc_count"]
        assign = [pids for pids in assign if pids]
        self._assign = assign
        self._doc_counts = {m["pid"]: m["doc_count"] for m in shards}
        self.actors = [
            QueryActor.options(num_cpus=num_cpus_per_actor).remote(
                index_dir, sorted(pids))
            for pids in assign
        ]
        ray.get([a.ping.remote() for a in self.actors])

    def search(self, query, k: int = 10, after=None, threshold: int = 1000,
               timeout_ms: float | None = None) -> TopDocs:
        """`timeout_ms` is the pool form of IndexSearcher.setTimeout: wait
        up to the budget for the per-actor slice futures; actors that miss
        the deadline are SKIPPED (their in-flight work is not cancelled —
        the pool stays warm) and the partial merge returns timed_out=True
        with a GTE total, exactly like the local searcher's partialResult.
        One RPC per actor, carrying a one-query batch."""
        compiled = [self.searcher.compile(query)]
        futs = [a.search.remote(compiled, k, after, threshold) for a in self.actors]
        done, pending = futs, []
        if timeout_ms is not None:
            done, pending = ray.wait(futs, num_returns=len(futs),
                                     timeout=timeout_ms / 1000.0)
            if not done:                 # nothing finished: empty partial
                td = TopDocs([], 0, RELATION_GTE)
                td.timed_out = True
                return td
        td = self._merge([r[0] for r in ray.get(done)], k)
        if pending:
            td.timed_out = True
            td.relation = RELATION_GTE
        return td

    def search_many(self, queries, k: int = 10) -> list[TopDocs]:
        """Search a batch: compile every query on the driver, send the whole
        compiled batch to each actor in ONE RPC, merge per query.  An empty
        batch sends nothing."""
        compiled = [self.searcher.compile(q) for q in queries]
        if not compiled:
            return []
        per_actor = ray.get([a.search.remote(compiled, k, None, 1000)
                             for a in self.actors])
        return [self._merge(parts, k) for parts in zip(*per_actor)]

    @staticmethod
    def _merge(parts, k) -> TopDocs:
        scores = np.concatenate([p[0] for p in parts])
        gids = np.concatenate([p[1] for p in parts])
        convs = [c for p in parts for c in p[2]]
        turns = [t for p in parts for t in p[3]]
        total = sum(p[4] for p in parts)
        relation = RELATION_GTE if any(p[5] == RELATION_GTE for p in parts) else RELATION_EQ
        order = np.lexsort((gids, -scores))[:k]
        hits = [ScoreDoc(float(scores[i]), int(gids[i]), convs[i], turns[i]) for i in order]
        return TopDocs(hits, total, relation)

    def refresh(self) -> bool:
        """Propagate a new commit generation to the pool (NRT refresh):
        pids no longer in the commit (merged away) are dropped, appended
        shards are greedily assigned to the least-loaded actors, and every
        actor re-reads doc bases and deletes.  Returns True when the view
        changed."""
        if not self.searcher.refresh():
            return False
        shards = self.searcher.commit["shards"]
        self._doc_counts = {m["pid"]: m["doc_count"] for m in shards}
        self._assign = [[p for p in pids if p in self._doc_counts]
                        for pids in self._assign]
        assigned = {p for a_pids in self._assign for p in a_pids}
        load = [sum(self._doc_counts[p] for p in pids) for pids in self._assign]
        for m in sorted(shards, key=lambda m: -m["doc_count"]):
            if m["pid"] not in assigned:
                i = int(np.argmin(load))
                self._assign[i].append(m["pid"])
                load[i] += m["doc_count"]
        ray.get([a.refresh.remote(sorted(pids))
                 for a, pids in zip(self.actors, self._assign)])
        return True

    def shutdown(self):
        for a in self.actors:
            ray.kill(a)
        self.actors = []

"""The benchmark's workloads, run against ``lucene_ray`` through its public
calls only: ``build_index`` / ``append_index`` / ``merge_term_stats``,
``QueryService.search`` / ``search_many`` / ``refresh``, ``IndexSearcher``
and ``ShardReader``.

Every run has the same phases; the workloads differ in the query traffic.

1. Set-up, ``SETUP_REPS`` times: a fresh Ray session, worker warm-up, a cold
   ``build_index`` of the base corpus into an empty directory, and the query
   actor pool.  The last set-up serves the run.
2. Query phase: an open-loop ladder of seeded Poisson arrivals at fixed
   rates (``serve-zipf``), or a closed loop with one client followed by the
   same kind of ladder (``serve-hot``).  One client thread sends every
   request; each is timed from when it was due.
3. Batch phase: ``search_many`` over the workload's queries.
4. Ingest phase: small ``append_index`` batches, each followed by
   ``refresh`` and a probe query for a document the batch added, with
   closed-loop queries between them.

Every served top-k is checked against the exhaustive in-process searcher,
and a seeded sample of boolean queries against the brute-force oracle.
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
import threading
import time

import numpy as np
import pyarrow as pa

from . import corpus as gen
from . import queries as qmod
from . import stats
from .oracle import BM25Oracle
from .trace import Tracer

RAY_CPUS = 4                  # logical CPUs: the pool's plus two for tasks
N_ACTORS = 2
ACTOR_CPUS = 1
BASE_TURNS = 20_000
BASE_SHARDS = 4               # two shards per actor
SETUP_REPS = 2
K = 10
QUERY_TIMEOUT_MS = 5_000
PHASE_LIMIT_S = 60.0          # wall-clock limit of one blocking call
RUN_LIMIT_S = 160.0           # the whole run, set-up included
APPEND_TURNS = 1_000          # one append per round
INGEST_QUERIES = 10           # closed-loop queries after each append
ROUNDS = 3                    # measurement rounds, spread over the run
ORACLE_SAMPLE = 30

# Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    "serve-zipf": dict(closed_n=1002, slo_lo=20.0, slo_hi=160.0, rung_n=100, batch_n=30,
                       limit_ms=1000.0),
    "serve-hot": dict(closed_n=1512, slo_lo=60.0, slo_hi=480.0, rung_n=200, batch_n=70,
                      limit_ms=200.0),
}


class PhaseError(RuntimeError):
    pass


def _log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# process memory


class RssSampler:
    """Peak resident memory of this process and all its descendants (Ray
    workers, actors, raylet), sampled every ``period_s`` by ``rss.py`` in a
    child process, so sampling never holds this interpreter's lock during a
    timed request."""

    def __init__(self, period_s: float = 0.5):
        self.period = period_s
        self.proc = None

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "rss.py"),
             str(os.getpid()), str(self.period)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def stop(self) -> float:
        """Stop sampling; the peak in MiB."""
        out, _ = self.proc.communicate(timeout=30)     # closes its stdin
        return float(out)

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


# ---------------------------------------------------------------------------
# one run


class Run:
    def __init__(self, root: str, workload: str, seed: int, seconds: int, trace: bool):
        self.root = root
        self.name = workload
        self.cfg = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = os.path.join(root, ".perfbench_work", f"run-{os.getpid()}")
        self.cache = os.path.join(root, ".perfbench_work", "cache")
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.tracer = Tracer()
        self.replays: list[Tracer] = []   # tracers of the traced replays
        self.peak_rss_mb = float("nan")

    def dump_spans(self, path: str) -> None:
        for i, tr in enumerate([self.tracer, *self.replays]):
            tr.dump(path, append=i > 0)

    # ---- failure accounting ---------------------------------------------

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        self.notes.append(what)
        _log(f"FAILED {what}")

    def bounded(self, what: str, fn, limit: float = PHASE_LIMIT_S):
        """fn() under a wall-clock limit; a hang or an exception raises
        PhaseError instead of stopping the run."""
        limit = min(limit, self.deadline - time.perf_counter())
        if limit <= 0:
            raise PhaseError(f"{what}: run time limit reached")
        box: dict = {}

        def target():
            try:
                box["v"] = fn()
            except BaseException as e:     # reported to the caller below
                box["e"] = e

        th = threading.Thread(target=target, daemon=True)
        th.start()
        th.join(limit)
        if th.is_alive():
            raise PhaseError(f"{what}: no result within {limit:.0f} s")
        if "e" in box:
            raise PhaseError(f"{what}: {box['e']!r}") from box["e"]
        return box["v"]

    def op(self, what: str, fn, limit: float = PHASE_LIMIT_S):
        """One counted operation: its value, or None after counting it failed."""
        self.attempted += 1
        try:
            return self.bounded(what, fn, limit)
        except PhaseError as e:
            self.fail(str(e))
            return None

    # ---- set-up ------------------------------------------------------------

    def ray_init(self) -> None:
        import logging

        import ray
        from ray.data import DataContext

        from lucene_ray.util.warmup import set_worker_env

        set_worker_env()
        tmp = os.path.join(self.root, ".perfbench_work", "ray")
        # Ray puts sockets at <tmp>/session_<date>_<pid>/sockets/plasma_store,
        # which must fit in 107 bytes; fall back to Ray's default location
        # when the checkout path is too long for that
        kw = {"_temp_dir": tmp} if len(tmp) <= 40 else {}
        ray.init(address="local", num_cpus=RAY_CPUS, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=512 * 2**20, **kw)
        DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)

    def setup_once(self, rep: int, corpus_path: str):
        """One full set-up; returns (setup_s, index_dir, commit, svc)."""
        import ray
        import ray.data as rd

        from lucene_ray.index.build import build_index
        from lucene_ray.search.actors import QueryService
        from lucene_ray.util.warmup import warm_workers

        tr = self.tracer
        index_dir = os.path.join(self.work, f"index-{rep}")
        shutil.rmtree(index_dir, ignore_errors=True)
        t0 = time.perf_counter()
        with tr.span("setup"):
            with tr.span("setup.ray_init"):
                self.ray_init()      # main thread: Ray installs signal handlers
            with tr.span("setup.warm_workers"):
                self.bounded("warm-up", lambda: warm_workers(RAY_CPUS, heap_mb=64))
            with tr.span("index.build.build_index"):
                commit = self.bounded("build_index", lambda: build_index(
                    rd.read_parquet(corpus_path), index_dir,
                    target_docs_per_partition=-(-BASE_TURNS // BASE_SHARDS),
                    keyword_cols=("role", "tool"), docvalue_cols=("ts",),
                    input_desc=f"perfbench-s{self.seed}-r{rep}"))
            with tr.span("search.actors.pool_start"):
                svc = self.bounded("pool start", lambda: QueryService(
                    index_dir, num_actors=N_ACTORS, num_cpus_per_actor=ACTOR_CPUS))
        setup_s = time.perf_counter() - t0
        if ray.cluster_resources().get("CPU", 0) < N_ACTORS * ACTOR_CPUS + 1:
            raise PhaseError("actor pool leaves no CPU for tasks")
        return setup_s, index_dir, commit, svc

    def teardown(self, svc) -> None:
        import ray

        try:
            if svc is not None:
                self.bounded("pool shutdown", svc.shutdown, 30)
        except PhaseError as e:
            _log(str(e))
        ray.shutdown()               # main thread, like ray.init

    # ---- serving helpers -------------------------------------------------

    def served_call(self, svc, q, log: list):
        """A request callable for the open/closed loop; keeps the TopDocs."""
        def call():
            try:
                td = svc.search(q, k=K, timeout_ms=QUERY_TIMEOUT_MS)
            except Exception as e:        # a failed request, not a failed run
                log.append((q, None, repr(e)))
                return False
            log.append((q, td, None))
            return not td.timed_out
        return call


def spec_of(q) -> dict | None:
    """Boolean-of-terms query -> oracle spec (None for other shapes)."""
    from lucene_ray.search.query import BooleanQuery, TermQuery

    if not isinstance(q, BooleanQuery):
        return None
    key = {"SHOULD": "should", "MUST": "must", "FILTER": "filter", "MUST_NOT": "must_not"}
    spec: dict = {"msm": q.minimum_should_match}
    for c in q.clauses:
        if not isinstance(c.query, TermQuery) or c.query.boost != 1.0 or c.query.field != "text":
            return None
        spec.setdefault(key[c.occur], []).append(c.query.term)
    return spec


def shape_class(q, searcher) -> str:
    """The 14 flagship shape names, given to any query: term queries by the
    document frequency of their term."""
    from lucene_ray.search import query as Q

    if isinstance(q, Q.PhraseQuery):
        return "phrase"
    if isinstance(q, Q.PrefixQuery):
        return "prefix"
    if isinstance(q, Q.WildcardQuery):
        return "wildcard"
    if isinstance(q, Q.FuzzyQuery):
        return "fuzzy"
    spec = spec_of(q) or {}
    if spec.get("msm"):
        return "msm"
    if spec.get("must_not"):
        return "mustnot"
    if spec.get("filter"):
        return "filter"
    if spec.get("must"):
        return "mixed" if spec.get("should") else "must"
    should = spec.get("should", [])
    if len(should) > 1:
        return "should"
    df = searcher.df(should[0]) if should else 0
    if df == 0:
        return "term-absent"
    frac = df / max(searcher.doc_count, 1)
    return "term-hot" if frac >= 0.05 else "term-mid" if frac >= 0.002 else "term-rare"


SHAPES = ("term-hot", "term-mid", "term-rare", "term-absent", "should", "must",
          "mixed", "filter", "mustnot", "msm", "phrase", "prefix", "wildcard", "fuzzy")


class Verifier:
    """Served top-k against the exhaustive in-process searcher on the
    current commit (memoized per query)."""

    def __init__(self, index_dir: str):
        from lucene_ray.search.searcher import IndexSearcher

        self.s = IndexSearcher(index_dir, use_wand=False)
        self.memo: dict = {}

    def expected(self, q):
        if q not in self.memo:
            self.memo[q] = self.s.search(q, k=K)
        return self.memo[q]

    def same(self, q, td) -> bool:
        from lucene_ray.search.scorer import RELATION_EQ

        want = self.expected(q)
        if [h.gid for h in td.hits] != [h.gid for h in want.hits]:
            return False
        if [h.score for h in td.hits] != [h.score for h in want.hits]:
            return False
        if td.relation == RELATION_EQ and (want.relation != RELATION_EQ
                                           or td.total_hits != want.total_hits):
            return False
        return True


def oracle_agrees(oracle: BM25Oracle, spec: dict, td) -> bool:
    from lucene_ray.search.scorer import RELATION_EQ

    want, total = oracle.topk(spec, K)
    if [(h.gid, h.score) for h in td.hits] != want:
        return False
    return td.relation != RELATION_EQ or td.total_hits == total


# ---------------------------------------------------------------------------
# the run itself


def _index_bytes(index_dir: str) -> dict[str, int]:
    """Bytes of the whole index, and of each shard file kind."""
    out = {"postings": 0, "positions": 0, "norms": 0, "terms": 0, "docmap": 0, "total": 0}
    names = {"postings.bin": "postings", "positions.bin": "positions", "norms.bin": "norms",
             "terms.parquet": "terms", "docmap.parquet": "docmap"}
    for dirpath, _, files in os.walk(index_dir):
        in_shard = os.path.basename(dirpath).startswith("shard-")
        for f in files:
            n = os.path.getsize(os.path.join(dirpath, f))
            out["total"] += n
            if in_shard and f in names:
                out[names[f]] += n
    return out


def _append_batches(cache_dir: str, seed: int, vocab) -> list[tuple[str, str, str]]:
    """ROUNDS Parquet batches of new conversations over the base vocabulary,
    each with one planted probe term; (path, probe term, probe conv_id)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    out = []
    for i in range(ROUNDS):
        probe = f"zprobe{seed}n{i}"
        path = os.path.join(cache_dir, f"append-v{gen.GEN_VERSION}-s{seed}-b{i}-n{APPEND_TURNS}")
        if not os.path.isdir(path):
            c = gen.generate(seed, APPEND_TURNS, vocab=vocab, batch=i + 1).table
            conv = pc.binary_join_element_wise(f"d{i}", c.column("conv_id"), "")
            text = c.column("text").to_pylist()
            text[1] = f"{text[1]} {probe}"
            c = c.set_column(0, "conv_id", conv).set_column(3, "text", pa.array(text, pa.string()))
            gen.write_parquet(c, path, n_files=1)
        conv = pq.read_table(path, columns=["conv_id"]).column("conv_id")[1].as_py()
        out.append((path, probe, conv))
    return out


def warm_build(run: Run, corpus_path: str, rnd: int) -> tuple[float, dict]:
    """A build_index of the base corpus into an empty directory, in the
    serving session (workers already started); (seconds, commit)."""
    import ray.data as rd

    from lucene_ray.index.build import build_index

    out = os.path.join(run.work, f"build-{rnd}")
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    commit = build_index(rd.read_parquet(corpus_path), out,
                         target_docs_per_partition=-(-BASE_TURNS // BASE_SHARDS),
                         keyword_cols=("role", "tool"), docvalue_cols=("ts",),
                         input_desc=f"perfbench-build-{rnd}")
    took = time.perf_counter() - t0
    shutil.rmtree(out, ignore_errors=True)
    return took, commit


def execute(run: Run) -> dict:
    import ray.data as rd

    from lucene_ray.search.query import TermQuery
    from lucene_ray.search.searcher import IndexSearcher

    cfg = run.cfg
    corpus, corpus_path = gen.cached(run.cache, run.seed, BASE_TURNS)
    appends = _append_batches(run.cache, run.seed, corpus.vocab)
    text_bytes = int(pa.compute.sum(pa.compute.binary_length(corpus.table.column("text"))).as_py())
    os.makedirs(run.work, exist_ok=True)

    # ---- 1. set-up, several times ------------------------------------------
    setups = []
    svc = index_dir = commit = None
    reps = 1 if run.trace else SETUP_REPS
    for rep in range(reps):
        run.attempted += 1
        try:
            got = run.setup_once(rep, corpus_path)
        except Exception as e:       # ray.init or a bounded phase; the run goes on
            run.fail(f"set-up {rep}: {e!r}")
            run.teardown(None)
            continue
        setup_s, idx, cmt, s = got
        run.attempted += 1
        if int(cmt["doc_count"]) != corpus.n:
            run.fail(f"build doc_count {cmt['doc_count']} != {corpus.n} rows")
        _log("set-up {}: {:.2f}s ({})".format(rep, setup_s, ", ".join(
            f"{sp.name.split('.')[-1]}={sp.dur:.2f}" for sp in run.tracer.spans[-4:])))
        setups.append(setup_s)
        if rep < reps - 1:
            run.teardown(s)
            shutil.rmtree(idx, ignore_errors=True)
        else:
            svc, index_dir, commit = s, idx, cmt
    if svc is None:
        raise PhaseError("no set-up succeeded")
    ib = _index_bytes(index_dir)

    gen_q = qmod.QueryGen(corpus, run.seed)
    served: list = []           # (query, TopDocs | None, error)
    # document frequencies for shape names, from a searcher of its own so
    # the pool's statistics cache stays as cold as the pool left it
    shapes_of = IndexSearcher(index_dir)

    def loop(step: stats.Step, qs, dues=None):
        calls = [run.served_call(svc, q, served) for q in qs]
        step.shape.extend(shape_class(q, shapes_of) for q in qs)
        step.log_idx.extend(range(len(served), len(served) + len(qs)))
        run.attempted += len(qs)
        stats.run_step(step, calls, dues)

    rng = np.random.default_rng((run.seed, 4))
    if run.name == "serve-zipf":
        def fresh(n):
            return [qmod.to_query(sp) for _, sp in gen_q.zipf_stream(n)]
    else:
        sent = [0]

        def fresh(n):
            qs = [q for _, q in qmod.hot_stream(sent[0] + n)[sent[0]:]]
            sent[0] += n
            return qs

        for q in fresh(28):                          # warm-up, untimed
            run.served_call(svc, q, [])()
    # every list of queries has the stream's exact shape mix, so a rung or a
    # batch never happens to hold more of the slow shapes than another
    main_qs = [fresh(cfg["closed_n"] // ROUNDS) for _ in range(ROUNDS)]

    r = {"setups": setups, "index_bytes": ib, "text_bytes": text_bytes, "commit": commit,
         "svc": svc, "index_dir": index_dir, "corpus": corpus, "corpus_path": corpus_path,
         "main_queries": [q for qs in main_qs for q in qs]}
    if run.trace:
        from .traced import replay_build, replay_serving

        r["layers"] = {**replay_build(run, r), **replay_serving(run, r)}

    # ---- 2. rounds.  Each round serves a closed-loop block, one open-loop
    # rung and one search_many batch, checks what it served, then builds an
    # index and appends a batch to the served one.  Every metric pools its
    # rounds, so it spreads over the whole run instead of one window of it.
    from lucene_ray.index.build import append_index

    main = stats.Step(math.inf)
    slo = stats.SloSearch(cfg["slo_lo"], cfg["slo_hi"], stats.tail_pct(cfg["rung_n"]),
                          cfg["limit_ms"])
    build_s, app_s, fresh_s, refresh_s = [], [], [], []
    handles, rpcs, batch_n, batch_t = svc.actors, [0], [0], [0.0]
    oracle_pool: list = []
    main_pos: list[int] = []    # where main_qs sit in the main step

    def rung(rate):
        st = stats.Step(rate)
        loop(st, fresh(cfg["rung_n"]), stats.poisson_dues(rng, rate, cfg["rung_n"]))
        slo.record(st)

    def verify(steps, batch):
        """Served results against the exhaustive searcher on the current
        commit; a mismatch marks the request failed."""
        v = Verifier(index_dir)
        bad = 0
        for st in steps:
            for j in range(st.checked, len(st.log_idx)):
                q, td, err = served[st.log_idx[j]]
                if td is None or td.timed_out:
                    st.ok[j] = False
                    run.fail(f"query {q!r}: {err or 'timed out'}")
                elif not v.same(q, td):
                    st.ok[j] = False
                    bad += 1
            st.checked = len(st.log_idx)
        bad += sum(not v.same(q, td) for q, td in batch)
        if bad:
            run.fail(f"{bad} served top-k differ from the exhaustive searcher", bad)

    ingest = stats.Step(math.inf)
    for rnd in range(ROUNDS):
        with run.tracer.span("round"):
            # closed loop: --seconds in all, and at least closed_n queries
            t_end = time.perf_counter() + run.seconds / ROUNDS
            first = len(served)
            main_pos.extend(range(len(main.due), len(main.due) + len(main_qs[rnd])))
            loop(main, main_qs[rnd])
            while time.perf_counter() < t_end:
                loop(main, fresh(20))
            if rnd == 0:
                oracle_pool = served[first:]
            rung(slo.next_rate())
            qs = fresh(cfg["batch_n"])
            if run.trace:
                from .traced import CountingActor

                svc.actors = [CountingActor(a, rpcs) for a in handles]
            run.attempted += len(qs)
            t0 = time.perf_counter()
            tds = None
            try:
                tds = run.bounded("search_many", lambda qs=qs: svc.search_many(qs, k=K))
                batch_t[0] += time.perf_counter() - t0
                batch_n[0] += len(qs)
            except PhaseError as e:
                run.fail(str(e), len(qs))
            finally:
                svc.actors = handles
            verify([main, *slo.steps], list(zip(qs, tds)) if tds else [])

            got = None
            if rnd % 2 == 0:           # two builds a run: the budget holds no more
                got = run.op("build_index", lambda rnd=rnd: warm_build(run, corpus_path, rnd))
            if got is not None:
                build_s.append(got[0])
                if int(got[1]["doc_count"]) != corpus.n:
                    run.fail(f"build doc_count {got[1]['doc_count']} != {corpus.n} rows")

            # ingest: append, refresh the pool, probe for an appended doc
            path, probe, probe_conv = appends[rnd]
            run.attempted += 1
            t0 = time.perf_counter()
            try:
                with run.tracer.span("index.build.append_index"):
                    run.bounded("append_index", lambda: append_index(
                        rd.read_parquet(path), index_dir, input_desc=f"perfbench-append-{rnd}"))
                t_app = time.perf_counter() - t0
                with run.tracer.span("search.actors.refresh") as sp:
                    run.bounded("refresh", svc.refresh)
                refresh_s.append(sp.dur)
                td = run.bounded("probe", lambda: svc.search(TermQuery(probe), k=K))
                t_fresh = time.perf_counter() - t0
                if [h.conv_id for h in td.hits] != [probe_conv]:
                    run.fail(f"probe {probe} found {[h.conv_id for h in td.hits]}, "
                             f"want [{probe_conv}]")
                else:
                    app_s.append(t_app)
                    fresh_s.append(t_fresh)
            except PhaseError as e:
                run.fail(str(e))
            # closed-loop reads beside the writes
            loop(ingest, fresh(INGEST_QUERIES))
            verify([ingest], [])
    if slo.needs_floor():
        rung(cfg["slo_lo"])
        verify(slo.steps, [])

    # ---- 3. brute-force oracle on a sample of round 0, served on the base
    # index before any append
    oracle = BM25Oracle(corpus)
    cstats = (commit["doc_count_field"], commit["sum_ttf"])
    if (oracle.doc_count, oracle.sum_ttf) != tuple(int(x) for x in cstats):
        run.fail(f"collection stats {cstats} != oracle {oracle.doc_count}/{oracle.sum_ttf}")
    uniq = list({q: td for q, td, _ in oracle_pool
                 if td is not None and spec_of(q) is not None}.items())
    pick = np.random.default_rng((run.seed, 5)).permutation(len(uniq))[:ORACLE_SAMPLE]
    bad = sum(not oracle_agrees(oracle, spec_of(uniq[i][0]), uniq[i][1]) for i in pick)
    run.attempted += len(pick)
    if bad:
        run.fail(f"{bad} of {len(pick)} sampled queries differ from brute-force BM25", bad)

    for st in [main, *slo.steps]:
        lat = st.latency_ms()
        _log(f"step rate={st.rate:g} n={len(lat)} p50={np.median(lat):.1f}ms "
             f"tail={stats.percentile(lat, stats.tail_pct(len(lat))):.1f}ms "
             f"wait={st.wait_ms().mean():.1f}ms util={st.utilisation():.2f}")
    _log(f"done at {time.perf_counter() - (run.deadline - RUN_LIMIT_S):.1f}s; "
         f"builds {['%.2f' % b for b in build_s]} appends {['%.2f' % b for b in app_s]}")
    r.update(steps=[main, *slo.steps], main=main, main_pos=main_pos, slo_qps=slo.result(),
             builds=build_s, batch_rpcs=rpcs[0], batch_queries=batch_n[0],
             batch_s=batch_t[0], app_s=app_s, fresh_s=fresh_s, refresh_s=refresh_s)
    return r


def end_to_end(run: Run, r: dict) -> dict:
    """The end-to-end metrics; NaN where every attempt failed."""
    main: stats.Step = r["main"]
    lat = main.latency_ms()
    med = lambda xs: stats.median(xs) if xs else float("nan")  # noqa: E731
    return {
        "setup_s": (med(r["setups"]), "s"),
        "build_turns_per_s": (BASE_TURNS / med(r["builds"]), "turns/s"),
        "index_bytes_per_text_byte": (r["index_bytes"]["total"] / r["text_bytes"], "ratio"),
        "query_p50_ms": (stats.percentile(lat, 50), "ms"),
        "query_p99_ms": (stats.percentile(lat, 99), "ms"),
        "queries_per_s": (len(main.due) / (main.service_ms().sum() / 1e3), "queries/s"),
        "slo_qps": (r["slo_qps"], "queries/s"),
        "batch_queries_per_s": (r["batch_queries"] / r["batch_s"] if r["batch_s"]
                                else float("nan"), "queries/s"),
        "append_turns_per_s": (APPEND_TURNS / med(r["app_s"]), "turns/s"),
        "fresh_p50_s": (med(r["fresh_s"]), "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }

"""IndexSearcher over an index directory of posting shards.

Mirrors the reference read path (`search/IndexSearcher.java:507` →
createWeight → per-leaf scorers → `TopDocs.merge`): global collection /
term statistics come from the commit + the merged term_stats table (so
scoring equals a single-reader Lucene searcher over the same corpus), each
shard is scored independently (a "leaf slice"), and per-shard top-k results
merge with score-desc, global-docID-asc tie-break
(`search/TopDocs.java:202-299`: (shardIndex, doc) asc == global docID asc
because doc bases are assigned in partition order).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from ..index.manifest import latest_commit, shard_dirname
from ..index.shard import ShardReader
from ..util.levenshtein import MAX_PATTERN, TermCodes
from .query import (
    FILTER,
    MUST,
    MUST_NOT,
    SHOULD,
    BooleanQuery,
    MatchAllDocsQuery,
    PhraseQuery,
    TermQuery,
)
from .scorer import (
    RELATION_EQ,
    RELATION_GTE,
    TOTAL_HITS_THRESHOLD,
    search_shard_exhaustive,
    search_shard_phrase,
)
from .similarity import BM25Similarity


@dataclass
class ScoreDoc:
    score: float
    gid: int                      # global docID = doc_base + local
    conv_id: str = ""
    turn_idx: int = -1
    fields: tuple = ()            # sort-field values (FieldDoc.fields analogue)


@dataclass
class TopDocs:
    hits: list[ScoreDoc]
    total_hits: int
    relation: str
    timed_out: bool = False       # IndexSearcher.TooManyClauses→timeout flag
                                  # (TimeLimitingCollector / setTimeout):
                                  # True = partial results, relation GTE


class IndexSearcher:
    """Single-process searcher over a committed index.

    ``use_wand`` enables the one pruning route, MaxScore for dense pure
    disjunctions.  With ``use_wand=False`` no pruning route runs: boolean
    term queries always take the exhaustive reference, with exact totals
    — the comparison baseline for tests and benchmark verification."""

    def __init__(self, index_dir: str, similarity: BM25Similarity | None = None,
                 use_wand: bool = True, query_cache=None,
                 soft_deletes_field: str | None = None):
        # soft_deletes_field: open the SoftDeletesDirectoryReaderWrapper
        # view (`index/SoftDeletesDirectoryReaderWrapper.java`) — docs whose
        # marker dv column is non-zero are treated as deleted; opening
        # WITHOUT the field sees them (the dual-view contract)
        self.soft_deletes_field = soft_deletes_field
        self.index_dir = index_dir
        self.commit = latest_commit(index_dir)
        if self.commit is None:
            raise FileNotFoundError(f"no commit in {index_dir}")
        self.sim = similarity or BM25Similarity()
        self.use_wand = use_wand
        # default-on filter-result cache, as `IndexSearcher.java:171-178`
        # installs a shared LRUQueryCache(1000, 32MB) by default; pass
        # query_cache=False to disable (setQueryCache(null)).
        if query_cache is None:
            from .cache import LRUQueryCache
            query_cache = LRUQueryCache()
        elif query_cache is False:
            query_cache = None
        self.query_cache = query_cache
        self.doc_count = int(self.commit["doc_count_field"])
        self.sum_ttf = int(self.commit["sum_ttf"])
        self._readers: dict[int, ShardReader] = {}
        self._pids = [m["pid"] for m in self.commit["shards"]]
        self._bases = {m["pid"]: int(m["doc_base"]) for m in self.commit["shards"]}
        self._dels = {m["pid"]: m.get("del_file") for m in self.commit["shards"]}
        self._dvu = {m["pid"]: (m.get("dv_files"), m.get("dv_ranges"))
                     for m in self.commit["shards"] if m.get("dv_files")}
        self._dirs = {m["pid"]: shard_dirname(m) for m in self.commit["shards"]}
        self._stats = None
        self.token_filters = tuple(self.commit.get("token_filters", ()))

    def _ft(self, term: str) -> str:
        """Apply the index's analyzer filter chain to one query term (shared
        Analyzer contract: index and query sides always agree).  Keyword
        terms (field\\x1fvalue) are never filtered."""
        from ..index.shard import KEYWORD_SEP

        if not self.token_filters or KEYWORD_SEP in term:
            return term
        from ..analysis.filters import apply_filters_str

        return apply_filters_str(term, self.token_filters)

    def _normalize(self, query):
        """Rewrite a query tree with the filter chain applied to its terms."""
        if not self.token_filters:
            return query
        import dataclasses

        from .query import (
            BooleanClause,
            BooleanQuery,
            BoostQuery,
            ConstantScoreQuery,
            DisjunctionMaxQuery,
            FuzzyQuery,
            MultiPhraseQuery,
            PhraseQuery,
            SynonymQuery,
            TermQuery,
        )

        q = query
        if isinstance(q, TermQuery):
            return dataclasses.replace(q, term=self._ft(q.term))
        if isinstance(q, PhraseQuery):
            return dataclasses.replace(q, terms=tuple(self._ft(t) for t in q.terms))
        if isinstance(q, MultiPhraseQuery):
            return dataclasses.replace(q, slots=tuple(
                tuple(self._ft(t) for t in slot) for slot in q.slots))
        if isinstance(q, SynonymQuery):
            return dataclasses.replace(q, terms=tuple(self._ft(t) for t in q.terms))
        if isinstance(q, DisjunctionMaxQuery):
            return dataclasses.replace(q, queries=tuple(
                self._normalize(t) for t in q.queries))
        if isinstance(q, FuzzyQuery):
            return dataclasses.replace(q, term=self._ft(q.term))
        from .query import TermInSetQuery as _TIS

        if isinstance(q, _TIS):
            return dataclasses.replace(
                q, terms=tuple(self._ft(t) for t in q.terms))
        from .query import IntervalQuery as _IQ
        from .query import SpanPositionRangeQuery as _SPR

        if isinstance(q, _IQ):
            return dataclasses.replace(q, terms=tuple(self._ft(t) for t in q.terms))
        if isinstance(q, _SPR):
            return dataclasses.replace(q, term=self._ft(q.term))
        from .query import SpanNotQuery as _SN

        if isinstance(q, _SN):
            return dataclasses.replace(q, include=self._ft(q.include),
                                       exclude=self._ft(q.exclude))
        from .query import CommonTermsQuery as _CTQ

        if isinstance(q, _CTQ):
            return dataclasses.replace(q, terms=tuple(self._ft(t) for t in q.terms))
        from .query import ComplexPhraseQuery as _CPQ

        if isinstance(q, _CPQ):
            # concrete slot terms go through the chain; embedded multi-term
            # primitives bypass analysis like their standalone counterparts
            return dataclasses.replace(q, slots=tuple(
                tuple(self._ft(el) if isinstance(el, str) else el
                      for el in slot) for slot in q.slots))
        from .query import PhraseWildcardQuery as _PWQ

        if isinstance(q, _PWQ):
            return dataclasses.replace(q, slots=tuple(
                self._ft(el) if isinstance(el, str) else el
                for el in q.slots))
        from .spans import (
            SpanContainingQuery,
            SpanNearQuery,
            SpanOrQuery,
            SpanWithinQuery,
        )

        if isinstance(q, (SpanNearQuery, SpanOrQuery)):
            return dataclasses.replace(q, clauses=tuple(
                self._ft(c) if isinstance(c, str) else self._normalize(c)
                for c in q.clauses))
        if isinstance(q, SpanContainingQuery):
            return dataclasses.replace(
                q, big=self._normalize_span_leaf(q.big),
                little=self._normalize_span_leaf(q.little))
        if isinstance(q, SpanWithinQuery):
            return dataclasses.replace(
                q, little=self._normalize_span_leaf(q.little),
                big=self._normalize_span_leaf(q.big))
        from .spans import SpanRelationQuery as _SRQ

        if isinstance(q, _SRQ):
            return dataclasses.replace(
                q, source=self._normalize_span_leaf(q.source),
                reference=(None if q.reference is None
                           else self._normalize_span_leaf(q.reference)))
        from .query import PayloadScoreQuery as _PSQ
        from .query import SpanPayloadCheckQuery as _SPCQ

        if isinstance(q, _PSQ):
            inner = self._ft(q.query) if isinstance(q.query, str) \
                else self._normalize(q.query)
            return dataclasses.replace(q, query=inner)
        if isinstance(q, _SPCQ):
            return dataclasses.replace(q, terms=tuple(self._ft(t)
                                                      for t in q.terms))
        if isinstance(q, (BoostQuery, ConstantScoreQuery)):
            return dataclasses.replace(q, query=self._normalize(q.query))
        if isinstance(q, BooleanQuery):
            return BooleanQuery(tuple(
                BooleanClause(self._normalize(c.query), c.occur) for c in q.clauses),
                q.minimum_should_match)
        # Prefix/Wildcard/Regexp/Range/MatchAll/FieldExists: patterns run
        # against the (already filtered) dictionary unmodified, like the
        # reference's multi-term queries which bypass analysis
        return q

    def _normalize_span_leaf(self, leaf):
        return self._ft(leaf) if isinstance(leaf, str) else self._normalize(leaf)

    def refresh(self) -> bool:
        """openIfChanged equivalent (`DirectoryReader.openIfChanged`): reload
        the latest commit if a newer generation exists; returns True when the
        view changed.  Shard readers for unchanged shards are kept (their
        files are immutable); delete sidecars are re-attached."""
        latest = latest_commit(self.index_dir)
        if latest is None or latest["generation"] == self.commit["generation"]:
            return False
        self.commit = latest
        self.doc_count = int(latest["doc_count_field"])
        self.sum_ttf = int(latest["sum_ttf"])
        self._pids = [m["pid"] for m in latest["shards"]]
        self._bases = {m["pid"]: int(m["doc_base"]) for m in latest["shards"]}
        self._dels = {m["pid"]: m.get("del_file") for m in latest["shards"]}
        dirs = {m["pid"]: shard_dirname(m) for m in latest["shards"]}
        # a merge reuses a pid but rewrites it into a new directory — drop
        # readers whose backing dir changed (segments are otherwise immutable)
        for pid in [p for p, r in self._readers.items()
                    if dirs.get(p) != self._dirs.get(p)]:
            del self._readers[pid]
        self._dirs = dirs
        self.token_filters = tuple(latest.get("token_filters", ()))
        self._dvu = {m["pid"]: (m.get("dv_files"), m.get("dv_ranges"))
                     for m in latest["shards"] if m.get("dv_files")}
        for pid, r in self._readers.items():
            r.set_deletes(self._dels.get(pid))
            dvu = self._dvu.get(pid)
            r.set_dv_updates(dvu[0] if dvu else None,
                             dvu[1] if dvu else None)
            self._apply_soft_deletes(r)
        self._stats = None
        # a new commit may have merged shards (pid reused, docids remapped):
        # drop all cached filter sets, as the reference drops per-core cache
        # entries when a segment reader closes (`LRUQueryCache.java:258-270`)
        if self.query_cache is not None:
            self.query_cache.clear()
        return True

    # ---- global stats (hash-bucketed; the driver never loads the full
    # dictionary — `df` reads only the bucket a term hashes to) ----
    def _stats_bucket(self, term: str):
        """(terms, df, ttf) columns of the bucket ``term`` hashes to, sorted
        by term, or None when it has no file; read once per commit."""
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        from ..index.build import STATS_BUCKETS
        from ..util.hashing import fnv1a64_str

        if self._stats is None:
            self._stats = {}
        b = fnv1a64_str(term) % STATS_BUCKETS
        if b not in self._stats:
            path = os.path.join(self.index_dir, "term_stats", f"bucket-{b:04d}.parquet")
            cols = None
            if os.path.exists(path):
                t = pq.read_table(path, columns=["term", "df", "ttf"])
                # the stats merge writes buckets term-sorted; an older
                # index's bucket is sorted here, once
                if pc.all(pc.less_equal(t["term"][:-1], t["term"][1:])).as_py() is False:
                    t = t.sort_by("term")
                cols = tuple(t[c].to_numpy() for c in ("term", "df", "ttf"))
            self._stats[b] = cols
        return self._stats[b]

    def _term_stats(self, term: str) -> tuple[int, int]:
        cols = self._stats_bucket(term)
        i = int(np.searchsorted(cols[0], term)) if cols else 0
        if cols and i < len(cols[0]) and cols[0][i] == term:
            return int(cols[1][i]), int(cols[2][i])
        return 0, 0

    def df(self, term: str) -> int:
        return self._term_stats(term)[0]

    def ttf(self, term: str) -> int:
        """Global totalTermFreq (for LM similarities)."""
        return self._term_stats(term)[1]

    def _expand_shard(self, rdr, query) -> list[str]:
        """MultiTermQuery expansion against ONE shard's sorted dictionary
        (the per-leaf automaton-intersection model,
        `util/automaton/CompiledAutomaton` /
        `blocktree/Lucene90BlockTreeTermsReader.java:341`): each shard
        expands only its own terms, so no global dictionary is ever
        materialized on the driver.  Memoized per (shard, query) — shard
        dictionaries are immutable, and repeated query shapes are the common
        serving pattern (the TermInSetQuery/rewrite cache role)."""
        cache = getattr(self, "_expand_cache", None)
        if cache is None:
            cache = self._expand_cache = {}
        key = (rdr.dir, query)
        hit = cache.get(key)
        if hit is not None:
            return hit
        out = self._expand_shard_uncached(rdr, query)
        if len(cache) > 4096:
            cache.clear()
        cache[key] = out
        return out

    def _rewrite_phrase_wildcard(self, q):
        """PhraseWildcardQuery resolution
        (`sandbox/search/PhraseWildcardQuery.java:116-216` createWeight):

        1. empty phrase -> MatchNoDocs; one slot -> that slot's own query
           (rewrite at :115-124);
        2. single terms collected first — a term matching in NO shard early-
           stops the whole phrase (:163-174);
        3. multi-terms expand sequentially, each limited to
           ``remainingExpansions // remainingMultiTerms`` distinct terms
           (:178-216), walking shards smallest-dictionary-first
           (SegmentTermsSizeComparator :152-154, so unused credits flow to
           later multi-terms) in dictionary order within a shard (TermsEnum
           order); shards where an earlier phrase term matched nothing are
           skipped for later expansions (segment optimization);
        4. the collected terms score exactly like MultiPhraseQuery (the
           reference's PhraseWeight over collected TermStatistics).

        Deviation (documented): the reference's shared budget is decremented
        in its single-threaded segment-walk order; here each shard's
        expansion is an independent dictionary scan (parallel-safe on an
        actor pool) unioned in the same smallest-first order, so when the
        budget binds, WHICH terms are kept can differ from a single-node
        walk — both truncations are dictionary-order prefixes per shard."""
        from .query import (
            MatchNoDocsQuery,
            MultiPhraseQuery,
            TermQuery,
        )

        if not q.slots:
            return MatchNoDocsQuery()
        if len(q.slots) == 1:
            el = q.slots[0]
            return TermQuery(el, boost=q.boost) if isinstance(el, str) \
                else _boosted(el, q.boost)
        single = [el for el in q.slots if isinstance(el, str)]
        for t in single:
            if self.df(t) == 0:
                return MatchNoDocsQuery()
        multi_idx = [i for i, el in enumerate(q.slots)
                     if not isinstance(el, str)]
        out = [(el,) if isinstance(el, str) else () for el in q.slots]
        if multi_idx:
            rdrs = sorted((self.reader(pid) for pid in self._pids),
                          key=lambda r: r.n_terms)
            alive = list(rdrs)
            if q.segment_optimization and single:
                alive = [r for r in alive
                         if all(r.seek_exact(t) >= 0 for t in single)]
            remaining = int(q.max_multi_term_expansions)
            remaining_multi = len(multi_idx)
            for i in multi_idx:
                budget = remaining // remaining_multi
                collected: list[str] = []
                seen: set[str] = set()
                next_alive = []
                for rdr in alive:
                    exp = self._expand_shard(rdr, q.slots[i])
                    if not exp and q.segment_optimization:
                        continue        # shard can't match the phrase
                    next_alive.append(rdr)
                    if len(collected) < budget:
                        for t in exp:
                            if t not in seen:
                                seen.add(t)
                                collected.append(t)
                                if len(collected) >= budget:
                                    break
                alive = next_alive
                if not collected:
                    return MatchNoDocsQuery()
                out[i] = tuple(sorted(collected))
                remaining -= len(collected)
                remaining_multi -= 1
        return MultiPhraseQuery(slots=tuple(out), slop=int(q.slop),
                                boost=q.boost)

    def _expand_shard_uncached(self, rdr, query) -> list[str]:
        from .query import TermRangeQuery as _TRQ

        terms = rdr._term_np
        if isinstance(query, _TRQ):
            from ..index.shard import KEYWORD_SEP

            lo_i = 0
            if query.lower is not None:
                lo_i = int(np.searchsorted(
                    terms, query.lower,
                    side="left" if query.include_lower else "right"))
            hi_i = len(terms)
            if query.upper is not None:
                hi_i = int(np.searchsorted(
                    terms, query.upper,
                    side="right" if query.include_upper else "left"))
            if query.field != "text":
                # keyword-field range (parser getRangeQuery): bounds are
                # namespaced; keep only THIS field's namespace terms
                pre = f"{query.field}{KEYWORD_SEP}"
                return [t for t in terms[lo_i:hi_i] if t.startswith(pre)]
            return [t for t in terms[lo_i:hi_i] if KEYWORD_SEP not in t]
        return _expand_terms(terms, query, rdr.term_codes)

    def reader(self, pid: int) -> ShardReader:
        r = self._readers.get(pid)
        if r is None:
            r = ShardReader(os.path.join(self.index_dir, "shards",
                                         self._dirs.get(pid, f"shard-{pid:05d}")))
            r.set_deletes(self._dels.get(pid))
            dvu = self._dvu.get(pid)
            if dvu:
                r.set_dv_updates(dvu[0], dvu[1])
            self._apply_soft_deletes(r)
            self._readers[pid] = r
        return r

    def _apply_soft_deletes(self, r) -> None:
        """Fold the soft-delete marker dv into the reader's deleted mask
        (SoftDeletesDirectoryReaderWrapper#wrap hardLiveDocs & softDeletes).
        Must run AFTER set_deletes/set_dv_updates — the marker reads
        through the newest dv generation."""
        fld = self.soft_deletes_field
        if not fld or fld not in tuple(self.commit.get("docvalue_cols", ())):
            return
        sd = r.docvalue(fld) != 0
        if sd.any():
            r.deleted = sd if r.deleted is None else (r.deleted | sd)

    def _rewrite_common_terms(self, q):
        """CommonTermsQuery.rewrite (`queries/CommonTermsQuery.java:116-189`
        buildQuery): split terms at the docFreq cutoff into a low-frequency
        group (low_freq_occur + msm) and a high-frequency group; with both
        present the low group is required and the high group optional."""
        from .query import BooleanClause, BooleanQuery, TermQuery

        max_doc = int(self.commit["doc_count"])
        # fractional cutoff uses ceil (CommonTermsQuery.java:155:
        # docFreq > ceil(maxTermFrequency * maxDoc) is high-frequency)
        cut = (q.max_term_frequency if q.max_term_frequency >= 1.0
               else math.ceil(q.max_term_frequency * max_doc))
        low = [t for t in q.terms if self.df(t) <= cut]
        high = [t for t in q.terms if self.df(t) > cut]
        lowq = BooleanQuery(tuple(BooleanClause(TermQuery(t), q.low_freq_occur)
                                  for t in low), q.low_freq_msm)
        highq = BooleanQuery(tuple(BooleanClause(TermQuery(t), q.high_freq_occur)
                                   for t in high), q.high_freq_msm)
        if not high:
            return lowq
        if not low:
            return highq
        return BooleanQuery((BooleanClause(lowq, MUST),
                             BooleanClause(highq, SHOULD)))

    # ---- query compilation (createWeight equivalent) ----
    def _compile_fuzzy_like_this(self, q) -> dict:
        """FuzzyLikeThisQuery rewrite
        (`sandbox/.../queries/FuzzyLikeThisQuery.java:193-332`): per source
        term, fuzzy-expand against the merged dictionary, rank variants by
        edit-distance similarity (top MAX_VARIANTS_PER_TERM, ties to the
        lexicographically smaller term — the ScoreTermQueue order), rescore
        kept variants with similarity^2 * classic idf(SOURCE df — avg
        variant df when the source is unindexed, :241-245), keep the global
        top max_num_terms, and emit a flat SHOULD whose term scorers carry
        ARTIFICIAL df=1/ttf=1 stats (newTermQuery, :262-277) so variant
        rarity cannot dominate; ignore_tf swaps in constant-score clauses."""
        import math

        from ..analysis.standard import analyze
        from .query import (
            BooleanClause,
            BooleanQuery,
            ConstantScoreQuery,
            FuzzyQuery,
            TermQuery,
        )

        n_docs = max(self.doc_count, 1)
        global_q: list[tuple[float, str]] = []
        for query_string, max_edits, prefix_length in q.fields:
            seen: set[str] = set()
            for tok in analyze(query_string):
                term = self._ft(tok)
                if not term or term in seen:
                    continue
                seen.add(term)
                fq = FuzzyQuery(term, max_edits=int(max_edits),
                                prefix_length=int(prefix_length))
                variants: set[str] = set()
                for pid in self._pids:
                    variants.update(self._expand_shard(self.reader(pid), fq))
                if not variants:
                    continue
                scored = []
                total_variant_df = 0
                for v in variants:
                    # FuzzyLikeThisQuery:213-214 builds its FuzzyTermsEnum
                    # with transpositions=true
                    ed = _edit_distance(v, term, True)
                    s = 1.0 if ed == 0 else 1.0 - ed / min(len(v), len(term))
                    total_variant_df += self.df(v)
                    scored.append((s, v))
                scored.sort(key=lambda sv: (-sv[0], sv[1]))
                kept = scored[:q.MAX_VARIANTS_PER_TERM]
                df = self.df(term)
                if df == 0:
                    df = total_variant_df // len(variants)
                idf = math.log((n_docs + 1) / (df + 1)) + 1.0
                for s, v in kept:
                    global_q.append((s * s * idf, v))
        global_q.sort(key=lambda sv: (-sv[0], sv[1]))
        selected = global_q[:q.max_num_terms]
        if not selected:
            return {"scoring": [], "filters": ["\x00missing\x00"],
                    "must_nots": [], "msm": 0, "n_required": 1,
                    "match_all": False}
        if q.ignore_tf:
            clauses = tuple(
                BooleanClause(ConstantScoreQuery(TermQuery(v),
                                                 boost=s * q.boost), SHOULD)
                for s, v in selected)
            return self.compile(BooleanQuery(clauses), _normalized=True)
        scoring = []
        for s, v in selected:
            scorer = self.sim.scorer(s * q.boost, self.doc_count,
                                     self.sum_ttf, 1, ttf=1)
            scoring.append((v, scorer, SHOULD))
        return {"scoring": scoring, "filters": [], "must_nots": [],
                "range_filters": [], "range_must_nots": [], "msm": 0,
                "n_required": 0, "match_all": False}

    def _fuzzy_top_terms(self, q) -> list[tuple[float, str]]:
        """TopTermsRewrite term collection for a FuzzyQuery: merged-
        dictionary expansion, FuzzyTermsEnum boosts, top max_expansions by
        (boost desc, term asc) — no term statistics consulted."""
        variants: set[str] = set()
        for pid in self._pids:
            variants.update(self._expand_shard(self.reader(pid), q))
        scored = []
        for v in variants:
            ed = _edit_distance(v, q.term, q.transpositions)
            b = 1.0 if ed == 0 else 1.0 - ed / min(len(v), len(q.term))
            scored.append((b, v))
        scored.sort(key=lambda bv: (-bv[0], bv[1]))
        return scored[:max(1, int(q.max_expansions))]

    def _compile_fuzzy_blended(self, q) -> dict:
        """FuzzyQuery's default TopTermsBlendedFreqScoringRewrite
        (`search/MultiTermQuery.java:197-230` + `FuzzyTermsEnum.java:
        236-255` + `BlendedTermQuery.java:281-290`): expand across every
        shard's dictionary (merged-dictionary union, the FuzzyLikeThis
        shape — bounded by the edit-distance automaton's selectivity),
        boost each variant 1.0 for exact else 1 - ed/min(|variant|,
        |query|), keep the top max_expansions by (boost desc, term asc —
        the ScoreTermQueue eviction order), blend every kept term's
        docFreq to the set's max (adjustFrequencies), and emit the
        BOOLEAN_REWRITE SHOULD-sum of boosted term scorers."""
        kept = self._fuzzy_top_terms(q)
        if not kept:
            return {"scoring": [], "filters": ["\x00missing\x00"],
                    "must_nots": [], "msm": 0, "n_required": 1,
                    "match_all": False}
        dfs = {v: self.df(v) for _, v in kept}
        df_max = max(dfs.values(), default=0)
        if df_max == 0:
            return {"scoring": [], "filters": ["\x00missing\x00"],
                    "must_nots": [], "msm": 0, "n_required": 1,
                    "match_all": False}
        scoring = [(v, self.sim.scorer(q.boost * b, self.doc_count,
                                       self.sum_ttf, df_max), SHOULD)
                   for b, v in kept if dfs[v] > 0]
        return {"scoring": scoring, "filters": [], "must_nots": [],
                "range_filters": [], "range_must_nots": [], "msm": 0,
                "n_required": 0, "match_all": False}

    def _compile_combined(self, q) -> tuple:
        """CombinedFieldQuery stats blending (CombinedFieldWeight:320-371):
        pseudo collection stats take max(docCount) across fields and
        sum(weight * sumTotalTermFreq); each term's pseudo stats take
        max(df) and sum(weight * ttf).  Keyword-field collection stats
        derive from the field's (vocabulary-bounded) class values in the
        hash-bucketed global stats — no dictionary scan."""
        from ..index.shard import keyword_term

        field_info: list[tuple[str, float]] = []
        doc_count = 0
        sum_ttf = 0.0
        for f, w in q.fields:
            if w < 1:
                raise ValueError("field weight must be >= 1 "
                                 "(CombinedFieldQuery.Builder.addField)")
            if f == "text":
                dc, sttf = self.doc_count, float(self.sum_ttf)
            else:
                from ..pipelines.classify import _keyword_classes

                classes = _keyword_classes(self, f)
                dc = sum(self.df(keyword_term(f, v)) for v in classes)
                sttf = float(sum(self.ttf(keyword_term(f, v))
                                 for v in classes))
            doc_count = max(doc_count, dc)
            sum_ttf += float(w) * sttf
            field_info.append((f, float(w)))
        term_specs = []
        for t in q.terms:
            df = 0
            keys = []
            for f, w in field_info:
                key = self._ft(t) if f == "text" else keyword_term(f, t)
                d = self.df(key)
                if d > 0:
                    df = max(df, d)
                keys.append((key, w))
            if df == 0:
                continue
            scorer = self.sim.scorer(q.boost, doc_count,
                                     max(1, int(round(sum_ttf))), df)
            term_specs.append((tuple(keys), scorer))
        return (tuple(term_specs), tuple(field_info))

    def _kw_presence(self, rdr, field: str) -> np.ndarray:
        """Docs of this shard carrying any value of a keyword field (the
        norms-exist set of MultiFieldNormValues)."""
        from ..index.shard import keyword_term
        from ..pipelines.classify import _keyword_classes

        pres = np.zeros(rdr.doc_count, bool)
        for v in _keyword_classes(self, field):
            tid = rdr.seek_exact(keyword_term(field, v))
            if tid >= 0:
                docs, _f = rdr.postings(tid)
                pres[docs] = True
        return pres

    def _combined_shard(self, rdr, spec, k, after=None):
        """Per-shard CombinedFieldScorer: dense weighted-sum freqs per term,
        combined norm = intToByte4(round(sum(w * decoded_len)))
        (MultiNormsLeafSimScorer.MultiFieldNormValues), scored with the
        blended-stats scorer, summed across terms."""
        from ..util.smallfloat import LENGTH_TABLE, int_to_byte4

        term_specs, field_info = spec
        n = rdr.doc_count
        dl = np.zeros(n, np.float32)
        for f, w in field_info:
            if f == "text":
                dl += np.float32(w) * \
                    LENGTH_TABLE[np.asarray(rdr.norms, np.int64) & 0xFF]
            else:
                dl[self._kw_presence(rdr, f)] += np.float32(w)
        norm_bytes = int_to_byte4(np.floor(dl + np.float32(0.5))
                                  .astype(np.int64))
        totals = np.zeros(n, np.float32)
        matched = np.zeros(n, bool)
        for keys, scorer in term_specs:
            freqs = np.zeros(n, np.float32)
            for key, w in keys:
                tid = rdr.seek_exact(key)
                if tid < 0:
                    continue
                docs, fr = rdr.postings(tid)
                freqs[docs] += np.float32(w) * fr.astype(np.float32)
            m = freqs > 0
            if not m.any():
                continue
            matched |= m
            idx = np.nonzero(m)[0]
            totals[idx] += scorer.score(freqs[idx], norm_bytes[idx])
        if rdr.deleted is not None:
            matched &= ~rdr.deleted
        docs = np.nonzero(matched)[0].astype(np.int32)
        scores = totals[docs]
        if after is not None:
            a_s, a_d = np.float32(after[0]), int(after[1])
            keep = (scores < a_s) | ((scores == a_s)
                                     & (docs.astype(np.int64) > a_d))
            scores, docs = scores[keep], docs[keep]
        total = int(matched.sum())
        top = np.lexsort((docs, -scores))[:k]
        return scores[top], docs[top], total, RELATION_EQ

    def compile(self, query, _normalized: bool = False,
                needs_scores: bool = True) -> dict:
        if not _normalized:
            from .matches import strip_named

            # NamedQuery wrappers score exactly like the wrapped query
            # (NamedMatches.java NamedQuery delegates its Weight); erase
            # them before normalize/compile sees the tree
            query = strip_named(query)
            # normalize exactly once — the Porter chain is not guaranteed
            # idempotent, and compile recurses (Boost/ConstantScore)
            query = self._normalize(query)
        from .query import IndexOrDocValuesQuery as _IODV

        if isinstance(query, _IODV):
            query = query.rewrite()
        from .query import CommonTermsQuery as _CTQ

        if isinstance(query, _CTQ):
            query = self._rewrite_common_terms(query)
        from .query import FuzzyLikeThisQuery as _FLTQ

        if isinstance(query, _FLTQ):
            return self._compile_fuzzy_like_this(query)
        from .query import MoreLikeThisQuery as _MLTQ

        if isinstance(query, _MLTQ):
            # MoreLikeThisQuery.rewrite: build the MLT boolean, then msm =
            # int(n_clauses * percentTermsToMatch)
            mdf = 5 if query.min_doc_freq < 0 else query.min_doc_freq
            bq = more_like_this(self, query.like_text,
                                max_query_terms=query.max_query_terms,
                                min_term_freq=query.min_term_freq,
                                min_doc_freq=mdf)
            from dataclasses import replace as _replace

            bq = _replace(bq, minimum_should_match=int(
                len(bq.clauses) * query.percent_terms_to_match))
            return self.compile(bq, _normalized=True)
        from .query import CombinedFieldQuery as _CFQ

        if isinstance(query, _CFQ):
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False,
                    "combined": self._compile_combined(query)}
        if isinstance(query, TermQuery):
            query = BooleanQuery((_clause(query, SHOULD),))
        if isinstance(query, MatchAllDocsQuery):
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": True}
        from .query import (
            FunctionScoreQuery,
            KnnVectorQuery,
            MatchNoDocsQuery,
            ToParentBlockJoinQuery,
        )

        if isinstance(query, FunctionScoreQuery):
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False,
                    "fnscore": (self.compile(query.query, _normalized=False),
                                query.expression)}
        from .valuesource import FunctionMatchQuery as _FnMQ
        from .valuesource import FunctionQuery as _FnQ
        from .valuesource import FunctionRangeQuery as _FnRQ

        if isinstance(query, (_FnQ, _FnRQ, _FnMQ)):
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False, "function": query}
        from .intervals import IntervalsSourceQuery as _ISQ

        if isinstance(query, _ISQ):
            if self.token_filters:
                import dataclasses

                from .intervals import normalize_terms

                query = dataclasses.replace(
                    query, source=normalize_terms(query.source, self._ft))
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False,
                    "intervals_source": query}
        if isinstance(query, ToParentBlockJoinQuery):
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False,
                    "block_join": (self.compile(query.child, _normalized=False),
                                   query.score_mode)}
        from .query import ToChildBlockJoinQuery

        if isinstance(query, ToChildBlockJoinQuery):
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False,
                    "to_child": (self.compile(query.parent, _normalized=False),
                                 query.score_mode)}
        if isinstance(query, MatchNoDocsQuery):
            return {"scoring": [], "filters": ["\x00missing\x00"], "must_nots": [],
                    "msm": 0, "n_required": 1, "match_all": False}
        if isinstance(query, KnnVectorQuery):
            # KnnFloatVectorQuery.createWeight analogue: the filter compiles
            # once here; per-shard execution picks approximate (HNSW +
            # live-docs accept mask) or exact-over-filtered
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False,
                    "knn": {"vec": np.asarray(query.vector, dtype=np.float64),
                            "k": int(query.k), "ef": int(query.ef),
                            "boost": float(query.boost),
                            "filter": (None if query.filter is None
                                       else self.compile(query.filter))}}
        from .query import (
            BoostQuery,
            ConstantScoreQuery,
            DisjunctionMaxQuery,
            FuzzyQuery,
            PrefixQuery,
            RegexpQuery,
            WildcardQuery,
        )

        if isinstance(query, BoostQuery):
            return self.compile(_boosted(query.query, query.boost), _normalized=True)
        if isinstance(query, ConstantScoreQuery):
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False,
                    "const_wrap": self.compile(query.query, _normalized=True),
                    "boost": query.boost}
        from .query import IntervalQuery, RangeQuery, SpanPositionRangeQuery

        if isinstance(query, IntervalQuery):
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False,
                    "interval": (tuple(query.terms), int(query.max_width),
                                 bool(query.ordered)),
                    "boost": query.boost}
        if isinstance(query, SpanPositionRangeQuery):
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False,
                    "posrange": (query.term, int(query.start), int(query.end)),
                    "boost": query.boost}
        from .query import SpanNotQuery

        if isinstance(query, SpanNotQuery):
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False,
                    "spannot": (query.include, query.exclude,
                                int(query.pre), int(query.post)),
                    "boost": query.boost}
        from .query import PayloadScoreQuery as _PSQ2
        from .query import SpanPayloadCheckQuery as _SPCQ2

        if isinstance(query, _PSQ2):
            from .spans import SpanNearQuery as _SNQ
            inner = query.query
            if isinstance(inner, str):
                terms = [inner]
            elif isinstance(inner, _SNQ):
                if not inner.in_order or \
                        not all(isinstance(c, str) for c in inner.clauses):
                    raise TypeError("PayloadScoreQuery supports a term or an "
                                    "ordered SpanNear of plain terms")
                terms = list(inner.clauses)
            else:
                raise TypeError(f"unsupported PayloadScoreQuery wrap "
                                f"{type(inner).__name__}")
            dfs = [self.df(t) for t in terms]
            if any(d == 0 for d in dfs):
                return {"scoring": [], "filters": ["\x00missing\x00"],
                        "must_nots": [], "msm": 0, "n_required": 1,
                        "match_all": False}
            scorer = None
            if query.include_span_score:
                # boost folds into the span weight, as the reference wraps
                # it into the inner SpanWeight (PayloadScoreQuery.java:130)
                if isinstance(inner, str):
                    scorer = self.sim.scorer(query.boost, self.doc_count,
                                             self.sum_ttf, dfs[0])
                else:
                    idf_sum = np.float32(0.0)
                    for d in dfs:
                        idf_sum = idf_sum + self.sim.idf(d, self.doc_count)
                    scorer = self.sim.scorer_with_idf(
                        query.boost, idf_sum, self.doc_count, self.sum_ttf)
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False,
                    "payload_score": (inner, query.func, scorer, query.boost)}
        if isinstance(query, _SPCQ2):
            dfs = [self.df(t) for t in query.terms]
            if any(d == 0 for d in dfs):
                return {"scoring": [], "filters": ["\x00missing\x00"],
                        "must_nots": [], "msm": 0, "n_required": 1,
                        "match_all": False}
            idf_sum = np.float32(0.0)
            for d in dfs:
                idf_sum = idf_sum + self.sim.idf(d, self.doc_count)
            scorer = self.sim.scorer_with_idf(query.boost, idf_sum,
                                              self.doc_count, self.sum_ttf)
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False,
                    "payload_check": (tuple(query.terms),
                                      tuple(query.expected), query.op,
                                      scorer)}
        from .spans import SPAN_TYPES

        if isinstance(query, SPAN_TYPES):
            # nested span algebra: per-shard candidate + position-list
            # enumeration (spans.py); constant-score
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False,
                    "spans": query, "boost": query.boost}
        from .query import ComplexPhraseQuery as _CPQ

        if isinstance(query, _CPQ):
            # slots expand per shard at execution (SpanMultiTermQueryWrapper
            # per-leaf rewrite); constant-score
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False,
                    "complex_phrase": query}
        if isinstance(query, RangeQuery):
            # standalone numeric range: constant-score over the doc-values
            # mask (PointRangeQuery rewritten to constant score)
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False,
                    "range": (query.field, query.lo, query.hi),
                    "boost": query.boost}
        from .query import PointInSetQuery, PointMultiRangeQuery, \
            PointRangeQuery, RangeFieldQuery
        from .xy import XYDistanceQuery, XYPolygonQuery

        if isinstance(query, (PointRangeQuery, PointInSetQuery,
                              RangeFieldQuery, PointMultiRangeQuery,
                              XYDistanceQuery, XYPolygonQuery)):
            # BKD point queries: constant-score leaf-visit execution against
            # the per-shard point sidecar (search/PointRangeQuery.java /
            # PointInSetQuery.java constant-score rewrite)
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False,
                    "points": query, "boost": getattr(query, "boost", 1.0)}
        from .geo import LatLonDistanceQuery, LatLonPolygonQuery
        from .geo3d import Geo3DCircleQuery

        if isinstance(query, (LatLonDistanceQuery, LatLonPolygonQuery,
                              Geo3DCircleQuery)):
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False,
                    "points": query, "boost": query.boost}
        from .shapes import LatLonShapeQuery, XYShapeQuery

        if isinstance(query, (LatLonShapeQuery, XYShapeQuery)):
            # shape relation query (document/LatLonShapeQuery.java):
            # bbox BKD prune + exact verify per shard
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False,
                    "shape": query, "boost": query.boost}
        from .automaton import TermAutomatonQuery as _TAQ

        if isinstance(query, _TAQ):
            # stats = similarity.scorer over every term with df > 0 (summed
            # idf, TermAutomatonQuery.java:380-399); all-absent terms mean
            # no enums anywhere -> match nothing
            if query.det is None:
                raise ValueError("call finish() first on the TermAutomatonQuery")
            dfs = [(t, self.df(t)) for t in query.terms]
            if all(d == 0 for _, d in dfs):
                return {"scoring": [], "filters": ["\x00missing\x00"],
                        "must_nots": [], "msm": 0, "n_required": 1,
                        "match_all": False}
            idf_sum = np.float32(0.0)
            for _, d in dfs:
                if d > 0:
                    idf_sum = idf_sum + self.sim.idf(d, self.doc_count)
            scorer = self.sim.scorer_with_idf(query.boost, idf_sum,
                                              self.doc_count, self.sum_ttf)
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False,
                    "automaton": (query, scorer)}
        from .query import CoveringQuery, DocValuesNumbersQuery

        if isinstance(query, CoveringQuery):
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False, "covering": query}
        if isinstance(query, DocValuesNumbersQuery):
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False, "dv_numbers": query}
        from .query import (
            DocValuesRewriteQuery,
            SortedNumericRangeQuery,
            SortedSetRangeQuery,
        )

        if isinstance(query, SortedNumericRangeQuery):
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False, "mv_num_range": query}
        if isinstance(query, SortedSetRangeQuery):
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False, "mv_str_range": query}
        if isinstance(query, DocValuesRewriteQuery):
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False, "dv_rewrite": query}
        from .query import SortedNumericSetQuery

        if isinstance(query, SortedNumericSetQuery):
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False, "mv_num_set": query}
        from .feature import FeatureQuery, LongDistanceFeatureQuery, compute_pivot
        from .geo import GeoDistanceFeatureQuery

        if isinstance(query, LongDistanceFeatureQuery):
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False,
                    "long_dist_feature": query}
        if isinstance(query, GeoDistanceFeatureQuery):
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False,
                    "geo_dist_feature": query}
        if isinstance(query, FeatureQuery):
            # FeatureField scoring query (document/FeatureField.java): a
            # saturation query without a pivot computes it at rewrite time
            # from the whole index's feature stats (:625-638)
            pivot = query.pivot
            if query.function == "saturation" and pivot is None:
                pivot = compute_pivot((self.reader(p) for p in self._pids),
                                      query.field)
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False,
                    "feature": (query, pivot)}
        from .query import SynonymQuery

        if isinstance(query, SynonymQuery):
            boosts = query.boosts or tuple(1.0 for _ in query.terms)
            present = [(t, b) for t, b in zip(query.terms, boosts) if self.df(t) > 0]
            if not present:
                return {"scoring": [], "filters": ["\x00missing\x00"], "must_nots": [],
                        "msm": 0, "n_required": 1, "match_all": False}
            df = max(self.df(t) for t, _ in present)
            scorer = self.sim.scorer(query.boost, self.doc_count, self.sum_ttf, df)
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False,
                    "synonym": (present, scorer)}
        from .query import BlendedTermQuery

        if isinstance(query, BlendedTermQuery):
            # adjustFrequencies: score every term with the max df of the set,
            # then DisMax(tie=0.01) — BlendedTermQuery's default rewrite
            boosts = query.boosts or tuple(1.0 for _ in query.terms)
            dfs = {t: self.df(t) for t in query.terms}
            df_max = max(dfs.values(), default=0)
            if df_max == 0:
                return {"scoring": [], "filters": ["\x00missing\x00"], "must_nots": [],
                        "msm": 0, "n_required": 1, "match_all": False}
            sub = [(t, self.sim.scorer(query.boost * b, self.doc_count,
                                       self.sum_ttf, df_max))
                   for t, b in zip(query.terms, boosts) if dfs[t] > 0]
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False,
                    "dismax": sub, "tie": np.float32(0.01)}
        if isinstance(query, DisjunctionMaxQuery):
            sub = []
            for tq in query.queries:
                df = self.df(tq.term)
                if df > 0:
                    sub.append((tq.term, self.sim.scorer(tq.boost, self.doc_count,
                                                         self.sum_ttf, df)))
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False,
                    "dismax": sub, "tie": np.float32(query.tie_breaker)}
        from .query import IndriAndQuery as _IndriAnd

        if isinstance(query, _IndriAnd):
            from .similarity import IndriDirichletSimilarity

            isim = IndriDirichletSimilarity(query.mu)
            sub = []
            for tq in query.queries:
                df = self.df(tq.term)
                if df > 0:
                    sub.append((tq.term,
                                isim.scorer(1.0, self.doc_count, self.sum_ttf,
                                            df, ttf=self.ttf(tq.term)),
                                float(tq.boost)))
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False, "indri_and": sub}
        from .query import FieldExistsQuery

        if isinstance(query, FieldExistsQuery):
            from ..index.shard import KEYWORD_SEP

            query = PrefixQuery(f"{query.field}{KEYWORD_SEP}", boost=query.boost)
        from .query import TermInSetQuery, TermRangeQuery

        if isinstance(query, FuzzyQuery) and \
                query.rewrite == "top_terms_blended":
            if needs_scores:
                return self._compile_fuzzy_blended(query)
            # scoreless (count): same capped term set, constant score —
            # selection by (boost desc, term asc) needs no stats
            kept = self._fuzzy_top_terms(query)
            from .query import TermInSetQuery as _TIS

            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False,
                    "const_query": _TIS(tuple(v for _, v in kept)),
                    "boost": query.boost}
        if isinstance(query, (PrefixQuery, WildcardQuery, RegexpQuery,
                              FuzzyQuery, TermInSetQuery, TermRangeQuery)):
            # expansion happens PER SHARD at execution time (const_query);
            # constant-score rewrite needs no global stats
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False,
                    "const_query": query, "boost": query.boost}
        from .query import ExpressionRangeQuery

        if isinstance(query, ExpressionRangeQuery):
            ev = IndexSearcher._EXPR_CACHE.get(query.expression)
            if ev is None:
                from .expressions import compile_expression

                ev = IndexSearcher._EXPR_CACHE[query.expression] = \
                    compile_expression(query.expression)
            if "_score" in ev[1]:
                raise ValueError("ExpressionRangeQuery evaluates scorelessly; "
                                 "_score is not available")
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False,
                    "expr_range": (query.expression, query.lo, query.hi,
                                   query.include_lower, query.include_upper),
                    "boost": query.boost}
        from .query import MultiPhraseQuery

        if isinstance(query, MultiPhraseQuery):
            # MultiPhraseQuery stats (MultiPhraseQuery.java:221-244): idf sums
            # over EVERY provided term with df > 0, slot order; a slot whose
            # terms are all absent can never match
            idf_sum = np.float32(0.0)
            any_term = False
            for slot in query.slots:
                slot_present = False
                for t in slot:
                    d = self.df(t)
                    if d > 0:
                        idf_sum = idf_sum + self.sim.idf(d, self.doc_count)
                        any_term = True
                        slot_present = True
                if not slot_present:
                    return {"scoring": [], "filters": ["\x00missing\x00"], "must_nots": [],
                            "msm": 0, "n_required": 1, "match_all": False}
            if not any_term:
                return {"scoring": [], "filters": ["\x00missing\x00"], "must_nots": [],
                        "msm": 0, "n_required": 1, "match_all": False}
            scorer = self.sim.scorer_with_idf(query.boost, idf_sum,
                                              self.doc_count, self.sum_ttf)
            slots = tuple(tuple(t for t in slot if self.df(t) > 0)
                          for slot in query.slots)
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False,
                    "phrase": (slots, scorer, int(query.slop),
                               tuple(query.positions) or None)}
        from .query import PhraseWildcardQuery as _PWQ2

        if isinstance(query, _PWQ2):
            return self.compile(self._rewrite_phrase_wildcard(query),
                                _normalized=True)
        from .query import NGramPhraseQuery as _NGPQ

        if isinstance(query, _NGPQ):
            rw = query.rewrite()
            if isinstance(rw, PhraseQuery):
                return self.compile(rw, _normalized=True)
            terms, offsets = rw
            dfs = [self.df(t) for t in terms]
            if any(d == 0 for d in dfs):
                return {"scoring": [], "filters": ["\x00missing\x00"], "must_nots": [],
                        "msm": 0, "n_required": 1, "match_all": False}
            idf_sum = np.float32(0.0)
            for d in dfs:
                idf_sum = idf_sum + self.sim.idf(d, self.doc_count)
            scorer = self.sim.scorer_with_idf(query.phrase.boost, idf_sum,
                                              self.doc_count, self.sum_ttf)
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False,
                    "phrase": (tuple((t,) for t in terms), scorer, 0,
                               tuple(offsets))}
        if isinstance(query, PhraseQuery):
            # PhraseWeight: idf = SUM of the terms' idfs (idfExplain for
            # multiple termStats), float32 accumulation in term order
            dfs = [self.df(t) for t in query.terms]
            if any(d == 0 for d in dfs):
                return {"scoring": [], "filters": ["\x00missing\x00"], "must_nots": [],
                        "msm": 0, "n_required": 1, "match_all": False}
            idf_sum = np.float32(0.0)
            for d in dfs:
                idf_sum = idf_sum + self.sim.idf(d, self.doc_count)
            scorer = self.sim.scorer_with_idf(query.boost, idf_sum,
                                              self.doc_count, self.sum_ttf)
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False,
                    "phrase": (tuple((t,) for t in query.terms), scorer,
                               int(query.slop), None)}
        from .query import RangeQuery as _RQ
        from .query import BooleanClause as _BC

        if any(isinstance(c.query, _IODV) for c in query.clauses):
            query = BooleanQuery(tuple(
                _BC(c.query.rewrite() if isinstance(c.query, _IODV) else c.query,
                    c.occur) for c in query.clauses), query.minimum_should_match)
        if any(not isinstance(c.query, (TermQuery, _RQ)) for c in query.clauses) \
                or any(isinstance(c.query, _RQ) and c.occur in (SHOULD, MUST)
                       for c in query.clauses):
            # nested sub-queries (grouping parens, phrases/multiterm inside a
            # boolean): recursive dense evaluation path (BooleanWeight over
            # arbitrary sub-weights).  SHOULD/MUST ranges also route here:
            # Lucene's constant-score clauses CONTRIBUTE their boost to the
            # sum (ConstantScoreWeight), which the dense path implements;
            # only FILTER/MUST_NOT ranges stay on the flat fast path, where
            # scoreless-required is the correct semantics.
            return {"scoring": [], "filters": [], "must_nots": [], "msm": 0,
                    "n_required": 0, "match_all": False, "nested": query}
        scoring, filters, must_nots = [], [], []
        range_filters, range_must_nots = [], []
        n_required = 0
        for c in query.clauses:
            if isinstance(c.query, _RQ):
                # numeric range as a non-scoring clause (FILTER / MUST_NOT);
                # a MUST range behaves like FILTER (contributes no score,
                # like a constant-score-0 required clause)
                spec = (c.query.field, c.query.lo, c.query.hi)
                if c.occur == MUST_NOT:
                    range_must_nots.append(spec)
                else:
                    range_filters.append(spec)
                continue
            t = c.query.term
            if c.occur in (SHOULD, MUST):
                df = self.df(t)
                if df == 0 and c.occur == MUST:
                    return {"scoring": [], "filters": ["\x00missing\x00"], "must_nots": [],
                            "msm": 0, "n_required": 1, "match_all": False}
                if df > 0:
                    # PerFieldSimilarityWrapper: keyword-namespace terms
                    # resolve their field's similarity
                    sim = self.sim.for_key(t) \
                        if hasattr(self.sim, "for_key") else self.sim
                    scorer = sim.scorer(c.query.boost, self.doc_count,
                                        self.sum_ttf, df, ttf=self.ttf(t))
                    scoring.append((t, scorer, c.occur))
                    if c.occur == MUST:
                        n_required += 1
            elif c.occur == FILTER:
                filters.append(t)
                n_required += 1
            elif c.occur == MUST_NOT:
                must_nots.append(t)
        return {"scoring": scoring, "filters": filters, "must_nots": must_nots,
                "range_filters": range_filters, "range_must_nots": range_must_nots,
                "msm": int(query.minimum_should_match), "n_required": n_required,
                "match_all": False}

    # ---- search ----
    def search(self, query, k: int = 10, after=None,
               total_hits_threshold: int = TOTAL_HITS_THRESHOLD,
               sort=None, early_terminate: bool = False,
               timeout_ms: float | None = None) -> TopDocs:
        """`timeout_ms` is the IndexSearcher.setTimeout /
        TimeLimitingCollector model (`search/TimeLimitingCollector.java`,
        IndexSearcher.java `partialResult`): the budget is checked between
        per-shard (per-leaf) passes; on expiry the remaining shards are
        skipped and the PARTIAL result returns with ``timed_out=True`` and
        a GTE total — never an error."""
        if sort is not None:
            # after for sorted search is a (sort_value, gid) FieldDoc cursor
            return self._search_sorted(query, sort, k, after=after,
                                       early_terminate=early_terminate)
        if self.query_cache is not None:
            self.query_cache.begin_search()
        deadline = None
        if timeout_ms is not None:
            import time as _time

            deadline = _time.perf_counter() + timeout_ms / 1000.0
        compiled = self.compile(query)
        per_shard = []
        timed_out = False
        for pid in self._pids:
            if deadline is not None and per_shard:
                import time as _time

                if _time.perf_counter() >= deadline:
                    timed_out = True
                    break
            rdr = self.reader(pid)
            res = self.search_shard(rdr, compiled, k, after=_local_after(after, self._bases[pid]),
                                    total_hits_threshold=total_hits_threshold)
            per_shard.append((pid, rdr, res))
        td = self._merge(per_shard, k)
        if timed_out:
            td.timed_out = True
            td.relation = RELATION_GTE
        return td

    def search_shard(self, rdr, compiled, k, after=None,
                     total_hits_threshold: int = TOTAL_HITS_THRESHOLD):
        if compiled.get("match_all"):
            if rdr.deleted is not None:
                live = np.nonzero(~rdr.deleted)[0].astype(np.int32)
                return (np.ones(min(k, len(live)), np.float32), live[:k],
                        int(len(live)), RELATION_EQ)
            docs = np.arange(min(k, rdr.doc_count), dtype=np.int32)
            return np.ones(len(docs), np.float32), docs, rdr.doc_count, RELATION_EQ
        if compiled.get("knn") is not None:
            return self._knn_shard(rdr, compiled["knn"], after=after)
        if compiled.get("block_join") is not None:
            return self._block_join_shard(rdr, compiled["block_join"], k,
                                          after=after)
        if compiled.get("to_child") is not None:
            return self._to_child_shard(rdr, compiled["to_child"], k,
                                        after=after)
        if compiled.get("fnscore") is not None:
            return self._fnscore_shard(rdr, compiled["fnscore"], k, after=after)
        if compiled.get("function") is not None:
            from .valuesource import search_shard_function

            return search_shard_function(self, rdr, compiled["function"], k,
                                         after=after)
        if compiled.get("intervals_source") is not None:
            from .intervals import search_shard_intervals

            return search_shard_intervals(self, rdr,
                                          compiled["intervals_source"], k,
                                          after_=after)
        if compiled.get("combined") is not None:
            return self._combined_shard(rdr, compiled["combined"], k,
                                        after=after)
        if compiled.get("nested") is not None:
            from .scorer import search_shard_nested

            return search_shard_nested(rdr, compiled["nested"], self, k, after=after)
        if compiled.get("phrase"):
            slots, scorer, slop, offsets = compiled["phrase"]
            return search_shard_phrase(rdr, slots, slop, scorer, k,
                                       after=after, offsets=offsets)
        if compiled.get("complex_phrase") is not None:
            from .scorer import ConstFreqScorer

            cpq = compiled["complex_phrase"]
            slots = []
            for slot in cpq.slots:
                terms: list[str] = []
                for el in slot:
                    if isinstance(el, str):
                        terms.append(el)
                    else:
                        terms.extend(self._expand_shard(rdr, el))
                if not terms:       # an unexpandable slot kills the phrase
                    return (np.zeros(0, np.float32), np.zeros(0, np.int32),
                            0, RELATION_EQ)
                slots.append(tuple(sorted(set(terms))))
            return search_shard_phrase(rdr, slots, int(cpq.slop),
                                       ConstFreqScorer(cpq.boost), k,
                                       after=after)
        if compiled.get("interval") is not None:
            from .scorer import search_shard_interval

            terms, mw, ordered = compiled["interval"]
            return search_shard_interval(rdr, terms, mw, ordered,
                                         compiled["boost"], k, after=after)
        if compiled.get("posrange") is not None:
            from .scorer import search_shard_posrange

            term, p_lo, p_hi = compiled["posrange"]
            return search_shard_posrange(rdr, term, p_lo, p_hi,
                                         compiled["boost"], k, after=after)
        if compiled.get("spannot") is not None:
            from .scorer import search_shard_spannot

            inc, exc, pre_, post_ = compiled["spannot"]
            return search_shard_spannot(rdr, inc, exc, pre_, post_,
                                        compiled["boost"], k, after=after)
        if compiled.get("spans") is not None:
            from .spans import search_shard_spans

            return search_shard_spans(rdr, compiled["spans"], self,
                                      compiled["boost"], k, after=after)
        if compiled.get("payload_score") is not None:
            from .scorer import search_shard_payload_score

            pq, func, scorer, boost = compiled["payload_score"]
            return search_shard_payload_score(rdr, pq, func, scorer, boost,
                                              k, after=after)
        if compiled.get("payload_check") is not None:
            from .scorer import search_shard_payload_check

            terms, expected, pop, scorer = compiled["payload_check"]
            return search_shard_payload_check(rdr, terms, expected, pop,
                                              scorer, k, after=after)
        if compiled.get("range") is not None:
            from .scorer import search_shard_range

            return search_shard_range(rdr, compiled["range"], compiled["boost"],
                                      k, after=after)
        if compiled.get("points") is not None:
            from .scorer import search_shard_points

            return search_shard_points(rdr, compiled["points"],
                                       compiled["boost"], k, after=after)
        if compiled.get("feature") is not None:
            from .scorer import search_shard_feature

            fq, pivot = compiled["feature"]
            return search_shard_feature(rdr, fq, pivot, k, after=after)
        if compiled.get("long_dist_feature") is not None:
            from .scorer import search_shard_long_distance_feature

            return search_shard_long_distance_feature(
                rdr, compiled["long_dist_feature"], k, after=after)
        if compiled.get("geo_dist_feature") is not None:
            from .scorer import search_shard_geo_distance_feature

            return search_shard_geo_distance_feature(
                rdr, compiled["geo_dist_feature"], k, after=after)
        if compiled.get("covering") is not None:
            from .scorer import search_shard_covering

            return search_shard_covering(rdr, compiled["covering"], self, k,
                                         after=after)
        if compiled.get("automaton") is not None:
            from .scorer import search_shard_automaton

            taq, scorer = compiled["automaton"]
            return search_shard_automaton(rdr, taq, scorer, k, after=after)
        if compiled.get("dv_numbers") is not None:
            from .scorer import search_shard_dv_numbers

            return search_shard_dv_numbers(rdr, compiled["dv_numbers"], k,
                                           after=after)
        if compiled.get("mv_num_range") is not None:
            from .scorer import search_shard_sorted_numeric_range

            return search_shard_sorted_numeric_range(
                rdr, compiled["mv_num_range"], k, after=after)
        if compiled.get("mv_str_range") is not None:
            from .scorer import search_shard_sorted_set_range

            return search_shard_sorted_set_range(
                rdr, compiled["mv_str_range"], k, after=after)
        if compiled.get("dv_rewrite") is not None:
            from .scorer import search_shard_dv_rewrite

            return search_shard_dv_rewrite(
                rdr, compiled["dv_rewrite"], _expand_terms, k, after=after)
        if compiled.get("mv_num_set") is not None:
            from .scorer import search_shard_sorted_numeric_set

            return search_shard_sorted_numeric_set(
                rdr, compiled["mv_num_set"], k, after=after)
        if compiled.get("shape") is not None:
            from .scorer import search_shard_shape

            return search_shard_shape(rdr, compiled["shape"],
                                      compiled["boost"], k, after=after)
        if compiled.get("const_query") is not None:
            from .scorer import search_shard_const

            return search_shard_const(rdr, self._expand_shard(rdr, compiled["const_query"]),
                                      compiled["boost"], k, after=after)
        if compiled.get("expr_range") is not None:
            return self._expr_range_shard(rdr, compiled["expr_range"],
                                          compiled["boost"], k, after=after)
        if compiled.get("const_wrap") is not None:
            # ConstantScoreQuery: inner query's MATCH set, flat boost score
            _, docs, total, rel = self.search_shard(
                rdr, compiled["const_wrap"], rdr.doc_count,
                total_hits_threshold=2**31 - 1)
            docs = np.sort(docs)
            sc = np.full(len(docs), np.float32(compiled["boost"]), dtype=np.float32)
            if after is not None:
                a_s, a_d = np.float32(after[0]), after[1]
                keep = (sc < a_s) | ((sc == a_s) & (docs.astype(np.int64) > a_d))
                docs, sc = docs[keep], sc[keep]
            return sc[:k], docs[:k], total, rel
        if compiled.get("indri_and") is not None:
            from .scorer import search_shard_indri_and

            return search_shard_indri_and(rdr, compiled["indri_and"], k,
                                          after=after)
        if compiled.get("dismax") is not None:
            from .scorer import search_shard_dismax

            return search_shard_dismax(rdr, compiled["dismax"], compiled["tie"],
                                       k, after=after)
        if compiled.get("synonym") is not None:
            from .scorer import search_shard_synonym

            terms, scorer = compiled["synonym"]
            return search_shard_synonym(rdr, terms, scorer, k, after=after)
        if self._dense_disjunction(rdr, compiled) and after is None:
            # hot-disjunction tail: impact-ordered TAAT with the
            # MaxScoreBulkScorer essential/non-essential partition — skips
            # full decode of low-max hot terms once the k-th partial score
            # clears the remaining max mass; bit-identical to exhaustive
            # (clause-order pool rescore), GTE totals only when pruned
            from .scorer import search_shard_maxscore

            return search_shard_maxscore(rdr, compiled, k,
                                         threshold=total_hits_threshold)
        return search_shard_exhaustive(rdr, compiled, k, after=after)

    def _dense_disjunction(self, rdr, compiled) -> bool:
        """Pruning-route test: a pure-SHOULD disjunction of >= 2 terms
        (msm <= 1, no filters, exclusions or ranges) whose postings cover
        more than 15% of the shard.  Selective disjunctions stay on the
        exhaustive accumulator, whose few postings leave pruning nothing
        to skip; a single term gains nothing over one vectorized decode."""
        scoring = compiled["scoring"]
        if not (self.use_wand and len(scoring) >= 2
                and getattr(self.sim, "wand_safe", True)
                and compiled["msm"] <= 1
                and not compiled["filters"]
                and not compiled.get("range_filters")
                and not compiled.get("range_must_nots")
                and not compiled["must_nots"]
                and all(o == SHOULD for _, _, o in scoring)):
            return False
        local_df = 0
        for term, _, _ in scoring:
            tid = rdr.seek_exact(term)
            if tid >= 0:
                local_df += int(rdr._df[tid])
        return local_df > 0.15 * max(rdr.doc_count, 1)

    def _knn_shard(self, rdr, spec, after=None):
        """Per-shard k-NN (the per-leaf half of KnnFloatVectorQuery.rewrite):
        collects the shard's `spec.k` best vectors by cosine.  Scores stay
        float64 (documented divergence from the reference's float32 vector
        scores — keeps the exact path value-checkable against SQL to 4dp).

        Unfiltered: HNSW graph search with live docs as the accept mask
        (`HnswGraphSearcher` + acceptDocs), exact brute-force when the shard
        carries no graph.  Filtered: resolve the filter's doc set first, then
        EXACT cosine over that subset (the reference's exact fallback when
        the filter is selective enough that graph search would visit more
        nodes than brute force)."""
        q = spec["vec"]
        qnorm = float(np.linalg.norm(q)) or 1.0
        kk = spec["k"]
        deleted = rdr.deleted
        empty = (np.zeros(0, np.float64), np.zeros(0, np.int32), 0, RELATION_EQ)
        if rdr.vectors() is None:
            return empty
        if spec["filter"] is not None:
            _, docs, _, _ = self.search_shard(rdr, spec["filter"], rdr.doc_count,
                                              total_hits_threshold=2**31 - 1)
            docs = np.sort(docs).astype(np.int64)
            if deleted is not None and len(docs):
                docs = docs[~deleted[docs]]
            if len(docs) == 0:
                return empty
            sub = np.asarray(rdr.vectors()[docs], dtype=np.float64)
            sims = (sub @ q) / (rdr.vector_norms()[docs] * qnorm)
        else:
            accept = None if deleted is None else ~deleted
            g = rdr.hnsw()
            if g is not None:
                from ..index.hnsw import EF_SEARCH

                ef = spec["ef"] or max(EF_SEARCH, kk)
                docs, sims = g.search(q / qnorm, kk, ef=ef, accept=accept)
                docs = docs.astype(np.int64)
            else:
                docs = np.arange(rdr.doc_count, dtype=np.int64)
                if accept is not None:
                    docs = docs[accept]
                if len(docs) == 0:
                    return empty
                sub = np.asarray(rdr.vectors()[docs], dtype=np.float64)
                sims = (sub @ q) / (rdr.vector_norms()[docs] * qnorm)
        if spec["boost"] != 1.0:
            sims = sims * spec["boost"]
        order = np.lexsort((docs, -sims))
        docs, sims = docs[order], sims[order]
        if after is not None:
            a_s, a_d = float(after[0]), int(after[1])
            keep = (sims < a_s) | ((sims == a_s) & (docs > a_d))
            docs, sims = docs[keep], sims[keep]
        n = min(kk, len(docs))
        return sims[:n], docs[:n].astype(np.int32), n, RELATION_EQ

    _EXPR_CACHE: dict = {}

    def _fnscore_shard(self, rdr, spec, k, after=None):
        """FunctionScoreQuery per shard: collect the inner query's full
        match set, evaluate the compiled expression vectorized over
        (_score float64 of the float32 inner scores, doc-values columns),
        keep the shard's top-k.  Scores stay float64 so expression entries
        are SQL-value-checkable (same convention as kNN)."""
        inner, expr = spec
        ev = IndexSearcher._EXPR_CACHE.get(expr)
        if ev is None:
            from .expressions import compile_expression

            ev = IndexSearcher._EXPR_CACHE[expr] = compile_expression(expr)
        fn, names = ev
        empty = (np.zeros(0, np.float64), np.zeros(0, np.int32), 0, RELATION_EQ)
        scores, docs, total, rel = self.search_shard(
            rdr, inner, rdr.doc_count, total_hits_threshold=2**31 - 1)
        if len(docs) == 0:
            return empty
        env = {}
        for n in names:
            if n == "_score":
                env[n] = scores.astype(np.float64)
            elif ":" in n:
                env[n] = self._term_stat_value(rdr, n, docs)
            else:
                env[n] = rdr.docvalue(n)[docs].astype(np.float64)
        new = fn(env)
        if new.shape == ():                 # constant expression
            new = np.full(len(docs), float(new))
        if after is not None:
            a_s, a_d = float(after[0]), int(after[1])
            keep = (new < a_s) | ((new == a_s) & (docs.astype(np.int64) > a_d))
            new, docs = new[keep], docs[keep]
        top = np.lexsort((docs, -new))[:k]
        return new[top], docs[top], total, rel

    def _term_stat_value(self, rdr, key: str, docs: np.ndarray):
        """Term-statistic value sources for scoring expressions
        (`queries/function/valuesource/TermFreqValueSource.java`,
        DocFreqValueSource, TotalTermFreqValueSource, IDFValueSource,
        NormValueSource, MaxDocValueSource, NumDocsValueSource):
        ``tf('t')`` is per-doc (0 when the term is absent), ``df``/``ttf``
        are the GLOBAL collection statistics from the bucketed term-stats
        store, ``idf`` is ClassicSimilarity.idf(df, maxDoc) (the reference
        requires a TFIDFSimilarity there), ``norm()`` decodes the stored
        norm byte like TFIDFSimilarity (1/sqrt(length), 0 for empty)."""
        fn, _, term = key.partition(":")
        if fn == "tf":
            tid = rdr.seek_exact(term)
            if tid < 0:
                return np.zeros(len(docs), dtype=np.float64)
            pdocs, pfreqs = rdr.postings(tid)
            pos = np.clip(np.searchsorted(pdocs, docs), 0, len(pdocs) - 1)
            return np.where(pdocs[pos] == docs, pfreqs[pos], 0) \
                .astype(np.float64)
        if fn == "df":
            return np.float64(self.df(term))
        if fn == "ttf":
            return np.float64(self.ttf(term))
        if fn == "idf":
            maxdoc = sum(self.reader(p).doc_count for p in self._pids)
            return np.float64(np.float32(
                np.log((maxdoc + 1) / (self.df(term) + 1.0)) + 1.0))
        if fn == "norm":
            from ..util.smallfloat import byte4_to_int

            lens = byte4_to_int(rdr.norms[docs]).astype(np.float64)
            with np.errstate(divide="ignore"):
                return np.where(lens > 0, 1.0 / np.sqrt(lens), 0.0)
        if fn == "maxdoc":
            return np.float64(sum(self.reader(p).doc_count
                                  for p in self._pids))
        if fn == "numdocs":
            live = 0
            for p in self._pids:
                r = self.reader(p)
                live += r.doc_count - (0 if r.deleted is None
                                       else int(r.deleted.sum()))
            return np.float64(live)
        raise ValueError(f"unknown term-statistic function {fn!r}")

    def _expr_range_shard(self, rdr, spec, boost, k, after=None):
        """FunctionRangeQuery per shard (ValueSourceScorer model): evaluate
        the doc-values expression over every doc (through any dv-update
        overlays), keep values inside the range, constant score."""
        expr, lo, hi, il, iu = spec
        ev = IndexSearcher._EXPR_CACHE.get(expr)
        if ev is None:
            from .expressions import compile_expression

            ev = IndexSearcher._EXPR_CACHE[expr] = compile_expression(expr)
        fn, names = ev
        env = {n: rdr.docvalue(n).astype(np.float64) for n in names}
        vals = fn(env)
        n = rdr.doc_count
        if vals.shape == ():                    # constant expression
            vals = np.full(n, float(vals))
        mask = np.ones(n, dtype=bool)
        if lo is not None:
            mask &= (vals >= lo) if il else (vals > lo)
        if hi is not None:
            mask &= (vals <= hi) if iu else (vals < hi)
        if rdr.deleted is not None:
            mask &= ~rdr.deleted
        cand = np.nonzero(mask)[0].astype(np.int32)
        sc = np.full(len(cand), np.float32(boost), dtype=np.float32)
        total = int(len(cand))
        if after is not None:
            a_s, a_d = np.float32(after[0]), after[1]
            keep = (sc < a_s) | ((sc == a_s) & (cand.astype(np.int64) > a_d))
            cand, sc = cand[keep], sc[keep]
        return sc[:k], cand[:k], total, RELATION_EQ

    def _block_join_shard(self, rdr, spec, k, after=None):
        """Per-shard child→parent join: conversations never span shards
        (conv_id range partitioning), so matching child turns group by
        conv_id with one segmented reduction.  Parent rep doc = first
        matching child (global docID order == conv order), so the standard
        (score desc, gid asc) merge gives parent-docID tie-break like
        ToParentBlockJoinQuery.  total = number of matching parents."""
        inner, mode = spec
        empty = (np.zeros(0, np.float32), np.zeros(0, np.int32), 0, RELATION_EQ)
        scores, docs, _, _ = self.search_shard(rdr, inner, rdr.doc_count,
                                               total_hits_threshold=2**31 - 1)
        if len(docs) == 0:
            return empty
        order = np.argsort(docs)
        docs, scores = docs[order], scores[order].astype(np.float64)
        conv = getattr(rdr, "_conv_np", None)
        if conv is None:
            conv = rdr._conv_np = rdr.docmap().column("conv_id") \
                .to_numpy(zero_copy_only=False)
        cids = conv[docs]
        # docs ascend and global order is (conv_id, turn_idx): convs form runs
        run_start = np.ones(len(docs), dtype=bool)
        run_start[1:] = cids[1:] != cids[:-1]
        starts = np.nonzero(run_start)[0]
        bounds = np.concatenate((starts, [len(docs)]))
        counts = np.diff(bounds)
        if mode == "max":
            pscore = np.maximum.reduceat(scores, starts)
        elif mode == "total":
            pscore = np.add.reduceat(scores, starts)
        else:                                            # avg
            pscore = np.add.reduceat(scores, starts) / counts
        rep = docs[starts]                               # first matching child
        total = len(starts)
        pscore32 = pscore.astype(np.float32)
        if after is not None:
            a_s, a_d = np.float32(after[0]), int(after[1])
            keep = (pscore32 < a_s) | ((pscore32 == a_s)
                                       & (rep.astype(np.int64) > a_d))
            pscore32, rep = pscore32[keep], rep[keep]
        top = np.lexsort((rep, -pscore32))[:k]
        return pscore32[top], rep[top].astype(np.int32), total, RELATION_EQ

    def _to_child_shard(self, rdr, spec, k, after=None):
        """Per-shard parent→child join (ToChildBlockJoinQuery): join the
        parent side ToParent-style (matching conversations + combined
        scores), then emit EVERY live turn of each matching conversation
        carrying its parent score (parentScore propagation).  Child docID
        ascending == (conv, turn) order, so the standard merge applies."""
        empty = (np.zeros(0, np.float32), np.zeros(0, np.int32), 0, RELATION_EQ)
        pscores, preps, n_parents, _ = self._block_join_shard(
            rdr, spec, rdr.doc_count)
        if n_parents == 0:
            return empty
        conv = getattr(rdr, "_conv_np", None)
        if conv is None:
            conv = rdr._conv_np = rdr.docmap().column("conv_id") \
                .to_numpy(zero_copy_only=False)
        # matched conv ids ascend (parent rep docs ascend in conv order)
        order = np.argsort(preps)
        mcids = conv[preps[order]]
        mscores = pscores[order]
        pos = np.searchsorted(mcids, conv)
        pos_c = np.minimum(pos, len(mcids) - 1)
        is_child = mcids[pos_c] == conv
        if rdr.deleted is not None:
            is_child &= ~rdr.deleted
        docs = np.nonzero(is_child)[0].astype(np.int32)
        sc = mscores[pos_c[is_child]].astype(np.float32)
        total = int(len(docs))
        if after is not None:
            a_s, a_d = np.float32(after[0]), int(after[1])
            keep = (sc < a_s) | ((sc == a_s) & (docs.astype(np.int64) > a_d))
            sc, docs = sc[keep], docs[keep]
        top = np.lexsort((docs, -sc))[:k]
        return sc[top], docs[top], total, RELATION_EQ

    def _search_sorted(self, query, sort, k: int, after=None,
                       early_terminate: bool = False) -> TopDocs:
        """Field-sorted top-k (TopFieldCollector + TopDocs.merge semantics,
        `search/TopFieldCollector.java:39`): per shard, collect the full
        match set, order by the doc-values column (desc when sort.reverse)
        with local-docID-asc tie-break, keep k; merge shards by (value,
        global docID asc).  Scores are not computed (Lucene's sorted
        collector with needsScores=false); hit.score carries the sort value
        as float and hit.fields the exact int.

        ``early_terminate`` (SortField-only) is the scale path: once k hits
        are collected, shards whose manifest doc-values range cannot beat
        the current k-th value are SKIPPED ENTIRELY — the analogue of
        TopFieldCollector's early termination under an index sort — and the
        reported total becomes a lower bound (GTE relation), exactly the
        reference's totalHits semantics under early termination."""
        from .geo import GeoDistanceSort
        from .query import (
            ExpressionSort,
            FeatureSortField,
            SortField,
            SortedNumericSortField,
            SortedSetSortField,
        )

        if isinstance(sort, (list, tuple)):
            if len(sort) == 1:
                sort = sort[0]
            else:
                return self._search_sorted_multi(query, list(sort), k,
                                                 after=after)
        if isinstance(sort, SortedSetSortField):
            return self._search_sorted_set(query, sort, k, after=after)
        if self.query_cache is not None:
            self.query_cache.begin_search()
        is_float = isinstance(sort, (GeoDistanceSort, ExpressionSort,
                                     FeatureSortField))
        compiled = self.compile(query)
        vals_all, gids_all = [], []
        total = 0
        relation = RELATION_EQ
        can_prune = early_terminate and isinstance(sort, SortField) \
            and after is None
        n_collected = 0
        kth = None                   # worst value currently in the global top k
        for pid in self._pids:
            rdr = self.reader(pid)
            if can_prune and n_collected >= k and kth is not None:
                r = rdr.docvalue_range(sort.field)
                if r is not None and ((sort.reverse and r[1] < kth)
                                      or (not sort.reverse and r[0] > kth)):
                    relation = RELATION_GTE          # skipped: total is a floor
                    continue
            _, docs, t, _ = self.search_shard(rdr, compiled, rdr.doc_count,
                                              total_hits_threshold=2**31 - 1)
            total += t
            if len(docs) == 0:
                continue
            if isinstance(sort, GeoDistanceSort):
                dv = self._distances(rdr, sort, docs)
            elif isinstance(sort, ExpressionSort):
                dv = self._expr_sort_values(rdr, sort, docs)
            elif isinstance(sort, SortedNumericSortField):
                dv = rdr.selected_numeric(sort.field, sort.selector,
                                          sort.missing)[docs]
            elif isinstance(sort, FeatureSortField):
                from .feature import decode_feature_value

                # comparator parses the feature value, missing -> 0.0
                # (FeatureSortField.java FeatureComparator)
                enc = rdr.docvalue(sort.field)[docs]
                dv = np.where(enc > 0,
                              decode_feature_value(enc.astype(np.float64)),
                              0.0)
            else:
                dv = rdr.docvalue(sort.field)[docs]
            gid64 = docs.astype(np.int64) + self._bases[pid]
            if after is not None:
                # FieldDoc paging: strictly after the (sort value, gid) cursor
                a_v = float(after[0]) if is_float else int(after[0])
                a_g = int(after[1])
                if sort.reverse:
                    keep = (dv < a_v) | ((dv == a_v) & (gid64 > a_g))
                else:
                    keep = (dv > a_v) | ((dv == a_v) & (gid64 > a_g))
                docs, dv, gid64 = docs[keep], dv[keep], gid64[keep]
                if len(docs) == 0:
                    continue
            key = -dv if sort.reverse else dv
            order = np.lexsort((docs, key))[:k]
            vals_all.append(dv[order])
            gids_all.append(gid64[order])
            if can_prune:
                n_collected += len(order)
                pool = np.concatenate(vals_all)
                top = np.sort(-pool if sort.reverse else pool)[:k]
                if len(top) >= k:
                    kth = int(-top[k - 1]) if sort.reverse else int(top[k - 1])
        if not vals_all:
            return TopDocs([], total, relation)
        vals = np.concatenate(vals_all)
        gids = np.concatenate(gids_all)
        key = -vals if sort.reverse else vals
        order = np.lexsort((gids, key))[:k]
        hits = []
        for i in order:
            gid = int(gids[i])
            pid = self._pid_of(gid)
            rdr = self.reader(pid)
            row = rdr.lookup_docs(np.array([gid - self._bases[pid]]))
            fv = float(vals[i]) if is_float else int(vals[i])
            hits.append(ScoreDoc(float(vals[i]), gid,
                                 row.column("conv_id")[0].as_py(),
                                 int(row.column("turn_idx")[0].as_py()),
                                 fields=(fv,)))
        return TopDocs(hits, total, relation)

    @staticmethod
    def _set_cursor_keep(sel, gid64, vocab, a_v, a_g: int, reverse: bool):
        """searchAfter predicate for SortedSetSortField: docs strictly after
        the (string-or-None, gid) cursor in sort order.  The cursor string
        is resolved into THIS shard's ord space by binary search (missing =
        below every ord ascending / after every ord descending)."""
        if a_v is None:
            # cursor doc had no value: asc -> every valued doc and later
            # missing docs remain; desc -> only later missing docs remain
            if reverse:
                return (sel < 0) & (gid64 > a_g)
            return (sel >= 0) | (gid64 > a_g)
        p = int(np.searchsorted(vocab, a_v))
        exact = p < len(vocab) and vocab[p] == a_v
        if reverse:
            # desc: smaller strings follow; missing (-1 < p) sorts last
            if exact:
                return (sel < p) | ((sel == p) & (gid64 > a_g))
            return sel < p
        if exact:
            return (sel > p) | ((sel == p) & (gid64 > a_g))
        return sel >= p

    def _search_sorted_set(self, query, sort, k: int, after=None) -> TopDocs:
        """Top-k sorted by a SortedSetSortField (`search/SortedSetSortField`
        + TermOrdValComparator semantics): per shard, select each matching
        doc's ord through the selector (missing = -1, sorting first
        ascending / last descending), keep the shard top-k by (ord, docID),
        then merge ACROSS shards on the selected STRINGS (shard ords are not
        comparable between segments — exactly why the reference comparator
        re-resolves ords per leaf).  ``after`` is a (string-or-None, gid)
        FieldDoc cursor resolved into each shard's ord space by binary
        search on the shard vocab."""
        if self.query_cache is not None:
            self.query_cache.begin_search()
        compiled = self.compile(query)
        cands: list[tuple] = []       # (string_or_None, gid)
        total = 0
        for pid in self._pids:
            rdr = self.reader(pid)
            _s, docs, t, _r = self.search_shard(
                rdr, compiled, rdr.doc_count, total_hits_threshold=2**31 - 1)
            total += t
            if not len(docs):
                continue
            sel = rdr.selected_ord(sort.field, sort.selector)[docs]
            _offs, _ords, vocab = rdr.sorted_set_docvalue(sort.field)
            gid64 = docs.astype(np.int64) + self._bases[pid]
            if after is not None:
                a_v, a_g = after
                keep = self._set_cursor_keep(sel, gid64, vocab, a_v,
                                             int(a_g), sort.reverse)
                docs, sel, gid64 = docs[keep], sel[keep], gid64[keep]
                if not len(docs):
                    continue
            # shard-local key: asc = ord with missing(-1) first; desc = -ord
            # with missing pushed past every real ord (missing LAST desc)
            key = np.where(sel < 0, np.int64(len(vocab)), -sel) \
                if sort.reverse else sel
            order = np.lexsort((docs, key))[:k]
            for i in order:
                o = int(sel[i])
                cands.append((str(vocab[o]) if o >= 0 else None,
                              int(gid64[i])))
        if not cands:
            return TopDocs([], total, RELATION_EQ)
        if sort.reverse:
            # string desc with missing last, gid asc ties: two stable passes
            cands.sort(key=lambda vg: vg[1])
            cands.sort(key=lambda vg: vg[0] or "", reverse=True)
            cands.sort(key=lambda vg: vg[0] is None)
        else:
            cands.sort(key=lambda vg: (vg[0] is not None, vg[0] or "", vg[1]))
        cands = cands[:k]
        from .grouping import _resolve_scoredocs

        hits = _resolve_scoredocs(self, [(0.0, g) for _v, g in cands])
        for h, (v, _g) in zip(hits, cands):
            h.fields = (v,)
        return TopDocs(hits, total, RELATION_EQ)

    def _search_sorted_multi(self, query, sorts, k: int,
                             after=None) -> TopDocs:
        """Multi-field Sort (`search/Sort.java` over SortField[]):
        lexicographic compare across the doc-values chain (each field with
        its own reverse flag), global docID ascending as the final tie —
        TopFieldCollector semantics extended to an N-key comparator.
        ``after`` is a FieldDoc cursor of (values tuple, gid)."""
        from .query import SortField, SortedNumericSortField

        if not all(isinstance(s, (SortField, SortedNumericSortField))
                   for s in sorts):
            raise TypeError("multi-sort supports SortField chains")
        if self.query_cache is not None:
            self.query_cache.begin_search()
        compiled = self.compile(query)
        vals_all: list[list[np.ndarray]] = []
        gids_all = []
        total = 0
        for pid in self._pids:
            rdr = self.reader(pid)
            _s, docs, t, _r = self.search_shard(
                rdr, compiled, rdr.doc_count, total_hits_threshold=2**31 - 1)
            total += t
            if not len(docs):
                continue
            dvs = [rdr.selected_numeric(s.field, s.selector, s.missing)[docs]
                   if isinstance(s, SortedNumericSortField)
                   else rdr.docvalue(s.field)[docs] for s in sorts]
            gid64 = docs.astype(np.int64) + self._bases[pid]
            if after is not None:
                a_vals, a_gid = after
                gt = np.zeros(len(docs), dtype=bool)
                eq = np.ones(len(docs), dtype=bool)
                for s, dv, av in zip(sorts, dvs, a_vals):
                    av = int(av)
                    strict = (dv < av) if s.reverse else (dv > av)
                    gt |= eq & strict
                    eq &= dv == av
                keep = gt | (eq & (gid64 > int(a_gid)))
                if not keep.any():
                    continue
                docs = docs[keep]
                dvs = [dv[keep] for dv in dvs]
                gid64 = gid64[keep]
            keys = [(-dv if s.reverse else dv)
                    for s, dv in zip(sorts, dvs)]
            order = np.lexsort((docs, *reversed(keys)))[:k]
            vals_all.append([dv[order] for dv in dvs])
            gids_all.append(gid64[order])
        if not gids_all:
            return TopDocs([], total, RELATION_EQ)
        merged = [np.concatenate([v[i] for v in vals_all])
                  for i in range(len(sorts))]
        gids = np.concatenate(gids_all)
        keys = [(-mv if s.reverse else mv)
                for s, mv in zip(sorts, merged)]
        order = np.lexsort((gids, *reversed(keys)))[:k]
        pairs = [(float(merged[0][i]), int(gids[i])) for i in order]
        from .grouping import _resolve_scoredocs

        hits = _resolve_scoredocs(self, pairs)
        for j, i in enumerate(order):
            hits[j].fields = tuple(int(mv[i]) for mv in merged)
        return TopDocs(hits, total, RELATION_EQ)

    def search_large(self, query, k: int) -> TopDocs:
        """LargeNumHitsTopDocsCollector
        (`sandbox/search/LargeNumHitsTopDocsCollector.java`): top-k when k
        is a large fraction of the corpus — COMPLETE score mode (no WAND /
        minCompetitiveScore pruning, exact totalHits), the reference's
        list-then-heap accumulation replaced by the vectorized
        score-all + argpartition per shard.  Hit order identical to
        ordinary search (score desc, docID asc)."""
        if k <= 0:
            raise ValueError("Incorrect number of hits requested")
        return self.search(query, k=k, total_hits_threshold=2**31 - 1)

    def nearest(self, field: str, lat: float, lon: float, k: int) -> TopDocs:
        """k nearest docs carrying a point in ``field``, by haversine meters
        (`document/LatLonPoint.nearest` / FloatPointNearestNeighbor
        surface): match-all + distance sort, docs without a point dropped
        (they sort to +Inf)."""
        from .geo import GeoDistanceSort
        from .query import MatchAllDocsQuery

        td = self._search_sorted(MatchAllDocsQuery(),
                                 GeoDistanceSort(field, lat, lon), k)
        hits = [h for h in td.hits if h.fields[0] != float("inf")]
        return TopDocs(hits, len(hits), RELATION_EQ)

    @staticmethod
    def _expr_sort_values(rdr, sort, docs):
        """Evaluate the sort expression vectorized over the matching docs'
        doc-values columns (ExpressionSortField comparator)."""
        ev = IndexSearcher._EXPR_CACHE.get(sort.expression)
        if ev is None:
            from .expressions import compile_expression

            ev = IndexSearcher._EXPR_CACHE[sort.expression] = \
                compile_expression(sort.expression)
        fn, names = ev
        if "_score" in names:
            raise ValueError("_score is not available in a sort expression "
                             "(sorted collection is scoreless)")
        env = {n: rdr.docvalue(n)[docs].astype(np.float64) for n in names}
        vals = fn(env)
        if vals.shape == ():
            vals = np.full(len(docs), float(vals))
        return vals

    @staticmethod
    def _distances(rdr, sort, docs):
        """Haversine meters from the sort origin for each candidate doc,
        read off the point sidecar (LatLonDocValuesField.newDistanceSort
        comparator); docs without a point get +Inf (missing-last)."""
        from .geo import decode_latitude, decode_longitude, haversine_meters

        pr = rdr.points(sort.field)
        if pr is None:
            return np.full(len(docs), np.inf)
        pts = pr.doc_values(docs.astype(np.int64))
        missing = pts[:, 0] == np.iinfo(np.int64).min
        safe = np.where(missing[:, None], 0, pts)
        d = haversine_meters(decode_latitude(safe[:, 0]),
                             decode_longitude(safe[:, 1]),
                             sort.lat, sort.lon)
        d[missing] = np.inf
        return d

    def _merge(self, per_shard, k) -> TopDocs:
        all_scores, all_gids, owners = [], [], []
        total = 0
        relation = RELATION_EQ
        for pid, rdr, (scores, local_docs, t, rel) in per_shard:
            base = self._bases[pid]
            all_scores.append(scores)
            all_gids.append(local_docs.astype(np.int64) + base)
            owners.append((pid, rdr, local_docs))
            total += t
            if rel == RELATION_GTE:
                relation = RELATION_GTE
        scores = np.concatenate(all_scores) if all_scores else np.zeros(0, np.float32)
        gids = np.concatenate(all_gids) if all_gids else np.zeros(0, np.int64)
        order = np.lexsort((gids, -scores))[:k]
        # resolve (conv_id, turn_idx) for final hits only — one batched
        # docmap take per owning shard, not a row fetch per hit
        top_gids = gids[order]
        pids_of = np.array([self._pid_of(int(g)) for g in top_gids],
                           dtype=np.int64)
        fields: dict[int, tuple] = {}
        for pid in np.unique(pids_of):
            sel = np.nonzero(pids_of == pid)[0]
            rdr = self.reader(int(pid))
            rows = rdr.lookup_docs(top_gids[sel] - self._bases[int(pid)])
            convs = rows.column("conv_id").to_pylist()
            turns = rows.column("turn_idx").to_pylist()
            for j, i in enumerate(sel):
                fields[int(i)] = (convs[j], int(turns[j]))
        hits = [ScoreDoc(float(scores[i]), int(top_gids[j]),
                         fields[j][0], fields[j][1])
                for j, i in enumerate(order)]
        return TopDocs(hits, total, relation)

    def _pid_of(self, gid: int) -> int:
        # doc bases are sorted by pid
        pids = self._pids
        bases = [self._bases[p] for p in pids]
        i = int(np.searchsorted(bases, gid, side="right")) - 1
        return pids[i]

    def explain(self, query, gid: int) -> dict:
        """Score explanation for one document (Explanation tree equivalent,
        `search/Weight.explain` / `BM25Similarity.explain`): per scoring
        clause the (df, idf, freq, norm byte, decoded dl, weight, score)
        factors; the clause scores sum (float32, clause order) to the same
        score `search` produces."""
        from ..util.smallfloat import LENGTH_TABLE

        compiled = self.compile(query)
        pid = self._pid_of(gid)
        rdr = self.reader(pid)
        local = gid - self._bases[pid]
        details = []
        total = np.float32(0.0)
        matched = False
        for term, scorer, occur in compiled.get("scoring", []):
            tid = rdr.seek_exact(term)
            entry = {"term": term, "occur": occur, "df": self.df(term),
                     "doc_count": self.doc_count,
                     "idf": float(self.sim.idf(self.df(term), self.doc_count)),
                     "weight": float(scorer.weight), "match": False}
            if tid >= 0:
                docs, freqs = rdr.postings(tid)
                i = int(np.searchsorted(docs, local))
                if i < len(docs) and docs[i] == local:
                    nb = int(rdr.norms[local])
                    sc = scorer.score(freqs[i:i + 1], rdr.norms[local:local + 1])[0]
                    entry.update(match=True, freq=int(freqs[i]), norm_byte=nb,
                                 dl=float(LENGTH_TABLE[nb]),
                                 avgdl=float(self.sim.avg_field_length(self.sum_ttf, self.doc_count)),
                                 score=float(sc))
                    total = total + np.float32(sc)
                    matched = True
            details.append(entry)
        return {"gid": gid, "value": float(total) if matched else 0.0,
                "match": matched, "details": details,
                "description": "sum of clause scores (BM25, k1=%.1f b=%.2f)"
                               % (self.sim.k1, self.sim.b)}

    def facet_sorted_set(self, query, field: str, top_n: int = 10):
        """SortedSetDocValuesFacetCounts
        (`facet/sortedset/SortedSetDocValuesFacetCounts.java`): per-value
        doc counts of a multi-valued string dv field over the query's match
        set.  Per shard: gather the matching docs' ord runs, one bincount
        over the shard vocab; merge across shards BY STRING (shard ords are
        segment-local, exactly why the reference counts against the
        global-ord map).  Returns (list[(label, count)] count-desc /
        label-asc like getTopChildren, dim_count = docs with >= 1 value)."""
        from ..index.bp import _gather_ranges

        if self.query_cache is not None:
            self.query_cache.begin_search()
        compiled = self.compile(query)
        agg: dict[str, int] = {}
        dim_count = 0
        for pid in self._pids:
            rdr = self.reader(pid)
            _s, docs, _t, _r = self.search_shard(
                rdr, compiled, rdr.doc_count, total_hits_threshold=2**31 - 1)
            if not len(docs):
                continue
            offsets, ords, vocab = rdr.sorted_set_docvalue(field)
            docs64 = docs.astype(np.int64)
            dim_count += int(((offsets[docs64 + 1] - offsets[docs64]) > 0).sum())
            sel = ords[_gather_ranges(offsets, docs64)]
            bc = np.bincount(sel, minlength=len(vocab)) if len(sel) \
                else np.zeros(len(vocab), np.int64)
            for o in np.nonzero(bc)[0]:
                lbl = str(vocab[o])
                agg[lbl] = agg.get(lbl, 0) + int(bc[o])
        top = sorted(agg.items(), key=lambda kv: (-kv[1], kv[0]))[:top_n]
        return top, dim_count

    def count(self, query) -> int:
        """IndexSearcher.count equivalent (`search/IndexSearcher.java:428`)."""
        if self.query_cache is not None:
            self.query_cache.begin_search()
        compiled = self.compile(query, needs_scores=False)
        total = 0
        for pid in self._pids:
            rdr = self.reader(pid)
            if compiled.get("match_all"):
                total += rdr.doc_count - int(rdr.deleted.sum() if rdr.deleted is not None else 0)
                continue
            _, _, t, _ = self.search_shard(rdr, compiled, 1,
                                           total_hits_threshold=2**31 - 1)
            total += t
        return total


def _boosted(q, b: float):
    """Push a BoostQuery's multiplier into the wrapped query's boosts."""
    import dataclasses

    from .query import (
        BooleanClause,
        BooleanQuery,
        BoostQuery,
        ConstantScoreQuery,
        FuzzyQuery,
        PhraseQuery,
        PrefixQuery,
        RegexpQuery,
        TermQuery,
        WildcardQuery,
    )

    if isinstance(q, BoostQuery):
        return _boosted(q.query, b * q.boost)
    if isinstance(q, (TermQuery, PhraseQuery, PrefixQuery, WildcardQuery,
                      RegexpQuery, FuzzyQuery, ConstantScoreQuery)):
        return dataclasses.replace(q, boost=q.boost * b)
    if isinstance(q, BooleanQuery):
        return BooleanQuery(tuple(
            BooleanClause(_boosted(c.query, b), c.occur) for c in q.clauses),
            q.minimum_should_match)
    raise TypeError(f"cannot boost {type(q)}")


def _edit_distance(a: str, b: str, transpositions: bool = False) -> int:
    """Exact edit distance (candidates are pre-filtered to <= 2 edits
    by the dictionary scan, so the full DP stays tiny).  With
    ``transpositions`` an adjacent swap counts as one edit (the
    LuceneLevenshteinDistance / FuzzyTermsEnum contract)."""
    la, lb = len(a), len(b)
    prev2: list[int] | None = None
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i]
        ai = a[i - 1]
        for j in range(1, lb + 1):
            c = min(prev[j] + 1, cur[j - 1] + 1,
                    prev[j - 1] + (ai != b[j - 1]))
            if (transpositions and prev2 is not None and i > 1 and j > 1
                    and ai == b[j - 2] and a[i - 2] == b[j - 1]):
                c = min(c, prev2[j - 2] + 1)
            cur.append(c)
        prev2, prev = prev, cur
    return prev[lb]


def _expand_terms(terms: np.ndarray, query, term_codes=None) -> list[str]:
    """MultiTermQuery intersection with ONE sorted term array — the
    CompiledAutomaton-vs-TermsEnum core shared by the postings dictionary
    (`_expand_shard_uncached`) and DocValuesRewriteMethod's per-shard
    SortedSet dv vocab (`search/DocValuesRewriteMethod.java` visits the dv
    TermsEnum with the same automaton).  ``term_codes`` returns the
    array's cached `TermCodes` for fuzzy expansion; without it the array
    is encoded on the fly."""
    import re as _re

    from .query import (
        FuzzyQuery,
        PrefixQuery,
        RegexpQuery,
        TermInSetQuery,
        TermRangeQuery,
        WildcardQuery,
    )

    if isinstance(query, TermRangeQuery):
        lo_i = 0
        if query.lower is not None:
            lo_i = int(np.searchsorted(
                terms, query.lower,
                side="left" if query.include_lower else "right"))
        hi_i = len(terms)
        if query.upper is not None:
            hi_i = int(np.searchsorted(
                terms, query.upper,
                side="right" if query.include_upper else "left"))
        return terms[lo_i:hi_i].tolist()
    if isinstance(query, TermInSetQuery):
        want = np.asarray(sorted(set(query.terms)), dtype=terms.dtype)
        return want[np.isin(want, terms)].tolist()
    if isinstance(query, PrefixQuery):
        lo, hi = _prefix_range(terms, query.prefix)
        return terms[lo:hi].tolist()
    if isinstance(query, WildcardQuery):
        from ..util.regexp import wildcard_to_pattern

        # `\x` escapes per WildcardQuery.toAutomaton; literal-prefix range
        # narrowing before the regex scan
        pat_s, pre = wildcard_to_pattern(query.pattern)
        pat = _re.compile(pat_s, _re.DOTALL)
        lo, hi = _prefix_range(terms, pre) if pre else (0, len(terms))
        return [t for t in terms[lo:hi] if pat.fullmatch(t)]
    if isinstance(query, RegexpQuery):
        # Lucene RegExp dialect, not java/python regex (`util/automaton/
        # RegExp.java` — intersection &, intervals <n-m>, @, #); the literal
        # prefix narrows the dictionary scan like CompiledAutomaton's
        # common prefix
        from ..util.regexp import LuceneRegExp

        rx = LuceneRegExp(query.regexp, query.flags)
        pre = rx.literal_prefix()
        lo, hi = _prefix_range(terms, pre) if pre else (0, len(terms))
        return [t for t in terms[lo:hi] if rx.fullmatch(t)]
    if isinstance(query, FuzzyQuery):
        base = query.term
        pre = base[:query.prefix_length]
        trans = getattr(query, "transpositions", False)
        lo, hi = _prefix_range(terms, pre) if pre else (0, len(terms))
        if len(base) <= MAX_PATTERN:
            codes = term_codes() if term_codes else TermCodes(terms)
            rows = codes.within(base, query.max_edits, trans, lo, hi)
            return terms[rows].tolist()
        # too long for one 64-bit word: per-term banded scan
        return [t for t in terms[lo:hi]
                if abs(len(t) - len(base)) <= query.max_edits
                and _levenshtein_leq(t, base, query.max_edits, trans)]
    raise TypeError(type(query))


def _levenshtein_leq(a: str, b: str, k: int,
                     transpositions: bool = False) -> bool:
    """Banded edit distance <= k, one term pair at a time: the fuzzy scan
    for query terms too long for `util/levenshtein.TermCodes`, and the
    oracle that kernel is tested against.  With ``transpositions`` an
    adjacent swap counts as ONE edit (the automata's
    withTranspositions=true / FuzzyQuery default)."""
    la, lb = len(a), len(b)
    if abs(la - lb) > k:
        return False
    prev2: list[int] | None = None
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i]
        best = i
        ai = a[i - 1]
        for j in range(1, lb + 1):
            c = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ai != b[j - 1]))
            if (transpositions and prev2 is not None and i > 1 and j > 1
                    and ai == b[j - 2] and a[i - 2] == b[j - 1]):
                c = min(c, prev2[j - 2] + 1)
            cur.append(c)
            if c < best:
                best = c
        if best > k:
            return False
        prev2, prev = prev, cur
    return prev[lb] <= k


def _clause(q, occur):
    from .query import BooleanClause

    return BooleanClause(q, occur)


def _prefix_range(sorted_terms: np.ndarray, prefix: str) -> tuple[int, int]:
    """Exact [lo, hi) range of terms starting with `prefix` in a sorted term
    array.  Uses the successor string (increment the last non-max code point)
    as the exclusive upper bound — unlike prefix+'\\uffff', this includes
    terms whose next code point is supplementary (> U+FFFF), matching the
    reference's byte-wise term ranges."""
    lo = int(np.searchsorted(sorted_terms, prefix))
    s = prefix
    while s and ord(s[-1]) == 0x10FFFF:
        s = s[:-1]
    if not s:
        return lo, len(sorted_terms)
    upper = s[:-1] + chr(ord(s[-1]) + 1)
    hi = int(np.searchsorted(sorted_terms, upper))
    return lo, hi


def _local_after(after, base):
    if after is None:
        return None
    return (after[0], after[1] - base)


def suggest(searcher: "IndexSearcher", prefix: str, k: int = 10) -> list[tuple[str, int]]:
    """Prefix suggester over the term dictionaries weighted by total term
    frequency (the `suggest` module's analyzing-prefix surface).  Scans each
    shard's sorted dictionary range and sums per-shard ttf — global ttf
    equals the sum, and the driver never loads the full stats table.
    Returns [(term, ttf)] by weight desc, term asc."""
    ttfs: dict[str, int] = {}
    for pid in searcher._pids:
        rdr = searcher.reader(pid)
        lo, hi = _prefix_range(rdr._term_np, prefix)
        for t, ttf in zip(rdr._term_np[lo:hi], rdr._ttf[lo:hi]):
            ttfs[t] = ttfs.get(t, 0) + int(ttf)
    ranked = sorted(ttfs.items(), key=lambda x: (-x[1], x[0]))
    return ranked[:k]


def diversified_search(searcher: "IndexSearcher", query, k: int = 10,
                       max_per_key: int = 1) -> TopDocs:
    """Diversified top-k (`misc/src/java/org/apache/lucene/misc/search/
    DiversifiedTopDocsCollector.java:1-200`): global score order, but at
    most `max_per_key` hits per key (here the conversation) — equivalent to
    per-key top-m then global top-k.  Greedy selection over the globally
    ordered hit stream is exact because ties break (score desc, gid asc)
    deterministically.

    Scale note: conversations are co-located in one shard by the build's
    conv_id partitioning, so the distributed form applies the cap per shard
    inside the query actors and merges k as usual; this driver-side form
    consumes the merged stream directly."""
    td = searcher.search(query, k=searcher.doc_count,
                         total_hits_threshold=2**31 - 1)
    taken: dict[str, int] = {}
    hits = []
    for h in td.hits:
        c = taken.get(h.conv_id, 0)
        if c < max_per_key:
            taken[h.conv_id] = c + 1
            hits.append(h)
            if len(hits) == k:
                break
    return TopDocs(hits, td.total_hits, td.relation)


def grouped_search(searcher: "IndexSearcher", query, group_field: str = "role",
                   n_groups: int = 4, docs_per_group: int = 2,
                   classes: list[str] | None = None):
    """Index-side two-pass grouping (`grouping/GroupingSearch.java` +
    FirstPass/SecondPassGroupingCollector): groups ranked by their best
    doc's relevance (ties: best doc's gid asc, then value asc), top
    `docs_per_group` docs inside each group by (score desc, gid asc).
    Group membership resolves from the group field's keyword postings —
    the index IS the doc→group map, no stored-field fetch.

    Returns [(group_value, best_score, [ScoreDoc, ...])] of length
    <= n_groups."""
    from ..pipelines.classify import _classes_of_hits, _keyword_classes

    td = searcher.search(query, k=searcher.doc_count,
                         total_hits_threshold=2**31 - 1)
    if classes is None:
        classes = _keyword_classes(searcher, group_field)
    gids = np.array([h.gid for h in td.hits], dtype=np.int64)
    vals = _classes_of_hits(searcher, gids, group_field, classes)
    groups: dict[str, list] = {}
    for h, v in zip(td.hits, vals):       # stream is (score desc, gid asc)
        if v is None:
            continue
        bucket = groups.setdefault(v, [])
        if len(bucket) < docs_per_group:
            bucket.append(h)
    ranked = sorted(groups.items(),
                    key=lambda kv: (-kv[1][0].score, kv[1][0].gid, kv[0]))
    return [(v, float(hits[0].score), hits)
            for v, hits in ranked[:n_groups]]


def dv_value_facets(searcher: "IndexSearcher", query, field: str,
                    top_n: int | None = None) -> list[tuple[int, int]]:
    """LongValueFacetCounts (`facet/.../LongValueFacetCounts.java:51,344`):
    per distinct value of a numeric doc-values field, the number of
    matching docs.  Per-shard vectorized bincount over the match set,
    merged; getAllChildrenSortByValue order (value asc) by default,
    getTopChildren (count desc, value asc) with ``top_n``."""
    compiled = searcher.compile(query)
    merged: dict[int, int] = {}
    for pid in searcher._pids:
        rdr = searcher.reader(pid)
        _s, docs, _t, _r = searcher.search_shard(
            rdr, compiled, rdr.doc_count, total_hits_threshold=2**31 - 1)
        if not len(docs):
            continue
        vals = rdr.docvalue(field)[docs]
        uniq, cnt = np.unique(vals, return_counts=True)
        for v, c in zip(uniq, cnt):
            merged[int(v)] = merged.get(int(v), 0) + int(c)
    out = sorted(merged.items())
    if top_n is not None:
        out = sorted(out, key=lambda vc: (-vc[1], vc[0]))[:top_n]
    return out


def dv_stats(searcher: "IndexSearcher", query, field: str) -> dict:
    """DocValuesStatsCollector (`misc/.../search/DocValuesStats.java`,
    `DocValuesStatsCollector.java`): count / min / max / sum / mean /
    population variance / stdev of a numeric doc-values field over the
    query's matches.  The reference accumulates with Welford's update
    (:167-169, variance() = M2/count); here each shard contributes exact
    sufficient statistics (count, mean, M2) merged with Chan's parallel
    formula — the same population variance without a driver-side pass over
    the match values.  Our dv columns are dense, so missing = 0."""
    compiled = searcher.compile(query)
    n_t = 0
    mean_t = 0.0
    m2_t = 0.0
    mn = np.inf
    mx = -np.inf
    s_t = 0.0
    for pid in searcher._pids:
        rdr = searcher.reader(pid)
        _, docs, _, _ = searcher.search_shard(rdr, compiled, rdr.doc_count,
                                              total_hits_threshold=2**31 - 1)
        if len(docs) == 0:
            continue
        vals = rdr.docvalue(field)[docs].astype(np.float64)
        n = len(vals)
        mean = float(vals.mean())
        m2 = float(((vals - mean) ** 2).sum())
        mn = min(mn, float(vals.min()))
        mx = max(mx, float(vals.max()))
        s_t += float(vals.sum())
        if n_t == 0:
            n_t, mean_t, m2_t = n, mean, m2
        else:
            delta = mean - mean_t
            tot = n_t + n
            m2_t = m2_t + m2 + delta * delta * n_t * n / tot
            mean_t = mean_t + delta * n / tot
            n_t = tot
    if n_t == 0:
        return {"count": 0, "missing": 0, "min": None, "max": None,
                "sum": 0.0, "mean": 0.0, "variance": 0.0, "stdev": 0.0}
    var = m2_t / n_t
    return {"count": n_t, "missing": 0, "min": mn, "max": mx, "sum": s_t,
            "mean": mean_t, "variance": var, "stdev": float(np.sqrt(var))}


def all_groups(searcher: "IndexSearcher", query, group_field: str = "role",
               classes: list[str] | None = None) -> list[str]:
    """AllGroupsCollector (`grouping/.../AllGroupsCollector.java`): the
    distinct group values among every matching doc (the total-group-count
    companion to paginated grouping).  Sorted group values."""
    from ..pipelines.classify import _classes_of_hits, _keyword_classes

    td = searcher.search(query, k=searcher.doc_count,
                         total_hits_threshold=2**31 - 1)
    if classes is None:
        classes = _keyword_classes(searcher, group_field)
    gids = np.array([h.gid for h in td.hits], dtype=np.int64)
    vals = _classes_of_hits(searcher, gids, group_field, classes)
    return sorted({v for v in vals if v is not None})


def all_group_heads(searcher: "IndexSearcher", query,
                    group_field: str = "role",
                    classes: list[str] | None = None) -> dict:
    """AllGroupHeadsCollector (`grouping/.../AllGroupHeadsCollector.java`):
    the most-relevant doc of EVERY group under the hit order (score desc,
    gid asc) — no group cap, unlike the two-pass grouped top-k.
    {group_value: ScoreDoc}."""
    from ..pipelines.classify import _classes_of_hits, _keyword_classes

    td = searcher.search(query, k=searcher.doc_count,
                         total_hits_threshold=2**31 - 1)
    if classes is None:
        classes = _keyword_classes(searcher, group_field)
    gids = np.array([h.gid for h in td.hits], dtype=np.int64)
    vals = _classes_of_hits(searcher, gids, group_field, classes)
    heads: dict = {}
    for h, v in zip(td.hits, vals):       # stream is (score desc, gid asc)
        if v is not None and v not in heads:
            heads[v] = h
    return heads


def more_like_this(searcher: "IndexSearcher", text: str,
                   max_query_terms: int = 25, min_term_freq: int = 2,
                   min_doc_freq: int = 5):
    """Find-similar query construction
    (`queries/src/java/org/apache/lucene/queries/mlt/MoreLikeThis.java:1-970`):
    analyze the like-text, keep terms with tf >= min_term_freq and
    docFreq >= min_doc_freq, rank by tf * classic idf
    (`TFIDFSimilarity.idf`: ln((docCount+1)/(docFreq+1)) + 1 — the
    createQueue scoring), and build a SHOULD BooleanQuery of the top
    max_query_terms interesting terms (ties broken term-asc,
    deterministic).  docFreq comes from the hash-bucketed global stats —
    no dictionary load."""
    import math
    from collections import Counter

    from ..analysis.standard import analyze
    from .query import bool_query

    tf = Counter(searcher._ft(t) for t in analyze(text))
    n = max(searcher.doc_count, 1)
    scored = []
    for term, f in tf.items():
        if f < min_term_freq:
            continue
        df = searcher.df(term)
        if df < min_doc_freq:
            continue
        idf = math.log((n + 1) / (df + 1)) + 1.0
        scored.append((f * idf, term))
    top = sorted(scored, key=lambda x: (-x[0], x[1]))[:max_query_terms]
    return bool_query(should=[t for _, t in top])


def more_like_this_doc(searcher: "IndexSearcher", gid: int,
                       max_query_terms: int = 25, min_term_freq: int = 2,
                       min_doc_freq: int = 5):
    """MoreLikeThis from an INDEXED document (`mlt/MoreLikeThis.java`
    ``like(int docNum)`` → ``retrieveTerms(docNum)``, which reads the doc's
    term vector instead of re-analyzing stored content): resolve gid to its
    shard, read the per-doc term vector (freqs are already analyzed/chain-
    filtered), then rank interesting terms exactly like the like-text path.
    Requires an index built with term_vectors=True."""
    import math

    from .query import bool_query

    pid, rdr = None, None
    for p in searcher._pids:
        base = searcher._bases[p]
        r = searcher.reader(p)
        if base <= gid < base + r.doc_count:
            pid, rdr = p, r
            break
    if rdr is None:
        raise IndexError(f"gid {gid} out of range")
    tids, freqs = rdr.term_vector(gid - searcher._bases[pid])
    n = max(searcher.doc_count, 1)
    scored = []
    for tid, f in zip(tids, freqs):
        if f < min_term_freq:
            continue
        term = str(rdr._term_np[int(tid)])
        df = searcher.df(term)
        if df < min_doc_freq:
            continue
        idf = math.log((n + 1) / (df + 1)) + 1.0
        scored.append((int(f) * idf, term))
    top = sorted(scored, key=lambda x: (-x[0], x[1]))[:max_query_terms]
    return bool_query(should=[t for _, t in top])


def suggest_infix(searcher: "IndexSearcher", substring: str, k: int = 10
                  ) -> list[tuple[str, int]]:
    """Infix (substring) suggester over the term dictionaries weighted by
    total term frequency — the `AnalyzingInfixSuggester` surface
    (`suggest/analyzing/AnalyzingInfixSuggester.java:1-985`, which indexes
    suggestions and matches any token prefix/infix) re-expressed as a
    vectorized substring scan of each shard's sorted dictionary
    (pyarrow match_substring — one C kernel per shard, no driver
    dictionary).  Returns [(term, ttf)] by weight desc, term asc."""
    import pyarrow.compute as pc

    ttfs: dict[str, int] = {}
    for pid in searcher._pids:
        rdr = searcher.reader(pid)
        mask = pc.match_substring(rdr._terms, substring).to_numpy(
            zero_copy_only=False)
        for t, ttf in zip(rdr._term_np[mask], rdr._ttf[mask]):
            ttfs[t] = ttfs.get(t, 0) + int(ttf)
    ranked = sorted(ttfs.items(), key=lambda x: (-x[1], x[0]))
    return ranked[:k]


def spell_correct(searcher: "IndexSearcher", term: str, max_edits: int = 2,
                  k: int = 5, distance=None) -> list[tuple[str, int]]:
    """Did-you-mean suggestions (`suggest/spell/DirectSpellChecker.java`
    surface): dictionary terms within `max_edits`, ranked by (edit distance
    asc, docFreq desc, term asc), scanned per shard (union of shard
    dictionaries == global dictionary; no global load).

    `distance` plugs a `StringDistance` similarity (the reference's
    setDistance — e.g. `lookups.jaro_winkler_distance` or
    `lookups.ngram_distance`): candidates then rank by (similarity desc,
    docFreq desc, term asc), SuggestWordScoreComparator order."""
    from .query import FuzzyQuery

    cands: dict[str, int] = {}
    q = FuzzyQuery(term, max_edits=max_edits)
    for pid in searcher._pids:
        rdr = searcher.reader(pid)
        for t in searcher._expand_shard(rdr, q):
            if t != term and t not in cands:
                cands[t] = searcher.df(t)

    if distance is not None:
        ranked = sorted(cands.items(),
                        key=lambda x: (-distance(term, x[0]), -x[1], x[0]))
        return ranked[:k]

    # LuceneLevenshteinDistance: transpositions count one edit
    ranked = sorted(cands.items(), key=lambda x: (
        _edit_distance(x[0], term, True), -x[1], x[0]))
    return ranked[:k]


def direct_spell_suggest(searcher: "IndexSearcher", term: str,
                         num_sug: int = 5,
                         suggest_mode: str = "when_not_in_index",
                         accuracy: float = 0.5, max_edits: int = 2,
                         min_prefix: int = 1, max_inspections: int = 5,
                         min_query_length: int = 4,
                         max_query_length: int = 1 << 30,
                         max_query_frequency: float = 0.01,
                         threshold_frequency: float = 0.0,
                         lower_case_terms: bool = True,
                         distance=None,
                         comparator: str = "score") -> list:
    """DirectSpellChecker.suggestSimilar — the full configured surface
    (`suggest/spell/DirectSpellChecker.java:284-470`): query gates
    (minQueryLength 4, maxQueryLength, lowercase, the WHEN_NOT_IN_INDEX
    df>0 gate, maxQueryFrequency as a fraction-of-maxDoc or absolute
    cutoff), candidate df floors (thresholdFrequency; MORE_POPULAR floors
    at the query's own df), two-pass candidate draw (ed=1 first, widened
    to maxEdits only when numSug*maxInspections not yet filled) with
    prefix = max(minPrefix, editDistance-1), default score =
    1 - d/min(len) (the INTERNAL_LEVENSHTEIN scaling; the dictionary draw
    and the distance both count an adjacent transposition as one edit, as
    FuzzyQuery expansion does by default), accuracy cutoff, and
    the SuggestWord comparator order (``score`` or ``frequency``).
    Returns [(word, score, freq)]."""
    from .query import FuzzyQuery

    text = term.lower() if lower_case_terms else term
    if not (min_query_length <= len(text) <= max_query_length):
        return []
    docfreq = searcher.df(text)
    if suggest_mode == "when_not_in_index" and docfreq > 0:
        return []
    max_doc = searcher.doc_count
    if max_query_frequency >= 1.0:
        if docfreq > max_query_frequency:
            return []
    elif docfreq > int(math.ceil(max_query_frequency * float(max_doc))):
        return []
    if suggest_mode != "more_popular":
        docfreq = 0
    if threshold_frequency >= 1.0:
        docfreq = max(docfreq, int(threshold_frequency))
    elif threshold_frequency > 0.0:
        docfreq = max(docfreq, int(threshold_frequency * float(max_doc)) - 1)

    inspections = num_sug * max_inspections

    def draw(edit_distance: int) -> dict:
        q = FuzzyQuery(text, max_edits=edit_distance,
                       prefix_length=max(min_prefix, edit_distance - 1))
        got: dict[str, tuple] = {}
        for pid in searcher._pids:
            rdr = searcher.reader(pid)
            for t in searcher._expand_shard(rdr, q):
                if t == text or t in got:
                    continue
                df = searcher.df(t)
                if df <= docfreq:
                    continue
                if distance is None:
                    # INTERNAL_LEVENSHTEIN (LuceneLevenshteinDistance):
                    # adjacent transpositions count one edit
                    d = _edit_distance(t, text, True)
                    score = 1.0 - d / min(len(t), len(text))
                else:
                    score = distance(text, t)
                if score < accuracy:
                    continue
                got[t] = (score, df)
        return got

    cands = draw(1)
    if max_edits > 1 and len(cands) < inspections:
        for t, v in draw(max_edits).items():
            cands.setdefault(t, v)

    # SuggestWord comparator drain order == (score desc, freq desc, word
    # asc) / freq-first for the frequency comparator (the reversed-string
    # third criterion ends word-ascending, as in SpellChecker)
    if comparator == "frequency":
        key = (lambda kv: (-kv[1][1], -kv[1][0], kv[0]))
    else:
        key = (lambda kv: (-kv[1][0], -kv[1][1], kv[0]))
    ranked = sorted(cands.items(), key=key)
    return [(t, round(float(sc), 6), df)
            for t, (sc, df) in ranked[:num_sug]]


def suggest_word_breaks(searcher: "IndexSearcher", term: str,
                        max_changes: int = 2, min_suggestion_freq: int = 1,
                        min_break_length: int = 2,
                        k: int = 5, suggest_mode: str = "when_not_in_index"
                        ) -> list[tuple[tuple[str, ...], int]]:
    """WordBreakSpellChecker.suggestWordBreaks
    (`suggest/spell/WordBreakSpellChecker.java`): split a (likely
    run-together) term into dictionary words, every part with
    docFreq >= min_suggestion_freq and length >= min_break_length, using at
    most `max_changes` break points.  Terms already present in the index
    return no suggestions (the SUGGEST_WHEN_NOT_IN_INDEX gate).  Ranked by
    the reference's NUM_CHANGES_THEN_MAX_FREQUENCY: fewer changes first,
    then higher MAX part docFreq, then lexicographic.  Returns
    [(parts, max_df)]."""
    out: list[tuple[tuple[str, ...], int]] = []

    def rec(rest: str, parts: tuple[str, ...], changes: int):
        if changes > max_changes:
            return
        df_rest = searcher.df(rest) if len(rest) >= min_break_length else 0
        if parts and df_rest >= min_suggestion_freq:
            out.append((parts + (rest,),
                        min([searcher.df(p) for p in parts] + [df_rest])))
        for i in range(min_break_length, len(rest) - min_break_length + 1):
            head = rest[:i]
            if searcher.df(head) >= min_suggestion_freq:
                rec(rest[i:], parts + (head,), changes + 1)

    # SUGGEST_WHEN_NOT_IN_INDEX gate (WordBreakSpellChecker.java:96-99,
    # the reference default mode): an in-index term yields no suggestions
    if suggest_mode == "when_not_in_index" and searcher.df(term) >= 1:
        return []
    rec(term, (), 0)
    # NUM_CHANGES_THEN_MAX_FREQUENCY drain order: fewer parts first, then
    # HIGHER max part frequency (LengthThenMaxFreqComparator)
    uniq = {}
    for p, _mn in out:
        uniq[p] = max(searcher.df(w) for w in p)
    ranked = sorted(uniq.items(), key=lambda x: (len(x[0]), -x[1], x[0]))
    return ranked[:k]


def suggest_word_combinations(searcher: "IndexSearcher", terms,
                              min_suggestion_freq: int = 1,
                              k: int = 5, suggest_mode: str = "always",
                              max_changes: int = 2,
                              max_combine_word_length: int = 20,
                              max_evaluations: int = 1000) -> list:
    """WordBreakSpellChecker.suggestWordCombinations — faithful port
    (`suggest/spell/WordBreakSpellChecker.java:169-247`): runs of 2..
    maxChanges+1 ADJACENT terms whose concatenation is a dictionary word
    with docFreq >= min_suggestion_freq; SuggestMode gates per the
    reference (`when_not_in_index`: at least one combined original must be
    absent (minFreq==0); `more_popular`: combined df >= max original df);
    combined length capped at maxCombineWordLength; maxEvaluations bounds
    the scan.  Output order = the CombinationsThenFreqComparator queue
    drain: fewer combined terms first, then higher combined df, then
    scan order.  Returns [(orig_indexes tuple, combined, df,
    score=n_combined-1)]."""
    if k < 1:
        return []
    orig_freqs = None
    if suggest_mode != "always":
        orig_freqs = [searcher.df(t) for t in terms]
    out = []
    evals = 0
    for i in range(len(terms) - 1):
        left = terms[i]
        if len(left) > max_combine_word_length:
            continue
        max_f = orig_freqs[i] if orig_freqs else 0
        min_f = orig_freqs[i] if orig_freqs else (1 << 31)
        combined = left
        length = len(left)
        j = i + 1
        stop = False
        while j < len(terms) and j - i <= max_changes and not stop:
            right = terms[j]
            combined += right
            length += len(right)
            if length > max_combine_word_length:
                break
            if orig_freqs:
                max_f = max(max_f, orig_freqs[j])
                min_f = min(min_f, orig_freqs[j])
            df = searcher.df(combined)
            if (suggest_mode != "more_popular" or df >= max_f) and \
                    (suggest_mode != "when_not_in_index" or min_f == 0) and \
                    df >= min_suggestion_freq:
                out.append((tuple(range(i, j + 1)), combined, df, j - i))
            evals += 1
            if evals == max_evaluations:
                stop = True
            j += 1
        if evals == max_evaluations:
            break
    out.sort(key=lambda x: (x[3], -x[2]))       # stable: scan order ties
    return out[:k]

"""MemoryIndex — single-document in-memory inverted index
(`memory/src/java/org/apache/lucene/memory/MemoryIndex.java:1-2035`): analyze
one document into per-field term → positions maps, then score arbitrary
queries against that one document without building segment files.

The reference uses it for query-time highlighting and, centrally, as the
Monitor/percolator's exact-verification step (`monitor/CandidateMatcher.java`:
each presearch candidate query runs against a MemoryIndex of the streamed
document).  Same role here: `pipelines/percolate.percolate_ast` presearches
vectorized over a batch, then verifies each surviving (doc, query) candidate
through a MemoryIndex.

Scoring matches the main engine on single-doc stats: doc_count=1, df=1 for
any present term, sum_ttf = field token count (avgdl == doc length), norm =
SmallFloat.intToByte4(length) — so `search()` returns exactly what an
IndexSearcher over a one-doc index would (`MemoryIndex.search(Query)` builds
a one-doc IndexSearcher internally, `MemoryIndex.java:1500-1560`).
"""

from __future__ import annotations

import re

import numpy as np

from ..util.smallfloat import int_to_byte4

__all__ = ["MemoryIndex"]


class MemoryIndex:
    def __init__(self, token_filters: tuple[str, ...] = ()):
        self.token_filters = tuple(token_filters)
        self._pos: dict[str, dict[str, list[int]]] = {}   # field → term → positions
        self._len: dict[str, int] = {}                    # field → token count
        self._nextpos: dict[str, int] = {}                # field → next position
        self._numeric: dict[str, int] = {}                # field → doc-value

    # ------------------------------------------------------------------
    # ingestion (addField)
    # ------------------------------------------------------------------

    def add_field(self, field: str, text: str,
                  pos_inc_gap: int = 0) -> "MemoryIndex":
        """Analyze `text` with the StandardAnalyzer (+ the configured filter
        chain) and add its tokens under `field` (MemoryIndex.addField).
        Repeated adds of the same field append, separated by
        ``pos_inc_gap`` positions (Analyzer.getPositionIncrementGap — the
        reference's multi-valued-field behavior, default 0)."""
        from ..analysis.standard import analyze

        toks = analyze(text or "")
        if self.token_filters:
            from ..analysis.filters import apply_filters_str

            toks = [apply_filters_str(t, self.token_filters) for t in toks]
            toks = [t for t in toks if t]
        d = self._pos.setdefault(field, {})
        base = self._nextpos.get(field, 0)
        if field in self._len and pos_inc_gap:
            base += pos_inc_gap
        for i, t in enumerate(toks):
            d.setdefault(t, []).append(base + i)
        self._nextpos[field] = base + len(toks)
        self._len[field] = self._len.get(field, 0) + len(toks)
        return self

    @classmethod
    def from_tokens(cls, tokens, field: str = "text") -> "MemoryIndex":
        """Build directly from an ALREADY-analyzed token sequence — the
        fromAnalyzer-bypass used when the caller has batch-tokenized text
        (the percolator's vectorized pipeline re-uses its flat token arrays
        instead of re-running the per-string analyzer)."""
        m = cls()
        d = m._pos.setdefault(field, {})
        for i, t in enumerate(tokens):
            d.setdefault(t, []).append(i)
        m._len[field] = len(tokens)
        m._nextpos[field] = len(tokens)
        return m

    def add_keyword(self, field: str, value: str) -> "MemoryIndex":
        """Untokenized single-term field (KeywordAnalyzer addField)."""
        from .shard import keyword_term

        d = self._pos.setdefault("__keyword__", {})
        d.setdefault(keyword_term(field, value), []).append(0)
        return self

    def add_numeric(self, field: str, value: int) -> "MemoryIndex":
        """Numeric doc-value for RangeQuery evaluation."""
        self._numeric[field] = int(value)
        return self

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def search(self, query, field: str = "text", similarity=None) -> float:
        """Score of the one document for `query`; 0.0 when it does not match
        (the reference returns 0.0f for non-matches)."""
        from ..search.similarity import BM25Similarity

        sim = similarity or BM25Similarity()
        score, matched = self._eval(query, field, sim)
        return float(score) if matched else 0.0

    def matches(self, query, field: str = "text") -> bool:
        """Match-only evaluation — no scoring work (the percolator's hot
        path; `MemoryIndex.search` callers who only test > 0 in the
        reference pay the score, we don't have to)."""
        from ..search.query import (
            FILTER,
            MUST,
            MUST_NOT,
            SHOULD,
            BooleanQuery,
            BoostQuery,
            ConstantScoreQuery,
            IntervalQuery,
            MatchAllDocsQuery,
            MatchNoDocsQuery,
            MultiPhraseQuery,
            PhraseQuery,
            SynonymQuery,
            TermQuery,
        )

        q = query
        if isinstance(q, TermQuery):
            return bool(self._positions(field, q.term))
        if isinstance(q, MatchAllDocsQuery):
            return True
        if isinstance(q, MatchNoDocsQuery):
            return False
        if isinstance(q, (BoostQuery, ConstantScoreQuery)):
            return self.matches(q.query, field)
        if isinstance(q, SynonymQuery):
            return any(self._positions(field, t) for t in q.terms)
        if isinstance(q, (PhraseQuery, MultiPhraseQuery)):
            return self._phrase_freq(q, field)[0] > 0
        if isinstance(q, BooleanQuery):
            required: bool | None = None
            matched = False
            any_positive = False
            should_hits = 0
            for c in q.clauses:
                m = self.matches(c.query, field)
                if c.occur in (SHOULD, MUST):
                    any_positive = True
                    if m:
                        matched = True
                        if c.occur == SHOULD:
                            should_hits += 1
                    if c.occur == MUST:
                        required = m if required is None else (required and m)
                elif c.occur == FILTER:
                    required = m if required is None else (required and m)
                elif c.occur == MUST_NOT and m:
                    return False
            if required is not None:
                ok = required
            elif any_positive:
                ok = matched
            else:
                ok = False
            if q.minimum_should_match:
                ok = ok and should_hits >= q.minimum_should_match
            return bool(ok)
        if isinstance(q, IntervalQuery):
            return self._interval(q, field)[1]
        # multi-term / range / keyword shapes carry no scoring anyway
        from ..search.similarity import BM25Similarity

        return self._eval(q, field, BM25Similarity())[1]

    # ---- internals ----

    def _positions(self, field: str, term: str) -> list[int]:
        from .shard import KEYWORD_SEP

        if KEYWORD_SEP in term:
            return self._pos.get("__keyword__", {}).get(term, [])
        return self._pos.get(field, {}).get(term, [])

    def _norm(self, field: str) -> np.ndarray:
        return np.array([int_to_byte4(max(self._len.get(field, 0), 1))],
                        dtype=np.uint8)

    def _stats(self, field: str) -> tuple[int, int]:
        # doc_count=1; sum_ttf = field length (so avgdl == field length)
        return 1, max(self._len.get(field, 0), 1)

    def _term_score(self, field: str, term: str, boost: float, sim) -> tuple:
        pos = self._positions(field, term)
        if not pos:
            return np.float32(0.0), False
        n, sttf = self._stats(field)
        scorer = sim.scorer(boost, n, sttf, 1, ttf=len(pos))
        s = scorer.score(np.array([len(pos)], dtype=np.int64),
                         self._norm(field))[0]
        return np.float32(s), True

    def _eval(self, query, field: str, sim) -> tuple:
        from ..search.query import (
            FILTER,
            MUST,
            MUST_NOT,
            SHOULD,
            BooleanQuery,
            BoostQuery,
            ConstantScoreQuery,
            FieldExistsQuery,
            FuzzyQuery,
            IntervalQuery,
            MatchAllDocsQuery,
            MatchNoDocsQuery,
            MultiPhraseQuery,
            PhraseQuery,
            PrefixQuery,
            RangeQuery,
            RegexpQuery,
            SynonymQuery,
            TermInSetQuery,
            TermQuery,
            WildcardQuery,
        )

        Z = np.float32(0.0)
        if isinstance(query, MatchAllDocsQuery):
            # standalone MatchAll scores 1.0 (MatchAllDocsQuery constant
            # score); inside a boolean the engine's dense path contributes 0,
            # but SHOULD(MatchAll) adding 1.0 matches the reference, which
            # never strips the constant
            return np.float32(1.0), True
        if isinstance(query, MatchNoDocsQuery):
            return Z, False
        if isinstance(query, TermQuery):
            return self._term_score(field, query.term, query.boost, sim)
        if isinstance(query, BoostQuery):
            from ..search.searcher import _boosted

            return self._eval(_boosted(query.query, query.boost), field, sim)
        if isinstance(query, ConstantScoreQuery):
            _, m = self._eval(query.query, field, sim)
            return np.float32(query.boost), m
        if isinstance(query, FieldExistsQuery):
            present = (query.field in self._pos and self._pos[query.field]) \
                or query.field in self._numeric
            return np.float32(1.0), bool(present)
        if isinstance(query, RangeQuery):
            v = self._numeric.get(query.field)
            ok = v is not None \
                and (query.lo is None or v >= query.lo) \
                and (query.hi is None or v <= query.hi)
            return np.float32(query.boost), ok
        if isinstance(query, TermInSetQuery):
            ok = any(self._positions(field, t) for t in query.terms)
            return np.float32(query.boost), ok
        if isinstance(query, FuzzyQuery) and \
                query.rewrite == "top_terms_blended":
            return self._fuzzy_blended(query, field, sim)
        if isinstance(query, (PrefixQuery, WildcardQuery, RegexpQuery,
                              FuzzyQuery)):
            return self._multi_term(query, field)
        if isinstance(query, SynonymQuery):
            # one pseudo-term: freq = Σ boost_i * freq_i (SynonymQuery.java)
            boosts = query.boosts or (1.0,) * len(query.terms)
            freq = np.float32(0.0)
            for t, b in zip(query.terms, boosts):
                freq = freq + np.float32(b) * np.float32(
                    len(self._positions(field, t)))
            if freq <= 0:
                return Z, False
            n, sttf = self._stats(field)
            scorer = sim.scorer(query.boost, n, sttf, 1)
            s = scorer.score(np.array([freq], dtype=np.float32),
                             self._norm(field))[0]
            return np.float32(s), True
        if isinstance(query, (PhraseQuery, MultiPhraseQuery)):
            return self._phrase(query, field, sim)
        if isinstance(query, IntervalQuery):
            return self._interval(query, field)
        if isinstance(query, BooleanQuery):
            acc = Z
            matched = False
            required: bool | None = None
            excluded = False
            should_hits = 0
            any_positive = False
            for c in query.clauses:
                # FILTER ranges are scoreless-required; SHOULD/MUST ranges
                # are constant-score clauses contributing their boost (the
                # engine routes those to the dense path — same semantics)
                s, m = self._eval(c.query, field, sim)
                if c.occur in (SHOULD, MUST):
                    any_positive = True
                    if m:
                        acc = acc + s
                        matched = True
                        if c.occur == SHOULD:
                            should_hits += 1
                    if c.occur == MUST:
                        required = m if required is None else (required and m)
                elif c.occur == FILTER:
                    required = m if required is None else (required and m)
                elif c.occur == MUST_NOT and m:
                    excluded = True
            if required is not None:
                eligible = required
            elif any_positive:
                eligible = matched
            else:
                eligible = False
            if query.minimum_should_match:
                eligible = eligible and should_hits >= query.minimum_should_match
            return acc, bool(eligible and not excluded)
        raise TypeError(f"MemoryIndex does not support {type(query).__name__}")

    def _multi_term(self, query, field: str) -> tuple:
        """Prefix/Wildcard/Regexp/Fuzzy expanded against the doc's own term
        set, constant-score rewrite (the engine's per-shard expansion with a
        one-doc dictionary)."""
        from ..search.query import FuzzyQuery, PrefixQuery, RegexpQuery, WildcardQuery
        from ..search.searcher import _levenshtein_leq

        terms = self._pos.get(field, {})
        if isinstance(query, PrefixQuery):
            ok = any(t.startswith(query.prefix) for t in terms)
        elif isinstance(query, WildcardQuery):
            from ..util.regexp import wildcard_to_pattern

            pat = re.compile(wildcard_to_pattern(query.pattern)[0], re.DOTALL)
            ok = any(pat.fullmatch(t) for t in terms)
        elif isinstance(query, RegexpQuery):
            from ..util.regexp import LuceneRegExp

            rx = LuceneRegExp(query.regexp, query.flags)
            ok = any(rx.fullmatch(t) for t in terms)
        elif isinstance(query, FuzzyQuery):
            trans = getattr(query, "transpositions", False)
            ok = any(
                t.startswith(query.term[:query.prefix_length])
                and _levenshtein_leq(query.term, t, query.max_edits, trans)
                for t in terms
                if abs(len(t) - len(query.term)) <= query.max_edits)
        else:                                    # pragma: no cover
            raise TypeError(type(query).__name__)
        return np.float32(getattr(query, "boost", 1.0)), ok

    def _fuzzy_blended(self, query, field: str, sim) -> tuple:
        """FuzzyQuery's TopTermsBlendedFreqScoringRewrite over the one-doc
        dictionary (the engine's `_compile_fuzzy_blended` twin): variants
        from the doc's own terms, FuzzyTermsEnum boosts, top
        max_expansions by (boost desc, term asc), SHOULD-sum of per-variant
        scorers (every present term has df == max df == 1 here)."""
        from ..search.searcher import _edit_distance

        base = query.term
        pre = base[:query.prefix_length]
        trans = getattr(query, "transpositions", False)
        scored = []
        for t in self._pos.get(field, {}):
            if abs(len(t) - len(base)) > query.max_edits:
                continue
            if pre and not t.startswith(pre):
                continue
            ed = _edit_distance(t, base, trans)
            if ed > query.max_edits:
                continue
            b = 1.0 if ed == 0 else 1.0 - ed / min(len(t), len(base))
            scored.append((b, t))
        if not scored:
            return np.float32(0.0), False
        scored.sort(key=lambda bv: (-bv[0], bv[1]))
        kept = scored[:max(1, int(query.max_expansions))]
        n, sttf = self._stats(field)
        acc = np.float32(0.0)
        for b, t in kept:
            freq = np.float32(len(self._positions(field, t)))
            scorer = sim.scorer(query.boost * b, n, sttf, 1)
            acc = acc + scorer.score(np.array([freq], dtype=np.float32),
                                     self._norm(field))[0]
        return np.float32(acc), True

    def _phrase_freq(self, query, field: str):
        """(phrase freq, present terms) — 0 freq means no match."""
        from ..search.phrase_matcher import SloppyPhraseMatcher
        from ..search.query import MultiPhraseQuery

        if isinstance(query, MultiPhraseQuery):
            slots = [tuple(ts) for ts in query.slots]
            slop = int(query.slop)
            offsets = list(getattr(query, "positions", ()) or
                           range(len(slots)))
        else:
            slots = [(t,) for t in query.terms]
            slop = int(query.slop)
            offsets = list(range(len(slots)))
        pos_lists = []
        present_terms = []
        for ts in slots:
            merged = sorted(p for t in ts for p in self._positions(field, t))
            if not merged:
                return np.float32(0.0), []
            pos_lists.append(np.array(merged, dtype=np.int64))
            present_terms.extend(t for t in ts if self._positions(field, t))
        if slop > 0:
            freq = SloppyPhraseMatcher(slots, slop,
                                       offsets=offsets).freq(pos_lists)
        else:
            # explicit slot positions (gapped MultiPhraseQuery) shift each
            # slot by its declared offset, like the engine's phrase offsets
            starts = pos_lists[0] - offsets[0]
            for off, pl in zip(offsets[1:], pos_lists[1:]):
                starts = starts[np.isin(starts, pl - off)]
            freq = np.float32(len(starts))
        return np.float32(freq), present_terms

    def _phrase(self, query, field: str, sim) -> tuple:
        freq, present_terms = self._phrase_freq(query, field)
        if freq <= 0:
            return np.float32(0.0), False
        # PhraseWeight: idf = Σ idf over PRESENT terms (df=1 each; absent
        # multi-phrase alternatives have df=0 and contribute nothing,
        # MultiPhraseQuery.getStats:221-244)
        n, sttf = self._stats(field)
        idf = np.float32(0.0)
        for _ in present_terms:
            idf = idf + sim.idf(1, n)
        scorer = sim.scorer_with_idf(getattr(query, "boost", 1.0), idf, n, sttf)
        s = scorer.score(np.array([freq], dtype=np.float32),
                         self._norm(field))[0]
        return np.float32(s), True

    def _interval(self, query, field: str) -> tuple:
        from ..search.scorer import _min_span_ordered, _min_span_unordered

        pls = [np.array(self._positions(field, t), dtype=np.int64)
               for t in query.terms]
        if any(len(p) == 0 for p in pls):
            return np.float32(0.0), False
        span = (_min_span_ordered(pls) if query.ordered
                else _min_span_unordered(pls))
        return np.float32(query.boost), span <= query.max_width

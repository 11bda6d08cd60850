"""UnifiedHighlighter — the reference's passage-highlighting pipeline.

Re-creates `lucene/highlighter/src/java/.../uhighlight/`:

- ``SentenceBreakIterator`` — the JDK sentence ``BreakIterator`` model the
  reference uses by default (`UnifiedHighlighter.java` getBreakIterator:
  ``BreakIterator.getSentenceInstance(Locale.ROOT)``): sentences end after a
  run of ``.!?`` + closing punctuation + whitespace (trailing whitespace
  belongs to the PRECEDING sentence), and after hard line breaks.  No
  lowercase suppression: the JDK iterator (unlike raw UAX#29 SB8) breaks
  ``"is.  another"`` — verified against the reference's own expectations
  (`TestUnifiedHighlighter.java:770-798` testEmptyHighlights).
- ``PassageScorer`` — the exact scoring formulas of `PassageScorer.java:
  60-130` (weight = (k1+1)·ln(1+(numDocs+0.5)/(ttf+0.5)) with numDocs
  approximated from content length / pivot; tf = freq/(freq+k1·((1-b)+
  b·len/pivot)); norm = 1+1/ln(pivot+start); score = Σ_unique-terms
  tf(passage_freq, passage_len)·weight(content_len, doc_freq), times norm).
  Float math is Python float64 where the reference uses float32 — ordering
  divergence is possible only on near-exact score ties (documented).
- ``FieldHighlighter.highlight_offsets`` — the passage-construction loop of
  `FieldHighlighter.java:120-220` verbatim: matches straddling the content
  truncation are skipped, passage bounds snap to break-iterator boundaries
  around the match center, a bounded priority queue keeps the top
  ``max_passages`` by (score, startOffset), and when nothing matched the
  first ``max_no_highlight_passages`` sentences become the summary
  (`getSummaryPassagesNoHighlight`).
- ``DefaultPassageFormatter`` — `DefaultPassageFormatter.java:40-120`
  including the overlapping-match lookahead, the ``... `` ellipsis between
  unconnected passages, and the OWASP HTML-escape variant.
- ``UnifiedHighlighter`` facade — ANALYSIS offset strategy
  (`AnalysisOffsetStrategy.java`): the content is re-tokenized with offsets,
  query terms (and multi-term-query automata, `MultiTermHighlighting.java`)
  match against the normalized token stream; per-term OffsetsEnums merge in
  (startOffset, endOffset, term) order (`OffsetsEnum.java:compareTo`).
  Flags note: this is the classic per-term path — phrases highlight their
  constituent terms individually (HighlightFlag.WEIGHT_MATCHES=false
  rendering, e.g. ``<b>Buddhist</b> <b>origins</b>``).
"""

from __future__ import annotations

import heapq
import itertools
import math
import re
from bisect import bisect_left, bisect_right

from ..analysis.standard import jdk_lower, scan

DONE = -1

_TERMINATORS = ".!?"
_CLOSERS = ")]}\"'’”»"
_SPACES = " \t "


class SentenceBreakIterator:
    """Sentence boundaries over one text (JDK sentence-instance model)."""

    def __init__(self, text: str):
        self.text = text
        n = len(text)
        bounds = [0]
        i = 0
        while i < n:
            c = text[i]
            if c in _TERMINATORS:
                j = i + 1
                while j < n and text[j] in _TERMINATORS:
                    j += 1
                while j < n and text[j] in _CLOSERS:
                    j += 1
                k = j
                while k < n and text[k] in _SPACES:
                    k += 1
                # absorb a following hard break into the same boundary
                while k < n and text[k] in "\r\n":
                    k += 1
                if k > j and k < n:
                    bounds.append(k)
                i = max(k, j)
            elif c in "\r\n":
                k = i + 1
                while k < n and text[k] in "\r\n":
                    k += 1
                if k < n:
                    bounds.append(k)
                i = k
            else:
                i += 1
        if bounds[-1] != n:
            bounds.append(n)
        self.bounds = bounds

    def preceding(self, offset: int) -> int:
        """Last boundary strictly before `offset`, or DONE."""
        idx = bisect_left(self.bounds, offset)
        return self.bounds[idx - 1] if idx > 0 else DONE

    def following(self, offset: int) -> int:
        """First boundary strictly after `offset`, or DONE."""
        idx = bisect_right(self.bounds, offset)
        return self.bounds[idx] if idx < len(self.bounds) else DONE

    def sentences(self):
        """[(start, end)] pairs in document order."""
        return list(zip(self.bounds, self.bounds[1:]))


class CustomSeparatorBreakIterator(SentenceBreakIterator):
    """Breaks only after a chosen separator character
    (`uhighlight/CustomSeparatorBreakIterator.java:26-110`) — the
    UnifiedHighlighter's multi-value field pattern (values joined by an
    unindexed separator char)."""

    def __init__(self, text: str, separator: str):
        if len(separator) != 1:
            raise ValueError("separator must be a single character")
        self.text = text
        n = len(text)
        bounds = [0]
        bounds.extend(i + 1 for i in range(n) if text[i] == separator)
        if not bounds or bounds[-1] != n:
            bounds.append(n)
        self.bounds = sorted(set(bounds))


class WholeBreakIterator(SentenceBreakIterator):
    """One passage spanning the whole text
    (`uhighlight/WholeBreakIterator.java`)."""

    def __init__(self, text: str):
        self.text = text
        self.bounds = [0, len(text)] if text else [0]


class LengthGoalBreakIterator:
    """Wraps a base break iterator so passages aim for a length goal
    (`uhighlight/LengthGoalBreakIterator.java:33-230`): `create_min_length`
    never undershoots the goal (skips past too-close base breaks);
    `create_closest_to_length` picks the base break closest to the target.
    `fragment_alignment` positions the match inside the fragment (0 =
    match at the start)."""

    def __init__(self, base, length_goal: int, fragment_alignment: float,
                 is_minimum_length: bool):
        if not (0.0 <= fragment_alignment <= 1.0):
            raise ValueError("fragmentAlignment must be >= zero and <= one")
        self.base = base
        self.text = base.text
        self.length_goal = length_goal
        self.fragment_alignment = fragment_alignment
        self.is_minimum_length = is_minimum_length
        self._current = base.bounds[0]

    @classmethod
    def create_min_length(cls, base, min_length: int,
                          fragment_alignment: float = 0.0):
        return cls(base, min_length, fragment_alignment, True)

    @classmethod
    def create_closest_to_length(cls, base, target_length: int,
                                 fragment_alignment: float = 0.0):
        return cls(base, target_length, fragment_alignment, False)

    def _first(self) -> int:
        return self.base.bounds[0]

    def _last(self) -> int:
        return self.base.bounds[-1]

    def following(self, match_end: int) -> int:
        return self._following(
            match_end,
            (match_end + 1)
            + int(self.length_goal * (1.0 - self.fragment_alignment)))

    def _following(self, match_end: int, target: int) -> int:
        if target >= len(self.text):
            if self._current == self._last():
                return DONE
            self._current = self._last()
            return self._current
        after = self.base.following(target - 1)
        if after == DONE:
            self._current = self._last()
            return DONE
        if after == target or self.is_minimum_length:
            self._current = after
            return after
        before = self.base.preceding(target)
        if target - before < after - target and before > match_end:
            self._current = before
            return before
        self._current = after
        return after

    def preceding(self, match_start: int) -> int:
        target = (match_start - 1) - int(self.length_goal
                                         * self.fragment_alignment)
        if target <= 0:
            if self._current == self._first():
                return DONE
            self._current = self._first()
            return self._current
        before = self.base.preceding(target + 1)
        if before == DONE:
            self._current = self._first()
            return DONE
        if before == target or self.is_minimum_length:
            self._current = before
            return before
        after = self.base.following(target - 1)
        if after - target < target - before and after < match_start:
            self._current = after
            return after
        self._current = before
        return before

    def sentences(self):
        """next()-walk for the no-highlight summary
        (`LengthGoalBreakIterator.next()`: following(current,
        current + goal))."""
        out = []
        self._current = self._first()
        while True:
            start = self._current
            nxt = self._following(start, start + self.length_goal)
            if nxt == DONE or nxt <= start:
                if start < self._last():
                    out.append((start, self._last()))
                break
            out.append((start, nxt))
            if nxt >= self._last():
                break
        return out


class Passage:
    """One scored passage (`Passage.java`): [start, end) plus its matches."""

    __slots__ = ("start", "end", "score",
                 "match_starts", "match_ends", "match_terms", "match_freqs")

    def __init__(self):
        self.start = -1
        self.end = -1
        self.score = 0.0
        self.match_starts: list[int] = []
        self.match_ends: list[int] = []
        self.match_terms: list[str] = []
        self.match_freqs: list[int] = []

    def add_match(self, start: int, end: int, term: str, freq_in_doc: int):
        self.match_starts.append(start)
        self.match_ends.append(end)
        self.match_terms.append(term)
        self.match_freqs.append(freq_in_doc)

    def reset(self):
        self.start = self.end = -1
        self.score = 0.0
        self.match_starts.clear()
        self.match_ends.clear()
        self.match_terms.clear()
        self.match_freqs.clear()

    @property
    def length(self) -> int:
        return self.end - self.start

    @property
    def num_matches(self) -> int:
        return len(self.match_starts)


class PassageScorer:
    """`PassageScorer.java` — defaults k1=1.2, b=0.75, pivot=87."""

    def __init__(self, k1: float = 1.2, b: float = 0.75, pivot: float = 87.0):
        self.k1 = k1
        self.b = b
        self.pivot = pivot

    def weight(self, content_length: int, total_term_freq: int) -> float:
        num_docs = 1 + content_length / self.pivot
        return (self.k1 + 1) * math.log(
            1 + (num_docs + 0.5) / (total_term_freq + 0.5))

    def tf(self, freq: int, passage_len: int) -> float:
        norm = self.k1 * ((1 - self.b) + self.b * (passage_len / self.pivot))
        return freq / (freq + norm)

    def norm(self, passage_start: int) -> float:
        return 1 + 1 / math.log(self.pivot + passage_start)

    def score(self, passage: Passage, content_length: int) -> float:
        # unique terms: passage freq counted per term, doc freq from the
        # first occurrence (PassageScorer.java:score BytesRefHash loop)
        freqs_in_passage: dict[str, int] = {}
        freqs_in_doc: dict[str, int] = {}
        for t, fd in zip(passage.match_terms, passage.match_freqs):
            if t not in freqs_in_passage:
                freqs_in_doc[t] = fd
            freqs_in_passage[t] = freqs_in_passage.get(t, 0) + 1
        s = 0.0
        for t, fp in freqs_in_passage.items():
            s += self.tf(fp, passage.length) * self.weight(
                content_length, freqs_in_doc[t])
        return s * self.norm(passage.start)


class DefaultPassageFormatter:
    """`DefaultPassageFormatter.java` — tags, ellipsis, optional escaping."""

    def __init__(self, pre_tag: str = "<b>", post_tag: str = "</b>",
                 ellipsis: str = "... ", escape: bool = False):
        self.pre_tag = pre_tag
        self.post_tag = post_tag
        self.ellipsis = ellipsis
        self.escape = escape

    def _append(self, out: list[str], content: str, start: int, end: int):
        if not self.escape:
            out.append(content[start:end])
            return
        for ch in content[start:end]:          # owasp.org rules
            out.append({"&": "&amp;", "<": "&lt;", ">": "&gt;",
                        '"': "&quot;", "'": "&#x27;", "/": "&#x2F;"}
                       .get(ch, ch))

    def format(self, passages: list[Passage], content: str) -> str:
        out: list[str] = []
        pos = 0
        for passage in passages:
            if passage.start > pos and pos > 0:
                out.append(self.ellipsis)
            pos = passage.start
            i = 0
            n = passage.num_matches
            while i < n:
                start = passage.match_starts[i]
                self._append(out, content, pos, start)
                end = passage.match_ends[i]
                # expand past overlapping matches
                while i + 1 < n and passage.match_starts[i + 1] < end:
                    i += 1
                    end = passage.match_ends[i]
                end = min(end, passage.end)
                out.append(self.pre_tag)
                self._append(out, content, start, end)
                out.append(self.post_tag)
                pos = end
                i += 1
            self._append(out, content, pos, max(pos, passage.end))
            pos = passage.end
        return "".join(out)


class FieldHighlighter:
    """`FieldHighlighter.java` passage construction over merged offsets."""

    def __init__(self, scorer: PassageScorer, max_passages: int,
                 max_no_highlight_passages: int = -1):
        self.scorer = scorer
        self.max_passages = max_passages
        self.max_no_highlight_passages = max_no_highlight_passages
        self._ctr = itertools.count()

    def _maybe_add(self, queue, passage: Passage, content_length: int):
        if passage.start == -1:
            return passage
        passage.score = self.scorer.score(passage, content_length)
        if (len(queue) == self.max_passages
                and passage.score < queue[0][0]):
            passage.reset()
            return passage
        heapq.heappush(queue, (passage.score, passage.start,
                               next(self._ctr), passage))
        if len(queue) > self.max_passages:
            _, _, _, evicted = heapq.heappop(queue)
            evicted.reset()
            return evicted
        return Passage()

    def highlight_offsets(self, offsets, bi: SentenceBreakIterator,
                          content_length: int) -> list[Passage]:
        """`highlightOffsetsEnums`: offsets = [(start, end, term, doc_freq)]
        sorted by (start, end, term)."""
        it = iter(offsets)
        cur = next(it, None)
        if cur is None:
            return []
        queue: list = []
        passage = Passage()
        last_passage_end = 0
        while cur is not None:
            start, end, term, freq = cur
            if start < content_length and end > content_length:
                cur = next(it, None)       # straddles the truncation: skip
                continue
            if start >= passage.end:
                passage = self._maybe_add(queue, passage, content_length)
                if start >= content_length:
                    break
                # fragment centered on the match (FieldHighlighter.java:186)
                center = start + (end - start) // 2
                passage.start = min(start, max(
                    bi.preceding(max(start + 1, center)), last_passage_end))
                last_passage_end = max(end, min(
                    bi.following(min(end - 1, center)), content_length))
                passage.end = last_passage_end
            passage.add_match(start, end, term, freq)
            cur = next(it, None)
        self._maybe_add(queue, passage, content_length)
        out = [p for _, _, _, p in queue]
        out.sort(key=lambda p: p.start)
        return out

    def summary_passages(self, bi: SentenceBreakIterator) -> list[Passage]:
        """`getSummaryPassagesNoHighlight`: the first N sentences, score 0."""
        n = (self.max_passages if self.max_no_highlight_passages == -1
             else self.max_no_highlight_passages)
        out = []
        for start, end in bi.sentences()[:max(0, n)]:
            p = Passage()
            p.start, p.end = start, end
            out.append(p)
        return out


def extract_highlight_terms(query):
    """Walk a query tree to (terms set, [(label, predicate)]) for
    highlighting (`UnifiedHighlighter.extractTerms` + the automata of
    `MultiTermHighlighting.java`).  MUST_NOT clauses are excluded."""
    from .query import (
        BlendedTermQuery,
        BooleanQuery,
        BoostQuery,
        ConstantScoreQuery,
        DisjunctionMaxQuery,
        FuzzyQuery,
        MultiPhraseQuery,
        PhraseQuery,
        PrefixQuery,
        RegexpQuery,
        SynonymQuery,
        TermInSetQuery,
        TermQuery,
        WildcardQuery,
    )
    from .searcher import _levenshtein_leq

    terms: set[str] = set()
    matchers: list[tuple[str, object]] = []

    def walk(q):
        if isinstance(q, TermQuery):
            terms.add(q.term)
        elif isinstance(q, PhraseQuery):
            terms.update(q.terms)
        elif isinstance(q, MultiPhraseQuery):
            for slot in q.slots:
                terms.update(slot)
        elif isinstance(q, (SynonymQuery, TermInSetQuery, BlendedTermQuery)):
            terms.update(q.terms)
        elif isinstance(q, (BoostQuery, ConstantScoreQuery)):
            walk(q.query)
        elif isinstance(q, DisjunctionMaxQuery):
            for sub in q.queries:
                walk(sub)
        elif isinstance(q, BooleanQuery):
            from .query import MUST_NOT
            for c in q.clauses:
                if c.occur != MUST_NOT:
                    walk(c.query)
        elif isinstance(q, PrefixQuery):
            p = q.prefix
            matchers.append((p + "*", lambda t, p=p: t.startswith(p)))
        elif isinstance(q, WildcardQuery):
            from ..util.regexp import wildcard_to_pattern

            pat = re.compile(wildcard_to_pattern(q.pattern)[0], re.DOTALL)
            matchers.append((q.pattern,
                             lambda t, pat=pat: pat.fullmatch(t) is not None))
        elif isinstance(q, RegexpQuery):
            from ..util.regexp import LuceneRegExp

            rx = LuceneRegExp(q.regexp, q.flags)
            matchers.append((q.regexp, rx.fullmatch))
        elif isinstance(q, FuzzyQuery):
            base, k, pl = q.term, q.max_edits, q.prefix_length
            tr = getattr(q, "transpositions", False)
            matchers.append((base + "~", lambda t, base=base, k=k, pl=pl,
                             tr=tr: t.startswith(base[:pl])
                             and _levenshtein_leq(t, base, k, tr)))
        # other query kinds contribute no highlightable terms

    walk(query)
    return terms, matchers


class UnifiedHighlighter:
    """Facade: analysis-offset highlighting of one content string against a
    query tree or a plain term collection (`UnifiedHighlighter.java`
    highlight path for one field/doc)."""

    def __init__(self, max_length: int = 10000,
                 scorer: PassageScorer | None = None,
                 formatter: DefaultPassageFormatter | None = None,
                 max_no_highlight_passages: int = -1,
                 normalize=None, break_iterator_factory=None):
        self.max_length = max_length
        self.scorer = scorer or PassageScorer()
        self.formatter = formatter or DefaultPassageFormatter()
        self.max_no_highlight_passages = max_no_highlight_passages
        # token text -> 0..n index terms at the token's offsets (identity of
        # the index analyzer chain); default: JDK lowercase only
        self.normalize = normalize or (lambda tok: (jdk_lower(tok),))
        # getBreakIterator hook: text -> break iterator (sentence default;
        # CustomSeparator / WholeBreakIterator / LengthGoal wrappers plug
        # in here)
        self.break_iterator_factory = (break_iterator_factory
                                       or SentenceBreakIterator)

    def _offsets(self, content: str, terms: set[str], matchers):
        """ANALYSIS offset strategy: merged per-term match offsets with
        in-doc frequencies, sorted by (start, end, term)."""
        occ: list[tuple[int, int, str]] = []
        freqs: dict[str, int] = {}
        for tok, s, e, _typ in scan(content):
            for term in self.normalize(tok):
                if term is None:
                    continue
                hit = None
                if term in terms:
                    hit = term
                else:
                    for label, pred in matchers:
                        if pred(term):
                            hit = label
                            break
                if hit is not None:
                    occ.append((s, e, hit))
                    freqs[hit] = freqs.get(hit, 0) + 1
        occ.sort()
        return [(s, e, t, freqs[t]) for s, e, t in occ]

    def highlight(self, content: str, query, max_passages: int = 1):
        """Best-passage snippet, or the no-highlight summary (first
        sentences) when nothing matches, or None for empty content."""
        if not content:
            return None
        if isinstance(query, (set, frozenset, list, tuple)):
            terms, matchers = set(query), []
        else:
            terms, matchers = extract_highlight_terms(query)
        text = content[:self.max_length]
        bi = self.break_iterator_factory(text)
        fh = FieldHighlighter(self.scorer, max_passages,
                              self.max_no_highlight_passages)
        offsets = self._offsets(text, terms, matchers)
        passages = fh.highlight_offsets(offsets, bi, len(text))
        if not passages:
            passages = fh.summary_passages(bi)
        if not passages:
            return None
        return self.formatter.format(passages, text)


def highlight_hits_unified(searcher, query, fetch_text, k: int = 10,
                           max_passages: int = 1, **kw):
    """Search + unified snippet per hit: [(ScoreDoc, snippet|None)].
    The index analyzer chain's 1:1 stages normalize both the query terms
    (searcher._normalize) and each content token, so a stemmed index
    highlights 'merges' for query 'merge' (AnalysisOffsetStrategy)."""
    top = searcher.search(query, k=k)
    norm_q = searcher._normalize(query)
    uh = UnifiedHighlighter(
        normalize=lambda tok: (searcher._ft(jdk_lower(tok)),), **kw)
    out = []
    for sd in top.hits:
        text = fetch_text(sd)
        out.append((sd, None if text is None
                    else uh.highlight(text, norm_q,
                                      max_passages=max_passages)))
    return out

"""Per-shard query execution over the posting-shard format.

Boolean scoring routes, all bit-identical in top-k docs and float32 scores
(score desc, docID asc tie-break) — asserted by tests/test_routes.py:

- :func:`search_shard_exhaustive` — the CheckHits-style reference
  (`test-framework/.../CheckHits.java:57`) for the full boolean algebra
  (SHOULD/MUST/FILTER/MUST_NOT + minimumNumberShouldMatch).  It picks a
  candidate route by shape: required-lead (MUST/FILTER bitmask intersect,
  then clause-order scoring at candidates), msm-lead (uint8 match-count
  scatter), or the dense term-at-a-time float32 accumulator.
- :func:`search_shard_maxscore` — block-max pruning for dense pure
  disjunctions: the MaxScoreBulkScorer essential/non-essential partition
  (`search/MaxScoreBulkScorer.java`), bounding terms from the per-block
  impact skylines (`search/MaxScoreCache.java:60-112`) and reading
  non-essential terms through the skip tables only at surviving
  candidates, with Lucene's totalHitsThreshold semantics (pruning arms only
  after `threshold` hits; `IndexSearcher.java:101`).

The reference's document-at-a-time WANDScorer has no separate engine here:
per-window Python bookkeeping lost to these vectorized routes on every
measured query shape.

One phrase executor, :func:`search_shard_phrase` (PhraseWeight), serves
PhraseQuery, MultiPhraseQuery, NGramPhraseQuery and ComplexPhraseQuery —
asserted against brute force by tests/test_phrase_routes.py.  Candidates
are the AND of the slots' doc-unions minus deletes; then one of two kernels:

- slop 0 — ExactPhraseMatcher, vectorized: (doc, position - offset)
  composite keys per slot (a multi-term slot's keys are the union of its
  terms'), intersected across slots; freq = aligned start positions.
- slop > 0 — :class:`~.phrase_matcher.SloppyPhraseMatcher` per candidate
  doc (repeat groups, multi-term slots, float32 freq).
"""

from __future__ import annotations

import numpy as np

from ..index.postings import BLOCK_SIZE, decode_tail
from .phrase_matcher import SloppyPhraseMatcher
from .query import FILTER, MUST, MUST_NOT, SHOULD

TOTAL_HITS_THRESHOLD = 1000
RELATION_EQ = "EQUAL_TO"
RELATION_GTE = "GREATER_THAN_OR_EQUAL_TO"


def _top_k(scores: np.ndarray, docs: np.ndarray, k: int):
    """(score desc, doc asc) selection — HitQueue order (`search/HitQueue.java`).

    O(n) preselection via argpartition (exact tie handling: every doc
    scoring above the k-th value survives; boundary ties resolve by
    smallest docID), then an exact lexsort of only the surviving pool —
    the full-candidate lexsort was the dominant per-shard cost for hot
    queries (hundreds of thousands of candidates for k=10)."""
    n = len(scores)
    if k < n and n > 2048:
        kth = -np.partition(-scores, k - 1)[k - 1]       # k-th largest
        gt = scores > kth
        eq_idx = np.nonzero(scores == kth)[0]
        need = k - int(np.count_nonzero(gt))
        if len(eq_idx) > need:
            eq_idx = eq_idx[np.argpartition(docs[eq_idx], need - 1)[:need]] \
                if need > 0 else eq_idx[:0]
        keep = np.concatenate((np.nonzero(gt)[0], eq_idx))
        scores, docs = scores[keep], docs[keep]
    order = np.lexsort((docs, -scores))
    if len(order) > k:
        order = order[:k]
    return scores[order], docs[order]


def search_shard_exhaustive(reader, compiled, k: int, after=None):
    """Exhaustive boolean scoring over one shard.

    compiled: dict with keys scoring [(term, scorer, occur)], filters [term],
    must_nots [term], msm int, n_required int (MUST+FILTER count).
    Returns (scores f32[], local_docs i32[], total_hits, relation).
    """
    # required-lead fast path: when MUST/FILTER clauses exist (and no
    # minShouldMatch), eligibility is their intersection — compute it with
    # dense bitmasks FIRST and score every clause only at candidate
    # positions (clause order, so float32 sums stay bit-identical to the
    # full accumulator; adding 0.0f for non-matching docs is exact).  The
    # old path decoded+scored+scattered every posting of every term.
    if compiled["n_required"] and not compiled["msm"] \
            and not compiled.get("match_all"):
        return _search_shard_required_lead(reader, compiled, k, after)
    if (compiled["msm"] >= 2 and not compiled["n_required"]
            and not compiled["filters"]
            and not compiled.get("range_filters")
            and not compiled.get("range_must_nots")
            and not compiled.get("match_all")
            and 2 <= len(compiled["scoring"]) < 255):
        return _search_shard_msm_lead(reader, compiled, k, after)
    return _search_shard_taat(reader, compiled, k, after)


def _search_shard_taat(reader, compiled, k: int, after=None):
    """Full term-at-a-time accumulator: decode and score every posting of
    every clause into a dense float32 array (clause order), then apply the
    boolean matching rules.  Handles every shape search_shard_exhaustive
    accepts; the candidate routes are equivalent shortcuts."""
    n = reader.doc_count
    norms = reader.norms
    acc = np.zeros(n, dtype=np.float32)
    matched = np.zeros(n, dtype=bool)
    req_cnt = np.zeros(n, dtype=np.int16) if compiled["n_required"] else None
    should_cnt = np.zeros(n, dtype=np.int16) if compiled["msm"] else None

    any_scoring = False
    for term, scorer, occur in compiled["scoring"]:
        tid = reader.seek_exact(term)
        if tid < 0:
            if occur == MUST:
                return (np.zeros(0, np.float32), np.zeros(0, np.int32), 0, RELATION_EQ)
            continue
        any_scoring = True
        docs, freqs = reader.postings(tid)
        acc[docs] += scorer.score(freqs, norms[docs])
        matched[docs] = True
        if occur == MUST and req_cnt is not None:
            req_cnt[docs] += 1
        if occur == SHOULD and should_cnt is not None:
            should_cnt[docs] += 1

    for term in compiled["filters"]:
        tid = reader.seek_exact(term)
        if tid < 0:
            return (np.zeros(0, np.float32), np.zeros(0, np.int32), 0, RELATION_EQ)
        docs, _ = reader.postings(tid)
        matched[docs] = True
        req_cnt[docs] += 1

    # BooleanWeight matching rules (Boolean2ScorerSupplier): when any
    # required clause exists (MUST / FILTER / range FILTER) and
    # minShouldMatch == 0, SHOULD clauses are scoring-only; without required
    # clauses at least one positive clause must match.
    #
    # IndexOrDocValuesQuery cost model (`search/IndexOrDocValuesQuery.java`
    # ScorerSupplier.get(leadCost)): when required TERM clauses lead, range
    # clauses are verified per-candidate against doc-values (the dvQuery
    # path) after the candidate set is known; only when the range itself
    # must lead (no required term clauses) is the full-shard mask computed
    # (the indexQuery path, with shard min/max pruning).
    range_filters = compiled.get("range_filters")
    range_must_nots = compiled.get("range_must_nots")
    dv_verify = req_cnt is not None            # term clauses lead the iteration
    rq_mask = None if dv_verify else _range_mask(reader, range_filters, None)
    if req_cnt is not None:
        eligible = req_cnt == compiled["n_required"]
    elif rq_mask is not None:
        eligible = np.ones(n, dtype=bool)
    else:
        eligible = matched
    if rq_mask is not None:
        eligible = eligible & rq_mask
    if not dv_verify:
        # each MUST_NOT range excludes independently (docs inside ANY of them)
        for spec in (range_must_nots or ()):
            eligible = eligible & ~_range_mask(reader, [spec], None)
    if compiled["msm"] and should_cnt is not None:
        eligible = eligible & (should_cnt >= compiled["msm"])

    for term in compiled["must_nots"]:
        tid = reader.seek_exact(term)
        if tid >= 0:
            docs, _ = reader.postings(tid)
            eligible = eligible.copy()
            eligible[docs] = False

    if reader.deleted is not None:
        eligible = eligible & ~reader.deleted

    cand = np.nonzero(eligible)[0].astype(np.int32)
    if dv_verify and (range_filters or range_must_nots) and len(cand):
        cand = _verify_ranges(reader, cand, range_filters, range_must_nots)
    sc = acc[cand]
    # totalHits counts every match, including hits on previous pages
    # (TopScoreDocCollector paging collector increments before cursor check)
    total = int(len(cand))
    if after is not None:
        a_score, a_doc = np.float32(after[0]), after[1]
        keep = (sc < a_score) | ((sc == a_score) & (cand.astype(np.int64) > a_doc))
        cand, sc = cand[keep], sc[keep]
    sc, cand = _top_k(sc, cand, k)
    return sc, cand, total, RELATION_EQ


def _search_shard_required_lead(reader, compiled, k: int, after=None):
    """Required-lead boolean execution: intersect MUST/FILTER postings with
    dense bitmasks, subtract MUST_NOTs, verify ranges per candidate, then
    score every scoring clause ONLY at candidate positions (clause order —
    float32 sums bit-identical to the full accumulator)."""
    n = reader.doc_count

    def _empty():
        return (np.zeros(0, np.float32), np.zeros(0, np.int32), 0,
                RELATION_EQ)

    mask = None
    req_terms = [t for t, _s, o in compiled["scoring"] if o == MUST]
    req_terms += list(compiled["filters"])
    for term in req_terms:
        tid = reader.seek_exact(term)
        if tid < 0:
            return _empty()
        docs, _ = reader.postings(tid)
        m = np.zeros(n, dtype=bool)
        m[docs] = True
        if mask is None:
            mask = m
        else:
            mask &= m
    for term in compiled["must_nots"]:
        tid = reader.seek_exact(term)
        if tid >= 0:
            docs, _ = reader.postings(tid)
            mask[docs] = False
    if reader.deleted is not None:
        mask &= ~reader.deleted
    cand = np.nonzero(mask)[0].astype(np.int32)
    range_filters = compiled.get("range_filters")
    range_must_nots = compiled.get("range_must_nots")
    if (range_filters or range_must_nots) and len(cand):
        cand = _verify_ranges(reader, cand, range_filters, range_must_nots)
    resolved = []
    for term, scorer, _occur in compiled["scoring"]:
        tid = reader.seek_exact(term)
        if tid < 0:
            continue                    # absent SHOULD (MUST returned above)
        resolved.append((tid, scorer))
    acc = _score_candidates(reader, resolved, cand, n)
    total = int(len(cand))
    if after is not None:
        a_score, a_doc = np.float32(after[0]), after[1]
        keep = (acc < a_score) | ((acc == a_score)
                                  & (cand.astype(np.int64) > a_doc))
        cand, acc = cand[keep], acc[keep]
    sc, cand = _top_k(acc, cand, k)
    return sc, cand, total, RELATION_EQ


def _score_candidates(reader, resolved, cand: np.ndarray, n: int):
    """Clause-order float32 scores at candidate docIDs, choosing between
    per-candidate skip-table lookups (selective) and per-clause dense
    scatter-add + gather (dense) by cost; both give bit-identical sums."""
    sum_df = sum(int(reader._df[tid]) for tid, _ in resolved)
    if len(cand) * 4 <= sum_df:
        acc = np.zeros(len(cand), dtype=np.float32)
        for tid, scorer in resolved:
            acc += _term_scores_at(reader, tid, scorer, cand)
        return acc
    norms = reader.norms
    dense = np.zeros(n, dtype=np.float32)
    for tid, scorer in resolved:
        docs, freqs = reader.postings(tid)
        dense[docs] += scorer.score(freqs, norms[docs])
    return dense[cand]


def _search_shard_msm_lead(reader, compiled, k: int, after=None):
    """minimumShouldMatch execution: one uint8 match-count scatter per
    clause, threshold to the candidate set, then the shared two-mode
    candidate scoring (clause-order float32, bit-identical)."""
    n = reader.doc_count
    cnt = np.zeros(n, dtype=np.uint8)
    resolved = []
    for term, scorer, _occur in compiled["scoring"]:
        tid = reader.seek_exact(term)
        if tid < 0:
            continue
        resolved.append((tid, scorer))
        docs, _ = reader.postings(tid)
        cnt[docs] += 1
    mask = cnt >= np.uint8(compiled["msm"])
    for term in compiled["must_nots"]:
        tid = reader.seek_exact(term)
        if tid >= 0:
            docs, _ = reader.postings(tid)
            mask[docs] = False
    if reader.deleted is not None:
        mask &= ~reader.deleted
    cand = np.nonzero(mask)[0].astype(np.int32)
    acc = _score_candidates(reader, resolved, cand, n)
    total = int(len(cand))
    if after is not None:
        a_score, a_doc = np.float32(after[0]), after[1]
        keep = (acc < a_score) | ((acc == a_score)
                                  & (cand.astype(np.int64) > a_doc))
        cand, acc = cand[keep], acc[keep]
    sc, cand = _top_k(acc, cand, k)
    return sc, cand, total, RELATION_EQ


def _term_scores_at(reader, tid, scorer, docs_q: np.ndarray) -> np.ndarray:
    """float32 score contribution of term `tid` at the given sorted local
    docIDs (0 where the term does not match).  Decodes only the blocks that
    contain query docs (the skip table doubles as the seek structure) unless
    the query set touches most blocks, in which case one batched full
    decode + searchsorted lookup is cheaper."""
    norms = reader.norms
    out = np.zeros(len(docs_q), dtype=np.float32)
    df = int(reader._df[tid])
    if df == 0 or not len(docs_q):
        return out
    cached = reader.postings_if_cached(tid) \
        if hasattr(reader, "postings_if_cached") else None
    if cached is not None:
        docs, freqs = cached
        pos = np.searchsorted(docs, docs_q)
        pos_c = np.minimum(pos, len(docs) - 1)
        hit = docs[pos_c] == docs_q
        if hit.any():
            out[hit] = scorer.score(freqs[pos_c[hit]], norms[docs_q[hit]])
        return out
    so, sl, _, _, _ = reader.skip_data(tid)
    bi_of = np.searchsorted(sl, docs_q, side="left")
    valid = bi_of < len(sl)
    blocks = np.unique(bi_of[valid])
    if not len(blocks):             # every query doc lies past the last posting
        return out
    n_full = df // BLOCK_SIZE
    if len(blocks) * 2 > len(sl) or n_full < 4:
        docs, freqs = reader.postings(tid)          # batched full decode
    else:
        # batched SUBSET decode: only blocks containing query docs
        from ..index.postings import decode_blocks

        payload = reader.payload(tid)
        parts = []
        full_sel = blocks[blocks < n_full]
        if len(full_sel):
            parts.append(decode_blocks(payload, df, so, sl, full_sel))
        if blocks[-1] == n_full:                    # vint tail touched
            prev_last = int(sl[n_full - 1]) if n_full > 0 else -1
            parts.append(decode_tail(payload, int(so[n_full]),
                                     df % BLOCK_SIZE, prev_last))
        if not parts:
            return out
        docs = np.concatenate([p[0] for p in parts])
        freqs = np.concatenate([p[1] for p in parts])
    pos = np.searchsorted(docs, docs_q)
    pos_c = np.minimum(pos, len(docs) - 1)
    hit = docs[pos_c] == docs_q
    if hit.any():
        out[hit] = scorer.score(freqs[pos_c[hit]], norms[docs_q[hit]])
    return out


def search_shard_maxscore(reader, compiled, k: int, *,
                          threshold: int = TOTAL_HITS_THRESHOLD):
    """Impact-ordered TAAT for DENSE pure disjunctions — the
    MaxScoreBulkScorer essential/non-essential partition
    (`search/MaxScoreBulkScorer.java:1-120`) re-expressed for the
    vectorized accumulator engine.

    Exhaustive TAAT decodes EVERY posting of EVERY term, which is the
    100M-doc p99 tail for dense disjunctions.  This path processes terms in
    max-impact-DESCENDING order and, before each term, checks whether the
    k-th partial score already exceeds the sum of the remaining terms'
    max scores (the MaxScore invariant): once it does, the remaining
    ("non-essential") terms cannot introduce new competitive docs, so
    their long posting lists are never fully decoded — contributions are
    looked up only at surviving-candidate positions via the skip table.

    Float32 exactness: partial sums accumulate in processing order, so a
    final CLAUSE-ORDER rescore of a small top pool (4k+64) reproduces the
    TAAT accumulator's left-to-right additions bit-identically; pruning
    bounds carry an upward-rounding compensation for float32 accumulation
    (MaxScoreSumPropagator.sumUpperBound) plus a symmetric downward slack
    on theta.  Applies to: all-SHOULD scoring clauses, msm <= 1, no
    filters / must_nots / ranges, no paging cursor.  Pruning arms only
    after `threshold` collected hits (totalHitsThreshold semantics);
    un-pruned runs return exact totals with EQUAL_TO."""
    n = reader.doc_count
    norms = reader.norms
    resolved = []
    for term, scorer, _occur in compiled["scoring"]:
        tid = reader.seek_exact(term)
        if tid < 0:
            continue
        _, _, _, if_, in_ = reader.skip_data(tid)
        tmax = float(scorer.score(if_, in_).max()) if len(if_) else 0.0
        resolved.append((tid, scorer, tmax, int(reader._df[tid])))
    if not resolved:
        return (np.zeros(0, np.float32), np.zeros(0, np.int32), 0,
                RELATION_EQ)
    order = sorted(resolved, key=lambda t: -t[2])
    m = len(order)
    maxes = np.array([t[2] for t in order], dtype=np.float64)
    suffix = np.concatenate((np.cumsum(maxes[::-1])[::-1], [0.0]))
    infl = 1.0 + 2.0 * m * 2.0 ** -24          # upward-rounding compensation
    slack = 1.0 - 4.0 * m * 2.0 ** -24         # symmetric theta down-slack
    live = None if reader.deleted is None else ~reader.deleted

    acc = np.zeros(n, dtype=np.float32)
    matched = np.zeros(n, dtype=bool)
    theta = -np.inf
    stop_i = m
    keep_mask = None
    for i, (tid, scorer, tmax, _df) in enumerate(order):
        if i >= 1 and suffix[i] < suffix[0] - suffix[i]:
            # bound check.  The k-th lower bound comes from a STRIDED SAMPLE
            # of the accumulator (any subset's k-th largest underestimates
            # the full k-th, so it is always a valid pruning bound) — the
            # full gather+partition per term cost more than it saved on
            # dense shards.
            lv = matched if live is None else (matched & live)
            collected = int(np.count_nonzero(lv))
            if collected >= max(k, threshold):
                theta_cand = theta
                step = max(1, n >> 15)
                sample = acc if step == 1 else acc[::step]
                if live is not None:
                    sample = np.where(live if step == 1 else live[::step],
                                      sample, np.float32(0))
                if len(sample) >= k:
                    kth = float(np.partition(sample, len(sample) - k)
                                [len(sample) - k])
                    if kth > 0:
                        theta_cand = max(theta_cand, kth * slack)
                if theta_cand >= suffix[i] * infl:
                    # cost model: restriction only wins when the surviving
                    # candidate set is much smaller than the remaining
                    # postings mass — an all-hot disjunction keeps most
                    # matched docs competitive, and there one vectorized
                    # scatter-add beats per-candidate lookups.  Estimate
                    # |C| from the same strided sample before paying the
                    # O(n) mask.
                    rem_df = sum(t[3] for t in order[i:])
                    r32 = np.float32(suffix[i] * infl)
                    t32 = np.float32(theta_cand)
                    c_est = int(np.count_nonzero(
                        (acc if step == 1 else acc[::step]) + r32 >= t32)
                        ) * step
                    if c_est * 6 <= rem_df:
                        theta = theta_cand
                        km = lv & (acc + r32 >= t32)
                        if int(np.count_nonzero(km)) * 8 <= rem_df:
                            stop_i = i
                            keep_mask = km
                            break
        docs, freqs = reader.postings(tid)
        acc[docs] += scorer.score(freqs, norms[docs])
        matched[docs] = True

    if live is not None:
        matched &= live
    pruned = stop_i < m
    if pruned:
        total = int(np.count_nonzero(matched))
        relation = RELATION_GTE
        cand = np.nonzero(keep_mask)[0].astype(np.int32)
        for tid, scorer, _tmax, _df in order[stop_i:]:
            acc[cand] += _term_scores_at(reader, tid, scorer, cand)
    else:
        cand = np.nonzero(matched)[0].astype(np.int32)
        total = int(len(cand))
        relation = RELATION_EQ

    sc = acc[cand]
    pool_n = min(len(cand), 4 * k + 64)
    if len(cand) > pool_n:
        _, pool_docs = _top_k(sc, cand, pool_n)
        pool = np.sort(pool_docs)
    else:
        pool = cand
    # exact clause-order rescore: per-doc float32 additions in CLAUSE order
    # == the TAAT accumulator bit-identically
    exact = np.zeros(len(pool), dtype=np.float32)
    for term, scorer, _occur in compiled["scoring"]:
        tid = reader.seek_exact(term)
        if tid < 0:
            continue
        exact += _term_scores_at(reader, tid, scorer, pool)
    sc_k, docs_k = _top_k(exact, pool, k)
    return sc_k, docs_k, total, relation


def _verify_ranges(reader, cand: np.ndarray, range_filters, range_must_nots):
    """Doc-values verification at candidate positions only — the dvQuery arm
    of `search/IndexOrDocValuesQuery.java` (two-phase: the lead iterator
    produces candidates, ranges check `dv[cand]` instead of scanning the
    shard).  Shard min/max pruning still short-circuits whole shards."""
    for field, lo, hi in (range_filters or ()):
        if not len(cand):
            return cand
        mm = reader.docvalue_range(field)
        if mm is not None:
            if (lo is not None and mm[1] < lo) or (hi is not None and mm[0] > hi):
                return cand[:0]                          # shard fully outside
            if (lo is None or mm[0] >= lo) and (hi is None or mm[1] <= hi):
                continue                                 # shard fully inside
        dv = reader.docvalue(field)[cand]
        keep = np.ones(len(cand), dtype=bool)
        if lo is not None:
            keep &= dv >= lo
        if hi is not None:
            keep &= dv <= hi
        cand = cand[keep]
    for field, lo, hi in (range_must_nots or ()):
        if not len(cand):
            return cand
        mm = reader.docvalue_range(field)
        if mm is not None and ((lo is not None and mm[1] < lo)
                               or (hi is not None and mm[0] > hi)):
            continue                                     # shard fully outside: no-op
        dv = reader.docvalue(field)[cand]
        inside = np.ones(len(cand), dtype=bool)
        if lo is not None:
            inside &= dv >= lo
        if hi is not None:
            inside &= dv <= hi
        cand = cand[~inside]
    return cand


def _range_mask(reader, range_filters, range_must_nots):
    """Boolean mask over local docs for doc-values range clauses (None when
    there are no range clauses).  Shard min/max pruning short-circuits the
    per-doc compare when the whole shard is inside / outside the range."""
    if not range_filters and not range_must_nots:
        return None
    n = reader.doc_count
    mask = np.ones(n, dtype=bool)
    for field, lo, hi in (range_filters or ()):
        mm = reader.docvalue_range(field)
        if mm is not None:
            if (lo is not None and mm[1] < lo) or (hi is not None and mm[0] > hi):
                return np.zeros(n, dtype=bool)          # shard fully outside
            if (lo is None or mm[0] >= lo) and (hi is None or mm[1] <= hi):
                continue                                 # shard fully inside
        dv = reader.docvalue(field)
        if lo is not None:
            mask &= dv >= lo
        if hi is not None:
            mask &= dv <= hi
    for field, lo, hi in (range_must_nots or ()):
        mm = reader.docvalue_range(field)
        if mm is not None and ((lo is not None and mm[1] < lo)
                               or (hi is not None and mm[0] > hi)):
            continue                                     # shard fully outside: no-op
        dv = reader.docvalue(field)
        m = np.ones(n, dtype=bool)
        if lo is not None:
            m &= dv >= lo
        if hi is not None:
            m &= dv <= hi
        mask &= ~m
    return mask


def search_shard_range(reader, spec, boost: float, k: int, after=None):
    """Standalone RangeQuery: constant-score docs whose doc-value lies in
    [lo, hi] (PointRangeQuery constant-score rewrite; docID-order ties).

    When the column is sorted in docID order (an index-sort field), the
    match set is a contiguous docID run found by binary search — the
    IndexSortSortedNumericDocValuesRangeQuery optimization
    (`sandbox/.../IndexSortSortedNumericDocValuesRangeQuery.java`
    BoundedDocIdSetIterator): O(log n) instead of a full-column compare."""
    field, lo, hi = spec
    if reader.docvalue_is_sorted(field):
        dv = reader.docvalue(field)
        lo_i = int(np.searchsorted(dv, lo, side="left")) \
            if lo is not None else 0
        hi_i = int(np.searchsorted(dv, hi, side="right")) \
            if hi is not None else len(dv)
        cand = np.arange(lo_i, max(hi_i, lo_i), dtype=np.int32)
        if reader.deleted is not None and len(cand):
            cand = cand[~reader.deleted[cand]]
        sc = np.full(len(cand), np.float32(boost), dtype=np.float32)
        total = int(len(cand))
        if after is not None:
            a_s, a_d = np.float32(after[0]), after[1]
            keep = (sc < a_s) | ((sc == a_s) & (cand.astype(np.int64) > a_d))
            cand, sc = cand[keep], sc[keep]
        return sc[:k], cand[:k], total, RELATION_EQ
    mask = _range_mask(reader, [spec], None)
    if reader.deleted is not None:
        mask = mask & ~reader.deleted
    cand = np.nonzero(mask)[0].astype(np.int32)
    sc = np.full(len(cand), np.float32(boost), dtype=np.float32)
    total = int(len(cand))
    if after is not None:
        a_s, a_d = np.float32(after[0]), after[1]
        keep = (sc < a_s) | ((sc == a_s) & (cand.astype(np.int64) > a_d))
        cand, sc = cand[keep], sc[keep]
    return sc[:k], cand[:k], total, RELATION_EQ


def search_shard_points(reader, query, boost: float, k: int, after=None):
    """BKD point query over one shard: constant-score docs whose point
    matches the query (PointRangeQuery / PointInSetQuery /
    LatLonDistanceQuery constant-score rewrite; docID-order ties).  Shard
    manifest min/max bounds prune before any sidecar is touched."""
    from .geo import LatLonDistanceQuery, LatLonPolygonQuery, circle_bbox, \
        distance_query_docs, encode_latitude, encode_longitude, \
        polygon_query_docs
    from .query import PointInSetQuery, PointMultiRangeQuery, \
        PointRangeQuery, RangeFieldQuery
    from .xy import XYDistanceQuery, XYPolygonQuery, xy_distance_docs, \
        xy_polygon_docs

    def _empty():
        return (np.zeros(0, np.float32), np.zeros(0, np.int32), 0, RELATION_EQ)

    bounds = reader.point_bounds(query.field)
    if bounds is None:
        return _empty()
    smin, smax = bounds

    if isinstance(query, RangeFieldQuery):
        cand = _range_field_docs(reader.points(query.field), query)
    elif isinstance(query, PointMultiRangeQuery):
        pr = reader.points(query.field)
        parts = [pr.intersect_box(lo, hi) for lo, hi in query.ranges]
        cand = np.unique(np.concatenate(parts)) if parts \
            else np.zeros(0, np.int32)
    elif isinstance(query, XYDistanceQuery):
        cand = xy_distance_docs(reader.points(query.field), query)
    elif isinstance(query, XYPolygonQuery):
        cand = xy_polygon_docs(reader.points(query.field), query)
    elif isinstance(query, PointRangeQuery):
        lo, hi = query.lower, query.upper
        for d in range(len(lo)):
            if (lo[d] is not None and smax[d] < lo[d]) or \
                    (hi[d] is not None and smin[d] > hi[d]):
                return _empty()                       # shard fully outside
        cand = reader.points(query.field).intersect_box(lo, hi)
    elif isinstance(query, PointInSetQuery):
        vals = [v for v in query.values
                if all(smin[d] <= v[d] <= smax[d] for d in range(len(v)))]
        if not vals:
            return _empty()
        pr = reader.points(query.field)
        parts = [pr.intersect_box(v, v) for v in vals]
        cand = np.unique(np.concatenate(parts))
    elif isinstance(query, LatLonDistanceQuery) or \
            type(query).__name__ == "Geo3DCircleQuery":
        # Geo3D's WGS84 circles prune with an inflated radius
        radius = getattr(query, "prune_radius_m", query.radius_m)
        min_lat, max_lat, min_lon, max_lon = circle_bbox(
            query.lat, query.lon, radius)
        if int(encode_latitude(max_lat)) < smin[0] or \
                int(encode_latitude(min_lat)) > smax[0]:
            return _empty()
        if min_lon <= max_lon and (int(encode_longitude(max_lon)) < smin[1]
                                   or int(encode_longitude(min_lon)) > smax[1]):
            return _empty()
        if isinstance(query, LatLonDistanceQuery):
            cand = distance_query_docs(reader.points(query.field), query)
        else:
            from .geo3d import geo3d_circle_docs

            cand = geo3d_circle_docs(reader.points(query.field), query)
    elif isinstance(query, LatLonPolygonQuery):
        if int(encode_latitude(max(query.lats))) < smin[0] or \
                int(encode_latitude(min(query.lats))) > smax[0] or \
                int(encode_longitude(max(query.lons))) < smin[1] or \
                int(encode_longitude(min(query.lons))) > smax[1]:
            return _empty()
        cand = polygon_query_docs(reader.points(query.field), query)
    else:                                              # pragma: no cover
        raise TypeError(type(query))

    if reader.deleted is not None and len(cand):
        cand = cand[~reader.deleted[cand]]
    cand = cand.astype(np.int32)
    sc = np.full(len(cand), np.float32(boost), dtype=np.float32)
    total = int(len(cand))
    if after is not None:
        a_s, a_d = np.float32(after[0]), after[1]
        keep = (sc < a_s) | ((sc == a_s) & (cand.astype(np.int64) > a_d))
        cand, sc = cand[keep], sc[keep]
    return sc[:k], cand[:k], total, RELATION_EQ


def search_shard_feature(reader, q, pivot, k: int, after=None):
    """FeatureQuery over one shard: docs whose encoded feature freq is > 0,
    scored by the feature function (`document/FeatureField.java` SimScorers,
    vectorized over the doc-values column); score-desc, docID-asc ties."""
    from .feature import score_feature

    dv = np.asarray(reader.docvalue(q.field), dtype=np.int64)
    matched = dv > 0
    if reader.deleted is not None:
        matched &= ~reader.deleted
    cand = np.nonzero(matched)[0].astype(np.int32)
    sc = score_feature(dv[cand], q, pivot)
    total = int(len(cand))
    if after is not None:
        a_s, a_d = np.float32(after[0]), after[1]
        keep = (sc < a_s) | ((sc == a_s) & (cand.astype(np.int64) > a_d))
        cand, sc = cand[keep], sc[keep]
    sc, cand = _top_k(sc, cand, k)
    return sc, cand, total, RELATION_EQ


def search_shard_long_distance_feature(reader, q, k: int, after=None):
    """LongDistanceFeatureQuery over one shard: every live doc carrying the
    dv column matches (dense columns here — the reference iterates docs
    with a value), scored by the float32 distance saturation
    (`document/LongDistanceFeatureQuery.java:270-271`)."""
    from .feature import score_long_distance

    dv = np.asarray(reader.docvalue(q.field), dtype=np.int64)
    if reader.deleted is not None:
        cand = np.nonzero(~reader.deleted)[0].astype(np.int32)
    else:
        cand = np.arange(len(dv), dtype=np.int32)
    sc = score_long_distance(dv[cand], q)
    total = int(len(cand))
    if after is not None:
        a_s, a_d = np.float32(after[0]), after[1]
        keep = (sc < a_s) | ((sc == a_s) & (cand.astype(np.int64) > a_d))
        cand, sc = cand[keep], sc[keep]
    sc, cand = _top_k(sc, cand, k)
    return sc, cand, total, RELATION_EQ


def search_shard_geo_distance_feature(reader, q, k: int, after=None):
    """LatLonPointDistanceFeatureQuery over one shard: docs with an indexed
    point, scored weight * pivot/(pivot + haversine_m) on their closest
    point (`document/LatLonPointDistanceFeatureQuery.java:129-130`)."""
    from .geo import geo_distance_feature_scores

    pr = reader.points(q.field)
    if pr is None or pr.n_points == 0:
        return np.zeros(0, np.float32), np.zeros(0, np.int32), 0, RELATION_EQ
    cand, sc = geo_distance_feature_scores(pr, q)
    if reader.deleted is not None and len(cand):
        live = ~reader.deleted[cand]
        cand, sc = cand[live], sc[live]
    total = int(len(cand))
    if after is not None:
        a_s, a_d = np.float32(after[0]), after[1]
        keep = (sc < a_s) | ((sc == a_s) & (cand.astype(np.int64) > a_d))
        cand, sc = cand[keep], sc[keep]
    sc, cand = _top_k(sc, cand, k)
    return sc, cand, total, RELATION_EQ


def _range_field_docs(pr, q) -> np.ndarray:
    """RangeFieldQuery relations as box visits over the 2k-dim sidecar
    (first k dims store range mins, last k store maxes)."""
    k = pr.ndims // 2
    none = (None,) * k

    def intersects():
        # doc.min_d <= q.max_d (upper bound on min dims) AND
        # doc.max_d >= q.min_d (lower bound on max dims)
        return pr.intersect_box(none + q.lower, q.upper + none)

    def within():
        return pr.intersect_box(q.lower + none, none + q.upper)

    if q.relation == "intersects":
        return intersects()
    if q.relation == "within":
        return within()
    if q.relation == "contains":
        return pr.intersect_box(none + q.upper, q.lower + none)
    return np.setdiff1d(intersects(), within())        # crosses


def search_shard_shape(reader, query, boost: float, k: int, after=None):
    """LatLonShapeQuery over one shard: constant-score docs whose indexed
    shape relates to the query polygon (bbox BKD prune + exact verify —
    `search/shapes.py`)."""
    from .shapes import shape_query_docs

    cand = shape_query_docs(reader, query)
    if reader.deleted is not None and len(cand):
        cand = cand[~reader.deleted[cand]]
    cand = cand.astype(np.int32)
    sc = np.full(len(cand), np.float32(boost), dtype=np.float32)
    total = int(len(cand))
    if after is not None:
        a_s, a_d = np.float32(after[0]), after[1]
        keep = (sc < a_s) | ((sc == a_s) & (cand.astype(np.int64) > a_d))
        cand, sc = cand[keep], sc[keep]
    return sc[:k], cand[:k], total, RELATION_EQ


def search_shard_dv_numbers(reader, query, k: int, after=None):
    """DocValuesNumbersQuery: constant-score docs whose doc-value is in the
    set (np.isin over the column; shard manifest min/max prunes first)."""
    vals = np.asarray(query.values, dtype=np.int64)
    r = reader.docvalue_range(query.field)
    if r is not None:
        vals = vals[(vals >= r[0]) & (vals <= r[1])]
    if len(vals) == 0:
        return np.zeros(0, np.float32), np.zeros(0, np.int32), 0, RELATION_EQ
    dv = np.asarray(reader.docvalue(query.field), dtype=np.int64)
    mask = np.isin(dv, vals)
    if reader.deleted is not None:
        mask &= ~reader.deleted
    cand = np.nonzero(mask)[0].astype(np.int32)
    sc = np.ones(len(cand), dtype=np.float32)
    total = int(len(cand))
    if after is not None:
        a_s, a_d = np.float32(after[0]), after[1]
        keep = (sc < a_s) | ((sc == a_s) & (cand.astype(np.int64) > a_d))
        cand, sc = cand[keep], sc[keep]
    return sc[:k], cand[:k], total, RELATION_EQ


def _const_score_hits(cand: np.ndarray, k: int, after):
    """Shared constant-score tail: sorted candidate docIDs -> (scores, docs,
    total, relation) with searchAfter cursoring."""
    sc = np.ones(len(cand), dtype=np.float32)
    total = int(len(cand))
    if after is not None:
        a_s, a_d = np.float32(after[0]), after[1]
        keep = (sc < a_s) | ((sc == a_s) & (cand.astype(np.int64) > a_d))
        cand, sc = cand[keep], sc[keep]
    return sc[:k], cand[:k], total, RELATION_EQ


def search_shard_sorted_numeric_range(reader, query, k: int, after=None):
    """SortedNumericDocValuesField.newSlowRangeQuery: constant-score docs
    with ANY value of the multi-valued column in [lower, upper].  Vectorized
    over the CSR (offsets, values) view; shard flattened min/max prunes."""
    lo = -(1 << 63) if query.lower is None else int(query.lower)
    hi = (1 << 63) - 1 if query.upper is None else int(query.upper)
    r = reader.docvalue_range(query.field)
    if lo > hi or (r is not None and (hi < r[0] or lo > r[1])):
        return np.zeros(0, np.float32), np.zeros(0, np.int32), 0, RELATION_EQ
    offsets, values = reader.sorted_numeric_docvalue(query.field)
    inr = (values >= lo) & (values <= hi)
    parent = np.repeat(np.arange(len(offsets) - 1, dtype=np.int64),
                       np.diff(offsets))
    mask = np.zeros(len(offsets) - 1, dtype=bool)
    mask[parent[inr]] = True
    if reader.deleted is not None:
        mask &= ~reader.deleted
    return _const_score_hits(np.nonzero(mask)[0].astype(np.int32), k, after)


def search_shard_sorted_numeric_set(reader, query, k: int, after=None):
    """SortedNumericDocValuesField.newSlowSetQuery
    (`document/SortedNumericDocValuesSetQuery.java`): constant-score docs
    with ANY value of the multi-valued column in the set; shard flattened
    min/max prunes values outside the shard's domain first."""
    vals = np.asarray(query.values, dtype=np.int64)
    r = reader.docvalue_range(query.field)
    if r is not None:
        vals = vals[(vals >= r[0]) & (vals <= r[1])]
    if len(vals) == 0:
        return np.zeros(0, np.float32), np.zeros(0, np.int32), 0, RELATION_EQ
    offsets, values = reader.sorted_numeric_docvalue(query.field)
    inr = np.isin(values, vals)
    parent = np.repeat(np.arange(len(offsets) - 1, dtype=np.int64),
                       np.diff(offsets))
    mask = np.zeros(len(offsets) - 1, dtype=bool)
    mask[parent[inr]] = True
    if reader.deleted is not None:
        mask &= ~reader.deleted
    return _const_score_hits(np.nonzero(mask)[0].astype(np.int32), k, after)


def search_shard_sorted_set_range(reader, query, k: int, after=None):
    """SortedSetDocValuesField.newSlowRangeQuery: constant-score docs with
    any value of the multi-valued string column in the term range.  The
    bounds resolve to an ord window via binary search on the shard vocab."""
    offsets, ords, vocab = reader.sorted_set_docvalue(query.field)
    lo_ord = 0
    if query.lower is not None:
        side = "left" if query.include_lower else "right"
        lo_ord = int(np.searchsorted(vocab, query.lower, side=side))
    hi_ord = len(vocab)
    if query.upper is not None:
        side = "right" if query.include_upper else "left"
        hi_ord = int(np.searchsorted(vocab, query.upper, side=side))
    if lo_ord >= hi_ord:
        return np.zeros(0, np.float32), np.zeros(0, np.int32), 0, RELATION_EQ
    inr = (ords >= lo_ord) & (ords < hi_ord)
    parent = np.repeat(np.arange(len(offsets) - 1, dtype=np.int64),
                       np.diff(offsets))
    mask = np.zeros(len(offsets) - 1, dtype=bool)
    mask[parent[inr]] = True
    if reader.deleted is not None:
        mask &= ~reader.deleted
    return _const_score_hits(np.nonzero(mask)[0].astype(np.int32), k, after)


def search_shard_dv_rewrite(reader, query, expand_fn, k: int, after=None):
    """DocValuesRewriteMethod (`search/DocValuesRewriteMethod.java`): the
    wrapped MultiTermQuery intersects THIS shard's SortedSet dv vocab (the
    per-leaf automaton-vs-TermsEnum visit) to an ord set; constant-score
    docs carrying any matching ord."""
    offsets, ords, vocab = reader.sorted_set_docvalue(query.field)
    matched = expand_fn(vocab, query.query)
    if not matched:
        return np.zeros(0, np.float32), np.zeros(0, np.int32), 0, RELATION_EQ
    want = np.searchsorted(vocab, np.asarray(matched, dtype=vocab.dtype)) \
        .astype(np.int32)
    inr = np.isin(ords, want)
    parent = np.repeat(np.arange(len(offsets) - 1, dtype=np.int64),
                       np.diff(offsets))
    mask = np.zeros(len(offsets) - 1, dtype=bool)
    mask[parent[inr]] = True
    if reader.deleted is not None:
        mask &= ~reader.deleted
    return _const_score_hits(np.nonzero(mask)[0].astype(np.int32), k, after)


def search_shard_phrase(reader, slots, slop: int, scorer, k: int, after=None,
                        offsets=None):
    """The phrase executor (PhraseWeight) for PhraseQuery, MultiPhraseQuery,
    NGramPhraseQuery and ComplexPhraseQuery: slot i accepts any term of
    ``slots[i]`` (UnionPostingsEnum) at position ``offsets[i]`` (default i).

    Candidates are the AND of the slot doc-unions minus deletes; then slop 0
    runs the vectorized ExactPhraseMatcher (composite (doc, pos - offset)
    keys intersected across slots; freq = aligned start count) and slop > 0
    runs :class:`SloppyPhraseMatcher` per candidate doc (float freq).  The
    freq is scored like a term with the summed idf weight."""
    empty = (np.zeros(0, np.float32), np.zeros(0, np.int32), 0, RELATION_EQ)
    # seek every term before decoding any postings: a slot with no present
    # term means no match
    slot_tids = [[tid for tid in map(reader.seek_exact, ts) if tid >= 0]
                 for ts in slots]
    if not slot_tids or not all(slot_tids):
        return empty
    n_docs = reader.doc_count
    cand_mask = None
    slot_postings = []
    for tids in slot_tids:
        union = np.zeros(n_docs, dtype=bool)
        per_term = []
        for tid in tids:
            docs, freqs = reader.postings(tid)
            per_term.append((tid, docs, freqs))
            union[docs] = True
        cand_mask = union if cand_mask is None else cand_mask & union
        slot_postings.append(per_term)
    if reader.deleted is not None:
        cand_mask &= ~reader.deleted
    cand = np.nonzero(cand_mask)[0].astype(np.int32)
    if len(cand) == 0:
        return empty
    offs = list(offsets) if offsets is not None else list(range(len(slots)))

    # per slot, per present term: each candidate's [lo, hi) slice of the
    # term's flat positions, empty where the term is absent (every
    # candidate holds at least one term per slot, so a one-term slot's
    # term is in every candidate)
    spans = []
    for per_term in slot_postings:
        spans.append([])
        for tid, docs, freqs in per_term:
            flat, pb = reader.positions_with_bounds(tid, freqs)
            j = np.searchsorted(docs, cand)
            lo = pb[j]
            if len(per_term) == 1:
                hi = pb[j + 1]
            else:
                hit = docs[np.minimum(j, len(docs) - 1)] == cand
                hi = np.where(hit, pb[np.minimum(j + 1, len(docs))], lo)
            spans[-1].append((flat, lo, hi))

    if slop == 0:
        # the bias keeps every pos - offset + bias >= 0 for any offsets, so
        # the low 33 bits never borrow into the doc bits
        bias = np.int64(max(0, *offs))
        cand_keys = cand.astype(np.int64) << np.int64(33)
        inter = None
        for off, per_term in zip(offs, spans):
            keys = []
            for flat, lo, hi in per_term:
                lens = hi - lo
                ends = np.cumsum(lens)
                idx = np.repeat(lo - (ends - lens), lens) + np.arange(int(ends[-1]))
                keys.append(np.repeat(cand_keys, lens)
                            | (flat[idx].astype(np.int64) - off + bias))
            # one term: keys are sorted (doc asc, position asc); a multi-term
            # slot's key set is the union of its terms' keys
            comp = keys[0] if len(keys) == 1 else np.unique(np.concatenate(keys))
            if inter is None:
                inter = comp
            else:
                loc = np.minimum(np.searchsorted(comp, inter), len(comp) - 1)
                inter = inter[comp[loc] == inter]
            if len(inter) == 0:
                return empty
        pdocs, counts = np.unique(inter >> np.int64(33), return_counts=True)
        pdocs, pfreq = pdocs.astype(np.int32), counts.astype(np.float32)
    else:
        spans = [[(flat, lo.tolist(), hi.tolist()) for flat, lo, hi in per_term]
                 for per_term in spans]
        matcher = SloppyPhraseMatcher([tuple(ts) for ts in slots], slop, offsets=offs)
        freq = np.zeros(len(cand), dtype=np.float32)
        for c in range(len(cand)):
            pls = []
            for per_term in spans:
                if len(per_term) == 1:
                    flat, lo, hi = per_term[0]
                    pls.append(flat[lo[c]:hi[c]].astype(np.int64))
                else:
                    pls.append(np.sort(np.concatenate(
                        [flat[lo[c]:hi[c]] for flat, lo, hi in per_term]).astype(np.int64)))
            freq[c] = matcher.freq(pls)
        keep = freq > 0
        pdocs, pfreq = cand[keep], freq[keep]
    scores = scorer.score(pfreq, reader.norms[pdocs])
    total = int(len(pdocs))
    if after is not None:
        a_s, a_d = np.float32(after[0]), after[1]
        keep = (scores < a_s) | ((scores == a_s) & (pdocs.astype(np.int64) > a_d))
        pdocs, scores = pdocs[keep], scores[keep]
    scores, pdocs = _top_k(scores, pdocs, k)
    return scores, pdocs, total, RELATION_EQ


def search_shard_const(reader, terms: list[str], boost: float, k: int, after=None):
    """Constant-score union over expanded terms (MultiTermQuery
    CONSTANT_SCORE_REWRITE: every matching doc scores `boost`; tie-break is
    pure docID order)."""
    matched = np.zeros(reader.doc_count, dtype=bool)
    for t in terms:
        tid = reader.seek_exact(t)
        if tid >= 0:
            docs, _ = reader.postings(tid)
            matched[docs] = True
    if reader.deleted is not None:
        matched &= ~reader.deleted
    cand = np.nonzero(matched)[0].astype(np.int32)
    sc = np.full(len(cand), np.float32(boost), dtype=np.float32)
    total = int(len(cand))
    if after is not None:
        a_s, a_d = np.float32(after[0]), after[1]
        keep = (sc < a_s) | ((sc == a_s) & (cand.astype(np.int64) > a_d))
        cand, sc = cand[keep], sc[keep]
    return sc[:k], cand[:k], total, RELATION_EQ


def search_shard_dismax(reader, sub, tie: np.float32, k: int, after=None):
    """DisjunctionMaxScorer: score = max(sub scores) + tie * (sum - max),
    float32 (`search/DisjunctionMaxQuery.java` / DisjunctionMaxScorer)."""
    n = reader.doc_count
    acc_max = np.zeros(n, dtype=np.float32)
    acc_sum = np.zeros(n, dtype=np.float32)
    matched = np.zeros(n, dtype=bool)
    for term, scorer in sub:
        tid = reader.seek_exact(term)
        if tid < 0:
            continue
        docs, freqs = reader.postings(tid)
        s = scorer.score(freqs, reader.norms[docs])
        np.maximum.at(acc_max, docs, s)
        acc_sum[docs] += s
        matched[docs] = True
    if reader.deleted is not None:
        matched &= ~reader.deleted
    cand = np.nonzero(matched)[0].astype(np.int32)
    sc = acc_max[cand] + tie * (acc_sum[cand] - acc_max[cand])
    total = int(len(cand))
    if after is not None:
        a_s, a_d = np.float32(after[0]), after[1]
        keep = (sc < a_s) | ((sc == a_s) & (cand.astype(np.int64) > a_d))
        cand, sc = cand[keep], sc[keep]
    sc, cand = _top_k(sc.astype(np.float32), cand, k)
    return sc, cand, total, RELATION_EQ


def search_shard_indri_and(reader, sub, k: int, after=None):
    """IndriAndScorer.scoreDoc (`search/IndriAndScorer.java:40-90`):
    candidates = union of clause postings (DisjunctionDISIApproximation);
    score = sum(boost_i * s_i) / sum(boost_i) where s_i is the clause's
    Indri score when it matches the doc and its freq=0 smoothing score
    otherwise.  Dense vectorized: one smoothing vector + one postings
    scatter per clause."""
    n = reader.doc_count
    acc = np.zeros(n, dtype=np.float64)
    matched = np.zeros(n, dtype=bool)
    boost_sum = 0.0
    for term, scorer, boost in sub:
        boost_sum += boost
        contrib = scorer.smoothing(reader.norms).astype(np.float64)
        tid = reader.seek_exact(term)
        if tid >= 0:
            docs, freqs = reader.postings(tid)
            contrib[docs] = scorer.score(freqs, reader.norms[docs])
            matched[docs] = True
        acc += boost * contrib
    if boost_sum == 0:
        return np.zeros(0, np.float32), np.zeros(0, np.int32), 0, RELATION_EQ
    if reader.deleted is not None:
        matched &= ~reader.deleted
    cand = np.nonzero(matched)[0].astype(np.int32)
    sc = (acc[cand] / boost_sum).astype(np.float32)
    total = int(len(cand))
    if after is not None:
        a_s, a_d = np.float32(after[0]), after[1]
        keep = (sc < a_s) | ((sc == a_s) & (cand.astype(np.int64) > a_d))
        cand, sc = cand[keep], sc[keep]
    sc, cand = _top_k(sc, cand, k)
    return sc, cand, total, RELATION_EQ


class ConstFreqScorer:
    """Scorer yielding a constant score for any freq/norm — the
    CONSTANT_SCORE multi-term rewrite plugged into the phrase machinery
    (ComplexPhraseQuery execution)."""

    __slots__ = ("boost",)

    def __init__(self, boost: float):
        self.boost = np.float32(boost)

    def score(self, freqs: np.ndarray, norm_bytes: np.ndarray) -> np.ndarray:
        return np.full(len(freqs), self.boost, dtype=np.float32)


def _min_span_ordered(pls: list[np.ndarray]) -> int:
    """Smallest span (last - first + 1) of strictly-increasing positions,
    one per term in order; large sentinel if none."""
    n = len(pls)
    idx = [0] * n
    best = 1 << 40
    while True:
        for i in range(1, n):
            prev = pls[i - 1][idx[i - 1]]
            a = pls[i]
            j = int(np.searchsorted(a, prev, side="right"))
            if j >= len(a):
                return best
            idx[i] = max(idx[i], j)
            if idx[i] >= len(a):
                return best
        span = int(pls[n - 1][idx[n - 1]] - pls[0][idx[0]] + 1)
        if span < best:
            best = span
        idx[0] += 1
        if idx[0] >= len(pls[0]):
            return best


def _min_span_unordered(pls: list[np.ndarray], need: list[int] | None = None) -> int:
    """Smallest window containing >= need[i] DISTINCT occurrences of term i
    (need defaults to 1 per list; repeated query terms pass their
    multiplicity so one occurrence cannot satisfy two slots)."""
    n = len(pls)
    if need is None:
        need = [1] * n
    pos = np.concatenate(pls)
    tid = np.concatenate([np.full(len(p), i) for i, p in enumerate(pls)])
    order = np.argsort(pos, kind="stable")
    pos, tid = pos[order], tid[order]
    have = np.zeros(n, dtype=np.int64)
    covered = 0
    best = 1 << 40
    left = 0
    for right in range(len(pos)):
        t = tid[right]
        have[t] += 1
        if have[t] == need[t]:
            covered += 1
        while covered == n:
            span = int(pos[right] - pos[left] + 1)
            if span < best:
                best = span
            tl = tid[left]
            have[tl] -= 1
            if have[tl] == need[tl] - 1:
                covered -= 1
            left += 1
    return best


def search_shard_posrange(reader, term: str, start: int, end: int,
                          boost: float, k: int, after=None):
    """Span-position-range over one shard
    (`queries/spans/SpanPositionRangeQuery.java` semantics for a term
    span): docs with an occurrence at position p where p >= start and
    p + 1 <= end; constant score.  Vectorized: one positions decode, one
    segmented any()."""
    tid = reader.seek_exact(term)
    if tid < 0:
        return np.zeros(0, np.float32), np.zeros(0, np.int32), 0, RELATION_EQ
    docs, freqs = reader.postings(tid)
    pos = reader.positions(tid, freqs)
    ok = (pos >= start) & (pos.astype(np.int64) + 1 <= end)
    seg = np.repeat(np.arange(len(docs)), freqs)
    hit = np.zeros(len(docs), dtype=bool)
    hit[seg[ok]] = True
    cand = docs[hit].astype(np.int32)
    if reader.deleted is not None and len(cand):
        cand = cand[~reader.deleted[cand]]
    sc = np.full(len(cand), np.float32(boost), dtype=np.float32)
    total = int(len(cand))
    if after is not None:
        a_s, a_d = np.float32(after[0]), after[1]
        keep = (sc < a_s) | ((sc == a_s) & (cand.astype(np.int64) > a_d))
        cand, sc = cand[keep], sc[keep]
    return sc[:k], cand[:k], total, RELATION_EQ


def search_shard_spannot(reader, include: str, exclude: str, pre: int,
                         post: int, boost: float, k: int, after=None):
    """SpanNot over one shard (`queries/spans/SpanNotQuery.java`, term
    spans): docs where some `include` position p has no `exclude` position
    in [p - pre, p + post].  Vectorized: per-doc exclude positions checked
    with two searchsorteds against the include positions."""
    tid = reader.seek_exact(include)
    if tid < 0:
        return np.zeros(0, np.float32), np.zeros(0, np.int32), 0, RELATION_EQ
    docs, freqs = reader.postings(tid)
    pos = reader.positions(tid, freqs).astype(np.int64)
    seg = np.repeat(np.arange(len(docs)), freqs)

    xtid = reader.seek_exact(exclude)
    ok = np.ones(len(pos), dtype=bool)
    if xtid >= 0:
        xdocs, xfreqs = reader.postings(xtid)
        xpos = reader.positions(xtid, xfreqs).astype(np.int64)
        xpb = np.concatenate(([0], np.cumsum(xfreqs.astype(np.int64))))
        # map each include doc to its slot in the exclude postings (if any)
        xi = np.searchsorted(xdocs, docs)
        has_x = (xi < len(xdocs)) & (xdocs[np.minimum(xi, len(xdocs) - 1)] == docs)
        for j in np.nonzero(has_x)[0]:
            sl = slice(int(xpb[xi[j]]), int(xpb[xi[j] + 1]))
            xs = xpos[sl]                          # sorted positions
            ps = pos[seg == j]
            lo = np.searchsorted(xs, ps - pre)
            hi = np.searchsorted(xs, ps + post, side="right")
            ok[seg == j] = lo == hi                # no exclude in window
    hit = np.zeros(len(docs), dtype=bool)
    hit[seg[ok]] = True
    cand = docs[hit].astype(np.int32)
    if reader.deleted is not None and len(cand):
        cand = cand[~reader.deleted[cand]]
    sc = np.full(len(cand), np.float32(boost), dtype=np.float32)
    total = int(len(cand))
    if after is not None:
        a_s, a_d = np.float32(after[0]), after[1]
        keep = (sc < a_s) | ((sc == a_s) & (cand.astype(np.int64) > a_d))
        cand, sc = cand[keep], sc[keep]
    return sc[:k], cand[:k], total, RELATION_EQ


def search_shard_interval(reader, terms, max_width: int, ordered: bool,
                          boost: float, k: int, after=None):
    """Interval proximity matching over one shard: conjunction of the terms'
    postings, per-doc minimum span from the position lists, constant score."""
    # unordered: merge repeated query terms into one postings list with a
    # multiplicity requirement (one occurrence can't satisfy two slots)
    if ordered:
        uniq_terms = list(terms)
        need = None
    else:
        uniq_terms = list(dict.fromkeys(terms))
        need = [sum(1 for t in terms if t == u) for u in uniq_terms]
    posting = []
    for t in uniq_terms:
        tid = reader.seek_exact(t)
        if tid < 0:
            return np.zeros(0, np.float32), np.zeros(0, np.int32), 0, RELATION_EQ
        docs, freqs = reader.postings(tid)
        pos = reader.positions(tid, freqs)
        pb = np.concatenate(([0], np.cumsum(freqs.astype(np.int64))))
        posting.append((docs, pos, pb))
    common = posting[0][0]
    for docs, _, _ in posting[1:]:
        common = np.intersect1d(common, docs, assume_unique=True)
    if reader.deleted is not None and len(common):
        common = common[~reader.deleted[common]]
    out = []
    for d in common:
        pls = []
        for docs, pos, pb in posting:
            j = int(np.searchsorted(docs, d))
            pls.append(pos[int(pb[j]):int(pb[j + 1])].astype(np.int64))
        if ordered:
            span = _min_span_ordered(pls)
        else:
            span = _min_span_unordered(pls, need)
        if span <= max_width:
            out.append(int(d))
    cand = np.array(out, dtype=np.int32)
    sc = np.full(len(cand), np.float32(boost), dtype=np.float32)
    total = int(len(cand))
    if after is not None:
        a_s, a_d = np.float32(after[0]), after[1]
        keep = (sc < a_s) | ((sc == a_s) & (cand.astype(np.int64) > a_d))
        cand, sc = cand[keep], sc[keep]
    return sc[:k], cand[:k], total, RELATION_EQ


def _scoreless_matches(reader, query, searcher):
    """Matching-doc mask for a non-scoring (FILTER / MUST_NOT) sub-query,
    served through the searcher's LRUQueryCache when one is installed."""
    cache = getattr(searcher, "query_cache", None)
    if cache is None:
        return evaluate_dense(reader, query, searcher)[1]
    return cache.matches(
        reader.dir, query,
        lambda: evaluate_dense(reader, query, searcher)[1])


def evaluate_dense(reader, query, searcher):
    """Recursive dense evaluation of an arbitrary query tree over one shard:
    returns (scores float32[n_docs], matched bool[n_docs]).

    This is the nested-BooleanQuery path (`BooleanWeight` over arbitrary
    sub-weights): per node, child scores sum float32 in clause order for
    matching docs (sum-of-matching-clauses scoring), MUST/FILTER are
    required, MUST_NOT excludes, minimumNumberShouldMatch counts SHOULD
    matches.  Leaf nodes reuse the per-shard top-k engines with k=doc_count
    (exhaustive).  Deletes are NOT applied here — the caller masks once at
    the top.
    """
    from .query import (
        FILTER,
        MUST,
        MUST_NOT,
        SHOULD,
        BooleanQuery,
        MatchAllDocsQuery,
    )

    n = reader.doc_count
    if isinstance(query, MatchAllDocsQuery):
        return np.zeros(n, dtype=np.float32), np.ones(n, dtype=bool)
    if isinstance(query, BooleanQuery):
        acc = np.zeros(n, dtype=np.float32)
        matched = np.zeros(n, dtype=bool)
        required = None
        excluded = np.zeros(n, dtype=bool)
        should_cnt = np.zeros(n, dtype=np.int16) if query.minimum_should_match else None
        any_positive = False
        for c in query.clauses:
            if c.occur in (SHOULD, MUST):
                s, m = evaluate_dense(reader, c.query, searcher)
                any_positive = True
                acc[m] += s[m]
                matched |= m
                if c.occur == MUST:
                    required = m if required is None else (required & m)
                elif should_cnt is not None:
                    should_cnt[m] += 1
            else:
                # FILTER / MUST_NOT are scoreless — exactly the iterators
                # BooleanWeight routes through the LRUQueryCache in the
                # reference (`LRUQueryCache.java` CachingWrapperWeight is
                # only consulted when scores are not needed).
                m = _scoreless_matches(reader, c.query, searcher)
                if c.occur == FILTER:
                    required = m if required is None else (required & m)
                else:
                    excluded |= m
        # BooleanWeight matching rules (Boolean2ScorerSupplier): when required
        # clauses (MUST/FILTER) exist and minShouldMatch == 0, SHOULD clauses
        # are scoring-only — a doc matching just the required set matches.
        # Without required clauses, at least one positive clause must match.
        if required is not None:
            eligible = required
        elif any_positive:
            eligible = matched
        else:
            eligible = np.zeros(n, dtype=bool)
        if should_cnt is not None:
            eligible = eligible & (should_cnt >= query.minimum_should_match)
        eligible = eligible & ~excluded
        return acc, eligible
    # leaf: run the flat engine for ALL docs and densify
    save_deleted = reader.deleted
    reader.deleted = None          # deletes applied once at the top level
    try:
        compiled = searcher.compile(query, _normalized=True)
        scores, docs, _, _ = searcher.search_shard(
            reader, compiled, n, total_hits_threshold=2**31 - 1)
    finally:
        reader.deleted = save_deleted
    dense = np.zeros(n, dtype=np.float32)
    m = np.zeros(n, dtype=bool)
    dense[docs] = scores
    m[docs] = True
    return dense, m


def search_shard_nested(reader, query, searcher, k: int, after=None):
    """Top-k over an arbitrary (nested) query tree on one shard."""
    scores, matched = evaluate_dense(reader, query, searcher)
    if reader.deleted is not None:
        matched = matched & ~reader.deleted
    cand = np.nonzero(matched)[0].astype(np.int32)
    sc = scores[cand]
    total = int(len(cand))
    if after is not None:
        a_s, a_d = np.float32(after[0]), after[1]
        keep = (sc < a_s) | ((sc == a_s) & (cand.astype(np.int64) > a_d))
        cand, sc = cand[keep], sc[keep]
    sc, cand = _top_k(sc, cand, k)
    return sc, cand, total, RELATION_EQ


def search_shard_covering(reader, query, searcher, k: int, after=None):
    """CoveringQuery over one shard (`sandbox/search/CoveringScorer.java`):
    per-doc matching-clause count vs a per-doc minimum (int constant or
    int64 doc-values column, clamped to >= 1); score = float32 sum of the
    matching clauses' scores in clause order."""
    n = reader.doc_count
    acc = np.zeros(n, dtype=np.float32)
    count = np.zeros(n, dtype=np.int32)
    for sub in query.queries:
        s, m = evaluate_dense(reader, sub, searcher)
        acc[m] += s[m]
        count[m] += 1
    if isinstance(query.min_match, str):
        minm = np.maximum(np.asarray(reader.docvalue(query.min_match),
                                     dtype=np.int64), 1)
    else:
        minm = max(1, int(query.min_match))
    matched = count >= minm
    if reader.deleted is not None:
        matched &= ~reader.deleted
    cand = np.nonzero(matched)[0].astype(np.int32)
    sc = acc[cand]
    total = int(len(cand))
    if after is not None:
        a_s, a_d = np.float32(after[0]), after[1]
        keep = (sc < a_s) | ((sc == a_s) & (cand.astype(np.int64) > a_d))
        cand, sc = cand[keep], sc[keep]
    sc, cand = _top_k(sc, cand, k)
    return sc, cand, total, RELATION_EQ


def search_shard_automaton(reader, query, scorer, k: int, after=None):
    """TermAutomatonQuery over one shard: gather (doc, pos, termID) for
    every query term from the positional postings, replay the reference's
    countMatches DP per candidate doc, score freq with the summed-idf
    phrase-style scorer (`sandbox/.../TermAutomatonScorer.java`)."""
    from .automaton import count_matches_doc

    trans, accepts = query.det
    parts = []
    for qid, term in enumerate(query.terms):
        tid = reader.seek_exact(term)
        if tid < 0:
            continue
        docs, freqs = reader.postings(tid)
        pos = reader.positions(tid, freqs)
        doc_exp = np.repeat(docs.astype(np.int64), freqs)
        parts.append(np.stack([doc_exp, pos.astype(np.int64),
                               np.full(len(pos), qid, dtype=np.int64)], axis=1))
    if not parts:
        return np.zeros(0, np.float32), np.zeros(0, np.int32), 0, RELATION_EQ
    allp = np.concatenate(parts)
    allp = allp[np.lexsort((allp[:, 2], allp[:, 1], allp[:, 0]))]
    doc_ids, starts = np.unique(allp[:, 0], return_index=True)
    starts = np.append(starts, len(allp))
    cand, cfreq = [], []
    for i, d in enumerate(doc_ids):
        rows = allp[starts[i]:starts[i + 1]]
        f = count_matches_doc([(int(p), int(t)) for _, p, t in rows],
                              trans, accepts)
        if f > 0:
            cand.append(int(d))
            cfreq.append(f)
    cand = np.asarray(cand, dtype=np.int32)
    cfreq = np.asarray(cfreq, dtype=np.float32)
    if reader.deleted is not None and len(cand):
        live = ~reader.deleted[cand]
        cand, cfreq = cand[live], cfreq[live]
    sc = scorer.score(cfreq, reader.norms[cand])
    total = int(len(cand))
    if after is not None:
        a_s, a_d = np.float32(after[0]), after[1]
        keep = (sc < a_s) | ((sc == a_s) & (cand.astype(np.int64) > a_d))
        cand, sc = cand[keep], sc[keep]
    sc, cand = _top_k(sc, cand, k)
    return sc, cand, total, RELATION_EQ


def search_shard_synonym(reader, terms_boosts, scorer, k: int, after=None):
    """SynonymQuery execution: blended freq = sum(boost_i * freq_i) float32
    in term order, scored once with the pseudo-term scorer."""
    n = reader.doc_count
    freq_acc = np.zeros(n, dtype=np.float32)
    matched = np.zeros(n, dtype=bool)
    for term, boost in terms_boosts:
        tid = reader.seek_exact(term)
        if tid < 0:
            continue
        docs, freqs = reader.postings(tid)
        freq_acc[docs] += np.float32(boost) * freqs.astype(np.float32)
        matched[docs] = True
    if reader.deleted is not None:
        matched &= ~reader.deleted
    cand = np.nonzero(matched)[0].astype(np.int32)
    sc = scorer.score(freq_acc[cand], reader.norms[cand])
    total = int(len(cand))
    if after is not None:
        a_s, a_d = np.float32(after[0]), after[1]
        keep = (sc < a_s) | ((sc == a_s) & (cand.astype(np.int64) > a_d))
        cand, sc = cand[keep], sc[keep]
    sc, cand = _top_k(sc, cand, k)
    return sc, cand, total, RELATION_EQ


def _payload_matches_ordered(pls: list[np.ndarray], slop: int):
    """All ordered arrangements of one position per clause (unit term spans,
    clause order, non-overlapping, total gap <= slop), as tuples of
    constituent positions — NearSpansOrdered match shapes with the
    constituents kept so payloads can be collected per match
    (`queries/payloads/PayloadSpanCollector` role)."""
    out = []
    n = len(pls)

    def rec(i, prev_end, gap, acc):
        if i == n:
            out.append(tuple(acc))
            return
        a = pls[i]
        j = int(np.searchsorted(a, prev_end))
        while j < len(a):
            p = int(a[j])
            g2 = gap + (p - prev_end)
            if g2 > slop:          # positions ascend -> gap only grows
                break
            acc.append(p)
            rec(i + 1, p + 1, g2, acc)
            acc.pop()
            j += 1

    for p in pls[0]:
        rec(1, int(p) + 1, 0, [int(p)])
    return out


def _payload_reduce(factors: np.ndarray, func: str):
    """One doc's PayloadFunction accumulation
    (`queries/payloads/SumPayloadFunction.java` & siblings docScore)."""
    if func == "sum":
        return float(factors.sum(dtype=np.float64))
    if func == "min":
        return float(factors.min())
    if func == "max":
        return float(factors.max())
    return float(factors.sum(dtype=np.float64) / len(factors))   # avg


def search_shard_payload_score(reader, query, func: str, scorer, boost: float,
                               k: int, after=None):
    """PayloadScoreQuery over one shard
    (`queries/payloads/PayloadScoreQuery.java:42-288`): every payload factor
    seen at a matched occurrence feeds the PayloadFunction, accumulated
    across ALL matches in the doc (currentScore/docScore contract); missing
    payloads decode to 1 (FLOAT_DECODER null convention); negative docScores
    clamp to 0.  ``scorer`` is None unless include_span_score, in which case
    the payload score multiplies the wrapped span's own score (boost lives
    in the scorer then): exact BM25 for a term span, the summed-idf
    phrase-style scorer with freq = matched-span count for a SpanNear (the
    engine's documented span-scoring adaptation)."""
    if isinstance(query, str):
        tid = reader.seek_exact(query)
        if tid < 0:
            return np.zeros(0, np.float32), np.zeros(0, np.int32), 0, RELATION_EQ
        docs, freqs = reader.postings(tid)
        pos = reader.positions(tid, freqs)
        factors = reader.payload_factors(
            np.repeat(docs.astype(np.int64), freqs), pos)
        pb = np.concatenate(([0], np.cumsum(freqs)))[:-1]
        if func == "sum":
            agg = np.add.reduceat(factors, pb)
        elif func == "min":
            agg = np.minimum.reduceat(factors, pb)
        elif func == "max":
            agg = np.maximum.reduceat(factors, pb)
        else:                                   # avg
            agg = np.add.reduceat(factors, pb) / freqs
        cand = docs.astype(np.int32)
        pagg = agg.astype(np.float32)
        sfreq = freqs.astype(np.float32)
    else:
        # ordered SpanNear of plain terms (validated at compile)
        posting = []
        for t in query.clauses:
            tid = reader.seek_exact(t)
            if tid < 0:
                return (np.zeros(0, np.float32), np.zeros(0, np.int32),
                        0, RELATION_EQ)
            docs, freqs = reader.postings(tid)
            pos = reader.positions(tid, freqs)
            pb = np.concatenate(([0], np.cumsum(freqs.astype(np.int64))))
            posting.append((docs, pos, pb))
        cdocs = posting[0][0]
        for docs, _, _ in posting[1:]:
            cdocs = np.intersect1d(cdocs, docs, assume_unique=True)
        cand_l, pagg_l, freq_l = [], [], []
        for d in cdocs:
            pls = []
            for docs, pos, pb in posting:
                j = int(np.searchsorted(docs, d))
                pls.append(pos[int(pb[j]):int(pb[j + 1])].astype(np.int64))
            matches = _payload_matches_ordered(pls, int(query.slop))
            if not matches:
                continue
            occ = np.array([p for m in matches for p in m], dtype=np.int64)
            factors = reader.payload_factors(
                np.full(len(occ), int(d), dtype=np.int64), occ)
            cand_l.append(int(d))
            pagg_l.append(_payload_reduce(factors, func))
            freq_l.append(len(matches))
        cand = np.asarray(cand_l, dtype=np.int32)
        pagg = np.asarray(pagg_l, dtype=np.float32)
        sfreq = np.asarray(freq_l, dtype=np.float32)
    pagg = np.maximum(pagg, np.float32(0.0))
    if reader.deleted is not None and len(cand):
        live = ~reader.deleted[cand]
        cand, pagg, sfreq = cand[live], pagg[live], sfreq[live]
    if scorer is not None:
        sc = (pagg * scorer.score(sfreq, reader.norms[cand])).astype(np.float32)
    else:
        sc = (np.float32(boost) * pagg).astype(np.float32)
    total = int(len(cand))
    if after is not None:
        a_s, a_d = np.float32(after[0]), after[1]
        keep = (sc < a_s) | ((sc == a_s) & (cand.astype(np.int64) > a_d))
        cand, sc = cand[keep], sc[keep]
    sc, cand = _top_k(sc, cand, k)
    return sc, cand, total, RELATION_EQ


def search_shard_payload_check(reader, terms, expected, op: str, scorer,
                               k: int, after=None):
    """SpanPayloadCheckQuery over one shard
    (`queries/payloads/SpanPayloadCheckQuery.java`, PayloadChecker
    :202-240): ordered ADJACENT term spans (the phrase shape); a match is
    accepted iff for every i with expected[i] != None the i-th
    constituent's stored payload exists and compares (op) to expected[i].
    freq = accepted matches, scored with the summed-idf phrase-style
    scorer.  Vectorized: one composite-key (doc<<32 | pos - i) intersection
    finds matches, one payload_lookup per checked slot."""
    keys = None
    for i, t in enumerate(terms):
        tid = reader.seek_exact(t)
        if tid < 0:
            return np.zeros(0, np.float32), np.zeros(0, np.int32), 0, RELATION_EQ
        docs, freqs = reader.postings(tid)
        pos = reader.positions(tid, freqs).astype(np.int64)
        dexp = np.repeat(docs.astype(np.int64), freqs)
        ok = pos >= i
        ki = (dexp[ok] << 32) | (pos[ok] - i)
        keys = ki if keys is None else np.intersect1d(keys, ki,
                                                      assume_unique=True)
        if len(keys) == 0:
            return np.zeros(0, np.float32), np.zeros(0, np.int32), 0, RELATION_EQ
    mdoc = keys >> 32
    mstart = keys & 0xFFFFFFFF
    accept = np.ones(len(keys), dtype=bool)
    cmp = {"eq": np.equal, "gt": np.greater, "gte": np.greater_equal,
           "lt": np.less, "lte": np.less_equal}[op]
    for i, exp in enumerate(expected):
        if exp is None:
            continue
        vals, found = reader.payload_lookup(mdoc, mstart + i)
        accept &= found & cmp(vals, np.float32(exp))
    docs_u, counts = np.unique(mdoc[accept], return_counts=True)
    cand = docs_u.astype(np.int32)
    cfreq = counts.astype(np.float32)
    if reader.deleted is not None and len(cand):
        live = ~reader.deleted[cand]
        cand, cfreq = cand[live], cfreq[live]
    sc = scorer.score(cfreq, reader.norms[cand])
    total = int(len(cand))
    if after is not None:
        a_s, a_d = np.float32(after[0]), after[1]
        keep = (sc < a_s) | ((sc == a_s) & (cand.astype(np.int64) > a_d))
        cand, sc = cand[keep], sc[keep]
    sc, cand = _top_k(sc, cand, k)
    return sc, cand, total, RELATION_EQ

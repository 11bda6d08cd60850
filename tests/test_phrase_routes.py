"""Differential harness over the phrase executor (`search_shard_phrase`).

Seeded shards (a hot term in every 128-doc block, terms repeated within a
doc, deletes) are queried with single-term slots of length 2-4, multi-term
slots, gapped slot offsets, repeating terms and slop 0-4, on page 1 and on
page 2 via ``after``.  Every answer must equal a brute force over the token
lists in docs, float32 scores and exact totals:

- slop 0: freq = number of aligned start positions s with token
  s + offsets[i] in slot i for every slot;
- slop > 0, non-repeating single-term slots: the greedy
  SloppyPhraseMatcher traversal below (`greedy_sloppy_freq`), which shares
  no code with the engine;
- slop > 0 with repeats or multi-term slots: the repeat-aware
  :class:`SloppyPhraseMatcher` on brute-force position lists (its freqs are
  checked against the reference fixtures in tests/test_sloppy_repeats.py).
"""

import heapq

import numpy as np
import pyarrow as pa
import pytest

from lucene_ray.index.shard import ShardReader, write_shard
from lucene_ray.search.phrase_matcher import SloppyPhraseMatcher
from lucene_ray.search.scorer import search_shard_phrase
from lucene_ray.search.similarity import BM25Similarity
from lucene_ray.util.smallfloat import LENGTH_TABLE, int_to_byte4

N_DOCS = 1000
K = 10
WORDS = ["hot", "warm", "a", "b", "c", "d", "rare"]
WEIGHTS = [0.30, 0.20, 0.15, 0.15, 0.10, 0.07, 0.03]


def greedy_sloppy_freq(pos_lists: list[np.ndarray], slop: int) -> np.float32:
    """SloppyPhraseMatcher greedy traversal for NON-REPEATING phrase terms
    (`search/SloppyPhraseMatcher.java:174-205` nextMatch + PhraseScorer freq
    accumulation): pos_lists[i] holds term i's in-doc positions already
    shifted by its phrase offset; each match with matchLength = maxpos -
    minpos contributes 1/(1+matchLength), float32.  Keeps the reference's
    greedy asymmetries (not every valid combination is counted)."""
    k = len(pos_lists)
    idx = [0] * k
    pos = [int(p[0]) for p in pos_lists]
    end = max(pos)
    # heap ordered by (position, phrase offset, ord) — PhraseQueue.lessThan
    heap = [(pos[i], i, i) for i in range(k)]
    heapq.heapify(heap)
    freq = np.float32(0.0)
    one = np.float32(1.0)

    def advance(i):
        nonlocal end
        idx[i] += 1
        if idx[i] >= len(pos_lists[i]):
            return False
        pos[i] = int(pos_lists[i][idx[i]])
        if pos[i] > end:
            end = pos[i]
        return True

    _, _, cur = heapq.heappop(heap)
    match_length = end - pos[cur]
    nxt = heap[0][0]
    while True:
        if not advance(cur):
            break
        if pos[cur] > nxt:
            heapq.heappush(heap, (pos[cur], cur, cur))
            if match_length <= slop:
                freq = freq + one / (one + np.float32(match_length))
            _, _, cur = heapq.heappop(heap)
            nxt = heap[0][0]
            match_length = end - pos[cur]
        else:
            ml2 = end - pos[cur]
            if ml2 < match_length:
                match_length = ml2
    if match_length <= slop:
        freq = freq + one / (one + np.float32(match_length))
    return freq


def _texts(seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(N_DOCS):
        n = int(rng.integers(3, 15))
        docs.append(" ".join(rng.choice(WORDS, size=n, p=WEIGHTS)))
    return docs


class BruteForcePhrase:
    """Phrase freqs and float32 BM25 straight from the token lists."""

    def __init__(self, texts, deleted, k1=1.2, b=0.75):
        self.toks = [t.split() for t in texts]
        lengths = np.array([len(t) for t in self.toks], dtype=np.int64)
        self.norm_bytes = int_to_byte4(lengths)
        self.doc_count = int((lengths > 0).sum())
        self.sum_ttf = int(lengths.sum())
        self.avgdl = np.float32(self.sum_ttf / float(self.doc_count))
        self.k1, self.b = np.float32(k1), np.float32(b)
        self.deleted = deleted
        self.df = {}
        for words in self.toks:
            for w in set(words):
                self.df[w] = self.df.get(w, 0) + 1

    def idf_sum(self, slots):
        """PhraseWeight idf: float32 sum over every present term, slot order."""
        acc = np.float32(0.0)
        for ts in slots:
            for t in ts:
                df = self.df.get(t, 0)
                if df:
                    acc = acc + np.float32(
                        np.log(1 + (self.doc_count - df + 0.5) / (df + 0.5)))
        return acc

    def freq(self, words, slots, slop, offsets):
        pls = [np.array([j for j, w in enumerate(words) if w in ts], np.int64)
               for ts in slots]
        if any(len(pl) == 0 for pl in pls):
            return np.float32(0.0)
        if slop == 0:
            starts = set(range(-max(offsets), len(words)))
            for ts, off in zip(slots, offsets):
                starts = {s for s in starts
                          if 0 <= s + off < len(words) and words[s + off] in ts}
            return np.float32(len(starts))
        flat = [t for ts in slots for t in ts]
        if len(set(flat)) == len(flat) and all(len(ts) == 1 for ts in slots):
            return greedy_sloppy_freq([pl - off for pl, off in zip(pls, offsets)],
                                      slop)
        return SloppyPhraseMatcher(list(slots), slop, offsets=offsets).freq(pls)

    def search(self, slots, slop, offsets):
        """(docs, float32 scores, total) over every live match, ranked by
        (score desc, doc asc)."""
        weight = np.float32(1.0) * self.idf_sum(slots)
        one = np.float32(1.0)
        hits = []
        for d, words in enumerate(self.toks):
            if self.deleted is not None and self.deleted[d]:
                continue
            f = self.freq(words, slots, slop, offsets)
            if f > 0:
                ln = LENGTH_TABLE[int(self.norm_bytes[d])]
                norm_inv = one / (self.k1 * ((one - self.b)
                                             + self.b * ln / self.avgdl))
                hits.append((weight - weight / (one + np.float32(f) * norm_inv), d))
        hits.sort(key=lambda sd: (-sd[0], sd[1]))
        return (np.array([d for _, d in hits], dtype=np.int32),
                np.array([s for s, _ in hits], dtype=np.float32), len(hits))


@pytest.fixture(scope="module", params=[(5, False), (5, True), (41, True)],
                ids=["seed5", "seed5-deletes", "seed41-deletes"])
def shard(request, tmp_path_factory):
    seed, with_deletes = request.param
    texts = _texts(seed)
    table = pa.table({
        "conv_id": pa.array([f"c{i:06d}" for i in range(N_DOCS)]),
        "turn_idx": pa.array([0] * N_DOCS, type=pa.int32()),
        "text": pa.array(texts),
    })
    d = str(tmp_path_factory.mktemp(f"phrase{seed}"))
    write_shard(d, 0, table, f"phrase{seed}")
    rdr = ShardReader(f"{d}/shard-00000")
    assert rdr.doc_count == N_DOCS
    # the hot term fills several full 128-doc postings blocks and repeats
    # within docs
    hot_docs, hot_freqs = rdr.postings(rdr.seek_exact("hot"))
    assert len(hot_docs) >= 7 * 128
    assert (hot_freqs > 1).sum() > N_DOCS // 2
    deleted = None
    if with_deletes:
        deleted = np.random.default_rng(seed + 1).random(N_DOCS) < 0.08
        rdr.deleted = deleted
    return rdr, BruteForcePhrase(texts, deleted)


FIXED = [
    ((("hot",), ("warm",)), None),
    ((("a",), ("b",), ("c",)), None),
    ((("hot",), ("warm",), ("a",), ("b",)), None),
    ((("hot",), ("hot",)), None),                       # repeating terms
    ((("hot",), ("warm",), ("hot",)), None),
    ((("a", "b"), ("hot",)), None),                     # multi-term slots
    ((("hot", "warm"), ("warm", "c")), None),           # shared alternative
    ((("hot",), ("warm",)), (0, 2)),                    # gapped offsets
    ((("a",), ("hot", "d"), ("b",)), (0, 1, 3)),
    ((("rare",), ("hot",)), None),
    ((("a", "absent"), ("b",)), None),                  # absent alternative
    ((("hot",), ("absent",)), None),                    # absent slot
]


def _random_cases(seed: int, n: int):
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n):
        length = int(rng.integers(2, 5))
        slots = []
        for _ in range(length):
            width = 2 if rng.random() < 0.2 else 1
            slots.append(tuple(rng.choice(WORDS[:6], size=width, replace=False)))
        offsets = None
        if rng.random() < 0.25:
            offsets = tuple(int(x) for x in
                            np.cumsum(rng.integers(1, 3, size=length)) - 1)
        cases.append((tuple(slots), offsets, int(rng.integers(0, 5))))
    return cases


CASES = ([(slots, offs, slop) for slots, offs in FIXED for slop in range(5)]
         + _random_cases(13, 40))


@pytest.mark.parametrize("slots,offsets,slop", CASES,
                         ids=[f"{'|'.join('+'.join(s) for s in slots)}"
                              f"{'@' + ','.join(map(str, o)) if o else ''}~{p}"
                              for slots, o, p in CASES])
def test_phrase_matches_brute_force(shard, slots, offsets, slop):
    rdr, bf = shard
    offs = list(offsets) if offsets else list(range(len(slots)))
    want_docs, want_scores, want_total = bf.search(slots, slop, offs)
    scorer = BM25Similarity().scorer_with_idf(1.0, bf.idf_sum(slots),
                                              bf.doc_count, bf.sum_ttf)
    scores, docs, total, _ = search_shard_phrase(rdr, slots, slop, scorer, K,
                                                 offsets=offsets)
    assert total == want_total
    np.testing.assert_array_equal(docs, want_docs[:K])
    np.testing.assert_array_equal(scores, want_scores[:K])
    if len(docs) == K:
        # page 2: the cursor skips page 1 but the total still counts it
        after = (float(scores[-1]), int(docs[-1]))
        s2, d2, t2, _ = search_shard_phrase(rdr, slots, slop, scorer, K,
                                            after=after, offsets=offsets)
        assert t2 == want_total
        np.testing.assert_array_equal(d2, want_docs[K:2 * K])
        np.testing.assert_array_equal(s2, want_scores[K:2 * K])


def test_harness_covers_every_shape(shard):
    """The cases above hit every kernel with real matches: exact and sloppy,
    single- and multi-term slots, gapped offsets and repeating terms, and
    page 2 on each."""
    rdr, bf = shard
    seen = set()
    for slots, offsets, slop in CASES:
        offs = list(offsets) if offsets else list(range(len(slots)))
        _, _, total = bf.search(slots, slop, offs)
        if total <= K:
            continue
        flat = [t for ts in slots for t in ts]
        seen.add(("sloppy" if slop else "exact",
                   "multi" if any(len(ts) > 1 for ts in slots) else "single",
                   "gapped" if offsets else "consecutive",
                   "repeat" if len(set(flat)) < len(flat) else "distinct"))
    for kernel in ("exact", "sloppy"):
        assert any(s[0] == kernel and s[1] == "multi" for s in seen)
        assert any(s[0] == kernel and s[2] == "gapped" for s in seen)
        assert any(s[0] == kernel and s[3] == "repeat" for s in seen)
        assert (kernel, "single", "consecutive", "distinct") in seen

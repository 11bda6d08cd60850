"""Independent brute-force float32 BM25 over the generated corpus.

It reads the generator's token ids, never the engine's analyzer or index,
and repeats the engine's documented operation order: per-term weights in
float32 as Lucene's BM25Similarity computes them, accumulated in clause
order with SHOULD clauses before MUST clauses, ties broken by ascending
global docID.  Norms go through a reimplementation of Lucene's SmallFloat
``intToByte4`` / ``byte4ToInt``.
"""

from __future__ import annotations

import math

import numpy as np

from .corpus import Corpus


def _long_to_int4(i: int) -> int:
    bits = i.bit_length()
    if bits < 4:
        return i
    shift = bits - 4
    return ((i >> shift) & 0x07) | ((shift + 1) << 3)


def _int4_to_long(i: int) -> int:
    bits, shift = i & 0x07, (i >> 3) - 1
    return bits if shift == -1 else (bits | 0x08) << shift


_NUM_FREE = 255 - _long_to_int4(2**31 - 1)


def int_to_byte4(i: int) -> int:
    return i if i < _NUM_FREE else _NUM_FREE + _long_to_int4(i - _NUM_FREE)


def byte4_to_int(b: int) -> int:
    return b if b < _NUM_FREE else _NUM_FREE + _int4_to_long(b - _NUM_FREE)


class BM25Oracle:
    def __init__(self, corpus: Corpus, k1: float = 1.2, b: float = 0.75):
        self.vocab_id = {w: i for i, w in enumerate(corpus.vocab)}
        self.flat = corpus.flat
        self.doc_of = np.repeat(np.arange(corpus.n, dtype=np.int64), np.diff(corpus.offsets))
        lengths = corpus.doc_lengths().astype(np.int64)
        self.n_docs = corpus.n
        self.doc_count = int((lengths > 0).sum())
        self.sum_ttf = int(lengths.sum())
        lut = {int(n): np.float32(byte4_to_int(int_to_byte4(int(n)))) for n in np.unique(lengths)}
        self.dec_len = np.array([lut[int(n)] for n in lengths], dtype=np.float32)
        self.k1, self.b = np.float32(k1), np.float32(b)
        self.avgdl = np.float32(self.sum_ttf / float(self.doc_count))

    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        tid = self.vocab_id.get(term)
        if tid is None:
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        return np.unique(self.doc_of[self.flat == tid], return_counts=True)

    def term_scores(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        docs, freqs = self.postings(term)
        if len(docs) == 0:
            return docs, np.zeros(0, np.float32)
        df = len(docs)
        idf = np.float32(math.log(1 + (self.doc_count - df + 0.5) / (df + 0.5)))
        weight = np.float32(1.0) * idf
        one = np.float32(1.0)
        norm_inv = one / (self.k1 * ((one - self.b) + self.b * self.dec_len[docs] / self.avgdl))
        return docs, weight - weight / (one + freqs.astype(np.float32) * norm_inv)

    def topk(self, spec: dict, k: int) -> tuple[list[tuple[int, float]], int]:
        """(top-k (docID, score), total hits) for a boolean spec."""
        n = self.n_docs
        scores = np.zeros(n, np.float32)
        n_should = np.zeros(n, np.int32)
        must = None
        for t in spec.get("should", ()):
            d, s = self.term_scores(t)
            scores[d] = scores[d] + s
            n_should[d] += 1
        for t in spec.get("must", ()):
            d, s = self.term_scores(t)
            scores[d] = scores[d] + s
            m = np.zeros(n, bool)
            m[d] = True
            must = m if must is None else must & m
        for t in spec.get("filter", ()):
            m = np.zeros(n, bool)
            m[self.postings(t)[0]] = True
            must = m if must is None else must & m
        msm = spec.get("msm", 0)
        if must is not None:
            eligible = must & (n_should >= msm) if msm else must
        else:
            eligible = n_should >= max(1, msm)
        for t in spec.get("must_not", ()):
            eligible[self.postings(t)[0]] = False
        docs = np.nonzero(eligible)[0]
        order = np.lexsort((docs, -scores[docs]))[:k]
        return [(int(docs[i]), float(scores[docs[i]])) for i in order], int(len(docs))

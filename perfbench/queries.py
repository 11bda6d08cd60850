"""Seeded query streams over a generated corpus.

``zipf_stream`` draws query terms from the vocabulary by a query-log Zipf
law and mixes the shapes users send: single terms, SHOULD / MUST / FILTER /
MUST_NOT / minimum-should-match booleans, phrases cut from real corpus
bigrams, prefix, wildcard and fuzzy terms.  ``hot_stream`` cycles the 14
flagship shapes.  Every stream is a list of ``(shape, query)`` pairs; the
engine sees only the query objects.
"""

from __future__ import annotations

import numpy as np

from .corpus import QUERY_ZIPF_S, VOCAB_SIZE, Corpus, draw_ranks, zipf_cdf

# shape -> share of the zipf stream.  The shares are assumed, not taken
# from a query log; the fuzzy share decides serve-zipf's query_p99_ms
# (NOTES.md, "Inputs", measures p99 at 1%, 1.5% and 2%).
ZIPF_MIX = {
    "term": 0.30, "should": 0.15, "must": 0.10, "filter": 0.06,
    "mustnot": 0.06, "msm": 0.06, "phrase": 0.12, "prefix": 0.07,
    "wildcard": 0.065, "fuzzy": 0.015,
}


def _q():
    from lucene_ray.search import query

    return query


class QueryGen:
    def __init__(self, corpus: Corpus, seed: int):
        self.c = corpus
        self.rng = np.random.default_rng((seed, 3))
        self.cdf = zipf_cdf(VOCAB_SIZE, QUERY_ZIPF_S)

    def _terms(self, n: int) -> list[str]:
        # distinct terms, so a clause list never repeats a word
        out: list[str] = []
        while len(out) < n:
            w = self.c.vocab[int(draw_ranks(self.rng, self.cdf, 1)[0])]
            if w not in out:
                out.append(w)
        return out

    def _bigram(self) -> tuple[str, str]:
        offs, flat = self.c.offsets, self.c.flat
        while True:
            i = int(self.rng.integers(0, len(flat) - 1))
            d = int(np.searchsorted(offs, i, side="right")) - 1
            if i + 1 < offs[d + 1]:
                return self.c.vocab[flat[i]], self.c.vocab[flat[i + 1]]

    def spec(self, shape: str) -> dict:
        """Plain description of one query: the oracle and the engine both
        read it."""
        r = self.rng
        if shape == "term":
            return {"should": self._terms(1)}
        if shape == "should":
            return {"should": self._terms(int(r.integers(2, 4)))}
        if shape == "must":
            return {"must": self._terms(2)}
        if shape == "filter":
            t = self._terms(2)
            return {"should": t[:1], "filter": t[1:]}
        if shape == "mustnot":
            t = self._terms(2)
            return {"should": t[:1], "must_not": t[1:]}
        if shape == "msm":
            return {"should": self._terms(3), "msm": 2}
        if shape == "phrase":
            return {"phrase": self._bigram()}
        w = self._terms(1)[0]
        while len(w) < 5:
            w = self._terms(1)[0]
        if shape == "prefix":
            return {"prefix": w[:4]}
        if shape == "wildcard":
            return {"wildcard": w[:2] + "*" + w[-1]}
        # fuzzy: one substitution inside a 7-letter word (a typo); one word
        # length keeps the cost of the edit-distance scan alike across seeds
        while len(w) != 7:
            w = self._terms(1)[0]
        j = int(r.integers(1, len(w)))
        sub = "abcdefghijklmnopqrstuvwxyz"[int(r.integers(26))]
        return {"fuzzy": w[:j] + sub + w[j + 1:]}

    def zipf_stream(self, n: int) -> list[tuple[str, dict]]:
        """n queries in a seeded order; each shape's count is its share of n
        (largest remainders), so runs differ in terms, not in mix."""
        shapes = list(ZIPF_MIX)
        want = np.array([ZIPF_MIX[s] for s in shapes]) * n
        counts = np.floor(want).astype(int)
        counts[np.argsort(counts - want, kind="stable")[:n - counts.sum()]] += 1
        picks = self.rng.permutation(np.repeat(np.arange(len(shapes)), counts))
        return [(shapes[i], self.spec(shapes[i])) for i in picks]


def to_query(spec: dict):
    q = _q()
    if "phrase" in spec:
        return q.PhraseQuery(tuple(spec["phrase"]))
    if "prefix" in spec:
        return q.PrefixQuery(spec["prefix"])
    if "wildcard" in spec:
        return q.WildcardQuery(spec["wildcard"])
    if "fuzzy" in spec:
        return q.FuzzyQuery(spec["fuzzy"], max_edits=1)
    return q.bool_query(should=spec.get("should", ()), must=spec.get("must", ()),
                        filter_=spec.get("filter", ()), must_not=spec.get("must_not", ()),
                        minimum_should_match=spec.get("msm", 0))


def hot_stream(n: int) -> list[tuple[str, object]]:
    """n queries cycling the flagship QUERY_SET shapes, in order."""
    from lucene_ray.pipelines.flagship import QUERY_SET

    return [(QUERY_SET[i % len(QUERY_SET)][0], QUERY_SET[i % len(QUERY_SET)][1])
            for i in range(n)]

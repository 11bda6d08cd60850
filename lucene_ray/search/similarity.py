"""BM25 scoring, float32-exact to the reference.

Formulas and float operation ORDER are ported from
`lucene/core/src/java/org/apache/lucene/search/similarities/BM25Similarity.java`:

- idf   = (float) ln(1 + (docCount - df + 0.5)/(df + 0.5))      [:104-106]
- avgdl = (float) (sumTotalTermFreq / (double) docCount)        [:109-111]
- cache[i] = 1f / (k1 * ((1 - b) + b * LENGTH_TABLE[i] / avgdl)) [:205-208]
- score = weight - weight / (1 + freq * cache[normByte])        [:240-252]
  with weight = boost * idf (float)                             [:226]

All per-element math is float32 (numpy) in exactly that order; IEEE-754
float32 ops are deterministic, so identical inputs produce bit-identical
scores to the JVM.
"""

from __future__ import annotations

import numpy as np

from ..util.smallfloat import LENGTH_TABLE


class BM25Similarity:
    def __init__(self, k1: float = 1.2, b: float = 0.75):
        if not np.isfinite(k1) or k1 < 0 or not (0 <= b <= 1):
            raise ValueError("illegal k1/b")
        self.k1 = np.float32(k1)
        self.b = np.float32(b)

    def idf(self, doc_freq: int, doc_count: int) -> np.float32:
        # double math, cast to float (BM25Similarity.java:104-106)
        return np.float32(np.log(1 + (doc_count - doc_freq + 0.5) / (doc_freq + 0.5)))

    def avg_field_length(self, sum_ttf: int, doc_count: int) -> np.float32:
        return np.float32(sum_ttf / float(doc_count))

    def scorer(self, boost: float, doc_count: int, sum_ttf: int, doc_freq: int,
               ttf: int | None = None) -> "BM25Scorer":
        return self.scorer_with_idf(boost, self.idf(doc_freq, doc_count), doc_count, sum_ttf)

    def scorer_with_idf(self, boost: float, idf: np.float32, doc_count: int,
                        sum_ttf: int) -> "BM25Scorer":
        """Scorer from a precomputed idf (e.g. the summed idf of a phrase's
        terms, `BM25Similarity.idfExplain(collectionStats, termStats[])`)."""
        avgdl = self.avg_field_length(sum_ttf, doc_count)
        one = np.float32(1.0)
        # float32 op order: b * LENGTH_TABLE[i] -> / avgdl -> (1-b) + _ -> k1 * _ -> 1/_
        cache = one / (self.k1 * ((one - self.b) + self.b * LENGTH_TABLE / avgdl))
        return BM25Scorer(np.float32(boost) * idf, cache.astype(np.float32))


class BM25Scorer:
    """SimScorer equivalent: weight + per-norm-byte cache."""

    __slots__ = ("weight", "cache", "max_score_cache")

    def __init__(self, weight: np.float32, cache: np.ndarray):
        self.weight = weight
        self.cache = cache

    def score(self, freqs: np.ndarray, norm_bytes: np.ndarray) -> np.ndarray:
        """Vectorized float32: weight - weight / (1 + freq * cache[norm])."""
        one = np.float32(1.0)
        norm_inv = self.cache[norm_bytes.astype(np.int64) & 0xFF]
        return self.weight - self.weight / (one + freqs.astype(np.float32) * norm_inv)

    def max_score(self, imp_freqs: np.ndarray, imp_norms: np.ndarray) -> np.float32:
        """Block max score from the impact skyline (MaxScoreCache.java:60-112):
        max over pairs of score(freq, norm) — monotone in freq * cache[norm]."""
        if len(imp_freqs) == 0:
            return np.float32(np.inf)
        return np.max(self.score(imp_freqs, imp_norms))


# ---------------------------------------------------------------------------
# alternative similarity models (§2.9 widening): pluggable via
# IndexSearcher(similarity=...); every scorer exposes the same
# score(freqs, norm_bytes) surface, so all query paths (TAAT, MaxScore with
# skyline-pair block maxes, phrases, dismax, ...) work unchanged.
# ---------------------------------------------------------------------------


class _TableScorer:
    """Scorer whose score factors as weight * tf(freq) * norm_table[byte]."""

    __slots__ = ("weight", "cache", "_tf")

    def __init__(self, weight, cache, tf):
        self.weight = weight
        self.cache = cache       # per-norm-byte factor
        self._tf = tf

    def score(self, freqs: np.ndarray, norm_bytes: np.ndarray) -> np.ndarray:
        return (self.weight * self._tf(freqs.astype(np.float32))
                * self.cache[norm_bytes.astype(np.int64) & 0xFF])


class ClassicSimilarity:
    """TF-IDF (`search/similarities/ClassicSimilarity.java`): idf =
    ln((docCount+1)/(df+1)) + 1, tf = sqrt(freq), lengthNorm = 1/sqrt(dl)
    (dl decoded from the shared SmallFloat norm byte)."""

    def idf(self, doc_freq: int, doc_count: int) -> np.float32:
        return np.float32(np.log((doc_count + 1) / (doc_freq + 1.0)) + 1.0)

    def scorer(self, boost: float, doc_count: int, sum_ttf: int, doc_freq: int,
               ttf: int | None = None):
        return self.scorer_with_idf(boost, self.idf(doc_freq, doc_count),
                                    doc_count, sum_ttf)

    def scorer_with_idf(self, boost: float, idf: np.float32, doc_count: int,
                        sum_ttf: int):
        cache = (np.float32(1.0)
                 / np.sqrt(np.maximum(LENGTH_TABLE, 1.0))).astype(np.float32)
        return _TableScorer(np.float32(boost) * idf * idf, cache,
                            lambda f: np.sqrt(f, dtype=np.float32))


class SweetSpotSimilarity(ClassicSimilarity):
    """`misc/src/java/org/apache/lucene/misc/SweetSpotSimilarity.java`:
    classic TF-IDF with a flat length-norm "sweet spot" plateau and a
    baseline tf.

    - lengthNorm(dl) = 1/sqrt(steepness * (|dl-min| + |dl-max| - (max-min))
      + 1): inside [ln_min, ln_max] the norm is exactly 1; outside it decays
      (`setLengthNormFactors`, SweetSpotSimilarity.java:110-140).
    - baselineTf(freq) = 0 if freq <= 0; base if freq <= tf_min; else
      sqrt(freq + base² - tf_min) (`baselineTf`, :160-185).  Defaults
      (base=0, tf_min=0) reduce to sqrt(freq).

    The reference bakes lengthNorm into the index-time norm byte; here norms
    store the SmallFloat-encoded LENGTH, so the plateau applies at query
    time over the decoded-length table — same math, same quantization."""

    def __init__(self, ln_min: int = 1, ln_max: int = 1,
                 steepness: float = 0.5, tf_base: float = 0.0,
                 tf_min: float = 0.0):
        self.ln_min = float(ln_min)
        self.ln_max = float(ln_max)
        self.steepness = float(steepness)
        self.tf_base = np.float32(tf_base)
        self.tf_min = np.float32(tf_min)

    def scorer_with_idf(self, boost: float, idf: np.float32, doc_count: int,
                        sum_ttf: int):
        # float32 throughout so the default parameters reproduce Classic's
        # 1/sqrt(dl) cache BIT-EXACTLY (steep=0.5, min=max=1 → raw == dl)
        dl = np.maximum(LENGTH_TABLE, np.float32(1.0)).astype(np.float32)
        raw = (np.float32(self.steepness)
               * (np.abs(dl - np.float32(self.ln_min))
                  + np.abs(dl - np.float32(self.ln_max))
                  - np.float32(self.ln_max - self.ln_min)) + np.float32(1.0))
        cache = (np.float32(1.0) / np.sqrt(raw)).astype(np.float32)
        base, fmin = self.tf_base, self.tf_min

        def tf(f):
            out = np.sqrt(np.maximum(f + base * base - fmin,
                                     np.float32(0.0)), dtype=np.float32)
            out = np.where(f <= fmin, base, out)
            return np.where(f <= 0, np.float32(0.0), out).astype(np.float32)

        return _TableScorer(np.float32(boost) * idf * idf, cache, tf)


class BooleanSimilarity:
    """Frequency- and length-blind matching score = boost
    (`search/similarities/BooleanSimilarity.java`)."""

    def idf(self, doc_freq: int, doc_count: int) -> np.float32:
        return np.float32(1.0)

    def scorer(self, boost: float, doc_count: int, sum_ttf: int, doc_freq: int,
               ttf: int | None = None):
        return self.scorer_with_idf(boost, np.float32(1.0), doc_count, sum_ttf)

    def scorer_with_idf(self, boost: float, idf: np.float32, doc_count: int,
                        sum_ttf: int):
        cache = np.ones(256, dtype=np.float32)
        w = np.float32(boost) * idf
        return _TableScorer(w, cache, lambda f: np.ones_like(f, dtype=np.float32))


class LMDirichletScorer:
    __slots__ = ("weight", "cache", "mu", "p_w")

    def __init__(self, boost, mu, p_w):
        self.weight = np.float32(boost)
        self.mu = np.float32(mu)
        self.p_w = np.float64(p_w)
        # per-norm-byte doc-length factor log(mu / (dl + mu))
        self.cache = np.log(mu / (LENGTH_TABLE.astype(np.float64) + mu)) \
            .astype(np.float32)

    def score(self, freqs: np.ndarray, norm_bytes: np.ndarray) -> np.ndarray:
        f = freqs.astype(np.float64)
        term = np.log(1.0 + f / (float(self.mu) * self.p_w))
        s = self.weight * (term + self.cache[norm_bytes.astype(np.int64) & 0xFF]
                           .astype(np.float64))
        return np.maximum(s, 0.0).astype(np.float32)


class LMDirichletSimilarity:
    """Language model with Dirichlet smoothing
    (`search/similarities/LMDirichletSimilarity.java`): score =
    boost * max(0, log(1 + freq/(mu*p_w)) + log(mu/(dl+mu))), with
    p_w = ttf / total collection tokens."""

    def __init__(self, mu: float = 2000.0):
        self.mu = mu

    def idf(self, doc_freq: int, doc_count: int) -> np.float32:
        return np.float32(1.0)          # LM scoring has no idf factor

    def scorer(self, boost: float, doc_count: int, sum_ttf: int, doc_freq: int,
               ttf: int | None = None):
        # collection LM probability; fall back to df when ttf is unavailable
        occ = ttf if ttf is not None else max(doc_freq, 1)
        p_w = max(occ, 1) / max(sum_ttf, 1)
        return LMDirichletScorer(boost, self.mu, p_w)

    def scorer_with_idf(self, boost: float, idf: np.float32, doc_count: int,
                        sum_ttf: int):
        raise NotImplementedError("LM Dirichlet phrase scoring not supported")


class LMJelinekMercerScorer:
    __slots__ = ("weight", "cache", "lam", "p_w")

    def __init__(self, boost, lam, p_w):
        self.weight = np.float32(boost)
        self.lam = np.float64(lam)
        self.p_w = np.float64(p_w)
        # per-norm-byte 1/dl factor (decoded lengths; dl >= 1 for docs with
        # a match, but guard the zero byte)
        self.cache = (1.0 / np.maximum(LENGTH_TABLE.astype(np.float64), 1.0))

    def score(self, freqs: np.ndarray, norm_bytes: np.ndarray) -> np.ndarray:
        f = freqs.astype(np.float64)
        inv_dl = self.cache[norm_bytes.astype(np.int64) & 0xFF]
        s = np.log(1.0 + ((1.0 - self.lam) * f * inv_dl)
                   / (self.lam * self.p_w))
        return (self.weight * s).astype(np.float32)


class IndriDirichletScorer:
    __slots__ = ("weight", "mu", "p_w", "cache")

    def __init__(self, boost, mu, p_w):
        self.weight = np.float32(boost)
        self.mu = np.float64(mu)
        self.p_w = np.float64(p_w)
        # per-norm-byte smoothing score log(mu * p_w / (dl + mu)) — the
        # freq=0 score every clause contributes on docs it doesn't match
        self.cache = np.log(
            (float(mu) * self.p_w)
            / (LENGTH_TABLE.astype(np.float64) + float(mu))
        ).astype(np.float32)

    def score(self, freqs: np.ndarray, norm_bytes: np.ndarray) -> np.ndarray:
        dl = LENGTH_TABLE[norm_bytes.astype(np.int64) & 0xFF] \
            .astype(np.float64)
        f = freqs.astype(np.float64)
        s = np.log((f + self.mu * self.p_w) / (dl + self.mu))
        return (self.weight * s).astype(np.float32)

    def smoothing(self, norm_bytes: np.ndarray) -> np.ndarray:
        """Per-doc freq=0 score (IndriScorer.smoothingScore)."""
        return self.weight * self.cache[norm_bytes.astype(np.int64) & 0xFF]


class IndriDirichletSimilarity:
    """Indri's Dirichlet-smoothed LM
    (`search/similarities/IndriDirichletSimilarity.java:36-90`): score =
    boost * log((freq + mu*p_w) / (dl + mu)) — unlike LMDirichlet, never
    clipped at 0 (scores are negative log-probabilities), and the same
    formula at freq=0 serves as the smoothing score for IndriAndQuery's
    missing-clause contribution."""

    # scores are negative log-probabilities: block-max pruning against a
    # zero-initialized floor would prune everything, so MaxScore is disabled
    wand_safe = False

    def __init__(self, mu: float = 2000.0):
        self.mu = mu

    def idf(self, doc_freq: int, doc_count: int) -> np.float32:
        return np.float32(1.0)          # LM scoring has no idf factor

    def scorer(self, boost: float, doc_count: int, sum_ttf: int, doc_freq: int,
               ttf: int | None = None):
        occ = ttf if ttf is not None else max(doc_freq, 1)
        p_w = max(occ, 1) / max(sum_ttf, 1)
        return IndriDirichletScorer(boost, self.mu, p_w)

    def scorer_with_idf(self, boost: float, idf: np.float32, doc_count: int,
                        sum_ttf: int):
        raise NotImplementedError(
            "Indri Dirichlet phrase scoring not supported")


class LMJelinekMercerSimilarity:
    """Language model with Jelinek-Mercer smoothing
    (`search/similarities/LMJelinekMercerSimilarity.java:55-77`): score =
    boost * log(1 + ((1-λ) * freq/dl) / (λ * p_w)), p_w = ttf / total
    collection tokens, dl decoded from the shared SmallFloat norm byte."""

    def __init__(self, lam: float = 0.1):
        if not (0 < lam <= 1):
            raise ValueError("lambda must be in (0, 1]")
        self.lam = lam

    def idf(self, doc_freq: int, doc_count: int) -> np.float32:
        return np.float32(1.0)          # LM scoring has no idf factor

    def scorer(self, boost: float, doc_count: int, sum_ttf: int, doc_freq: int,
               ttf: int | None = None):
        occ = ttf if ttf is not None else max(doc_freq, 1)
        p_w = max(occ, 1) / max(sum_ttf, 1)
        return LMJelinekMercerScorer(boost, self.lam, p_w)

    def scorer_with_idf(self, boost: float, idf: np.float32, doc_count: int,
                        sum_ttf: int):
        raise NotImplementedError("LM JM phrase scoring not supported")


# ---------------------------------------------------------------------------
# SimilarityBase-style models (DFR / IB / DFI).  The reference computes these
# in double precision from (freq, docLen) with docLen decoded from the shared
# SmallFloat norm byte (`search/similarities/SimilarityBase.java:76-110`,
# BasicSimScorer at :207-230), then casts the final score to float.  Each
# scorer below vectorizes that contract: score(freqs, norm_bytes) evaluates
# the whole posting block in one float64 numpy expression.  All models are
# non-decreasing in freq at fixed norm, so the skyline-pair block maxes used
# by MaxScore pruning remain valid upper bounds.

_LOG2 = np.log(2.0)
_DL_TABLE = np.maximum(LENGTH_TABLE.astype(np.float64), 1.0)


def _log2(x):
    return np.log(x) / _LOG2


class _FreqLenScorer:
    """score = float32(fn(freq_f64, docLen_f64)); docLen from the norm byte."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def score(self, freqs: np.ndarray, norm_bytes: np.ndarray) -> np.ndarray:
        dl = _DL_TABLE[norm_bytes.astype(np.int64) & 0xFF]
        return self.fn(freqs.astype(np.float64), dl).astype(np.float32)


class DFRSimilarity:
    """Divergence-from-randomness (`search/similarities/DFRSimilarity.java:
    score = boost * basicModel(tfn) * aeTimes1pTfn` with the rewritten
    non-decreasing forms).  Components:

    basic models (`BasicModelIn/G/IF/Ine.java`):
      I(n):  A=log2((N+1)/(n+0.5));              score = A*ae*(1 - 1/(1+tfn))
      I(F):  A=log2(1+(N+1)/(F+0.5));            score = A*ae*(1 - 1/(1+tfn))
      I(ne): ne=N*(1-((N-1)/N)^F); A=log2((N+1)/(ne+0.5)); same shape
      G:     lam=F'/(N+F'), F'=F+1; A=log2(lam+1); B=log2((1+lam)/lam);
             score = (B - (B-A)/(1+tfn))*ae
    after effects (`AfterEffectL/B.java` scoreTimes1pTfn):
      L: 1.0        B: (F+2)/(n+1)   [Java: F'=ttf+1, n'=df+1 -> (F'+1)/n']
    normalizations (`NormalizationH1/H2/H3/Z.java`):
      H1: tfn = tf * c * avgfl/dl     H2: tfn = tf * log2(1 + c*avgfl/dl)
      H3: tfn = (tf + mu*((F+1)/(T+1))) / (dl + mu) * mu  (mu default 800,
          Dirichlet priors; T = sumTotalTermFreq)
      Z:  tfn = tf * (avgfl/dl)^z  (Pareto-Zipf, z default 0.30)
      none: tfn = tf
    The `c` parameter doubles as mu for H3 and z for Z (each
    normalization's single knob, like the reference constructors).
    """

    def __init__(self, basic_model: str = "I(n)", after_effect: str = "L",
                 normalization: str = "H2", c: float = 1.0):
        if basic_model not in ("I(n)", "I(F)", "I(ne)", "G"):
            raise ValueError(f"unknown basic model {basic_model!r}")
        if after_effect not in ("L", "B"):
            raise ValueError(f"unknown after effect {after_effect!r}")
        if normalization not in ("H1", "H2", "H3", "Z", "none"):
            raise ValueError(f"unknown normalization {normalization!r}")
        self.basic_model = basic_model
        self.after_effect = after_effect
        self.normalization = normalization
        self.c = float(c)

    def idf(self, doc_freq: int, doc_count: int) -> np.float32:
        return np.float32(1.0)

    def _tfn(self, avgfl: float, F: float = 0.0, T: float = 0.0):
        c = self.c
        if self.normalization == "H1":
            return lambda f, dl: f * c * (avgfl / dl)
        if self.normalization == "H2":
            return lambda f, dl: f * _log2(1.0 + c * avgfl / dl)
        if self.normalization == "H3":
            mu = c if c != 1.0 else 800.0
            return lambda f, dl: (f + mu * ((F + 1.0) / (T + 1.0))) \
                / (dl + mu) * mu
        if self.normalization == "Z":
            z = c if c != 1.0 else 0.30
            return lambda f, dl: f * np.power(avgfl / dl, z)
        return lambda f, dl: f

    def scorer(self, boost: float, doc_count: int, sum_ttf: int, doc_freq: int,
               ttf: int | None = None):
        N = float(doc_count)
        n = float(doc_freq)
        F = float(ttf if ttf is not None else doc_freq)
        avgfl = sum_ttf / max(N, 1.0)
        ae = 1.0 if self.after_effect == "L" else (F + 2.0) / (n + 1.0)
        tfn = self._tfn(avgfl, F, float(sum_ttf))
        bm = self.basic_model
        if bm == "I(n)":
            A = _log2((N + 1.0) / (n + 0.5))
            model = lambda t: A * ae * (1.0 - 1.0 / (1.0 + t))
        elif bm == "I(F)":
            A = _log2(1.0 + (N + 1.0) / (F + 0.5))
            model = lambda t: A * ae * (1.0 - 1.0 / (1.0 + t))
        elif bm == "I(ne)":
            ne = N * (1.0 - ((N - 1.0) / N) ** F) if N > 0 else 0.0
            A = _log2((N + 1.0) / (ne + 0.5))
            model = lambda t: A * ae * (1.0 - 1.0 / (1.0 + t))
        else:                           # G
            Fp = F + 1.0
            lam = Fp / (N + Fp)
            A = _log2(lam + 1.0)
            B = _log2((1.0 + lam) / lam)
            model = lambda t: (B - (B - A) / (1.0 + t)) * ae
        b = float(boost)
        return _FreqLenScorer(lambda f, dl: b * model(tfn(f, dl)))

    def scorer_with_idf(self, boost: float, idf: np.float32, doc_count: int,
                        sum_ttf: int):
        raise NotImplementedError("DFR phrase scoring not supported")


class IBSimilarity:
    """Information-based model (`search/similarities/IBSimilarity.java`):
    score = boost * distribution(tfn, lambda).

    distributions (`DistributionLL/SPL.java`):
      LL:  -ln(lam / (tfn + lam))
      SPL: -ln((lam^(1 - 1/(tfn+1)) - lam) / (1 - lam))   [with the Java
           nextUp/nextDown guards against pow collapsing to lam]
    lambdas (`LambdaDF/LambdaTTF.java`, float math then nextDown at 1):
      DF:  (n+1)/(N+1)        TTF: (F+1)/(N+1)
    normalizations: H1 / H2 / H3 / Z / none as in DFR.
    """

    def __init__(self, distribution: str = "SPL", lambda_: str = "DF",
                 normalization: str = "H2", c: float = 1.0):
        if distribution not in ("LL", "SPL"):
            raise ValueError(f"unknown distribution {distribution!r}")
        if lambda_ not in ("DF", "TTF"):
            raise ValueError(f"unknown lambda {lambda_!r}")
        if normalization not in ("H1", "H2", "H3", "Z", "none"):
            raise ValueError(f"unknown normalization {normalization!r}")
        self.distribution = distribution
        self.lambda_ = lambda_
        self.normalization = normalization
        self.c = float(c)

    def idf(self, doc_freq: int, doc_count: int) -> np.float32:
        return np.float32(1.0)

    def scorer(self, boost: float, doc_count: int, sum_ttf: int, doc_freq: int,
               ttf: int | None = None):
        N = float(doc_count)
        occ = float(doc_freq) if self.lambda_ == "DF" \
            else float(ttf if ttf is not None else doc_freq)
        lam = np.float32((occ + 1.0) / (N + 1.0))
        if lam == np.float32(1.0):      # LambdaDF.java: SPL cannot take lam=1
            lam = np.nextafter(lam, np.float32(0.0))
        lam = float(lam)
        c = self.c
        avgfl = sum_ttf / max(N, 1.0)
        F_ = float(ttf if ttf is not None else doc_freq)
        if self.normalization == "H1":
            tfn = lambda f, dl: f * c * (avgfl / dl)
        elif self.normalization == "H2":
            tfn = lambda f, dl: f * _log2(1.0 + c * avgfl / dl)
        elif self.normalization == "H3":
            mu = c if c != 1.0 else 800.0
            tfn = lambda f, dl: (f + mu * ((F_ + 1.0) / (float(sum_ttf) + 1.0))) \
                / (dl + mu) * mu
        elif self.normalization == "Z":
            z = c if c != 1.0 else 0.30
            tfn = lambda f, dl: f * np.power(avgfl / dl, z)
        else:
            tfn = lambda f, dl: f
        b = float(boost)
        if self.distribution == "LL":
            return _FreqLenScorer(
                lambda f, dl: b * -np.log(lam / (tfn(f, dl) + lam)))

        def spl(f, dl):
            t = tfn(f, dl)
            q = 1.0 - 1.0 / (t + 1.0)
            q = np.where(q == 1.0, np.nextafter(1.0, 0.0), q)
            pow_ = np.power(lam, q)
            # DistributionSPL.java: force pow != lam under fp rounding
            bumped = np.nextafter(lam, 1.0 if lam < 1 else 0.0)
            pow_ = np.where(pow_ == lam, bumped, pow_)
            return b * -np.log((pow_ - lam) / (1.0 - lam))

        return _FreqLenScorer(spl)

    def scorer_with_idf(self, boost: float, idf: np.float32, doc_count: int,
                        sum_ttf: int):
        raise NotImplementedError("IB phrase scoring not supported")


class DFISimilarity:
    """Divergence-from-independence (`search/similarities/DFISimilarity.java`):
    expected = (F+1) * dl / (T+1) with T = total field tokens; score = 0 when
    freq <= expected else boost * log2(independence(freq, expected) + 1).

    independence measures (`IndependenceChiSquared/Saturated/Standardized.java`):
      ChiSquared:   (f-e)^2 / e     Saturated: (f-e)/e    Standardized: (f-e)/sqrt(e)
    """

    def __init__(self, independence: str = "ChiSquared"):
        if independence not in ("ChiSquared", "Saturated", "Standardized"):
            raise ValueError(f"unknown independence {independence!r}")
        self.independence = independence

    def idf(self, doc_freq: int, doc_count: int) -> np.float32:
        return np.float32(1.0)

    def scorer(self, boost: float, doc_count: int, sum_ttf: int, doc_freq: int,
               ttf: int | None = None):
        F = float(ttf if ttf is not None else doc_freq)
        T = float(sum_ttf)
        ind = self.independence
        b = float(boost)

        def fn(f, dl):
            expected = (F + 1.0) * dl / (T + 1.0)
            e = np.maximum(expected, 1e-12)
            if ind == "ChiSquared":
                m = (f - e) * (f - e) / e
            elif ind == "Saturated":
                m = (f - e) / e
            else:
                m = (f - e) / np.sqrt(e)
            return np.where(f <= expected, 0.0, b * _log2(m + 1.0))

        return _FreqLenScorer(fn)

    def scorer_with_idf(self, boost: float, idf: np.float32, doc_count: int,
                        sum_ttf: int):
        raise NotImplementedError("DFI phrase scoring not supported")


class AxiomaticSimilarity:
    """Axiomatic retrieval models (`search/similarities/Axiomatic.java` +
    `AxiomaticF{1,2,3}{EXP,LOG}.java`):

    score = max(0, boost * (tf * ln * tfln * idf - gamma)) with defaults
    s=0.25, queryLen=1, k=0.35 (Axiomatic.java:91-93).  Per variant:

      F1: tf = 1 + log(1 + log(freq+1));
          ln = (avgfl + s) / (avgfl + dl*s); tfln = 1
      F2: tf = ln = 1; tfln = freq / (freq + s + s*dl/avgfl)
      F3: tf as F1; ln = tfln = 1;
          gamma = (dl - queryLen) * s * queryLen / avgfl
      EXP: idf = ((N+1)/df)^k          LOG: idf = log((N+1)/df)

    All variants are non-decreasing in freq at fixed docLen (gamma is
    freq-independent), so MaxScore skyline bounds stay valid."""

    def __init__(self, variant: str = "F2EXP", s: float = 0.25,
                 query_len: int = 1, k: float = 0.35):
        if variant not in ("F1EXP", "F1LOG", "F2EXP", "F2LOG",
                           "F3EXP", "F3LOG"):
            raise ValueError(f"unknown axiomatic variant {variant!r}")
        self.variant = variant
        self.s = float(s)
        self.query_len = int(query_len)
        self.k = float(k)

    def idf(self, doc_freq: int, doc_count: int) -> np.float32:
        return np.float32(1.0)

    def scorer(self, boost: float, doc_count: int, sum_ttf: int, doc_freq: int,
               ttf: int | None = None):
        N = float(doc_count)
        n = max(float(doc_freq), 1.0)
        avgfl = sum_ttf / max(N, 1.0)
        s = self.s
        ql = float(self.query_len)
        fam, shape = self.variant[:2], self.variant[2:]
        idf_v = ((N + 1.0) / n) ** self.k if shape == "EXP" \
            else np.log((N + 1.0) / n)
        b = float(boost)

        def fn(f, dl):
            if fam == "F1":
                core = (1.0 + np.log(1.0 + np.log(f + 1.0))) \
                    * ((avgfl + s) / (avgfl + dl * s))
                gamma = 0.0
            elif fam == "F2":
                core = f / (f + s + s * dl / avgfl)
                gamma = 0.0
            else:                       # F3
                core = 1.0 + np.log(1.0 + np.log(f + 1.0))
                gamma = (dl - ql) * s * ql / avgfl
            return np.maximum(0.0, b * (core * idf_v - gamma))

        return _FreqLenScorer(fn)

    def scorer_with_idf(self, boost: float, idf: np.float32, doc_count: int,
                        sum_ttf: int):
        raise NotImplementedError("Axiomatic phrase scoring not supported")


class _MultiScorer:
    __slots__ = ("subs",)

    def __init__(self, subs):
        self.subs = subs

    def score(self, freqs: np.ndarray, norm_bytes: np.ndarray) -> np.ndarray:
        out = self.subs[0].score(freqs, norm_bytes).astype(np.float32)
        for s in self.subs[1:]:
            out = out + s.score(freqs, norm_bytes).astype(np.float32)
        return out


class MultiSimilarity:
    """Sum of several similarities' scores
    (`search/similarities/MultiSimilarity.java`: MultiSimScorer.score =
    float32 running sum of the sub-scorers).  All wrapped models here are
    non-decreasing in freq, so the sum is too — MaxScore block maxes stay
    valid upper bounds."""

    def __init__(self, sims):
        if not sims:
            raise ValueError("MultiSimilarity needs at least one similarity")
        self.sims = tuple(sims)

    def idf(self, doc_freq: int, doc_count: int) -> np.float32:
        return np.float32(1.0)

    def scorer(self, boost: float, doc_count: int, sum_ttf: int, doc_freq: int,
               ttf: int | None = None):
        return _MultiScorer([s.scorer(boost, doc_count, sum_ttf, doc_freq,
                                      ttf=ttf)
                             if _takes_ttf(s) else
                             s.scorer(boost, doc_count, sum_ttf, doc_freq)
                             for s in self.sims])

    def scorer_with_idf(self, boost: float, idf: np.float32, doc_count: int,
                        sum_ttf: int):
        raise NotImplementedError("Multi phrase scoring not supported")


def _takes_ttf(sim) -> bool:
    import inspect

    try:
        return "ttf" in inspect.signature(sim.scorer).parameters
    except (TypeError, ValueError):
        return False


class PerFieldSimilarity:
    """Per-field Similarity selection
    (`search/similarities/PerFieldSimilarityWrapper.java`: `get(field)`
    returns the Similarity used for one field's SimScorer).  Our index has
    one analyzed field plus keyword namespaces, so field resolution happens
    from the term key at compile time (`field\\x1fvalue` keys name their
    field; plain keys are the text field); every non-term query shape is
    text-field by construction and uses the text similarity, to which all
    other attribute lookups delegate."""

    def __init__(self, per_field: dict, default=None):
        self.per_field = dict(per_field)
        self.default = default if default is not None else BM25Similarity()

    def get(self, field: str):
        return self.per_field.get(field, self.default)

    def for_key(self, term_key: str):
        sep = "\x1f"
        field = term_key.split(sep, 1)[0] if sep in term_key else "text"
        return self.get(field)

    def __getattr__(self, name):
        # delegate scorer/scorer_with_idf/idf/wand_safe/... to the text sim
        return getattr(self.get("text"), name)

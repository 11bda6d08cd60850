"""Seeded inputs owned by the benchmark: transcript corpus and query streams.

The corpus has the transcript schema ``(conv_id, turn_idx, role, text, tool,
ts)``.  Its vocabulary is heavy tailed (``VOCAB_SIZE`` words drawn under a
Zipf law with exponent ``ZIPF_S``), and a share of rows take the analyzer's
slow path: non-ASCII words, tokens longer than 255 characters, and empty
texts.  The generator keeps every row's token ids, so the brute-force oracle
in ``oracle.py`` never has to run the engine's analyzer.

Everything is a pure function of ``(seed, n_turns)``; the same arguments give
the same Parquet bytes.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

VOCAB_SIZE = 300_000
ZIPF_S = 1.07
# query-log law over vocabulary ranks; an assumed value, not fitted to a
# query log (NOTES.md, "Inputs")
QUERY_ZIPF_S = 0.9
MEAN_TOKENS = 28            # ~7M tokens per 250k turns
NON_ASCII_SHARE = 0.03
LONG_TOKEN_SHARE = 0.002
EMPTY_SHARE = 0.005
MAX_TOKEN = 255

# The flagship query shapes name these words; they sit at fixed ranks so the
# hot / mid / rare shapes keep their meaning under every seed.
PINNED = {
    "the": 0, "a": 1, "of": 2, "to": 3, "and": 4, "scan": 5, "in": 6,
    "data": 8, "query": 9, "merge": 12, "join": 14, "sort": 17,
    "table": 20, "window": 31, "batch": 47, "customer": 400,
    "vector": 3_000,
}
ABSENT = "zzzabsent"
# part of every cache key: bump when the generator's output changes
GEN_VERSION = 2

_ROLES = np.array(["user", "assistant", "tool", "system"])
_TOOLS = np.array(["", "", "", "search", "bash", "browser", "editor"])
BASE_TS_US = 1_700_000_000_000_000

# letters for non-ASCII words: accented Latin, Greek, Cyrillic (all lower
# case, so the analyzer's lower-casing is the identity) and CJK ideographs,
# which the standard tokenizer emits one per token
_LATIN = list("àáâäçèéêëìíîïñòóôöùúûüß")
_GREEK = list("αβγδεζηθικλμνξοπρστυφχψω")
_CYRIL = list("абвгдежзийклмнопрстуфхцчшщыэюя")
_CJK = [chr(c) for c in range(0x4E00, 0x4E00 + 400)]


@dataclass
class Corpus:
    """Generated rows plus the token ids behind each text."""

    table: pa.Table
    vocab: np.ndarray            # object array of words, index = rank
    offsets: np.ndarray          # int64[n+1] into flat, per row
    flat: np.ndarray             # int32 vocabulary ids in row order
    extra_tokens: np.ndarray     # int32[n] tokens outside the vocabulary

    @property
    def n(self) -> int:
        return self.table.num_rows

    def doc_lengths(self) -> np.ndarray:
        return np.diff(self.offsets) + self.extra_tokens


def make_vocab(seed: int) -> np.ndarray:
    """VOCAB_SIZE distinct lower-case ASCII words; PINNED words at their ranks."""
    rng = np.random.default_rng((seed, 1))
    letters = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", dtype=np.uint8)
    # letter frequencies skewed like English so prefixes and wildcards share
    # realistic amounts of the dictionary
    p = np.linspace(2.0, 0.2, 26)
    p /= p.sum()
    words: set[str] = set()
    out: list[str] = []
    reserved = set(PINNED) | {ABSENT}
    while len(out) < VOCAB_SIZE:
        m = 2 * (VOCAB_SIZE - len(out))
        lens = rng.integers(3, 11, size=m)
        chars = rng.choice(letters, size=(m, 10), p=p)
        for i in range(m):
            w = chars[i, :lens[i]].tobytes().decode()
            if w not in words and w not in reserved:
                words.add(w)
                out.append(w)
                if len(out) == VOCAB_SIZE - len(PINNED):
                    break
        if len(out) >= VOCAB_SIZE - len(PINNED):
            break
    vocab = np.empty(VOCAB_SIZE, dtype=object)
    pinned_ranks = set(PINNED.values())
    it = iter(out)
    for r in range(VOCAB_SIZE):
        if r not in pinned_ranks:
            vocab[r] = next(it)
    for w, r in PINNED.items():
        vocab[r] = w
    return vocab


def zipf_cdf(n: int, s: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    c = np.cumsum(w)
    return c / c[-1]


def draw_ranks(rng, cdf: np.ndarray, size: int) -> np.ndarray:
    return np.minimum(np.searchsorted(cdf, rng.random(size)), len(cdf) - 1).astype(np.int32)


def _non_ascii_word(rng) -> tuple[str, int]:
    """(word, token count under the standard tokenizer)."""
    kind = rng.integers(4)
    if kind == 3:
        k = int(rng.integers(1, 4))
        return "".join(rng.choice(_CJK, size=k)), k
    alpha = (_LATIN, _GREEK, _CYRIL)[kind]
    k = int(rng.integers(3, 9))
    chars = list(rng.choice(alpha, size=k))
    if kind == 0:
        # keep one ASCII letter so the word is not in a pure accented run
        chars[0] = "q"
    return "".join(chars), 1


def _long_token(rng) -> tuple[str, int]:
    """An alphanumeric run longer than MAX_TOKEN; chopped into ceil(L/255)
    tokens, none of which is a vocabulary word (every chunk has digits)."""
    n = int(rng.integers(MAX_TOKEN + 20, 3 * MAX_TOKEN))
    if n % MAX_TOKEN < 20:
        n += 20                      # last chunk long enough to hold digits
    body = "".join(rng.choice(list("ab0123456789"), size=n))
    return body, -(-n // MAX_TOKEN)


def generate(seed: int, n_turns: int, vocab: np.ndarray | None = None,
             batch: int = 0) -> Corpus:
    """The corpus for (seed, n_turns); ``batch`` > 0 draws a further batch of
    turns over the same vocabulary (for appends)."""
    rng = np.random.default_rng((seed, 2, n_turns, batch))
    if vocab is None:
        vocab = make_vocab(seed)
    lens = np.clip(np.rint(rng.lognormal(np.log(MEAN_TOKENS) - 0.32, 0.8, n_turns)),
                   1, 400).astype(np.int64)
    empty = rng.random(n_turns) < EMPTY_SHARE
    lens[empty] = 0
    offsets = np.concatenate(([0], np.cumsum(lens)))
    flat = draw_ranks(rng, zipf_cdf(VOCAB_SIZE, ZIPF_S), int(offsets[-1]))

    vocab_pa = pa.array(vocab.tolist(), type=pa.string())
    words = vocab_pa.take(pa.array(flat))
    lists = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), words)
    texts = pc.binary_join(lists, " ")
    # sentence case on a third of the rows (the analyzer lower-cases)
    cap = rng.random(n_turns) < 0.33
    texts = pc.if_else(pa.array(cap), pc.utf8_capitalize(texts), texts)
    texts = texts.to_pylist()

    extra = np.zeros(n_turns, dtype=np.int32)
    live = np.nonzero(~empty)[0]
    for i in rng.choice(live, size=int(NON_ASCII_SHARE * n_turns), replace=False):
        w, t = _non_ascii_word(rng)
        texts[i] = f"{texts[i]} {w}"
        extra[i] += t
    for i in rng.choice(live, size=max(1, int(LONG_TOKEN_SHARE * n_turns)), replace=False):
        w, t = _long_token(rng)
        texts[i] = f"{w} {texts[i]}"
        extra[i] += t
    for i in np.nonzero(empty)[0][::3]:
        texts[i] = "  "              # whitespace only: zero tokens too

    # conversations of Zipf-skewed length, turns in order
    conv = np.empty(n_turns, dtype=np.int64)
    turn = np.empty(n_turns, dtype=np.int32)
    pos, c = 0, 0
    sizes = np.minimum(rng.zipf(1.4, size=n_turns), 96)
    while pos < n_turns:
        s = int(min(sizes[c], n_turns - pos))
        conv[pos:pos + s] = c
        turn[pos:pos + s] = np.arange(s)
        pos += s
        c += 1
    conv_ids = pc.binary_join_element_wise(
        "c", pc.utf8_lpad(pc.cast(pa.array(conv), pa.string()), 8, "0"), "")
    table = pa.table({
        "conv_id": conv_ids,
        "turn_idx": pa.array(turn, type=pa.int32()),
        "role": pa.array(_ROLES[turn % 3]),
        "text": pa.array(texts, type=pa.string()),
        "tool": pa.array(_TOOLS[rng.integers(0, len(_TOOLS), size=n_turns)]),
        "ts": pa.array(BASE_TS_US + np.arange(n_turns, dtype=np.int64) * 1_000_000,
                       type=pa.timestamp("us")),
    })
    return Corpus(table, vocab, offsets, flat, extra)


def write_parquet(table: pa.Table, path: str, n_files: int = 8) -> None:
    """Write rows as n_files Parquet parts under path (replaced atomically)."""
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    rows = table.num_rows
    for i in range(n_files):
        lo, hi = i * rows // n_files, (i + 1) * rows // n_files
        pq.write_table(table.slice(lo, hi - lo), os.path.join(tmp, f"part-{i:03d}.parquet"))
    shutil.rmtree(path, ignore_errors=True)
    os.rename(tmp, path)


def cached(cache_dir: str, seed: int, n_turns: int) -> tuple[Corpus, str]:
    """The corpus for (seed, n_turns) and its Parquet directory; generated
    once, then read back from cache_dir."""
    path = os.path.join(cache_dir, f"corpus-v{GEN_VERSION}-s{seed}-n{n_turns}")
    npz, voc = path + ".npz", path + ".vocab.parquet"
    if not (os.path.exists(npz) and os.path.exists(voc) and os.path.isdir(path)):
        c = generate(seed, n_turns)
        os.makedirs(cache_dir, exist_ok=True)
        write_parquet(c.table, path)
        pq.write_table(pa.table({"w": pa.array(c.vocab.tolist(), pa.string())}), voc + ".tmp")
        os.replace(voc + ".tmp", voc)
        np.savez(npz + ".tmp.npz", offsets=c.offsets, flat=c.flat, extra=c.extra_tokens)
        os.replace(npz + ".tmp.npz", npz)
        return c, path
    z = np.load(npz, allow_pickle=False)
    vocab = np.array(pq.read_table(voc).column("w").to_pylist(), dtype=object)
    return Corpus(pq.read_table(path), vocab, z["offsets"], z["flat"], z["extra"]), path

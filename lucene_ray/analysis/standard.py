"""StandardAnalyzer-equivalent analysis chain, re-implemented from scratch.

Semantics model the reference (`/root/reference`):

- ``StandardTokenizer``: UAX#29 word-break rules compiled from the same rule
  set as the reference grammar
  (`lucene/core/src/java/org/apache/lucene/analysis/standard/StandardTokenizerImpl.jflex:143-283`),
  expressed here as ordered Python regexes with longest-match-wins dispatch
  (jflex maximal munch + rule order on ties).  Token types: ALPHANUM, NUM,
  SOUTHEAST_ASIAN, IDEOGRAPHIC, HIRAGANA, KATAKANA, HANGUL, EMOJI.
- Max token length 255 chars with over-long runs chopped into multiple
  tokens (`StandardTokenizer.java:88-98,156-166`,
  `StandardAnalyzer.DEFAULT_MAX_TOKEN_LENGTH` at `StandardAnalyzer.java:37`).
- ``LowerCaseFilter``: JDK ``Character.toLowerCase(int)`` per code point
  (simple case mapping — `analysis/LowerCaseFilter.java:23,38`), which
  differs from Python's ``str.lower`` on e.g. U+0130 and final sigma.
- Default stop set is EMPTY (`StandardAnalyzer.java:51-53`), so StopFilter
  is a no-op; every token has position increment 1.

The batch entry point :func:`tokenize_batch` is what the indexing
``map_batches`` stage calls; the scanner state (compiled regexes) is a
module-level singleton built once per worker process.
"""

from __future__ import annotations

import re
from typing import Iterator

from . import _wb_ranges as WB

DEFAULT_MAX_TOKEN_LENGTH = 255

# token types (StandardTokenizer.java:43-57)
ALPHANUM = "<ALPHANUM>"
NUM = "<NUM>"
SOUTHEAST_ASIAN = "<SOUTHEAST_ASIAN>"
IDEOGRAPHIC = "<IDEOGRAPHIC>"
HIRAGANA = "<HIRAGANA>"
KATAKANA = "<KATAKANA>"
HANGUL = "<HANGUL>"
EMOJI = "<EMOJI>"


def _cls(ranges) -> str:
    """Render a range list as a regex character-class body."""
    parts = []
    for lo, hi in ranges:
        if lo == hi:
            parts.append(re.escape(chr(lo)))
        else:
            parts.append(f"{re.escape(chr(lo))}-{re.escape(chr(hi))}")
    return "".join(parts)


def _build_scanner():
    # AHLetter = WB:ALetter ∪ WB:Hebrew_Letter; WB:ALetter includes Hangul
    # (the separate HANGUL rule below is a typing-only subset, per the grammar)
    AH = _cls(WB.ALETTER) + _cls(WB.HEBREW) + _cls(WB.HANGUL)
    HEB = _cls(WB.HEBREW)
    NUMC = _cls(WB.NUMERIC)
    KATA = _cls(WB.KATAKANA)
    HIRA = _cls(WB.HIRAGANA)
    HAN = _cls(WB.HAN)
    HANG = _cls(WB.HANGUL)
    SEA = _cls(WB.SEA)
    EXT = _cls(WB.EXTEND) + _cls(WB.FORMAT) + _cls(WB.ZWJ)
    ENL = _cls(WB.EXTENDNUMLET)
    MIDL = _cls(WB.MIDLETTER) + _cls(WB.MIDNUMLET) + _cls(WB.SINGLE_QUOTE)
    MIDN = _cls(WB.MIDNUM) + _cls(WB.MIDNUMLET) + _cls(WB.SINGLE_QUOTE)
    SQ = _cls(WB.SINGLE_QUOTE)
    DQ = _cls(WB.DOUBLE_QUOTE)
    RI = _cls(WB.REGIONAL_INDICATOR)
    PICT = _cls(WB.EXT_PICTOGRAPHIC)
    EMOD = _cls(WB.EMOJI_MODIFIER)
    EMODB = _cls(WB.EMOJI_MODIFIER_BASE)
    ZWJ = _cls(WB.ZWJ)

    EF = f"[{EXT}]*"                                  # WB4 suffix: (Extend|Format|ZWJ)*
    # emoji variant: Extend/Format minus the presentation selectors FE0E/FE0F.
    # ZWJ is deliberately NOT in this suffix (unlike the grammar's
    # ExtFmtZwjSansPresSel): a greedy regex would swallow the ZWJ that the
    # top-level ( ZWJ ecpms )* loop needs, splitting ZWJ sequences; a lone
    # trailing ZWJ after an emoji is separator-skipped anyway.
    EXT_NOPRES = (_cls(WB.EXTEND) + _cls(WB.FORMAT)).replace("\\ufe0e", "").replace("\\ufe0f", "")
    EFZ = f"[{EXT_NOPRES}]*"

    AHx = f"(?:[{AH}]{EF})"
    HEBx = f"(?:[{HEB}]{EF})"
    NUMx = f"(?:[{NUMC}]{EF})"
    KATx = f"(?:[{KATA}]{EF})"
    ENLx = f"(?:[{ENL}]{EF})"
    MIDLx = f"(?:[{MIDL}]{EF})"
    MIDNx = f"(?:[{MIDN}]{EF})"
    SQx = f"(?:[{SQ}]{EF})"
    DQx = f"(?:[{DQ}]{EF})"
    RIx = f"(?:[{RI}]{EF})"

    # the repeated "core" alternation of the WORD rule
    core = (f"(?:{HEBx}(?:{SQx}|{DQx}{HEBx})"
            f"|{NUMx}(?:(?:{ENLx}*|{MIDNx}){NUMx})*"
            f"|{AHx}(?:(?:{ENLx}*|{MIDLx}){AHx})*)+")
    kata_seq = f"{KATx}(?:{ENLx}*{KATx})*"
    unit = f"(?:{kata_seq}|{core})"
    word = f"{ENLx}*{unit}(?:{ENLx}+{unit})*{ENLx}*"

    numeric = f"{ENLx}*{NUMx}(?:(?:{ENLx}*|{MIDNx}){NUMx})*{ENLx}*"

    # --- emoji rule (TR#51 emoji_sequence, as encoded by the reference grammar) ---
    keycap_base = "[0-9#*]" + EFZ
    keycap = "\u20E3" + EFZ
    pres_sel = "\uFE0F?"
    # EmojiChar = Extended_Pictographic | (Emoji -- RKAM); our PICT set approximates both
    emoji_char_ex = f"(?:[{PICT}]{EFZ})"
    emod_base_ex = f"(?:[{EMODB}]{EFZ})"
    emod_ex = f"(?:[{EMOD}]{EFZ})"
    # modifier-sequence branch first: Python alternation is leftmost-first,
    # jflex is longest-match, and Emoji_Modifier_Base ⊂ Extended_Pictographic
    ecpms = (f"(?:(?:[{ZWJ}]*{emod_base_ex})?{emod_ex}"
             f"|[{ZWJ}]*{emoji_char_ex}{pres_sel})")
    tag_spec = "[\U000E0020-\U000E007E]"
    tag_term = "\U000E007F"
    emoji = (f"(?:{ecpms}(?:(?:[{ZWJ}]{ecpms})*|{tag_spec}+{tag_term})"
             f"|{keycap_base}{pres_sel}{keycap}"
             f"|{RIx}{RIx})")

    hangul = f"(?:[{HANG}]{EF})+"
    katakana = f"(?:[{KATA}]{EF})+"
    sea = f"(?:[{SEA}]{EF})+"
    han = f"[{HAN}]{EF}"
    hira = f"[{HIRA}]{EF}"

    # rule order = reference grammar order (ties go to the earlier rule)
    rules = [
        (re.compile(emoji), EMOJI),
        (re.compile(numeric), NUM),
        (re.compile(hangul), HANGUL),
        (re.compile(katakana), KATAKANA),
        (re.compile(word), ALPHANUM),
        (re.compile(sea), SOUTHEAST_ASIAN),
        (re.compile(han), IDEOGRAPHIC),
        (re.compile(hira), HIRAGANA),
    ]

    # Fast path: ONE combined alternation for token TEXT (types dropped).
    # Valid because NUMERIC / HANGUL / KATAKANA are typing-only subsets of the
    # WORD rule (the grammar itself says "subset of the below for typing
    # purposes only"), and the remaining branches start on disjoint character
    # classes, so leftmost-branch dispatch == longest-match for token text.
    fast = re.compile(f"(?:{emoji}|{word}|{sea}|{han}|{hira})")

    # ASCII-only specialization of the WORD rule (used when text.isascii():
    # no Extend/Format/emoji chars can occur, classes shrink to a few chars).
    # ASCII projections: AHLetter=[A-Za-z] Numeric=[0-9] ExtendNumLet=[_]
    # MidLetter∪MidNumLet∪SQ=[:.'] MidNum∪MidNumLet∪SQ=[,;.']
    core_a = r"(?:[0-9](?:(?:[,;.']|_*)[0-9])*|[A-Za-z](?:(?:[:.']|_*)[A-Za-z])*)+"
    ascii_word = re.compile(rf"_*{core_a}(?:_+{core_a})*_*")
    return rules, fast, ascii_word


_RULES, _FAST, _ASCII = _build_scanner()

# one regex matching any char that can START a token, to skip separator runs fast
_STARTER = re.compile(
    "[" + "".join(_cls(getattr(WB, n)) for n in
                  ("ALETTER", "HEBREW", "NUMERIC", "KATAKANA", "HIRAGANA",
                   "HAN", "HANGUL", "SEA", "EXTENDNUMLET",
                   "REGIONAL_INDICATOR", "EXT_PICTOGRAPHIC", "EMOJI_MODIFIER"))
    + "0-9#*]")


def token_type(term: str) -> str:
    """Classify a single (already extracted) token with the scanner's typed
    rule order — the TypeAttribute a StandardTokenizer would have assigned
    (`standard/StandardTokenizer.java:43-57` type table).  Used by the
    TypeTokenFilter stage, which reclassifies because the columnar chain
    does not carry types."""
    for rx, typ in _RULES:
        m = rx.match(term)
        if m and m.end() == len(term):
            return typ
    return ALPHANUM


def scan(text: str, max_token_length: int = DEFAULT_MAX_TOKEN_LENGTH) -> Iterator[tuple[str, int, int, str]]:
    """Yield (token_text, start_offset, end_offset, type) per UAX#29.

    Longest match across the ordered rules wins; ties go to the earliest
    rule (jflex semantics).  Matches longer than ``max_token_length`` are
    chopped: the first ``max_token_length`` chars are emitted and scanning
    resumes at the cut (StandardTokenizer.java:88-98).
    """
    pos = 0
    n = len(text)
    while pos < n:
        m = _STARTER.search(text, pos)
        if m is None:
            return
        pos = m.start()
        best_end = -1
        best_type = None
        for pat, ttype in _RULES:
            mm = pat.match(text, pos)
            if mm is not None and mm.end() > best_end:
                best_end = mm.end()
                best_type = ttype
        if best_end <= pos:
            pos += 1
            continue
        if best_end - pos > max_token_length:
            best_end = pos + max_token_length
        yield text[pos:best_end], pos, best_end, best_type
        pos = best_end


# ---------------------------------------------------------------------------
# LowerCaseFilter — JDK Character.toLowerCase(int) simple mapping parity.
# Python's str.lower() applies FULL case mapping ('İ' -> 'i̇', final sigma);
# the JDK applies the UnicodeData simple mapping per code point.
# ---------------------------------------------------------------------------

_LOWER_CACHE: dict[str, str] = {}


def _jdk_lower_char(ch: str) -> str:
    m = ch.lower()
    if len(m) == 1:
        return m
    # full mapping expanded to multiple chars -> JDK uses the simple mapping
    if ch == "İ":          # LATIN CAPITAL LETTER I WITH DOT ABOVE -> i
        return "i"
    return ch                    # no simple lowercase (e.g. ligatures) -> identity


_ASCII_UPPER = re.compile(r"[A-ZÀ-ɏͰ-ϿЀ-ӿİ]")


def jdk_lower(s: str) -> str:
    """Per-code-point simple lowercase (LowerCaseFilter.java:38 semantics)."""
    if s.isascii():
        return s.lower()
    out = []
    for ch in s:
        lc = _LOWER_CACHE.get(ch)
        if lc is None:
            lc = _jdk_lower_char(ch)
            _LOWER_CACHE[ch] = lc
        out.append(lc)
    return "".join(out)


def fast_tokens(text: str, max_token_length: int = DEFAULT_MAX_TOKEN_LENGTH) -> list[str]:
    """Token texts via the combined single-regex pass (no types)."""
    pat = _ASCII if text.isascii() else _FAST
    toks = pat.findall(text)
    if len(text) <= max_token_length or not any(len(t) > max_token_length for t in toks):
        return toks
    # over-long match(es): chop + re-lex from each cut (rare path)
    out = []
    append = out.append
    for m in pat.finditer(text):
        tok = m.group()
        if len(tok) <= max_token_length:
            append(tok)
        else:
            cur, end = m.start(), m.end()
            while cur < end:
                # match against a bounded window: re-lexing a giant run with
                # an unbounded match would be O(n^2) in the run length
                win = text[cur:min(end, cur + max_token_length + 64)]
                mm = pat.match(win)
                if mm is None:
                    cur += 1
                    continue
                if mm.end() == len(win) and cur + len(win) < end:
                    cut = cur + max_token_length       # token continues: chop
                else:
                    cut = cur + min(mm.end(), max_token_length)
                append(text[cur:cut])
                cur = cut
    return out


def analyze(text: str, max_token_length: int = DEFAULT_MAX_TOKEN_LENGTH) -> list[str]:
    """StandardAnalyzer: tokenize + lowercase; returns terms in order.

    Position increments are all 1 (empty stop set), so position i == index i.
    """
    if text.isascii():
        # ASCII str.lower() == JDK simple mapping, and lowering the whole
        # text first cannot change ASCII token boundaries — one C call
        return fast_tokens(text.lower(), max_token_length)
    return [jdk_lower(t) for t in fast_tokens(text, max_token_length)]


def analyze_detailed(text: str, max_token_length: int = DEFAULT_MAX_TOKEN_LENGTH):
    """Returns list of (term, position, start_offset, end_offset, type)."""
    out = []
    for i, (tok, s, e, ty) in enumerate(scan(text, max_token_length)):
        out.append((jdk_lower(tok), i, s, e, ty))
    return out


def tokenize_batch(texts) -> list[list[str]]:
    """Batch form used inside map_batches: list of docs -> list of term lists."""
    return [analyze(t) if t else [] for t in texts]


# ---------------------------------------------------------------------------
# Columnar batch tokenization (the index-build hot path).
#
# Every ASCII row takes a GIL-free Rust-regex path (polars str.to_lowercase +
# str.extract_all with the same ASCII WORD pattern — leftmost-first
# alternation semantics match Python re).  A match longer than
# DEFAULT_MAX_TOKEN_LENGTH needs fast_tokens' chop + re-lex, so one
# vectorized length check over the extracted tokens sends its row, like
# every non-ASCII row, to the per-row analyzer.  Token parity with analyze()
# is asserted in tests.
# ---------------------------------------------------------------------------

def tokenize_column(col):
    """pa.Array/ChunkedArray of text -> (lengths int64[], flat tokens pa.Array).

    flat concatenates every document's terms in document order; lengths give
    tokens per document.  Only non-ASCII rows and rows holding a token over
    DEFAULT_MAX_TOKEN_LENGTH chars run the per-row ``analyze()``.
    """
    import numpy as np
    import pyarrow as pa

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.zeros(0, dtype=np.int64), pa.array([], type=pa.string())
    try:
        import os

        # one tokenize task == one CPU slot; don't let polars spawn a pool
        os.environ.setdefault("POLARS_MAX_THREADS", "1")
        import polars as pl

        s = pl.Series("t", col).fill_null("")
        is_ascii = s.str.len_bytes() == s.str.len_chars()
        toks = s.set(~is_ascii, "").str.to_lowercase().str.extract_all(_ASCII.pattern)
        lengths = toks.list.len().cast(pl.Int64).to_numpy().copy()
        flat = toks.explode(empty_as_null=True).drop_nulls()
        slow = ~is_ascii.to_numpy()
        long_tok = (flat.str.len_bytes() > DEFAULT_MAX_TOKEN_LENGTH).to_numpy()
        if long_tok.any():
            tok_row = np.repeat(np.arange(n), lengths)
            slow[tok_row[long_tok]] = True
            flat = flat.filter(pl.Series(~slow[tok_row]))
        flat_pa = flat.to_arrow()
    except Exception:
        slow = np.ones(n, dtype=bool)
        lengths = np.zeros(n, dtype=np.int64)
        flat_pa = pa.array([], type=pa.string())

    slow_idx = np.nonzero(slow)[0]
    if len(slow_idx):
        # slow rows' tokens go after the fast ones, then one take puts every
        # token back in document order
        slow_tokens = [analyze(v) if v else [] for v in col.take(slow_idx).to_pylist()]
        lengths[slow_idx] = [len(t) for t in slow_tokens]
        slow_flat = pa.array([t for ts in slow_tokens for t in ts], type=flat_pa.type)
        from_slow = np.repeat(slow, lengths)
        src = np.empty(len(from_slow), dtype=np.int64)
        src[~from_slow] = np.arange(len(flat_pa))
        src[from_slow] = len(flat_pa) + np.arange(len(slow_flat))
        flat_pa = pa.concat_arrays([flat_pa, slow_flat]).take(pa.array(src))
    return lengths, flat_pa

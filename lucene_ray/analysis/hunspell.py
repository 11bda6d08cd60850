"""Hunspell affix-dictionary stemming.

Re-expresses the core of `analysis/common/.../hunspell/` —
`Dictionary.java` (.aff/.dic parsing: FLAG single/long/num modes, PFX/SFX
rule tables with strip/affix/continuation/condition, FULLSTRIP),
`Stemmer.java` (dictionary-word stems, one- and two-fold suffix removal
via continuation classes, prefix removal, cross-product prefix+suffix),
and `HunspellStemFilter.java` (all unique stems emitted, first stem
replaces the token, the rest overlay at posInc 0; unknown words pass
through; longestOnly keeps the length-then-text max).

Round 5 adds the compounding subset (`Dictionary.java` compound directives
+ `Hunspell.java` checkCompounds): COMPOUNDRULE (flag-pattern NFA with
*/?/() tokens across FLAG single/long/num modes), COMPOUNDFLAG with
COMPOUNDMIN/COMPOUNDPERMITFLAG/COMPOUNDFORBIDFLAG (affixed parts allowed
when boundary-touching affixes carry the permit flag; forbid-flagged
homonyms block begin/middle positions), the boundary checks
CHECKCOMPOUNDDUP / CHECKCOMPOUNDTRIPLE / CHECKCOMPOUNDREP (REP table) /
CHECKCOMPOUNDCASE / CHECKCOMPOUNDPATTERN, plus NEEDAFFIX and
ONLYINCOMPOUND filtering in standalone analysis — exercised by the
reference's own spell-checking fixtures (compoundrule1-8, compoundflag,
checkcompound*, compoundforbid, needaffix, onlyincompound).

Also implemented (round-5 extensions): COMPOUNDBEGIN/MIDDLE/END position
classes + FORBIDDENWORD + continuation-enabled affix cross-products
(germancompounding), the BREAK table, and case-variant analysis —
KEEPCASE, hidden title-folded homonyms (Dictionary.HIDDEN_FLAG),
UPPER/TITLE variant generation with apostrophe capitalization, CHECKSHARPS
ss/ß variation, and trailing-dot handling (keepcase / allcaps /
checksharps fixtures).

Also: AF flag aliases + AM morph aliases with `st:` stem overrides
(compressed real-world dictionaries), IGNORE character stripping,
CIRCUMFIX pairing, and case-variant stemming (hidden homonyms surface
for UPPER/TITLE inputs — TestCompressed/TestMorphAlias/TestIgnore/
TestCircumfix vectors).

Also: ICONV/OCONV longest-match conversion tables (input folding before
analysis, output rewriting of returned stems — TestConv vectors).

Remaining subset boundaries (documented): number recognition and
suggestion generation (TRY/MAXNGRAMSUGS/REP suggestions — the engine is
a stemmer/speller; the repo's spellcheck surface is the n-gram
SpellChecker).
"""

from __future__ import annotations

import re
from dataclasses import dataclass


HIDDEN = "￧"     # Dictionary.HIDDEN_FLAG: title-folded case homonyms


def _word_case(w: str) -> str:
    """`WordCase.caseOf`: upper (no lowercase cased chars), title (first
    upper, rest without uppercase), lower, or mixed."""
    has_lower = any(c.islower() for c in w)
    has_upper = any(c.isupper() for c in w)
    if has_upper and not has_lower:
        return "upper"
    if w[:1].isupper() and not any(c.isupper() for c in w[1:]):
        return "title"
    if not has_upper:
        return "lower"
    return "mixed"


def _sharp_variants(s: str, depth: int = 0):
    """CHECKSHARPS `varySharpS`: every combination substituting each 'ss'
    occurrence with 'ß' (depth-capped), excluding the original."""
    def expand(start, depth):
        if depth > 5:
            return [s[start:]]
        i = s.find("ss", start)
        if i < 0:
            return None
        tails = expand(i + 2, depth + 1) or [s[i + 2:]]
        out = []
        for t in tails:
            out.append(s[start:i] + "ss" + t)
            out.append(s[start:i] + "ß" + t)
        return out

    res = expand(0, 0)
    if res is None:
        return
    for v in res:
        if v != s:
            yield v


@dataclass(frozen=True)
class AffixRule:
    flag: str
    cross_product: bool
    strip: str
    affix: str
    cont: frozenset
    cond: object          # compiled regex or None (condition ".")


def _parse_flags(s: str, mode: str) -> tuple:
    """FLAG modes (`hunspell/Dictionary.java` parseFlagType): default one
    char per flag, ``long`` two chars, ``num`` comma-separated integers."""
    if not s:
        return ()
    if mode == "num":
        return tuple(x.strip() for x in s.split(",") if x.strip())
    if mode == "long":
        return tuple(s[i:i + 2] for i in range(0, len(s) - 1, 2))
    return tuple(s)


def _cond_regex(cond: str, anchor_end: bool):
    """Affix condition -> compiled regex (chars and [^..] groups, '.'
    wildcard); None when the condition is '.' (always applies).  SFX
    conditions anchor at the END of the candidate stem, PFX at the START
    (`Dictionary.java` condition handling)."""
    if cond in (".", ""):
        return None
    out, i = [], 0
    while i < len(cond):
        c = cond[i]
        if c == "[":
            j = cond.find("]", i + 1)
            if j < 0:                       # unterminated class: literal
                out.append(re.escape(cond[i:]))
                i = len(cond)
                continue
            body = cond[i + 1:j]
            neg = body.startswith("^")
            if neg:
                body = body[1:]
            out.append("[" + ("^" if neg else "")
                       + body.replace("\\", "\\\\").replace("]", "\\]") + "]")
            i = j + 1
        elif c == ".":
            out.append(".")
            i += 1
        else:
            out.append(re.escape(c))
            i += 1
    rx = "".join(out)
    return re.compile(rx + "$") if anchor_end else re.compile("^" + rx)


class HunspellDictionary:
    """Parsed .aff + .dic; `stem` / `unique_stems` mirror `Stemmer.java`."""

    def __init__(self, aff_text: str, dic_text: str):
        self.flag_mode = "single"
        self.fullstrip = False
        self.prefixes: list[AffixRule] = []
        self.suffixes: list[AffixRule] = []
        # compounding directives (Dictionary.java compound* fields)
        self.compound_rules: list[list[tuple[str, str]]] = []
        self.compound_flag: str | None = None
        self.compound_min = 3
        self.compound_max = 1 << 30
        self.compound_permit: str | None = None
        self.compound_forbid: str | None = None
        self.check_compound_dup = False
        self.check_compound_triple = False
        self.check_compound_rep = False
        self.check_compound_case = False
        self.check_compound_patterns: list[tuple] = []
        self.rep_table: list[tuple[str, str]] = []
        self.needaffix: str | None = None
        self.onlyincompound: str | None = None
        self.compound_begin: str | None = None
        self.compound_middle: str | None = None
        self.compound_end: str | None = None
        self.forbiddenword: str | None = None
        self.keepcase: str | None = None
        self.circumfix: str | None = None
        self.ignore_chars = ""
        self.af_table: list[str] = []       # AF flag aliases (1-based)
        self.am_table: list[str] = []       # AM morph aliases (1-based)
        self.iconv: list[tuple[str, str]] = []   # input conversions
        self.oconv: list[tuple[str, str]] = []   # output conversions
        self.check_sharps = False
        # BREAK table; None = use the hunspell default {-, ^-, -$}
        self.break_table: list[str] | None = None
        self._parse_aff(aff_text)
        self.words: dict[str, list[frozenset]] = {}
        self.morphs: dict[str, list] = {}   # st: overrides per homonym
        self._parse_dic(dic_text)
        # index rules by affix for the analysis direction
        self._sfx_by_len: dict[int, list[AffixRule]] = {}
        for r in self.suffixes:
            self._sfx_by_len.setdefault(len(r.affix), []).append(r)
        self._pfx_by_len: dict[int, list[AffixRule]] = {}
        for r in self.prefixes:
            self._pfx_by_len.setdefault(len(r.affix), []).append(r)

    # ---- parsing ----
    def _parse_aff(self, text: str) -> None:
        lines = text.splitlines()
        raw_rules: list[str] = []
        single_flag_raw: dict[str, str] = {}
        i = 0
        while i < len(lines):
            parts = lines[i].split()
            i += 1
            if not parts or parts[0].startswith(("#", "//")):
                continue
            key = parts[0]
            if key == "COMPOUNDRULE" and len(parts) > 1:
                if not parts[1].isdigit():
                    raw_rules.append(parts[1])
            elif key in ("COMPOUNDFLAG", "COMPOUNDPERMITFLAG",
                         "COMPOUNDFORBIDFLAG", "NEEDAFFIX", "PSEUDOROOT",
                         "ONLYINCOMPOUND", "COMPOUNDBEGIN", "COMPOUNDMIDDLE",
                         "COMPOUNDEND", "FORBIDDENWORD",
                         "KEEPCASE", "CIRCUMFIX") and len(parts) > 1:
                single_flag_raw[key] = parts[1]
            elif key == "IGNORE" and len(parts) > 1:
                self.ignore_chars = parts[1]
            elif key == "AF" and len(parts) > 1:
                if not parts[1].isdigit():
                    self.af_table.append(parts[1])
            elif key == "AM" and len(parts) > 1:
                if not (len(parts) == 2 and parts[1].isdigit()):
                    self.am_table.append(
                        " ".join(parts[1:]).split("#")[0].strip())
            elif key == "CHECKSHARPS":
                self.check_sharps = True
            elif key in ("ICONV", "OCONV") and len(parts) > 2:
                tbl = self.iconv if key == "ICONV" else self.oconv
                tbl.append((parts[1], parts[2]))
            elif key == "COMPOUNDMIN" and len(parts) > 1:
                self.compound_min = max(1, int(parts[1]))
            elif key == "COMPOUNDWORDMAX" and len(parts) > 1:
                self.compound_max = max(1, int(parts[1]))
            elif key == "CHECKCOMPOUNDDUP":
                self.check_compound_dup = True
            elif key == "CHECKCOMPOUNDTRIPLE":
                self.check_compound_triple = True
            elif key == "CHECKCOMPOUNDREP":
                self.check_compound_rep = True
            elif key == "CHECKCOMPOUNDCASE":
                self.check_compound_case = True
            elif key == "CHECKCOMPOUNDPATTERN" and len(parts) > 2:
                self.check_compound_patterns.append(
                    (parts[1], parts[2],
                     parts[3] if len(parts) > 3 else None))
            elif key == "REP" and len(parts) > 2:
                self.rep_table.append((parts[1], parts[2]))
            elif key == "BREAK" and len(parts) > 1:
                # an explicit table replaces the default (BREAK 0 turns
                # breaking off entirely); entries may precede the count line
                if self.break_table is None:
                    self.break_table = []
                if not parts[1].isdigit():
                    self.break_table.append(parts[1])
            if key == "FLAG" and len(parts) > 1:
                self.flag_mode = {"long": "long", "num": "num",
                                  "UTF-8": "single"}.get(parts[1], "single")
            elif key == "FULLSTRIP":
                self.fullstrip = True
            elif key in ("PFX", "SFX") and len(parts) >= 4:
                flag, cross, count = parts[1], parts[2] == "Y", int(parts[3])
                for _ in range(count):
                    while i < len(lines) and not lines[i].split():
                        i += 1
                    rp = lines[i].split()
                    i += 1
                    # PFX <flag> <strip> <affix[/cont]> <condition> [morph..]
                    strip = "" if rp[2] == "0" else rp[2]
                    affix_full = rp[3]
                    if "/" in affix_full:
                        affix, cont_s = affix_full.split("/", 1)
                    else:
                        affix, cont_s = affix_full, ""
                    affix = "" if affix == "0" else affix
                    cond = rp[4] if len(rp) > 4 else "."
                    self_list = self.prefixes if key == "PFX" else self.suffixes
                    self_list.append(AffixRule(
                        flag=flag, cross_product=cross, strip=strip,
                        affix=affix,
                        cont=frozenset(_parse_flags(cont_s, self.flag_mode)),
                        cond=_cond_regex(cond, anchor_end=(key == "SFX"))))
        # flag-typed directives resolve after the whole file (FLAG mode may
        # follow them); COMPOUNDRULE patterns tokenize per flag mode
        def one_flag(s):
            fl = _parse_flags(s, self.flag_mode)
            return fl[0] if fl else None

        self.compound_flag = one_flag(single_flag_raw.get("COMPOUNDFLAG", ""))
        self.compound_permit = one_flag(
            single_flag_raw.get("COMPOUNDPERMITFLAG", ""))
        self.compound_forbid = one_flag(
            single_flag_raw.get("COMPOUNDFORBIDFLAG", ""))
        self.needaffix = one_flag(single_flag_raw.get(
            "NEEDAFFIX", single_flag_raw.get("PSEUDOROOT", "")))
        self.onlyincompound = one_flag(
            single_flag_raw.get("ONLYINCOMPOUND", ""))
        self.compound_begin = one_flag(single_flag_raw.get("COMPOUNDBEGIN", ""))
        self.compound_middle = one_flag(
            single_flag_raw.get("COMPOUNDMIDDLE", ""))
        self.compound_end = one_flag(single_flag_raw.get("COMPOUNDEND", ""))
        self.forbiddenword = one_flag(single_flag_raw.get("FORBIDDENWORD", ""))
        self.keepcase = one_flag(single_flag_raw.get("KEEPCASE", ""))
        self.circumfix = one_flag(single_flag_raw.get("CIRCUMFIX", ""))
        self.compound_rules = [self._tokenize_rule(r) for r in raw_rules]
        # longest-match-first conversion order (ConvTable trie semantics)
        self.iconv.sort(key=lambda pr: -len(pr[0]))
        self.oconv.sort(key=lambda pr: -len(pr[0]))
        self.check_compound_patterns = [
            self._parse_cpd_pattern(e, b, r)
            for e, b, r in self.check_compound_patterns]

    def _tokenize_rule(self, pattern: str) -> list[tuple[str, str]]:
        """COMPOUNDRULE pattern -> [(flag, quant)] with quant in
        {'1','*','?'}; '(..)' groups one long/num flag, every other char
        except */? is a flag (including '.', digits, '%')."""
        toks: list[tuple[str, str]] = []
        i = 0
        while i < len(pattern):
            c = pattern[i]
            if c == "(":
                j = pattern.find(")", i + 1)
                if j < 0:
                    flag, i = pattern[i + 1:], len(pattern)
                else:
                    flag, i = pattern[i + 1:j], j + 1
            else:
                flag, i = c, i + 1
            quant = "1"
            if i < len(pattern) and pattern[i] in "*?":
                quant, i = pattern[i], i + 1
            toks.append((flag, quant))
        return toks

    def _parse_cpd_pattern(self, end_s: str, begin_s: str,
                           repl: str | None) -> tuple:
        """CHECKCOMPOUNDPATTERN operand: endchars[/flag] beginchars[/flag]
        [replacement].  The literal '0' keeps its reference meaning
        (non-affixed root must abut the boundary —
        `CheckCompoundPattern.isNonAffixedPattern`)."""
        def split(s):
            if "/" in s:
                txt, fs = s.split("/", 1)
                fl = _parse_flags(fs, self.flag_mode)
                flag = fl[0] if fl else None
            else:
                txt, flag = s, None
            return txt, flag

        e_txt, e_flag = split(end_s)
        b_txt, b_flag = split(begin_s)
        return e_txt, e_flag, b_txt, b_flag, repl

    def _parse_dic(self, text: str) -> None:
        lines = text.splitlines()
        start = 1 if lines and lines[0].strip().isdigit() else 0
        for ln in lines[start:]:
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            fields = ln.split("\t")
            entry = fields[0].split(" ")[0]
            # morph data: the remainder of the line (tab- or space-
            # separated); numeric tokens resolve through the AM alias
            # table; an `st:` token overrides the returned stem
            morph_raw = " ".join([fields[0][len(entry):]] + fields[1:])
            st_override = None
            for tok in morph_raw.split():
                if tok.isdigit() and self.am_table:
                    idx = int(tok) - 1
                    if 0 <= idx < len(self.am_table):
                        tok = self.am_table[idx]
                if tok.startswith("st:"):
                    st_override = tok[3:]
                    break
            # split word/flags at the first unescaped '/'
            word, flags_s = entry, ""
            k, esc = 0, []
            while k < len(entry):
                if entry[k] == "\\" and k + 1 < len(entry):
                    esc.append(entry[k + 1])
                    k += 2
                    continue
                if entry[k] == "/" and k > 0:
                    # a leading '/' is part of the word (entries like '/'
                    # or '/a' in the reference's escaped fixture); only a
                    # later unescaped slash separates flags
                    word, flags_s = "".join(esc), entry[k + 1:]
                    break
                esc.append(entry[k])
                k += 1
            else:
                word = "".join(esc)
            if self.iconv:
                word = self._apply_conv(self.iconv, word)
            if self.ignore_chars:
                word = "".join(c for c in word
                               if c not in self.ignore_chars)
            if not word:
                continue
            if flags_s.isdigit() and self.af_table:
                idx = int(flags_s) - 1
                flags_s = self.af_table[idx] \
                    if 0 <= idx < len(self.af_table) else ""
            fs = frozenset(_parse_flags(flags_s, self.flag_mode))
            self.words.setdefault(word, []).append(fs)
            self.morphs.setdefault(word, []).append(st_override)
            # hidden title-folded case homonym (Dictionary.java
            # addHiddenCapitalizedWord): MIXED entries always, UPPER
            # entries when flagged — reachable only through case variants
            wc = _word_case(word)
            if wc == "mixed" or (wc == "upper" and flags_s):
                hidden = word[0].upper() + word[1:].lower()
                if hidden != word:
                    self.words.setdefault(hidden, []).append(
                        fs | {HIDDEN})
                    self.morphs.setdefault(hidden, []).append(st_override)

    # ---- analysis (Stemmer.java) ----
    def _cond_ok(self, rule: AffixRule, stem: str) -> bool:
        return rule.cond is None or rule.cond.search(stem) is not None

    @staticmethod
    def _apply_conv(table, s: str) -> str:
        """ICONV/OCONV longest-match rewriting (`ConvTable.applyMappings`)."""
        if not table:
            return s
        out = []
        i = 0
        while i < len(s):
            for pat, rep in table:
                if s.startswith(pat, i):
                    out.append(rep)
                    i += len(pat)
                    break
            else:
                out.append(s[i])
                i += 1
        return "".join(out)

    def _entries(self, word: str):
        """(flag_set, st_override) per homonym of `word`."""
        ws = self.words.get(word, ())
        ms = self.morphs.get(word)
        for i, fs in enumerate(ws):
            yield fs, (ms[i] if ms else None)

    def _dict_with(self, word: str, *flags) -> int:
        """Count of homonym entries of `word` carrying ALL the flags."""
        return sum(1 for fs in self.words.get(word, ())
                   if all(f in fs for f in flags))

    def _raw_analyses(self, word: str):
        """Every affix analysis of `word`: yields (root, entry_flags,
        prefix_rules, suffix_rules) per matching homonym entry, bare form
        first (the reference's doStem root loop order).  No context
        filtering — `stem` / `_context_analyses` apply needaffix /
        onlyincompound / compound permit rules on top."""
        for fs, st in self._entries(word):
            yield word, fs, (), (), st
        # one suffix removed
        for alen, rules in self._sfx_by_len.items():
            if alen > len(word):
                continue
            tail = word[len(word) - alen:] if alen else ""
            for r in rules:
                if tail != r.affix:
                    continue
                cand = word[:len(word) - alen] + r.strip
                if not cand and not self.fullstrip:
                    continue
                if not self._cond_ok(r, cand):
                    continue
                for fs, st in self._entries(cand):
                    if r.flag in fs:
                        yield cand, fs, (), (r,), st
                # twofold: the outer suffix r was enabled by an inner
                # suffix rule whose continuation classes carry r.flag
                for blen, inner_rules in self._sfx_by_len.items():
                    if blen == 0 or blen > len(cand):
                        continue
                    btail = cand[len(cand) - blen:]
                    for r2 in inner_rules:
                        if btail != r2.affix or r.flag not in r2.cont:
                            continue
                        cand2 = cand[:len(cand) - blen] + r2.strip
                        if not cand2 and not self.fullstrip:
                            continue
                        if not self._cond_ok(r2, cand2):
                            continue
                        for fs, st in self._entries(cand2):
                            if r2.flag in fs:
                                yield cand2, fs, (), (r2, r), st
        # one prefix removed (optionally + one cross-product suffix)
        for plen, rules in self._pfx_by_len.items():
            if plen == 0 or plen > len(word):
                continue
            head = word[:plen]
            for p in rules:
                if head != p.affix:
                    continue
                cand = p.strip + word[plen:]
                if not cand and not self.fullstrip:
                    continue
                if not self._cond_ok(p, cand):
                    continue
                for fs, st in self._entries(cand):
                    if p.flag in fs:
                        yield cand, fs, (p,), (), st
                if not p.cross_product:
                    continue
                for alen, srules in self._sfx_by_len.items():
                    if alen > len(cand):
                        continue
                    # alen == 0 participates: zero-affix rules exist solely
                    # to append continuation flags (germancompounding's
                    # `SFX A 0 0/WXD`-style fogemorpheme carriers)
                    tail = cand[len(cand) - alen:] if alen else ""
                    for r in srules:
                        if not r.cross_product or tail != r.affix:
                            continue
                        cand2 = cand[:len(cand) - alen] + r.strip
                        if not cand2 and not self.fullstrip:
                            continue
                        if not self._cond_ok(r, cand2):
                            continue
                        for fs, st in self._entries(cand2):
                            # either affix may be enabled by the entry OR
                            # appended by the other affix's continuation
                            # (Stemmer.processStemCandidate's
                            # isFlagAppendedByAffix cross-check)
                            if (r.flag in fs or r.flag in p.cont) and \
                                    (p.flag in fs or p.flag in r.cont):
                                yield cand2, fs, (p,), (r,), st

    def _accept_case(self, oc, fs, root: str) -> bool:
        """`Hunspell.acceptCase`: keepcase entries reject case VARIANTS
        (oc != None) except the CHECKSHARPS title+ß exemption; exact-case
        lookups (oc None) reject hidden folded homonyms."""
        keep = self.keepcase is not None and self.keepcase in fs
        if oc is not None:
            if keep and self.check_sharps and oc == "title" and "ß" in root:
                return True
            return not keep
        return HIDDEN not in fs

    def _context_analyses(self, word: str, context: str, oc=None):
        """Analyses valid in a word context — 'simple' (standalone),
        'begin'/'middle'/'end' (COMPOUNDFLAG parts), 'rule_end'
        (COMPOUNDRULE last part).  Mirrors `Stemmer.doStem` +
        `isRootCompatibleWithContext` + `isAffixCompatible`; `oc` is the
        input word's case for variant acceptance (begin/simple contexts
        only, like `findStem`'s toCheck).  An accept-case rejection of a
        NON-hidden homonym aborts every analysis (the reference's doStem
        early return — a keepcase surface blocks its affixed readings
        too)."""
        eff_oc = oc if context in ("simple", "begin") else None
        if (context in ("begin", "middle") and self.compound_forbid
                and any(self.compound_forbid in fs
                        for fs in self.words.get(word, ()))):
            return                      # doStem aborts ALL analyses
        in_compound = context in ("begin", "middle", "end", "rule_end")
        needs_cf = context in ("begin", "middle", "end")
        # per-position required flag (COMPOUNDBEGIN/MIDDLE/END); the
        # general COMPOUNDFLAG satisfies any position
        # (Stemmer.isRootCompatibleWithContext)
        pos_flag = {"begin": self.compound_begin,
                    "middle": self.compound_middle,
                    "end": self.compound_end}.get(context)

        def cf_ok(fs, conts):
            for f in (pos_flag, self.compound_flag):
                if f and (f in fs or any(f in c for c in conts)):
                    return True
            return False

        for root, fs, pfx, sfx, st in self._raw_analyses(word):
            if self.forbiddenword and self.forbiddenword in fs:
                continue                # explicitly forbidden entry
            if not pfx and not sfx:
                if self.needaffix and self.needaffix in fs:
                    continue            # pseudostem requiring an affix
                if (context == "simple" and self.onlyincompound
                        and self.onlyincompound in fs):
                    continue
                if needs_cf and not cf_ok(fs, ()):
                    continue
                if not self._accept_case(eff_oc, fs, root):
                    if HIDDEN in fs:
                        continue
                    return              # doStem aborts ALL analyses
                yield root, fs, pfx, sfx, st
                continue
            conts = [r.cont for r in pfx] + [r.cont for r in sfx]
            if self.circumfix:
                # CIRCUMFIX: an affix carrying the circumfix marker is
                # valid only when the OTHER side carries it too
                # (Stemmer.needsAnotherAffix)
                pfx_c = any(self.circumfix in r.cont for r in pfx)
                sfx_c = any(self.circumfix in r.cont for r in sfx)
                if pfx_c != sfx_c:
                    continue
            if context == "simple":
                if self.onlyincompound and (
                        self.onlyincompound in fs
                        or any(self.onlyincompound in c for c in conts)):
                    continue
            if in_compound:
                if self.compound_forbid and any(
                        self.compound_forbid in r.cont for r in sfx):
                    continue
                # affixes touching an internal boundary need the permit
                # flag: suffixes on begin/middle parts, prefixes on
                # middle/end parts (WordContext.isAffixAllowedWithout
                # SpecialPermit)
                if context in ("begin", "middle") and any(
                        self.compound_permit not in r.cont for r in sfx):
                    continue
                if context in ("middle", "end") and any(
                        self.compound_permit not in r.cont for r in pfx):
                    continue
                if (context == "end" and self.onlyincompound and not pfx
                        and any(self.onlyincompound in r.cont for r in sfx)):
                    continue
            if needs_cf and not cf_ok(fs, conts):
                continue
            if not self._accept_case(eff_oc, fs, root):
                if HIDDEN in fs:
                    continue
                return                  # doStem aborts ALL analyses
            yield root, fs, pfx, sfx, st

    def stem(self, word: str) -> list[str]:
        """All stems (with homonym multiplicity, order-insensitive like the
        reference's sorted assertions): the surface root, or its `st:`
        morph override when the entry carries one; UPPER/TITLE inputs also
        stem through their case variants (Stemmer.stem + varyCase — how
        hidden folded homonyms like Xyz surface for XYZ input)."""
        if self.iconv:
            word = self._apply_conv(self.iconv, word)
        if self.ignore_chars:
            word = "".join(c for c in word if c not in self.ignore_chars)
        out = [st or root for root, _, _, _, st
               in self._context_analyses(word, "simple")]
        wc = "mixed" if not word[:1].isupper() else _word_case(word)
        if wc in ("upper", "title"):
            for variant, oc in self._case_variants(word, wc):
                out += [st or root for root, _, _, _, st
                        in self._context_analyses(variant, "simple", oc)]
        if self.oconv:
            out = [self._apply_conv(self.oconv, s) for s in out]
        return out

    # ---- spell checking (Hunspell.java spell/checkCompounds) ----

    def _is_simple_word(self, word: str) -> bool:
        return next(iter(self._context_analyses(word, "simple")), None) \
            is not None

    def spell(self, word: str) -> bool:
        """`Hunspell.spell`: trailing-dot handling, exact word (simple +
        compounds), UPPER/TITLE case variants (keepcase + hidden-homonym
        + CHECKSHARPS rules), then the BREAK table."""
        if self.iconv:
            word = self._apply_conv(self.iconv, word)
        if self.ignore_chars:
            word = "".join(c for c in word if c not in self.ignore_chars)
        if not word:
            return True
        if word.endswith("."):
            # spellWithTrailingDots: strip the dot run, try both forms
            n = len(word) - 1
            while n > 0 and word[n - 1] == ".":
                n -= 1
            return self._spell_clean(word[:n]) or \
                self._spell_clean(word[:n + 1])
        return self._spell_clean(word)

    def _check_simple(self, word: str, oc):
        """True / False(forbidden) / None(not found) — `checkSimpleWord`."""
        if self.forbiddenword and any(
                self.forbiddenword in fs for fs in self.words.get(word, ())):
            return False                # FORBIDDENWORD blocks the surface
        if next(iter(self._context_analyses(word, "simple", oc)),
                None) is not None:
            return True
        return None

    def _check_word(self, word: str, oc) -> bool:
        simple = self._check_simple(word, oc)
        if simple is not None:
            return simple
        if self.compound_rules and self._check_compound_rules(word):
            return True
        if (self.compound_flag or self.compound_begin) \
                and self._cpds(word, None, oc):
            return True
        return False

    def _case_variants(self, word: str, wc: str):
        """`Stemmer.varyCase` order: apostrophe-capitalized title, title,
        title sharps, lower, lower sharps (UPPER); lower (TITLE).  Sharp-s
        variants check with oc=None (keepcase-exempt, like the
        reference's varySharpS processor)."""
        if wc == "upper":
            title = word[0] + word[1:].lower()
            i = title.find("'", 1)
            if 0 < i < len(title) - 1:
                apos = title[:i + 1] + title[i + 1].upper() + title[i + 2:]
                if apos != title:
                    yield apos, "upper"
            yield title, "upper"
            if self.check_sharps:
                yield from ((v, None) for v in _sharp_variants(title))
            lower = title[0].lower() + title[1:]
            yield lower, "upper"
            if self.check_sharps:
                yield from ((v, None) for v in _sharp_variants(lower))
        elif wc == "title":
            yield word[0].lower() + word[1:], "title"

    def _spell_clean(self, word: str) -> bool:
        if self._check_word(word, None):
            return True
        if self._check_simple(word, None) is False:
            return False                # forbidden surface: no variants
        wc = "mixed" if not word[:1].isupper() else _word_case(word)
        if wc in ("upper", "title"):
            for variant, oc in self._case_variants(word, wc):
                if self._check_word(variant, oc):
                    return True
        # BREAK table (`Dictionary.java` breaks + `Hunspell.tryBreaks`):
        # '^x' trims a leading x, 'x$' a trailing x, anything else splits at
        # every middle occurrence with both pieces spelled recursively; an
        # explicit BREAK table replaces the default {-, ^-, -$}, BREAK 0
        # disables breaking
        table = self.break_table if self.break_table is not None \
            else ["-", "^-", "-$"]
        for entry in table:
            if entry.startswith("^"):
                t = entry[1:]
                if t and word.startswith(t) and len(word) > len(t) \
                        and self._spell_clean(word[len(t):]):
                    return True
            elif entry.endswith("$"):
                t = entry[:-1]
                if t and word.endswith(t) and len(word) > len(t) \
                        and self._spell_clean(word[:-len(t)]):
                    return True
            elif entry:
                start = 1
                while True:
                    i = word.find(entry, start)
                    if i < 0 or i + len(entry) >= len(word):
                        break
                    if self._spell_clean(word[:i]) and \
                            self._spell_clean(word[i + len(entry):]):
                        return True
                    start = i + 1
        return False

    # COMPOUNDRULE (`Hunspell.checkCompoundRules` + `CompoundRule`)

    def _nfa_match(self, toks, parts, full: bool) -> bool:
        """NFA over part flag-sets; `parts` is a list of homonym-flagset
        tuples; `full` requires the whole pattern consumed."""
        def closure(states):
            states = set(states)
            stack = list(states)
            while stack:
                ti = stack.pop()
                if ti < len(toks) and toks[ti][1] in "*?" \
                        and ti + 1 not in states:
                    states.add(ti + 1)
                    stack.append(ti + 1)
            return states

        states = closure({0})
        for forms in parts:
            nxt = set()
            for ti in states:
                if ti >= len(toks):
                    continue
                flag, q = toks[ti]
                if any(flag in fs for fs in forms):
                    nxt.add(ti if q == "*" else ti + 1)
            if not nxt:
                return False
            states = closure(nxt)
        return (len(toks) in states) if full else True

    def _check_compound_rules(self, word: str) -> bool:
        cmin = self.compound_min
        words = self.words

        def rec(offset: int, parts: list) -> bool:
            if len(parts) >= 100:
                return False
            remaining = len(word) - offset
            for bp in range(cmin, remaining - cmin + 1):
                forms = words.get(word[offset:offset + bp])
                if not forms:
                    continue
                parts.append(tuple(forms))
                if any(self._nfa_match(r, parts, full=False)
                       for r in self.compound_rules):
                    if self._last_rule_part(word[offset + bp:], parts):
                        parts.pop()
                        return True
                    if rec(offset + bp, parts):
                        parts.pop()
                        return True
                parts.pop()
            return False

        return rec(0, [])

    def _last_rule_part(self, rest: str, parts: list) -> bool:
        """`checkLastCompoundPart`: the final part may be an affixed form;
        rule matching uses its root entry's flags."""
        for _root, fs, _p, _s, _st in self._context_analyses(rest, "rule_end"):
            if any(self._nfa_match(r, parts + [(fs,)], full=True)
                   for r in self.compound_rules):
                return True
        return False

    # COMPOUNDFLAG (`Hunspell.checkCompounds` + `CompoundPart`)

    def _find_compound_stem(self, surface: str, context: str, oc=None):
        """First acceptable root, like `findStem` (the reference stops at
        the first processed root; the input case is checked for BEGIN
        parts only — `findStem`'s toCheck)."""
        return next(iter(self._context_analyses(surface, context, oc)),
                    None)

    def _may_break(self, tail: str, bp: int) -> bool:
        """`mayBreakIntoCompounds`: raw-character CASE and TRIPLE checks at
        the break position (bounds relative to the current tail)."""
        if self.check_compound_case:
            a, b = tail[bp - 1], tail[bp]
            if (a.isupper() or b.isupper()) and a != "-" and b != "-":
                return False
        if self.check_compound_triple and tail[bp - 1] == tail[bp]:
            if (bp > 1 and tail[bp - 2] == tail[bp - 1]) or \
                    (bp < len(tail) - 1 and tail[bp] == tail[bp + 1]):
                return False
        return True

    def _pattern_prohibits(self, pat, tail: str, bp: int,
                           before, after) -> bool:
        """`CheckCompoundPattern.prohibitsCompounding`; `before`/`after`
        are (root, entry_flags).  The literal '0' operand requires the
        NON-affixed root surface to abut the boundary."""
        e_txt, e_flag, b_txt, b_flag, _repl = pat
        broot, bfs = before
        aroot, afs = after
        if e_txt == "0":
            if tail[max(bp - len(broot), 0):bp] != broot:
                return False
        elif not tail[:bp].endswith(e_txt):
            return False
        if b_txt == "0":
            if tail[bp:bp + len(aroot)] != aroot:
                return False
        elif not tail[bp:].startswith(b_txt):
            return False
        if e_flag and e_flag not in bfs:
            return False
        if b_flag and b_flag not in afs:
            return False
        return True

    def _rep_candidates(self, s: str):
        for frm, to in self.rep_table:
            if frm.startswith("^") or frm.endswith("$"):
                continue                # only middle entries (RepEntry.isMiddle)
            start = s.find(frm)
            while start >= 0:
                yield s[:start] + to + s[start + len(frm):]
                start = s.find(frm, start + 1)

    def _may_compound(self, part, nxt, next_len: int) -> bool:
        """`CompoundPart.mayCompound`: pattern + CHECKCOMPOUNDREP checks at
        the boundary between `part` and the next stem."""
        tail, bp, root, rfs, _prev, _idx, enabler = part
        before, after = (root, rfs), (nxt[0], nxt[1])
        if enabler is not None:
            if not self._pattern_prohibits(enabler, tail, bp, before, after):
                return False
        elif any(self._pattern_prohibits(p, tail, bp, before, after)
                 for p in self.check_compound_patterns):
            return False
        if self.check_compound_rep and self.rep_table:
            region = tail[:bp + next_len]
            for cand in self._rep_candidates(region):
                if self._is_simple_word(cand):
                    return False
        return True

    def _cpds(self, tail: str, prev, oc=None) -> bool:
        """`Hunspell.checkCompounds(CharsRef, ...)`: recursive break-point
        scan over the current tail; `oc` reaches BEGIN stems only."""
        idx = 1 if prev is None else prev[5] + 1
        if idx > self.compound_max - 1:
            return False
        cmin = self.compound_min
        n = len(tail)
        ctx = "begin" if prev is None else "middle"
        for bp in range(cmin, n - cmin + 1):
            if self._may_break(tail, bp):
                stem = self._find_compound_stem(tail[:bp], ctx, oc)
                if stem is not None and (
                        prev is None or self._may_compound(prev, stem, bp)):
                    part = (tail, bp, stem[0], stem[1], prev, idx, None)
                    if self._cpds_after(part, oc):
                        return True
            # CHECKCOMPOUNDPATTERN replacement expansion
            for pat in self.check_compound_patterns:
                repl = pat[4]
                if not repl or not tail[bp:].startswith(repl):
                    continue
                expanded = tail[:bp] + pat[0] + pat[2] + tail[bp + len(repl):]
                bp2 = bp + len(pat[0])
                stem = self._find_compound_stem(expanded[:bp2], ctx, oc)
                if stem is None:
                    continue
                if prev is not None and not self._may_compound(
                        prev, stem, bp2):
                    continue
                part = (expanded, bp2, stem[0], stem[1], prev, idx, pat)
                if self._cpds_after(part, oc):
                    return True
        return False

    def _cpds_after(self, part, oc=None) -> bool:
        """`Hunspell.checkCompoundsAfter`: try closing the compound with
        the remaining tail as the last part, else recurse."""
        tail, bp, root, _rfs, _prev, _idx, _enabler = part
        rest = tail[bp:]
        last = self._find_compound_stem(rest, "end")
        if last is not None:
            dup = self.check_compound_dup and root == last[0]
            if not dup and self._may_compound(part, last, len(rest)):
                return True
        return self._cpds(rest, part, oc)

    def unique_stems(self, word: str) -> list[str]:
        seen, out = set(), []
        for s in self.stem(word):
            if s not in seen:
                seen.add(s)
                out.append(s)
        return out


_DICT_CACHE: dict = {}


def load_dictionary(aff_path: str, dic_path: str) -> HunspellDictionary:
    """Per-worker dictionary cache (the filter stage runs per batch; parse
    once per (aff, dic) like the reference's shared Dictionary object)."""
    key = (aff_path, dic_path)
    d = _DICT_CACHE.get(key)
    if d is None:
        with open(aff_path, encoding="utf-8") as f:
            aff = f.read()
        with open(dic_path, encoding="utf-8") as f:
            dic = f.read()
        d = _DICT_CACHE[key] = HunspellDictionary(aff, dic)
    return d


def filter_stems(word: str, d: HunspellDictionary,
                 longest_only: bool = False) -> list[str]:
    """HunspellStemFilter per-token behavior: unique stems; empty -> the
    original survives unchanged; longestOnly keeps the (length desc, text
    desc) max (`HunspellStemFilter.java:108-127,143`)."""
    stems = d.unique_stems(word)
    if not stems:
        return [word]
    if longest_only and len(stems) > 1:
        stems = [max(stems, key=lambda s: (len(s), s))]
    return stems

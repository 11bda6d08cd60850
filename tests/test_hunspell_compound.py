"""Hunspell compounding subset vs the reference's own spell-checking
fixtures (`analysis/common/src/test/.../hunspell/TestSpellChecking.java`
doTest harness: every `.good` word spells, every `.wrong` word does not),
plus the TestNeedAffix / TestOnlyInCompound stemmer vectors."""

import pytest

from lucene_ray.analysis.hunspell import HunspellDictionary


def check(aff, dic, good, wrong):
    d = HunspellDictionary(aff, dic)
    for w in good.split():
        assert d.spell(w), f"good word rejected: {w!r}"
    for w in wrong.split():
        assert not d.spell(w), f"wrong word accepted: {w!r}"


def test_compoundrule():
    check("COMPOUNDMIN 1\nCOMPOUNDRULE 1\nCOMPOUNDRULE ABC\n",
          "3\na/A\nb/B\nc/BC\n",
          "abc acc",
          """ba aaabaaa bbaaa aaaaba bbbbbaa aa aaa aaaa ab aab aaab aaaab
             abb aabb aaabbb bb bbb bbbb abcc abbc abbcc aabc aabcc aabbc
             aabbcc aaabbbccc ac aac aacc aaaccc bc bcc bbc bbcc bbbccc cc
             ccc cccccc""")


def test_compoundrule2():
    check("COMPOUNDMIN 1\nCOMPOUNDRULE 1\nCOMPOUNDRULE A*B*C*\n",
          "3\na/A\nb/B\nc/C\n",
          """aa aaa aaaa ab aab aaab aaaab abb aabb aaabbb bb bbb bbbb abc
             abcc abbc abbcc aabc aabcc aabbc aabbcc aaabbbccc ac acc aac
             aacc aaaccc bc bcc bbc bbcc bbbccc cc ccc cccccc""",
          "ba aaabaaa bbaaa aaaaba bbbbbaa cba cab acb")


def test_compoundrule3():
    check("COMPOUNDMIN 1\nCOMPOUNDRULE 1\nCOMPOUNDRULE A?B?C?\n",
          "3\na/A\nb/B\nc/C\n",
          "a b c ab abc ac bc",
          """aa aaa aaaa aab aaab aaaab abb aabb aaabbb bb bbb bbbb abcc
             abbc abbcc aabc aabcc aabbc aabbcc aaabbbccc acc aac aacc
             aaaccc bcc bbc bbcc bbbccc cc ccc cccccc ba aaabaaa bbaaa
             aaaaba bbbbbaa cba cab acb""")


ORDINALS_GOOD = """1st 2nd 3rd 4th 5th 6th 7th 8th 9th 10th 11th 12th 13th
    14th 15th 16th 17th 18th 19th 20th 21st 22nd 23rd 24th 25th 100th
    1000th 10001st 10011th"""
ORDINALS_WRONG = "1th 2th 3th 10001th 10011st"


def test_compoundrule4():
    check("""WORDCHARS 0123456789
COMPOUNDMIN 1
ONLYINCOMPOUND c
COMPOUNDRULE 2
COMPOUNDRULE n*1t
COMPOUNDRULE n*mp
""",
          "22\n0/nm\n1/n1\n2/nm\n3/nm\n4/nm\n5/nm\n6/nm\n7/nm\n8/nm\n9/nm\n"
          "0th/ptS\n1st/p\n1th/tc\n2nd/p\n2th/tc\n3rd/p\n3th/tc\n4th/pt\n"
          "5th/pt\n6th/pt\n7th/pt\n8th/pt\n9th/pt\n",
          ORDINALS_GOOD, ORDINALS_WRONG)


def test_compoundrule5():
    check("""SET UTF-8
COMPOUNDMIN 1
COMPOUNDRULE 2
COMPOUNDRULE N*%?
COMPOUNDRULE NN*.NN*%?
WORDCHARS 0123456789‰.
""",
          "13\n0/N\n1/N\n2/N\n3/N\n4/N\n5/N\n6/N\n7/N\n8/N\n9/N\n"
          "./.\n%/%\n‰/%\n",
          "10% 0.2% 0.20% 123.4561‰ 10 0000 10.25",
          ".25")


def test_compoundrule6():
    check("COMPOUNDMIN 1\nCOMPOUNDRULE 2\nCOMPOUNDRULE A*A\n"
          "COMPOUNDRULE A*AAB*BBBC*C\n",
          "3\na/A\nb/B\nc/C\n",
          "aa aaaaaa aabbbc aaaaabbbbbbcccccc",
          "abc abbbbbccccccc aabbccccccc aabbbbbbb")


def test_compoundrule7_long_flags():
    check("""FLAG long
WORDCHARS 0123456789
COMPOUNDMIN 1
ONLYINCOMPOUND cc
COMPOUNDRULE 2
COMPOUNDRULE (nn)*(11)(tt)
COMPOUNDRULE (nn)*(mm)(pp)
""",
          "22\n0/nnmm\n1/nn11\n2/nnmm\n3/nnmm\n4/nnmm\n5/nnmm\n6/nnmm\n"
          "7/nnmm\n8/nnmm\n9/nnmm\n0th/pptt\n1st/pp\n1th/ttcc\n2nd/pp\n"
          "2th/ttcc\n3rd/pp\n3th/ttcc\n4th/pptt\n5th/pptt\n6th/pptt\n"
          "7th/pptt\n8th/pptt\n9th/pptt\n",
          ORDINALS_GOOD, ORDINALS_WRONG)


def test_compoundrule8_num_flags():
    check("""FLAG num
WORDCHARS 0123456789
COMPOUNDMIN 1
ONLYINCOMPOUND 1000
COMPOUNDRULE 2
COMPOUNDRULE (1001)*(1002)(2001)
COMPOUNDRULE (1001)*(2002)(2000)
""",
          "22\n0/1001,2002\n1/1001,1002\n2/1001,2002\n3/1001,2002\n"
          "4/1001,2002\n5/1001,2002\n6/1001,2002\n7/1001,2002\n8/1001,2002\n"
          "9/1001,2002\n0th/2000,2001\n1st/2000\n1th/2001,1000\n2nd/2000\n"
          "2th/2001,1000\n3rd/2000\n3th/2001,1000\n4th/2000,2001\n"
          "5th/2000,2001\n6th/2000,2001\n7th/2000,2001\n8th/2000,2001\n"
          "9th/2000,2001\n",
          ORDINALS_GOOD, ORDINALS_WRONG)


def test_compoundflag():
    check("COMPOUNDMIN 3\nCOMPOUNDFLAG A\n",
          "4\nfoo/A\nbar/A\nxy/A\nyz/A\n",
          "foobar barfoo foobarfoo",
          "xyyz fooxy xyfoo fooxybar")


def test_checkcompounddup():
    check("CHECKCOMPOUNDDUP\nCOMPOUNDFLAG A\n",
          "2\nfoo/A\nbar/A\n",
          "barfoo foobar foofoobar foobarfoo barfoobarfoo",
          "foofoo foofoofoo foobarbar")


def test_checkcompoundtriple():
    check("CHECKCOMPOUNDTRIPLE\nCOMPOUNDFLAG A\n",
          "4\nfoo/A\nopera/A\neel/A\nbare/A\n",
          "operafoo operaeel operabare eelbare eelfoo eelopera",
          "fooopera bareeel")


def test_checkcompoundrep():
    check("CHECKCOMPOUNDREP\nCOMPOUNDFLAG A\n\nREP 1\nREP í i\n",
          "3\nszer/A\nvíz/A\nszerviz\nkocsi/A\n",
          "vízszer szerkocsi",
          "szervíz szervízkocsi kocsiszervíz")


def test_checkcompoundcase():
    check("CHECKCOMPOUNDCASE\nWORDCHARS -\nCOMPOUNDFLAG A\n",
          "5\nfoo/A\nBar/A\nBAZ/A\n-/A\nprefix-/A\n",
          "Barfoo foo-Bar foo-BAZ BAZ-foo BAZ-Bar prefix-BAZ",
          "fooBar BAZBar BAZfoo")


def test_checkcompoundpattern():
    check("COMPOUNDFLAG A\nCHECKCOMPOUNDPATTERN 2\n"
          "CHECKCOMPOUNDPATTERN nny ny\nCHECKCOMPOUNDPATTERN ssz sz\n",
          "4\nkönny/A\nnyelés/A\nhossz/A\nszámítás/A\n",
          "könnyszámítás hossznyelés",
          "könnynyelés hosszszámítás hosszkönnynyelés könnynyeléshossz")


def test_checkcompoundpattern2_replacement():
    check("COMPOUNDFLAG A\nCHECKCOMPOUNDPATTERN 2\n"
          "CHECKCOMPOUNDPATTERN o b z\nCHECKCOMPOUNDPATTERN oo ba u\n"
          "COMPOUNDMIN 1\n",
          "2\nfoo/A\nbar/A\n",
          "barfoo fozar fur",
          "foobar")


def test_checkcompoundpattern3_replacement_flags():
    check("COMPOUNDFLAG A\nCHECKCOMPOUNDPATTERN 1\n"
          "CHECKCOMPOUNDPATTERN o/X b/Y z\nCOMPOUNDMIN 1\n",
          "4\nfoo/A\nboo/AX\nbar/A\nban/AY\n",
          "bozan barfoo banfoo banbar foobar fooban foobanbar boobar "
          "boobarfoo",
          "booban boobanfoo fozar fozarfoo fozan fozanfoo bozar bozarfoo")


def test_compoundforbid():
    check("""COMPOUNDFLAG X
COMPOUNDPERMITFLAG Y
COMPOUNDFORBIDFLAG Z

SFX S Y 2
SFX S   0     bar/YX         .
SFX S   0     baz/YX         .
""",
          "3\nfoo/S\nexample/X\nfoobaz/Z\n",
          "foo example foobar foobaz foobarexample",
          "fooexample examplefoo foobazexample")


NEEDAFFIX_AFF = """SET UTF-8

NEEDAFFIX Z

PFX Y Y 1
PFX Y 0 pre . pre+

SFX X Y 1
SFX X 0 s . +s
"""
NEEDAFFIX_DIC = "3\ndrink/X\nwalk/XYZ\ntest/Z\n"


def test_needaffix_stems():
    """TestNeedAffix.testPossibilities vectors."""
    d = HunspellDictionary(NEEDAFFIX_AFF, NEEDAFFIX_DIC)
    assert d.unique_stems("drink") == ["drink"]
    assert d.unique_stems("drinks") == ["drink"]
    assert d.unique_stems("walk") == []
    assert d.unique_stems("walks") == ["walk"]
    assert d.unique_stems("prewalk") == ["walk"]
    assert d.unique_stems("prewalks") == ["walk"]
    assert d.unique_stems("test") == []
    assert d.unique_stems("pretest") == []
    assert d.unique_stems("tests") == []
    assert d.unique_stems("pretests") == []


ONLYINCOMPOUND_AFF = """SET UTF-8

ONLYINCOMPOUND A

PFX Y Y 1
PFX Y 0 pre/A . pre+

SFX X Y 1
SFX X 0 s . +s

SFX Z Y 1
SFX Z 0 ed/A . +ed
"""
ONLYINCOMPOUND_DIC = "2\ndrink/XYZ\nwalk/A\n"


def test_onlyincompound_stems():
    """TestOnlyInCompound.testPossibilities vectors."""
    d = HunspellDictionary(ONLYINCOMPOUND_AFF, ONLYINCOMPOUND_DIC)
    assert d.unique_stems("drink") == ["drink"]
    assert d.unique_stems("drinks") == ["drink"]
    assert d.unique_stems("drinked") == []
    assert d.unique_stems("predrink") == []
    assert d.unique_stems("predrinked") == []
    assert d.unique_stems("walk") == []


def test_onlyincompound2():
    """onlyincompound2 fixture: obligate fogemorpheme via
    CHECKCOMPOUNDPATTERN with the non-affixed '0' operand."""
    check("""ONLYINCOMPOUND O
COMPOUNDFLAG A
COMPOUNDPERMITFLAG P

SFX B Y 1
SFX B 0 s/OP .

CHECKCOMPOUNDPATTERN 1
CHECKCOMPOUNDPATTERN 0/B /A
""",
          "2\nfoo/A\npseudo/AB\n",
          "foo foopseudo pseudosfoo",
          "pseudos foopseudos pseudofoo")


def test_spell_plain_words_and_affixed():
    d = HunspellDictionary(
        "SFX S Y 1\nSFX S 0 s . +s\n", "2\ncat/S\ndog\n")
    assert d.spell("cat") and d.spell("cats") and d.spell("dog")
    assert not d.spell("dogs") and not d.spell("catdog")


GERMAN_AFF = """CHECKSHARPS

COMPOUNDBEGIN U
COMPOUNDMIDDLE V
COMPOUNDEND W

COMPOUNDPERMITFLAG P
ONLYINCOMPOUND X
CHECKCOMPOUNDCASE
COMPOUNDMIN 1
WORDCHARS -

SFX A Y 3
SFX A 0 s/UPX .
SFX A 0 s/VPDX .
SFX A 0 0/WXD .

SFX B Y 2
SFX B 0 0/UPX .
SFX B 0 0/VWXDP .

SFX C Y 1
SFX C 0 n/WD .

FORBIDDENWORD Z

PFX - Y 1
PFX - 0 -/P .

PFX D Y 2
PFX D A a/PX A
PFX D C c/PX C
"""
GERMAN_DIC = "4\nArbeit/A-\nComputer/BC-\n-/W\nArbeitsnehmer/Z\n"


def test_germancompounding():
    """The reference germancompounding fixture: COMPOUNDBEGIN/MIDDLE/END
    position classes, decapitalizing circumfix-style prefix enabled by
    suffix continuations, fogemorphemes, FORBIDDENWORD, dash words.
    (The D prefix table is reduced to the two letters the dic needs.)"""
    check(GERMAN_AFF, GERMAN_DIC,
          """Computer Computern Arbeit Arbeits- Computerarbeit
             Computerarbeits- Arbeitscomputer Computercomputer
             Computercomputern Arbeitscomputern Computerarbeitscomputer
             Computerarbeitscomputern Arbeitscomputercomputer
             Computercomputerarbeit Arbeitscomputerarbeit
             Arbeitsarbeitsarbeit Computerarbeitsarbeit
             Computerarbeits-Computer Computerarbeits-Computern
             Computer-Arbeit""",
          """computer computern arbeit Arbeits arbeits ComputerArbeit
             ComputernArbeit Computernarbeit ComputerArbeits Arbeitcomputer
             Arbeitcomputern ArbeitsComputer ArbeitsComputern
             Computerarbeitcomputer ComputerArbeitcomputer
             ComputerArbeitscomputer Computerarbeitcomputern
             ComputerArbeitcomputern ComputerArbeitscomputern
             Arbeitscomputerarbeits Arbeitscomputernarbeits
             Computerarbeits-computer Arbeitsnehmer computers
             computernarbeit computernArbeit computerArbeit computerArbeits
             arbeitcomputer arbeitsComputer computerarbeitcomputer
             computerArbeitcomputer computerArbeitscomputer
             arbeitscomputerarbeits computerarbeits-computer arbeitsnehmer
             arbeits- computerarbeit computerarbeits- arbeitscomputer
             arbeitscomputern computerarbeitscomputer
             computerarbeitscomputern computerarbeitscomputers
             arbeitscomputerarbeit computerarbeits-Computer
             computerarbeits-Computern""")


def test_break_table():
    """`break` fixture: explicit BREAK entries (dash + en-dash, middle
    only — no edge trims), FORBIDDENWORD blocking a breakable surface."""
    check("SET UTF-8\n\nBREAK 2\nBREAK -\nBREAK –\n\nWORDCHARS -–\n"
          "\nFORBIDDENWORD !\n",
          "6\nfoo\nbar\nbaz\nfox-bax\nfoo-baz/!\ne-mail\n",
          """foo bar fox-bax foo-bar foo–bar foo-bar-foo-bar
             foo-bar–foo-bar bar-baz baz-foo
             foo-bar-foo-bar-foo-bar-foo-bar-foo-bar e-mail e-mail-foo""",
          """fox bax -foo bar- fox-bar foo-bax foo–bax fox–bar
             foo-bar-fox-bar foo-bax-foo-bar foo-bar–fox-bar
             foo-bax–foo-bar foo-baz""")


def test_break_default():
    """`breakdefault` fixture: no BREAK directive -> default {-, ^-, -$}
    (edge hyphens trim)."""
    check("SET UTF-8\nMAXNGRAMSUGS 0\nWORDCHARS -\nTRY ot\n",
          "3\nfoo\nbar\nfree\nscott\nscot-free\n",
          "foo bar foo- -foo scot-free foo-bar foo-bar-foo-bar",
          "scot sco-free fo-bar foo-fo-bar foo-foo-fo -")


def test_break_off():
    """`breakoff` fixture: BREAK 0 disables all breaking."""
    check("SET UTF-8\nMAXNGRAMSUGS 0\nWORDCHARS -\nTRY ot\n\nBREAK 0\n",
          "3\nfoo\nbar\nfree\nscott\nscot-free\n",
          "foo bar scot-free",
          "foo- -foo foo-bar foo-bar-foo-bar scot")


def test_keepcase():
    """`keepcase` fixture: KEEPCASE entries accept only their exact case;
    a keepcase homonym blocks even affixed readings of a case variant;
    compounds case-check their BEGIN part only."""
    check("SET UTF-8\n\nKEEPCASE Z\n\nSFX X Y 1\nSFX X 0 s . +s\n\n"
          "COMPOUNDFLAG C\n",
          "11\ndrink/X\nwalk/XZ\ntest/Z\nfoo/Z\nBar/Z\nbaz./Z\nQuux./Z\n"
          "way/X\nways/Z\ntvv/ZC\nschool/C\nuni/ZC\n",
          "foo Bar baz. Quux. way Way WAY ways schooltvv Schooltvv "
          "SCHOOLTVV unitvv",
          "Foo FOO BAR bar Baz. BAZ. quux. QUUX. Ways Unitvv UNITVV")


def test_allcaps():
    """`allcaps` fixture: hidden title-folded homonyms are reachable only
    from UPPER input; mixed-case entries reject their titlecase."""
    check("WORDCHARS '.\n\nSFX S N 1\nSFX S   0     's      .\n\n"
          "PFX L N 1\nPFX L   0     L'\n",
          "2\nOpenOffice.org\nUNICEF/S\nAfrique/L\n",
          "OpenOffice.org OPENOFFICE.ORG UNICEF's UNICEF'S L'AFRIQUE "
          "L'Afrique",
          "Openoffice.org Unicef Unicef's")


def test_checksharps():
    """`checksharps` fixture: ß/SS case variation; keepcase ß-words accept
    their titlecase via the sharp-s exemption."""
    check("CHECKSHARPS\nWORDCHARS ß.\nKEEPCASE k\n",
          "6\nmüßig/k\nAusstoß\nAbstoß.\nAußenabmessung\n"
          "Prozessionsstraße\nAußenmaße\n",
          "müßig Müßig MÜSSIG Ausstoß Abstoß. Außenabmessung "
          "Prozessionsstraße Außenmaße AUSSTOSS ABSTOSS. AUSSENABMESSUNG "
          "PROZESSIONSSTRASSE AUSSENMASSE",
          "MÜßIG Müssig")


def test_ignore_chars():
    """TestIgnore vectors: IGNORE characters are stripped from both the
    dictionary and the input before analysis."""
    d = HunspellDictionary(
        "SET UTF-8\n\nIGNORE '-\n\nSFX X Y 1\nSFX X 0 able . +ABLE\n",
        "1\ndrink/X\t[VERB]\ndr-ank/X\t[VERB]\n")
    assert d.unique_stems("drink") == ["drink"]
    assert d.unique_stems("drinkable") == ["drink"]
    assert d.unique_stems("dr'ink-able") == ["drink"]
    assert d.unique_stems("drank-able") == ["drank"]
    assert d.unique_stems("'-'-'-") == []


def test_circumfix():
    """TestCircumfix vectors: a circumfix-marked affix needs its partner
    on the other side."""
    d = HunspellDictionary(
        "SET UTF-8\n\nCIRCUMFIX X\n\nPFX A Y 1\nPFX A 0 leg/X .\n\n"
        "PFX B Y 1\nPFX B 0 legesleg/X .\n\n"
        "SFX C Y 3\nSFX C 0 obb . +COMPARATIVE\n"
        "SFX C 0 obb/AX . +SUPERLATIVE\n"
        "SFX C 0 obb/BX . +SUPERSUPERLATIVE\n",
        "1\nnagy/C\t[MN]\n")
    assert d.unique_stems("nagy") == ["nagy"]
    assert d.unique_stems("nagyobb") == ["nagy"]
    assert d.unique_stems("legnagyobb") == ["nagy"]
    assert d.unique_stems("legeslegnagyobb") == ["nagy"]
    assert d.unique_stems("nagyobbobb") == []
    assert d.unique_stems("legnagy") == []
    assert d.unique_stems("legeslegnagy") == []


def test_morph_alias_stem_overrides():
    """TestMorphAlias vectors: AM aliases resolve numeric morph refs; an
    st: token overrides the returned stem."""
    d = HunspellDictionary(
        "AM 4\nAM st:foot\nAM    st:workverb  \nAM   st:worknoun\n"
        "AM po:garbage\n\nSET UTF-8\n\nSFX X Y 1\nSFX X 0 scratcher .\n\n"
        "SFX A Y 1\nSFX A 0 s . +SG3\n\nSFX B Y 1\nSFX B 0 s . +PLUR\n",
        "5\nfeet/X\t1\nwork/A\t2  \nwork/B\t3\nnotspecial\t4\n"
        "simplenoun/A\n")
    assert d.unique_stems("feet") == ["foot"]
    assert d.unique_stems("feetscratcher") == ["foot"]
    assert sorted(d.unique_stems("work")) == ["worknoun", "workverb"]
    assert sorted(d.unique_stems("works")) == ["worknoun", "workverb"]
    assert d.unique_stems("notspecial") == ["notspecial"]
    assert d.unique_stems("simplenoun") == ["simplenoun"]
    assert d.unique_stems("simplenouns") == ["simplenoun"]
    assert d.unique_stems("simplenounscratcher") == []


def test_af_flag_aliases_and_case_stems():
    """TestCompressed vectors: AF numeric flag aliases (declared before
    FLAG long) and case-variant stemming through hidden homonyms."""
    d = HunspellDictionary(
        "AF 5\nAF AA\nAF BB\nAF CC\nAF DD\nAF EE\n\nSET UTF-8\n"
        "TRY abcdefghijklmopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ\n\n"
        "FLAG long\n\n"
        "SFX AA Y 3\nSFX AA   0     e         n\n"
        "SFX AA   0     e         t\nSFX AA   0     e         h\n\n"
        "SFX CC Y 2\nSFX CC   0     d/3       c\n"
        "SFX CC   0     c         b\n\n"
        "SFX DD Y 1\nSFX DD   0     s         .\n\n"
        "SFX EE Y 1\nSFX EE   0     d         o\n\n"
        "PFX BB Y 1\nPFX BB   0     s         o\n",
        "10\nab/3\napach/1\nfoo/4\nfoo/5\nlucen/1\nlucene\nmahout/1\n"
        "olr/2\nXYZ/4\nmixedCase\n")
    assert d.unique_stems("apach") == ["apach"]
    assert d.unique_stems("apache") == ["apach"]
    assert d.unique_stems("apachee") == []
    assert sorted(d.unique_stems("XYZ")) == ["XYZ", "Xyz"]
    assert d.unique_stems("XYZs") == ["XYZ"]
    assert d.unique_stems("XYZS") == ["Xyz"]
    assert d.unique_stems("xyz") == []
    assert d.unique_stems("mixedCase") == ["mixedCase"]
    assert d.unique_stems("MIXEDCASE") == ["Mixedcase"]


def test_iconv_oconv():
    """TestConv vectors: ICONV folds input (and dictionary words) before
    analysis; OCONV rewrites the returned stems."""
    d = HunspellDictionary(
        "SET UTF-8\n\nICONV 4\nICONV A a\nICONV B b\nICONV C c\n"
        "ICONV I i\n\nOCONV 4\nOCONV\ta A\nOCONV\tb\tB\nOCONV c C\n"
        "OCONV i I\n\nSFX X Y 1\nSFX X 0 able . +ABLE\n",
        "1\ndrink/X\t[VERB]\n")
    assert d.unique_stems("drink") == ["drInk"]
    assert d.unique_stems("drInk") == ["drInk"]
    assert d.unique_stems("drInkAble") == ["drInk"]
    assert d.unique_stems("drInkABle") == ["drInk"]
    assert d.unique_stems("drinkABle") == ["drInk"]


def test_oconv_spell_unaffected():
    """oconv fixture words: OCONV applies only to stemmer output; spell
    still accepts the dictionary surfaces."""
    d = HunspellDictionary(
        "SET UTF-8\n\nOCONV 7\nOCONV\ta A\nOCONV\tá\tÁ\nOCONV\tb\tB\n"
        "OCONV  c  C\nOCONV\t d \tD\nOCONV e E\nOCONV é É\n",
        "3\nbébé\ndádá\naábcdeé\n")
    assert d.spell("bébé") and d.spell("dádá")
    assert not d.spell("béb") and not d.spell("dád")


def test_homonyms_multiplicity():
    """TestHomonyms: both homonym analyses surface (multiplicity in
    stem(), deduped in unique_stems)."""
    d = HunspellDictionary(
        "SET UTF-8\n\nSFX A Y 1\nSFX A 0 s . +SG3\n\n"
        "SFX B Y 1\nSFX B 0 s . +PLUR\n",
        "2\nwork/A\t[VERB]\nwork/B\t[NOUN]\n")
    assert d.stem("works") == ["work", "work"]
    assert d.unique_stems("works") == ["work"]


def test_escaped_slashes():
    """TestEscaped: backslash-escaped slashes are word characters, not
    flag separators; R2/D2 also yields its hidden case homonym."""
    d = HunspellDictionary(
        "SET UTF-8\nWORDCHARS \\/0123456789\n\n"
        "SFX A Y 1\nSFX A 0 s . +PLUR\n",
        "5\n/\n/a\nwork/A\nR2\\/D2/A\nN\\/A\n")
    assert d.unique_stems("/") == ["/"]
    assert d.unique_stems("works") == ["work"]
    assert d.unique_stems("work") == ["work"]
    assert sorted(d.unique_stems("R2/D2")) == ["R2/D2", "R2/d2"]
    assert d.unique_stems("R2/D2s") == ["R2/D2"]
    assert d.unique_stems("N/A") == ["N/A"]
    assert d.unique_stems("N/As") == []
    assert d.unique_stems("/a") == ["/a"]
    assert d.unique_stems("//") == []


def test_dutch_ij():
    """TestDutchIJ + IJ fixture: the IJ-digraph prefix accepts IJs, the
    forbidden mixed-case Ijs homonym is rejected."""
    d = HunspellDictionary(
        "TRY i\nFORBIDDENWORD *\nPFX i N 1\nPFX i ij IJ ij\n\n"
        "REP 1\nREP ij IJ\n",
        "1\nijs/i\nIjs/*\n")
    assert d.unique_stems("ijs") == ["ijs"]
    assert d.unique_stems("IJs") == ["ijs"]
    assert d.spell("ijs") and d.spell("IJs")
    assert not d.spell("Ijs")


def test_break_entries_before_count_line(tmp_path):
    """BREAK entries that precede the count line (or have none) still form
    an explicit table instead of failing the dictionary load."""
    from lucene_ray.analysis.hunspell import load_dictionary

    aff = tmp_path / "early_break.aff"
    dic = tmp_path / "early_break.dic"
    aff.write_text("SET UTF-8\nWORDCHARS -\nBREAK -\nBREAK 1\n",
                   encoding="utf-8")
    dic.write_text("2\nfoo\nbar\n", encoding="utf-8")
    d = load_dictionary(str(aff), str(dic))
    assert d.break_table == ["-"]
    assert d.spell("foo-bar")
    assert not d.spell("foo-")      # the default ^-/-$ trims are replaced

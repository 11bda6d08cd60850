"""TestMultiPhraseQuery.java transcriptions: the phrase-prefix corpus
(counts at slop 0/1), testTall, and testMultiExactWithRepeats (explicit
gapped slot positions via MultiPhraseQuery.Builder.add(terms, pos))."""

import pyarrow as pa
import pytest

from lucene_ray.search.query import MultiPhraseQuery
from lucene_ray.search.searcher import IndexSearcher


def _index(tmp_path_factory, texts, name):
    import ray.data as rd

    from lucene_ray.index.build import build_index

    t = pa.table({
        "conv_id": [f"conv-{i:08d}" for i in range(len(texts))],
        "turn_idx": pa.array([0] * len(texts), type=pa.int32()),
        "role": ["user"] * len(texts),
        "tool": ["none"] * len(texts),
        "ts": pa.array(list(range(len(texts))), type=pa.int64()),
        "text": list(texts),
    })
    d = str(tmp_path_factory.mktemp(name))
    build_index(rd.from_arrow(t), d, target_docs_per_partition=4,
                input_desc=name)
    return IndexSearcher(d)


@pytest.fixture(scope="module")
def berry_index(ray_session, tmp_path_factory):
    return _index(tmp_path_factory,
                  ["blueberry pie", "blueberry strudel", "blueberry pizza",
                   "blueberry chewing gum", "bluebird pizza",
                   "bluebird foobar pizza", "piccadilly circus"], "mpq")


def test_phrase_prefix(berry_index):
    s = berry_index
    # "blueberry pi*" where pi* expands to the dictionary's pi-terms
    pi_terms = ("piccadilly", "pie", "pizza")
    q1 = MultiPhraseQuery((("blueberry",), pi_terms))
    assert s.search(q1, k=1000).total_hits == 2
    q2 = MultiPhraseQuery((("strawberry",), pi_terms))
    assert s.search(q2, k=1000).total_hits == 0
    # "blue* pizza"
    q3 = MultiPhraseQuery((("blueberry", "bluebird"), ("pizza",)))
    assert s.search(q3, k=1000).total_hits == 2
    # slop 1 also reaches "bluebird foobar pizza"
    q3s = MultiPhraseQuery((("blueberry", "bluebird"), ("pizza",)), slop=1)
    assert s.search(q3s, k=1000).total_hits == 3


def test_tall(ray_session, tmp_path_factory):
    s = _index(tmp_path_factory,
               ["blueberry chocolate pie", "blueberry chocolate tart"],
               "mpq_tall")
    q = MultiPhraseQuery((("blueberry",), ("chocolate",), ("pie", "tart")))
    assert s.count(q) == 2


def test_multi_exact_with_repeats(ray_session, tmp_path_factory):
    # builder.add([a, d], 0); builder.add([a, f], 2) — gapped positions:
    # matches "a ? c|anything" where slot0 at pos p, slot1 at pos p+2;
    # doc "a b c d e f g h i k": a@0 + c@2? slot1 accepts a or f — f@5:
    # a@0,f@2? no; d@3 + f@5 YES (slot0 'd' at 3, slot1 'f' at 3+2=5)
    s = _index(tmp_path_factory, ["a b c d e f g h i k"], "mpq_rep")
    q = MultiPhraseQuery((("a", "d"), ("a", "f")), positions=(0, 2))
    assert s.count(q) == 1
    # and a gapped variant that cannot match
    q2 = MultiPhraseQuery((("a",), ("b",)), positions=(0, 3))
    assert s.count(q2) == 0
    # gapped + sloppy: slot offsets feed the sloppy matcher
    q3 = MultiPhraseQuery((("a",), ("c",)), positions=(0, 3), slop=1)
    assert s.count(q3) == 1          # c@2 is one off the expected pos 3
    q4 = MultiPhraseQuery((("a",), ("k",)), positions=(0, 3), slop=1)
    assert s.count(q4) == 0


def test_memoryindex_gapped_positions():
    # Monitor verification path: MemoryIndex must honor explicit slot
    # positions exactly like the engine's phrase executor
    from lucene_ray.index.memoryindex import MemoryIndex

    q = MultiPhraseQuery((("quick",), ("fox",)), positions=(0, 2))
    m1 = MemoryIndex().add_field("text", "quick brown fox")
    assert m1.matches(q)
    m2 = MemoryIndex().add_field("text", "quick fox")
    assert not m2.matches(q)
    # gapped + sloppy through the matcher offsets
    qs = MultiPhraseQuery((("quick",), ("fox",)), positions=(0, 3), slop=1)
    assert m1.matches(qs)
    # fox@4 is distance 1 from the declared offset 3: still within slop 1
    assert MemoryIndex().add_field("text", "quick a b c fox").matches(qs)
    # fox@5 is distance 2: out of slop
    assert not MemoryIndex().add_field(
        "text", "quick a b c d fox").matches(qs)


def test_positions_validation():
    with pytest.raises(ValueError):
        MultiPhraseQuery((("a",), ("b",)), positions=(0,))
    with pytest.raises(ValueError):
        MultiPhraseQuery((("a",), ("b",)), positions=(2, 1))

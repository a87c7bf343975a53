import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hornplex.kg import (
    Triple,
    TripleFileError,
    build_graph,
    check_dictionary,
    load_triples,
    read_dictionary,
    write_dictionary,
    write_triples,
)

import oracles
from oracles import naive_contains, split_rows
from conftest import make_random_kg


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def test_load_two_lines(tmp_path):
    p = tmp_path / "t.txt"
    write_lines(p, ["a\tr\tb", "b\tr\tc"])
    triples, (ents, rels) = load_triples(p)
    assert triples.dtype == np.int64
    assert triples.tolist() == [[0, 0, 1], [1, 0, 2]]
    assert len(ents) == 3 and len(rels) == 1


def test_load_empty_file(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("", encoding="utf-8")
    dicts = ({"a": 0}, {"r": 0})
    triples, out = load_triples(p, dicts)
    assert triples.dtype == np.int64 and triples.shape == (0, 3)
    assert out == ({"a": 0}, {"r": 0})


def test_duplicate_lines_kept_in_list_deduped_in_filter(tmp_path):
    p = tmp_path / "dup.txt"
    write_lines(p, ["a\tr\tb", "a\tr\tb"])
    triples, dicts = load_triples(p)
    assert len(triples) == 2
    kg = build_graph(triples, [], [], dicts)
    assert kg.tail_codes.size == kg.head_codes.size == 1
    assert kg.contains(0, 0, 1)


def test_malformed_line_reports_line_number(tmp_path):
    p = tmp_path / "bad.txt"
    write_lines(p, ["a\tr\tb", "a\tr"])
    with pytest.raises(TripleFileError, match=":2:"):
        load_triples(p)


def test_byte_that_is_not_utf8_names_file_line_and_offset(tmp_path):
    p = tmp_path / "bad.txt"
    # lines end in "\r\n", "\r" and "\n", as text mode splits them
    data = b"a\tr\tb\r\nb\tr\tc\rc\tr\t\xffd\n"
    p.write_bytes(data)
    with pytest.raises(TripleFileError) as err:
        load_triples(p)
    offset = data.index(b"\xff")
    assert str(err.value) == f"{p}:3: byte 0xff at offset {offset} is not UTF-8"


def test_read_dictionary_rejects_a_non_integer_id(tmp_path):
    p = tmp_path / "entities.dict"
    p.write_text("0\ta\nx1\tb\n", encoding="utf-8")
    with pytest.raises(TripleFileError) as err:
        read_dictionary(p)
    assert str(err.value) == f"{p}:2: id 'x1' is not an integer"


def test_frozen_dicts_reject_unknown_symbol(tmp_path):
    p = tmp_path / "t.txt"
    write_lines(p, ["a\tr\tb"])
    triples, dicts = load_triples(p)
    write_lines(p, ["a\tr\tz"])
    with pytest.raises(TripleFileError, match="unknown entity 'z'"):
        load_triples(p, dicts, frozen=True)


def test_first_seen_order_is_deterministic(tmp_path):
    p = tmp_path / "t.txt"
    write_lines(p, ["mango\tlikes\tpear", "pear\tlikes\tmango"])
    _, (ents, _) = load_triples(p)
    assert ents == {"mango": 0, "pear": 1}


def test_build_graph_union_dedup():
    dicts = ({"a": 0, "b": 1}, {"r": 0})
    kg = build_graph([Triple(0, 0, 1)], [], [Triple(0, 0, 1)], dicts)
    assert kg.tail_codes.size == kg.head_codes.size == 1


def test_build_graph_disjoint_counts():
    dicts = ({f"e{i}": i for i in range(6)}, {"r": 0})
    train = [Triple(0, 0, 1), Triple(1, 0, 2), Triple(2, 0, 3)]
    valid = [Triple(3, 0, 4)]
    test = [Triple(4, 0, 5)]
    kg = build_graph(train, valid, test, dicts)
    assert kg.tail_codes.size == kg.head_codes.size == 5
    assert kg.contains(*np.array(train + valid + test).T).all()


def test_build_graph_bounds_check():
    dicts = ({"a": 0}, {"r": 0})
    with pytest.raises(IndexError):
        build_graph([Triple(0, 0, 5)], [], [], dicts)
    with pytest.raises(IndexError):
        build_graph([Triple(0, 3, 0)], [], [], dicts)
    with pytest.raises(IndexError):
        build_graph([Triple(-1, 0, 0)], [], [], dicts)


def test_build_graph_bounds_error_names_the_first_bad_triple():
    dicts = ({"a": 0, "b": 1}, {"r": 0})
    good = [Triple(0, 0, 1)]
    with pytest.raises(IndexError, match=r"^relation index out of bounds in "
                       r"Triple\(head=1, relation=2, tail=0\)$"):
        build_graph(good, [Triple(1, 2, 0), Triple(0, 0, 7)], [Triple(5, 0, 0)], dicts)
    with pytest.raises(IndexError, match=r"^entity index out of bounds in "
                       r"Triple\(head=0, relation=9, tail=2\)$"):
        build_graph(good, [], [Triple(0, 9, 2), Triple(0, 1, 0)], dicts)


def test_filter_index_matches_naive_scan_exhaustively():
    kg = make_random_kg(seed=3, num_entities=20, num_relations=2, num_train=40)
    grid = np.array(np.meshgrid(range(20), range(2), range(20), indexing="ij")).reshape(3, -1)
    found = kg.contains(*grid)
    for cand, known in zip(grid.T.tolist(), found.tolist()):
        assert known == naive_contains(kg, Triple(*cand))


def scanned_runs(kg, queries, tail_side):
    """``tails_of``/``heads_of`` output by a scan of the split rows."""
    pairs = []
    for i, (a, r) in enumerate(queries):
        found = set()
        for head, relation, tail in split_rows(kg):
            if relation == r and (head if tail_side else tail) == a:
                found.add(tail if tail_side else head)
        pairs.extend((i, e) for e in sorted(found))
    return pairs


def test_tails_of_and_heads_of_match_a_scan_of_the_splits():
    for seed in range(3):
        kg = make_random_kg(seed=seed, num_entities=7, num_relations=3, num_train=50)
        for r in range(3):
            heads, tails = kg.pairs_of(r)
            assert heads.dtype == tails.dtype == np.int64
            scanned = sorted({(h, t) for h, relation, t in split_rows(kg) if relation == r})
            assert list(zip(heads.tolist(), tails.tolist())) == scanned
    for seed, tail_side in itertools.product(range(3), (True, False)):
        kg = make_random_kg(seed=seed, num_entities=7, num_relations=3, num_train=50)
        rng = np.random.default_rng(seed)
        # every (entity, relation) pair, then a random batch with repeats
        queries = [(a, r) for a in range(7) for r in range(3)]
        queries += [tuple(map(int, q)) for q in rng.integers(0, [7, 3], size=(30, 2))]
        a, r = np.array(queries).T
        method = kg.tails_of if tail_side else kg.heads_of
        i, e = method(a, r) if tail_side else method(r, a)
        assert i.dtype == e.dtype == np.int64
        assert list(zip(i.tolist(), e.tolist())) == scanned_runs(kg, queries, tail_side)
        # a scalar relation broadcasts over the entities
        i, e = method(np.arange(7), 1) if tail_side else method(1, np.arange(7))
        pairs = list(zip(i.tolist(), e.tolist()))
        assert pairs == scanned_runs(kg, [(x, 1) for x in range(7)], tail_side)
        i, e = method(np.arange(0), 0) if tail_side else method(0, np.arange(0))
        assert i.size == e.size == 0


def test_runs_of_a_graph_without_facts_are_empty():
    kg = build_graph([], [], [], ({"a": 0, "b": 1}, {"r": 0}))
    for i, e in (kg.tails_of(np.arange(2), 0), kg.heads_of(0, np.arange(2)), kg.pairs_of(0)):
        assert i.size == e.size == 0
    assert not kg.contains(np.arange(2), 0, np.arange(2)).any()


def test_round_trip_triples(tmp_path):
    kg = make_random_kg(seed=11)
    p = tmp_path / "round.txt"
    write_triples(p, kg.train, kg.entity_names, kg.relation_names)
    reloaded, dicts = load_triples(p, (dict(kg.entity_ids), dict(kg.relation_ids)), frozen=True)
    assert np.array_equal(reloaded, kg.train)


@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 2), st.integers(0, 7)), max_size=30))
def test_round_trip_property(tmp_path_factory, raw):
    tmp = tmp_path_factory.mktemp("rt")
    triples = [Triple(*t) for t in raw]
    ents = [f"e{i}" for i in range(8)]
    rels = [f"r{i}" for i in range(3)]
    p = tmp / "t.txt"
    write_triples(p, triples, ents, rels)
    reloaded, _ = load_triples(
        p, ({n: i for i, n in enumerate(ents)}, {n: i for i, n in enumerate(rels)}), frozen=True
    )
    assert reloaded.tolist() == [list(t) for t in triples]


def test_dictionary_dump_round_trip(tmp_path):
    names = ["alpha", "beta", "gamma"]
    p = tmp_path / "dict.tsv"
    write_dictionary(p, names)
    table = read_dictionary(p)
    assert table == {"alpha": 0, "beta": 1, "gamma": 2}


@pytest.mark.parametrize("seed", range(4))
def test_fact_codes_and_contains_encode_the_filter_index(seed):
    kg = make_random_kg(seed=seed, num_entities=9, num_relations=3, num_train=60)
    n, m = kg.num_entities, kg.num_relations
    known = set(split_rows(kg))
    facts = sorted(known)
    tail_keyed = sorted((h * m + r) * n + t for h, r, t in facts)
    head_keyed = sorted((r * n + t) * n + h for h, r, t in facts)
    assert kg.tail_codes.dtype == kg.head_codes.dtype == np.int64
    assert kg.tail_codes.tolist() == tail_keyed
    assert kg.head_codes.tolist() == head_keyed
    grid = np.array(np.meshgrid(range(n), range(m), range(n), indexing="ij")).reshape(3, -1)
    expected = [Triple(*map(int, c)) in known for c in grid.T]
    assert kg.contains(*grid).tolist() == expected


@given(
    st.lists(
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 5)), max_size=25),
        min_size=3,
        max_size=3,
    )
)
def test_fact_codes_store_each_fact_of_the_splits_once(splits):
    """Duplicates within and across splits: each distinct fact gets one code
    of each kind, in sorted order."""
    n, m = 6, 3
    dicts = ({f"e{i}": i for i in range(n)}, {f"r{i}": i for i in range(m)})
    splits = [[Triple(*t) for t in split] for split in splits]
    kg = build_graph(*splits, dicts)
    facts = {t for split in splits for t in split}
    assert kg.tail_codes.tolist() == sorted((h * m + r) * n + t for h, r, t in facts)
    assert kg.head_codes.tolist() == sorted((r * n + t) * n + h for h, r, t in facts)
    assert [s.tolist() for s in (kg.train, kg.valid, kg.test)] == [
        [list(t) for t in split] for split in splits
    ]


class CountOnly(dict):
    """An empty dictionary that reports ``size`` entries."""

    def __init__(self, size):
        super().__init__()
        self.size = size

    def __len__(self):
        return self.size


def test_build_graph_rejects_counts_whose_codes_overflow_int64():
    with pytest.raises(ValueError, match="overflow"):
        build_graph([], [], [], (CountOnly(2**31), CountOnly(2)))  # n*n*m == 2**63
    kg = build_graph([], [], [], (CountOnly(2**31), CountOnly(1)))  # 2**62 still fits
    assert kg.tail_codes.size == kg.head_codes.size == 0


def test_check_dictionary_names_file_line_and_both_names(tmp_path):
    p = tmp_path / "entities.dict"
    write_dictionary(p, ["a", "b", "c"])
    check_dictionary(p, ["a", "b", "c"])
    cases = [
        (["a", "x", "c"], ":2: the dictionary maps id 1 to 'b', the graph maps id 1 to 'x'"),
        (["a", "b"], ":3: the dictionary maps id 2 to 'c', the graph maps id 2 to None"),
        (["a", "b", "c", "d"], ":4: the dictionary ends, the graph maps id 3 to 'd'"),
    ]
    for names, expected in cases:
        with pytest.raises(TripleFileError) as err:
            check_dictionary(p, names)
        assert str(err.value) == f"{p}{expected}"


def test_failed_dictionary_write_keeps_previous_file(tmp_path):
    p = tmp_path / "entities.dict"
    write_dictionary(p, ["a", "b"])
    previous = p.read_text()

    class Unprintable:
        def __format__(self, spec):
            raise RuntimeError("cannot format")

    with pytest.raises(RuntimeError, match="cannot format"):
        write_dictionary(p, ["c", Unprintable()])
    assert p.read_text() == previous
    assert sorted(tmp_path.iterdir()) == [p]


ROW = st.tuples(st.integers(0, 3), st.integers(0, 1), st.integers(0, 3))
# (split, position, column, too large rather than negative)
BAD_ID = st.tuples(st.integers(0, 2), st.integers(0, 9), st.integers(0, 2), st.booleans())


@given(st.lists(st.lists(ROW, max_size=9), min_size=3, max_size=3), st.lists(BAD_ID, max_size=2))
def test_build_graph_matches_the_concatenating_oracle(splits, bad_ids):
    """Empty splits, duplicates within and across splits, and ids outside
    the dictionaries: the same arrays, or the same IndexError text."""
    n, m = 4, 2
    dicts = ({f"e{i}": i for i in range(n)}, {f"r{i}": i for i in range(m)})
    splits = [np.array(split, dtype=np.int64).reshape(-1, 3) for split in splits]
    for which, at, column, large in bad_ids:
        row = np.zeros((1, 3), dtype=np.int64)
        row[0, column] = (m if column == 1 else n) if large else -1
        splits[which] = np.insert(splits[which], min(at, len(splits[which])), row, axis=0)
    try:
        want = oracles.build_graph(*splits, dicts)
    except IndexError as err:
        with pytest.raises(IndexError) as got:
            build_graph(*splits, dicts)
        assert str(got.value) == str(err)
        return
    kg = build_graph(*splits, dicts)
    for name in ("train", "valid", "test", "tail_codes", "head_codes"):
        got, expected = getattr(kg, name), getattr(want, name)
        assert got.dtype == expected.dtype == np.int64, name
        assert np.array_equal(got, expected), name


def test_build_graph_holds_each_fact_code_array_once():
    """About 64k facts: the build holds at most the codes of every split,
    one bool a code and the distinct codes, or the tail and head code
    arrays and a block of each, under 20 bytes a fact."""
    rng = np.random.default_rng(0)
    n, m = 20_000, 12
    train = rng.integers(0, (n, m, n), size=(64_000, 3))
    valid, test = train[:2000].copy(), train[2000:3000].copy()  # duplicates
    dicts = (CountOnly(n), CountOnly(m))
    build_graph(train[:10], [], [], dicts)
    tracemalloc.start()
    try:
        kg = build_graph(train, valid, test, dicts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kg.tail_codes.size > 63_000
    assert peak <= 20 * len(train), peak


@pytest.mark.parametrize(
    "lookup, what",
    [
        # (0*m + 2)*n + 0 is the code of the fact (1, 0, 0)
        (lambda kg: kg.contains(np.array([0]), np.array([2]), np.array([0])), "relation"),
        (lambda kg: kg.contains(np.array([0]), np.array([0]), np.array([-1])), "entity"),
        (lambda kg: kg.contains(np.array([3]), np.array([0]), np.array([0])), "entity"),
        (lambda kg: kg.tails_of(np.array([0]), 2), "relation"),
        (lambda kg: kg.tails_of(np.array([-1]), 0), "entity"),
        (lambda kg: kg.heads_of(0, np.array([3])), "entity"),
        (lambda kg: kg.heads_of(-1, np.array([0])), "relation"),
        (lambda kg: kg.pairs_of(2), "relation"),
        (lambda kg: kg.pairs_of(-1), "relation"),
    ],
)
def test_lookups_refuse_ids_outside_the_graph(lookup, what):
    """Fact codes alias outside the graph: in a graph of 3 entities and 2
    relations that holds only (1, 0, 0), the code of (0, 2, 0) is that
    fact's, so each lookup checks its ids first."""
    kg = build_graph([(1, 0, 0)], [], [], ({"a": 0, "b": 1, "c": 2}, {"r": 0, "s": 1}))
    with pytest.raises(IndexError, match=f"{what} index out of range"):
        lookup(kg)

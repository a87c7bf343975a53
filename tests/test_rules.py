import pytest
from hypothesis import given, settings, strategies as st

from hornplex.kg import Triple, build_graph
from hornplex.rules import (
    HornRule,
    RuleFileError,
    filter_rules,
    ground_confidence,
    parse_rules,
    write_rules,
)

from oracles import enumerate_confidence, split_rows
from conftest import make_random_kg

RELS = {"rH": 0, "rB": 1, "r1": 2, "r2": 3, "r3": 4}


def write_ruleset(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def test_parse_hierarchy_rule(tmp_path):
    p = tmp_path / "rules.tsv"
    write_ruleset(p, ["0.9\trH\trB"])
    (rule,) = parse_rules(p, RELS)
    assert rule == HornRule(body=(1,), head=0, confidence=0.9)
    assert rule.kind() == "hierarchy" and rule.length == 1


def test_parse_composition_rule(tmp_path):
    p = tmp_path / "rules.tsv"
    write_ruleset(p, ["# a comment", "", "0.6\tr3\tr1\tr2"])
    (rule,) = parse_rules(p, RELS)
    assert rule.body == (2, 3) and rule.head == 4
    assert rule.kind() == "composition"


def test_parse_rejects_out_of_range_confidence(tmp_path):
    p = tmp_path / "rules.tsv"
    write_ruleset(p, ["1.2\trH\trB"])
    with pytest.raises(RuleFileError, match=":1:"):
        parse_rules(p, RELS)


def test_parse_rejects_unknown_relation(tmp_path):
    p = tmp_path / "rules.tsv"
    write_ruleset(p, ["0.9\trH\trB", "0.8\trH\tnope"])
    with pytest.raises(RuleFileError, match=":2:.*'nope'"):
        parse_rules(p, RELS)


def test_rule_constructor_validation():
    with pytest.raises(ValueError):
        HornRule(body=(), head=0, confidence=0.5)
    with pytest.raises(ValueError):
        HornRule(body=(1,), head=0, confidence=0.0)
    longer = HornRule(body=(1, 2, 3), head=0, confidence=1.0)
    assert longer.kind() == "general"


def test_filter_rules_by_confidence_and_length():
    rules = [
        HornRule(body=(1,), head=0, confidence=0.4),
        HornRule(body=(1, 2), head=0, confidence=0.7),
        HornRule(body=(1, 2, 3), head=0, confidence=0.9),
    ]
    assert filter_rules(rules, min_confidence=0.5, max_length=2) == [rules[1]]


def test_filter_rules_identity():
    rules = [
        HornRule(body=(1,), head=0, confidence=0.4),
        HornRule(body=(1, 2), head=0, confidence=0.7),
    ]
    assert filter_rules(rules, min_confidence=0.0, max_length=10) == rules


def test_filter_rules_threshold_inclusive_vs_strict():
    rules = [HornRule(body=(1,), head=0, confidence=0.5)]
    assert filter_rules(rules, min_confidence=0.5, max_length=2) == rules
    assert filter_rules(rules, min_confidence=0.5, max_length=2, strict=True) == []


@given(
    st.lists(
        st.tuples(
            st.floats(0.01, 1.0),
            st.integers(0, 4),
            st.lists(st.integers(0, 4), min_size=1, max_size=3),
        ),
        max_size=10,
    )
)
def test_parse_write_round_trip(tmp_path_factory, raw):
    tmp = tmp_path_factory.mktemp("rules")
    rules = [HornRule(body=tuple(b), head=h, confidence=c) for c, h, b in raw]
    names = [name for name, _ in sorted(RELS.items(), key=lambda kv: kv[1])]
    p = tmp / "rules.tsv"
    write_rules(p, rules, names)
    reparsed = parse_rules(p, RELS)
    assert reparsed == rules


def hand_kg():
    # body chain r1 then r2 grounds 4 times; the head r3 holds for 3 of them
    ents = {name: i for i, name in enumerate("abdef")}
    rels = {"r1": 0, "r2": 1, "r3": 2, "rEmpty": 3}
    a, b, d, e, f = range(5)
    train = [
        Triple(a, 0, b),
        Triple(d, 0, b),
        Triple(b, 1, e),
        Triple(b, 1, f),
        Triple(a, 2, e),
        Triple(a, 2, f),
        Triple(d, 2, e),
    ]
    return build_graph(train, [], [], (ents, rels))


def test_ground_confidence_hand_checked():
    kg = hand_kg()
    rule = HornRule(body=(0, 1), head=2, confidence=0.5)
    assert ground_confidence(kg, rule) == pytest.approx(0.75)


def test_ground_confidence_empty_support():
    kg = hand_kg()
    rule = HornRule(body=(3,), head=2, confidence=0.5)
    assert ground_confidence(kg, rule) is None


def test_ground_confidence_full_support():
    ents = {"a": 0, "b": 1, "c": 2}
    rels = {"rB": 0, "rH": 1}
    train = [Triple(0, 0, 1), Triple(1, 0, 2), Triple(0, 1, 1), Triple(1, 1, 2)]
    kg = build_graph(train, [], [], (ents, rels))
    assert ground_confidence(kg, HornRule(body=(0,), head=1, confidence=1.0)) == 1.0


def test_hierarchy_confidence_equals_pair_intersection():
    kg = make_random_kg(seed=9, num_entities=8, num_relations=3, num_train=40)
    rule = HornRule(body=(0,), head=1, confidence=0.5)
    value = ground_confidence(kg, rule)
    facts = split_rows(kg)
    body_pairs = {(h, t) for h, r, t in facts if r == 0}
    head_pairs = {(h, t) for h, r, t in facts if r == 1}
    if not body_pairs:
        assert value is None
    else:
        assert value == len(body_pairs & head_pairs) / len(body_pairs)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("body", [(0,), (0, 1), (1, 2, 0)])
def test_ground_confidence_matches_enumeration(seed, body):
    kg = make_random_kg(seed=seed, num_entities=6, num_relations=3, num_train=25)
    rule = HornRule(body=body, head=2, confidence=0.5)
    fast = ground_confidence(kg, rule)
    slow = enumerate_confidence(kg, rule)
    if slow is None:
        assert fast is None
    else:
        assert fast == slow
        assert 0.0 <= fast <= 1.0


@st.composite
def graphs_and_rules(draw):
    """A graph with duplicates within and across splits, and relation m
    declared without facts; a rule of body length 1-4 over relations 0..m,
    with repeats, whose head is often one of its body relations."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 3))
    triple = st.builds(
        Triple, st.integers(0, n - 1), st.integers(0, m - 1), st.integers(0, n - 1)
    )
    train = draw(st.lists(triple, min_size=2 * n * m, max_size=4 * n * m))
    valid, test = (draw(st.lists(triple, max_size=10)) for _ in range(2))
    if train:
        test = test + draw(st.lists(st.sampled_from(train), max_size=5))
    body = tuple(draw(st.lists(st.integers(0, m), min_size=1, max_size=4)))
    head = draw(st.sampled_from(body) | st.integers(0, m))
    dicts = ({f"e{i}": i for i in range(n)}, {f"r{i}": i for i in range(m + 1)})
    return build_graph(train, valid, test, dicts), HornRule(body, head, 1.0)


@settings(max_examples=150)
@given(graphs_and_rules())
def test_ground_confidence_equals_enumeration_property(case):
    kg, rule = case
    assert ground_confidence(kg, rule) == enumerate_confidence(kg, rule)


@pytest.mark.parametrize("body, head", [((4,), 0), ((0, 1), 4), ((0, -1), 2), ((0,), 9)])
def test_ground_confidence_rejects_a_relation_outside_the_graph(body, head):
    kg = hand_kg()  # relations 0..3
    with pytest.raises(KeyError, match="not present in graph"):
        ground_confidence(kg, HornRule(body=body, head=head, confidence=0.5))


def test_ground_confidence_counts_stay_exact_past_int64():
    """Relation 0 links 0 -> 1, 0 -> 2, 1 -> 0 and 2 -> 0, so a body of 131
    steps has more than 2**65 groundings; the exact counts come from powers
    of the adjacency matrix in Python integers."""
    dicts = ({"a": 0, "b": 1, "c": 2}, {"r": 0, "s": 1})
    train = [Triple(0, 0, 1), Triple(0, 0, 2), Triple(1, 0, 0), Triple(2, 0, 0)]
    head = [Triple(0, 1, 1), Triple(2, 1, 0), Triple(1, 1, 1)]
    kg = build_graph(train, [], head, dicts)
    adjacency = [[0, 1, 1], [1, 0, 0], [1, 0, 0]]
    chains = [[int(x == y) for y in range(3)] for x in range(3)]
    for _ in range(131):
        chains = [[sum(row[k] * adjacency[k][y] for k in range(3)) for y in range(3)] for row in chains]
    total = sum(map(sum, chains))
    supported = sum(chains[t.head][t.tail] for t in head)
    assert total > 2**65
    rule = HornRule(body=(0,) * 131, head=1, confidence=1.0)
    assert ground_confidence(kg, rule) == supported / total


def test_parse_rules_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    p = tmp_path / "rules.tsv"
    p.write_bytes(b"0.9\trH\trB\n# \xc3\xa9t\xc3\xa9\n0.8\trH\tr\xff1\n")
    with pytest.raises(RuleFileError) as err:
        parse_rules(p, RELS)
    assert str(err.value) == f"{p}:3: byte 0xff at offset 26 is not UTF-8"

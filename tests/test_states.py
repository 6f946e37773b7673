import random

import pytest

from edithints.states import (
    CanonConfig,
    StateError,
    TreeParseError,
    canonicalize,
    parse_sequence,
    parse_tree,
    sequence,
    serialize_sequence,
    serialize_tree,
)

from oracle_utils import random_tree, tree, tree_size


def test_parse_basic_shapes():
    t = parse_tree("a(b,c)")
    assert t == tree("a", tree("b"), tree("c"))
    assert parse_tree("x") == tree("x")
    assert parse_tree(" f ( a , b ) ") == parse_tree("f(a,b)")


def test_parse_depth3():
    t = parse_tree("if(cond(random,answer),say)")
    assert tree_size(t) == 5
    assert t.label == "if"
    assert [c.label for c in t.children] == ["cond", "say"]
    assert serialize_tree(parse_tree(serialize_tree(t))) == serialize_tree(t)
    assert parse_tree(serialize_tree(t)) == t


def test_quoted_labels_round_trip():
    t = tree('say "hi"', tree("a,b"), tree("c(d)"), tree("\\back"))
    text = serialize_tree(t)
    assert parse_tree(text) == t


@pytest.mark.parametrize(
    "bad, offset",
    [
        ("", 0),
        ("a(", 2),
        ("a(b", 3),
        ("a(b,)", 4),
        ("a)b", 1),
        ('a("unterminated', 2),
        ('f("a\\', 4),  # dangling escape
        ('f("")', 2),  # empty quoted label
        ("a(b))", 4),
        # 101 levels: the 100th "(" opens the level beyond the limit
        pytest.param("a(" * 100 + "b" + ")" * 100, 199, id="too-deep"),
    ],
)
def test_parse_errors_carry_offsets(bad, offset):
    with pytest.raises(TreeParseError) as err:
        parse_tree(bad)
    assert err.value.offset == offset


def test_parse_round_trip_random():
    rng = random.Random(20240401)
    weird = ["plain", "with space", 'quo"te', "comma,label", "par(en", "back\\slash"]
    for _ in range(1000):
        t = random_tree(rng, labels=weird, max_depth=4)
        assert parse_tree(serialize_tree(t)) == t


def test_sequence_serialization():
    s = sequence(["a", "b,c", 'd"e'])
    assert parse_sequence(serialize_sequence(s)) == s
    assert parse_sequence("[]") == ()
    with pytest.raises(StateError):
        parse_sequence('"not an array"')
    with pytest.raises(StateError):
        sequence([""])


def test_label_validation():
    with pytest.raises(StateError):
        tree("")
    with pytest.raises(StateError):
        tree("has\nnewline")


def test_canonicalize_empty_config_is_identity():
    t = parse_tree("f(g(h),i)")
    assert canonicalize(t, CanonConfig()) == t


def test_canonicalize_variable_renaming_preorder():
    cfg = CanonConfig(variable_label_prefixes=("var:",))
    t = parse_tree("root(var:y,var:x,var:y)")
    got = canonicalize(t, cfg)
    assert got == parse_tree("root(v1,v2,v1)")


def test_canonicalize_commutative_sorting():
    cfg = CanonConfig(commutative_labels=("eq",))
    assert canonicalize(parse_tree("eq(b,a)"), cfg) == parse_tree("eq(a,b)")
    # sorting happens bottom-up with full subtree text
    assert canonicalize(parse_tree("eq(f(b),f(a,a))"), cfg) == parse_tree("eq(f(a,a),f(b))")


def test_canonicalize_dead_removal():
    cfg = CanonConfig(dead_labels=("dead",))
    t = parse_tree("f(dead(x,y),g(dead(z)),h)")
    assert canonicalize(t, cfg) == parse_tree("f(g,h)")
    # the root itself is never removed
    assert canonicalize(parse_tree("dead(x)"), cfg) == parse_tree("dead(x)")


def test_canonicalize_disjointness_enforced():
    with pytest.raises(StateError):
        CanonConfig(variable_label_prefixes=("a",), dead_labels=("a",))


def test_canonicalize_idempotent_and_shrinking():
    rng = random.Random(7)
    cfg = CanonConfig(
        variable_label_prefixes=("var:",),
        commutative_labels=("eq", "add"),
        dead_labels=("dead",),
    )
    labels = ["f", "g", "eq", "add", "dead", "var:x", "var:y", "var:z"]
    for _ in range(500):
        t = random_tree(rng, labels=labels, max_depth=4)
        once = canonicalize(t, cfg)
        assert canonicalize(once, cfg) == once
        assert tree_size(once) <= tree_size(t)


def test_canonicalize_idempotent_with_interacting_rename_and_sort():
    # renaming before sorting keeps the second pass a no-op even when the
    # sort key depends on the renamed variables
    cfg = CanonConfig(variable_label_prefixes=("var:",), commutative_labels=("c",))
    t = parse_tree("r(var:b,c(f(var:a),f(var:b)))")
    once = canonicalize(t, cfg)
    assert canonicalize(once, cfg) == once

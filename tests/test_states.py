import random

import pytest
from hypothesis import given, settings, strategies as st

from edithints.states import (
    CanonConfig,
    StateError,
    TreeParseError,
    TreeState,
    canonicalize,
    parse_sequence,
    parse_tree,
    sequence,
    serialize_sequence,
    serialize_tree,
)

from oracle_utils import canonicalize_oracle, random_tree, tree, tree_size


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


def test_canonicalize_rejects_dead_label_that_renaming_gives():
    # f(var:a,g) would canonicalize to f(v1,g), and that again to f(g)
    with pytest.raises(StateError, match="'v1'"):
        CanonConfig(variable_label_prefixes=("var:",), dead_labels=("v1",))
    with pytest.raises(StateError, match="'v12'"):
        CanonConfig(variable_label_prefixes=("x",), dead_labels=("d", "v12"))
    # no renaming, or names that renaming never gives: accepted
    cfg = CanonConfig(dead_labels=("v1",))
    assert canonicalize(parse_tree("f(v1,g)"), cfg) == parse_tree("f(g)")
    cfg = CanonConfig(variable_label_prefixes=("var:",), dead_labels=("v0", "v01", "v1x"))
    assert canonicalize(parse_tree("f(var:a,v0,v01,v1x)"), cfg) == parse_tree("f(v1)")


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


def test_canonicalize_builds_each_output_node_once(monkeypatch):
    cfg = CanonConfig(
        variable_label_prefixes=("var:",), commutative_labels=("add",), dead_labels=("comment",)
    )
    t = parse_tree("f(set(var:x,0),comment(todo),ret(add(var:x,1)),add(var:y,var:x))")
    want = parse_tree("f(set(v1,0),ret(add(1,v1)),add(v1,v2))")
    built = []
    init = TreeState.__post_init__
    monkeypatch.setattr(TreeState, "__post_init__", lambda self: built.append(init(self)))
    once = canonicalize(t, cfg)
    assert len(built) == tree_size(want) == 11
    assert once == want


# plain, commutative-looking, dead-looking, variable, canonical v<k> and
# quoted labels
_CANON_LABELS = [
    "f", "g", "add", "eq", "dead", "var:a", "var:b", "vx", "v1", "v2", "v10", "v0", "a b", '"q"',
]


@st.composite
def _canon_configs(draw):
    """Valid configs over ``_CANON_LABELS``: prefixes, commutative and
    dead labels pairwise disjoint, and no dead name that renaming gives
    when there are prefixes."""
    prefixes = draw(st.lists(st.sampled_from(["var:", "v", "a", "x"]), max_size=2, unique=True))
    rest = [label for label in _CANON_LABELS if label not in prefixes]
    commutative = draw(st.lists(st.sampled_from(rest), max_size=3, unique=True))
    dead = draw(st.lists(
        st.sampled_from([label for label in rest if label not in commutative]),
        max_size=2, unique=True,
    ))
    if prefixes:
        dead = [label for label in dead if label not in ("v1", "v2", "v10")]
    return CanonConfig(prefixes, commutative, dead)


_CANON_TREES = st.recursive(
    st.builds(TreeState, st.sampled_from(_CANON_LABELS)),
    lambda kids: st.builds(TreeState, st.sampled_from(_CANON_LABELS), st.lists(kids, max_size=4)),
    max_leaves=14,
)


@settings(max_examples=400, deadline=None)
@given(_CANON_TREES, _canon_configs())
def test_canonicalize_matches_three_walks_and_is_idempotent(t, cfg):
    once = canonicalize(t, cfg)
    assert serialize_tree(once) == serialize_tree(canonicalize_oracle(t, cfg))
    assert canonicalize(once, cfg) == once
    assert tree_size(once) <= tree_size(t)

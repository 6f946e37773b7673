import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edithints.editdist import UNIT_COSTS, SeqEdit, distance
from edithints.policies import alpha_from_gamma
from edithints.states import CanonConfig, parse_tree, sequence
from edithints.traces import (
    DataError,
    Trace,
    TracePairs,
    build_pairs,
    goal_filter,
    load_dataset,
)

from oracle_utils import combination_coefficients, dataset_to_dict

METRIC = lambda a, b: distance(a, b, UNIT_COSTS)
TO_GOAL = lambda t: [METRIC(s, t.states[-1]) for s in t.states]


def make_trace(*texts, id="t", successful=True):
    return Trace(id, tuple(sequence(t) for t in texts), successful)


def test_goal_filter_worked_example():
    # distances to the goal "aac": a -> 2, ab -> 2, a -> 2; only strictly
    # decreasing states survive, so both middle states drop
    t = make_trace("a", "ab", "a", "aac")
    got = goal_filter(t, TO_GOAL(t))
    assert got.states == (sequence("a"), sequence("aac"))


def test_goal_filter_monotone_unchanged():
    t = make_trace("a", "ab", "abc")
    assert goal_filter(t, TO_GOAL(t)).states == t.states


def test_goal_filter_single_state():
    t = make_trace("a")
    assert goal_filter(t, TO_GOAL(t)) is t


def test_goal_filter_distances_strictly_decrease():
    t = make_trace("x", "ab", "zq", "abc", "ab", "abcd")
    got = goal_filter(t, TO_GOAL(t))
    goal = got.states[-1]
    ds = [METRIC(s, goal) for s in got.states]
    assert all(a > b for a, b in zip(ds, ds[1:]))
    assert got.states[0] == t.states[0]
    assert got.states[-1] == t.states[-1]


def test_build_pairs_two_traces():
    pairs = build_pairs([make_trace("a", "aac", id="t1"), make_trace("b", "bbc", id="t2")])
    assert len(pairs) == 4
    assert pairs.trace_spans == ((0, 2), (2, 4))
    assert pairs.successor.tolist() == [1, 1, 3, 3]
    assert pairs.moving_indices.tolist() == [0, 2]
    assert pairs.end_indices.tolist() == [1, 3]


def test_build_pairs_self_pair_count_and_positions():
    traces = [make_trace("a", "ab", "abc", id="t1"), make_trace("z", id="t2")]
    pairs = build_pairs(traces)
    assert len(pairs) == 4
    self_pairs = [i for i, y in enumerate(pairs.successor) if y == i]
    assert len(self_pairs) == len(traces)
    # a start and an intermediate state move on; both final states,
    # the single-state trace's included, are ends
    assert pairs.moving_indices.tolist() == [0, 1]
    assert pairs.end_indices.tolist() == [2, 3]
    assert pairs.successor.tolist() == [1, 2, 2, 3]


def test_build_pairs_empty():
    pairs = build_pairs([])
    assert len(pairs) == 0


@settings(max_examples=300, deadline=None)
@given(
    layout=st.lists(
        st.lists(st.sampled_from(["a", "ab", "b", "abc"]), min_size=1, max_size=5),
        max_size=6,
    ),
    data=st.data(),
)
def test_pair_indices_follow_the_traces(layout, data):
    traces = [make_trace(*texts, id=f"t{k}") for k, texts in enumerate(layout)]
    pairs = build_pairs(traces)
    # brute force: walk the traces, numbering their states in order
    states, spans, successor, ends, moving = [], [], [], [], []
    for trace in traces:
        start = len(states)
        for k, state in enumerate(trace.states):
            i = len(states)
            states.append(state)
            final = k == len(trace.states) - 1
            successor.append(i if final else i + 1)
            (ends if final else moving).append(i)
        spans.append((start, len(states)))
    assert pairs.states == tuple(states)
    assert pairs.trace_ids == tuple(t.id for t in traces)
    assert pairs.trace_spans == tuple(spans)
    assert pairs.successor.tolist() == successor
    assert pairs.end_indices.tolist() == ends
    assert pairs.moving_indices.tolist() == moving
    # weights at the trace ends are drawn too: their self-pairs must drop out
    gamma = np.array(
        data.draw(
            st.lists(
                st.floats(-1e6, 1e6, allow_nan=False), min_size=len(pairs), max_size=len(pairs)
            )
        )
    )
    assert np.array_equal(alpha_from_gamma(gamma, pairs), combination_coefficients(gamma, pairs))


@pytest.mark.parametrize(
    "spans, ids",
    [
        (((0, 2), (3, 4)), ("t1", "t2")),  # a gap
        (((0, 2), (1, 4)), ("t1", "t2")),  # an overlap
        (((0, 2), (2, 2), (2, 4)), ("t1", "t2", "t3")),  # an empty span
        (((0, 2), (2, 3)), ("t1", "t2")),  # a state outside every span
        (((0, 2), (2, 5)), ("t1", "t2")),  # a span past the states
        (((0, 2.0), (2.0, 4)), ("t1", "t2")),  # non-integer bounds
        (((0, 2), (2, 4)), ("t1",)),  # fewer ids than spans
        (((0, 2), (2, 4)), ("t1", "t2", "t3")),  # more ids than spans
        (((0, 2), (2, 4)), ("t1", "t1")),  # a duplicated id
        (((0, 2), (2, 4)), (1, "t2")),  # an id that is not a string
    ],
)
def test_trace_pairs_reject_layouts_that_do_not_tile(spans, ids):
    with pytest.raises(DataError):
        TracePairs(tuple(sequence(s) for s in ("a", "ab", "b", "bb")), ids, spans)


def test_load_dataset_canonicalizes_and_collapses():
    raw = {
        "kind": "tree",
        "traces": [
            {
                "id": "t1",
                "successful": True,
                # the two states differ only in variable naming: after
                # canonicalization they collapse into one
                "states": ["f(var:a)", "f(var:b)", "g(var:c)"],
            }
        ],
    }
    canon = CanonConfig(variable_label_prefixes=("var:",))
    ds = load_dataset(raw, canon)
    assert ds.traces[0].states == (parse_tree("f(v1)"), parse_tree("g(v1)"))


def test_load_dataset_validation_errors():
    with pytest.raises(DataError):
        load_dataset({"kind": "nope", "traces": []})
    with pytest.raises(DataError):
        load_dataset({"kind": "sequence", "traces": [{"id": "a", "states": []}]})
    with pytest.raises(DataError):
        load_dataset(
            {
                "kind": "sequence",
                "traces": [
                    {"id": "a", "states": [["x"]]},
                    {"id": "a", "states": [["y"]]},
                ],
            }
        )
    with pytest.raises(DataError):
        load_dataset("{not json")
    # a missing flag means unsuccessful (other values: test_cli)
    one = {"kind": "sequence", "traces": [{"id": "a", "states": [["x"]]}]}
    assert not load_dataset(one).traces[0].successful


def test_load_dataset_tutor_hints():
    raw = {
        "kind": "sequence",
        "traces": [
            {"id": "ok", "successful": True, "states": [["a"], ["a", "b"]]},
            {"id": "err", "successful": False, "states": [["a"], ["a"], ["z"]]},
        ],
        "tutor_hints": [
            {
                "trace": "err",
                "step": 3,
                "edit": {"kind": "relabel", "position": 1, "label": "a"},
                "quality": 0.9,
            }
        ],
    }
    ds = load_dataset(raw)
    hint = ds.tutor_hints[0]
    # step indexes the states as given in the file, before collapsing
    assert hint.state == sequence("z")
    assert hint.edit == SeqEdit("relabel", 1, "a")
    assert hint.quality == 0.9
    with pytest.raises(DataError):
        load_dataset({**raw, "tutor_hints": [{**raw["tutor_hints"][0], "step": 4}]})
    with pytest.raises(DataError):
        load_dataset({**raw, "tutor_hints": [{**raw["tutor_hints"][0], "quality": 1.5}]})


def test_dataset_round_trip():
    raw = {
        "kind": "sequence",
        "traces": [
            {"id": "t1", "successful": True, "states": [["a"], ["a", "b"]]},
            {"id": "t2", "successful": False, "states": [["q"]]},
        ],
        "tutor_hints": [
            {
                "trace": "t2",
                "step": 1,
                "edit": {"kind": "insert", "position": 2, "label": "x"},
                "quality": 0.5,
            }
        ],
    }
    ds = load_dataset(raw)
    again = load_dataset(json.loads(json.dumps(dataset_to_dict(ds))))
    assert again == ds

import functools
import hashlib
import json
import math
import random
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from edithints import editdist, policies
from edithints.editdist import (
    UNIT_COSTS,
    CostModel,
    DistanceMemo,
    SeqEdit,
    apply_edit,
    distance,
    distance_and_script,
    seq_distance,
    serialize_edit,
)
from edithints.evaluate import synthetic_corpus
from edithints.policies import (
    POLICY_NAMES,
    FitError,
    KernelParams,
    alpha_from_gamma,
    candidate_edits,
    chf_hint,
    fit_model,
    gross_hint,
    hint_by_policy,
    preimage_select,
    random_hint,
    rbf,
    score_candidates,
    sparsify,
    zimmerman_hint,
)
from edithints.space import CorrectedSpace
from edithints.states import CanonConfig, parse_tree, sequence, serialize_state
from edithints.traces import load_dataset

from oracle_utils import (
    combination_coefficients,
    combo_sqdist,
    greedy_sparsify_oracle,
    planted_sqdist,
    preimage_objective,
    random_sequence,
    random_tree,
)


GAMMA_STAR = 1.0 / (1.0 + math.sqrt(math.e))  # 0.37754...

FIG2 = {
    "kind": "sequence",
    "traces": [
        {"id": "t1", "successful": True, "states": [["a"], ["a", "a", "c"]]},
        {"id": "t2", "successful": True, "states": [["b"], ["b", "b", "c"]]},
    ],
}

FIG7 = {
    "kind": "sequence",
    "traces": [
        {"id": "t1", "successful": True, "states": [["a"], ["a", "a", "c"]]},
        {"id": "t2", "successful": True, "states": [["b"], ["b", "b", "c"]]},
        {"id": "t3", "successful": True, "states": [["a", "b"], ["a", "b", "c", "d"]]},
    ],
}


@pytest.fixture(scope="module")
def fig2_model():
    return fit_model(load_dataset(FIG2), params=KernelParams(1.0, 0.0))


@pytest.fixture(scope="module")
def fig7_model():
    return fit_model(load_dataset(FIG7), params=KernelParams(1.0, 0.0))


def state_index(model, text):
    want = sequence(text)
    return [i for i, s in enumerate(model.pairs.states) if s == want][0]


# ---------------------------------------------------------------------------
# kernel


def test_rbf_values():
    assert rbf(0.0, 1.0) == 1.0
    assert rbf(1.0, 1.0) == pytest.approx(1 / math.sqrt(math.e), abs=1e-12)
    assert rbf(100.0, 1.0) < 1e-21  # d = 10 psi
    d2 = np.array([0.0, 1.0, 4.0])
    vals = rbf(d2, 2.0)
    assert np.all(np.diff(vals) < 0)  # monotone decreasing in d^2
    assert np.all((vals > 0) & (vals <= 1))


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams(0.0, 0.0)
    with pytest.raises(ValueError):
        KernelParams(1.0, -0.1)
    # the kernel squares both: psi^2 must not underflow, noise^2 not overflow
    with pytest.raises(ValueError):
        KernelParams(1e-200, 0.0)
    with pytest.raises(ValueError):
        KernelParams(1.0, 1e200)


@pytest.mark.parametrize(
    "length_scale, noise_std",
    [(math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan), (1.0, math.inf)],
)
def test_kernel_params_reject_non_finite(length_scale, noise_std):
    with pytest.raises(ValueError):
        KernelParams(length_scale, noise_std)


# ---------------------------------------------------------------------------
# the worked two-trace example


def test_worked_example_kernel_matrix(fig2_model):
    e = math.exp(-0.5)
    assert np.allclose(fig2_model.kernel_matrix, [[1, e], [e, 1]], atol=1e-12)


def test_worked_example_gamma(fig2_model):
    raw = fig2_model.query_raw_distances(sequence("ab"), fig2_model.hint_memo())
    gamma = fig2_model.weights(raw, "gpr")
    assert gamma[1] == 0.0 and gamma[3] == 0.0  # final self-pairs carry no weight
    assert gamma[0] == pytest.approx(GAMMA_STAR, abs=1e-3)
    assert gamma[2] == pytest.approx(GAMMA_STAR, abs=1e-3)


def test_worked_example_alpha(fig2_model):
    gamma = np.array([GAMMA_STAR, 0.0, GAMMA_STAR, 0.0])
    alpha = alpha_from_gamma(gamma, fig2_model.pairs)
    assert alpha == pytest.approx([-GAMMA_STAR, GAMMA_STAR, -GAMMA_STAR, GAMMA_STAR])


def test_worked_example_hint(fig2_model):
    result = chf_hint(fig2_model, sequence("ab"))
    assert result.edit == SeqEdit("insert", 3, "c")


def test_interpolation_basis_vector(fig2_model):
    raw = fig2_model.query_raw_distances(sequence("a"), fig2_model.hint_memo())
    gamma = fig2_model.weights(raw, "gpr")
    want = np.zeros(4)
    want[0] = 1.0
    assert np.max(np.abs(gamma - want)) < 1e-8


def test_far_query_weights_vanish(fig2_model):
    far = sequence("q" * 30)
    raw = fig2_model.query_raw_distances(far, fig2_model.hint_memo())
    assert np.linalg.norm(fig2_model.weights(raw, "gpr")) < 1e-6
    result = chf_hint(fig2_model, far)
    assert result.edit is None and result.reason == "kernel-decay"


def test_single_state_traces_fit_and_only_baselines_hint():
    # no trace moves: the kernel system is empty and every weight is zero
    ds = load_dataset(
        {
            "kind": "sequence",
            "traces": [
                {"id": "t1", "successful": True, "states": [["a", "b"]]},
                {"id": "t2", "successful": True, "states": [["a", "c", "d"]]},
            ],
        }
    )
    model = fit_model(ds)
    assert model.kernel_indices == []
    for policy in ("chf", "nwr", "nn"):
        result = hint_by_policy(model, sequence("a"), policy)
        assert result.edit is None and result.reason == "kernel-decay"
    assert zimmerman_hint(model, sequence("a")).edit == SeqEdit("insert", 2, "b")


def test_nwr_weights_symmetric_pair(fig2_model):
    raw = fig2_model.query_raw_distances(sequence("ab"), fig2_model.hint_memo())
    gamma = fig2_model.weights(raw, "nwr")
    assert gamma[0] == pytest.approx(0.5, abs=1e-9)
    assert gamma[2] == pytest.approx(0.5, abs=1e-9)
    assert gamma.sum() == pytest.approx(1.0)


def test_nn_weights_tie_lowest_pair_index(fig2_model):
    raw = fig2_model.query_raw_distances(sequence("ab"), fig2_model.hint_memo())  # equidistant from a and b
    gamma = fig2_model.weights(raw, "nn")
    assert gamma[0] == 1.0 and gamma[2] == 0.0
    # a stack of queries, one per row: a near tie (the second regression
    # input closer by less than the tie tolerance) still goes to the first
    idx = fig2_model.kernel_indices
    d = np.full((2, len(idx)), 5.0)
    d[0, :2] = (1.0, 1.0 - 1e-12)
    d[1, 1] = 1.0
    rows = np.stack([raw, raw])
    stacked = fig2_model.weights(rows, "nn", d)
    assert np.flatnonzero(stacked[0]).tolist() == [idx[0]]
    assert np.flatnonzero(stacked[1]).tolist() == [idx[1]]
    for row, query, sq in zip(stacked, rows, d):
        assert np.array_equal(row, fig2_model.weights(query, "nn", sq))


def test_closest_end_ties_break_toward_the_lowest_trace_id():
    # trace "t2" comes first in the dataset; both ends are one edit from
    # the query, so the end of "t1" wins, for one query and in a stack
    model = fit_model(
        load_dataset(
            {
                "kind": "sequence",
                "traces": [
                    {"id": "t2", "successful": True, "states": [["a"], ["a", "b"]]},
                    {"id": "t1", "successful": True, "states": [["c"], ["c", "b"]]},
                ],
            }
        )
    )
    raw = model.query_raw_distances(sequence("b"), model.hint_memo())
    end_t1 = model.pairs.end_indices[1]
    assert model.closest_correct_raw_index(raw) == end_t1
    near = raw.copy()
    near[model.pairs.end_indices[0]] -= 1e-12  # within the tie tolerance
    assert model.closest_correct_raw_index(np.stack([raw, near])) == [end_t1, end_t1]
    assert model.closest_correct_index(np.stack([raw, near])) == [end_t1, end_t1]


def test_own_next_step_reproduced(fig2_model):
    # querying a non-final training state at zero noise reproduces that
    # student's own next move (the first edit of the script toward y_i)
    result = chf_hint(fig2_model, sequence("a"))
    script_edit = SeqEdit("insert", 2, "a")  # a -> aac starts by inserting a
    assert result.edit == script_edit


def test_duplicate_states_fall_back_to_pseudo_inverse():
    dup = {
        "kind": "sequence",
        "traces": [
            {"id": "t1", "successful": True, "states": [["a"], ["a", "c"]]},
            {"id": "t2", "successful": True, "states": [["a"], ["a", "c"]]},
        ],
    }
    model = fit_model(load_dataset(dup), params=KernelParams(1.0, 0.0))
    assert model.used_pseudo_inverse
    raw = model.query_raw_distances(sequence("a"), model.hint_memo())
    gamma = model.weights(raw, "gpr")
    # the pseudo-inverse splits the unit weight across the duplicates
    assert gamma.sum() == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# gamma -> alpha bookkeeping


def test_alpha_zero_for_zero_gamma(fig2_model):
    assert np.all(alpha_from_gamma(np.zeros(4), fig2_model.pairs) == 0)


def test_alpha_sums_to_zero_random(fig7_model):
    rng = np.random.default_rng(8)
    for _ in range(50):
        gamma = rng.normal(size=len(fig7_model.pairs))
        alpha = alpha_from_gamma(gamma, fig7_model.pairs)
        assert abs(alpha.sum()) < 1e-10


def test_representation_identity(fig2_model):
    # phi(x) + sum gamma_i xi_i equals phi(x) + sum alpha_i phi(x_i)
    rng = np.random.default_rng(17)
    raw = fig2_model.query_raw_distances(sequence("ab"), fig2_model.hint_memo())
    q = fig2_model.embed_query(raw)
    for _ in range(100):
        gamma = rng.normal(size=4)
        alpha = alpha_from_gamma(gamma, fig2_model.pairs)
        direct = combination_coefficients(gamma, fig2_model.pairs)
        err = combo_sqdist(
            fig2_model.space, np.append(alpha, 1.0), np.append(direct, 1.0), query=q
        )
        assert abs(err) <= 1e-8


def test_single_state_trace_alpha_is_zero():
    ds = load_dataset(
        {
            "kind": "sequence",
            "traces": [
                {"id": "one", "successful": True, "states": [["x"]]},
                {"id": "two", "successful": True, "states": [["a"], ["a", "b"]]},
            ],
        }
    )
    model = fit_model(ds, params=KernelParams(1.0, 0.0))
    gamma = np.array([0.7, 0.3, 0.0])
    alpha = alpha_from_gamma(gamma, model.pairs)
    assert alpha[0] == 0.0  # the lone state moves nothing
    assert alpha.sum() == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# sparsification


def test_sparsify_fig7_coefficients(fig7_model):
    model = fig7_model
    alpha = np.zeros(6)
    alpha[state_index(model, "a")] = -GAMMA_STAR
    alpha[state_index(model, "aac")] = GAMMA_STAR
    alpha[state_index(model, "b")] = -GAMMA_STAR
    alpha[state_index(model, "bbc")] = GAMMA_STAR
    raw = model.query_raw_distances(sequence("ab"), model.hint_memo())
    query = model.embed_query(raw)
    star = state_index(model, "abcd")
    limit = raw[star]
    allowed = [
        i
        for i in range(6)
        if raw[i] <= limit + 1e-9 and model.dist_raw[i, star] <= limit + 1e-9
    ]
    assert sorted(model.pairs.states[i] for i in allowed) == sorted(
        [sequence("aac"), sequence("bbc"), sequence("ab"), sequence("abcd")]
    )
    tilde = sparsify(model, alpha, query, allowed, m_max=3)
    assert tilde[state_index(model, "aac")] == pytest.approx(0.3043, abs=0.01)
    assert tilde[state_index(model, "bbc")] == pytest.approx(0.3043, abs=0.01)
    assert tilde[state_index(model, "abcd")] == pytest.approx(0.3914, abs=0.01)
    assert tilde.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.count_nonzero(np.abs(tilde) > 1e-12) <= 3


def test_sparsify_fig7_hint_still_insert_c(fig7_model):
    model = fig7_model
    alpha = np.zeros(6)
    for text, value in (("a", -GAMMA_STAR), ("aac", GAMMA_STAR), ("b", -GAMMA_STAR), ("bbc", GAMMA_STAR)):
        alpha[state_index(model, text)] = value
    raw = model.query_raw_distances(sequence("ab"), model.hint_memo())
    query = model.embed_query(raw)
    star = state_index(model, "abcd")
    limit = raw[star]
    allowed = [
        i for i in range(6) if raw[i] <= limit + 1e-9 and model.dist_raw[i, star] <= limit + 1e-9
    ]
    tilde = sparsify(model, alpha, query, allowed, m_max=3)
    positives = [model.pairs.states[i] for i in np.flatnonzero(tilde > 1e-12)]
    memo = model.hint_memo()
    cands = candidate_edits(sequence("ab"), positives, model.cost, memo)
    result = preimage_select(sequence("ab"), tilde, cands, model, memo)
    assert result.edit == SeqEdit("insert", 3, "c")


def test_sparsify_m1_matches_exhaustive_scan(fig7_model):
    model = fig7_model
    rng = np.random.default_rng(4)
    raw = model.query_raw_distances(sequence("ab"), model.hint_memo())
    query = model.embed_query(raw)
    gram = model.space.extended_gram(query)
    allowed = list(range(6))
    for _ in range(20):
        alpha = rng.normal(size=6)
        alpha -= alpha.mean()  # sum zero like a real coefficient vector
        tilde = sparsify(model, alpha, query, allowed, m_max=1)
        support = np.flatnonzero(np.abs(tilde) > 1e-12)
        assert len(support) == 1 and tilde[support[0]] == pytest.approx(1.0)
        target = np.append(alpha, 1.0)
        errs = []
        for j in allowed:
            v = np.zeros(7)
            v[j] = 1.0
            diff = v - target
            errs.append(float(diff @ gram @ diff))
        assert errs[support[0]] == pytest.approx(min(errs), abs=1e-9)


def test_sparsify_empty_support_raises(fig7_model):
    # chf_hint's allowed support always holds the closest correct state
    with pytest.raises(ValueError, match="non-empty allowed support"):
        sparsify(fig7_model, np.full(6, 0.1), None, allowed=[], m_max=3)


def _tree_walks(seed: int, n_traces: int) -> dict:
    """Tree dataset whose traces walk from random trees to one of two
    solutions along shortest edit scripts, recording every state."""
    rng = random.Random(seed)
    goals = [parse_tree("f(g(h),h(f,g))"), parse_tree("f(g(h,h),h(g))")]
    traces = []
    for t in range(n_traces):
        state, goal = random_tree(rng), rng.choice(goals)
        states = [serialize_state(state)]
        for edit in distance_and_script(state, goal)[1].edits:
            state = apply_edit(state, edit)
            states.append(serialize_state(state))
        traces.append({"id": f"w{t}", "successful": True, "states": states})
    return {"kind": "tree", "traces": traces}


def _sparsify_inputs(model, x, scheme):
    """alpha, query embedding and allowed support, as ``chf_hint`` builds them."""
    raw = model.query_raw_distances(x, model.hint_memo())
    alpha = alpha_from_gamma(model.weights(raw, scheme), model.pairs)
    query = model.embed_query(raw)
    star = model.closest_correct_index(model.space.query_sqdist(query))
    near = raw[star] + 1e-9
    allowed = [
        i for i in range(len(model.pairs))
        if raw[i] <= near and model.dist_raw[i, star] <= near
    ]
    return alpha, query, allowed


def _assert_matches_oracle(model, alpha, query, allowed, m_max):
    if not allowed:  # both refuse an empty support
        for fn in (sparsify, greedy_sparsify_oracle):
            with pytest.raises(ValueError, match="non-empty allowed support"):
                fn(model, alpha, query, allowed, m_max)
        return
    got = sparsify(model, alpha, query, allowed, m_max)
    want = greedy_sparsify_oracle(model, alpha, query, allowed, m_max)
    assert np.array_equal(got, want), (allowed, m_max)


@pytest.mark.parametrize("kind", ["sequence", "tree"])
def test_sparsify_matches_full_refit_oracle(kind):
    # the greedy step, deciding on the screen's estimates, picks the support,
    # coefficients and stop of the same rule applied to exact refits of
    # every candidate at every step, bit for bit
    if kind == "sequence":
        # one shared goal, so the traces repeat states
        corpus = synthetic_corpus(seed=41, n_traces=10, goal_variants=False)
        model = fit_model(corpus, params=KernelParams(3.0, 0.3))
        queries = [s for t in synthetic_corpus(seed=42, n_traces=3).traces for s in t.states]
    else:
        model = fit_model(load_dataset(_tree_walks(43, 8)), params=KernelParams(2.0, 0.3))
        rng = random.Random(44)
        queries = [random_tree(rng) for _ in range(8)]
    calls = 0
    for x in queries:
        for scheme in ("gpr", "nwr", "nn"):
            alpha, query, allowed = _sparsify_inputs(model, x, scheme)
            everything = range(len(model.pairs))
            for m_max in (1, 3, 11):
                _assert_matches_oracle(model, alpha, query, allowed, m_max)
                _assert_matches_oracle(model, alpha, query, everything, m_max)
                calls += 2
    assert calls >= (200 if kind == "sequence" else 100)


def test_chf_hint_sparsifies_over_the_states_between_query_and_solution(monkeypatch):
    # the support chf_hint hands to sparsify is that of the state-by-state
    # loop of _sparsify_inputs: the states no farther from the query, nor
    # from the closest correct solution, than that solution is from the query
    corpus = synthetic_corpus(seed=41, n_traces=10, goal_variants=True)
    model = fit_model(corpus, params=KernelParams(3.0, 0.3))
    sparsify_, seen, checked = policies.sparsify, [], []

    def recorded(model, alpha, query, allowed, m_max):
        seen.append(allowed)
        return sparsify_(model, alpha, query, allowed, m_max)

    monkeypatch.setattr(policies, "sparsify", recorded)
    for t in synthetic_corpus(seed=42, n_traces=3).traces:
        for x in t.states:
            for scheme in ("gpr", "nwr", "nn"):
                seen.clear()
                chf_hint(model, x, scheme=scheme)
                if seen:
                    assert seen == [_sparsify_inputs(model, x, scheme)[2]]
                    assert all(type(i) is int for i in seen[0])
                    checked.append(len(seen[0]))
    assert len(checked) >= 30 and max(checked) > 1 and min(checked) < len(model.pairs)


def test_sparsify_ends_the_run_when_a_pivot_fails(fig7_model, monkeypatch):
    # from the second accepted state on, each accepted state's pivot is 0, so
    # every later estimate of the run is NaN and the run ends at the two
    # states it holds: the run of m_max 2 with a sound screen
    accept, estimates, greedy = policies._Screen.accept, policies._Screen.estimates, policies._greedy
    broken, failed, blind, runs = [], [], [], []  # failed keeps its screens alive

    def failing(screen, p):
        if broken and screen.schur is not None:
            screen.schur[p] = 0.0
            failed.append(screen)
        accept(screen, p)

    def checked(screen, *args):
        est = estimates(screen, *args)
        if screen in failed:
            assert all(math.isnan(e) for e in est)
            blind.append(1)
        return est

    def recorded(*args):
        runs.append(greedy(*args))
        return runs[-1]

    monkeypatch.setattr(policies._Screen, "accept", failing)
    monkeypatch.setattr(policies._Screen, "estimates", checked)
    monkeypatch.setattr(policies, "_greedy", recorded)
    model = fig7_model
    query = model.embed_query(model.query_raw_distances(sequence("ab"), model.hint_memo()))
    rng = np.random.default_rng(5)
    cut = 0
    for _ in range(20):
        alpha = rng.normal(size=6)
        alpha -= alpha.mean()
        sparsify(model, alpha, query, range(6), 2)
        want = runs[-1]
        sparsify(model, alpha, query, range(6), 3)
        cut += np.count_nonzero(runs[-1][0]) == 3
        broken.append(1)
        sparsify(model, alpha, query, range(6), 3)
        broken.clear()
        got = runs[-1]
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    assert len(failed) >= 20 and len(blind) >= 20 and cut >= 10


def _sequence_sparsify_inputs(goal_variants: bool):
    """``sparsify`` arguments on sequence inputs built as those of
    test_sparsify_matches_full_refit_oracle, whose traces share one goal;
    with ``goal_variants`` each trace heads for a goal of its own, as in
    the benchmark's sequence corpora."""
    corpus = synthetic_corpus(seed=41, n_traces=10, goal_variants=goal_variants)
    model = fit_model(corpus, params=KernelParams(3.0, 0.3))
    for t in synthetic_corpus(seed=42, n_traces=3).traces:
        for x in t.states:
            for scheme in ("gpr", "nwr", "nn"):
                alpha, query, allowed = _sparsify_inputs(model, x, scheme)
                for m_max in (1, 3, 11):
                    yield model, alpha, query, allowed, m_max
                    yield model, alpha, query, range(len(model.pairs)), m_max


def test_sparsify_refits_about_once_per_call(monkeypatch):
    # the greedy run decides on the screen's estimates and solves its final
    # support once.  One shared goal makes ten copies of a state, which the
    # screen gives equal estimates while open and none once one is accepted.
    # The screen itself solves and inverts nothing: it updates its estimates
    # by one rank-one step per state
    lstsq, solve, inv, calls, solves = np.linalg.lstsq, np.linalg.solve, np.linalg.inv, [], []
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
    monkeypatch.setattr(np.linalg, "solve", lambda *a, **k: solves.append(1) or solve(*a, **k))
    monkeypatch.setattr(np.linalg, "inv", lambda *a, **k: solves.append(1) or inv(*a, **k))
    counts, solved = [], 0
    for args in (*_sequence_sparsify_inputs(True), *_sequence_sparsify_inputs(False)):
        before, solves_before = len(calls), len(solves)
        sparsify(*args)
        counts.append(len(calls) - before)
        solved += len(solves) - solves_before
    assert len(counts) >= 400 and set(counts) == {1}
    assert solved == 0 and solves  # the fits behind the inputs invert: the count works


# integer points in the plane repeat and line up often; the extra points
# are exact duplicates and points on lines through two others
_POINT = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
_EXTRA = st.tuples(
    st.integers(0, 100), st.integers(0, 100), st.sampled_from([0.0, 0.5, -1.0, 2.0])
)


def _planted_inputs(base, extra, query, weights, keep):
    """``sparsify`` arguments on planted points in the plane: the base
    points, then each extra point t a + (1 - t) b of two earlier ones."""
    points = [np.array(p, dtype=float) for p in base]
    for i, j, t in extra:
        a, b = points[i % len(points)], points[j % len(points)]
        points.append(t * a + (1.0 - t) * b)
    points = np.array(points)
    m = len(points)
    space = CorrectedSpace(planted_sqdist(points), "clip")
    model = SimpleNamespace(pairs=[tuple(p) for p in points], space=space)  # states by value
    embedded = space.extend(((points - np.array(query, dtype=float)) ** 2).sum(axis=1))
    return model, np.array(weights[:m]), embedded, [i for i in range(m) if keep[i]]


_PLANTED = dict(
    base=st.lists(_POINT, min_size=1, max_size=6),
    extra=st.lists(_EXTRA, max_size=6),
    query=_POINT,
    weights=st.lists(st.sampled_from([0.0, -1.0, -0.5, 0.25, 1.0, 3.0]), min_size=12, max_size=12),
    keep=st.lists(st.booleans(), min_size=12, max_size=12),
    m_max=st.sampled_from([1, 3, 11]),
)


@settings(max_examples=200, deadline=None)
@given(**_PLANTED)
def test_sparsify_matches_oracle_on_degenerate_points(base, extra, query, weights, keep, m_max):
    # duplicated and collinear states make the refits' KKT matrices singular
    # and their Schur complements vanish; the result still equals the oracle's
    model, alpha, embedded, allowed = _planted_inputs(base, extra, query, weights, keep)
    _assert_matches_oracle(model, alpha, embedded, allowed, m_max)


@functools.lru_cache(maxsize=None)
def _shared_goal_inputs() -> tuple:
    return tuple(_sequence_sparsify_inputs(goal_variants=False))


def _planted_case(base, extra, query, weights, keep, m_max):
    """Each state's value, by which its copies are equal, and the ``sparsify`` arguments."""
    model, alpha, embedded, allowed = _planted_inputs(base, extra, query, weights, keep)
    return model.pairs, (model, alpha, embedded, allowed, m_max)


def _shared_goal_case(pick):
    model, *args = _shared_goal_inputs()[pick % len(_shared_goal_inputs())]
    return model.pairs.states, (model, *args)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.builds(_planted_case, **_PLANTED), st.builds(_shared_goal_case, st.integers(0, 999))))
def test_sparsify_support_holds_no_copy_above_an_allowed_one(case):
    # copies of a state, equal by value as pairwise_distances keys them, get
    # estimates equal up to rounding, and the lowest index stands for them:
    # the greedy support never holds a state whose copy of lower index was
    # allowed (the top-coefficient heuristic follows alpha, not the screen)
    states, args = case
    assume(args[3])
    greedy, runs = policies._greedy, []

    def recorded(*a):
        runs.append(greedy(*a))
        return runs[-1]

    with mock.patch.object(policies, "_greedy", recorded):
        sparsify(*args)
    first = {}
    for i in sorted(args[3]):
        first.setdefault(states[i], i)
    support = np.flatnonzero(runs[-1][0])
    assert all(first[states[i]] == i for i in support), (support, first)


@settings(max_examples=200, deadline=None)
@given(**_PLANTED)
def test_screen_estimates_lie_within_one_slack_of_their_refits(
    base, extra, query, weights, keep, m_max
):
    # at every step of a screened greedy run, each candidate's estimate,
    # carried by rank-one updates from the states accepted so far, is NaN
    # or within one slack of the refit of the active states and the candidate
    model, alpha, embedded, allowed = _planted_inputs(base, extra, query, weights, keep)
    assume(allowed)
    target, gram = np.append(alpha, 1.0), model.space.extended_gram(embedded)
    accept, estimates, active = policies._Screen.accept, policies._Screen.estimates, []

    def accepted(screen, p):
        active.append(int(screen.cols[p]))
        accept(screen, p)

    def checked(screen, open_, best_err):
        est = estimates(screen, open_, best_err)
        for p, e in zip(open_, est):
            if not math.isnan(e):
                cols = active + [int(screen.cols[p])]
                err = policies._affine_ls(gram, target, cols)[1]
                assert abs(e - err) <= screen.flat_tol, (cols, e, err)
        return est

    with mock.patch.object(policies._Screen, "accept", accepted):
        with mock.patch.object(policies._Screen, "estimates", checked):
            sparsify(model, alpha, embedded, allowed, m_max)


# ---------------------------------------------------------------------------
# candidate extraction and pre-image selection


def _applied(x, edits) -> list:
    """Candidates as :func:`candidate_edits` gives them: each edit with e(x)."""
    return [(edit, apply_edit(x, edit)) for edit in edits]


def test_candidate_edits_worked_example(fig2_model):
    cands = [
        edit
        for edit, _ in candidate_edits(
            sequence("ab"), [sequence("aac"), sequence("bbc")], fig2_model.cost, fig2_model.hint_memo()
        )
    ]
    assert set(map(serialize_edit, cands)) == {
        serialize_edit(SeqEdit("relabel", 2, "a")),
        serialize_edit(SeqEdit("insert", 3, "c")),
        serialize_edit(SeqEdit("relabel", 1, "b")),
    }


def test_candidate_edits_self_positive_empty(fig2_model):
    assert candidate_edits(sequence("ab"), [sequence("ab")], fig2_model.cost, fig2_model.hint_memo()) == []


def test_candidate_edits_tree_single_relabel():
    x = parse_tree("f(g,h)")
    y = parse_tree("f(q,h)")
    cands = [edit for edit, _ in candidate_edits(x, [y], UNIT_COSTS, DistanceMemo())]
    assert len(cands) == 1
    assert cands[0].kind == "relabel_node" and cands[0].path == (1,)


def test_preimage_worked_example(fig2_model):
    alpha = np.array([-GAMMA_STAR, GAMMA_STAR, -GAMMA_STAR, GAMMA_STAR])
    cands = candidate_edits(
        sequence("ab"), [sequence("aac"), sequence("bbc")], fig2_model.cost, fig2_model.hint_memo()
    )
    result = preimage_select(sequence("ab"), alpha, cands, fig2_model, fig2_model.hint_memo())
    assert result.edit == SeqEdit("insert", 3, "c")


def test_preimage_single_candidate(fig2_model):
    only = [SeqEdit("delete", 1)]
    result = preimage_select(
        sequence("ab"), np.zeros(4), _applied(sequence("ab"), only), fig2_model, fig2_model.hint_memo()
    )
    assert result.edit == only[0]


def test_preimage_empty_candidates(fig2_model):
    result = preimage_select(sequence("ab"), np.zeros(4), [], fig2_model, fig2_model.hint_memo())
    assert result.edit is None and result.reason == "no-candidates"


def test_preimage_near_tie_breaks_by_position(fig2_model, monkeypatch):
    # scores equal up to eigensolver rounding must tie: the smaller position
    # wins even when its score is a few ulps higher
    low, high = SeqEdit("insert", 1, "c"), SeqEdit("insert", 3, "c")
    scores = [(high, -67.40653655167708), (low, -67.40653655167654)]
    monkeypatch.setattr("edithints.policies.score_candidates", lambda *args: scores)
    result = preimage_select(
        sequence("ab"), np.zeros(4), _applied(sequence("ab"), [high, low]), fig2_model, fig2_model.hint_memo()
    )
    assert result.edit == low
    assert [e for e, _ in result.candidates] == [low, high]


def test_preimage_matches_brute_force_oracle(fig7_model):
    model = fig7_model
    rng = np.random.default_rng(12)
    x = sequence("ab")
    for _ in range(25):
        alpha = rng.normal(size=6) * 0.5
        alpha -= alpha.mean()
        positives = [model.pairs.states[i] for i in np.flatnonzero(alpha > 1e-12)]
        if not positives:
            continue
        memo = model.hint_memo()
        cands = candidate_edits(x, positives, model.cost, memo)
        if not cands:
            continue
        result = preimage_select(x, alpha, cands, model, memo)
        nz = np.flatnonzero(np.abs(alpha) > 1e-12)
        best = None
        for edit, _ in cands:
            after = apply_edit(x, edit)
            score = distance(after, x) ** 2 + sum(
                alpha[i] * distance(after, model.pairs.states[i]) ** 2 for i in nz
            )
            if best is None or score < best[0] - 1e-12:
                best = (score, edit)
        assert result.objective == pytest.approx(best[0], abs=1e-9)


def test_preimage_permutation_invariant(fig2_model):
    alpha = np.array([-GAMMA_STAR, GAMMA_STAR, -GAMMA_STAR, GAMMA_STAR])
    cands = candidate_edits(
        sequence("ab"), [sequence("aac"), sequence("bbc")], fig2_model.cost, fig2_model.hint_memo()
    )
    rng = random.Random(5)
    for _ in range(10):
        shuffled = list(cands)
        rng.shuffle(shuffled)
        result = preimage_select(sequence("ab"), alpha, shuffled, fig2_model, fig2_model.hint_memo())
        assert result.edit == SeqEdit("insert", 3, "c")


def test_scoring_equivalence_on_planted_points():
    # the testable form of the constant-offset claim: with coefficients
    # summing to zero, pairwise differences of the revised objective equal
    # pairwise differences of the direct squared distance to the
    # represented point
    rng = np.random.default_rng(33)
    states = rng.normal(size=(6, 2))
    x = rng.normal(size=2)
    alpha = rng.normal(size=6)
    alpha -= alpha.mean()
    target = x + states.T @ alpha
    candidates = rng.normal(size=(5, 2))
    scores = [
        preimage_objective(
            float(((c - x) ** 2).sum()),
            ((states - c) ** 2).sum(axis=1),
            alpha,
        )
        for c in candidates
    ]
    direct = [float(((c - target) ** 2).sum()) for c in candidates]
    for i in range(5):
        for j in range(5):
            assert scores[i] - scores[j] == pytest.approx(direct[i] - direct[j], abs=1e-8)


def test_score_candidates_on_a_line():
    # unary strings sit on a Euclidean line, so the package scoring
    # reproduces planted line geometry exactly
    states = [sequence("a" * k) for k in (0, 2, 5)]
    weights = np.array([-0.5, 0.3, 0.2])
    x = sequence("a" * 3)
    cands = [SeqEdit("insert", 4, "a"), SeqEdit("delete", 3)]
    scored = dict(
        (serialize_edit(e), s) for e, s in score_candidates(x, _applied(x, cands), states, weights, UNIT_COSTS, DistanceMemo())
    )
    pts = np.array([0.0, 2.0, 5.0])
    for edit, pos in ((cands[0], 4.0), (cands[1], 2.0)):
        want = (pos - 3.0) ** 2 + float(weights @ (pos - pts) ** 2)
        assert scored[serialize_edit(edit)] == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# baseline policies


def test_zimmerman_first_edit_toward_closest_solution(fig7_model):
    # solutions are aac, bbc, abcd at raw distance 2 each; the lowest trace
    # id wins the tie, so the script toward aac provides the first edit
    result = zimmerman_hint(fig7_model, sequence("ab"))
    assert result.edit == SeqEdit("relabel", 2, "a")


def test_zimmerman_at_solution_returns_none(fig2_model):
    result = zimmerman_hint(fig2_model, sequence("aac"))
    assert result.edit is None and result.reason == "at-solution"


def test_zimmerman_single_solution():
    ds = load_dataset(
        {
            "kind": "sequence",
            "traces": [
                {"id": "t", "successful": True, "states": [["q"], ["a", "b", "c", "d"]]}
            ],
        }
    )
    model = fit_model(ds, params=KernelParams(1.0, 0.0))
    # the only correct solution is abcd; the hint is the first edit of the
    # script ab -> abcd
    result = zimmerman_hint(model, sequence("ab"))
    assert result.edit == SeqEdit("insert", 3, "c")


def test_gross_successor_rule(fig2_model):
    # nearest state to "aab" is "a"? no: aac at distance 1; aac is final so
    # the reference degenerates to aac itself
    result = gross_hint(fig2_model, sequence("aab"))
    assert result.edit == SeqEdit("relabel", 3, "c")


def test_gross_nearest_nonfinal_uses_its_successor(fig2_model):
    # "aa" is closest to "a" (distance 1 tie with aac? d(aa,a)=1, d(aa,aac)=1,
    # tie broken by the lowest pair index -> "a", whose successor is aac
    result = gross_hint(fig2_model, sequence("aa"))
    after = apply_edit(sequence("aa"), result.edit)
    assert distance(after, sequence("aac")) < distance(sequence("aa"), sequence("aac"))


def test_random_policy_seeded(fig2_model):
    a = random_hint(fig2_model, sequence("ab"), seed=42)
    b = random_hint(fig2_model, sequence("ab"), seed=42)
    assert a == b
    with pytest.raises(ValueError):
        hint_by_policy(fig2_model, sequence("ab"), "random")


def test_hint_by_policy_dispatch(fig2_model):
    for policy in ("chf", "nwr", "nn", "zimmerman", "gross"):
        result = hint_by_policy(fig2_model, sequence("ab"), policy)
        assert result.edit is not None
    assert hint_by_policy(fig2_model, sequence("ab"), "random", seed=1).edit is not None
    with pytest.raises(ValueError):
        hint_by_policy(fig2_model, sequence("ab"), "unknown")


# infinite relabels between {f, g} and {h, k}, so some scripts must delete
# and insert where a relabel would be cheaper
_GROUPED = CostModel(
    indel={"h": 0.7}, relabel_default=math.inf, relabel={("f", "g"): 0.5, ("h", "k"): 0.4}
)


def _all_hints(model, queries) -> list:
    return [
        hint_by_policy(model, x, policy, seed=k).to_dict()
        for k, x in enumerate(queries)
        for policy in POLICY_NAMES
    ]


@pytest.mark.parametrize("cost", [UNIT_COSTS, _GROUPED], ids=["unit", "grouped"])
@pytest.mark.parametrize("seed", [71, 72, 73])
def test_hint_memo_gives_the_hints_of_fresh_memos(monkeypatch, seed, cost):
    # one memo per hint serves its query row, scripts and scoring; a fresh
    # memo per call must give every policy the same hint, bit for bit.  A
    # query equal to a training state has run, in the query row, the
    # keyroots it shares with its candidates over every scoring target; the
    # scoring pass runs the candidates whole all the same
    model = fit_model(load_dataset(_tree_walks(seed, 6)), cost, params=KernelParams(2.0, 0.3))
    rng = random.Random(seed)
    queries = [random_tree(rng, labels="fghk") for _ in range(6)] + list(model.pairs.states[::7])
    shared = _all_hints(model, queries)
    assert sum(h["edit"] is not None and h["alpha"] is not None for h in shared) >= 3
    monkeypatch.setattr(policies, "distance", lambda x, y, c, memo=None: distance(x, y, c))
    monkeypatch.setattr(
        policies, "distance_rows", lambda xs, ys, c, memo=None: [[distance(x, y, c) for y in ys] for x in xs]
    )
    monkeypatch.setattr(
        policies, "distance_and_script", lambda x, y, c, memo=None: distance_and_script(x, y, c)
    )
    assert _all_hints(model, queries) == shared


def _kernel_counts(monkeypatch, policy) -> list:
    """Per query of a tree model, the ``_fill`` passes and ``_Trie`` builds
    of its ``policy`` hint, and whether it hinted; the model's training
    trie, built once per model, is built before the count."""
    model = fit_model(load_dataset(_tree_walks(76, 6)), params=KernelParams(2.0, 0.3))
    model.hint_memo()
    rng = random.Random(76)
    passes, tries, fill, build = [], [], editdist._fill, editdist._Trie.__init__
    monkeypatch.setattr(editdist, "_fill", lambda *args: passes.append(1) or fill(*args))
    monkeypatch.setattr(editdist._Trie, "__init__", lambda self, *args: tries.append(1) or build(self, *args))
    counts = []
    for k, x in enumerate([random_tree(rng, labels="fghk") for _ in range(4)] + list(model.pairs.states[::5])):
        passes.clear()
        tries.clear()
        result = hint_by_policy(model, x, policy, seed=k)
        counts.append((len(passes), len(tries), bool(result.candidates)))
    return counts


def test_a_tree_chf_hint_makes_two_kernel_passes(monkeypatch):
    # the query row and the scoring, over three tries: the query's rows, the
    # candidates' rows and the columns of the support and the query; the
    # scripts read the cells the query row kept, also when the query is a
    # training state.  A hint that declines makes the query row alone
    counts = _kernel_counts(monkeypatch, "chf")
    assert all((p, t) == ((2, 3) if hinted else (1, 1)) for p, t, hinted in counts), counts
    assert sum(hinted for _, _, hinted in counts) >= 4


@pytest.mark.parametrize("policy, at_reference", [("zimmerman", (1, 1)), ("gross", (1, 1)), ("random", (1, 2))])
def test_a_tree_baseline_hint_makes_two_kernel_passes(monkeypatch, policy, at_reference):
    # zimmerman and gross: the query row, whose cells the script toward the
    # reference reads, then the distance after the edit, over the query's
    # rows, the edited tree's rows and the reference's columns; random: the
    # script toward its reference, then the distance after the edit, over
    # the same three tries.  A query at its reference makes the query row
    # alone (zimmerman, gross) or the script's pass alone (random)
    counts = _kernel_counts(monkeypatch, policy)
    assert all((p, t) == ((2, 3) if hinted else at_reference) for p, t, hinted in counts), counts
    assert sum(hinted for _, _, hinted in counts) >= 8


def test_sequence_hints_pack_the_training_states_once(monkeypatch):
    # the first hint packs the training states into the model's base memo;
    # each chf hint then packs its scoring targets once, whatever its
    # candidate count, and every policy gives the hints of per-pair tables
    model = fit_model(synthetic_corpus(seed=43, n_traces=6), params=KernelParams(2.0, 0.3))
    queries = [s for t in synthetic_corpus(seed=44, n_traces=2).traces for s in t.states]
    packed, pack = [], editdist._pack
    monkeypatch.setattr(editdist, "_pack", lambda targets: packed.append(targets) or pack(targets))
    hints = [chf_hint(model, x) for x in queries[:2]]
    assert all(len(h.candidates) > 1 for h in hints)
    assert [t is model.pairs.states for t in packed] == [True, False, False]
    shared = _all_hints(model, queries)
    assert sum(t is model.pairs.states for t in packed) == 1

    def dynamic_program(xs, ys, cost, memo=None):
        return [[seq_distance(x, y, cost)[0] for y in ys] for x in xs]

    monkeypatch.setattr(policies, "distance_rows", dynamic_program)
    assert _all_hints(model, queries) == shared


def test_hints_add_nothing_to_the_model_memo():
    model = fit_model(load_dataset(_tree_walks(74, 6)), params=KernelParams(2.0, 0.3))
    chf_hint(model, model.pairs.states[0])
    base = model._base_memo

    def snapshot():
        return dict(base._intern), dict(base._trees), dict(base._tries), dict(base._runs)

    before = snapshot()
    assert len(before[2]) == 1 and before[3] == {}  # the training trie alone, and no pass
    for x in model.pairs.states:  # each training label against each training state
        chf_hint(model, x)
    rng = random.Random(75)
    # labels x, y and z occur in no training state
    _all_hints(model, [random_tree(rng, labels="fgxyz") for _ in range(12)])
    assert model._base_memo is base and snapshot() == before


_WEIGHTED = CostModel(
    indel={"a": 0.7, "c": 1.3}, relabel_default=1.5, relabel={("a", "b"): 0.4, ("c", "d"): 2.5}
)
# sha256 of the JSON of every policy's hint, to_dict(), on each dataset of
# _digest_inputs, as an earlier version of the package wrote them; recorded
# with numpy 2.4.6 and OpenBLAS 0.3.31 on its SkylakeX kernels, one BLAS
# thread (the float fields' last bits depend on all three)
_HINT_DIGESTS = {
    "unit": "d9d2d4b4c8c4776b0f92d1085b314a53040328a0136b895f4d29660fe6442b70",
    "weighted": "2a20a5bef8d46908f7d1754c267a1800b7d9d6b624bf67733789e80999ceb1d9",
    "tree": "b0eebb8c07cd74bb3774a632b566fcb93ce59163382abb5aa3149afbefe0b3dd",
}


def _digest_inputs(name: str) -> tuple:
    """A fitted model and its queries: unit-cost and weighted-cost sequence
    corpora, and tree walks canonicalized and costed with infinite relabels."""
    if name == "tree":
        canon = CanonConfig(commutative_labels=("f",))
        data = load_dataset(_tree_walks(81, 6), canon)
        rng = random.Random(81)
        return fit_model(data, _GROUPED, canon, KernelParams(2.0, 0.3)), [
            random_tree(rng, labels="fghk") for _ in range(8)
        ]
    corpus = lambda seed: synthetic_corpus(seed, 8, "abcdefg", min_missing=2, max_missing=4)
    cost = UNIT_COSTS if name == "unit" else _WEIGHTED
    model = fit_model(corpus(82), cost, params=KernelParams(2.0, 0.3))
    return model, [s for t in corpus(83).traces for s in t.states[:2]]


@pytest.mark.parametrize("name", ["unit", "weighted", "tree"])
def test_hint_outputs_match_recorded_digest(name):
    # every output byte of every policy's hint, objectives and candidates
    # included, as recorded: a change to the hint path must leave them as they were
    hints = _all_hints(*_digest_inputs(name))
    assert sum(h["edit"] is not None for h in hints) >= len(hints) // 2
    digest = hashlib.sha256(json.dumps(hints).encode("utf-8")).hexdigest()
    assert digest == _HINT_DIGESTS[name]


@pytest.mark.parametrize(
    "kind, cost",
    [("sequence", UNIT_COSTS), ("sequence", _WEIGHTED), ("tree", UNIT_COSTS), ("tree", _GROUPED)],
    ids=["sequence-unit", "sequence-weighted", "tree-unit", "tree-grouped"],
)
def test_score_candidates_give_each_candidate_its_own_objective(kind, cost):
    # each candidate carries the state its edit makes, and the stacked
    # product gives each the bits of its own objective: one np.dot per
    # candidate over its distances computed pair by pair
    rng, np_rng = random.Random(91), np.random.default_rng(91)
    state = lambda: random_sequence(rng, "abcd", 6) if kind == "sequence" else random_tree(rng, "fghk")
    scored = 0
    for _ in range(12):
        x, support = state(), [state() for _ in range(3)]
        weights = np_rng.normal(size=3)
        memo = DistanceMemo()
        cands = candidate_edits(x, support, cost, memo)
        assert all(after == apply_edit(x, edit) for edit, after in cands)
        got = score_candidates(x, cands, support, weights, cost, memo)
        assert [e for e, _ in got] == [e for e, _ in cands]
        for (_, score), (_, after) in zip(got, cands):
            sq = np.array([distance(after, s, cost) ** 2 for s in support])
            assert score.hex() == preimage_objective(distance(after, x, cost) ** 2, sq, weights).hex()
        scored += len(cands)
    assert scored >= 30


def test_tree_hint_scores_its_candidates_in_one_fill(monkeypatch):
    # every candidate e(x) runs against the support states and x in one
    # pass, however many candidates the hint has
    model = fit_model(load_dataset(_tree_walks(76, 6)), params=KernelParams(2.0, 0.3))
    fills, phase, fill = [], ["hint"], editdist._fill
    monkeypatch.setattr(editdist, "_fill", lambda *args: fills.append(phase[0]) or fill(*args))
    score = policies.score_candidates

    def scoring(*args):
        phase[0] = "scoring"
        try:
            return score(*args)
        finally:
            phase[0] = "hint"

    monkeypatch.setattr(policies, "score_candidates", scoring)
    rng = random.Random(76)
    counts = []
    for x in [random_tree(rng, labels="fghk") for _ in range(8)]:
        fills.clear()
        result = chf_hint(model, x)
        counts.append((len(result.candidates), fills.count("scoring")))
    assert all(n == 1 for c, n in counts if c) and sum(c > 1 for c, _ in counts) >= 3, counts


def test_fit_requires_successful_traces():
    ds = load_dataset(
        {
            "kind": "sequence",
            "traces": [{"id": "t", "successful": False, "states": [["a"]]}],
        }
    )
    with pytest.raises(FitError):
        fit_model(ds)


def test_hint_result_serialization(fig2_model):
    result = chf_hint(fig2_model, sequence("ab"))
    out = result.to_dict()
    assert out["edit"] == {"kind": "insert", "position": 3, "label": "c"}
    assert out["sparsified"] is True
    assert len(out["candidates"]) == len(result.candidates)
    assert out["alpha"] is not None

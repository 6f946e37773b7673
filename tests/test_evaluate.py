import json
import math
import random

import numpy as np
import pytest

from edithints import cli, evaluate, policies, space
from edithints.editdist import CostModel, SeqEdit, UNIT_COSTS
from edithints.evaluate import (
    PREDICTION_SCHEMES,
    _predict_coords,
    hint_quality,
    hyper_search,
    loo_rmse,
    loo_rmse_multi,
    prepared_traces,
    synthetic_corpus,
)
from edithints.policies import FitError, HintResult, KernelParams, fit_model
from edithints.traces import Dataset, Trace, load_dataset

from oracle_utils import (
    dataset_to_dict,
    hyper_search_oracle,
    loo_rmse_oracle,
    predict_move_loop,
    report_hex,
)


def small_corpus():
    return synthetic_corpus(seed=5, n_traces=6, base_solution="abcdef", min_missing=2, max_missing=4)


def shaped_corpus(seed, n_traces=8, states=4):
    """``n_traces`` sequence traces of ``states`` states each, like the
    benchmark's eval corpora: the start, a seeded choice of the states
    between and the solution of longer synthetic traces.  Every fold has
    one training and kernel size."""
    rng = random.Random(seed)
    walks = synthetic_corpus(seed, n_traces=4 * n_traces, min_missing=6, max_missing=6).traces
    traces = []
    for walk in [t for t in walks if len(t.states) >= states][:n_traces]:
        middle = sorted(rng.sample(range(1, len(walk.states) - 1), states - 2))
        kept = (walk.states[0], *(walk.states[i] for i in middle), walk.states[-1])
        traces.append(Trace(walk.id, kept, True))
    assert len(traces) == n_traces
    return Dataset("sequence", tuple(traces))


def test_do_nothing_on_static_traces_is_zero():
    ds = load_dataset(
        {
            "kind": "sequence",
            "traces": [
                {"id": "t1", "successful": True, "states": [["a"]]},
                {"id": "t2", "successful": True, "states": [["b", "b"]]},
            ],
        }
    )
    report = loo_rmse(ds, "do_nothing")
    assert report.mean_next == pytest.approx(0.0, abs=1e-9)


def test_loo_on_single_state_traces_is_finite_for_every_scheme():
    # no trace moves, so every fold's model has an empty kernel system
    ds = load_dataset(
        {
            "kind": "sequence",
            "traces": [
                {"id": "t1", "successful": True, "states": [["a", "b"]]},
                {"id": "t2", "successful": True, "states": [["a", "c", "d"]]},
                {"id": "t3", "successful": True, "states": [["b"]]},
            ],
        }
    )
    reports = loo_rmse_multi(ds, PREDICTION_SCHEMES, KernelParams(1.0, 0.0))
    assert sorted(reports) == sorted(PREDICTION_SCHEMES)
    for report in reports.values():
        assert not report.folds_skipped
        assert math.isfinite(report.mean_next) and math.isfinite(report.mean_final)


def test_duplicate_trace_gpr_interpolates():
    # the held-out trace has an identical twin in the training data; with a
    # short length scale and zero noise the prediction reproduces the twin's
    # moves exactly and decays to nothing at the goal
    twin = {"id": "A", "successful": True, "states": [["a"], ["a", "b"], ["a", "b", "c"]]}
    ds = load_dataset(
        {
            "kind": "sequence",
            "traces": [
                twin,
                {**twin, "id": "A2"},
                {"id": "B", "successful": True, "states": [["q"], ["q", "r"]]},
            ],
        }
    )
    report = loo_rmse(ds, "gaussian_process", KernelParams(0.15, 0.0))
    fold = {row[0]: row[1] for row in report.per_trace}
    assert fold["A"] < 1e-6
    assert fold["A2"] < 1e-6


def test_do_nothing_final_rmse_closed_form():
    ds = small_corpus()
    report = loo_rmse(ds, "do_nothing")
    # closed form: root mean squared corrected distance from each held-out
    # state to its trace's final state, recomputed through the embedding
    from edithints.editdist import pairwise_distances
    from edithints.policies import Geometry, GprModel
    from edithints.traces import Trace, build_pairs

    pairs, _ = prepared_traces(ds)
    traces = [Trace(t, pairs.states[a:b], True) for t, (a, b) in zip(pairs.trace_ids, pairs.trace_spans)]
    flat = [s for t in traces for s in t.states]
    matrix = pairwise_distances(flat, UNIT_COSTS)
    starts = np.cumsum([0] + [len(t.states) for t in traces])
    spans = [range(a, b) for a, b in zip(starts[:-1], starts[1:])]
    for held, trace in enumerate(traces):
        train = [t for k, t in enumerate(traces) if k != held]
        train_ids = [g for k, span in enumerate(spans) if k != held for g in span]
        model = GprModel(
            "sequence",
            Geometry(build_pairs(train), matrix[np.ix_(train_ids, train_ids)], "clip"),
            UNIT_COSTS,
            None,
            KernelParams(),
        )
        coords = [model.embed_query(matrix[g][train_ids]).coords for g in spans[held]]
        want = math.sqrt(
            np.mean([np.sum((c - coords[-1]) ** 2) for c in coords])
        )
        got = {row[0]: row[2] for row in report.per_trace}[trace.id]
        assert got == pytest.approx(want, abs=1e-9)


def test_loo_multi_rejects_a_scheme_named_twice(monkeypatch):
    # a repeated name would add each fold's row once per mention; it is
    # rejected, as an unknown name is, before any data is prepared
    prepare = _counted(monkeypatch, evaluate, "prepared_traces")
    ds = synthetic_corpus(3, n_traces=4)
    for schemes in (("nn", "nn"), ("bogus",)):
        with pytest.raises(ValueError):
            loo_rmse_multi(ds, schemes)
    assert not prepare
    assert len(loo_rmse_multi(ds, ("nn",))["nn"].per_trace) == 4


def test_loo_multi_consistent_with_single():
    ds = small_corpus()
    params = KernelParams(1.5, 0.2)
    multi = loo_rmse_multi(ds, ("do_nothing", "gaussian_process"), params)
    single = loo_rmse(ds, "gaussian_process", params)
    assert multi["gaussian_process"].mean_next == pytest.approx(single.mean_next)
    assert multi["gaussian_process"].per_trace == single.per_trace


@pytest.mark.parametrize("mode", ["clip", "flip", "shift"])
def test_loo_multi_with_prepared_data_is_bitwise_the_same(mode):
    ds = small_corpus()
    params = KernelParams(1.5, 0.2)
    alone = loo_rmse_multi(ds, PREDICTION_SCHEMES, params, mode=mode)
    shared = loo_rmse_multi(ds, PREDICTION_SCHEMES, params, mode=mode, prepared=prepared_traces(ds))
    assert shared == alone


def _counted(monkeypatch, module, name) -> list:
    """Patch ``module.name`` to log each call; returns the log."""
    calls, original = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _numpy_cuts(monkeypatch) -> list:
    """Log the ``np.delete`` and ``np.ix_`` calls made inside ``evaluate``."""
    calls = []

    class Logged:
        def __getattr__(self, name):
            attr = getattr(np, name)
            if name not in ("delete", "ix_"):
                return attr
            return lambda *args, **kwargs: calls.append(name) or attr(*args, **kwargs)

    monkeypatch.setattr(evaluate, "np", Logged())
    return calls


def _decomposed(calls) -> int:
    """How many matrices a log of ``jacobi_eigh`` calls decomposed."""
    return sum(1 if np.ndim(a) == 2 else len(a) for a, *_ in calls)


@pytest.mark.parametrize("repeats", [1, 3])
def test_search_builds_each_fold_geometry_once(monkeypatch, repeats):
    eigh = _counted(monkeypatch, space, "jacobi_eigh")
    ds = small_corpus()
    prepared = prepared_traces(ds)
    hyper_search(ds, (0.5, 3.0), (0.01, 0.5), repeats=repeats, seed=2, prepared=prepared)
    # two corrected spaces per fold, shared by every sample
    assert _decomposed(eigh) == 2 * len(ds.successful_traces())
    # a later pass reads each fold's training matrix and held-out rows off
    # its record, and cuts neither out of the prepared matrix again
    cuts = _numpy_cuts(monkeypatch)
    loo_rmse_multi(ds, PREDICTION_SCHEMES, prepared=prepared)
    assert not cuts and _decomposed(eigh) == 2 * len(ds.successful_traces())


def test_eval_search_task_reuses_the_search_geometry(monkeypatch, tmp_path):
    ds = small_corpus()
    data = tmp_path / "data.json"
    data.write_text(json.dumps(dataset_to_dict(ds)))
    eigh = _counted(monkeypatch, space, "jacobi_eigh")
    argv = ["eval", "--dataset", str(data), "--task", "rmse", "--search", "--repeats", "3"]
    assert cli.main(argv) == 0
    assert _decomposed(eigh) == 2 * len(ds.successful_traces())


def test_folds_of_one_shape_build_as_one_stack_per_space(monkeypatch):
    # eight traces of four states: every fold trains on 28 states, 21 of
    # them regression inputs, so the eight folds are one group
    eigh = _counted(monkeypatch, space, "jacobi_eigh")
    extend = _counted(monkeypatch, space.CorrectedSpace, "extend")
    ds = shaped_corpus(1)
    prepared = prepared_traces(ds)
    params = hyper_search(ds, (0.5, 5.0), (0.01, 1.0), repeats=2, seed=1, prepared=prepared)
    cuts = _numpy_cuts(monkeypatch)
    loo_rmse_multi(ds, PREDICTION_SCHEMES, params, prepared=prepared)
    assert not cuts
    assert [np.shape(a) for a, in eigh] == [(8, 28, 28), (8, 21, 21)]
    # the held-out states of every fold: one projection per space
    assert [np.shape(q) for _, q in extend] == [(4, 8, 28), (4, 8, 21)]


TREE_CORPUS = {
    "kind": "tree",
    "traces": [
        {"id": "t1", "successful": True, "states": ["start", "start(ask)", "start(ask,loop(guess))"]},
        {"id": "t2", "successful": True, "states": ["start", "start(say)", "start(say,loop(guess))"]},
        {"id": "t3", "successful": True, "states": ["start(ask)", "start(ask,loop)", "start(ask,loop(guess,say))"]},
        {"id": "t4", "successful": True, "states": ["start(loop)", "start(loop(guess))", "start(ask,loop(guess))"]},
    ],
}
WEIGHTED = CostModel(indel_default=1.5, relabel_default=0.7, indel={"a": 0.3})


@pytest.mark.parametrize(
    "case, mode",
    [("unit", "clip"), ("unit", "flip"), ("weighted", "shift"), ("tree", "clip")],
)
def test_shared_fold_records_match_a_fresh_preparation_per_sample(monkeypatch, case, mode):
    ds, cost = {
        "unit": (small_corpus(), UNIT_COSTS),
        "weighted": (small_corpus(), WEIGHTED),
        "tree": (load_dataset(TREE_CORPUS), UNIT_COSTS),
    }[case]
    original = evaluate.loo_rmse_multi

    def checked(dataset, schemes, params, cost, mode, prepared=None):
        reports = original(dataset, schemes, params, cost, mode, prepared)
        if prepared is not None:  # a search sample, or a final pass
            assert reports == original(dataset, schemes, params, cost, mode)
            checked.samples += 1
        return reports

    checked.samples = 0
    monkeypatch.setattr(evaluate, "loo_rmse_multi", checked)
    prepared = prepared_traces(ds, cost)
    got = hyper_search(ds, (0.3, 6.0), (1e-3, 1.0), 4, 5, cost, mode, prepared)
    want = hyper_search_oracle(ds, (0.3, 6.0), (1e-3, 1.0), 4, 5, cost=cost, mode=mode)
    assert checked.samples == 4
    assert (got.length_scale.hex(), got.noise_std.hex()) == (
        want.length_scale.hex(),
        want.noise_std.hex(),
    )
    for params in (got, KernelParams(0.2, 0.0), KernelParams(4.0, 0.5)):
        checked(ds, PREDICTION_SCHEMES, params, cost, mode, prepared)


def test_a_stack_holds_at_most_the_entry_bound(monkeypatch):
    ds = shaped_corpus(1)
    alone = loo_rmse_multi(ds, PREDICTION_SCHEMES, KernelParams(1.5, 0.2))
    # room for three 28 x 28 training matrices: stacks of 3, 3 and 2 folds
    monkeypatch.setattr(evaluate, "_STACK_ENTRIES", 3 * 28 * 28)
    eigh = _counted(monkeypatch, space, "jacobi_eigh")
    bounded = loo_rmse_multi(ds, PREDICTION_SCHEMES, KernelParams(1.5, 0.2))
    assert [np.shape(a)[:2] for a, in eigh] == [(3, 28), (3, 21), (3, 28), (3, 21), (2, 28), (2, 21)]
    assert bounded == alone


def _oracle_case(case):
    return {
        "shaped": (shaped_corpus(3), UNIT_COSTS),
        # traces of 2, 4 and 5 states: folds in groups of several and of one
        "unequal": (synthetic_corpus(seed=0, n_traces=9, base_solution="abcdefg", min_missing=1, max_missing=4), UNIT_COSTS),
        "weighted": (small_corpus(), WEIGHTED),
        "tree": (load_dataset(TREE_CORPUS), UNIT_COSTS),
    }[case]


@pytest.mark.parametrize(
    "case, mode",
    [
        ("shaped", "clip"),
        ("shaped", "flip"),
        ("shaped", "shift"),
        ("unequal", "clip"),
        ("unequal", "flip"),
        ("unequal", "shift"),
        ("weighted", "shift"),
        ("tree", "clip"),
    ],
)
def test_loo_matches_the_fold_by_fold_oracle(monkeypatch, case, mode):
    ds, cost = _oracle_case(case)
    eigh = _counted(monkeypatch, space, "jacobi_eigh")
    prepared = prepared_traces(ds, cost)
    samples = (KernelParams(0.4, 0.0), KernelParams(2.0, 0.3), KernelParams(2.0, 0.3))
    got = [loo_rmse_multi(ds, PREDICTION_SCHEMES, p, cost, mode, prepared) for p in samples]
    monkeypatch.undo()
    # stacks of several folds, and where traces differ in length lone folds too
    assert {np.ndim(a) for a, in eigh} == ({3} if case in ("shaped", "tree") else {2, 3})
    for params, reports in zip(samples, got):
        want = loo_rmse_oracle(ds, PREDICTION_SCHEMES, params, cost, mode)
        for scheme in PREDICTION_SCHEMES:
            assert report_hex(reports[scheme]) == report_hex(want[scheme]), scheme


@pytest.mark.parametrize("seed", [1, 7])
def test_search_on_equal_folds_matches_the_oracle(seed):
    ds = shaped_corpus(seed)
    got = hyper_search(ds, (0.5, 5.0), (0.01, 1.0), repeats=3, seed=seed)
    want = hyper_search_oracle(ds, (0.5, 5.0), (0.01, 1.0), 3, seed)
    assert (got.length_scale.hex(), got.noise_std.hex()) == (
        want.length_scale.hex(),
        want.noise_std.hex(),
    )


def test_built_fold_geometries_hold_no_reference_cycle():
    # a group's members refer to each other until the build; after it,
    # dropping the prepared data frees every geometry without the cycle
    # collector, as it did before folds were grouped
    import gc
    import weakref

    ds = shaped_corpus(2)
    prepared = prepared_traces(ds)
    loo_rmse_multi(ds, ("nn",), prepared=prepared)
    folds = [weakref.ref(g) for g in prepared.folds["clip"]]
    gc.disable()
    try:
        del prepared
        assert all(fold() is None for fold in folds)
    finally:
        gc.enable()


def test_a_fold_that_needs_the_pseudo_inverse_falls_back_alone(monkeypatch):
    # t1 and t2 are twins, so at zero noise the kernel matrix of a fold that
    # trains on both is singular; the four folds share one shape and build
    # as one stack
    ds = load_dataset(
        {
            "kind": "sequence",
            "traces": [
                {"id": "t1", "successful": True, "states": [["a"], ["a", "b"]]},
                {"id": "t2", "successful": True, "states": [["a"], ["a", "b"]]},
                {"id": "t3", "successful": True, "states": [["c", "d"], ["c", "d", "e"]]},
                {"id": "t4", "successful": True, "states": [["e", "f"], ["e", "f", "a"]]},
            ],
        }
    )
    built, original = [], evaluate.GprModel

    def recorded(*args):
        built.append(original(*args))
        return built[-1]

    monkeypatch.setattr(evaluate, "GprModel", recorded)
    eigh = _counted(monkeypatch, space, "jacobi_eigh")
    params = KernelParams(0.5, 0.0)
    got = loo_rmse_multi(ds, PREDICTION_SCHEMES, params)
    monkeypatch.undo()
    assert [np.shape(a) for a, in eigh] == [(4, 6, 6), (4, 3, 3)]
    assert [m.used_pseudo_inverse for m in built] == [False, False, True, True]
    want = loo_rmse_oracle(ds, PREDICTION_SCHEMES, params)
    for scheme in PREDICTION_SCHEMES:
        assert report_hex(got[scheme]) == report_hex(want[scheme]), scheme


def test_a_stacked_eigensolver_failure_is_retried_one_matrix_at_a_time(monkeypatch):
    original = np.linalg.eigh
    shapes = []

    def stacks_fail(a):
        shapes.append(np.shape(a))
        if np.ndim(a) == 3:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return original(a)

    monkeypatch.setattr(np.linalg, "eigh", stacks_fail)
    ds, params = shaped_corpus(5), KernelParams(1.5, 0.2)
    got = loo_rmse_multi(ds, PREDICTION_SCHEMES, params)
    monkeypatch.undo()
    # the stack fails at its first decomposition; then each fold alone
    assert shapes == [(8, 28, 28)] + [(28, 28), (21, 21)] * 8
    want = loo_rmse_oracle(ds, PREDICTION_SCHEMES, params)
    for scheme in PREDICTION_SCHEMES:
        assert report_hex(got[scheme]) == report_hex(want[scheme]), scheme
        assert not got[scheme].folds_skipped


def test_a_lone_eigensolver_failure_skips_its_fold_with_its_reason(monkeypatch):
    # the first 2-D decomposition, that of a fold built alone, fails: that
    # fold is skipped with its reason, and every other fold reports
    original, calls = np.linalg.eigh, []

    def first_alone_fails(a):
        calls.append(np.shape(a))
        if np.ndim(a) == 2 and sum(len(c) == 2 for c in calls) == 1:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return original(a)

    ds = small_corpus()
    folds = len(ds.successful_traces())
    monkeypatch.setattr(np.linalg, "eigh", first_alone_fails)
    report = loo_rmse_multi(ds, ["nn", "do_nothing"])
    assert any(len(c) == 2 for c in calls)
    for scheme in ("nn", "do_nothing"):
        (held, reason), = report[scheme].folds_skipped
        assert reason.startswith("eigendecomposition failed")
        assert len(report[scheme].per_trace) == folds - 1
        assert held not in [row[0] for row in report[scheme].per_trace]


# the fittable fold's held-out distances overflow too when squared, so its
# predictions are not finite; only the skipped folds are checked
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_unfittable_fold_is_attempted_once_and_skipped_alike_in_every_pass(monkeypatch):
    # a "z" costs so much to insert, delete or relabel that squared
    # distances between states with and without one overflow: the folds
    # that hold out t2 and t3 cannot build their geometry, and the fold that
    # holds out t1 builds it but cannot embed t1's states
    cost = CostModel(relabel_default=1e200, indel={"z": 1e200})
    ds = load_dataset(
        {
            "kind": "sequence",
            "traces": [
                {"id": "t1", "successful": True, "states": [["z"], ["z", "a"], ["z", "a", "b"]]},
                {"id": "t2", "successful": True, "states": [["a"], ["a", "b"]]},
                {"id": "t3", "successful": True, "states": [["b"], ["a", "b"], ["a", "b", "c"]]},
            ],
        }
    )
    spaces = _counted(monkeypatch, space, "validate_sqdist")
    squares = _counted(monkeypatch, policies, "squared")
    eigh = _counted(monkeypatch, space, "jacobi_eigh")
    prepared = prepared_traces(ds, cost)
    reason = "every fold was unfittable; the first, trace 't1': squared distances must be finite"
    with pytest.raises(FitError) as search:
        hyper_search(ds, (0.5, 3.0), (0.01, 0.5), 3, 1, cost, prepared=prepared)
    assert str(search.value) == reason
    for psi in (0.5, 3.0):
        with pytest.raises(FitError) as final:
            loo_rmse_multi(ds, PREDICTION_SCHEMES, KernelParams(psi, 0.1), cost, "clip", prepared)
        assert str(final.value) == reason
    # the fold of t1 builds its two spaces once; the other folds' squares
    # overflow before a space is built, once, and later passes repeat their
    # reason without a build
    assert len(spaces) == 2
    # the folds of t1 and t3 share shape (5, 3): their stack overflows at
    # its first square, then each is built alone and fails on its own, t1's
    # at the square of its held-out rows (3, 5) and t3's at its first;
    # the fold of t2 trains on 6 states and is built alone from the start
    shapes = [(2, 5, 5), (5, 5), (3, 3), (3, 5), (5, 5), (6, 6)]
    assert [np.shape(a) for a, in squares] == shapes
    assert [np.shape(a) for a, in eigh] == [(5, 5), (3, 3)]
    for fold in prepared.folds["clip"]:
        with pytest.raises(ValueError, match="squared distances must be finite"):
            fold.spaces()


def test_loo_requires_two_traces():
    ds = load_dataset(
        {
            "kind": "sequence",
            "traces": [{"id": "t", "successful": True, "states": [["a"]]}],
        }
    )
    with pytest.raises(FitError):
        loo_rmse(ds, "do_nothing")
    with pytest.raises(ValueError):
        loo_rmse(small_corpus(), "not_a_scheme")


@pytest.mark.parametrize("search", [False, True])
def test_unfittable_folds_report_the_first_fold_and_its_reason(search):
    # every edit costs so much that the square of any distance between two
    # states overflows: no fold can build its geometry
    ds, cost = small_corpus(), CostModel(indel_default=1e200, relabel_default=1e200)
    if search:
        call = lambda: hyper_search(ds, (1.0, 1.0), (0.1, 0.1), repeats=1, cost=cost)
    else:
        call = lambda: loo_rmse_multi(ds, ("nn", "do_nothing"), cost=cost)
    with pytest.raises(FitError) as exc:
        call()
    reason = "squared distances must be finite"
    assert str(exc.value) == f"every fold was unfittable; the first, trace 'trace00': {reason}"


@pytest.mark.parametrize("search", [False, True])
def test_unknown_mode_is_rejected_before_the_data_is_prepared(monkeypatch, search):
    ds = small_corpus()
    with pytest.raises(ValueError) as fitted:
        fit_model(ds, mode="bogus")
    monkeypatch.setattr(evaluate, "prepared_traces", lambda *args: pytest.fail("data prepared"))
    if search:
        call = lambda: hyper_search(ds, (1.0, 1.0), (0.1, 0.1), repeats=1, mode="bogus")
    else:
        call = lambda: loo_rmse_multi(ds, ["do_nothing"], mode="bogus")
    with pytest.raises(ValueError) as exc:
        call()
    assert type(exc.value) is ValueError
    assert str(exc.value) == str(fitted.value)
    assert str(exc.value) == "correction mode must be one of ('clip', 'flip', 'shift'), got 'bogus'"


def test_report_serialization_round_trip():
    report = loo_rmse(small_corpus(), "do_nothing")
    out = report.to_dict()
    assert out["kind"] == "rmse"
    assert len(out["per_trace"]) == len(report.per_trace)
    rows = list(report.csv_rows())
    assert rows[0] == ("trace", "rmse_next", "rmse_final", "states")
    assert len(rows) == len(report.per_trace) + 1


QUALITY_DATA = {
    "kind": "sequence",
    "traces": [
        {"id": "s1", "successful": True, "states": [["a"], ["a", "a", "c"]]},
        {"id": "s2", "successful": True, "states": [["b"], ["b", "b", "c"]]},
        {
            "id": "err",
            "successful": False,
            "states": [["a", "b"], ["a", "b", "b"], ["z"]],
        },
    ],
    "tutor_hints": [
        {"trace": "err", "step": 1, "edit": {"kind": "insert", "position": 3, "label": "c"}, "quality": 0.9},
        {"trace": "err", "step": 1, "edit": {"kind": "relabel", "position": 2, "label": "a"}, "quality": 0.5},
        {"trace": "err", "step": 2, "edit": {"kind": "delete", "position": 3}, "quality": 0.7},
        {"trace": "err", "step": 3, "edit": {"kind": "relabel", "position": 1, "label": "a"}, "quality": 0.6},
    ],
}


def test_hint_quality_perfect_policy():
    ds = load_dataset(QUALITY_DATA)
    by_state = {}
    for hint in ds.tutor_hints:
        by_state.setdefault((hint.trace_id, hint.step), hint)

    lookup = {}
    for hint in ds.tutor_hints:
        lookup.setdefault(tuple(hint.state), hint.edit)

    def oracle_policy(model, state):
        edit = lookup[tuple(state)]
        return HintResult(edit, 0.0, ((edit, 0.0),))

    report = hint_quality(fit_model(ds), ds.tutor_hints, oracle_policy)
    assert report.hintable_fraction == 1.0
    assert report.rmse_to_tutor == pytest.approx(0.0)
    assert report.fraction_positive == 1.0
    # first listed tutor edit per state: qualities 0.9, 0.7, 0.6
    assert report.mean_quality == pytest.approx((0.9 + 0.7 + 0.6) / 3)
    assert report.median_quality == pytest.approx(0.7)


def test_hint_quality_silent_policy():
    ds = load_dataset(QUALITY_DATA)

    def silent(model, state):
        return HintResult(None, None, (), reason="kernel-decay")

    report = hint_quality(fit_model(ds), ds.tutor_hints, silent)
    assert report.hintable_fraction == 0.0
    assert report.mean_quality == 0.0
    assert report.fraction_positive == 0.0
    assert report.rmse_to_tutor is None


def test_hint_quality_partial_match_mean():
    ds = load_dataset(QUALITY_DATA)
    answers = {
        1: SeqEdit("insert", 3, "c"),  # matches, 0.9
        2: SeqEdit("delete", 3),  # matches, 0.7
        3: SeqEdit("insert", 1, "q"),  # no match, 0
    }

    def policy(model, state):
        for hint in ds.tutor_hints:
            if hint.state == state:
                edit = answers[hint.step]
                return HintResult(edit, 0.0, ((edit, 0.0),))
        raise AssertionError("unexpected state")

    report = hint_quality(fit_model(ds), ds.tutor_hints, policy)
    assert report.mean_quality == pytest.approx((0.9 + 0.7 + 0.0) / 3)
    assert report.fraction_positive == pytest.approx(2 / 3)
    assert report.hintable_fraction == 1.0
    # the unmatched hint still has a distance to the nearest tutor state
    assert report.rmse_to_tutor is not None and report.rmse_to_tutor > 0


def test_hint_quality_needs_hints():
    ds = load_dataset({"kind": "sequence", "traces": QUALITY_DATA["traces"]})
    with pytest.raises(ValueError):
        hint_quality(fit_model(ds), ds.tutor_hints, lambda model, state: HintResult(None, None, ()))


def test_hyper_search_collapsed_ranges():
    ds = small_corpus()
    params = hyper_search(ds, (2.5, 2.5), (0.4, 0.4), repeats=3, seed=0)
    assert params == KernelParams(2.5, 0.4)


def test_hyper_search_deterministic_and_beats_degenerate_endpoint():
    ds = small_corpus()
    a = hyper_search(ds, (1e-3, 4.0), (1e-3, 1.0), repeats=5, seed=9)
    b = hyper_search(ds, (1e-3, 4.0), (1e-3, 1.0), repeats=5, seed=9)
    assert a == b
    chosen = loo_rmse(ds, "gaussian_process", a).mean_next
    degenerate = loo_rmse(
        ds, "gaussian_process", KernelParams(1e-3, 1e-3)
    ).mean_next
    assert chosen <= degenerate


@pytest.mark.parametrize("mode, seed", [("clip", 3), ("flip", 11), ("shift", 4)])
def test_hyper_search_matches_per_sample_oracle(mode, seed):
    ds = small_corpus()
    got = hyper_search(ds, (0.3, 6.0), (1e-3, 1.0), repeats=5, seed=seed, mode=mode)
    assert got == hyper_search_oracle(ds, (0.3, 6.0), (1e-3, 1.0), 5, seed, mode=mode)


def test_distance_matrix_built_once_per_call(monkeypatch, tmp_path):
    from edithints import cli, editdist, evaluate, policies

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return editdist.pairwise_distances(*args, **kwargs)

    for module in (cli, evaluate, policies):
        if hasattr(module, "pairwise_distances"):
            monkeypatch.setattr(module, "pairwise_distances", counted)
    ds = load_dataset(QUALITY_DATA)
    data, out = tmp_path / "data.json", tmp_path / "model.json"
    data.write_text(json.dumps(QUALITY_DATA))
    runs = {
        "hyper_search": lambda: hyper_search(ds, (0.5, 3.0), (0.01, 0.5), repeats=4, seed=1),
        "loo_rmse_multi": lambda: loo_rmse_multi(ds, PREDICTION_SCHEMES),
        "fit_model": lambda: fit_model(ds),
        "hint_quality": lambda: hint_quality(
            fit_model(ds), ds.tutor_hints, lambda model, state: HintResult(None, None, ())
        ),
    }
    for name, call in runs.items():
        calls.clear()
        call()
        assert len(calls) == 1, name
    # the search and the final fit or the evaluation share one prepared matrix
    search = ["--dataset", str(data), "--search", "--repeats", "2"]
    commands = {
        "fit --search": ["fit", *search, "--out", str(out)],
        "eval --search --task rmse": ["eval", *search, "--task", "rmse"],
        "eval --search --task quality": ["eval", *search, "--task", "quality"],
        "dist": ["dist", "--dataset", str(data)],
        "mds": ["mds", "--dataset", str(data)],
    }
    for name, argv in commands.items():
        calls.clear()
        assert cli.main(argv) == 0, name
        assert len(calls) == 1, name
    assert out.exists()


def test_hyper_search_rejects_bad_ranges():
    with pytest.raises(ValueError):
        hyper_search(small_corpus(), (-1.0, 2.0), (0.1, 0.2), repeats=1, seed=0)


def test_synthetic_corpus_is_goal_directed_and_seeded():
    a = synthetic_corpus(seed=77, n_traces=5)
    b = synthetic_corpus(seed=77, n_traces=5)
    assert a == b
    for trace in a.traces:
        goal = trace.states[-1]
        from edithints.editdist import distance

        ds = [distance(s, goal) for s in trace.states]
        assert all(x > y for x, y in zip(ds, ds[1:]))
        assert trace.successful


@pytest.mark.parametrize(
    "scheme, weights", [("gaussian_process", "gpr"), ("nwr", "nwr"), ("nn", "nn")]
)
def test_predict_coords_matches_pair_loop(scheme, weights):
    model = fit_model(small_corpus(), params=KernelParams(2.0, 0.3))
    for trace in synthetic_corpus(seed=6, n_traces=3, base_solution="abcdef").traces:
        for state in trace.states:
            raw = model.query_raw_distances(state, model.hint_memo())
            coords = model.embed_query(raw).coords
            got = _predict_coords(model, scheme, raw, coords)
            want = coords + predict_move_loop(model, model.weights(raw, weights))
            peak = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= 1e-12 * peak

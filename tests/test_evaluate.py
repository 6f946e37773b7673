import json
import math

import numpy as np
import pytest

from edithints.editdist import SeqEdit, UNIT_COSTS
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
from edithints.traces import load_dataset

from oracle_utils import hyper_search_oracle, predict_move_loop


def small_corpus():
    return synthetic_corpus(seed=5, n_traces=6, base_solution="abcdef", min_missing=2, max_missing=4)


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
    from edithints.policies import GprModel
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
            build_pairs(train),
            UNIT_COSTS,
            None,
            KernelParams(),
            "clip",
            dist_raw=matrix[np.ix_(train_ids, train_ids)],
        )
        coords = [model.embed_query(matrix[g][train_ids]).coords for g in spans[held]]
        want = math.sqrt(
            np.mean([np.sum((c - coords[-1]) ** 2) for c in coords])
        )
        got = {row[0]: row[2] for row in report.per_trace}[trace.id]
        assert got == pytest.approx(want, abs=1e-9)


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
    ds = small_corpus()
    if search:
        call = lambda: hyper_search(ds, (1.0, 1.0), (0.1, 0.1), repeats=1, mode="bogus")
    else:
        call = lambda: loo_rmse_multi(ds, ("nn", "do_nothing"), mode="bogus")
    # every fold fails in the model fit, which names the mode it rejects
    with pytest.raises(FitError, match=r"every fold was unfittable.*'trace00'.*'bogus'"):
        call()


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
            raw = model.query_raw_distances(state)
            coords = model.embed_query(raw).coords
            got = _predict_coords(model, scheme, raw, coords)
            want = coords + predict_move_loop(model, model.weights(raw, weights))
            peak = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= 1e-12 * peak

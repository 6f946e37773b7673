"""Acceptance suite.

One test per acceptance criterion, each printing a single
``ACCEPTANCE <n> PASS/FAIL`` line (run with ``pytest -s`` to see them) and
enforcing the criterion's stated tolerance and runtime bound.
"""

import json
import math
import random
import time

import numpy as np

from edithints.cli import main as cli_main
from edithints.editdist import (
    UNIT_COSTS,
    SeqEdit,
    distance,
    distance_and_script,
    seq_distance,
    tree_distance_only,
)
from edithints.evaluate import loo_rmse_multi, synthetic_corpus
from edithints.policies import (
    KernelParams,
    alpha_from_gamma,
    candidate_edits,
    chf_hint,
    fit_model,
    preimage_objective,
    preimage_select,
    rbf,
    sparsify,
)
from edithints.space import CorrectedSpace, center
from edithints.states import sequence
from edithints.traces import load_dataset

from oracle_utils import (
    all_strings,
    all_trees,
    apply_script,
    bfs_string_distances,
    char_poly_exact,
    combination_coefficients,
    combo_sqdist,
    dataset_to_dict,
    mapping_tree_distance,
    planted_sqdist,
    poly_roots,
    random_sequence,
    random_tree,
)

GAMMA_STAR = 1.0 / (1.0 + math.sqrt(math.e))

FIG2 = {
    "kind": "sequence",
    "traces": [
        {"id": "t1", "successful": True, "states": [["a"], ["a", "a", "c"]]},
        {"id": "t2", "successful": True, "states": [["b"], ["b", "b", "c"]]},
    ],
}

FIG7 = {
    "kind": "sequence",
    "traces": FIG2["traces"]
    + [{"id": "t3", "successful": True, "states": [["a", "b"], ["a", "b", "c", "d"]]}],
}


def _timed(number, name, limit_seconds, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL ({name})")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= limit_seconds:
        print(f"ACCEPTANCE {number} FAIL ({name}): took {elapsed:.2f}s >= {limit_seconds}s")
        raise AssertionError(f"criterion {number} exceeded its runtime bound")
    print(f"ACCEPTANCE {number} PASS ({name}) [{elapsed:.2f}s]")


def test_criterion_1_worked_example_reproduction():
    def body():
        model = fit_model(load_dataset(FIG2), params=KernelParams(1.0, 0.0))
        raw = model.query_raw_distances(sequence("ab"), model.hint_memo())
        kernel_vector = rbf(model.kernel_query_sqdist(raw), 1.0)
        e = 1.0 / math.sqrt(math.e)
        assert np.allclose(kernel_vector, [e, e], atol=1e-9)
        assert np.allclose(model.kernel_matrix, [[1.0, e], [e, 1.0]], atol=1e-9)
        gamma = model.weights(raw, "gpr")
        assert abs(gamma[0] - 0.3775) < 1e-3
        assert abs(gamma[2] - 0.3775) < 1e-3
        assert gamma[1] == 0.0 and gamma[3] == 0.0
        result = chf_hint(model, sequence("ab"))
        assert result.edit == SeqEdit("insert", 3, "c")

    _timed(1, "worked-example reproduction", 1.0, body)


def test_criterion_2_sparsification_reproduction():
    def body():
        model = fit_model(load_dataset(FIG7), params=KernelParams(1.0, 0.0))
        index = {tuple(s): i for i, s in enumerate(model.pairs.states)}
        alpha = np.zeros(6)
        alpha[index[("a",)]] = -GAMMA_STAR
        alpha[index[("a", "a", "c")]] = GAMMA_STAR
        alpha[index[("b",)]] = -GAMMA_STAR
        alpha[index[("b", "b", "c")]] = GAMMA_STAR
        raw = model.query_raw_distances(sequence("ab"), model.hint_memo())
        query = model.embed_query(raw)
        star = index[("a", "b", "c", "d")]
        limit = raw[star] + 1e-9
        allowed = [
            i
            for i in range(6)
            if raw[i] <= limit and model.dist_raw[i, star] <= limit
        ]
        tilde = sparsify(model, alpha, query, allowed, m_max=3)
        assert abs(tilde[index[("a", "a", "c")]] - 0.3043) < 0.01
        assert abs(tilde[index[("b", "b", "c")]] - 0.3043) < 0.01
        assert abs(tilde[index[("a", "b", "c", "d")]] - 0.3914) < 0.01
        positives = [model.pairs.states[i] for i in np.flatnonzero(tilde > 1e-12)]
        memo = model.hint_memo()
        cands = candidate_edits(sequence("ab"), positives, model.cost, memo)
        result = preimage_select(sequence("ab"), tilde, cands, model, memo)
        assert result.edit == SeqEdit("insert", 3, "c")

    _timed(2, "sparsification reproduction", 1.0, body)


def test_criterion_3_edit_distance_oracle_equivalence():
    def body():
        alphabet = "abc"
        strings = all_strings(alphabet, 4)
        for x in strings:
            oracle = bfs_string_distances(x, strings, alphabet)
            for y in strings:
                assert seq_distance(sequence(x), sequence(y))[0] == oracle[y]
        trees = all_trees(4, "fg")
        assert len(trees) == 102
        for i, x in enumerate(trees):
            for y in trees[i:]:
                got = tree_distance_only(x, y)
                assert got == mapping_tree_distance(x, y, UNIT_COSTS)

    _timed(3, "edit-distance oracle equivalence", 60.0, body)


def test_criterion_4_metric_and_script_properties():
    def body():
        rng = random.Random(20240817)
        for count, gen in ((500, random_sequence), (500, random_tree)):
            states = [gen(rng) for _ in range(60)]
            for _ in range(count):
                x, y = rng.choice(states), rng.choice(states)
                d, script = distance_and_script(x, y)
                assert distance(x, x) == 0
                assert d == distance(y, x)
                assert apply_script(script, x) == y
                assert script.total_cost == d
                z = rng.choice(states)
                assert distance(x, z) <= distance(x, y) + distance(y, z)

    _timed(4, "metric and script properties", 120.0, body)


def test_criterion_5_embedding_fidelity():
    def body():
        rng = np.random.default_rng(2718)
        for m, dim in ((6, 2), (10, 3), (15, 4)):
            d2 = planted_sqdist(rng.normal(size=(m, dim)))
            space = CorrectedSpace(d2, "clip")
            assert np.max(np.abs(space.corrected_sqdist() - d2)) < 1e-8
        star = np.array(
            [[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]], dtype=float
        )
        space = CorrectedSpace(star**2, "clip")
        roots = poly_roots(char_poly_exact(center(star**2)))
        assert np.max(np.abs(space.eigenvalues - roots)) < 1e-6
        w, u = np.linalg.eigh(center(star**2))
        gram = u @ np.diag(np.clip(w, 0, None)) @ u.T
        expected = np.diag(gram)[:, None] + np.diag(gram)[None, :] - 2 * gram
        assert np.max(np.abs(space.corrected_sqdist() - expected)) < 1e-6
        assert np.max(np.abs(space.corrected_sqdist() - star**2)) > 1e-3

    _timed(5, "embedding fidelity", 30.0, body)


def test_criterion_6_gpr_contracts():
    def body():
        model = fit_model(load_dataset(FIG2), params=KernelParams(1.0, 0.0))
        raw = model.query_raw_distances(sequence("a"), model.hint_memo())
        gamma = model.weights(raw, "gpr")
        basis = np.zeros(4)
        basis[0] = 1.0
        assert np.max(np.abs(gamma - basis)) < 1e-8
        far = sequence("z" * 15)  # beyond 10 length scales from everything
        assert min(model.query_raw_distances(far, model.hint_memo())) > 10.0
        result = chf_hint(model, far)
        assert result.edit is None and result.reason == "kernel-decay"
        rng = np.random.default_rng(31)
        q = model.embed_query(model.query_raw_distances(sequence("ab"), model.hint_memo()))
        for _ in range(100):
            g = rng.normal(size=4)
            alpha = alpha_from_gamma(g, model.pairs)
            direct = combination_coefficients(g, model.pairs)
            err = combo_sqdist(
                model.space, np.append(alpha, 1.0), np.append(direct, 1.0), query=q
            )
            assert abs(err) <= 1e-8

    _timed(6, "gpr contracts", 30.0, body)


def test_criterion_7_preimage_scoring_consistency():
    def body():
        rng = np.random.default_rng(404)
        for _ in range(20):
            states = rng.normal(size=(7, 3))
            x = rng.normal(size=3)
            alpha = rng.normal(size=7)
            alpha -= alpha.mean()  # proper coefficient vectors sum to zero
            target = x + states.T @ alpha
            candidates = rng.normal(size=(6, 3))
            scores = [
                preimage_objective(
                    float(((c - x) ** 2).sum()),
                    ((states - c) ** 2).sum(axis=1),
                    alpha,
                )
                for c in candidates
            ]
            direct = [float(((c - target) ** 2).sum()) for c in candidates]
            for i in range(len(candidates)):
                for j in range(len(candidates)):
                    assert abs((scores[i] - scores[j]) - (direct[i] - direct[j])) < 1e-8

    _timed(7, "pre-image scoring consistency", 30.0, body)


def test_criterion_8_evaluation_harness_direction():
    def body():
        corpus = synthetic_corpus(seed=1234, n_traces=20)
        reports = loo_rmse_multi(
            corpus,
            ("do_nothing", "successor_of_closest", "gaussian_process"),
            KernelParams(3.0, 0.3),
        )
        gp = reports["gaussian_process"].mean_next
        assert gp < reports["do_nothing"].mean_next
        assert gp < reports["successor_of_closest"].mean_next

    _timed(8, "evaluation-harness direction", 300.0, body)


def test_criterion_9_cli_determinism(tmp_path, capsys):
    def body():
        fig2 = tmp_path / "fig2.json"
        fig2.write_text(json.dumps(FIG2))
        corpus = tmp_path / "corpus.json"
        corpus.write_text(
            json.dumps(
                dataset_to_dict(
                    synthetic_corpus(5, 4, "abcde", min_missing=1, max_missing=3)
                )
            )
        )
        quality = tmp_path / "quality.json"
        quality.write_text(
            json.dumps(
                {
                    **FIG2,
                    "traces": FIG2["traces"]
                    + [{"id": "err", "successful": False, "states": [["a", "b"]]}],
                    "tutor_hints": [
                        {
                            "trace": "err",
                            "step": 1,
                            "edit": {"kind": "insert", "position": 3, "label": "c"},
                            "quality": 1.0,
                        }
                    ],
                }
            )
        )

        def fit_args(out):
            return ["fit", "--dataset", str(fig2), "--psi", "1.0", "--noise", "0.0", "--out", out]

        model = tmp_path / "model.json"
        assert cli_main(fit_args(str(model))) == 0

        def capture(args, out_name):
            path = tmp_path / out_name
            assert cli_main(args + ["--out", str(path)]) == 0
            return path.read_bytes()

        runs = {}
        for attempt in ("first", "second"):
            blobs = []
            blobs.append(capture(["dist", "--dataset", str(fig2)], f"dist_{attempt}.csv"))
            blobs.append(capture(["mds", "--dataset", str(fig2)], f"mds_{attempt}.csv"))
            for policy, seed_args in (("chf", []), ("random", ["--seed", "11"])):
                capsys.readouterr()  # drain earlier stdout (eval summaries)
                assert (
                    cli_main(
                        ["hint", "--model", str(model), "--state", '["a","b"]', "--policy", policy]
                        + seed_args
                    )
                    == 0
                )
                blobs.append(capsys.readouterr().out.encode())
            fit_out = tmp_path / f"fit_{attempt}.json"
            assert cli_main(fit_args(str(fit_out))) == 0
            blobs.append(fit_out.read_bytes())
            search_out = tmp_path / f"search_{attempt}.json"
            assert (
                cli_main(
                    [
                        "fit",
                        "--dataset",
                        str(corpus),
                        "--search",
                        "--psi-range",
                        "0.5",
                        "3.0",
                        "--noise-range",
                        "0.01",
                        "0.5",
                        "--repeats",
                        "3",
                        "--seed",
                        "7",
                        "--out",
                        str(search_out),
                    ]
                )
                == 0
            )
            blobs.append(search_out.read_bytes())
            prefix = tmp_path / f"rmse_{attempt}"
            assert (
                cli_main(
                    [
                        "eval",
                        "--dataset",
                        str(corpus),
                        "--task",
                        "rmse",
                        "--scheme",
                        "gaussian_process",
                        "--psi",
                        "1.5",
                        "--noise",
                        "0.2",
                        "--out-prefix",
                        str(prefix),
                    ]
                )
                == 0
            )
            blobs.append((tmp_path / f"rmse_{attempt}.json").read_bytes())
            blobs.append((tmp_path / f"rmse_{attempt}.csv").read_bytes())
            qprefix = tmp_path / f"q_{attempt}"
            assert (
                cli_main(
                    [
                        "eval",
                        "--dataset",
                        str(quality),
                        "--task",
                        "quality",
                        "--policy",
                        "random",
                        "--seed",
                        "13",
                        "--psi",
                        "1.0",
                        "--noise",
                        "0.0",
                        "--out-prefix",
                        str(qprefix),
                    ]
                )
                == 0
            )
            blobs.append((tmp_path / f"q_{attempt}.json").read_bytes())
            runs[attempt] = blobs
        assert runs["first"] == runs["second"]

    _timed(9, "cli determinism", 120.0, body)

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from edithints.cli import load_model, main, model_to_dict
from edithints.evaluate import synthetic_corpus
from edithints.policies import KernelParams, fit_model
from edithints.states import sequence
from edithints.traces import DataError, load_dataset

from oracle_utils import dataset_to_dict

FIG2 = {
    "kind": "sequence",
    "traces": [
        {"id": "t1", "successful": True, "states": [["a"], ["a", "a", "c"]]},
        {"id": "t2", "successful": True, "states": [["b"], ["b", "b", "c"]]},
    ],
}


@pytest.fixture()
def fig2_path(tmp_path):
    path = tmp_path / "fig2.json"
    path.write_text(json.dumps(FIG2))
    return str(path)


def run(args):
    return main(list(args))


def test_dist_two_state_dataset(tmp_path, capsys):
    data = tmp_path / "two.json"
    data.write_text(
        json.dumps(
            {
                "kind": "sequence",
                "traces": [
                    {"id": "t1", "successful": True, "states": [["a", "b"], ["a", "b", "c"]]}
                ],
            }
        )
    )
    assert run(["dist", "--dataset", str(data)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "id,t1:1,t1:2"
    rows = [line.split(",") for line in out[1:]]
    matrix = np.array([[float(v) for v in row[1:]] for row in rows])
    assert np.allclose(matrix, [[0.0, 1.0], [1.0, 0.0]])


def test_dist_single_state(tmp_path, capsys):
    data = tmp_path / "one.json"
    data.write_text(
        json.dumps(
            {
                "kind": "sequence",
                "traces": [{"id": "t", "successful": True, "states": [["a"]]}],
            }
        )
    )
    assert run(["dist", "--dataset", str(data)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["id,t:1", "t:1,0.0"]


def test_dist_symmetric(tmp_path, capsys):
    from edithints.evaluate import synthetic_corpus

    data = tmp_path / "corpus.json"
    data.write_text(json.dumps(dataset_to_dict(synthetic_corpus(3, 4, "abcde", min_missing=1, max_missing=3))))
    assert run(["dist", "--dataset", str(data)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    matrix = np.array([[float(v) for v in line.split(",")[1:]] for line in out[1:]])
    assert np.allclose(matrix, matrix.T)


def test_fit_stores_worked_kernel_matrix(fig2_path, tmp_path):
    model_path = tmp_path / "model.json"
    assert run(
        ["fit", "--dataset", fig2_path, "--psi", "1.0", "--noise", "0.0", "--out", str(model_path)]
    ) == 0
    raw = json.loads(model_path.read_text())
    # the file holds inputs only; the kernel is rebuilt from them on load
    assert set(raw) == {
        "format", "kind", "mode", "params", "cost", "canon", "trace_ids",
        "trace_lengths", "states", "dist_raw", "provenance", "search", "checksum",
    }
    assert raw["format"] == "edithints-model-v2"
    assert np.array(raw["dist_raw"]).shape == (4, 4)
    assert raw["provenance"]["dataset_sha256"]
    e = math.exp(-0.5)
    kernel = load_model(str(model_path)).kernel_matrix
    assert np.allclose(kernel, [[1.0, e], [e, 1.0]], atol=1e-12)


def _canonical(raw) -> str:
    return json.dumps(raw, sort_keys=True, separators=(",", ":"))


def test_fit_is_byte_identical(fig2_path, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["fit", "--dataset", fig2_path, "--psi", "1.0", "--noise", "0.0"]
    for path in (a, b):
        assert run([*argv, "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # the file is the canonical JSON that the checksum hashes, on one line
    assert a.read_text() == _canonical(json.loads(a.read_text())) + "\n"
    capsys.readouterr()
    assert run(argv) == 0
    assert capsys.readouterr().out == a.read_text()


PIN_TREE = {
    "kind": "tree",
    "traces": [
        {"id": "t2", "successful": True, "states": ["s", "s(ask)", "s(ask,loop(var:x))"]},
        {"id": "t1", "successful": True, "states": ["s(say)", "s(say,say)", "s(say,loop(var:y))"]},
        {"id": "t3", "successful": False, "states": ["s", "loop"]},
        {"id": "t4", "successful": True, "states": ["s(loop(var:z))"]},
    ],
}

# each model's dataset and fit flags, the SHA-256 of the file's bytes, that
# of its content (the canonical JSON of the parsed file) and that of the
# doubles its distances load as (recorded when every distance was written
# as a JSON float, before integral ones became JSON integers)
MODEL_PINS = pytest.mark.parametrize(
    "dataset, flags, digest, content_digest, values_digest",
    [
        (
            FIG2,
            [],
            "e7d9a53f3631b45db7f858b16535363c7d2404841a5a6617370b59be063d5153",
            "fdbb2e6f791de1ebe6688a0e506a9ea6a54708d92dbc90d0955a67c39314a891",
            "b618e30a4f723f1b27673d43c825571b4f64e7538d38d00e17fa91e194f07ab9",
        ),
        (
            PIN_TREE,
            [
                "--canon", '{"variable_label_prefixes": ["var:"]}',
                "--cost", '{"indel_default": 1.5, "relabel": {"ask|say": 0.5}}',
                "--psi", "2.0", "--noise", "0.1", "--mode", "flip",
            ],
            "2dea2635e1a63ce5a58705e27d67694d60a6450b3d48046079b42f38679e2e1c",
            "3c01ac2454e194bab20390c2f9c16f229cfdd0662129f88b61edc90cbd3d1d89",
            "06de57def9f01fd0b7d77c0154ac876a75c10f9d076c7cbf90a935e4c716c096",
        ),
        (
            dataset_to_dict(synthetic_corpus(5, 4, "abcde", min_missing=1, max_missing=3)),
            ["--search", "--repeats", "3", "--seed", "7"],
            "e6a774383fd85c83487d93931969bc10aa3dde4860eab1e191446af1a5aa17c9",
            "138bbe519ef325e1272ad5ece3e2235b5bf1808b60c98df1764016a0c12fe5b5",
            "4328d617c5d4b733201406fa61dae3ef50b3756a5c7bedffc16dcaea156f13b1",
        ),
    ],
    ids=["fig2", "tree", "search"],
)


def _fit_bytes(tmp_path, dataset, flags) -> bytes:
    data, out = tmp_path / "data.json", tmp_path / "model.json"
    data.write_text(json.dumps(dataset))
    assert run(["fit", "--dataset", str(data), *flags, "--out", str(out)]) == 0
    return out.read_bytes()


@MODEL_PINS
def test_model_bytes_match_recorded_digest(
    tmp_path, dataset, flags, digest, content_digest, values_digest
):
    # a refactor must leave model files byte for byte as they were
    assert hashlib.sha256(_fit_bytes(tmp_path, dataset, flags)).hexdigest() == digest


@MODEL_PINS
def test_model_content_matches_recorded_digest(
    tmp_path, dataset, flags, digest, content_digest, values_digest
):
    # recorded from files in an earlier, indented layout: the content holds
    # whatever the layout of the file
    raw = json.loads(_fit_bytes(tmp_path, dataset, flags))
    assert hashlib.sha256(_canonical(raw).encode("utf-8")).hexdigest() == content_digest


@MODEL_PINS
def test_model_distances_load_as_recorded_doubles(
    tmp_path, dataset, flags, digest, content_digest, values_digest
):
    # however a distance is spelled, it loads as the double it was
    raw = json.loads(_fit_bytes(tmp_path, dataset, flags))
    values = np.array(raw["dist_raw"], dtype=float).tobytes()
    assert hashlib.sha256(values).hexdigest() == values_digest


def test_indented_model_loads_and_hints_alike(fig2_path, tmp_path, capsys):
    compact = tmp_path / "compact.json"
    assert run(["fit", "--dataset", fig2_path, "--out", str(compact)]) == 0
    raw = json.loads(compact.read_text())
    # the layout that earlier versions wrote: sorted keys, indent=1
    indented = json.dumps(raw, sort_keys=True, indent=1) + "\n"
    assert hashlib.sha256(indented.encode("utf-8")).hexdigest() == (
        "615ed8edb6326fe9451f1f48c3e54e535797a9ce75ba113ab6921f21297960ef"
    )
    # the spelling that earlier versions wrote, every distance a JSON float,
    # re-sealed: byte for byte the fig2 model file that they wrote
    floats = dict(raw, dist_raw=[[float(v) for v in row] for row in raw["dist_raw"]])
    floats.pop("checksum")
    floats["checksum"] = hashlib.sha256(_canonical(floats).encode("utf-8")).hexdigest()
    floats = _canonical(floats) + "\n"
    assert hashlib.sha256(floats.encode("utf-8")).hexdigest() == (
        "879e506f9c9e5870c51690923a4c51cb969d2381093fe9a29edd49aff140b627"
    )
    paths = [compact]
    for name, text in (("indented", indented), ("floats", floats)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(text)
    capsys.readouterr()
    outputs, values = [], load_model(str(compact)).dist_raw.tobytes()
    for path in paths:
        assert load_model(str(path)).dist_raw.tobytes() == values
        assert run(["hint", "--model", str(path), "--state", '["a","b"]']) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert json.loads(outputs[0])["edit"] is not None


# the integral values around 2**53, where doubles stop holding every
# integer, -0.0, which a JSON 0 would load as 0.0, and sums of 0.1, which
# are near integers without being any
_DISTANCES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0**53 - 1, 2.0**53, 2.0**53 + 2, 1e300]),
    st.integers(1, 30).map(lambda k: sum([0.1] * k)),
    st.integers(0, 2**60).map(float),
    st.floats(0.0, 2.2250738585072014e-308),  # zero and the subnormals
    st.floats(0.0, allow_infinity=False),
)


_FIG2_MODEL = fit_model(load_dataset(FIG2), params=KernelParams(1.0, 0.0))


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 5).flatmap(lambda n: arrays(float, (n, n), elements=_DISTANCES)))
def test_model_distances_round_trip_bitwise(d):
    # the writer's spelling of each distance is no longer than repr's, and
    # the loader's one read of the text gives back every double bit for bit
    model = SimpleNamespace(**{**vars(_FIG2_MODEL), "dist_raw": d})
    text = _canonical(model_to_dict(model, ""))
    written = json.loads(text)["dist_raw"]
    for v, w in zip(d.ravel().tolist(), (w for row in written for w in row)):
        assert len(json.dumps(w)) <= len(repr(v))
    assert np.array(written, dtype=float).tobytes() == d.tobytes()


SEARCH_CORPUS = dataset_to_dict(synthetic_corpus(5, 4, "abcde", min_missing=1, max_missing=3))
QUALITY_CORPUS = {
    **SEARCH_CORPUS,
    "traces": SEARCH_CORPUS["traces"]
    + [{"id": "err", "successful": False, "states": [["a", "b"], ["a", "c", "d"]]}],
    "tutor_hints": [
        {"trace": "err", "step": 1, "edit": {"kind": "insert", "position": 3, "label": "c"}, "quality": 1.0},
        {"trace": "err", "step": 1, "edit": {"kind": "relabel", "position": 2, "label": "c"}, "quality": 0.5},
        {"trace": "err", "step": 2, "edit": {"kind": "insert", "position": 2, "label": "b"}, "quality": 0.75},
    ],
}


@pytest.mark.parametrize(
    "task, digest",
    [
        ("rmse", "bea3204d74a948436ac1771f0bec4105bb5cf0a35140c4b7a06954c6886dd024"),
        ("quality", "5a32bc5437f67b7300bc04116cec8fb93ecce490ea5f1e99777580cf6efd3d03"),
    ],
)
def test_eval_search_report_matches_recorded_digest(tmp_path, capsys, task, digest):
    # recorded from the reports of an earlier version of the package, which
    # prepared the training data once for the search and again for the task,
    # with numpy 2.4.6 and OpenBLAS 0.3.31 on its SkylakeX kernels, one BLAS
    # thread (the RMSEs' last bits depend on all three)
    data = tmp_path / "data.json"
    data.write_text(json.dumps(QUALITY_CORPUS))
    argv = ["eval", "--dataset", str(data), "--task", task, "--search", "--repeats", "3", "--seed", "7"]
    assert run(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


def test_dataset_and_model_take_inline_json(fig2_path, tmp_path, capsys):
    inline = json.dumps(FIG2)
    outputs = []
    for dataset in (fig2_path, inline):
        assert run(["dist", "--dataset", dataset]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    model = tmp_path / "model.json"
    assert run(["fit", "--dataset", inline, "--out", str(model)]) == 0
    for source in (str(model), model.read_text()):
        assert run(["hint", "--model", source, "--state", '["a","b"]']) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[2] == outputs[3]
    assert json.loads(outputs[2])["edit"] is not None


def test_model_round_trip_preserves_behavior(fig2_path, tmp_path):
    model_path = tmp_path / "model.json"
    run(["fit", "--dataset", fig2_path, "--psi", "1.0", "--noise", "0.0", "--out", str(model_path)])
    model = load_model(str(model_path))
    direct = fit_model(load_dataset(FIG2), params=KernelParams(1.0, 0.0))
    assert np.allclose(model.kernel_matrix, direct.kernel_matrix)
    assert np.allclose(model.dist_raw, direct.dist_raw)
    raw = model.query_raw_distances(sequence("ab"), model.hint_memo())
    assert np.allclose(model.weights(raw, "gpr"), direct.weights(raw, "gpr"))


def test_corrupted_model_rejected(fig2_path, tmp_path):
    model_path = tmp_path / "model.json"
    run(["fit", "--dataset", fig2_path, "--psi", "1.0", "--noise", "0.0", "--out", str(model_path)])
    raw = json.loads(model_path.read_text())
    raw["params"]["length_scale"] = 2.0  # tamper without updating the checksum
    model_path.write_text(json.dumps(raw))
    with pytest.raises(DataError):
        load_model(str(model_path))
    assert run(["hint", "--model", str(model_path), "--state", '["a"]']) == 2


def _rewrite_model(path, change):
    """Apply ``change`` to a model file's JSON and re-seal its checksum."""
    raw = json.loads(path.read_text())
    raw.pop("checksum")
    change(raw)
    raw["checksum"] = hashlib.sha256(_canonical(raw).encode("utf-8")).hexdigest()
    path.write_text(json.dumps(raw))


def test_v1_model_is_data_error(fig2_path, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    run(["fit", "--dataset", fig2_path, "--psi", "1.0", "--noise", "0.0", "--out", str(model_path)])
    _rewrite_model(model_path, lambda raw: raw.update(format="edithints-model-v1"))
    capsys.readouterr()
    assert run(["hint", "--model", str(model_path), "--state", '["a"]']) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "refit" in err
    model_path.write_text("[1]")  # valid JSON, but no model object
    assert run(["hint", "--model", str(model_path), "--state", '["a"]']) == 2


@pytest.mark.parametrize(
    "change, field",
    [
        (lambda raw: raw["dist_raw"].pop(), None),
        (lambda raw: [raw["dist_raw"][i].__setitem__(j, math.nan) for i, j in ((0, 1), (1, 0))], None),
        (lambda raw: raw.pop("trace_lengths"), "trace_lengths"),
        (lambda raw: raw.update(cost=[]), None),
        # the fig2 model holds traces t1 and t2 of two states each
        (lambda raw: raw.update(trace_lengths=[0, 4]), None),
        (lambda raw: raw.update(trace_lengths=[2, 1]), None),
        (lambda raw: raw.update(trace_lengths=[-1, 5]), None),
        (lambda raw: raw.update(trace_lengths=[1.5, 2.5]), "trace_lengths"),
        (lambda raw: raw.update(trace_lengths=[2, 3]), None),
        (lambda raw: raw.update(trace_ids=["t1", "t2", "t3"]), None),
        (lambda raw: raw.update(trace_ids=["t1", "t1"]), None),
        (lambda raw: raw.update(trace_ids=[1, "t2"]), None),
        # numpy reads true as 1.0 and "3.0" as 3.0, arithmetic reads true as 1
        (lambda raw: [raw["dist_raw"][i].__setitem__(j, True) for i, j in ((0, 2), (2, 0))], "dist_raw"),
        (lambda raw: [raw["dist_raw"][i].__setitem__(j, "3.0") for i, j in ((0, 3), (3, 0))], "dist_raw"),
        (lambda raw: raw.update(trace_lengths=[True, 3]), "trace_lengths"),
        (lambda raw: [raw["dist_raw"][i].__setitem__(j, 10**400) for i, j in ((0, 3), (3, 0))], None),
        (lambda raw: raw["params"].update(noise_std=True), "params"),
    ],
    ids=[
        "short-distances", "nan-distance", "missing-key", "cost-not-object", "zero-length",
        "short-sum", "negative-length", "non-integer-length", "long-sum", "extra-trace-id",
        "duplicate-trace-id", "non-string-trace-id", "boolean-distance", "string-distance",
        "boolean-length", "overflowing-integer-distance", "boolean-noise",
    ],
)
def test_malformed_sealed_model_is_data_error(fig2_path, tmp_path, capsys, change, field):
    model_path = tmp_path / "model.json"
    run(["fit", "--dataset", fig2_path, "--psi", "1.0", "--noise", "0.0", "--out", str(model_path)])
    _rewrite_model(model_path, change)
    capsys.readouterr()
    assert run(["hint", "--model", str(model_path), "--state", '["a"]']) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert field is None or f"'{field}'" in err


def test_fit_non_finite_noise_is_data_error(fig2_path, tmp_path):
    out = tmp_path / "model.json"
    for noise in ("nan", "inf", "1e200"):  # 1e200 squared overflows
        args = ["fit", "--dataset", fig2_path, "--noise", noise, "--out", str(out)]
        assert run(args) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "cost",
    [
        {"indel_default": "inf"},
        {"indel_default": "nan"},
        {"relabel_default": "nan"},
        {"relabel": {"a|b": "nan"}},
    ],
)
def test_fit_non_finite_cost_is_data_error(fig2_path, tmp_path, cost):
    out = tmp_path / "model.json"
    argv = ["fit", "--dataset", fig2_path, "--cost", json.dumps(cost), "--out", str(out)]
    result = subprocess.run(
        [sys.executable, "-m", "edithints.cli", *argv], capture_output=True, text=True
    )
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert len(result.stderr.strip().splitlines()) == 1
    assert not out.exists()


# a "z" costs so much to insert, delete or relabel that the squared
# distance between a state with one and a state without overflows
_OVERFLOW_COST = json.dumps({"relabel_default": 1e200, "indel": {"z": 1e200}})
_Z_TRACES = [
    {"id": "t1", "successful": True, "states": [["z"], ["z", "a"], ["z", "a", "b"]]},
    {"id": "t2", "successful": True, "states": [["a"], ["a", "b"]]},
    {"id": "t3", "successful": True, "states": [["b"], ["a", "b"], ["a", "b", "c"]]},
]


def _strict_json_or_one_line_error(argv) -> int:
    result = subprocess.run(
        [sys.executable, "-m", "edithints.cli", *argv], capture_output=True, text=True
    )
    assert result.returncode in (0, 2), result.stderr
    assert "Warning" not in result.stderr and "Traceback" not in result.stderr
    if result.returncode:
        assert result.stdout == "" and len(result.stderr.strip().splitlines()) == 1
    elif result.stdout:  # fit --out writes the model file alone
        json.loads(result.stdout, parse_constant=lambda c: pytest.fail(f"{c} in {argv[0]} output"))
    return result.returncode


def test_overflowing_squared_distances_give_strict_json_or_a_data_error(tmp_path):
    every = json.dumps({"kind": "sequence", "traces": _Z_TRACES})
    for command in (["eval", "--task", "rmse"], ["mds"], ["fit"]):
        argv = [*command, "--dataset", every, "--cost", _OVERFLOW_COST]
        assert _strict_json_or_one_line_error(argv) == 2
    # a model without "z" fits; a query with one is too far for the
    # embedding policies, and the baselines answer from raw distances
    model = tmp_path / "model.json"
    without = json.dumps({"kind": "sequence", "traces": _Z_TRACES[1:]})
    argv = ["fit", "--dataset", without, "--cost", _OVERFLOW_COST, "--out", str(model)]
    assert _strict_json_or_one_line_error(argv) == 0
    codes = {
        policy: _strict_json_or_one_line_error(
            ["hint", "--model", str(model), "--state", '["z", "q"]', "--policy", policy, "--seed", "1"]
        )
        for policy in ("chf", "nwr", "nn", "zimmerman", "gross", "random")
    }
    assert codes == {"chf": 2, "nwr": 2, "nn": 2, "zimmerman": 0, "gross": 0, "random": 0}


def test_overflowing_squared_distance_to_the_tutor_is_a_data_error():
    # the tutor's hint inserts a "z" that costs 1e200 in every way, so the
    # hinted state's distance to the tutor state has no finite square
    dataset = {
        **FIG2,
        "traces": FIG2["traces"] + [{"id": "err", "successful": False, "states": [["a", "b"]]}],
        "tutor_hints": [
            {"trace": "err", "step": 1, "quality": 1.0, "edit": {"kind": "insert", "position": 3, "label": "z"}}
        ],
    }
    cost = {"indel": {"z": 1e200}, "relabel": {"c|z": 1e200, "a|z": 1e200, "b|z": 1e200}}
    for policy in ("zimmerman", "chf"):
        argv = ["eval", "--task", "quality", "--policy", policy]
        argv += ["--dataset", json.dumps(dataset), "--cost", json.dumps(cost)]
        assert _strict_json_or_one_line_error(argv) == 2


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--cost", {"indel": 1}),
        ("--cost", {"relabel_default": [1]}),
        ("--cost", {"indel_default": True}),
        ("--canon", {"dead_labels": 1}),
        ("--canon", {"commutative_labels": [["x"]]}),
        # renaming gives v1, which a second canonicalization would remove
        ("--canon", {"variable_label_prefixes": ["var:"], "dead_labels": ["v1"]}),
    ],
)
def test_fit_malformed_cost_or_canon_is_data_error(fig2_path, capsys, flag, value):
    assert run(["fit", "--dataset", fig2_path, flag, json.dumps(value)]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "flag, value, named",
    [
        ("--cost", {"indel_defualt": 5}, "'indel_defualt'"),
        ("--canon", {"dead_label": ["x"]}, "'dead_label'"),
        # one label: the pair ("", "ab")
        ("--cost", {"relabel": {"ab": 0.5}}, "'|'"),
        # written back as "x|y|z", which reloads as ("x", "y|z")
        ("--cost", {"relabel": {"z|x|y": 0.5}}, "'|'"),
    ],
    ids=["cost-key-typo", "canon-key-typo", "relabel-one-label", "relabel-bar-in-label"],
)
def test_fit_unknown_key_or_unsplittable_relabel_is_data_error(
    fig2_path, tmp_path, capsys, flag, value, named
):
    out = tmp_path / "model.json"
    assert run(["fit", "--dataset", fig2_path, flag, json.dumps(value), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("edithints: data error:") and named in err[0]
    assert not out.exists()


def _hint(**fields):
    return {**FIG2, "tutor_hints": [{"trace": "t1", "step": 1, "quality": 1.0,
                                     "edit": {"kind": "delete", "position": 1}, **fields}]}


@pytest.mark.parametrize(
    "dataset, message",
    [
        ([], "must be a JSON object"),
        ("data.json", "must be a JSON object"),
        ({"kind": "sequence", "traces": [1]}, "'traces' must be a list of objects"),
        ({"kind": "sequence", "traces": 5}, "'traces' must be a list of objects"),
        ({"kind": "sequence", "traces": [{**FIG2["traces"][0], "id": 7}]}, "no usable id"),
        (
            {"kind": "sequence", "traces": [{"id": "t", "successful": True, "states": "ab"}]},
            "no list of states",
        ),
        (
            {"kind": "sequence", "traces": [{"id": "t", "successful": True, "states": ["ab"]}]},
            "a sequence state is an array",
        ),
        ({**FIG2, "tutor_hints": [7]}, "'tutor_hints' must be a list of objects"),
        (_hint(trace=["t1"]), "unknown trace"),
        (_hint(step=[1]), "malformed step or quality"),
        (_hint(quality=[1.0]), "malformed step or quality"),
        (_hint(edit=[1]), "an edit is an object"),
        (_hint(edit={"kind": "insert", "label": "c"}), "'position'"),
        (_hint(edit={"kind": "insert", "position": 1, "label": ["c"]}), "is not a string"),
        (
            _hint(edit={"kind": "insert_node", "path": [1], "label": "c", "child_span": 1}),
            "is not a pair",
        ),
        (
            _hint(edit={"kind": "insert_node", "path": [1], "label": "c", "child_span": [1, 1, 1]}),
            "is not a pair",
        ),
        ({**FIG2, "traces": [{**FIG2["traces"][0], "successful": "false"}]}, "true or false"),
        ({**FIG2, "traces": [{**FIG2["traces"][0], "successful": 1}]}, "true or false"),
        (_hint(step=1.9), "malformed step or quality"),
        (_hint(step=True), "malformed step or quality"),
        (_hint(quality="0.5"), "malformed step or quality"),
        (_hint(quality=True), "malformed step or quality"),
        (_hint(quality=10**400), "outside [0, 1]"),
        (_hint(edit={"kind": "delete", "position": 1.9}), "position 1.9 is not an integer"),
        (_hint(edit={"kind": "delete", "position": "2"}), "position '2' is not an integer"),
        (_hint(edit={"kind": "delete", "position": True}), "position True is not an integer"),
        (_hint(edit={"kind": "delete_node", "path": [1.9]}), "path entry 1.9 is not an integer"),
        (_hint(edit={"kind": "delete_node", "path": ["2"]}), "path entry '2' is not an integer"),
        (_hint(edit={"kind": "delete_node", "path": "12"}), "is not a list"),
        (
            _hint(edit={"kind": "insert_node", "path": [], "label": "c", "child_span": [1.0, 1]}),
            "child_span entry 1.0 is not an integer",
        ),
        (_hint(edit={"kind": "delete_node", "path": [1]}), "a delete_node edit in a sequence dataset"),
        (_hint(edit={"kind": "delete", "position": 9}), "delete position 9 > length 1"),
    ],
    ids=[
        "array", "string", "trace-not-object", "traces-not-list", "trace-id-not-string",
        "states-string", "state-string",
        "hint-not-object", "hint-trace-list", "step-list", "quality-list", "edit-not-object",
        "edit-no-position", "label-list", "child-span-int", "child-span-triple",
        "successful-string", "successful-int", "step-float", "step-bool", "quality-string",
        "quality-bool", "quality-huge-int", "position-float", "position-string", "position-bool",
        "path-float", "path-string-entry", "path-string", "child-span-float",
        "tree-edit-in-sequences", "edit-off-its-state",
    ],
)
def test_malformed_dataset_structure_is_data_error(tmp_path, capsys, dataset, message):
    data = tmp_path / "bad.json"
    data.write_text(json.dumps(dataset))
    assert run(["dist", "--dataset", str(data)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("edithints: data error:") and message in err


def test_hint_worked_example(fig2_path, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    run(["fit", "--dataset", fig2_path, "--psi", "1.0", "--noise", "0.0", "--out", str(model_path)])
    assert run(["hint", "--model", str(model_path), "--state", '["a","b"]', "--policy", "chf"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["edit"] == {"kind": "insert", "label": "c", "position": 3}
    assert out["objective"] == pytest.approx(1.8776131300682697, abs=1e-12)  # README
    assert out["policy"] == "chf"


def test_hint_at_solution_null_edit(fig2_path, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    run(["fit", "--dataset", fig2_path, "--psi", "1.0", "--noise", "0.0", "--out", str(model_path)])
    assert run(["hint", "--model", str(model_path), "--state", '["a","a","c"]']) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["edit"] is None


def test_hint_far_state_kernel_decay(fig2_path, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    run(["fit", "--dataset", fig2_path, "--psi", "1.0", "--noise", "0.0", "--out", str(model_path)])
    far = json.dumps(["z"] * 25)
    assert run(["hint", "--model", str(model_path), "--state", far]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["edit"] is None
    assert out["reason"] == "kernel-decay"


@pytest.mark.parametrize("policy", ["chf", "zimmerman"])
@pytest.mark.parametrize("state", ['["a","b"]', json.dumps(["z"] * 25)], ids=["near", "far"])
def test_hint_m_max_below_one_is_data_error(fig2_path, tmp_path, capsys, policy, state):
    model_path = tmp_path / "model.json"
    run(["fit", "--dataset", fig2_path, "--out", str(model_path)])
    argv = ["hint", "--model", str(model_path), "--state", state, "--policy", policy]
    assert run([*argv, "--m-max", "0"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "m_max" in err[0]
    assert run([*argv, "--m-max", "1"]) == 0


def test_eval_quality_m_max_below_one_is_data_error(tmp_path, capsys, monkeypatch):
    from edithints import cli

    data = tmp_path / "hinted.json"
    data.write_text(json.dumps(_hint()))
    argv = ["eval", "--dataset", str(data), "--task", "quality", "--policy", "zimmerman"]
    assert run([*argv, "--m-max", "0"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "m_max" in err[0]

    def refuse(*args, **kwargs):
        raise AssertionError("searched before rejecting m_max")

    monkeypatch.setattr(cli, "hyper_search", refuse)
    assert run([*argv, "--m-max", "0", "--search", "--repeats", "50"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["edithints: data error: m_max must be at least 1, got 0"]


def test_eval_random_policy_without_seed_fails_before_search_and_fit(tmp_path, capsys, monkeypatch):
    from edithints import cli

    calls = []

    def recording(name, fn):
        def record(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return record

    monkeypatch.setattr(cli, "hyper_search", recording("hyper_search", cli.hyper_search))
    monkeypatch.setattr(cli, "fit_model", recording("fit_model", cli.fit_model))
    data = tmp_path / "hinted.json"
    data.write_text(json.dumps(_hint()))
    argv = ["eval", "--dataset", str(data), "--task", "quality", "--policy", "random"]
    assert run([*argv, "--search", "--repeats", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "edithints: data error: the random policy requires an explicit seed"
    ]
    assert calls == []
    assert run([*argv, "--search", "--repeats", "5", "--seed", "3"]) == 0
    assert calls == ["hyper_search", "fit_model"]


def test_hint_malformed_state_is_data_error(fig2_path, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    run(["fit", "--dataset", fig2_path, "--psi", "1.0", "--noise", "0.0", "--out", str(model_path)])
    assert run(["hint", "--model", str(model_path), "--state", "not json"]) == 2


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        run(["frobnicate"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        run(["hint"])  # missing required flags
    assert err.value.code == 1


def test_tree_depth_limit(tmp_path, capsys):
    def chain(levels, leaf="b"):
        return "a(" * (levels - 1) + leaf + ")" * (levels - 1)

    def dataset(levels):
        path = tmp_path / f"depth{levels}.json"
        traces = [
            {"id": "t1", "successful": True, "states": [chain(levels - 2), chain(levels)]},
            {"id": "t2", "successful": True, "states": ["c", chain(levels)]},
        ]
        path.write_text(json.dumps({"kind": "tree", "traces": traces}))
        return str(path)

    model = tmp_path / "model.json"
    assert run(["fit", "--dataset", dataset(100), "--psi", "5", "--out", str(model)]) == 0
    assert run(["hint", "--model", str(model), "--state", chain(99)]) == 0
    assert json.loads(capsys.readouterr().out)["edit"] is not None
    assert run(["fit", "--dataset", dataset(101), "--out", str(model)]) == 2
    assert run(["hint", "--model", str(model), "--state", chain(101)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 2 and all("deeper than 100 levels" in line for line in err)


def test_eval_rmse_files(tmp_path, capsys):
    from edithints.evaluate import synthetic_corpus

    data = tmp_path / "corpus.json"
    data.write_text(json.dumps(dataset_to_dict(synthetic_corpus(5, 5, "abcde", min_missing=1, max_missing=3))))
    prefix = tmp_path / "report"
    assert (
        run(
            [
                "eval",
                "--dataset",
                str(data),
                "--task",
                "rmse",
                "--scheme",
                "do_nothing",
                "--out-prefix",
                str(prefix),
            ]
        )
        == 0
    )
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["kind"] == "rmse"
    assert len(report["per_trace"]) == 5
    csv_lines = (tmp_path / "report.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "trace,rmse_next,rmse_final,states"
    assert len(csv_lines) == 6


def test_eval_quality_files(tmp_path, capsys):
    data = tmp_path / "quality.json"
    data.write_text(
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
    prefix = tmp_path / "q"
    assert (
        run(
            [
                "eval",
                "--dataset",
                str(data),
                "--task",
                "quality",
                "--policy",
                "chf",
                "--psi",
                "1.0",
                "--noise",
                "0.0",
                "--out-prefix",
                str(prefix),
            ]
        )
        == 0
    )
    report = json.loads((tmp_path / "q.json").read_text())
    assert report["hintable_fraction"] == 1.0
    assert report["median_quality"] == 1.0


def test_eval_quality_without_tutor_hints_fails_before_search(fig2_path, monkeypatch, capsys):
    from edithints import cli

    def refuse(*args, **kwargs):
        raise AssertionError("searched or fitted a dataset without tutor hints")

    monkeypatch.setattr(cli, "hyper_search", refuse)
    monkeypatch.setattr(cli, "fit_model", refuse)
    argv = ["eval", "--dataset", fig2_path, "--task", "quality", "--search", "--repeats", "20"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["edithints: data error: dataset has no tutor hints"]


@pytest.mark.parametrize("command", ["mds", "fit"])
def test_eigensolver_failure_is_numerical_exit(fig2_path, monkeypatch, capsys, command):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    assert run([command, "--dataset", fig2_path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("edithints: numerical failure:")


def test_csv_quotes_trace_ids(tmp_path, capsys):
    ids = ["t,1", 't"2', "t3\nx"]
    data = tmp_path / "ids.json"
    data.write_text(json.dumps({
        "kind": "sequence",
        "traces": [
            {"id": tid, "successful": True, "states": [["a"] * (k + 1), ["b"] * (k + 1)]}
            for k, tid in enumerate(ids)
        ],
    }))
    labels = [f"{tid}:{step}" for tid in ids for step in (1, 2)]
    assert run(["dist", "--dataset", str(data)]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["id", *labels]
    assert [row[0] for row in rows[1:]] == labels
    assert all(len(row) == len(labels) + 1 for row in rows)
    assert run(["mds", "--dataset", str(data)]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert [row[:3] for row in rows[1:]] == [
        [f"{tid}:{step}", tid, str(step)] for tid in ids for step in (1, 2)
    ]
    prefix = tmp_path / "report"
    assert run(["eval", "--dataset", str(data), "--scheme", "do_nothing",
                "--out-prefix", str(prefix)]) == 0
    with open(f"{prefix}.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert [row[0] for row in rows[1:]] == ids and all(len(row) == 4 for row in rows)


def test_mds_equilateral(tmp_path, capsys):
    data = tmp_path / "tri.json"
    data.write_text(
        json.dumps(
            {
                "kind": "sequence",
                "traces": [
                    {"id": "t1", "successful": True, "states": [["a"]]},
                    {"id": "t2", "successful": True, "states": [["b"]]},
                    {"id": "t3", "successful": True, "states": [["c"]]},
                ],
            }
        )
    )
    assert run(["mds", "--dataset", str(data)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "id,trace,step,x,y"
    assert len(lines) == 4  # one row per retained state
    pts = np.array([[float(v) for v in line.split(",")[3:]] for line in lines[1:]])
    sides = sorted(
        np.linalg.norm(pts[i] - pts[j]) for i, j in ((0, 1), (0, 2), (1, 2))
    )
    assert sides[2] / sides[0] == pytest.approx(1.0, abs=1e-6)


def test_config_file_merging(fig2_path, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": fig2_path, "psi": 1.0, "noise": 0.0}))
    model_path = tmp_path / "model.json"
    assert run(["fit", "--config", str(cfg), "--out", str(model_path)]) == 0
    raw = json.loads(model_path.read_text())
    assert raw["params"]["length_scale"] == 1.0
    # explicit flags beat the config file
    model2 = tmp_path / "model2.json"
    assert run(["fit", "--config", str(cfg), "--psi", "2.0", "--out", str(model2)]) == 0
    assert json.loads(model2.read_text())["params"]["length_scale"] == 2.0
    assert run(["fit", "--config", str(tmp_path / "missing.json"), "--out", "-"]) == 2
    # config reaches options whose argparse default is not None
    cfg2 = tmp_path / "cfg2.json"
    cfg2.write_text(
        json.dumps(
            {
                "dataset": fig2_path,
                "search": True,
                "psi-range": [0.8, 1.2],
                "noise-range": [0.01, 0.02],
                "repeats": 2,
                "seed": 3,
            }
        )
    )
    model3 = tmp_path / "model3.json"
    assert run(["fit", "--config", str(cfg2), "--out", str(model3)]) == 0
    assert json.loads(model3.read_text())["search"]["repeats"] == 2


def test_config_never_overrides_explicit_flag(fig2_path, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "dataset": fig2_path,
                "search": True,
                "psi-range": [0.8, 1.2],
                "noise-range": [0.01, 0.02],
                "repeats": 3,
            }
        )
    )
    model = tmp_path / "model.json"
    # the flag wins even when its value is the parser default (10) ...
    assert run(["fit", "--config", str(cfg), "--repeats", "10", "--out", str(model)]) == 0
    assert json.loads(model.read_text())["search"]["repeats"] == 10
    # ... and the config value applies when the flag is absent
    assert run(["fit", "--config", str(cfg), "--out", str(model)]) == 0
    assert json.loads(model.read_text())["search"]["repeats"] == 3


def _config(tmp_path, entries):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(entries))
    return str(path)


def test_config_entries_parse_as_flags(fig2_path, tmp_path):
    model = tmp_path / "model.json"
    # an object is inline JSON, null is left out
    cfg = _config(tmp_path, {"dataset": fig2_path, "cost": {"indel_default": 2}, "seed": None})
    assert run(["fit", "--config", cfg, "--out", str(model)]) == 0
    assert json.loads(model.read_text())["cost"]["indel_default"] == 2.0
    # values get the option's type, as on the command line
    cfg = _config(
        tmp_path,
        {"dataset": fig2_path, "search": True, "repeats": "3", "psi_range": [0.8, 1.2]},
    )
    assert run(["fit", "--config", cfg, "--out", str(model)]) == 0
    assert json.loads(model.read_text())["search"]["repeats"] == 3


@pytest.mark.parametrize(
    "entries, message",
    [
        ({"psi": "abc"}, "invalid float value"),
        ({"search": True, "psi_range": [1]}, "expected 2 arguments"),
        ({"search": "false"}, "ignored explicit argument"),
        ({"bogus": 1}, "unrecognized arguments"),
    ],
    ids=["ill-typed", "wrong-arity", "string-for-switch", "unknown-key"],
)
def test_config_entry_errors_are_usage_errors(fig2_path, tmp_path, capsys, entries, message):
    model = tmp_path / "model.json"
    cfg = _config(tmp_path, {"dataset": fig2_path, **entries})
    with pytest.raises(SystemExit) as err:
        run(["fit", "--config", cfg, "--out", str(model)])
    assert err.value.code == 1
    assert message in capsys.readouterr().err
    assert not model.exists()


def test_option_prefixes_are_usage_errors(fig2_path, tmp_path, capsys):
    # "rep" is a prefix of exactly one option, --repeats, and still no option
    model = tmp_path / "model.json"
    cfg = _config(tmp_path, {"dataset": fig2_path, "search": True, "rep": 2})
    for argv in (
        ["fit", "--config", cfg, "--out", str(model)],
        ["fit", "--dataset", fig2_path, "--search", "--rep", "2", "--out", str(model)],
    ):
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not model.exists()


def test_hint_takes_model_and_state_from_config(fig2_path, tmp_path, capsys):
    model = tmp_path / "model.json"
    assert run(["fit", "--dataset", fig2_path, "--out", str(model)]) == 0
    assert run(["hint", "--model", str(model), "--state", '["a","b"]']) == 0
    by_flags = capsys.readouterr().out
    cfg = _config(tmp_path, {"model": str(model), "state": '["a","b"]'})
    assert run(["hint", "--config", cfg]) == 0
    assert capsys.readouterr().out == by_flags


@pytest.mark.parametrize("command, repeats", [("fit", "0"), ("eval", "-1")])
def test_search_rejects_non_positive_repeats(fig2_path, capsys, command, repeats):
    assert run([command, "--dataset", fig2_path, "--search", "--repeats", repeats]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "repeats" in err[0]


FINITE = st.floats(allow_nan=False, allow_infinity=False)
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 3)  # small, so that "repeats" stays cheap
    | FINITE
    | st.sampled_from(["", "abc", "inf", "nan", "-1", "0.5", "clip", "[1]", "{}"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner),
    max_leaves=6,
)
DATASET = "<the worked example>"
COST_KEYS = st.sampled_from(["indel_default", "relabel_default", "indel", "relabel"])
CANON_KEYS = st.sampled_from(["variable_label_prefixes", "commutative_labels", "dead_labels"])
# values of each fit option's own type; every key also draws any JSON value
TYPED_VALUES = {
    "dataset": st.just(DATASET),
    "cost": st.dictionaries(COST_KEYS, JSON_VALUES, max_size=2),
    "canon": st.dictionaries(CANON_KEYS, JSON_VALUES, max_size=2),
    "mode": st.sampled_from(["clip", "flip", "shift"]),
    "psi": FINITE,
    "noise": FINITE,
    "search": st.booleans(),
    "psi_range": st.lists(FINITE, min_size=2, max_size=2),
    "noise-range": st.lists(FINITE, min_size=2, max_size=2),
    "repeats": st.integers(-2, 3),
    "seed": st.integers(-2, 3),
    "config": st.text(max_size=3),
    "out": st.text(max_size=3),
}
JUNK_KEYS = ("bogus", "model", "task", "", "-", "psi range")
CONFIGS = st.lists(
    st.sampled_from(sorted(TYPED_VALUES) + list(JUNK_KEYS)), unique=True, max_size=4
).flatmap(
    lambda keys: st.fixed_dictionaries(
        {key: TYPED_VALUES.get(key, st.nothing()) | JSON_VALUES for key in keys}
    )
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(entries=CONFIGS)
def test_config_contract_property(tmp_path_factory, entries):
    """Whatever a config file holds, ``fit`` succeeds or ends with a
    documented code: 1 (usage, raised by argparse), 2 (data), 3 (numerical)."""
    folder = tmp_path_factory.getbasetemp()
    dataset = folder / "property-dataset.json"
    dataset.write_text(json.dumps(FIG2))
    # the worked example unless the drawn entries replace it
    entries = {"dataset": DATASET, **entries}
    entries = {k: str(dataset) if v == DATASET else v for k, v in entries.items()}
    cfg = folder / "property-config.json"
    cfg.write_text(json.dumps(entries))
    try:
        code = run(["fit", "--config", str(cfg), "--out", str(folder / "property-model.json")])
    except SystemExit as exc:
        assert exc.code == 1
    else:
        assert code in (0, 2, 3)


def test_random_hint_deterministic_across_runs(fig2_path, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    run(["fit", "--dataset", fig2_path, "--psi", "1.0", "--noise", "0.0", "--out", str(model_path)])
    outputs = []
    for _ in range(2):
        assert (
            run(["hint", "--model", str(model_path), "--state", '["a","b"]', "--policy", "random", "--seed", "11"])
            == 0
        )
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_search_fit_deterministic(tmp_path):
    from edithints.evaluate import synthetic_corpus

    data = tmp_path / "corpus.json"
    data.write_text(json.dumps(dataset_to_dict(synthetic_corpus(5, 4, "abcde", min_missing=1, max_missing=3))))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert (
            run(
                [
                    "fit",
                    "--dataset",
                    str(data),
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
                    str(path),
                ]
            )
            == 0
        )
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["search"]["seed"] == 7


def test_console_entry_point(fig2_path, tmp_path):
    model_path = tmp_path / "model.json"
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "edithints.cli",
            "fit",
            "--dataset",
            fig2_path,
            "--psi",
            "1.0",
            "--noise",
            "0.0",
            "--out",
            str(model_path),
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert model_path.exists()


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize(
    "env, expected",
    [({}, ["1", None, None]), ({"OMP_NUM_THREADS": "2"}, [None, "2", None])],
    ids=["unset", "omp-set"],
)
def test_cli_defaults_to_one_blas_thread(env, expected):
    # the CLI module sets the default before numpy is imported, and leaves
    # a thread count that the user chose as it is
    clean = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    script = (
        "import json, os, sys, edithints; assert 'numpy' not in sys.modules; "
        "import edithints.cli; print(json.dumps([os.environ.get(k) for k in sys.argv[1:]]))"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, *_BLAS_THREAD_VARS],
        env={**clean, **env}, capture_output=True, text=True, check=True,
    )
    assert json.loads(result.stdout) == expected

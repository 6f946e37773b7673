"""End-to-end checks on tree datasets: fit, hint, canonicalization and the
UML-style cost model with infinite relabel costs between node kinds."""

import json

import numpy as np
import pytest

from edithints.cli import main
from edithints.editdist import INF, CostModel, apply_edit, distance
from edithints.policies import KernelParams, chf_hint, fit_model, zimmerman_hint
from edithints.states import CanonConfig, canonicalize, parse_tree
from edithints.traces import load_dataset

TREE_DATA = {
    "kind": "tree",
    "traces": [
        {
            "id": "t1",
            "successful": True,
            "states": ["start", "start(ask)", "start(ask,loop(guess))"],
        },
        {
            "id": "t2",
            "successful": True,
            "states": ["start", "start(say)", "start(say,loop(guess))"],
        },
    ],
}


def test_tree_model_hint_pipeline():
    ds = load_dataset(TREE_DATA)
    model = fit_model(ds, params=KernelParams(1.0, 0.0))
    # a student who has an "ask" block and asks for help
    result = chf_hint(model, parse_tree("start(ask)"))
    assert result.edit is not None
    after = apply_edit(parse_tree("start(ask)"), result.edit)
    # the hint moves strictly toward the solutions
    sols = [parse_tree("start(ask,loop(guess))"), parse_tree("start(say,loop(guess))")]
    before_best = min(distance(parse_tree("start(ask)"), s) for s in sols)
    after_best = min(distance(after, s) for s in sols)
    assert after_best < before_best


def test_tree_tie_break_prefers_root_proximity():
    ds = load_dataset(TREE_DATA)
    model = fit_model(ds, params=KernelParams(1.0, 0.0))
    result = chf_hint(model, parse_tree("start(ask)"))
    # every candidate is scored; among equal scores the shallower path wins
    best_score = result.objective
    for edit, score in result.candidates:
        if score == pytest.approx(best_score):
            assert len(result.edit.path) <= len(edit.path)


def test_canonicalization_applies_to_queries():
    canon = CanonConfig(variable_label_prefixes=("var:",))
    raw = {
        "kind": "tree",
        "traces": [
            {
                "id": "t1",
                "successful": True,
                "states": ["f(var:q)", "f(var:q,g)"],
            },
            {
                "id": "t2",
                "successful": True,
                "states": ["f(var:r)", "f(var:r,h)"],
            },
        ],
    }
    ds = load_dataset(raw, canon)
    model = fit_model(ds, canon=canon, params=KernelParams(1.0, 0.0))
    # a query with a fresh variable name canonicalizes onto the training
    # states exactly, so interpolation sees distance zero
    raw_d = model.query_raw_distances(canonicalize(parse_tree("f(var:zzz)"), canon), model.hint_memo())
    assert raw_d.min() == 0.0
    result = chf_hint(model, parse_tree("f(var:zzz)"))
    assert result.edit is not None
    assert result.edit.kind == "insert_node"


def test_uml_style_infinite_relabel_cost_model():
    cost = CostModel(relabel_default=INF, relabel={("ask", "say"): 0.5})
    ds = load_dataset(TREE_DATA)
    model = fit_model(ds, cost=cost, params=KernelParams(2.0, 0.0))
    assert np.isfinite(model.dist_raw).all()
    result = zimmerman_hint(model, parse_tree("start(ask)"))
    assert result.edit is not None


def test_tree_cli_round_trip(tmp_path, capsys):
    data = tmp_path / "trees.json"
    data.write_text(json.dumps(TREE_DATA))
    model_path = tmp_path / "model.json"
    assert (
        main(
            [
                "fit",
                "--dataset",
                str(data),
                "--psi",
                "1.0",
                "--noise",
                "0.0",
                "--out",
                str(model_path),
            ]
        )
        == 0
    )
    assert main(["hint", "--model", str(model_path), "--state", "start(ask)"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["edit"]["kind"] in ("insert_node", "relabel_node", "delete_node")
    # dist CSV has one row per retained state
    assert main(["dist", "--dataset", str(data)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 7  # header + 6 states

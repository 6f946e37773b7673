"""Command-line interface.

Commands: ``dist`` (pairwise distance CSV), ``fit`` (train and persist a
model), ``hint`` (hint JSON for one state), ``eval`` (cross-validated RMSE
or tutor-hint quality), ``mds`` (2-D embedding CSV for plotting).

Every command accepts ``--config FILE`` with a JSON object whose keys are
the long option names (underscores for dashes); explicit flags override
config values.  All outputs are UTF-8 and deterministic given the same
inputs and seed.

Exit codes: 0 success (including a null hint), 1 usage error, 2 data
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from .editdist import CostModel, EditError, UNIT_COSTS
from .evaluate import PREDICTION_SCHEMES, hint_quality, hyper_search, loo_rmse, prepared_traces
from .policies import (
    DEFAULT_M_MAX,
    FitError,
    GprModel,
    KernelParams,
    POLICY_NAMES,
    fit_model,
    hint_by_policy,
)
from .space import CorrectedSpace, NumericalError
from .states import CanonConfig, StateError, parse_state, serialize_state
from .traces import DataError, Trace, build_pairs, load_dataset

MODEL_FORMAT = "edithints-model-v2"

USAGE_EXIT, DATA_EXIT, NUMERIC_EXIT = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_EXIT)


def _load_json_arg(value: str, what: str) -> dict:
    if value is None:
        return {}
    text = value
    if not text.lstrip().startswith("{"):
        try:
            with open(text, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise DataError(f"cannot read {what} {value!r}: {exc}") from exc
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(out, dict):
        raise DataError(f"{what} must be a JSON object")
    return out


def _write_text(path: str, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# model persistence


def model_to_dict(model: GprModel, provenance: str, search_meta=None) -> dict:
    """The model file: everything fitting consumed, nothing derived from it.
    Embeddings and the kernel system are rebuilt from ``dist_raw`` on load."""
    payload = {
        "format": MODEL_FORMAT,
        "kind": model.kind,
        "mode": model.mode,
        "params": {
            "length_scale": model.params.length_scale,
            "noise_std": model.params.noise_std,
        },
        "cost": model.cost.to_dict(),
        "canon": model.canon.to_dict(),
        "trace_ids": list(model.pairs.trace_ids),
        "trace_lengths": [stop - start for start, stop in model.pairs.trace_spans],
        "states": [serialize_state(s) for s in model.pairs.states],
        "dist_raw": model.dist_raw.tolist(),
        "provenance": {"dataset_sha256": provenance},
        "search": search_meta,
    }
    payload["checksum"] = _sha256(_canonical_json(payload))
    return payload


def model_from_dict(raw: dict) -> GprModel:
    fmt = raw.get("format") if isinstance(raw, dict) else None
    if fmt != MODEL_FORMAT:
        raise DataError(
            f"model format {fmt!r} is not {MODEL_FORMAT!r}; refit the model with 'edithints fit'"
        )
    claimed = raw.get("checksum")
    payload = dict(raw)
    payload.pop("checksum", None)
    if claimed != _sha256(_canonical_json(payload)):
        raise DataError("model file failed its checksum; refusing to load")
    try:
        kind = raw["kind"]
        canon = CanonConfig.from_dict(raw["canon"])
        cost = CostModel.from_dict(raw["cost"])
        params = KernelParams(**raw["params"])
        states = tuple(parse_state(text, kind) for text in raw["states"])
        traces = []
        offset = 0
        for tid, length in zip(raw["trace_ids"], raw["trace_lengths"]):
            traces.append(Trace(tid, states[offset : offset + length], True))
            offset += length
        dist_raw = np.array(raw["dist_raw"], dtype=float)
        mode = raw["mode"]
    except (KeyError, TypeError) as exc:
        raise DataError(f"model file has a missing or malformed field: {exc!r}") from exc
    return GprModel(kind, build_pairs(traces), cost, canon, params, mode, dist_raw)


def load_model(path: str) -> GprModel:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise DataError(f"cannot read model {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"model file is not valid JSON: {exc}") from exc
    return model_from_dict(raw)


# ---------------------------------------------------------------------------
# shared argument handling


def _add_common(parser):
    parser.add_argument("--config", help="JSON file with defaults for the flags")
    parser.add_argument("--dataset", help="dataset JSON file")
    parser.add_argument("--cost", help="cost model, JSON file or inline JSON")
    parser.add_argument("--canon", help="canonicalization config, JSON file or inline")
    parser.add_argument(
        "--mode", choices=("clip", "flip", "shift"), help="eigenvalue correction mode"
    )


def _merge_config(args, given):
    """Apply the config file to every option not in ``given``, the options
    on the command line."""
    config = _load_json_arg(args.config, "config file") if args.config else {}
    for key, value in config.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise DataError(f"config file sets unknown option {key!r}")
        if attr not in given:
            setattr(args, attr, value)
    return args


def _given_options(argv) -> set:
    """Names of the options on the command line, whatever their values:
    ``argv`` parsed again with no option defaults."""
    parser = build_parser()
    for sub_parser in parser.commands.values():
        for action in sub_parser._actions:
            action.default = argparse.SUPPRESS
    return set(vars(parser.parse_args(argv)))


def _dataset_from_args(args):
    if not args.dataset:
        raise DataError("a dataset is required (--dataset or config)")
    try:
        with open(args.dataset, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise DataError(f"cannot read dataset {args.dataset!r}: {exc}") from exc
    canon = CanonConfig.from_dict(_load_json_arg(args.canon, "canon config"))
    dataset = load_dataset(text, canon)
    return dataset, canon, _sha256(text)


def _cost_from_args(args) -> CostModel:
    spec = _load_json_arg(args.cost, "cost model")
    return CostModel.from_dict(spec) if spec else UNIT_COSTS


def _params_from_args(args, dataset, cost, canon):
    """Explicit kernel parameters, or the result of a random search."""
    if getattr(args, "search", False):
        psi_range = tuple(args.psi_range or (0.5, 10.0))
        noise_range = tuple(args.noise_range or (1e-3, 1.0))
        params = hyper_search(
            dataset,
            psi_range,
            noise_range,
            repeats=args.repeats,
            seed=args.seed if args.seed is not None else 0,
            cost=cost,
            canon=canon,
            mode=args.mode or "clip",
        )
        meta = {
            "psi_range": list(psi_range),
            "noise_range": list(noise_range),
            "repeats": args.repeats,
            "seed": args.seed if args.seed is not None else 0,
        }
        return params, meta
    return (
        KernelParams(
            length_scale=args.psi if args.psi is not None else 1.0,
            noise_std=args.noise if args.noise is not None else 0.0,
        ),
        None,
    )


def _state_ids(pairs) -> list:
    return [
        f"{trace_id}:{step}"
        for trace_id, (start, stop) in zip(pairs.trace_ids, pairs.trace_spans)
        for step in range(1, stop - start + 1)
    ]


# ---------------------------------------------------------------------------
# commands


def cmd_dist(args) -> int:
    dataset, canon, _ = _dataset_from_args(args)
    cost = _cost_from_args(args)
    traces = prepared_traces(dataset, cost)
    if not traces:
        raise DataError("dataset has no successful traces")
    pairs = build_pairs(traces)
    from .editdist import pairwise_distances

    matrix = pairwise_distances(pairs.states, cost)
    ids = _state_ids(pairs)
    lines = ["id," + ",".join(ids)]
    for label, row in zip(ids, matrix):
        lines.append(label + "," + ",".join(repr(float(v)) for v in row))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_fit(args) -> int:
    dataset, canon, digest = _dataset_from_args(args)
    cost = _cost_from_args(args)
    params, search_meta = _params_from_args(args, dataset, cost, canon)
    model = fit_model(dataset, cost, canon, params, args.mode or "clip")
    payload = model_to_dict(model, digest, search_meta)
    text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    _write_text(args.out, text)
    return 0


def cmd_hint(args) -> int:
    model = load_model(args.model)
    state = parse_state(args.state, model.kind)
    result = hint_by_policy(
        model,
        state,
        args.policy,
        seed=args.seed,
        m_max=args.m_max if args.m_max is not None else DEFAULT_M_MAX,
    )
    out = result.to_dict()
    out["policy"] = args.policy
    sys.stdout.write(json.dumps(out, sort_keys=True, indent=1) + "\n")
    return 0


def cmd_eval(args) -> int:
    dataset, canon, _ = _dataset_from_args(args)
    cost = _cost_from_args(args)
    params, _ = _params_from_args(args, dataset, cost, canon)
    mode = args.mode or "clip"
    if args.task == "rmse":
        report = loo_rmse(dataset, args.scheme, params, cost, canon, mode)
    else:
        policy = args.policy or "chf"

        def policy_fn(model, state):
            return hint_by_policy(
                model,
                state,
                policy,
                seed=args.seed,
                m_max=args.m_max if args.m_max is not None else DEFAULT_M_MAX,
            )

        report = hint_quality(dataset, policy_fn, cost, canon, params, mode)
    summary = report.to_dict()
    text = json.dumps(summary, sort_keys=True, indent=1) + "\n"
    if args.out_prefix:
        _write_text(args.out_prefix + ".json", text)
        rows = list(report.csv_rows())
        csv_text = "\n".join(",".join(str(v) for v in row) for row in rows) + "\n"
        _write_text(args.out_prefix + ".csv", csv_text)
    sys.stdout.write(text)
    return 0


def cmd_mds(args) -> int:
    dataset, canon, _ = _dataset_from_args(args)
    cost = _cost_from_args(args)
    traces = prepared_traces(dataset, cost)
    if not traces:
        raise DataError("dataset has no successful traces")
    pairs = build_pairs(traces)
    from .editdist import pairwise_distances

    matrix = pairwise_distances(pairs.states, cost)
    space = CorrectedSpace(matrix**2, args.mode or "clip")
    coords = space.mds_coordinates(2)
    ids = _state_ids(pairs)
    lines = ["id,trace,step,x,y"]
    for i, label in enumerate(ids):
        trace_id, step = label.rsplit(":", 1)
        lines.append(
            f"{label},{trace_id},{step},{repr(float(coords[i, 0]))},{repr(float(coords[i, 1]))}"
        )
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument parser


def build_parser() -> _Parser:
    parser = _Parser(prog="edithints", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("dist", help="write the pairwise edit distance CSV")
    _add_common(p_dist)
    p_dist.add_argument("--out", help="output CSV path (default stdout)")
    p_dist.set_defaults(func=cmd_dist)

    p_fit = sub.add_parser("fit", help="fit a hint model and persist it")
    _add_common(p_fit)
    p_fit.add_argument("--psi", type=float, help="kernel length scale")
    p_fit.add_argument("--noise", type=float, help="kernel noise standard deviation")
    p_fit.add_argument("--search", action="store_true", help="random hyper-parameter search")
    p_fit.add_argument("--psi-range", nargs=2, type=float, metavar=("LO", "HI"))
    p_fit.add_argument("--noise-range", nargs=2, type=float, metavar=("LO", "HI"))
    p_fit.add_argument("--repeats", type=int, default=10)
    p_fit.add_argument("--seed", type=int)
    p_fit.add_argument("--out", help="model file path (default stdout)")
    p_fit.set_defaults(func=cmd_fit)

    p_hint = sub.add_parser("hint", help="hint for one state against a model")
    p_hint.add_argument("--config", help="JSON file with defaults for the flags")
    p_hint.add_argument("--model", required=True, help="model file from fit")
    p_hint.add_argument("--state", required=True, help="state text (tree or JSON array)")
    p_hint.add_argument("--policy", default="chf", choices=POLICY_NAMES)
    p_hint.add_argument("--seed", type=int, help="seed (random policy)")
    p_hint.add_argument("--m-max", type=int, help="sparsification budget")
    p_hint.set_defaults(func=cmd_hint)

    p_eval = sub.add_parser("eval", help="run an evaluation harness")
    _add_common(p_eval)
    p_eval.add_argument("--task", choices=("rmse", "quality"), default="rmse")
    p_eval.add_argument("--scheme", default="gaussian_process", choices=PREDICTION_SCHEMES)
    p_eval.add_argument("--policy", choices=POLICY_NAMES, help="policy (quality task)")
    p_eval.add_argument("--psi", type=float)
    p_eval.add_argument("--noise", type=float)
    p_eval.add_argument("--search", action="store_true")
    p_eval.add_argument("--psi-range", nargs=2, type=float, metavar=("LO", "HI"))
    p_eval.add_argument("--noise-range", nargs=2, type=float, metavar=("LO", "HI"))
    p_eval.add_argument("--repeats", type=int, default=10)
    p_eval.add_argument("--seed", type=int)
    p_eval.add_argument("--m-max", type=int)
    p_eval.add_argument("--out-prefix", help="write PREFIX.json and PREFIX.csv")
    p_eval.set_defaults(func=cmd_eval)

    p_mds = sub.add_parser("mds", help="write 2-D embedding coordinates CSV")
    _add_common(p_mds)
    p_mds.add_argument("--out", help="output CSV path (default stdout)")
    p_mds.set_defaults(func=cmd_mds)

    parser.commands = sub.choices
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            _merge_config(args, _given_options(argv))
        return args.func(args)
    except (DataError, StateError, EditError, FitError, ValueError) as exc:
        print(f"edithints: data error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except NumericalError as exc:
        print(f"edithints: numerical failure: {exc}", file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Commands: ``dist`` (pairwise distance CSV), ``fit`` (train and persist a
model), ``hint`` (hint JSON for one state), ``eval`` (cross-validated RMSE
or tutor-hint quality), ``mds`` (2-D embedding CSV for plotting).

Every command accepts ``--config FILE`` with a JSON object whose keys are
the long option names (underscores or dashes).  Each entry becomes
command-line tokens placed before the explicit flags, so argparse checks
config values like flags and explicit flags win.  Every JSON argument
(``--config``, ``--dataset``, ``--cost``, ``--canon``, ``--model``) is
inline JSON when it starts with ``{`` and a file path otherwise.  All
outputs are UTF-8.  Given the same inputs and seed, model files are
byte-identical on every host; float outputs repeat bit for bit for one
numpy and OpenBLAS build, one CPU kernel and one BLAS thread count.

Exit codes: 0 success (including a null hint), 1 usage error, 2 data
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from itertools import chain

# one BLAS thread unless the user chose a count: faster for these small
# matrices, and float outputs then repeat bit for bit on a given host
if not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"} & set(os.environ):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from .editdist import CostModel, EditError, UNIT_COSTS
from .evaluate import PREDICTION_SCHEMES, hint_quality, hyper_search, loo_rmse_multi, prepared_traces
from .policies import (
    DEFAULT_M_MAX,
    FitError,
    Geometry,
    GprModel,
    KernelParams,
    POLICY_NAMES,
    check_hint_args,
    fit_model,
    hint_by_policy,
)
from .space import MODES, CorrectedSpace, NumericalError, squared
from .states import CanonConfig, StateError, parse_state, serialize_state
from .traces import DataError, TracePairs, load_dataset, read_json_object
from .traces import build_pairs  # uncalled; perfbench/tracing.py wraps this name

MODEL_FORMAT = "edithints-model-v2"

USAGE_EXIT, DATA_EXIT, NUMERIC_EXIT = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    """Exits with the usage code on errors and takes long options, flags
    and config keys alike, by their full names only."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_EXIT)


def _load_json_arg(value: str, what: str) -> dict:
    return {} if value is None else read_json_object(value, what)[0]


def _write_text(path: str, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _csv_text(rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# model persistence


def model_to_dict(model: GprModel, provenance: str, search_meta=None) -> dict:
    """The model file: everything fitting consumed, nothing derived from it.
    Embeddings and the kernel system are rebuilt from ``dist_raw`` on load.
    Each integral distance below 2**53 is written as a JSON integer, every
    other as its ``repr`` float; either spelling loads as the same double."""
    d = model.dist_raw
    dist = d.astype(object)  # Python floats, then Python ints where whole
    whole = (np.trunc(d) == d) & ~np.signbit(d) & (d < 2**53)
    dist[whole] = d[whole].astype(np.int64)
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
        "dist_raw": dist.tolist(),
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
        # arithmetic takes JSON true for 1, and numpy takes "3.0" for 3.0
        for key, items, kinds, noun in (
            ("params", raw["params"].values(), {int, float}, "numbers"),
            ("trace_lengths", raw["trace_lengths"], {int}, "integers"),
            ("dist_raw", chain.from_iterable(raw["dist_raw"]), {int, float}, "numbers"),
        ):
            if not set(map(type, items)) <= kinds:
                raise DataError(f"model field {key!r} may hold only JSON {noun}")
        states = [parse_state(text, kind) for text in raw["states"]]
        pairs = TracePairs.from_lengths(states, raw["trace_ids"], raw["trace_lengths"])
        dist_raw = np.array(raw["dist_raw"], dtype=float)
        mode = raw["mode"]
    except (KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise DataError(f"model file has a missing or malformed field: {exc!r}") from exc
    return GprModel(kind, Geometry(pairs, dist_raw, mode), cost, canon, params)


def load_model(source: str) -> GprModel:
    """The model in a model file, or in inline JSON."""
    return model_from_dict(read_json_object(source, "model file")[0])


# ---------------------------------------------------------------------------
# shared argument handling


def _add_common(parser):
    parser.add_argument("--config", help="JSON file with defaults for the flags")
    parser.add_argument("--dataset", required=True, help="dataset, JSON file or inline JSON")
    parser.add_argument("--cost", help="cost model, JSON file or inline JSON")
    parser.add_argument("--canon", help="canonicalization config, JSON file or inline")
    parser.add_argument(
        "--mode", default="clip", choices=MODES,
        help="eigenvalue correction mode",
    )


def _add_kernel(parser):
    parser.add_argument("--psi", type=float, default=1.0, help="kernel length scale")
    parser.add_argument("--noise", type=float, default=0.0, help="kernel noise standard deviation")
    parser.add_argument("--search", action="store_true", help="random hyper-parameter search")
    parser.add_argument(
        "--psi-range", nargs=2, type=float, default=[0.5, 10.0], metavar=("LO", "HI")
    )
    parser.add_argument(
        "--noise-range", nargs=2, type=float, default=[1e-3, 1.0], metavar=("LO", "HI")
    )
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--seed", type=int)


def _config_tokens(argv) -> list:
    """The entries of the ``--config`` file in ``argv`` as command-line
    tokens: ``true`` is the bare flag, ``false`` and ``null`` are left out,
    a list gives the flag's values, an object gives inline JSON."""
    pre = _Parser(prog="edithints", add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    tokens = []
    for key, value in _load_json_arg(path, "config file").items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            tokens.append(flag)
        elif isinstance(value, list):
            tokens += [flag, *(str(v) for v in value)]
        elif isinstance(value, dict):
            tokens.append(f"{flag}={json.dumps(value)}")
        elif value is not False and value is not None:
            tokens.append(f"{flag}={value}")
    return tokens


def _training_data(args) -> tuple:
    """What a dataset command trains on, each read once: the dataset, its
    cost model and canon config, the SHA-256 of the dataset's JSON text,
    and ``prepared_traces(dataset, cost)``, the one distance matrix that
    the search, the fit and the evaluation all slice."""
    raw, text = read_json_object(args.dataset, "dataset")
    canon = CanonConfig.from_dict(_load_json_arg(args.canon, "canon config"))
    dataset = load_dataset(raw, canon)
    spec = _load_json_arg(args.cost, "cost model")
    cost = CostModel.from_dict(spec) if spec else UNIT_COSTS
    return dataset, cost, canon, _sha256(text), prepared_traces(dataset, cost)


def _params_from_args(args, dataset, cost, prepared):
    """Explicit kernel parameters, or the result of a random search on
    ``prepared``, the dataset's prepared traces."""
    if not args.search:
        return KernelParams(length_scale=args.psi, noise_std=args.noise), None
    seed = 0 if args.seed is None else args.seed
    params = hyper_search(
        dataset,
        args.psi_range,
        args.noise_range,
        repeats=args.repeats,
        seed=seed,
        cost=cost,
        mode=args.mode,
        prepared=prepared,
    )
    meta = {
        "psi_range": args.psi_range,
        "noise_range": args.noise_range,
        "repeats": args.repeats,
        "seed": seed,
    }
    return params, meta


def _state_ids(pairs) -> list:
    """(label, trace id, step) of every state; steps count from 1 per trace."""
    return [
        (f"{trace_id}:{step}", trace_id, step)
        for trace_id, (start, stop) in zip(pairs.trace_ids, pairs.trace_spans)
        for step in range(1, stop - start + 1)
    ]


# ---------------------------------------------------------------------------
# commands


def cmd_dist(args) -> int:
    pairs, matrix = _training_data(args)[-1]
    labels = [label for label, _, _ in _state_ids(pairs)]
    rows = [["id", *labels]]
    rows += [[label, *map(repr, row)] for label, row in zip(labels, matrix.tolist())]
    _write_text(args.out, _csv_text(rows))
    return 0


def cmd_fit(args) -> int:
    dataset, cost, canon, digest, prepared = _training_data(args)
    params, search_meta = _params_from_args(args, dataset, cost, prepared)
    model = fit_model(dataset, cost, canon, params, args.mode, prepared)
    payload = model_to_dict(model, digest, search_meta)
    _write_text(args.out, _canonical_json(payload) + "\n")
    return 0


def cmd_hint(args) -> int:
    model = load_model(args.model)
    state = parse_state(args.state, model.kind)
    result = hint_by_policy(model, state, args.policy, seed=args.seed, m_max=args.m_max)
    out = result.to_dict()
    out["policy"] = args.policy
    sys.stdout.write(json.dumps(out, sort_keys=True, indent=1) + "\n")
    return 0


def cmd_eval(args) -> int:
    dataset, cost, canon, _, prepared = _training_data(args)
    if args.task == "quality":  # checked before the search and the fit
        if not dataset.tutor_hints:
            raise DataError("dataset has no tutor hints")
        check_hint_args(args.policy, args.seed, args.m_max)
    params, _ = _params_from_args(args, dataset, cost, prepared)
    if args.task == "rmse":
        reports = loo_rmse_multi(dataset, (args.scheme,), params, cost, args.mode, prepared)
        report = reports[args.scheme]
    else:

        def policy_fn(model, state):
            return hint_by_policy(model, state, args.policy, seed=args.seed, m_max=args.m_max)

        model = fit_model(dataset, cost, canon, params, args.mode, prepared)
        report = hint_quality(model, dataset.tutor_hints, policy_fn)
    summary = report.to_dict()
    text = json.dumps(summary, sort_keys=True, indent=1) + "\n"
    if args.out_prefix:
        _write_text(args.out_prefix + ".json", text)
        _write_text(args.out_prefix + ".csv", _csv_text(report.csv_rows()))
    sys.stdout.write(text)
    return 0


def cmd_mds(args) -> int:
    pairs, matrix = _training_data(args)[-1]
    coords = CorrectedSpace(squared(matrix), args.mode).mds_coordinates(2)
    rows = [("id", "trace", "step", "x", "y")]
    rows += [(*state, repr(x), repr(y)) for state, (x, y) in zip(_state_ids(pairs), coords.tolist())]
    _write_text(args.out, _csv_text(rows))
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
    _add_kernel(p_fit)
    p_fit.add_argument("--out", help="model file path (default stdout)")
    p_fit.set_defaults(func=cmd_fit)

    p_hint = sub.add_parser("hint", help="hint for one state against a model")
    p_hint.add_argument("--config", help="JSON file with defaults for the flags")
    p_hint.add_argument("--model", required=True, help="model from fit, JSON file or inline JSON")
    p_hint.add_argument("--state", required=True, help="state text (tree or JSON array)")
    p_hint.add_argument("--policy", default="chf", choices=POLICY_NAMES)
    p_hint.add_argument("--seed", type=int, help="seed (random policy)")
    p_hint.add_argument("--m-max", type=int, default=DEFAULT_M_MAX, help="sparsification budget")
    p_hint.set_defaults(func=cmd_hint)

    p_eval = sub.add_parser("eval", help="run an evaluation harness")
    _add_common(p_eval)
    _add_kernel(p_eval)
    p_eval.add_argument("--task", choices=("rmse", "quality"), default="rmse")
    p_eval.add_argument("--scheme", default="gaussian_process", choices=PREDICTION_SCHEMES)
    p_eval.add_argument(
        "--policy", default="chf", choices=POLICY_NAMES, help="policy (quality task)"
    )
    p_eval.add_argument("--m-max", type=int, default=DEFAULT_M_MAX, help="sparsification budget")
    p_eval.add_argument("--out-prefix", help="write PREFIX.json and PREFIX.csv")
    p_eval.set_defaults(func=cmd_eval)

    p_mds = sub.add_parser("mds", help="write 2-D embedding coordinates CSV")
    _add_common(p_mds)
    p_mds.add_argument("--out", help="output CSV path (default stdout)")
    p_mds.set_defaults(func=cmd_mds)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # config tokens go after the command name and before the explicit
        # flags, so argparse's last-wins rule lets the flags win
        argv = argv[:1] + _config_tokens(argv) + argv[1:]
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (DataError, StateError, EditError, FitError, ValueError) as exc:
        print(f"edithints: data error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except NumericalError as exc:
        print(f"edithints: numerical failure: {exc}", file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's hooks into the package still hold.

``perfbench/tracing.py`` wraps package functions by module and name, and
``perfbench/workloads.py::fold_clock`` times leave-one-out folds by
wrapping ``evaluate.GprModel`` and ``evaluate.loo_rmse_multi``.  A rename
or a call that bypasses those names breaks the benchmark without failing
any other test.
"""

import os

from edithints import evaluate, space

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_traced_sites_resolve_and_fold_clock_sees_every_fold(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from speed import Gauge
    from tracing import Tracer
    from workloads import fold_clock

    Tracer()  # looks up every traced site
    ds = evaluate.synthetic_corpus(seed=5, n_traces=4, base_solution="abcde", min_missing=1, max_missing=3)
    folds = len(ds.successful_traces())
    # log, under fold_clock's own wrappers, where each leave-one-out call
    # starts, where it builds a fold model and where it builds a space
    events = []
    for module, name, event in (
        (evaluate, "loo_rmse_multi", "loo"),
        (evaluate, "GprModel", "model"),
        (space.CorrectedSpace, "__init__", "space"),
    ):
        original = getattr(module, name)

        def logged(*args, _original=original, _event=event, **kwargs):
            events.append(_event)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, logged)
    for repeats in (2, 3):
        laps = []
        with fold_clock(laps, Gauge()):
            params = evaluate.hyper_search(ds, (0.5, 3.0), (0.01, 0.5), repeats=repeats, seed=3)
            evaluate.loo_rmse_multi(ds, evaluate.PREDICTION_SCHEMES, params)
        # the search's passes and the final pass, one lap per fold
        assert len(laps) == folds * (repeats + 1)
    # every fold's geometry is built inside a fold model's build, so inside
    # one of fold_clock's laps
    calls = "".join(e[0] for e in events).split("l")[1:]
    assert len(calls) == (2 + 1) + (3 + 1)
    for call in calls:
        assert "s" not in call or call.index("m") < call.index("s")

"""The benchmark's hooks into the package still hold.

``perfbench/tracing.py`` wraps package functions by module and name, and
``perfbench/workloads.py::fold_clock`` times leave-one-out folds by
wrapping ``evaluate.GprModel`` and ``evaluate.loo_rmse_multi``.  A rename
or a call that bypasses those names breaks the benchmark without failing
any other test.
"""

import os

from edithints import evaluate

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_traced_sites_resolve_and_fold_clock_sees_every_fold(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from speed import Gauge
    from tracing import Tracer
    from workloads import fold_clock

    Tracer()  # looks up every traced site
    ds = evaluate.synthetic_corpus(seed=5, n_traces=4, base_solution="abcde", min_missing=1, max_missing=3)
    laps = []
    with fold_clock(laps, Gauge()):
        params = evaluate.hyper_search(ds, (0.5, 3.0), (0.01, 0.5), repeats=2, seed=3)
        evaluate.loo_rmse_multi(ds, evaluate.PREDICTION_SCHEMES, params)
    # two search passes and the final pass, one lap per fold
    assert len(laps) == len(ds.successful_traces()) * 3

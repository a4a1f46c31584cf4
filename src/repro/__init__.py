"""repro — reproduction of *An Active Learning Method for Empirical
Modeling in Performance Tuning* (PWU sampling, IPPS 2020).

Public API quick tour
---------------------

The typed facade in :mod:`repro.api` is the documented way to run
experiments:

>>> import repro.api
>>> result = repro.api.run("atax", "pwu", seed=0, budget=60, scale="smoke")
>>> result.metrics["final_rmse"]["0.05"]  # doctest: +SKIP
0.0123

The layers underneath remain importable for custom studies:

>>> from repro import get_benchmark, get_strategy, ActiveLearner, LearnerConfig
>>> from repro.experiments import SCALES, prepare_data
>>> bench = get_benchmark("atax")
>>> pool, X_test, y_test = prepare_data(bench, SCALES["smoke"], seed=0)
>>> learner = ActiveLearner(
...     pool=pool,
...     evaluate=lambda X: bench.measure_encoded(X, 0),
...     X_test=X_test, y_test=y_test,
...     strategy=get_strategy("pwu", alpha=0.05),
...     config=LearnerConfig(n_max=60, eval_every=10),
...     seed=0,
... )
>>> history = learner.run()

Layers (bottom-up):

* :mod:`repro.space` — parameter spaces, encoding, the data pool
* :mod:`repro.forest` — random-forest regression with uncertainty
* :mod:`repro.machine` / :mod:`repro.costmodel` / :mod:`repro.noise` —
  the simulated measurement substrate
* :mod:`repro.kernels` / :mod:`repro.apps` — the 12 SPAPT kernels,
  kripke and hypre
* :mod:`repro.sampling` — the six strategies incl. PWU (the contribution)
* :mod:`repro.active` — Algorithm 1
* :mod:`repro.metrics` — RMSE@α (Eq. 2), cumulative cost (Eq. 3)
* :mod:`repro.tuning` — model-based tuning (Fig. 8)
* :mod:`repro.experiments` — figure/table drivers and the CLI
* :mod:`repro.engine` — parallel trial scheduler with a persistent,
  content-addressed result store (``--jobs`` / ``--cache-dir``)
* :mod:`repro.telemetry` — structured spans/counters with JSONL export
  (``--trace`` / ``REPRO_TRACE``)
* :mod:`repro.api` — the typed facade over all of the above
"""

import importlib

from repro._version import __version__

#: Exported name → the module that defines it.  Nothing below is imported
#: until first use (PEP 562), so ``import repro`` costs no numpy or scipy
#: and a run loads only the layers it touches.
_EXPORTS = {
    # spaces
    "ParameterSpace": "repro.space",
    "IntegerParameter": "repro.space",
    "OrdinalParameter": "repro.space",
    "CategoricalParameter": "repro.space",
    "BooleanParameter": "repro.space",
    "DataPool": "repro.space",
    # models
    "RandomForestRegressor": "repro.forest",
    "GaussianProcessRegressor": "repro.gp",
    "save_forest": "repro.forest",
    "load_forest": "repro.forest",
    # strategies
    "STRATEGY_NAMES": "repro.sampling",
    "register_strategy": "repro.sampling",
    "get_strategy": "repro.sampling",
    "available_strategies": "repro.sampling",
    "make_strategy": "repro.sampling",
    "PWUSampling": "repro.sampling",
    "pwu_scores": "repro.sampling",
    # loop
    "ActiveLearner": "repro.active",
    "LearnerConfig": "repro.active",
    "LearningHistory": "repro.active",
    # metrics
    "top_alpha_rmse": "repro.metrics",
    "cumulative_cost": "repro.metrics",
    "uncertainty_calibration": "repro.metrics",
    # workloads
    "Benchmark": "repro.workloads",
    "get_benchmark": "repro.workloads",
    "all_benchmarks": "repro.workloads",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    """Import an exported name from its defining module on first access."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    """The module's own names plus every lazy export."""
    return sorted({*globals(), *_EXPORTS})

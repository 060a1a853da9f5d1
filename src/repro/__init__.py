"""Reproduction of "Dynamic Control of Electricity Cost with Power Demand
Smoothing and Peak Shaving for Distributed Internet Data Centers"
(Yao, Liu, He, Rahman — ICDCS 2012).

The package is organized as one subpackage per subsystem:

- :mod:`repro.optim` — LP and QP solvers (from scratch).
- :mod:`repro.control` — state-space models, discretization, generic MPC, RLS.
- :mod:`repro.pricing` — real-time electricity price traces and market models.
- :mod:`repro.workload` — AR processes, traces and online prediction.
- :mod:`repro.datacenter` — server power model, M/M/n queueing, IDC cluster.
- :mod:`repro.core` — the paper's contribution: the two-time-scale cost MPC.
- :mod:`repro.baselines` — the optimal instantaneous policy and other baselines.
- :mod:`repro.sim` — closed-loop simulation engine and paper scenarios.
- :mod:`repro.analysis` — volatility/peak/cost metrics and comparisons.
- :mod:`repro.experiments` — regeneration of every table and figure.

Quickstart::

    from repro import paper_scenario, simulate_policies

    scenario = paper_scenario()
    results = simulate_policies(scenario)
    print(results.summary())
"""

from ._version import __version__

__all__ = ["__version__"]


def __getattr__(name):
    # Lazy re-exports keep `import repro` light while offering a flat API.
    # importlib is used directly: a `from . import _api` here would make
    # IMPORT_FROM re-enter this __getattr__ and recurse.
    import importlib

    if name.startswith("_"):
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    api = importlib.import_module("repro._api")
    if hasattr(api, name):
        attr = getattr(api, name)
        globals()[name] = attr
        return attr
    try:
        module = importlib.import_module(f"repro.{name}")
    except ModuleNotFoundError:
        raise AttributeError(
            f"module 'repro' has no attribute {name!r}") from None
    globals()[name] = module
    return module


def __dir__():
    import importlib

    api = importlib.import_module("repro._api")
    return sorted(set(__all__) | set(dir(api)))

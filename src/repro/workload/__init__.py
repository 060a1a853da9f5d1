"""Workload substrate: arrival models, traces and online prediction.

Implements Sec. III-D of the paper (AR(p) + RLS workload prediction)
and the synthetic EPA-like trace behind the Fig. 3 reproduction.
"""

from .arprocess import ARProcess, fit_yule_walker, is_stationary
from .portal import PortalSet, PortalWorkload
from .predictor import (
    ARWorkloadPredictor,
    BatchARWorkloadPredictor,
    LastValuePredictor,
    PerfectPredictor,
    evaluate_predictor,
)
from .traces import (
    DiurnalTraceConfig,
    epa_like_trace,
    step_change_trace,
    synth_web_trace,
)

__all__ = [
    "ARProcess",
    "fit_yule_walker",
    "is_stationary",
    "ARWorkloadPredictor",
    "BatchARWorkloadPredictor",
    "LastValuePredictor",
    "PerfectPredictor",
    "evaluate_predictor",
    "DiurnalTraceConfig",
    "synth_web_trace",
    "epa_like_trace",
    "step_change_trace",
    "PortalWorkload",
    "PortalSet",
]

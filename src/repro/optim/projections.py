"""Euclidean projection onto the capped simplex.

A portal's workload split across IDCs lies on a scaled simplex (portal
conservation) capped per IDC (latency-bounded capacity).  The static
baseline (:mod:`repro.baselines.static`) and the fallback ladder's hold
rung (:mod:`repro.resilience.ladder`) repair a split by projecting it
onto that set.
"""

from __future__ import annotations

import numpy as np

__all__ = ["project_capped_simplex"]


def project_capped_simplex(x, caps, total: float, max_iter: int = 100,
                           tol: float = 1e-12) -> np.ndarray:
    """Project onto ``{v : 0 <= v <= caps, sum(v) = total}``.

    Solved by bisection on the dual variable of the sum constraint.  Used
    to split a portal's workload across IDCs whose latency-bounded
    capacities act as per-IDC caps.

    Raises
    ------
    ValueError
        If ``total`` exceeds ``sum(caps)`` (the set is empty).
    """
    x = np.asarray(x, dtype=float).ravel()
    caps = np.broadcast_to(np.asarray(caps, dtype=float), x.shape)
    if np.any(caps < 0):
        raise ValueError("caps must be nonnegative")
    cap_sum = float(np.sum(caps))
    if total > cap_sum + 1e-9:
        raise ValueError(
            f"infeasible capped simplex: total {total} > sum of caps {cap_sum}"
        )
    if total <= 0:
        return np.zeros_like(x)
    if abs(total - cap_sum) <= 1e-12:
        return caps.copy()

    def mass(theta: float) -> float:
        return float(np.sum(np.clip(x - theta, 0.0, caps)))

    lo = float(np.min(x - caps)) - 1.0
    hi = float(np.max(x)) + 1.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mass(mid) > total:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return np.clip(x - 0.5 * (lo + hi), 0.0, caps)

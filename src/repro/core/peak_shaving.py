"""Peak shaving through reference clamping (Sec. IV-D).

The paper's rule: track the optimizer's power reference ``P^o`` when it
is within budget, and the budget ``P^b`` otherwise::

    P_ref = P^o  if P^o <= P^b  else  P^b

These helpers implement the rule for per-IDC budget vectors (``None`` or
``inf`` entries mean unconstrained) plus the violation accounting used by
the Fig. 6/7 experiments and the analysis layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ModelError

__all__ = ["normalize_budgets", "clamp_powers", "BudgetViolation",
           "budget_violations"]


def normalize_budgets(budgets, n_idcs: int) -> np.ndarray:
    """Expand a budget spec into a float vector with ``inf`` for 'none'.

    Accepts ``None`` (no budgets at all), a scalar, or a per-IDC sequence
    whose entries may be ``None``.  Every budget must be positive; NaN
    is rejected (``nan <= 0`` is false, so it would otherwise pass as
    "no budget").
    """
    if budgets is None:
        return np.full(n_idcs, np.inf)
    if np.isscalar(budgets):
        out = np.full(n_idcs, float(budgets))
    else:
        out = np.array([np.inf if b is None else float(b) for b in budgets],
                       dtype=float)
    if out.size != n_idcs:
        raise ModelError(f"need {n_idcs} budgets, got {out.size}")
    if not np.all(out > 0):
        raise ModelError(f"power budgets must be positive, got {out}")
    return out


def clamp_powers(powers_watts: np.ndarray, budgets_watts) -> np.ndarray:
    """The paper's clamping rule, elementwise over IDCs."""
    powers = np.asarray(powers_watts, dtype=float).ravel()
    budgets = normalize_budgets(budgets_watts, powers.size)
    return np.minimum(powers, budgets)


@dataclass(frozen=True)
class BudgetViolation:
    """One IDC's budget violation at one instant."""

    idc_index: int
    power_watts: float
    budget_watts: float

    @property
    def excess_watts(self) -> float:
        return self.power_watts - self.budget_watts

    @property
    def excess_fraction(self) -> float:
        return self.excess_watts / self.budget_watts


def budget_violations(powers_watts: np.ndarray, budgets_watts,
                      tolerance: float = 1e-6) -> list[BudgetViolation]:
    """All IDCs whose instantaneous power exceeds their budget."""
    powers = np.asarray(powers_watts, dtype=float).ravel()
    budgets = normalize_budgets(budgets_watts, powers.size)
    out = []
    for j, (p, b) in enumerate(zip(powers, budgets)):
        if np.isfinite(b) and p > b * (1.0 + tolerance):
            out.append(BudgetViolation(idc_index=j, power_watts=float(p),
                                       budget_watts=float(b)))
    return out

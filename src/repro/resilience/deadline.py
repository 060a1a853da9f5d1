"""Wall-clock deadline budgets for the degradation-aware control step.

A real-time controller has a hard latency budget per control period: the
allocation must be on the wire before the period starts, no matter how
degenerate the QP turned out to be.  :class:`DeadlineBudget` is the one
clock every rung of the fallback ladder shares — each rung is handed
``budget.remaining()`` as its solver deadline, so a rung that stalls
automatically leaves less time for the rungs below it, and once the
budget is exhausted only the solver-free rungs (projection of the
last-known-good allocation) are attempted.
"""

from __future__ import annotations

import math
import time

__all__ = ["DeadlineBudget"]


class DeadlineBudget:
    """A monotonic wall-clock budget shared across fallback rungs.

    Parameters
    ----------
    seconds:
        Total budget for the control step, positive and finite.
        ``None`` means unbounded — every query reports infinite
        remaining time, so the ladder behaves exactly as if no deadline
        plumbing existed.
    min_slice:
        Floor on the per-rung slice handed to a solver.  Giving a QP a
        50 µs deadline just wastes the setup cost; below this floor
        :meth:`slice` reports the budget as exhausted instead.
    """

    def __init__(self, seconds: float | None,
                 min_slice: float = 1e-3) -> None:
        # Negated so NaN fails too (every comparison with NaN is false);
        # ``None`` is the only unbounded budget.
        if seconds is not None and not 0 < seconds < math.inf:
            raise ValueError("deadline budget must be positive and finite, "
                             f"got {seconds!r}")
        self.seconds = None if seconds is None else float(seconds)
        self.min_slice = float(min_slice)
        self._start = time.monotonic()

    def elapsed(self) -> float:
        """Seconds consumed since the budget was created."""
        return time.monotonic() - self._start

    def remaining(self) -> float:
        """Seconds left (``inf`` when unbounded, clamped at 0.0)."""
        if self.seconds is None:
            return float("inf")
        return max(self.seconds - self.elapsed(), 0.0)

    @property
    def expired(self) -> bool:
        """True once the budget is spent (never for unbounded budgets)."""
        return self.seconds is not None and self.remaining() <= 0.0

    def slice(self) -> float | None:
        """Deadline to hand the next solver call.

        Returns ``None`` for unbounded budgets (no deadline plumbing at
        all) and the remaining seconds otherwise.  Returns ``0.0`` when
        less than ``min_slice`` is left — callers treat that as "skip
        solver rungs entirely".
        """
        if self.seconds is None:
            return None
        left = self.remaining()
        return left if left >= self.min_slice else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        total = "inf" if self.seconds is None else f"{self.seconds:.3f}s"
        return f"DeadlineBudget({total}, remaining={self.remaining():.3f}s)"

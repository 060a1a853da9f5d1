"""Paths, statistics and machine facts shared by the e2e benchmark files.

Importing this module touches nothing outside the Python standard
library, so ``run.py`` can pin the BLAS thread pools before numpy loads.
"""

from __future__ import annotations

import functools
import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
#: Scratch space for daemon data directories and span dumps.  It lives
#: inside the checkout, is listed in the root ``.gitignore`` and is
#: wiped per run directory, never per checkout.
WORK = ROOT / ".bench_build" / "e2e"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
GOLDEN_JSON = HERE / "golden.json"

#: Environment variables that pin every BLAS/OpenMP pool to one thread.
#: The box has two cores and the daemon workload runs two processes, so
#: a multi-threaded BLAS would only add scheduler noise.
BLAS_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def pin_blas(env=None) -> dict:
    """Set the BLAS pins in ``env`` (default: this process) and return it."""
    env = os.environ if env is None else env
    for key, value in BLAS_PINS.items():
        env[key] = value
    return env


def child_env() -> dict:
    """Environment for a benchmark subprocess: pinned BLAS, ``src`` on path."""
    env = pin_blas(dict(os.environ))
    parts = [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(
        os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def require_repro() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` and import repro.

    Raises ``SystemExit(2)`` with a message when the package is missing,
    so a directory holding only the benchmark files fails fast, before
    any result line is printed.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2e benchmark: no repro package under {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro  # noqa: F401  (fail here, not mid-run)


def load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)``; one value gives three copies of it."""
    values = list(values)
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


# ---------------------------------------------------------------------------
# machine fingerprint and same-process baseline
# ---------------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> dict:
    """What a number measured here depends on, beside the code."""
    import numpy
    import scipy
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_pins": {k: os.environ.get(k) for k in BLAS_PINS},
    }


#: Median ``calib_point()`` on the machine the bounds were set on (the
#: 2-vCPU Xeon VM of README.md, Python 3.11.7, numpy 2.4.6).  Timings
#: scaled by it read as seconds at that machine's quiet speed.
REFERENCE_CALIB_S = 0.0109


@functools.lru_cache(maxsize=1)
def _calib_inputs():
    import numpy as np
    rng = np.random.default_rng(12345)
    return (rng.standard_normal((12, 12)) + 12.0 * np.eye(12),
            rng.standard_normal(12))


def calib_point(min_seconds: float = 0.0) -> float:
    """CPU seconds of a fixed numpy solve + matmul loop: the median of at
    least three runs, and of as many more as fill ``min_seconds``.

    The loop drives small dense numpy calls from Python, the mix of work
    the controllers' period loops do.  The harness times a point between
    consecutive timed segments, in the same process, so that a segment's
    wall time can be scaled by the speed the machine ran at around it
    (``at_reference_speed``).  It is timed in this thread's CPU time, so
    waiting for the GIL or for a core does not count as a slow machine.
    """
    import time

    import numpy as np

    a, b = _calib_inputs()
    samples: list = []
    while len(samples) < 3 or sum(samples) < min_seconds:
        t0 = time.thread_time()
        acc = 0.0
        for i in range(1000):
            x = np.linalg.solve(a, b + i)
            acc += float(x @ (a @ x)) + sum(j * 0.5 for j in range(20))
        samples.append(time.thread_time() - t0)
    return median(samples)


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between calibration points ``before`` and
    ``after``, scaled to the speed ``REFERENCE_CALIB_S`` stands for.

    The host the benchmark runs on is shared: for minutes at a time it
    runs the same code up to 1.9x slower, and it swings by a third
    within a second.  A run cannot outlast such a phase, but the
    calibration points slow down with it.
    """
    return seconds * REFERENCE_CALIB_S * 2.0 / (before + after)

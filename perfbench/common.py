"""Shared plumbing: the checkout layout, statistics, and the result line."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: The benchmark's own directory and the checkout root above it.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Working space inside the checkout for journals, sockets and spans.
WORK_DIR = ROOT / ".perfbench"

#: Thread-count variables recorded with every run (never set by the bench).
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class CheckFailed(Exception):
    """An output check failed: the run's results are not trustworthy."""


def require_source() -> None:
    """Exit non-zero, printing no result, when the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from the root "
              f"of a checkout", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """The environment for subprocesses: ours, plus the source on the path.

    Thread-count variables pass through untouched, set or not.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def stop_children() -> None:
    """Stop and reap the helper processes multiprocessing leaves behind.

    The process backend's kernel pool starts multiprocessing's
    shared-memory tracker, and nothing in the library stops it: left alone
    it outlives this process for a moment and is never waited for.  Any
    pool worker still alive is stopped first, since it holds the tracker's
    pipe open.  A no-op when neither was started.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run_dir(workload: str) -> Path:
    """A fresh per-run directory under :data:`WORK_DIR`."""
    path = WORK_DIR / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def quantile(values: list[float], fraction: float) -> float:
    """Nearest-rank quantile (no interpolation); ``nan`` when empty."""
    if not values:
        return math.nan
    ordered = sorted(values)
    index = max(0, math.ceil(fraction * len(ordered)) - 1)
    return ordered[index]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def import_setup_seconds(code: str, repeats: int) -> float:
    """Median wall seconds of a fresh interpreter running ``code``."""
    command = [sys.executable, "-c", code]
    seconds = []
    for __ in range(repeats):
        started = time.perf_counter()
        subprocess.run(command, env=child_env(), cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        seconds.append(time.perf_counter() - started)
    return statistics.median(seconds)


def blas_build() -> str:
    """The BLAS numpy was built against, in one line."""
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def environment() -> dict:
    """What the numbers depend on: cores, BLAS, thread variables."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "blas": blas_build(),
        "thread_variables": {name: os.environ.get(name)
                             for name in THREAD_VARIABLES},
    }


def benchmark_spec() -> dict:
    """``BENCHMARK.json``: the metric names and units this code reports."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def emit(correct: bool, attempted: int, failed: int, metrics: dict,
         details: dict) -> None:
    """Print the human-readable details, then the result as the last line."""
    print(json.dumps({"details": details}, sort_keys=True, default=str))
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    sys.stdout.flush()

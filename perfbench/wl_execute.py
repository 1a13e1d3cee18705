"""The ``execute`` workload: dense GNMF, warm, on both executor backends.

The seed draws V, W0 and H0; the same compiled program then runs on a
thread-backend and a process-backend ``CumulonExecutor``, each over its
own ``TileStore`` on a simulated HDFS cluster, with ``max_workers`` capped
at the number of cores.  Runs alternate between the backends so machine
noise hits both alike.  Every run's outputs must equal the other backend's
bit for bit, and the final outputs must match ``reference_gnmf``.

The window is split into segments, each on a freshly started pair of
executors.  Process runs on one pool tend to be fast or slow together:
the quartile spread of a median over one pool per run was 0.15 to 0.22
across seeds, and over five pools 0.06 to 0.15.  Each segment's cold
start (store filled, pool forked, one full run per backend) is a sample
of ``setup_s``.

The benchmark sets no BLAS or OpenMP thread variable and keeps the
BLAS-sized tile even though forked kernel workers then oversubscribe
OpenBLAS threads: that cost is part of what the process backend's numbers
measure.
"""

from __future__ import annotations

import ctypes
import gc
import os
import time

import layers
from common import CheckFailed, median, quantile

ROWS, COLS, RANK, TILE = 1536, 768, 192, 256
ITERATIONS = 3
WORKERS = max(1, min(2, os.cpu_count() or 1))
BACKENDS = ("thread", "process")
#: Fresh executor pairs per run, each timed cold and then measured warm.
SEGMENTS = 5


def matmul_flops() -> float:
    """Multiply-add FLOPs of one GNMF run (the kernels' arithmetic)."""
    m, n, k = ROWS, COLS, RANK
    per_iteration = 4 * m * n * k + 4 * k * k * n + 4 * k * k * m
    return ITERATIONS * per_iteration


def draw_inputs(seed: int) -> dict:
    import numpy as np

    rng = np.random.default_rng(seed)
    return {"V": rng.random((ROWS, COLS)) + 0.01,
            "W0": rng.random((ROWS, RANK)) + 0.01,
            "H0": rng.random((RANK, COLS)) + 0.01}


def release_memory() -> None:
    """Free the last executor pair's stores and hand the memory back.

    Without ``malloc_trim`` the freed tiles stay in the C heap, and each
    segment would start from a larger footprint than the last, which a
    user who starts one executor pair never sees.
    """
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):  # not glibc: nothing to trim
        pass


def start_executor(backend: str, metrics):
    """An executor over a fresh tile store on a simulated HDFS cluster."""
    from repro.api import ClusterSpec, CumulonExecutor, get_instance_type
    from repro.cloud.provisioning import provision
    from repro.hdfs.tilestore import TileStore

    cluster = provision(ClusterSpec(get_instance_type("m1.large"), 2, 2),
                        replication=1)
    return CumulonExecutor(tile_size=TILE, max_workers=WORKERS,
                           backing=TileStore(cluster.namenode),
                           backend=backend, metrics=metrics)


def start_pair(metrics, program, inputs) -> dict:
    """Both executors, each after one cold run (pool, BLAS, store filled)."""
    executors = {}
    try:
        for backend in BACKENDS:
            executors[backend] = start_executor(backend, metrics)
            executors[backend].run(program, inputs)
    except BaseException:
        close_pair(executors)
        raise
    return executors


def close_pair(executors: dict) -> None:
    for executor in executors.values():
        executor.close()


def check_equal(outputs: dict, other: dict) -> None:
    import numpy as np

    for name, array in outputs.items():
        if not np.array_equal(array, other[name]):
            raise CheckFailed(f"thread and process backends disagree on "
                              f"{name}")


def measure(executors: dict, program, inputs: dict, seconds: float,
            times: dict, reference_outputs: dict | None) -> dict:
    """Alternate warm runs until ``seconds`` pass; returns last outputs."""
    outputs = dict(reference_outputs or {})
    started = time.perf_counter()
    while True:
        for backend in BACKENDS:
            run_started = time.perf_counter()
            result = executors[backend].run(program, inputs)
            times[backend].append(time.perf_counter() - run_started)
            if outputs:
                check_equal(result.outputs, outputs)
            outputs = result.outputs
        if time.perf_counter() - started >= seconds:
            return outputs


def run(seed: int, seconds: float, tracer=None) -> dict:
    import numpy as np
    from repro.api import MetricsRegistry
    from repro.observability.metrics import NULL_METRICS
    from repro.workloads import build_gnmf_program, reference_gnmf

    inputs = draw_inputs(seed)
    program = build_gnmf_program(ROWS, COLS, RANK, iterations=ITERATIONS)
    budget = seconds / 2 if tracer is not None else seconds
    setups = []
    times = {backend: [] for backend in BACKENDS}
    outputs = None
    for __ in range(SEGMENTS):
        release_memory()
        started = time.perf_counter()
        executors = start_pair(NULL_METRICS, program, inputs)
        setups.append(time.perf_counter() - started)
        try:
            outputs = measure(executors, program, inputs, budget / SEGMENTS,
                              times, outputs)
        finally:
            close_pair(executors)
    extra: dict = {}
    registry = None
    if tracer is not None:
        release_memory()
        registry = MetricsRegistry()
        executors = start_pair(registry, program, inputs)
        traced = {backend: [] for backend in BACKENDS}
        layers.install(tracer)
        try:
            outputs = measure(executors, program, inputs, budget, traced,
                              outputs)
        finally:
            tracer.uninstall()
            close_pair(executors)
        # Thread runs: the process runs' spread would swamp the wrappers.
        extra["trace.overhead_pct"] = 100.0 * (
            median(traced["thread"]) / median(times["thread"]) - 1.0)
        extra["kernels.gflop"] = (matmul_flops() * len(traced["process"])
                                  / 1e9)
    want_w, want_h = reference_gnmf(inputs["V"], inputs["W0"], inputs["H0"],
                                    ITERATIONS)
    for name, want in (("W", want_w), ("H", want_h)):
        if not np.allclose(outputs[name], want, rtol=1e-9, atol=1e-12):
            raise CheckFailed(f"GNMF output {name} differs from "
                              f"reference_gnmf")
    runs = len(times["thread"]) + len(times["process"])
    return {
        "setup_s": median(setups),
        "main_ms": median(times["thread"]) * 1e3,
        "alt_ms": median(times["process"]) * 1e3,
        "named": {
            "exec_thread_s": (median(times["thread"]), "s"),
            "exec_process_s": (median(times["process"]), "s"),
        },
        "attempted": runs,
        "failed": 0,
        "registry": registry,
        "details": {
            "shape": [ROWS, COLS, RANK], "tile": TILE,
            "iterations": ITERATIONS, "workers": WORKERS,
            "segments": SEGMENTS,
            "thread_runs": len(times["thread"]),
            "process_runs": len(times["process"]),
            "exec_process_q1_s": quantile(times["process"], 0.25),
            "exec_process_q3_s": quantile(times["process"], 0.75),
        },
        "extra": extra,
    }

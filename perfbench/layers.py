"""Which library entry points are traced, and the per-layer metrics.

:func:`install` puts a span around every public call the per-layer
metrics are computed from; :func:`layer_metrics` turns the span summary
(plus the counters of the ``MetricsRegistry`` the benchmark passed in,
and a few figures the workload measured itself) into the named per-layer
metrics.  Every traced run reports every per-layer metric: a layer the
workload never calls reports 0, which is the prediction for it.
"""

from __future__ import annotations

from common import benchmark_spec, metric
from tracing import Tracer


def _dag_tasks(args, kwargs, result) -> int:
    dag = args[1] if len(args) > 1 else kwargs["dag"]
    return sum(len(job.map_tasks) + len(job.reduce_tasks) for job in dag)


def _cache_hit(args, kwargs, result) -> int:
    return 0 if result is None else 1


def _result_bytes(args, kwargs, result) -> int:
    return result.nbytes()


def _put_bytes(args, kwargs, result) -> int:
    return args[1].nbytes()


def _submit_frame(args, kwargs, result) -> int:
    return 1 if result.get("type") == "submit" else 0


def _request_count(args, kwargs, result) -> int:
    return len(args[1])


def install(tracer: Tracer) -> None:
    """Trace every layer boundary the per-layer metrics name.

    Imports happen here, not at module load, so the benchmark can report
    a missing program cleanly before touching it.
    """
    from repro.core.compiler import compile_program
    from repro.core.evalcache import EvalCache
    from repro.core.executor import CumulonExecutor
    from repro.hadoop.local import LocalExecutor
    from repro.hadoop.simulator import ClusterSimulator
    from repro.hdfs.tilestore import TileStore
    from repro.service.admission import AdmissionController
    from repro.service.durability import Journal
    from repro.service.jobs import JobService
    from repro.service.protocol import decode_frame, encode_frame
    from repro.service.scheduler import allocate_slots

    tracer.install_function(compile_program, "compiler")
    tracer.install_method(EvalCache, "get", "evalcache.get", _cache_hit)
    tracer.install_method(ClusterSimulator, "run", "simulator", _dag_tasks)
    tracer.install_method(CumulonExecutor, "run", "executor")
    tracer.install_method(LocalExecutor, "run", "local", _dag_tasks)
    tracer.install_method(TileStore, "get", "tilestore.get", _result_bytes)
    tracer.install_method(TileStore, "put", "tilestore.put", _put_bytes)
    tracer.install_function(encode_frame, "protocol.encode")
    tracer.install_function(decode_frame, "protocol.decode", _submit_frame)
    tracer.install_method(AdmissionController, "decide", "admission.decide")
    tracer.install_method(JobService, "submit", "jobs.submit")
    tracer.install_method(JobService, "cancel", "jobs.cancel")
    tracer.install_method(JobService, "run_until", "jobs.run_until")
    tracer.install_function(allocate_slots, "scheduler.allocate",
                            _request_count)
    tracer.install_method(Journal, "append", "journal.append")
    tracer.install_method(Journal, "sync", "journal.sync")


def registry_totals(registry) -> dict[str, float]:
    """Counter values and histogram sums by name, summed over labels."""
    totals: dict[str, float] = {}
    snapshot = registry.snapshot()
    for entry in snapshot["counters"]:
        totals[entry["name"]] = totals.get(entry["name"], 0.0) + entry["value"]
    for entry in snapshot["histograms"]:
        name = entry["name"]
        totals[name + ".sum"] = totals.get(name + ".sum", 0.0) + entry["sum"]
        totals[name + ".count"] = (totals.get(name + ".count", 0.0)
                                   + entry["count"])
    return totals


#: Per-layer metrics in report order: name -> unit.
LAYER_METRICS = {entry["name"]: entry["unit"]
                 for entry in benchmark_spec()["per_layer"]}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(summary: dict, registry: dict, extra: dict) -> dict:
    """Every per-layer metric, from spans, registry totals and ``extra``.

    ``extra`` carries what only the workload knows (surrogate rounds,
    computed FLOPs, server-side percentiles, generator lateness, tracing
    overhead); anything it omits that no span covers reports 0.
    """

    def span(name: str, field: str) -> float:
        return summary.get(name, {}).get(field, 0)

    values = {
        "compiler.calls": span("compiler", "count"),
        "compiler.s": span("compiler", "total_s"),
        "search.calls": span("search", "count"),
        "search.self_s": span("search", "self_s"),
        "evalcache.requests": span("evalcache.get", "count"),
        "evalcache.hit_ratio": _ratio(span("evalcache.get", "size"),
                                      span("evalcache.get", "count")),
        "simulator.runs": span("simulator", "count"),
        "simulator.s": span("simulator", "total_s"),
        "simulator.tasks": span("simulator", "size"),
        "simulator.us_per_task": 1e6 * _ratio(span("simulator", "total_s"),
                                              span("simulator", "size")),
        "local.tasks": span("local", "size"),
        "local.s": span("local", "total_s"),
        "local.retries": registry.get("local.task_retries", 0.0),
        "tilestore.gets": span("tilestore.get", "count"),
        "tilestore.puts": span("tilestore.put", "count"),
        "tilestore.bytes_read": span("tilestore.get", "size"),
        "tilestore.bytes_written": span("tilestore.put", "size"),
        "procpool.dispatches": registry.get("procpool.dispatches", 0.0),
        "procpool.dispatch_s": registry.get("procpool.dispatch_seconds.sum",
                                            0.0),
        "procpool.serve_s": registry.get("procpool.serve_seconds.sum", 0.0),
        "procpool.request_bytes": registry.get("procpool.request_bytes", 0.0),
        "procpool.shm_regrowths": registry.get("procpool.shm_regrowths", 0.0),
        "protocol.frames_in": span("protocol.decode", "count"),
        "protocol.decode_s": span("protocol.decode", "total_s"),
        "protocol.encode_s": span("protocol.encode", "total_s"),
        "journal.appends": span("journal.append", "count"),
        "journal.sync_s": span("journal.sync", "total_s"),
        "admission.decides": span("admission.decide", "count"),
        "admission.decide_s": span("admission.decide", "total_s"),
        "jobs.run_until_calls": span("jobs.run_until", "count"),
        "jobs.run_until_s": span("jobs.run_until", "total_s"),
        "scheduler.allocate_calls": span("scheduler.allocate", "count"),
        "scheduler.allocate_s": span("scheduler.allocate", "total_s"),
        "scheduler.requests_per_call": _ratio(
            span("scheduler.allocate", "size"),
            span("scheduler.allocate", "count")),
    }
    values["procpool.overhead_s"] = (values["procpool.dispatch_s"]
                                     - values["procpool.serve_s"])
    values.update(extra)
    values["kernels.gflops_achieved"] = _ratio(
        values.get("kernels.gflop", 0.0), values["procpool.serve_s"])
    return {name: metric(values.get(name, 0.0), unit)
            for name, unit in LAYER_METRICS.items()}

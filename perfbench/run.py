"""The repository benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload plan|execute|serve \\
        --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` they
are the per-layer metrics, from spans recorded around the library's entry
points in a separate traced phase of the run.  Before it come the
workload's end-to-end metrics under their own names (``plan_s``,
``ack_p99_ms``, ...), one per line with its unit, and then one line
holding the run's details (those metrics again, the workload's other
figures, the environment).  A failed output check prints
``"correct": false`` and exits 1.  See README.md.
"""

from __future__ import annotations

import argparse
import sys

from common import (
    WORK_DIR,
    CheckFailed,
    emit,
    environment,
    metric,
    peak_rss_mb,
    require_source,
    stop_children,
)

WORKLOADS = ("plan", "execute", "serve")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Run one benchmark "
                                     "workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(outcome: dict, named: dict) -> dict:
    """The ``BENCHMARK.json`` end-to-end metrics of one run."""
    return {
        "setup_s": named["setup_s"],
        "peak_rss_mb": named["peak_rss_mb"],
        "main_ms": metric(outcome["main_ms"], "ms"),
        "alt_ms": metric(outcome["alt_ms"], "ms"),
    }


def named_metrics(outcome: dict) -> dict:
    """The workload's end-to-end metrics under their own names, with units."""
    attempted, failed = outcome["attempted"], outcome["failed"]
    named = {"setup_s": metric(outcome["setup_s"], "s"),
             "peak_rss_mb": metric(peak_rss_mb(), "MB"),
             "failed_share": metric(failed / attempted if attempted else 0.0,
                                    "ratio")}
    named.update({name: metric(value, unit)
                  for name, (value, unit) in outcome["named"].items()})
    return named


def main(argv=None) -> int:
    try:
        return run_workload(parse_args(argv))
    finally:
        stop_children()


def run_workload(args) -> int:
    require_source()
    import layers
    from tracing import Tracer

    module = __import__(f"wl_{args.workload}")
    tracer = Tracer() if args.trace else None
    details = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "environment": environment()}
    try:
        outcome = module.run(args.seed, args.seconds, tracer)
    except CheckFailed as error:
        details["check_failed"] = str(error)
        emit(False, 1, 1, {}, details)
        print(f"perfbench: output check failed: {error}", file=sys.stderr)
        return 1
    details.update(outcome["details"])
    named = details["metrics"] = named_metrics(outcome)
    for name, entry in named.items():
        print(f"{args.workload}: {name} = {entry['value']:.6g} "
              f"{entry['unit']}")
    attempted, failed = outcome["attempted"], outcome["failed"]
    if tracer is None:
        metrics = end_to_end(outcome, named)
    else:
        registry = outcome.get("registry")
        totals = outcome.get("registry_totals") or (
            layers.registry_totals(registry) if registry is not None else {})
        summary = outcome.get("summary") or tracer.summary()
        metrics = layers.layer_metrics(summary, totals, outcome["extra"])
        details["spans"] = sum(entry["count"] for entry in summary.values())
        if tracer.spans:
            tracer.write(WORK_DIR / f"spans-{args.workload}.json")
    emit(True, attempted, failed, metrics, details)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

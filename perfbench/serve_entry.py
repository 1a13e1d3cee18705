"""The job server the ``serve`` workload drives, built from the public API.

Run by ``wl_serve`` as a subprocess from the root of a checkout::

    python3 perfbench/serve_entry.py --listen 127.0.0.1:PORT \\
        --journal DIR --tenants FILE --report FILE [--spans FILE]

It journals to ``--journal`` with group commit (one fsync per tick),
registers the weighted tenants listed in ``--tenants`` (a JSON object of
name -> weight), serves until a ``shutdown`` frame, and then writes a JSON
report: the server's own report and this process's CPU seconds.  With
``--spans`` it also records spans around the library's entry points,
writes them to ``--spans``, and adds the metrics registry's totals and
the submissions' queue-wait p99 to the report.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from common import quantile, require_source

require_source()

import layers  # noqa: E402
from tracing import Tracer  # noqa: E402

#: The simulated cluster the service schedules onto (16 slots).
INSTANCE, NODES, SLOTS = "m1.large", 8, 2
#: Virtual seconds per wall second.
TIME_SCALE = 450.0
TICK_INTERVAL = 0.02
MAX_BATCH = 512
FSYNC_EVERY = 4096


def queue_waits(tracer: Tracer) -> list[float]:
    """Seconds each submission waited between decode and ``submit``.

    Submissions leave the server's queue in arrival order, so the n-th
    decoded submit frame is the n-th ``JobService.submit`` call.
    """
    decoded = [span.end for span in tracer.spans
               if span.name == "protocol.decode" and span.size == 1]
    submitted = [span.start for span in tracer.spans
                 if span.name == "jobs.submit"]
    return [start - end for end, start in zip(decoded, submitted)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--listen", required=True)
    parser.add_argument("--journal", required=True)
    parser.add_argument("--tenants", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    from repro.api import (
        ClusterSpec,
        DurabilityStore,
        JobService,
        MetricsRegistry,
        POLICY_FAIR,
        ReproServer,
        get_instance_type,
    )
    from repro.observability.metrics import NULL_METRICS

    tracer = registry = None
    if args.spans:
        tracer = Tracer()
        layers.install(tracer)
        registry = MetricsRegistry()

    service = JobService(ClusterSpec(get_instance_type(INSTANCE), NODES,
                                     SLOTS), policy=POLICY_FAIR)
    service.attach_durability(DurabilityStore(Path(args.journal),
                                              fsync_every=FSYNC_EVERY))
    tenants = json.loads(Path(args.tenants).read_text(encoding="utf-8"))
    for name, weight in tenants.items():
        service.add_tenant(name, weight=weight)
    server = ReproServer(service, args.listen, tick_interval=TICK_INTERVAL,
                         max_batch=MAX_BATCH, time_scale=TIME_SCALE,
                         metrics=NULL_METRICS if registry is None
                         else registry)
    cpu_started = time.process_time()
    server.run()
    report = {"server": server.report(),
              "cpu_s": time.process_time() - cpu_started}
    if tracer is not None:
        tracer.uninstall()
        waits = queue_waits(tracer)
        totals = layers.registry_totals(registry)
        report["registry"] = totals
        report["queue_wait_p99_ms"] = quantile(waits, 0.99) * 1e3 \
            if waits else 0.0
        tracer.write(Path(args.spans))
    Path(args.report).write_text(json.dumps(report, default=str),
                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

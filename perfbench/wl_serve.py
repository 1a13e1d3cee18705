"""The ``serve`` workload: an open-loop tenant mix against the job server.

One client process (this one) drives a ``serve_entry`` server subprocess
over two connections: submits and cancels on one, status reads on the
other.  Arrivals are open loop: the seed draws a Poisson schedule of
operations, each sent when it is due whatever the server is doing, and
every latency is timed from the due time, so a stall also delays the
operations queued behind it.  The mix is mostly submits of tiny catalog
programs from many weighted tenants, plus cancels of this client's own
acked, unfinished jobs and status reads of its jobs.  A backlog of large
jobs submitted in set-up keeps hundreds of jobs running at once, and the
rate is half the highest at which acks keep up.

After the window the client drains its jobs, shuts the server down and
audits the journal: nothing lost, nothing billed twice, every ack
journaled, and one result for every acked job.  A cancel that loses the
race to completion is answered ``job-finished``; that is a success.
"""

from __future__ import annotations

import json
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import (
    BENCH_DIR,
    ROOT,
    WORK_DIR,
    CheckFailed,
    child_env,
    median,
    quantile,
    require_source,
    run_dir,
)

require_source()

from repro.service.loadgen import ProtocolClient, wait_for_server  # noqa: E402
from serve_entry import TIME_SCALE  # noqa: E402

#: Operations per second, all kinds together, and the share of each kind.
#: The rate is half the highest at which acks keep up; the shares are a
#: declared assumption.  See "The serve mix and its rate" in README.md.
RATE = 60.0
MIX = (("submit", 0.60), ("status", 0.30), ("cancel", 0.10))
#: Tiny catalog programs and how often each is submitted.
PROGRAMS = (("multiply", 0.70), ("rsvd", 0.15), ("pagerank", 0.10),
            ("regression", 0.05))
TENANTS = 64
WEIGHTS = (1.0, 2.0, 4.0)
#: Jobs submitted in set-up that stay running through the window.
BACKLOG = 300
BACKLOG_PROGRAM = "regression"
BULK_TENANT = "bulk"
#: Server start-ups timed for ``setup_s``; the last one is measured.
SETUP_REPEATS = 3
#: Seconds to wait for the server to start, drain or stop.
TIMEOUT = 60.0


def exact_shares(rng: random.Random, shares, count: int) -> list:
    """``count`` draws holding each share exactly, in seeded order."""
    out = []
    for value, share in shares:
        out += [value] * round(share * count)
    out = (out + [shares[0][0]] * count)[:count]
    rng.shuffle(out)
    return out


def draw_inputs(seed: int, seconds: float) -> dict:
    """Tenants with weights, and the due-time schedule of operations.

    Arrivals are a Poisson process conditioned on its count: ``RATE *
    seconds`` due times drawn uniformly over the window.  The kinds hold
    their shares exactly, and so do the programs over the submit slots,
    so every seed offers the same amount of work in a different order.
    """
    rng = random.Random(seed)
    tenants = {f"t{index:03d}": rng.choice(WEIGHTS)
               for index in range(TENANTS)}
    names = list(tenants)
    tenants[BULK_TENANT] = 1.0
    # Zipf-like popularity: a few tenants submit most of the work.
    popularity = [1.0 / (rank + 1) for rank in range(len(names))]
    count = round(RATE * seconds)
    dues = sorted(rng.uniform(0.0, seconds) for __ in range(count))
    kinds = exact_shares(rng, MIX, count)
    programs = iter(exact_shares(rng, PROGRAMS, kinds.count("submit")))
    schedule = [{"due": due, "kind": kind,
                 "tenant": rng.choices(names, popularity)[0],
                 "workload": next(programs) if kind == "submit" else None,
                 "pick": rng.random()}
                for due, kind in zip(dues, kinds)]
    return {"tenants": tenants, "schedule": schedule}


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Server:
    """One ``serve_entry`` subprocess and where its files go."""

    def __init__(self, directory: Path, tenants_file: Path, traced: bool):
        directory.mkdir(parents=True)
        self.directory = directory
        self.listen = f"127.0.0.1:{free_port()}"
        self.journal = directory / "journal"
        self.report_path = directory / "report.json"
        self.spans_path = directory / "spans.json" if traced else None
        #: Jobs submitted while warming up (audited with the rest).
        self.warm_jobs: list[str] = []
        command = [sys.executable, str(BENCH_DIR / "serve_entry.py"),
                   "--listen", self.listen, "--journal", str(self.journal),
                   "--tenants", str(tenants_file),
                   "--report", str(self.report_path)]
        if traced:
            command += ["--spans", str(self.spans_path)]
        self.log = open(directory / "server.log", "wb")
        self.proc = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                                     stdout=self.log, stderr=self.log)

    def stop(self) -> dict:
        """Wait for the process to exit; returns its report."""
        try:
            self.proc.wait(timeout=TIMEOUT)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        if self.proc.returncode != 0:
            tail = (self.directory / "server.log").read_text(
                errors="replace")[-2000:]
            raise CheckFailed(f"server exited with {self.proc.returncode}: "
                              f"{tail}")
        return json.loads(self.report_path.read_text(encoding="utf-8"))

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.log.close()


def connect(listen: str) -> ProtocolClient:
    """A client of the running server that sends each frame at once."""
    client = ProtocolClient(listen, TIMEOUT)
    # Frames are small and latency-bound: no Nagle delay.
    client.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return client


def start_reader(conn: ProtocolClient, on_frame) -> threading.Thread:
    """A thread handing each frame and its arrival time to ``on_frame``."""
    def read() -> None:
        while (doc := conn.recv()) is not None:
            on_frame(doc, time.perf_counter())

    thread = threading.Thread(target=read, daemon=True)
    thread.start()
    return thread


class Client:
    """Sends the schedule open loop and matches every reply to its request."""

    def __init__(self, jobs_conn: ProtocolClient,
                 status_conn: ProtocolClient):
        self.jobs_conn = jobs_conn
        self.status_conn = status_conn
        self.lock = threading.Lock()
        self.requests: dict[int, tuple[str, float]] = {}
        self.submit_due: dict[str, float] = {}
        self.open_jobs: list[str] = []
        self.known_jobs: list[str] = []
        self.results: dict[str, str] = {}
        self.latency = {"ack": [], "status": [], "cancel": [], "result": []}
        self.late: list[float] = []
        self.failures: list[str] = []
        self.rejected = 0
        self.peak_open = 0
        self.drained = threading.Event()
        self.readers = [start_reader(conn, self.on_frame)
                        for conn in (jobs_conn, status_conn)]

    def on_frame(self, doc: dict, now: float) -> None:
        kind = doc.get("type")
        with self.lock:
            if kind == "result":
                job_id = doc["job_id"]
                if job_id in self.results:
                    self.failures.append(f"second result for {job_id}")
                self.results[job_id] = doc["state"]
                if job_id in self.open_jobs:
                    self.open_jobs.remove(job_id)
                if doc["state"] == "completed":
                    self.latency["result"].append(
                        now - self.submit_due[job_id])
                return
            if kind == "drained":
                self.drained.set()
                return
            request = self.requests.pop(doc.get("req"), None)
            if request is None:
                if kind == "error":
                    self.failures.append(f"unmatched error {doc}")
                return
            op, due = request
            if kind == "error":
                if op == "cancel" and doc.get("code") == "job-finished":
                    self.latency["cancel"].append(now - due)
                else:
                    self.failures.append(f"{op}: {doc.get('code')}")
                return
            if op == "submit":
                self.latency["ack"].append(now - due)
                job_id = doc["job_id"]
                self.submit_due[job_id] = due
                self.known_jobs.append(job_id)
                if doc.get("state") == "rejected":
                    self.rejected += 1
                elif job_id not in self.results:
                    self.open_jobs.append(job_id)
                    self.peak_open = max(self.peak_open, len(self.open_jobs))
            else:
                self.latency[op].append(now - due)

    def drive(self, schedule: list[dict]) -> int:
        """Send every operation at its due time; returns operations sent."""
        origin = time.perf_counter()
        sent = 0
        for req, op in enumerate(schedule):
            due = origin + op["due"]
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            frame = self.frame(req, op, due)
            if frame is None:
                continue
            self.late.append(time.perf_counter() - due)
            conn = self.status_conn if op["kind"] == "status" \
                else self.jobs_conn
            conn.send(frame)
            sent += 1
        return sent

    def cancel_open(self, first_req: int, backlog: list[str]) -> int:
        """Cancel the backlog and every job still open after the window."""
        with self.lock:
            jobs, self.open_jobs = backlog + self.open_jobs, []
            now = time.perf_counter()
            for req, job_id in enumerate(jobs, start=first_req):
                self.requests[req] = ("cancel", now)
        for req, job_id in enumerate(jobs, start=first_req):
            self.jobs_conn.send({"type": "cancel", "job_id": job_id,
                                 "req": req})
        return len(jobs)

    def frame(self, req: int, op: dict, due: float) -> dict | None:
        """The frame for one scheduled operation (None: nothing to target)."""
        kind = op["kind"]
        with self.lock:
            if kind == "submit":
                frame = {"type": "submit", "tenant": op["tenant"],
                         "workload": op["workload"], "scale": "tiny"}
            else:
                pool = self.open_jobs if kind == "cancel" else self.known_jobs
                if not pool:
                    return None
                job_id = pool[int(op["pick"] * len(pool))]
                if kind == "cancel":
                    self.open_jobs.remove(job_id)
                frame = {"type": kind, "job_id": job_id}
            frame["req"] = req
            self.requests[req] = (kind, due)
        return frame


def warm(server: Server, tenant: str) -> None:
    """Greet the server, warm its pricing and fill it with a backlog.

    A program's first submission is priced by a full optimizer run; later
    ones hit the admission memo.  Users pay the first pricing once per
    server, not per request, so it belongs to set-up.  Then ``BACKLOG``
    large jobs of the low-weight ``bulk`` tenant are submitted in one
    pipelined burst: they hold the server at hundreds of running jobs for
    the whole window, so every scheduling event there pays for a full
    cluster rather than for a ramp that grows with the seed's luck.
    """
    wait_for_server(server.listen, TIMEOUT, server.proc)
    conn = connect(server.listen)
    try:
        welcome = conn.request({"type": "hello", "client": "perfbench"})
        if welcome is None or welcome.get("type") != "welcome":
            raise CheckFailed(f"no welcome from the server: {welcome}")
        for name, __ in PROGRAMS:
            conn.send({"type": "submit", "tenant": tenant,
                       "workload": name, "scale": "tiny"})
            server.warm_jobs.append(check_ack(conn.recv_until("ack")))
        for __ in range(BACKLOG):
            conn.send({"type": "submit", "tenant": BULK_TENANT,
                       "workload": BACKLOG_PROGRAM, "scale": "tiny"})
        for __ in range(BACKLOG):
            server.warm_jobs.append(check_ack(conn.recv_until("ack")))
    finally:
        conn.close()


def check_ack(ack: dict) -> str:
    """The acked job's id; a refused set-up submit fails the run."""
    if ack.get("state") == "rejected":
        raise CheckFailed(f"set-up submit refused: {ack}")
    return ack["job_id"]


def session(server: Server, schedule: list[dict]) -> dict:
    """Drive one server through the schedule, drain, stop and audit."""
    from repro.api import audit_journal

    try:
        jobs_conn = connect(server.listen)
        status_conn = connect(server.listen)
        client = Client(jobs_conn, status_conn)
        sent = client.drive(schedule)
        left_open = client.cancel_open(len(schedule),
                                       server.warm_jobs[len(PROGRAMS):])
        jobs_conn.send({"type": "drain"})
        if not client.drained.wait(TIMEOUT):
            raise CheckFailed("server did not drain the client's jobs")
        jobs_conn.send({"type": "bye"})
        status_conn.send({"type": "shutdown"})
        report = server.stop()
        # The server has exited, so both readers see the end of stream.
        for reader in client.readers:
            reader.join(TIMEOUT)
        jobs_conn.close()
        status_conn.close()
    finally:
        server.kill()
    audit = audit_journal(server.journal,
                          acked=server.warm_jobs + client.known_jobs)
    acked = len(server.warm_jobs) + len(client.known_jobs)
    problems = []
    if not audit.ok:
        problems.append(f"journal audit failed: {audit.to_doc()}")
    if audit.submitted != acked:
        problems.append(f"{acked} acks but {audit.submitted} journaled "
                        f"submissions")
    missing = [job for job in client.known_jobs if job not in client.results]
    if missing:
        problems.append(f"{len(missing)} acked jobs got no result")
    if client.requests:
        problems.append(f"{len(client.requests)} requests got no reply")
    if problems:
        raise CheckFailed("; ".join(problems))
    return {"client": client, "report": report, "sent": sent,
            "left_open": left_open,
            "audit": audit.to_doc(), "server": server}


def run(seed: int, seconds: float, tracer=None) -> dict:
    from tracing import load_summary

    directory = run_dir("serve")
    window = seconds / 2 if tracer is not None else seconds
    inputs = draw_inputs(seed, window)
    tenants_file = directory / "tenants.json"
    tenants_file.write_text(json.dumps(inputs["tenants"]), encoding="utf-8")

    def start(index: int, traced: bool = False) -> Server:
        server = Server(directory / f"server-{index}", tenants_file, traced)
        try:
            warm(server, "t000")
        except BaseException:
            server.kill()
            raise
        return server

    # Time each start-up.  All but the last server are killed untimed: a
    # clean shutdown would wait for their backlog to finish.
    setups = []
    for index in range(SETUP_REPEATS):
        started = time.perf_counter()
        server = start(index)
        setups.append(time.perf_counter() - started)
        if index < SETUP_REPEATS - 1:
            server.kill()
    setup_s = median(setups)
    plain = session(server, inputs["schedule"])
    client = plain["client"]
    latency = {op: [value * 1e3 for value in values]
               for op, values in client.latency.items()}
    out = {
        "setup_s": setup_s,
        "main_ms": statistics.fmean(latency["ack"]),
        "alt_ms": median(latency["result"]),
        "named": {
            "ack_p50_ms": (median(latency["ack"]), "ms"),
            "ack_p99_ms": (quantile(latency["ack"], 0.99), "ms"),
            "result_p50_ms": (median(latency["result"]), "ms"),
            "status_p99_ms": (quantile(latency["status"], 0.99), "ms"),
        },
        "attempted": plain["sent"],
        "failed": len(client.failures) + client.rejected,
        "details": {
            "offered_ops_per_s": RATE, "time_scale": TIME_SCALE,
            "sent": plain["sent"], "acked": len(client.known_jobs),
            "completed": len(latency["result"]),
            "peak_open_jobs": client.peak_open,
            "cancelled_after_window": plain["left_open"],
            "ack_samples": len(latency["ack"]),
            "status_samples": len(latency["status"]),
            "status_p50_ms": median(latency["status"]),
            "cancel_p50_ms": median(latency["cancel"]),
            "late_p99_ms": quantile(client.late, 0.99) * 1e3,
            "failures": client.failures[:5],
            "audit": plain["audit"],
        },
        "extra": {},
    }
    if tracer is not None:
        traced = session(start(SETUP_REPEATS, traced=True),
                         inputs["schedule"])
        report = traced["report"]
        server_doc = report["server"]
        stats = server_doc["server"]
        registry = report["registry"]
        total = server_doc["price_hits"] + server_doc["price_misses"]
        plain_cpu = plain["report"]["cpu_s"] / plain["sent"]
        traced_cpu = report["cpu_s"] / traced["sent"]
        out["extra"] = {
            "journal.bytes": server_doc["journal"]["bytes"],
            "journal.syncs": server_doc["journal"]["fsyncs"],
            "server.ticks": stats["ticks"],
            "server.tick_p50_ms": stats["tick_seconds"].get("p50", 0) * 1e3,
            "server.tick_p99_ms": stats["tick_seconds"].get("p99", 0) * 1e3,
            "server.batch_mean": (
                registry.get("server.batch_size.sum", 0.0)
                / max(1.0, registry.get("server.batch_size.count", 0.0))),
            "server.queue_wait_p99_ms": report["queue_wait_p99_ms"],
            "admission.memo_hit_ratio": (server_doc["price_hits"] / total
                                         if total else 0.0),
            "loadgen.late_p99_ms": quantile(traced["client"].late,
                                            0.99) * 1e3,
            "trace.overhead_pct": 100.0 * (traced_cpu / plain_cpu - 1.0),
        }
        spans = traced["server"].spans_path
        out["summary"] = load_summary(spans)
        spans.replace(WORK_DIR / "spans-serve.json")
        out["registry_totals"] = registry
    shutil.rmtree(directory, ignore_errors=True)
    return out

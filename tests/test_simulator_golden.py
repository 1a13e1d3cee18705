"""Golden timelines: the simulator's exact schedule, pinned bit for bit.

Every case below simulates a seeded synthetic DAG and reduces the outcome to
sha256 digests over every attempt — job, task, node, slot lane, start and
end as ``float.hex`` and status — plus the makespan and the node-loss
accounting.  A scheduler change that is meant to be a pure speed-up (a new
free-slot index, a cheaper dispatch loop) must leave every digest as it is;
any change to which node, which lane or which instant an attempt gets shows
up here, not as a drifted cost estimate three layers up.

The matrix covers FIFO and FAIR, locality on and off, 1/3/12/13 nodes (so
``m1.large-10`` sorts before ``m1.large-2``), 1/2/4 slots, speculation with
slow nodes, task failures with retries, random crashes and spot revocation
waves with a namenode, and aborts (quorum lost, retries exhausted).

The time model and DAGs are defined here, not borrowed from the cost model
or the compiler, so recalibrating either does not move the fixture.
Regenerate only after a deliberate change to scheduling semantics::

    PYTHONPATH=src python tests/test_simulator_golden.py --regenerate
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.cloud import ClusterSpec, get_instance_type
from repro.errors import SchedulingError
from repro.hadoop.faults import (
    RandomFailures,
    RandomNodeFailures,
    SpotRevocationWaves,
)
from repro.hadoop.job import Job, JobDag, JobKind
from repro.hadoop.simulator import FAIR, FIFO, ClusterSimulator
from repro.hadoop.task import TaskWork, make_map_task, make_reduce_task
from repro.hadoop.timemodel import TaskTimeModel
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode
from repro.observability import InMemoryRecorder, SOURCE_SIMULATED

FIXTURE = Path(__file__).parent / "fixtures" / "simulator_golden.json"

INSTANCE = "m1.large"


class ContendedTimeModel(TaskTimeModel):
    """Durations that depend on the work, the node's load and locality.

    Irregular per-task bases make event times distinct floats, so the
    digests see every rounding of the schedule; the concurrency and
    locality factors make the chosen node matter to the timeline.
    """

    def task_duration(self, task, instance, concurrency, local):
        base = 1.0 + (task.work.flops % 997) / 113.0
        factor = 1.0 + 0.35 * (concurrency - 1)
        return base * factor * (1.0 if local else 1.6)

    def job_overhead(self, job):
        return 0.25 + (len(job.map_tasks) % 5) * 0.125


def build_dag(seed, node_names, jobs=5, max_maps=18):
    """A seeded DAG of map-only and map-reduce jobs with random edges.

    Map tasks prefer 1-3 random cluster nodes; a few also name a node the
    cluster does not have, which the scheduler must simply never match.
    """
    rng = random.Random(seed)
    dag = JobDag()
    for index in range(jobs):
        job_id = f"j{index}"
        kind = (JobKind.MAPREDUCE if rng.random() < 0.4
                else JobKind.MAP_ONLY)
        maps = []
        for task_index in range(rng.randint(2, max_maps)):
            preferred = set(rng.sample(node_names,
                                       min(len(node_names),
                                           rng.randint(1, 3))))
            if rng.random() < 0.1:
                preferred.add("ghost-0")
            work = TaskWork(
                bytes_read=rng.randint(1, 1 << 20),
                flops=rng.randint(0, 10**6),
                shuffle_bytes=(rng.randint(1 << 26, 1 << 29)
                               if kind is JobKind.MAPREDUCE else 0))
            maps.append(make_map_task(f"{job_id}-m{task_index}", work,
                                      preferred_nodes=preferred))
        reduces = []
        if kind is JobKind.MAPREDUCE:
            reduces = [make_reduce_task(f"{job_id}-r{task_index}",
                                        TaskWork(flops=rng.randint(0, 10**6)))
                       for task_index in range(rng.randint(1, 4))]
        depends_on = {f"j{other}" for other in range(index)
                      if rng.random() < 0.3}
        dag.add(Job(job_id, kind, maps, reduces, depends_on=depends_on))
    return dag


def build_namenode(node_names, seed):
    rng = random.Random(f"hdfs:{seed}")
    namenode = NameNode(replication=min(2, len(node_names)))
    for name in node_names:
        namenode.register_datanode(DataNode(name, 10**12))
    for index in range(4):
        namenode.create(f"/input/f{index}",
                        rng.randint(1, 3) * 64 * 2**20,
                        writer=rng.choice(node_names))
    return namenode


def spec_for(nodes, slots):
    return ClusterSpec(get_instance_type(INSTANCE), nodes, slots)


def _matrix_cases():
    cases = {}
    for scheduling in (FIFO, FAIR):
        for locality in (True, False):
            for nodes in (1, 3, 12):
                for slots in (1, 2, 4):
                    name = (f"{scheduling}-{'local' if locality else 'any'}"
                            f"-n{nodes}-s{slots}")
                    cases[name] = dict(scheduling=scheduling,
                                       locality=locality, nodes=nodes,
                                       slots=slots, seed=nodes * 10 + slots)
    return cases


def _special_cases():
    cases = {}
    for scheduling in (FIFO, FAIR):
        cases[f"{scheduling}-speculative-slow"] = dict(
            scheduling=scheduling, nodes=13, slots=2, seed=101,
            speculative=True,
            slow_nodes={"m1.large-2": 4.0, "m1.large-10": 3.0,
                        "m1.large-7": 2.5})
        cases[f"{scheduling}-task-failures"] = dict(
            scheduling=scheduling, nodes=12, slots=2, seed=102,
            failures=dict(probability=0.2, seed=5, max_attempts=8))
        cases[f"{scheduling}-crashes-namenode"] = dict(
            scheduling=scheduling, nodes=12, slots=4, seed=103,
            crashes=dict(rate_per_hour=45.0, seed=7), namenode=True)
        cases[f"{scheduling}-spot-wave-namenode"] = dict(
            scheduling=scheduling, nodes=13, slots=2, seed=104,
            spot=dict(seed=3, victim_fraction=0.5, hour_seconds=6.0),
            namenode=True)
    cases["fifo-speculative-failures-crashes"] = dict(
        scheduling=FIFO, nodes=12, slots=2, seed=105, speculative=True,
        slow_nodes={"m1.large-1": 3.0, "m1.large-11": 2.0},
        failures=dict(probability=0.15, seed=9, max_attempts=20),
        crashes=dict(rate_per_hour=90.0, seed=2), namenode=True)
    cases["fifo-quorum-lost"] = dict(
        scheduling=FIFO, nodes=3, slots=2, seed=106,
        crashes=dict(rate_per_hour=400.0, seed=1), min_live_nodes=2)
    cases["fair-retries-exhausted"] = dict(
        scheduling=FAIR, nodes=3, slots=2, seed=107,
        failures=dict(probability=0.6, seed=4, max_attempts=2))
    return cases


CASES = {**_matrix_cases(), **_special_cases()}


def run_case(case):
    """Simulate one case and reduce its outcome to comparable values."""
    spec = spec_for(case["nodes"], case["slots"])
    names = spec.node_names()
    failures = (RandomFailures(**case["failures"])
                if "failures" in case else None)
    node_failures = None
    if "crashes" in case:
        node_failures = RandomNodeFailures(**case["crashes"])
    elif "spot" in case:
        node_failures = SpotRevocationWaves(**case["spot"])
    recorder = InMemoryRecorder(source=SOURCE_SIMULATED)
    simulator = ClusterSimulator(
        spec, ContendedTimeModel(),
        locality_aware=case.get("locality", True),
        failures=failures,
        speculative=case.get("speculative", False),
        slow_nodes=case.get("slow_nodes"),
        scheduling=case["scheduling"],
        recorder=recorder,
        node_failures=node_failures,
        min_live_nodes=case.get("min_live_nodes", 1),
        namenode=(build_namenode(names, case["seed"])
                  if case.get("namenode") else None))
    outcome = {}
    try:
        result = simulator.run(build_dag(case["seed"], names))
    except SchedulingError as error:
        outcome["error"] = f"{type(error).__name__}: {error}"
    else:
        attempts = hashlib.sha256()
        statuses = {}
        for job_id, timeline in result.job_timelines.items():
            attempts.update(f"{job_id}|{timeline.start.hex()}"
                            f"|{timeline.end.hex()}\n".encode())
            for attempt in timeline.attempts:
                attempts.update(
                    f"{job_id}|{attempt.task.task_id}|{attempt.node}"
                    f"|{attempt.start.hex()}|{attempt.end.hex()}"
                    f"|{attempt.status}|{attempt.concurrency_at_start}\n"
                    .encode())
                statuses[attempt.status] = statuses.get(attempt.status, 0) + 1
        outcome.update(
            attempts_sha256=attempts.hexdigest(),
            statuses=dict(sorted(statuses.items())),
            attempt_count=sum(statuses.values()),
            makespan=result.makespan.hex(),
            lost_nodes=[[f.node, f.at.hex(), f.cause]
                        for f in result.lost_nodes],
            rereplicated_bytes=result.rereplicated_bytes,
            reexecuted_tasks=result.reexecuted_tasks)
    # The trace carries each attempt's slot lane ("node:lane"), which the
    # timeline does not; it is recorded up to an abort, too.
    trace = hashlib.sha256()
    events = recorder.trace().events
    for event in events:
        trace.update(
            f"{event.job_id}|{event.task_id}|{event.phase}|{event.slot}"
            f"|{event.start.hex()}|{event.end.hex()}|{event.attempt}"
            f"|{event.status}|{event.bytes_read}|{event.label}\n".encode())
    outcome["trace_sha256"] = trace.hexdigest()
    outcome["trace_events"] = len(events)
    return outcome


def build_fixture():
    return {name: run_case(case) for name, case in CASES.items()}


def load_fixture():
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def golden():
    return load_fixture()


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_timeline_matches_golden(golden, name):
    assert run_case(CASES[name]) == golden[name]


def test_matrix_exercises_the_interesting_paths(golden):
    """Guard against a fixture that silently stopped testing anything."""
    errors = {name: case["error"] for name, case in golden.items()
              if "error" in case}
    assert errors["fifo-quorum-lost"].startswith("QuorumLostError")
    assert errors["fair-retries-exhausted"].startswith("SchedulingError")
    assert len(errors) == 2
    for policy in (FIFO, FAIR):
        assert golden[f"{policy}-speculative-slow"]["statuses"]["killed"]
        assert golden[f"{policy}-task-failures"]["statuses"]["failed"]
        assert golden[f"{policy}-crashes-namenode"]["statuses"]["lost"]
    assert any(case["lost_nodes"] for name, case in golden.items()
               if "crashes" in name)
    assert all(golden[f"{policy}-spot-wave-namenode"]["lost_nodes"]
               for policy in (FIFO, FAIR))
    assert any(case["rereplicated_bytes"] > 0
               for case in golden.values() if "error" not in case)
    assert any(case["reexecuted_tasks"] > 0
               for case in golden.values() if "error" not in case)


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        with open(FIXTURE, "w", encoding="utf-8") as handle:
            json.dump(build_fixture(), handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {FIXTURE}")
    else:
        print(__doc__)

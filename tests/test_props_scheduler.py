"""Property-based tests: scheduler invariants for arbitrary workloads."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import ClusterSpec, get_instance_type
from repro.hadoop.job import Job, JobDag, JobKind
from repro.hadoop.simulator import ClusterSimulator, _FreeNodes, _NodeState
from repro.hadoop.task import TaskWork, make_map_task
from repro.hadoop.timemodel import TaskTimeModel


class VariableTimeModel(TaskTimeModel):
    """Deterministic per-task durations derived from the task id."""

    def __init__(self, durations):
        self.durations = durations

    def task_duration(self, task, instance, concurrency, local):
        return self.durations[task.task_id]

    def job_overhead(self, job):
        return 0.0


def build_dag(durations_per_job):
    dag = JobDag()
    previous = None
    durations = {}
    for job_index, task_durations in enumerate(durations_per_job):
        tasks = []
        for task_index, duration in enumerate(task_durations):
            task_id = f"j{job_index}t{task_index}"
            durations[task_id] = duration
            tasks.append(make_map_task(task_id, TaskWork()))
        deps = {f"job{previous}"} if previous is not None else set()
        dag.add(Job(f"job{job_index}", JobKind.MAP_ONLY, tasks,
                    depends_on=deps))
        previous = job_index
    return dag, durations


DURATIONS = st.lists(
    st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1,
             max_size=12),
    min_size=1, max_size=4,
)


@given(durations_per_job=DURATIONS, nodes=st.integers(1, 4),
       slots=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_all_tasks_run_exactly_once(durations_per_job, nodes, slots):
    dag, durations = build_dag(durations_per_job)
    spec = ClusterSpec(get_instance_type("m1.large"), nodes, min(slots, 4))
    result = ClusterSimulator(spec, VariableTimeModel(durations)).run(dag)
    ran = [attempt.task.task_id
           for timeline in result.job_timelines.values()
           for attempt in timeline.attempts]
    assert sorted(ran) == sorted(durations)


@given(durations_per_job=DURATIONS, nodes=st.integers(1, 3),
       slots=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_no_slot_oversubscription(durations_per_job, nodes, slots):
    dag, durations = build_dag(durations_per_job)
    slots = min(slots, 4)
    spec = ClusterSpec(get_instance_type("m1.large"), nodes, slots)
    result = ClusterSimulator(spec, VariableTimeModel(durations)).run(dag)
    events = []
    for timeline in result.job_timelines.values():
        for attempt in timeline.attempts:
            events.append((attempt.start, 1, attempt.node))
            events.append((attempt.end, -1, attempt.node))
    # Process departures before arrivals at equal timestamps.
    events.sort(key=lambda event: (event[0], event[1]))
    load = {}
    for __, delta, node in events:
        load[node] = load.get(node, 0) + delta
        assert 0 <= load[node] <= slots


@given(durations_per_job=DURATIONS)
@settings(max_examples=40, deadline=None)
def test_makespan_not_worse_with_more_slots(durations_per_job):
    dag1, durations = build_dag(durations_per_job)
    dag2, __ = build_dag(durations_per_job)
    model = VariableTimeModel(durations)
    small = ClusterSimulator(
        ClusterSpec(get_instance_type("m1.large"), 1, 1), model).run(dag1)
    large = ClusterSimulator(
        ClusterSpec(get_instance_type("m1.large"), 4, 4), model).run(dag2)
    assert large.makespan <= small.makespan + 1e-9


@given(durations_per_job=DURATIONS, nodes=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_makespan_bounds(durations_per_job, nodes):
    """Makespan is at least the critical path's serial work / slots, and at
    most the total serial work (for any schedule without idling bugs)."""
    dag, durations = build_dag(durations_per_job)
    spec = ClusterSpec(get_instance_type("m1.large"), nodes, 2)
    result = ClusterSimulator(spec, VariableTimeModel(durations)).run(dag)
    total_work = sum(durations.values())
    longest_task = max(durations.values())
    assert result.makespan >= longest_task - 1e-9
    assert result.makespan >= total_work / spec.total_slots - 1e-9
    assert result.makespan <= total_work + 1e-6


@given(durations_per_job=DURATIONS, nodes=st.integers(1, 3),
       slots=st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_simulation_is_deterministic(durations_per_job, nodes, slots):
    results = []
    for __ in range(2):
        dag, durations = build_dag(durations_per_job)
        spec = ClusterSpec(get_instance_type("m1.large"), nodes, slots)
        result = ClusterSimulator(spec, VariableTimeModel(durations)).run(dag)
        results.append(result.makespan)
    assert results[0] == pytest.approx(results[1], abs=0)


def brute_force_pick(nodes, preferred):
    """The scheduler's rule, spelled out: least ``(busy, name)`` among the
    free live nodes, preferring the task's preferred nodes when one of
    them is free."""
    free = [node for node in nodes if node.alive and node.busy < node.slots]
    local = [node for node in free if node.name in preferred]
    candidates = local or free
    if not candidates:
        return None
    return min(candidates, key=lambda node: (node.busy, node.name))


OPERATIONS = st.lists(
    st.tuples(st.sampled_from(["start", "start", "finish", "lose"]),
              st.integers(0, 10**6),
              st.frozensets(st.integers(0, 24), max_size=3)),
    max_size=80,
)


@given(num_nodes=st.integers(1, 20), slots=st.integers(1, 4),
       operations=OPERATIONS)
@settings(max_examples=150, deadline=None)
def test_free_node_index_matches_brute_force(num_nodes, slots, operations):
    """Under any sequence of attempt starts, finishes and node losses, the
    index picks exactly what a scan of every node would, and never a full
    or dead node.  Names like ``m1.large-10`` < ``m1.large-2`` make string
    order differ from numeric order; preferred names past the cluster size
    name nodes that do not exist."""
    nodes = [_NodeState(f"m1.large-{index}", slots)
             for index in range(num_nodes)]
    index = _FreeNodes(nodes, slots)
    running: list[_NodeState] = []
    for operation, choice, preferred_ids in operations:
        preferred = frozenset(f"m1.large-{i}" for i in preferred_ids)
        if operation == "start":
            picked = index.pick(preferred)
            assert picked is brute_force_pick(nodes, preferred)
            assert index.pick() is brute_force_pick(nodes, frozenset())
            if picked is None:
                continue
            assert picked.alive and picked.busy < picked.slots
            index.occupy(picked)
            running.append(picked)
        elif operation == "finish" and running:
            index.vacate(running.pop(choice % len(running)))
        elif operation == "lose":
            node = nodes[choice % num_nodes]
            if not node.alive:
                continue
            index.remove(node)
            # The simulator voids the dead node's attempts at once.
            for attempt_node in [n for n in running if n is node]:
                running.remove(attempt_node)
                index.vacate(attempt_node)
        assert index.has_free() == any(node.alive and node.busy < node.slots
                                  for node in nodes)
        for busy, mask in enumerate(index.buckets):
            assert mask == sum(node.bit for node in nodes
                               if node.alive and node.busy == busy)

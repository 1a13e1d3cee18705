"""Local executor: really runs a job DAG's tasks.

The same :class:`~repro.hadoop.job.JobDag` the simulator prices can be
*executed* here: each task's ``run`` callable performs its real tile-level
linear algebra against the tile store.  Concurrency mirrors the cluster's
total slot count via a thread pool (numpy releases the GIL in its kernels, so
a pool gives genuine overlap), and job dependencies are honoured.

This path is what the correctness tests and the "actual" side of the
model-accuracy experiment (E4) use.  When given a
:class:`~repro.observability.trace.TraceRecorder` it emits the same
:class:`~repro.observability.trace.TraceEvent` schema the simulator does —
one event per task attempt, tagged with the worker slot that ran it — so a
real run and a simulated run of one DAG are directly diffable.

Failure semantics: each attempt that fails is retried per the executor's
:class:`RetryPolicy` (exponential backoff with deterministic seeded jitter,
optional per-task timeout); once a task exhausts its attempts, the first
task exception wins.  Queued tasks that have not started yet are cancelled,
in-flight tasks are allowed to drain (Python threads cannot be interrupted),
and the failure propagates as :class:`~repro.errors.ExecutionError` once the
pool is quiescent — never a hang, and the partial trace stays well-formed
(every failed attempt is recorded with ``status="failed"`` and its attempt
index).

Fault injection: a :class:`FaultInjector` hook fires before each attempt's
real work, so chaos tests can kill precise (task, attempt) pairs — the same
crash surface :mod:`repro.core.checkpoint` recovers from.

Backends: ``backend="thread"`` (the default, and the reference semantics)
runs every kernel in-process.  ``backend="process"`` keeps the *same*
thread-pool orchestration — identical scheduling, retry, timeout, fault
injection, and trace events — but installs a
:class:`~repro.hadoop.procpool.ProcessDispatcher` for the duration of the
run, so tasks that can express their arithmetic as a declarative
:class:`~repro.hadoop.kernels.BlockPlan` (tiled multiplies, partial-sum
adds) batch it into one shared-memory round-trip to a pool of worker
processes.  Tasks that cannot (fused element-wise lambdas, test closures)
run inline exactly as the thread backend would, which is what makes the two
backends differentially testable: same tasks, same trace, bit-identical
tiles.
"""

from __future__ import annotations

import heapq
import random
import threading
import time
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field

from repro.errors import (
    ExecutionError,
    FaultInjectionError,
    TaskTimeoutError,
    ValidationError,
)
from repro.hadoop.job import Job, JobDag
from repro.observability.metrics import NULL_METRICS, MetricsRegistry
from repro.observability.trace import (
    NULL_RECORDER,
    STATUS_FAILED,
    STATUS_SUCCESS,
    TraceEvent,
    TraceRecorder,
)


@dataclass(frozen=True)
class RetryPolicy:
    """How the local executor retries failing task attempts.

    The default (one attempt, no delay) matches the executor's historical
    fail-fast behaviour.  Backoff delays are deterministic: the jitter for
    (task, attempt) is a pure function of ``seed``, so two runs with one
    policy sleep identically — the property tests rely on it.

    ``timeout_seconds`` is checked *after* an attempt finishes (Python
    threads cannot be preempted): an attempt that ran too long is treated
    as failed even if it returned, exactly like Hadoop's task timeout
    killing a task that stopped reporting progress.
    """

    max_attempts: int = 1
    backoff_seconds: float = 0.0
    backoff_factor: float = 2.0
    jitter_fraction: float = 0.1
    max_backoff_seconds: float = 30.0
    timeout_seconds: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValidationError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_seconds < 0:
            raise ValidationError("backoff_seconds must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValidationError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ValidationError("jitter_fraction must be in [0, 1]")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValidationError("timeout_seconds must be positive")

    def delay_before(self, task_id: str, attempt: int) -> float:
        """Seconds to sleep before retry ``attempt`` (attempt >= 1)."""
        if attempt < 1 or self.backoff_seconds == 0:
            return 0.0
        base = min(self.backoff_seconds * self.backoff_factor ** (attempt - 1),
                   self.max_backoff_seconds)
        rng = random.Random(f"{self.seed}:{task_id}:{attempt}")
        jitter = 1.0 + self.jitter_fraction * (2.0 * rng.random() - 1.0)
        return base * jitter


#: Fail-fast default: a single attempt, exactly the historical behaviour.
NO_RETRY = RetryPolicy()


class FaultInjector:
    """Hook called before each attempt's real work; raise to kill it."""

    def before_attempt(self, task_id: str, attempt: int) -> None:
        raise NotImplementedError


class ScriptedFaults(FaultInjector):
    """Kill exact (task_id, attempt) pairs — precise chaos control."""

    def __init__(self, failures: set[tuple[str, int]]):
        self.failures = set(failures)

    def before_attempt(self, task_id: str, attempt: int) -> None:
        if (task_id, attempt) in self.failures:
            raise FaultInjectionError(
                f"injected fault: task {task_id} attempt {attempt}")


class CrashAfterCalls(FaultInjector):
    """Let ``calls`` attempts start, then kill every subsequent one.

    Models a process crash partway through a run — the scenario
    checkpoint/resume exists for.  Thread-safe; ``reset()`` re-arms it.
    """

    def __init__(self, calls: int):
        if calls < 0:
            raise ValidationError(f"calls must be >= 0, got {calls}")
        self.calls = calls
        self._remaining = calls
        self._lock = threading.Lock()

    def reset(self) -> None:
        with self._lock:
            self._remaining = self.calls

    def before_attempt(self, task_id: str, attempt: int) -> None:
        with self._lock:
            if self._remaining <= 0:
                raise FaultInjectionError(
                    f"injected crash: task {task_id} attempt {attempt} "
                    f"(budget of {self.calls} calls exhausted)")
            self._remaining -= 1


@dataclass
class LocalJobReport:
    """Wall-clock measurements for one executed job."""

    job_id: str
    seconds: float
    num_tasks: int


@dataclass
class LocalRunReport:
    """Wall-clock measurements for one executed job DAG."""

    job_reports: list[LocalJobReport] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(report.seconds for report in self.job_reports)


class _SlotPool:
    """Thread-safe pool of worker-slot indices.

    The executor has at most ``max_workers`` tasks in flight, so acquisition
    never blocks; the min-heap hands out the lowest free index, which keeps
    slot names stable across runs.
    """

    def __init__(self, count: int):
        self._free = list(range(count))
        self._lock = threading.Lock()

    def acquire(self) -> int:
        with self._lock:
            return heapq.heappop(self._free)

    def release(self, slot: int) -> None:
        with self._lock:
            heapq.heappush(self._free, slot)


#: Executor backends: in-process kernels vs. a shared-memory process pool.
BACKEND_THREAD = "thread"
BACKEND_PROCESS = "process"
BACKENDS = (BACKEND_THREAD, BACKEND_PROCESS)


class LocalExecutor:
    """Executes job DAGs with real computation on a thread pool.

    With ``backend="process"``, CPU-bound tile kernels additionally batch
    out to a pool of worker processes over shared memory (see the module
    docstring); orchestration, retries, and traces are identical across
    backends by construction.  The kernel pool is created lazily on the
    first run, kept warm across runs, and torn down by :meth:`close` (or
    automatically at interpreter exit).
    """

    def __init__(self, max_workers: int = 4,
                 recorder: TraceRecorder = NULL_RECORDER,
                 metrics: MetricsRegistry = NULL_METRICS,
                 retry_policy: RetryPolicy | None = None,
                 fault_injector: FaultInjector | None = None,
                 backend: str = BACKEND_THREAD):
        if max_workers <= 0:
            raise ExecutionError("max_workers must be positive")
        if backend not in BACKENDS:
            raise ValidationError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}")
        self.max_workers = max_workers
        self.recorder = recorder
        self.metrics = metrics
        self.retry_policy = retry_policy if retry_policy is not None \
            else NO_RETRY
        self.fault_injector = fault_injector
        self.backend = backend
        self._kernel_pool = None

    def kernel_pool(self):
        """The lazily-created process pool (process backend only)."""
        if self.backend != BACKEND_PROCESS:
            return None
        if self._kernel_pool is None:
            from repro.hadoop.procpool import KernelPool
            self._kernel_pool = KernelPool(self.max_workers,
                                           metrics=self.metrics)
        return self._kernel_pool

    def close(self) -> None:
        """Shut down the kernel pool, if one was started."""
        if self._kernel_pool is not None:
            self._kernel_pool.close()
            self._kernel_pool = None

    def run(self, dag: JobDag) -> LocalRunReport:
        """Execute all jobs in dependency order; returns timing report.

        For the run's duration BLAS is held to each of the ``max_workers``
        kernel callers' share of the cores (see :mod:`repro.hadoop.blas`);
        the process backend's workers hold the same budget on their own.
        """
        from repro.hadoop import blas

        metrics = self.metrics
        if metrics.enabled:
            metrics.inc(f"local.runs.{self.backend}")
        with blas.limit_threads(blas.thread_budget(self.max_workers)) \
                as threads:
            if threads is not None and metrics.enabled:
                metrics.set_gauge("local.blas_threads", threads,
                                  labels={"backend": self.backend})
            if self.backend == BACKEND_PROCESS:
                from repro.hadoop import kernels
                from repro.hadoop.procpool import ProcessDispatcher
                dispatcher = ProcessDispatcher(self.kernel_pool(), metrics,
                                               recorder=self.recorder)
                with kernels.use_dispatcher(dispatcher):
                    return self._run_dag(dag)
            return self._run_dag(dag)

    def _run_dag(self, dag: JobDag) -> LocalRunReport:
        report = LocalRunReport()
        finished: set[str] = set()
        slots = _SlotPool(self.max_workers)
        # One pool serves every phase of the run, so no job pays for
        # starting and joining threads; they start on first use.
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            for job in dag.topological_order():
                missing = job.depends_on - finished
                if missing:
                    raise ExecutionError(
                        f"job {job.job_id} scheduled before dependencies "
                        f"{missing}")
                report.job_reports.append(self._run_job(job, slots, pool))
                finished.add(job.job_id)
        return report

    def _run_job(self, job: Job, slots: _SlotPool,
                 pool: ThreadPoolExecutor) -> LocalJobReport:
        started = time.perf_counter()
        # Map phase, then (for MapReduce jobs) reduce phase — a real barrier,
        # matching Hadoop semantics.
        self._run_phase(job, job.map_tasks, slots, pool)
        self._run_phase(job, job.reduce_tasks, slots, pool)
        elapsed = time.perf_counter() - started
        if self.metrics.enabled:
            self.metrics.inc("local.jobs_completed")
            self.metrics.observe("local.job_seconds", elapsed)
        return LocalJobReport(job.job_id, elapsed, job.num_tasks)

    def _run_phase(self, job: Job, tasks, slots: _SlotPool,
                   pool: ThreadPoolExecutor) -> None:
        runnable = [task for task in tasks if task.run is not None]
        if not runnable:
            return
        if self.max_workers == 1 or len(runnable) == 1:
            for task in runnable:
                self._invoke(job, task, slots)
            return
        futures = [pool.submit(self._invoke, job, task, slots)
                   for task in runnable]
        # Stop dispatching as soon as anything fails: cancel what has not
        # started and raise the first error; leaving the run's pool lets
        # running tasks drain before the error escapes ``run``.
        __, not_done = wait(futures, return_when=FIRST_EXCEPTION)
        for future in not_done:
            future.cancel()
        for future in futures:
            if not future.cancelled():
                future.result()  # propagate the first failure

    def _invoke(self, job: Job, task, slots: _SlotPool) -> None:
        """Run one task to completion, retrying per the policy.

        Raises :class:`~repro.errors.ExecutionError` once the task has
        exhausted its attempts.
        """
        policy = self.retry_policy
        for attempt in range(policy.max_attempts):
            if attempt > 0:
                delay = policy.delay_before(task.task_id, attempt)
                if delay > 0:
                    time.sleep(delay)
                if self.metrics.enabled:
                    self.metrics.inc("local.task_retries")
            try:
                self._run_attempt(job, task, slots, attempt)
                return
            except ExecutionError:
                if attempt + 1 >= policy.max_attempts:
                    raise

    def _run_attempt(self, job: Job, task, slots: _SlotPool,
                     attempt: int) -> None:
        recorder = self.recorder
        metrics = self.metrics
        policy = self.retry_policy
        slot = slots.acquire()
        if metrics.enabled:
            inflight = metrics.gauge("local.inflight_tasks")
            inflight.add(1)
            # Series and gauge kinds cannot share a name in one registry.
            metrics.sample("local.inflight_tasks.samples", inflight.value)
            started_wall = metrics.now()
        start = recorder.now() if recorder.enabled else 0.0
        attempt_started = time.perf_counter()
        status = STATUS_SUCCESS
        try:
            if self.fault_injector is not None:
                self.fault_injector.before_attempt(task.task_id, attempt)
            task.run()
            if policy.timeout_seconds is not None:
                elapsed = time.perf_counter() - attempt_started
                if elapsed > policy.timeout_seconds:
                    # Post-hoc enforcement: the thread could not be
                    # preempted, but the attempt still counts as failed.
                    raise TaskTimeoutError(
                        f"task {task.task_id} of job {job.job_id} took "
                        f"{elapsed:.3f}s, over the {policy.timeout_seconds}s "
                        f"timeout")
        except ExecutionError:
            status = STATUS_FAILED
            raise
        except Exception as exc:
            status = STATUS_FAILED
            raise ExecutionError(
                f"task {task.task_id} of job {job.job_id} failed: {exc}"
            ) from exc
        finally:
            if metrics.enabled:
                inflight = metrics.gauge("local.inflight_tasks")
                inflight.add(-1)
                metrics.sample("local.inflight_tasks.samples", inflight.value)
                metrics.observe("local.task_seconds",
                                metrics.now() - started_wall)
                if status == STATUS_SUCCESS:
                    metrics.inc("local.tasks_completed")
                    metrics.inc("local.bytes_read", task.work.bytes_read)
                    metrics.inc("local.bytes_written",
                                task.work.bytes_written)
                else:
                    metrics.inc("local.task_failures")
            if recorder.enabled:
                recorder.record(TraceEvent(
                    job_id=job.job_id,
                    task_id=task.task_id,
                    phase=task.kind.value,
                    slot=f"worker:{slot}",
                    start=start,
                    end=recorder.now(),
                    bytes_read=task.work.bytes_read,
                    bytes_written=task.work.bytes_written,
                    attempt=attempt,
                    status=status,
                    label=task.label,
                ))
            slots.release(slot)

"""The BLAS thread budget (repro.hadoop.blas) and its executor wiring.

Most tests substitute a fake library for numpy's OpenBLAS, so they check
the budget rule and the process-wide reference count without depending on
which BLAS this numpy links.  The last class touches the real library
where there is one, and spawns kernel workers only behind the
``process_backend`` gate.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro

from repro.errors import ExecutionError
from repro.hadoop import blas
from repro.hadoop.job import Job, JobDag, JobKind
from repro.hadoop.local import LocalExecutor
from repro.hadoop.task import TaskWork, make_map_task
from repro.observability import InMemoryRecorder, MetricsRegistry, \
    SOURCE_ACTUAL, profile_trace


class FakeBlas(blas.OpenBlas):
    """An OpenBLAS stand-in that records every thread-count change."""

    def __init__(self, threads):
        self.count = threads
        self.calls = []
        super().__init__(lambda: self.count, self._set)

    def _set(self, threads):
        self.calls.append(threads)
        self.count = threads


@pytest.fixture
def fake(monkeypatch):
    """A fake 8-thread OpenBLAS on a host with 4 usable cores."""
    library = FakeBlas(8)
    monkeypatch.setattr(blas, "openblas", lambda: library)
    monkeypatch.setattr(blas, "usable_cores", lambda: 4)
    return library


def one_job_dag(*runs):
    tasks = [make_map_task(f"t{index}", TaskWork(), run=run)
             for index, run in enumerate(runs)]
    return JobDag([Job("j", JobKind.MAP_ONLY, tasks)])


class TestBudget:
    def test_budget_is_each_callers_share_of_the_cores(self, monkeypatch):
        monkeypatch.setattr(blas, "usable_cores", lambda: 4)
        assert [blas.thread_budget(n) for n in (1, 2, 3, 4, 8)] \
            == [4, 2, 1, 1, 1]

    def test_usable_cores_is_positive(self):
        assert blas.usable_cores() >= 1


class TestExecutorLimit:
    def test_limit_holds_inside_run_and_is_restored(self, fake):
        seen = []
        LocalExecutor(max_workers=2).run(
            one_job_dag(lambda: seen.append(fake.threads())))
        assert seen == [2]
        assert fake.threads() == 8
        assert fake.calls == [2, 8]

    def test_limit_is_restored_after_a_task_raises(self, fake):
        def explode():
            raise RuntimeError("boom")

        with pytest.raises(ExecutionError, match="boom"):
            LocalExecutor(max_workers=4).run(one_job_dag(explode))
        assert fake.threads() == 8
        assert fake.calls == [1, 8]

    def test_concurrent_runs_restore_exactly_once(self, fake):
        inside = threading.Barrier(2, timeout=10)
        seen = []

        def meet():
            inside.wait()
            seen.append(fake.threads())

        errors = []

        def run(workers):
            try:
                LocalExecutor(max_workers=workers).run(one_job_dag(meet))
            except Exception as error:  # reported below
                errors.append(error)

        threads = [threading.Thread(target=run, args=(workers,))
                   for workers in (2, 4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
            assert not thread.is_alive()
        assert errors == []
        assert fake.threads() == 8
        assert fake.calls.count(8) == 1
        assert fake.calls[-1] == 8
        # With both runs inside, the tighter budget holds for both.
        assert seen == [1, 1]

    def test_budget_never_raises_the_configured_count(self, fake):
        fake.count = 1  # as if OPENBLAS_NUM_THREADS=1
        seen = []
        LocalExecutor(max_workers=1).run(
            one_job_dag(lambda: seen.append(fake.threads())))
        assert seen == [1]
        assert fake.calls == []

    def test_gauge_and_profile_report_the_budget(self, fake):
        registry = MetricsRegistry()
        recorder = InMemoryRecorder(source=SOURCE_ACTUAL)
        executor = LocalExecutor(max_workers=2, metrics=registry,
                                 recorder=recorder)
        executor.run(one_job_dag(lambda: None))
        [gauge] = [metric for metric in registry.metrics()
                   if metric.name == "local.blas_threads"]
        assert gauge.value == 2
        assert gauge.label_dict() == {"backend": "thread"}
        profile = profile_trace(recorder.trace(), registry=registry)
        assert profile.blas_threads == 2
        assert profile.to_document()["blas_threads"] == 2


class TestWithoutOpenBlas:
    def test_run_changes_nothing(self, monkeypatch):
        monkeypatch.setattr(blas, "openblas", lambda: None)
        registry = MetricsRegistry()
        done = []
        LocalExecutor(max_workers=2, metrics=registry).run(
            one_job_dag(lambda: done.append(True)))
        assert done == [True]
        assert not [metric for metric in registry.metrics()
                    if metric.name == "local.blas_threads"]
        with blas.limit_threads(1) as threads:
            assert threads is None
        assert blas.apply_budget(1) is None
        assert blas.current_threads() is None

    def test_a_library_without_the_symbols_is_not_openblas(self,
                                                         monkeypatch):
        monkeypatch.setattr(blas.ctypes, "CDLL", lambda path: object())
        assert blas._find_openblas() is None


class TestRealLibrary:
    def test_importing_the_api_does_not_touch_blas(self):
        probe = ("import sys, repro.api\n"
                 "module = sys.modules.get('repro.hadoop.blas')\n"
                 "print(module is None or not module._resolved)\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).parents[1]))
        completed = subprocess.run([sys.executable, "-c", probe], env=env,
                                   capture_output=True, text=True,
                                   timeout=120, check=True)
        assert completed.stdout.strip() == "True"

    def test_limit_applies_to_numpys_blas(self):
        before = blas.current_threads()
        if before is None:
            pytest.skip("numpy does not link OpenBLAS here")
        with blas.limit_threads(1) as threads:
            assert threads == 1
            assert blas.current_threads() == 1
        assert blas.current_threads() == before

    @pytest.mark.process_backend
    def test_kernel_workers_report_the_budget(self):
        from repro.hadoop.procpool import KernelPool

        parent = blas.current_threads()
        if parent is None:
            pytest.skip("numpy does not link OpenBLAS here")
        pool = KernelPool(2)
        try:
            reported = pool.blas_threads()
        finally:
            pool.close()
        assert reported == [min(blas.thread_budget(2), parent)] * 2

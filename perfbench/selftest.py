"""Self-tests of the benchmark: its gate passes, fails and checks outputs.

Run from the root of a checkout (about a minute)::

    python3 perfbench/selftest.py

* identical sets of runs pass the ``BENCHMARK.json`` gate;
* a synthetic 2x slowdown of one metric fails it;
* a wrong output fails the command, on every workload: a perturbed GNMF
  result, a plan that differs from its committed digest, and a journal
  audit that finds a lost job each make ``run.py`` print
  ``"correct": false`` and exit 1.  The workloads run shrunk here, so the
  tests take seconds rather than a full run each.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import unittest

from common import benchmark_spec, require_source

require_source()

import compare  # noqa: E402
import run  # noqa: E402
import wl_execute  # noqa: E402
import wl_plan  # noqa: E402
import wl_serve  # noqa: E402


#: A GNMF small enough for seconds.  At rank 32 the two backends differ in
#: the last bits of W and H, so the unbroken run would fail there too; see
#: "Program defects" in README.md.
SMALL_GNMF = ((wl_execute, "ROWS", 1024), (wl_execute, "COLS", 512),
              (wl_execute, "RANK", 64))


def synthetic_runs(seed: int, count: int = 10) -> list[dict]:
    """``count`` passing result lines with 1% noise around fixed values."""
    rng = random.Random(seed)
    base = {entry["name"]: 100.0 * (index + 1)
            for index, entry in enumerate(benchmark_spec()["end_to_end"])}
    return [{"correct": True, "attempted": 10, "failed": 0,
             "metrics": {name: {"value": value * rng.uniform(0.99, 1.01),
                                "unit": "x"}
                         for name, value in base.items()}}
            for __ in range(count)]


def run_command(argv: list[str]) -> tuple[int, dict]:
    """``run.main`` in-process: (exit code, parsed last output line)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run.main(argv)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


class Patch:
    """Set attributes for the duration of a ``with`` block."""

    def __init__(self, *triples):
        self.triples = triples
        self.saved = []

    def __enter__(self):
        for owner, name, value in self.triples:
            self.saved.append((owner, name, getattr(owner, name)))
            setattr(owner, name, value)

    def __exit__(self, *exc):
        for owner, name, value in reversed(self.saved):
            setattr(owner, name, value)


class GateTest(unittest.TestCase):

    def test_identical_runs_pass(self):
        runs = synthetic_runs(1)
        rows = compare.judge(runs, baseline=runs)
        self.assertTrue(all(row["ok"] for row in rows), rows)

    def test_repeat_of_the_same_code_passes(self):
        rows = compare.judge(synthetic_runs(2), baseline=synthetic_runs(3))
        self.assertTrue(all(row["ok"] for row in rows), rows)

    def test_twofold_slowdown_of_one_metric_fails(self):
        baseline = synthetic_runs(4)
        slow = json.loads(json.dumps(synthetic_runs(5)))
        for result in slow:
            result["metrics"]["main_ms"]["value"] *= 2.0
        rows = {row["metric"]: row
                for row in compare.judge(slow, baseline=baseline)}
        self.assertFalse(rows["main_ms"]["ok"])
        self.assertAlmostEqual(rows["main_ms"]["worse_by"], 1.0,
                               delta=0.05)
        others = [row for name, row in rows.items() if name != "main_ms"]
        self.assertTrue(all(row["ok"] for row in others), others)

    def test_failed_output_check_fails_the_gate(self):
        runs = synthetic_runs(6)
        runs[3]["correct"] = False
        self.assertFalse(any(row["ok"] for row in compare.judge(runs)))


class OutputCheckTest(unittest.TestCase):
    """A wrong output makes the command exit 1 with ``correct: false``."""

    def assert_fails(self, workload: str):
        code, result = run_command(["--workload", workload, "--seed", "1",
                                    "--seconds", "1", "--trace", "0"])
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])

    def test_execute_wrong_output(self):
        from repro.api import CumulonExecutor

        original = CumulonExecutor.run

        def wrong(self, program, inputs=None):
            result = original(self, program, inputs)
            if "W" in result.outputs and self.backend == "process":
                result.outputs["W"] = result.outputs["W"] * (1 + 1e-6)
            return result

        with Patch(*SMALL_GNMF, (wl_execute, "SEGMENTS", 1),
                   (CumulonExecutor, "run", wrong)):
            self.assert_fails("execute")

    def test_execute_passes_unbroken(self):
        with Patch(*SMALL_GNMF, (wl_execute, "SEGMENTS", 1)):
            code, result = run_command(["--workload", "execute", "--seed",
                                        "1", "--seconds", "1", "--trace",
                                        "0"])
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])

    def test_plan_wrong_plan(self):
        one = wl_plan.draw_inputs(1)
        cheap = [entry for entry in one if entry[0] == "rsvd"]
        digest = wl_plan.plan_digest
        with Patch((wl_plan, "draw_inputs", lambda seed: cheap),
                   (wl_plan, "SETUP_REPEATS", 1),
                   (wl_plan, "plan_digest",
                    lambda plan: "0" + digest(plan)[1:])):
            self.assert_fails("plan")

    def test_serve_lost_job(self):
        from repro.api import audit_journal

        def lossy(directory, acked=None):
            audit = audit_journal(directory, acked=acked)
            audit.lost += 1
            return audit

        import repro.api

        with Patch((wl_serve, "SETUP_REPEATS", 1),
                   (wl_serve, "PROGRAMS", (("multiply", 1.0),)),
                   (repro.api, "audit_journal", lossy)):
            self.assert_fails("serve")


if __name__ == "__main__":
    unittest.main()

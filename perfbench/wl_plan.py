"""The ``plan`` workload: cold deployment searches over the whole catalog.

For every catalog program at ``medium`` scale, on the E27 grid (4 instance
types x 12 node counts x 3 slot options x 2 matmul splits), one pass runs
five ``search()`` calls, each on a fresh optimizer so every cache starts
cold:

1. exhaustive min-time under a budget;
2. exhaustive min-cost at a deadline derived from that answer;
3. surrogate min-cost at the same deadline;
4. and 5. surrogate reliable min-cost at two more derived deadlines.

The seed picks the program order, each program's budget and its min-cost
deadline factor from fixed menus.  Both reliable deadline factors run for
every program because the surrogate's work depends strongly on them, and
a seed should change the order and the answers, not the amount of work.
Every combination's plan is committed in ``plan_digests.json`` (see
``regen_digests.py``), so each chosen plan is checked exactly.  The file
also holds the exhaustive plan for every surrogate search; where the two
differ, the run reports it (``surrogate_plans_differing``) rather than
failing, because on this grid the surrogate misses the exhaustive optimum
for ``regression`` on every seed (see README.md).
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time

import layers
from common import (
    BENCH_DIR,
    CheckFailed,
    import_setup_seconds,
    median,
    quantile,
)

SCALE = "medium"
BUDGETS = (8.0, 16.0, 32.0, 64.0)
COST_FACTORS = (1.5, 2.0, 3.0)
RELIABLE_FACTORS = (1.25, 2.5)
DIGESTS = BENCH_DIR / "plan_digests.json"
#: Fresh interpreters timed for ``setup_s``.
SETUP_REPEATS = 5
SETUP_CODE = ("from repro.api import build_workload\n"
              "from repro.workloads import WORKLOAD_NAMES\n"
              f"[build_workload(name, {SCALE!r}) for name in WORKLOAD_NAMES]")


def make_space():
    from repro.api import SearchSpace, get_instance_type
    from repro.core.physical import MatMulParams

    return SearchSpace(
        instance_types=tuple(get_instance_type(name) for name in (
            "m1.large", "c1.xlarge", "m2.4xlarge", "m1.xlarge")),
        node_counts=(1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64),
        slots_options=(1, 2, 4),
        matmul_options=(MatMulParams(1, 1, 1), MatMulParams(1, 1, 2)),
    )


def make_reliability():
    from repro.api import ReliabilityModel

    return ReliabilityModel(crash_rate_per_hour=0.3, scenarios=3, seed=11)


def draw_inputs(seed: int) -> list[tuple[str, float, float]]:
    """(program, budget, cost factor) in seeded order."""
    from repro.workloads import WORKLOAD_NAMES

    rng = random.Random(seed)
    names = list(WORKLOAD_NAMES)
    rng.shuffle(names)
    return [(name, rng.choice(BUDGETS), rng.choice(COST_FACTORS))
            for name in names]


def plan_digest(plan) -> str:
    """Identity of a chosen plan: deployment, physical plan and estimates."""
    params = plan.compiler_params
    text = "|".join([
        plan.spec.instance_type.name, str(plan.spec.num_nodes),
        str(plan.spec.slots_per_node), str(plan.tile_size),
        repr(params.matmul), repr(params.elementwise),
        f"{plan.estimated_seconds:.9g}", f"{plan.estimated_cost:.9g}"])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def result_cost(result) -> float:
    """The cost a min-cost search minimized (mean over scenarios if any)."""
    if result.reliable is not None:
        return result.reliable.mean_cost
    return result.plan.estimated_cost


def key(*parts) -> str:
    return "|".join(str(part) for part in parts)


def searches(program_name: str, program, tile: int, budget: float,
             cost_factors, search_fn, space, reliability,
             references: bool = False):
    """Run one program's searches; yields (key, kind, result, secs).

    With one cost factor these are the workload's five searches.  With
    ``references`` each surrogate reliable search is followed by the
    exhaustive one it is judged against (kind ``reference``).
    """
    from repro.api import DeploymentOptimizer, SearchSpec

    def timed(spec):
        optimizer = DeploymentOptimizer(program, tile_size=tile)
        started = time.perf_counter()
        result = search_fn(optimizer, spec)
        return result, time.perf_counter() - started

    fastest, seconds = timed(SearchSpec(
        objective="min-time", budget_dollars=budget, space=space))
    yield key(program_name, "min-time", budget), "main", fastest, seconds
    best_time = fastest.plan.estimated_seconds
    for cost_factor in cost_factors:
        for method, label, kind in (
                ("exhaustive", "min-cost", "main"),
                ("surrogate", "surrogate-min-cost", "alt")):
            result, seconds = timed(SearchSpec(
                objective="min-cost", method=method,
                deadline_seconds=cost_factor * best_time, space=space))
            yield (key(program_name, label, budget, cost_factor), kind,
                   result, seconds)
    reliable_methods = (("surrogate", "surrogate-reliable", "alt"),)
    if references:
        reliable_methods += (("exhaustive", "exhaustive-reliable",
                              "reference"),)
    for reliable_factor in RELIABLE_FACTORS:
        for method, label, kind in reliable_methods:
            result, seconds = timed(SearchSpec(
                objective="min-cost", method=method,
                deadline_seconds=reliable_factor * best_time, space=space,
                reliability=reliability))
            yield (key(program_name, label, budget, reliable_factor), kind,
                   result, seconds)


def reference_key(search_key: str) -> str | None:
    """The exhaustive search a surrogate search is judged against."""
    if "|surrogate-min-cost|" in search_key:
        return search_key.replace("|surrogate-min-cost|", "|min-cost|")
    if "|surrogate-reliable|" in search_key:
        return search_key.replace("|surrogate-reliable|",
                                  "|exhaustive-reliable|")
    return None


class _Pass:
    """Tallies of search passes: latencies, failures, plan checks."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.main_ms: list[float] = []
        self.alt_ms: list[float] = []
        self.seconds: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.surrogate_cost = 0.0
        self.exhaustive_cost = 0.0
        #: Surrogate searches whose plan is not the exhaustive one.
        self.differ: list[str] = []
        self.rounds = 0
        self.avoided = 0

    def run(self, inputs, programs, search_fn, space, reliability) -> None:
        started = time.perf_counter()
        for name, budget, cost_factor in inputs:
            program, tile = programs[name]
            steps = searches(name, program, tile, budget, (cost_factor,),
                             search_fn, space, reliability)
            while True:
                try:
                    search_key, kind, result, secs = next(steps)
                except StopIteration:
                    break
                except Exception as error:  # a failed search is counted
                    self.attempted += 1
                    self.failed += 1
                    self.mismatches.append(f"{name}: {error!r}")
                    break
                self.attempted += 1
                self.record(search_key, kind, result, secs)
        self.seconds.append(time.perf_counter() - started)

    def record(self, search_key: str, kind: str, result, secs: float):
        (self.main_ms if kind == "main" else self.alt_ms).append(secs * 1e3)
        self.rounds += result.stats.surrogate_rounds
        self.avoided += result.stats.simulations_avoided
        digest = plan_digest(result.plan)
        want = self.expected.get(search_key)
        if want is None or want["plan"] != digest:
            self.mismatches.append(search_key)
        reference = self.expected.get(reference_key(search_key) or "")
        if reference is not None:
            self.surrogate_cost += result_cost(result)
            self.exhaustive_cost += reference["cost"]
            if reference["plan"] != digest:
                self.differ.append(search_key)

    @property
    def cost_ratio(self) -> float:
        return self.surrogate_cost / self.exhaustive_cost


def run(seed: int, seconds: float, tracer=None) -> dict:
    """Passes of the search list until ``seconds`` are used (at least one).

    Traced, one untraced pass is followed by one traced pass, and the
    difference between them is the tracing overhead.
    """
    from repro.api import build_workload, search

    setup_s = import_setup_seconds(SETUP_CODE, SETUP_REPEATS)
    inputs = draw_inputs(seed)
    programs = {name: build_workload(name, SCALE) for name, *__ in inputs}
    space = make_space()
    reliability = make_reliability()
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    tally = _Pass(expected)
    extra: dict = {}
    started = time.perf_counter()
    while True:
        tally.run(inputs, programs, search, space, reliability)
        elapsed = time.perf_counter() - started
        if tracer is not None or elapsed + tally.seconds[-1] > seconds:
            break
    if tracer is not None:
        traced = _Pass(expected)
        layers.install(tracer)
        try:
            traced.run(inputs, programs, tracer.wrap(search, "search"),
                       space, reliability)
        finally:
            tracer.uninstall()
        extra = {
            "surrogate.rounds": traced.rounds,
            "surrogate.sims_avoided": traced.avoided,
            "surrogate.cost_ratio": traced.cost_ratio,
            "surrogate.plans_differing": len(traced.differ),
            "trace.overhead_pct": 100.0 * (traced.seconds[0]
                                           / tally.seconds[0] - 1.0),
        }
        tally.mismatches += traced.mismatches
    if tally.mismatches:
        raise CheckFailed(f"plans differ from {DIGESTS.name}: "
                          f"{tally.mismatches[:5]} "
                          f"({len(tally.mismatches)} total)")
    calls = tally.main_ms + tally.alt_ms
    return {
        "setup_s": setup_s,
        "main_ms": statistics.fmean(tally.main_ms),
        "alt_ms": statistics.fmean(tally.alt_ms),
        "named": {
            "plan_s": (median(tally.seconds), "s"),
            "search_p50_ms": (median(calls), "ms"),
            "search_p90_ms": (quantile(calls, 0.90), "ms"),
        },
        "attempted": tally.attempted,
        "failed": tally.failed,
        "details": {
            "passes": len(tally.seconds),
            "search_calls": len(calls),
            "exhaustive_p50_ms": median(tally.main_ms),
            "surrogate_p50_ms": median(tally.alt_ms),
            "surrogate_cost_ratio": tally.cost_ratio,
            "surrogate_plans_differing": sorted(set(tally.differ)),
        },
        "extra": extra,
    }

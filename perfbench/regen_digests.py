"""Regenerate ``plan_digests.json``: every plan the ``plan`` workload can pick.

For each catalog program and budget, this runs the searches
``wl_plan.searches`` runs for every deadline factor of the menu, plus the
exhaustive reliable min-cost search each surrogate reliable search is
judged against, and records each chosen plan's digest and cost.  Run it
from the root of a checkout after a change that is meant to move plans,
and review the diff::

    python3 perfbench/regen_digests.py

It refuses to write a file in which any search fails.
"""

from __future__ import annotations

import json
import sys

from common import require_source

require_source()

import wl_plan  # noqa: E402


def generate() -> dict:
    from repro.api import build_workload, search
    from repro.workloads import WORKLOAD_NAMES

    space = wl_plan.make_space()
    reliability = wl_plan.make_reliability()
    out: dict[str, dict] = {}
    for name in WORKLOAD_NAMES:
        program, tile = build_workload(name, wl_plan.SCALE)
        for budget in wl_plan.BUDGETS:
            for search_key, __, result, __ in wl_plan.searches(
                    name, program, tile, budget, wl_plan.COST_FACTORS,
                    search, space, reliability, references=True):
                out[search_key] = {"plan": wl_plan.plan_digest(result.plan),
                                   "cost": wl_plan.result_cost(result)}
        print(f"{name}: done", file=sys.stderr, flush=True)
    return out


def main() -> int:
    digests = generate()
    wl_plan.DIGESTS.write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"wrote {len(digests)} plans to {wl_plan.DIGESTS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

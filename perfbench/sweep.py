"""Run one workload over several seeds and append the results as JSONL.

    python3 perfbench/sweep.py --workload serve --seeds 1-10 \\
        --seconds 25 --out .perfbench/serve.jsonl

Each line is ``{"workload", "seed", "result"}`` with ``result`` the run's
last output line; ``compare.py`` judges the file.  The sweep stops at the
first run that exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from common import BENCH_DIR, ROOT


def seeds(text: str) -> list[int]:
    """``"1-5"`` or ``"3,7,9"`` as a list of seeds."""
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    seconds = args.seconds or json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    for seed in args.seeds:
        command = [sys.executable, str(BENCH_DIR / "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
        started = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True)
        wall_s = time.perf_counter() - started
        if done.returncode != 0:
            print(done.stdout[-2000:], done.stderr[-2000:], file=sys.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        details = json.loads(lines[-2]).get("details", {})
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"workload": args.workload, "seed": seed,
                                     "wall_s": wall_s, "result": result,
                                     "details": details}) + "\n")
        values = {name: round(entry["value"], 4)
                  for name, entry in result["metrics"].items()}
        print(f"{args.workload} seed={seed} wall={wall_s:.1f}s {values}",
              flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Run the benchmark once per seed and print each metric's run-to-run spread.

    python3 perfbench/spread.py --workload enumerate --seeds 1-10

For every metric it prints the median of the runs, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, which is
the distance between the quartiles as a share of the median.  End-to-end
metrics also show their bound from BENCHMARK.json; a spread above a third
of the bound is flagged.  The raw results go to
``.perfbench/spread-<workload>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                         if k in bounds), flush=True)
        print("  " + next(line.strip() for line in proc.stdout.splitlines()
                          if line.strip().startswith("all ops:")), flush=True)

    out = ROOT / ".perfbench" / f"spread-{args.workload}-trace{args.trace}.json"
    out.write_text(json.dumps(runs, indent=1))
    ok = all(r["correct"] and r["failed"] == 0 for r in runs)
    print(f"{'metric':<44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  above bound/3"
        print(f"{name:<44} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{bound if bound is not None else '':>6}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Print every traced count that differs between two source trees.

Runs ``perfbench/run.py --workload W --seed 1 --seconds 1 --trace 1`` for
each of the three benchmark workloads, once in each tree (its own
``perfbench/`` on its own ``src/``, one run at a time), and compares the
metrics whose unit is ``count``: calls, node visits, outcomes, spans and the
term peak, per op.  ``bench.*`` counts are left out, since how many ops fit
in the timed second follows the speed.  Prints one line per count that
differs, or per run that fails, and nothing else; exits 1 if it printed
anything.  A change that makes calls cheaper, not fewer, prints nothing.

    python scripts/layer_counts.py BASE [HEAD]

BASE and HEAD are checkouts holding ``src/cjrio`` and ``perfbench/run.py``;
HEAD defaults to the checkout this script is in.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sample", "enumerate", "certify")
TIMEOUT_S = 600  # per run; a traced run takes some seconds


def counts(tree: Path, workload: str) -> dict[str, float]:
    """The count metrics, ``bench.*`` left out, of one traced seed-1 run of
    ``workload`` in ``tree``; raises RuntimeError if the run fails."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", "1"]
    try:
        proc = subprocess.run(argv, cwd=tree, stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"ran past {TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{result['failed']} of {result['attempted']} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] == "count" and not name.startswith("bench.")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout to compare against")
    parser.add_argument("head", type=Path, nargs="?", default=Path(__file__).resolve().parents[1],
                        help="checkout under test (default: this one)")
    args = parser.parse_args(argv)
    for tree in (args.base, args.head):
        if not (tree / "perfbench" / "run.py").is_file() or not (tree / "src" / "cjrio").is_dir():
            parser.error(f"{tree} holds no perfbench/run.py and src/cjrio")
    printed = False
    for workload in WORKLOADS:
        got = []
        for tree in (args.base, args.head):
            try:
                got.append(counts(tree, workload))
            except RuntimeError as err:
                print(f"{workload}: run in {tree} failed: {err}", flush=True)
                printed = True
        if len(got) < 2:
            continue
        base, head = got
        for name in sorted(base.keys() | head.keys()):
            if base.get(name) != head.get(name):
                print(f"{workload}: {name} {base.get(name)} -> {head.get(name)}", flush=True)
                printed = True
    return 1 if printed else 0


if __name__ == "__main__":
    sys.exit(main())

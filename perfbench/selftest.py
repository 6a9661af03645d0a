#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Takes a few minutes.  It checks that:

- every workload's last output line follows the result format and names
  exactly the metrics BENCHMARK.json lists (end-to-end with ``--trace 0``,
  per-layer with ``--trace 1``), with no failed op;
- two traced runs of one seed give identical per-layer counts and an
  identical ``cli.report_bytes``;
- tracing does not change results: every traced op returns the same outcome
  bits and fidelities (``enumerate``: the same report bytes) as its
  untraced run;
- every wrapper is removed after the traced run;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.

Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = run.ROOT
EXACT_UNITS = ("count", "bytes", "ratio")
TIMING_COUNTS = ("bench.ops_timed",)  # depends on how fast the host was

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message, flush=True)
    if not condition:
        failures.append(message)


def bench_run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_contract(bench: dict) -> None:
    want = {0: [m["name"] for m in bench["end_to_end"]],
            1: [m["name"] for m in bench["per_layer"]]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for wl in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc = bench_run(wl, 7, trace)
            expect(proc.returncode == 0, f"{wl} --trace {trace} exits 0")
            res = result_of(proc)
            expect(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                   f"{wl} --trace {trace} result keys")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{wl} --trace {trace} correct with no failed op")
            expect(sorted(res["metrics"]) == sorted(want[trace]),
                   f"{wl} --trace {trace} prints exactly the BENCHMARK.json metrics")
            expect(all(m["unit"] == units.get(name) for name, m in res["metrics"].items()),
                   f"{wl} --trace {trace} units match BENCHMARK.json")
            if trace:
                again = result_of(bench_run(wl, 7, 1))
                counts = {n: m["value"] for n, m in res["metrics"].items()
                          if m["unit"] in EXACT_UNITS and n not in TIMING_COUNTS}
                counts_again = {n: again["metrics"][n]["value"] for n in counts}
                diff = sorted(n for n in counts if counts[n] != counts_again[n])
                expect(not diff, f"{wl}: per-layer counts repeat for one seed {diff or ''}")


def check_wrappers_and_results() -> None:
    run.load_cjrio()
    import spans
    import workloads
    from cjrio import cli, hilbert, optics, oracle, protocol

    run.WORK.mkdir(exist_ok=True)
    wl = workloads.Sample(3, run.WORK, run.SRC)
    wl.trace_ops = 40
    plain = [wl.check(i, wl.run(i)) for i in range(wl.trace_ops)]
    tracer, _, failed = run.traced_pass(wl, spans)
    expect(failed == 0, "traced sampled runs match their untraced runs")
    expect(len(tracer.start) > 0 and len(tracer.patched) > 0, "the traced run recorded spans")
    expect(tracer.unrestored() == [], "every patched attribute holds its original again")
    originals = [protocol.apply_bbs is optics.apply_bbs,
                 oracle.apply_pauli_spatial is optics.apply_pauli_spatial,
                 cli.iter_branches is protocol.iter_branches,
                 cli.target_fidelity is oracle.target_fidelity,
                 hilbert.HybridState.index_of.__qualname__ == "HybridState.index_of",
                 protocol.build_protocol.__module__ == "cjrio.protocol",
                 cli.main.__module__ == "cjrio.cli"]
    expect(all(originals), "module attributes are the cjrio originals after tracing")
    after = [wl.check(i, wl.run(i)) for i in range(wl.trace_ops)]
    expect(after == plain, "untraced results are unchanged after a traced run")


def check_bare_directory() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = bench_run("sample", 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without src/ the benchmark exits non-zero and prints no result")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_bare_directory()
    check_wrappers_and_results()
    check_contract(bench)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

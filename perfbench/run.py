#!/usr/bin/env python3
"""cjrio benchmark driver.

    python3 perfbench/run.py --workload sample --seed 1 --seconds 30 --trace 0

Run from the root of a cjrio checkout; the package is imported from its
``src/`` directory.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separate traced run.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 11
TAIL_OPS_BEYOND = 10


def load_cjrio():
    """Import cjrio from this checkout's src/, never from anywhere else."""
    if not (SRC / "cjrio" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cjrio package under {SRC}; run from a cjrio checkout")
    sys.path.insert(0, str(SRC))
    import cjrio

    if Path(cjrio.__file__).resolve().parent != SRC / "cjrio":
        sys.exit(f"perfbench: imported cjrio from {cjrio.__file__}, not from {SRC}")
    return cjrio


def machine_facts(cjrio, loadavg) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cjrio": cjrio.__version__,
        "platform": platform.platform(),
        "commit": _git_commit(),
        "loadavg_at_start": [round(x, 2) for x in loadavg],
    }


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def setup_probe(args, workloads) -> float:
    """Wall time of a fresh interpreter that imports cjrio, builds this
    run's inputs and warms up, then exits."""
    code, elapsed, _ = workloads.run_child(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        ROOT, SRC, WORK / "setup-stderr.txt")
    if code != 0:
        sys.exit(f"perfbench: set-up probe exited {code}, see {WORK / 'setup-stderr.txt'}")
    return elapsed


class Loop:
    """Outcome of a timed closed loop."""

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.best: dict[int, float] = {}  # input index -> fastest op on it
        self.setup: list[float] = []
        self.attempted = 0
        self.failed = 0


def report_failure(wl, i: int, exc: Exception) -> None:
    print(f"perfbench: {wl.name} op {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)


def timed_loop(wl, seconds: float, probe=None, probes: int = 0) -> Loop:
    """Run ops back to back for ``seconds``, and at least once on every
    input.  Each op is timed alone; its output is checked after the clock
    stops.  The fastest successful op on each input is kept.

    ``probe`` is called ``probes`` times, at even intervals across the
    loop, between ops; its time is added to the deadline, so the ops still
    get ``seconds``."""
    loop = Loop()
    start = perf_counter()
    deadline = start + seconds
    due = [start + (k + 0.5) * seconds / probes for k in range(probes)]
    i = 0
    while i < wl.n_inputs or perf_counter() < deadline:
        if due and perf_counter() >= due[0]:
            t0 = perf_counter()
            loop.setup.append(probe())
            spent = perf_counter() - t0
            deadline += spent
            due = [t + spent for t in due[1:]]
        loop.attempted += 1
        key = i % wl.n_inputs
        try:
            t0 = perf_counter()
            out = wl.run(i)
            dt = perf_counter() - t0
            wl.check(i, out)
        except Exception as exc:  # a failed op is counted, the loop goes on
            loop.failed += 1
            report_failure(wl, i, exc)
        else:
            loop.durations.append(dt)
            loop.best[key] = min(dt, loop.best.get(key, dt))
        i += 1
    while len(loop.setup) < probes:
        loop.setup.append(probe())
    return loop


def op_tail(durations: list[float]) -> tuple[float, float]:
    """(ms, percentile) of the highest percentile with at least
    TAIL_OPS_BEYOND ops beyond it; the maximum when there are too few ops."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= TAIL_OPS_BEYOND:
        return ordered[-1] * 1e3, 100.0
    return ordered[n - TAIL_OPS_BEYOND - 1] * 1e3, 100.0 * (n - TAIL_OPS_BEYOND) / n


def traced_pass(wl, spans):
    """Run the first ``wl.trace_ops`` ops untraced, then again with every
    layer wrapped.  Returns (tracer, untraced seconds, failures), where a
    traced op whose result differs from its untraced run is a failure."""
    n = wl.trace_ops
    failures = 0
    plain, untraced_s = [], 0.0
    for i in range(n):
        try:
            t0 = perf_counter()
            out = wl.run_in_process(i)
            untraced_s += perf_counter() - t0
            plain.append(wl.check(i, out))
        except Exception as exc:
            failures += 1
            plain.append(None)
            report_failure(wl, i, exc)
    tracer = spans.Tracer()
    op_span = tracer.name_of(spans.OP_SPAN)
    spans.instrument(tracer)
    try:
        for i in range(n):
            tracer.op_id = i
            try:
                idx = tracer.open(op_span)
                try:
                    out = wl.run_in_process(i)
                finally:
                    tracer.close(idx)
                traced = wl.check(i, out)
            except Exception as exc:
                failures += 1
                report_failure(wl, i, exc)
                continue
            if plain[i] is not None and traced != plain[i]:
                failures += 1
                print(f"perfbench: traced op {i} differs from its untraced run", file=sys.stderr)
    finally:
        tracer.uninstall()
    left = tracer.unrestored()
    if left:
        failures += 1
        print(f"perfbench: wrappers left installed: {left}", file=sys.stderr)
    return tracer, untraced_s, failures


def print_layer_table(tracer, spans) -> None:
    """Self time per layer, summed over the traced ops, largest first."""
    _, incl, self_ns, _, _ = tracer.aggregate()
    total = incl[spans.OP_SPAN] or 1
    layers: dict[str, int] = {}
    for name, ns in self_ns.items():
        parts = name.split(".")
        layer = ".".join(parts[:2]) if parts[0] in ("protocol", "bench") else parts[0]
        layers[layer] = layers.get(layer, 0) + ns
    print("layer self time over the traced ops:")
    for layer, ns in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<20} {ns / 1e6:10.1f} ms {100.0 * ns / total:6.1f} %")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("sample", "enumerate", "certify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    args = parse_args(argv)
    cjrio = load_cjrio()
    import spans
    import workloads

    WORK.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, WORK, SRC)
    wl.warm_up()
    if args.setup_probe:
        return 0
    print(json.dumps({"machine": machine_facts(cjrio, loadavg)}))

    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        loop = timed_loop(wl, args.seconds)
    else:
        loop = timed_loop(wl, args.seconds, lambda: setup_probe(args, workloads), SETUP_PROBES)
    attempted, failed = loop.attempted, loop.failed
    if not loop.best:
        sys.exit(f"perfbench: no {args.workload} op succeeded")
    best = list(loop.best.values())

    if not args.trace:
        metrics["setup_s"] = (statistics.median(loop.setup), "s")
        # The fastest op on each input, not a median over all ops: co-tenants
        # on the host slow the CPU for seconds at a time and never speed it
        # up, so each input's best time reads the program's own speed most
        # steadily.
        metrics["ops_per_s"] = (wl.op_work * len(best) / sum(best), "ops/s")
        metrics["op_p50_ms"] = (statistics.median(best) * 1e3, "ms")
        metrics["peak_rss_mb"] = (wl.peak_rss_mb(), "MB")
    else:
        tail_ms, tail_pct = op_tail(loop.durations)
        tracer, untraced_s, trace_failures = traced_pass(wl, spans)
        attempted += 2 * wl.trace_ops
        failed += trace_failures
        metrics.update(spans.layer_metrics(tracer, wl.trace_ops))
        metrics["protocol.terms_peak"] = (wl.terms_peak, "count")
        metrics["cli.report_bytes"] = (wl.report_bytes, "bytes")
        metrics["bench.op_tail_ms"] = (tail_ms, "ms")
        metrics["bench.op_tail_percentile"] = (tail_pct, "percentile")
        metrics["bench.ops_timed"] = (len(loop.durations), "count")
        untraced_ms = untraced_s * 1e3 / wl.trace_ops
        metrics["trace.untraced_op_ms"] = (untraced_ms, "ms")
        traced_ms = metrics["trace.traced_op_ms"][0]
        metrics["trace.overhead_pct"] = (100.0 * (traced_ms - untraced_ms) / untraced_ms, "%")
        print_layer_table(tracer, spans)
        spans_path = WORK / f"trace-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write_tsv(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}")

    print(f"{args.workload}: {attempted} ops attempted, {failed} failed "
          f"(fail ratio {failed / attempted:.4g})")
    q = statistics.quantiles(loop.durations, n=4) if len(loop.durations) > 1 else loop.durations * 3
    qb = statistics.quantiles(best, n=4) if len(best) > 1 else best * 3
    print(f"  all ops: {len(loop.durations)}, ms min {min(loop.durations) * 1e3:.4g} "
          f"q1 {q[0] * 1e3:.4g} median {q[1] * 1e3:.4g} q3 {q[2] * 1e3:.4g} "
          f"max {max(loop.durations) * 1e3:.4g}; best per input ({len(best)} inputs), ms "
          f"q1 {qb[0] * 1e3:.4g} median {qb[1] * 1e3:.4g} q3 {qb[2] * 1e3:.4g}")
    if loop.setup:
        print("  set-up probes, s: " + " ".join(f"{x:.3f}" for x in loop.setup))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

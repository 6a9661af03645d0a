"""The three benchmark workloads: one timed op each, and its output checks.

Each workload is a closed loop with one client and one op in flight.  Ops
look the cjrio functions up on their modules at call time, so the traced run
sees the wrappers that :mod:`spans` installs.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import select
import statistics
import subprocess
import sys
from itertools import islice
from pathlib import Path
from time import perf_counter

from cjrio import cli, oracle, protocol

import inputs

FIDELITY_MIN = protocol.FIDELITY_THRESHOLD  # 1 - 1e-10
PROBABILITY_TOL = 1e-9
CHILD_TIMEOUT_S = 60


class CheckFailed(Exception):
    """An op finished but its output is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def run_child(argv: list[str], cwd: Path, src: Path, stderr_path: Path):
    """Run one child process to completion; return (exit code, wall seconds,
    peak RSS in KiB) with the RSS read from that child alone."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    with open(stderr_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                finished, _, _ = select.select([fd], [], [], CHILD_TIMEOUT_S)
            finally:
                os.close(fd)
            if not finished:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    if not finished:
        raise TimeoutError(f"{argv[:4]} ran past {CHILD_TIMEOUT_S} s")
    return proc.returncode, elapsed, usage.ru_maxrss


class Sample:
    """``run_full`` plus ``branch_fidelity`` on a fresh config per op."""

    name = "sample"
    n_inputs = 200  # 40 cycles of the five shapes; every 8th has vetoes
    trace_ops = 500
    report_bytes = 0
    op_work = 1  # sampled runs per op

    def __init__(self, seed: int, workdir: Path, src: Path):
        self.inputs = inputs.sample_inputs(seed, self.n_inputs)
        self.terms_peak = 0

    def run(self, i: int):
        inp = self.inputs[i % self.n_inputs]
        res = protocol.run_full(inp.config, seed=inp.run_seed)
        return res, protocol.branch_fidelity(inp.config, res)

    run_in_process = run

    def check(self, i: int, out):
        res, fid = out
        inp = self.inputs[i % self.n_inputs]
        if inp.blocked_at is not None:
            require(res.blocked and res.blocked_at == inp.blocked_at and fid is None,
                    f"veto expected at {inp.blocked_at}, got blocked_at={res.blocked_at}")
        else:
            require(not res.blocked, f"unexpected block at {res.blocked_at}")
            require(fid >= FIDELITY_MIN, f"fidelity {fid!r} below threshold")
        self.terms_peak = max(self.terms_peak, res.max_terms)
        return tuple(res.bits.items()), res.blocked_at, fid

    def warm_up(self) -> None:
        for i in range(25):
            self.check(i, self.run(i))

    def peak_rss_mb(self) -> float:
        return _self_rss_mb()


class Certify:
    """Every branch of a (2,1) config with every correction re-derived by
    exhaustive Pauli search and every stage compared with its closed form."""

    name = "certify"
    n_inputs = 8
    trace_ops = 4
    report_bytes = 0

    def __init__(self, seed: int, workdir: Path, src: Path):
        self.configs = inputs.certify_inputs(seed, self.n_inputs)
        self.op_work = 2 ** protocol.branch_bit_count(*inputs.CERTIFY_SHAPE)  # branches
        self.terms_peak = 0

    def run(self, i: int):
        return self.certify(self.configs[i % self.n_inputs])

    @staticmethod
    def certify(cfg, branches=None):
        """Rows of the first ``branches`` branches of ``cfg``, or of all."""
        target = oracle.direct_apply(cfg.unitaries, cfg.alpha, cfg.beta)
        rows = []
        walk = protocol.iter_branches(cfg, validate_corrections=True, check_stages=True)
        for res in islice(walk, branches):
            fid = None if res.blocked else oracle.target_fidelity(res.state, target)
            rows.append((tuple(res.bits.values()), res.probability, fid,
                         len(res.errata), res.max_terms))
        return rows

    run_in_process = run

    def check(self, i: int, rows):
        require(len(rows) == self.op_work, f"{len(rows)} branches, want {self.op_work}")
        require(all(r[2] is not None and r[2] >= FIDELITY_MIN for r in rows),
                "a branch is blocked or below the fidelity threshold")
        require(sum(r[3] for r in rows) == 0, "stage checker reported mismatches")
        psum = sum(r[1] for r in rows)
        require(abs(psum - 1.0) <= PROBABILITY_TOL, f"probability sum {psum!r}")
        self.terms_peak = max(self.terms_peak, max(r[4] for r in rows))
        return tuple((r[0], r[2]) for r in rows)

    def warm_up(self) -> None:
        # The first 64 branches of one config, through the same path.
        rows = self.certify(self.configs[0], 64)
        require(len(rows) == 64 and all(r[2] >= FIDELITY_MIN and r[3] == 0 for r in rows),
                "warm-up branches are wrong")

    def peak_rss_mb(self) -> float:
        return _self_rss_mb()


class Enumerate:
    """One ``python -m cjrio.cli enumerate`` child process per op, writing
    its JSON report to a file."""

    name = "enumerate"
    n_inputs = 3
    trace_ops = 3

    def __init__(self, seed: int, workdir: Path, src: Path):
        self.configs = inputs.enumerate_inputs(seed, self.n_inputs)
        self.warm_up_config = inputs.warm_up_config(seed)
        self.op_work = 2 ** protocol.branch_bit_count(*inputs.ENUMERATE_SHAPE)  # branches
        self.workdir, self.src = workdir, src
        self.report = workdir / "enumerate-report.json"
        self.digests: dict[int, str] = {}
        self.report_bytes = 0  # size of the first config's report
        self.rss_kib: list[int] = []
        self.terms_peak = 0

    def argv(self, i: int) -> list[str]:
        return inputs.cli_enumerate_argv(self.configs[i % self.n_inputs], str(self.report))

    def run(self, i: int):
        self.report.unlink(missing_ok=True)
        code, _, rss = run_child([sys.executable, "-m", "cjrio.cli", *self.argv(i)],
                                 self.workdir.parent, self.src,
                                 self.workdir / "enumerate-stderr.txt")
        self.rss_kib.append(rss)
        return code

    def run_in_process(self, i: int):
        self.report.unlink(missing_ok=True)
        return cli.main(self.argv(i))

    def check(self, i: int, code):
        require(code == 0, f"cjrio enumerate exited {code}")
        data = self.report.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        key = i % self.n_inputs
        require(self.digests.setdefault(key, digest) == digest,
                "report differs from an earlier run of the same argv")
        if key == 0:
            self.report_bytes = len(data)
        report = json.loads(data)
        agg = report["aggregate"]
        require(agg["branch_count"] == self.op_work, f"branch_count {agg['branch_count']}")
        require(agg["blocked_count"] == 0, f"blocked_count {agg['blocked_count']}")
        require(abs(agg["probability_sum"] - 1.0) <= PROBABILITY_TOL,
                f"probability_sum {agg['probability_sum']!r}")
        require(agg["min_fidelity"] >= FIDELITY_MIN, f"min_fidelity {agg['min_fidelity']!r}")
        require(report["errata"] == [], "report lists errata")
        self.terms_peak = max(self.terms_peak, agg["max_terms"])
        return digest

    def warm_up(self) -> None:
        # A 2^5-branch enumeration through the same child-process path.
        small = inputs.cli_enumerate_argv(self.warm_up_config,
                                          str(self.workdir / "warm-up.json"))
        code, _, _ = run_child([sys.executable, "-m", "cjrio.cli", *small],
                               self.workdir.parent, self.src,
                               self.workdir / "enumerate-stderr.txt")
        require(code == 0, f"warm-up enumerate exited {code}")

    def peak_rss_mb(self) -> float:
        return statistics.median(self.rss_kib) / 1024.0


WORKLOADS = {w.name: w for w in (Sample, Enumerate, Certify)}


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

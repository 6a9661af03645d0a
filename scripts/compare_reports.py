"""Check that two source trees print byte-identical cjrio reports.

Runs a fixed list of ``simulate``, ``enumerate`` and ``stats`` command lines
once against each tree, each in a fresh ``python -m cjrio.cli`` process with
that tree's ``src`` on ``PYTHONPATH``, and compares the exit codes and the
sha256 of stdout and of stderr (every summary and error line is
deterministic).  A run that takes more than TIMEOUT_S seconds is killed and
counts as a difference.  Prints one line per command line and exits 1 if any
differs, so a change that claims the same behaviour can show it.

    python scripts/compare_reports.py BASE [HEAD]

BASE and HEAD are checkouts holding ``src/cjrio``; HEAD defaults to the
checkout this script is in.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

TIMEOUT_S = 300  # per CLI run; the slowest command line takes a few seconds

# A (2,1) operator with complex entries, a random complex (2,1) input, and two
# generic (2,2) inputs written the way the benchmark writes them (shortest
# round-trip digits).
_GENERIC = ["--alpha=0.6", "--beta=-0.8j", "--u1=0.6+0.48j,0.64j", "--u2", "preset:pauli-z"]
_RANDOM_21 = [
    "--alpha=-0.8811999406590537-0.45498665299503344j",
    "--beta=-0.08769975050259558-0.09371533460773546j",
    "--u1=-0.17547439839203136+0.8014734357988105j,-0.046073835870012125+0.5698475838906644j",
    "--u2=-0.4341752927689969+0.5160279857654675j,0.6155850087501356+0.40775241269413204j",
]
_RANDOM_22 = [
    ["--alpha=-0.3107338493342951+0.34887479316139364j",
     "--beta=-0.15061012478906208-0.8712332890136312j",
     "--u1=-0.08453639987952269+0.12446954603990389j,-0.9214504262630056-0.358175991858409j",
     "--u2=0.3364789368979699+0.8212201640512745j,0.01311498440563627+0.4606597056001856j"],
    ["--alpha=-0.6681312100584041-0.2426862237861361j",
     "--beta=-0.6582823159315085+0.24772661435979712j",
     "--u1=0.10564484460553242+0.7094083071948232j,0.12344737751206318+0.6858132147142125j",
     "--u2=-0.0750782947073987-0.022341917919273917j,0.8879977361892043+0.4531270339434248j"],
]
_U3 = ["--u1", "preset:hadamard-like", "--u2=0.6+0.48j,0.64j", "--u3", "preset:pauli-x"]

ARGVS: list[list[str]] = [
    # the two command lines of acceptance criterion 8
    ["simulate", "--m", "2", "--n", "1", "--alpha", "0.6", "--beta", "0.8",
     "--u1", "preset:hadamard-like", "--u2", "preset:pauli-x", "--seed", "123"],
    ["enumerate", "--m", "2", "--n", "1", "--alpha", "0.8", "--beta", "0.6",
     "--u1", "preset:identity", "--u2", "preset:hadamard-like", "--seed", "9"],
    # enumerate
    ["enumerate", "--m", "2", "--n", "1", *_GENERIC, "--check-paper-eqs"],
    ["enumerate", "--m", "2", "--n", "1", *_RANDOM_21, "--check-paper-eqs"],
    ["enumerate", "--m", "2", "--n", "2", *_RANDOM_22[0]],
    ["enumerate", "--m", "2", "--n", "2", *_RANDOM_22[1]],
    ["enumerate", "--m", "3", "--n", "1", "--alpha=0.6", "--beta=0.8j", *_U3],
    ["enumerate", "--m", "3", "--n", "2", "--alpha=0.28-0.96j", "--beta=0", *_U3],
    ["enumerate", "--m", "2", "--n", "2", "--consent", "01"],
    ["enumerate", "--m", "2", "--n", "1", "--consent2", "0"],
    ["enumerate", "--m", "1", "--n", "0", "--variant", "rio", "--alpha", "0.6",
     "--beta", "0.8", "--u1", "preset:hadamard-like"],
    ["enumerate", "--m", "1", "--n", "1", "--variant", "crio", "--alpha", "0",
     "--beta", "1j", "--u1", "preset:pauli-x"],
    ["enumerate", "--m", "2", "--n", "0", "--variant", "jrio", "--alpha=-0.6",
     "--beta=0.8", "--u1", "preset:pauli-z", "--u2", "preset:pauli-x"],
    ["enumerate", "--m", "1", "--n", "0"],
    ["enumerate", "--m", "4", "--n", "3"],  # over the enumeration limit: exit 3
    ["enumerate", "--m", "2", "--n", "1", "--alpha", "nan"],  # exit 3
    # simulate
    ["simulate", "--seed", "1"],
    ["simulate", "--m", "2", "--n", "1", *_GENERIC, "--check-paper-eqs", "--seed", "4"],
    ["simulate", "--m", "3", "--n", "2", "--alpha=0.28-0.96j", "--beta=0", *_U3,
     "--seed", "6"],
    ["simulate", "--m", "4", "--n", "3", "--alpha", "0.6", "--beta", "0.8j", "--seed", "11"],
    ["simulate", "--m", "8", "--n", "4", "--alpha", "0.8", "--beta", "-0.6", "--seed", "8"],
    ["simulate", "--m", "2", "--n", "2", "--consent", "10", "--seed", "2"],
    ["simulate", "--m", "2", "--n", "2", "--consent2", "01", "--seed", "3"],
    ["simulate", "--m", "2", "--n", "1", "--mode", "sample"],  # unknown flag: exit 3
    # stats
    ["stats", "--m", "2", "--n", "1", "--alpha", "0.6", "--beta", "0.8", "--seed", "5",
     "--samples", "400"],
    ["stats", "--m", "3", "--n", "2", "--alpha=0.28-0.96j", "--beta=0", *_U3,
     "--seed", "2", "--samples", "1000"],
    ["stats", "--m", "1", "--n", "1", "--variant", "crio", "--samples", "300"],
    ["stats", "--m", "2", "--n", "2", *_RANDOM_22[0], "--samples", "2000", "--seed", "7"],
    # configuration errors (exit 3) and vetoes (exit 2) of all three subcommands
    ["simulate", "--m", "2", "--n", "1", "--u1", "2,0", "--seed", "1"],  # not unitary: exit 3
    ["stats", "--samples", "50"],  # too few samples: exit 3
    ["stats", "--check-paper-eqs"],  # no stage checks in stats: exit 3
    ["enumerate", "--consent", "2"],  # not a 0/1 mask: exit 3
    ["simulate", "--consent", "0", "--seed", "1"],  # a veto at consent[1]: exit 2
    # a checked walk whose 8 branches are all blocked: exit 2
    ["enumerate", "--m", "2", "--n", "1", "--check-paper-eqs", "--consent", "0"],
]


def _env(tree: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    return env


def imported_from(tree: Path) -> Path:
    """The package directory a CLI process on ``tree`` imports cjrio from."""
    proc = subprocess.run([sys.executable, "-c", "import cjrio; print(cjrio.__file__)"],
                          env=_env(tree), capture_output=True, text=True, check=True)
    return Path(proc.stdout.strip()).resolve().parent


def run(tree: Path, argv: list[str]) -> tuple[str, str, float]:
    """The exit code (or "timeout"), the sha256 of stdout and of stderr
    together, and the wall seconds of one CLI run on ``tree``."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "cjrio.cli", *argv], env=_env(tree),
                              stdin=subprocess.DEVNULL, capture_output=True, check=False,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", "", time.perf_counter() - t0
    digest = hashlib.sha256(proc.stdout).hexdigest() + hashlib.sha256(proc.stderr).hexdigest()
    return str(proc.returncode), digest, time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout to compare against")
    parser.add_argument("head", type=Path, nargs="?", default=Path(__file__).resolve().parents[1],
                        help="checkout under test (default: this one)")
    args = parser.parse_args(argv)
    for tree in (args.base, args.head):
        package = (tree / "src" / "cjrio").resolve()
        if not package.is_dir():
            parser.error(f"{tree} holds no src/cjrio")
        found = imported_from(tree)
        if found != package:
            parser.error(f"a process on {tree} imports cjrio from {found}")
    differ = 0
    for cmd in ARGVS:
        (code_a, sha_a, t_a), (code_b, sha_b, t_b) = run(args.base, cmd), run(args.head, cmd)
        same = code_a == code_b != "timeout" and sha_a == sha_b
        differ += not same
        print(f"{'same' if same else 'DIFFERS'}  exit {code_a}/{code_b}  "
              f"{sha_b[:12]}  {t_a:5.1f}s/{t_b:5.1f}s  {' '.join(cmd)}", flush=True)
    print(f"{len(ARGVS) - differ} of {len(ARGVS)} command lines byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

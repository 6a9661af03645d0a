"""Check that two source trees print byte-identical cjrio reports and
derive the same scheme and seeded runs.

Runs a fixed list of ``simulate``, ``enumerate`` and ``stats`` command lines
once against each tree, each in a fresh ``python -m cjrio.cli`` process with
that tree's ``src`` on ``PYTHONPATH``, and compares the exit codes and the
sha256 of stdout, of stderr (every summary and error line is deterministic)
and of the report a command line writes with ``--output`` (to a temporary
file of its own per run).  Then, in one such process per tree, it computes
seven digests (see :func:`digests`): the scheme (bit names, node metadata
and Pauli-fix forms for m 1-9 and n 0-4), a fixed list of seeded sampled
runs (bits, probability, halt node, term peak, fidelity and final
amplitudes, floats as hex), the same of runs that share one build per
config, so that they read its node tables, every branch of validated
walks, as ``certify`` runs them, the two readout primitives on seeded
random states (each outcome's bits, probability and state), the stage
mismatch records of checked (2,1) walks with a planted wrong fix or the
input pair swapped, which a correct build never reports, and the
transcripts of the seeded runs and of every branch of the validated walks,
as a ``simulate`` report writes them.
A run that takes more than TIMEOUT_S seconds is killed and counts as a
difference.  Prints one line per command line and per digest and exits 1 if
any differs, so a change that claims the same behaviour can show it.

    python scripts/compare_reports.py [--python PY] BASE [HEAD]

BASE and HEAD are checkouts holding ``src/cjrio``; HEAD defaults to the
checkout this script is in.  ``--python`` runs HEAD's command lines under
the interpreter PY, which needs no numpy, so that two interpreters can be
shown to print the same bytes; the digests, which import numpy, stay on the
interpreter running this script.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TIMEOUT_S = 300  # per CLI run; the slowest command line takes a few seconds
# Stands for a report path in a command line: each run writes its own file.
REPORT = "<report>"

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
    # the report written with --output, as the benchmark's enumerate workload does
    ["enumerate", "--m", "2", "--n", "2", *_RANDOM_22[0], "--output", REPORT],
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
    # a checked walk whose 1,024 branches are all blocked at the release stage: exit 2
    ["enumerate", "--m", "2", "--n", "1", "--check-paper-eqs", "--consent2", "0",
     "--alpha", "0.6", "--beta", "0.8j"],
]


def _env(tree: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    return env


def imported_from(tree: Path, python: str = sys.executable) -> Path:
    """The package directory a CLI process on ``tree`` imports cjrio from."""
    proc = subprocess.run([python, "-c", "import cjrio; print(cjrio.__file__)"],
                          env=_env(tree), capture_output=True, text=True, check=True)
    return Path(proc.stdout.strip()).resolve().parent


def run(tree: Path, argv: list[str], python: str = sys.executable) -> tuple[str, str, float]:
    """The exit code (or "timeout"), the sha256 of stdout, of stderr and of
    the file written in place of REPORT together, and the wall seconds of one
    CLI run on ``tree`` under the interpreter ``python``."""
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        argv = [str(report) if arg == REPORT else arg for arg in argv]
        try:
            proc = subprocess.run([python, "-m", "cjrio.cli", *argv], env=_env(tree),
                                  stdin=subprocess.DEVNULL, capture_output=True, check=False,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout", "", time.perf_counter() - t0
        written = report.read_bytes() if report.exists() else b""
    digest = "".join(hashlib.sha256(data).hexdigest()
                     for data in (proc.stdout, proc.stderr, written))
    return str(proc.returncode), digest, time.perf_counter() - t0


# The seeded runs: configs cycle through these shapes, and every VETO_EVERY-th
# cycle has one controller withhold consent, at one of the two gates.
RUN_SHAPES = ((1, 0), (2, 1), (3, 2), (4, 3), (8, 4))
RUN_COUNT = 500
VETO_EVERY = 4
RUN_SEED = 20240313
# The shared-protocol runs: this many draws from one rng on one build for
# each of the first SHARED_CONFIGS configs.
SHARED_CONFIGS = 40
SHARED_RUNS = 25
# The validated walks: every branch of each of these configs, the (2,1) ones
# with the stage checks too; the last cycle has its controllers veto.
VALIDATED_SHAPES = ((1, 0), (2, 1), (2, 2))
VALIDATED_COUNT = 12


def _run_configs(shapes=RUN_SHAPES, count=RUN_COUNT):
    """``count`` configs, with random operators, inputs and run seeds drawn
    from RUN_SEED, cycling through ``shapes``."""
    import numpy as np

    from cjrio import ProtocolConfig, SU2Operator

    rng = np.random.default_rng(RUN_SEED)

    def pair():
        x = rng.normal(size=4)
        x /= np.linalg.norm(x)
        return complex(x[0], x[1]), complex(x[2], x[3])

    for i in range(count):
        m, n = shapes[i % len(shapes)]
        ops = tuple(SU2Operator(*pair()) for _ in range(m))
        consent = [[True] * n, [True] * n]
        if n and i // len(shapes) % VETO_EVERY == VETO_EVERY - 1:
            consent[int(rng.integers(2))][int(rng.integers(n))] = False
        yield (ProtocolConfig(m, n, ops, *pair(), consent=tuple(consent[0]),
                              consent_phase2=tuple(consent[1])),
               int(rng.integers(2 ** 32)))


# The readout states: this many seeded random normalized states per shape,
# of up to READOUT_KETS kets, about one amplitude in TINY_EVERY scaled below
# the pruning tolerance.
READOUT_SHAPES = ((1, 0), (2, 1), (3, 2))
READOUT_STATES = 300
READOUT_KETS = 16
TINY_EVERY = 8
DOF_LISTS = (("polar", "spatial"), ("spatial", "polar"), ("polar",), ("spatial",))


def readout_digest() -> str:
    """A sha256 over every outcome of the homodyne readout (one or two random
    taps on a fresh probe) and of the measurement of a random photon on each
    DOF list, on seeded random states: its bits, its probability and its
    state's kets and amplitudes, floats as hex, or the message of the
    ValueError building the state raised."""
    import numpy as np

    from cjrio.hilbert import HybridState, enumerate_measurement, registry
    from cjrio.kerr import enumerate_homodyne, fresh_probe, kerr

    rng = np.random.default_rng(RUN_SEED)
    digest = hashlib.sha256()

    def update(outcomes):
        for out in outcomes:
            try:
                built = [(ket, a.real.hex(), a.imag.hex()) for ket, a in out.build().terms.items()]
            except ValueError as exc:
                built = str(exc)
            digest.update(repr((out.bits, out.p.hex(), built)).encode())

    for m, n in READOUT_SHAPES:
        reg = registry(m, n)
        size = len(reg)
        for _ in range(READOUT_STATES):
            terms = {}  # the first ket drawn is never tiny, so the state normalizes
            for _ in range(int(rng.integers(1, READOUT_KETS + 1))):
                amp = complex(*rng.normal(size=2))
                if terms and rng.integers(TINY_EVERY) == 0:
                    amp *= 1e-16
                terms.setdefault(int(rng.integers(1 << 2 * size)), amp)
            state = HybridState(reg, (True,) * size, terms).normalized()
            probe = fresh_probe(state)
            for _ in range(int(rng.integers(1, 3))):
                probe = kerr(probe, state, int(rng.integers(size)), int(rng.integers(2)),
                             (-1, 1, 2)[int(rng.integers(3))])
            update(enumerate_homodyne(probe, state))
            i = int(rng.integers(size))
            for dofs in DOF_LISTS:
                update(enumerate_measurement(state, i, dofs))
    return digest.hexdigest()


# The errata walks: every branch of checked (2,1) walks on this many configs
# (the last one vetoed), each with one planted fault per entry here: a plan
# entry and the term of its X form that is flipped.  Flipping first_op's
# constant puts every branch out of step from there on; flipping hop_close[1]'s
# coefficient of k (word bit 0, form bit 1), only the branches with k = 1.  A
# last walk starts from the input pair swapped, out of step at every checkpoint.
ERRATA_CONFIGS = 4
FAULTS = (("first_op", 1), ("hop_close[1]", 2))


def _hexed(value):
    """``value`` with every float in it, in lists and dict values, as hex."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _hexed(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_hexed(v) for v in value]
    return value


def errata_digest() -> str:
    """A sha256 over every branch's stage mismatch records, each as its
    ``to_json()`` with floats as hex, in checked (2,1) walks with each fault
    of FAULTS planted in a fresh build, then in a fresh build whose initial
    state has the input pair swapped, so that the records of every checkpoint,
    ``entangle`` to ``concentrate`` too, carry their reference's bytes."""
    import dataclasses

    from cjrio.hilbert import build_initial_state
    from cjrio.protocol import build_protocol, iter_branches

    digest = hashlib.sha256()
    for config, _ in _run_configs(((2, 1),), ERRATA_CONFIGS):
        protos = [build_protocol(config) for _ in range(len(FAULTS) + 1)]
        for proto, (node, term) in zip(protos, FAULTS):
            proto.plan[node] = dataclasses.replace(proto.plan[node], x=proto.plan[node].x ^ term)
        protos[-1].initial_state = build_initial_state(config.beta, config.alpha, 2, 1)
        for proto in protos:
            for res in iter_branches(config, check_stages=True, protocol=proto):
                digest.update(repr([_hexed(e.to_json()) for e in res.errata]).encode())
    return digest.hexdigest()


def _transcript_text(res) -> bytes:
    """The JSON text of ``res``'s transcript, keys sorted: the ``transcript``
    section of a ``simulate`` report."""
    return json.dumps(res.transcript, sort_keys=True).encode()


def digests() -> dict[str, str]:
    """The scheme, seeded-run, shared-protocol, validated-walk, readout,
    errata and transcript digests of the cjrio this process imports, each a
    sha256 over the repr, or for transcripts the JSON, of what it covers."""
    import numpy as np

    from cjrio import ProtocolConfig, SU2Operator
    from cjrio.protocol import (ProtocolRun, branch_fidelity, build_protocol, iter_branches,
                                run_full)

    scheme = hashlib.sha256()
    for m in range(1, 10):
        for n in range(5):
            proto = build_protocol(ProtocolConfig(m, n, (SU2Operator(1, 0),) * m, 1, 0))
            scheme.update(repr(proto.labels).encode())
            for node in proto.nodes:
                scheme.update(repr((node.name, node.stage, node.party, node.bit_labels,
                                    node.check_id, node.reads)).encode())
            for name, spec in proto.plan.items():
                scheme.update(repr((name, str(spec.party), spec.dof, spec.x, spec.z)).encode())

    def update(digest, config, res):
        fid = branch_fidelity(config, res)
        digest.update(repr((list(res.bits.items()), res.probability.hex(), res.blocked_at,
                            res.max_terms, None if fid is None else fid.hex(),
                            [(ket, a.real.hex(), a.imag.hex())
                             for ket, a in res.state.terms.items()])).encode())

    runs, transcripts = hashlib.sha256(), hashlib.sha256()
    for config, seed in _run_configs():
        res = run_full(config, seed=seed)
        update(runs, config, res)
        transcripts.update(_transcript_text(res))
    # As stats samples: one build and one rng per config, so every run after
    # the first reads the node tables the earlier ones filled.
    shared = hashlib.sha256()
    for config, seed in itertools.islice(_run_configs(), SHARED_CONFIGS):
        proto, rng = build_protocol(config), np.random.default_rng(seed)
        for _ in range(SHARED_RUNS):
            update(shared, config, ProtocolRun(config, rng=rng, protocol=proto).finish())
    # Each correction checked against Pauli search inside its node, as
    # certify's walk does.
    validated = hashlib.sha256()
    for config, _ in _run_configs(VALIDATED_SHAPES, VALIDATED_COUNT):
        for res in iter_branches(config, validate_corrections=True,
                                 check_stages=(config.m, config.n) == (2, 1)):
            fid = branch_fidelity(config, res)
            validated.update(repr((list(res.bits.values()), res.probability.hex(), res.max_terms,
                                   len(res.errata), None if fid is None else fid.hex())).encode())
            transcripts.update(_transcript_text(res))
    return {"scheme digest": scheme.hexdigest(), "seeded-run digest": runs.hexdigest(),
            "shared-protocol digest": shared.hexdigest(),
            "validated-walk digest": validated.hexdigest(), "readout digest": readout_digest(),
            "errata digest": errata_digest(), "transcript digest": transcripts.hexdigest()}


def run_digests(tree: Path) -> tuple[dict[str, str], float]:
    """:func:`digests` computed in one process on ``tree`` (empty if it
    fails or times out), and its wall seconds."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--digests"],
                              env=_env(tree), stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, check=False, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {}, time.perf_counter() - t0
    found = {} if proc.returncode else dict(
        line.rsplit(" ", 1) for line in proc.stdout.splitlines())
    return found, time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout to compare against")
    parser.add_argument("head", type=Path, nargs="?", default=Path(__file__).resolve().parents[1],
                        help="checkout under test (default: this one)")
    parser.add_argument("--python", default=sys.executable,
                        help="interpreter for HEAD's command lines (default: this one)")
    args = parser.parse_args(argv)
    for tree, python in ((args.base, sys.executable), (args.head, args.python)):
        package = (tree / "src" / "cjrio").resolve()
        if not package.is_dir():
            parser.error(f"{tree} holds no src/cjrio")
        try:
            found = imported_from(tree, python)
        except (OSError, subprocess.CalledProcessError) as err:
            parser.error(f"{python} cannot import cjrio from {tree}: {err}")
        if found != package:
            parser.error(f"a process on {tree} imports cjrio from {found}")
    differ = 0
    for cmd in ARGVS:
        (code_a, sha_a, t_a), (code_b, sha_b, t_b) = (run(args.base, cmd),
                                                      run(args.head, cmd, args.python))
        same = code_a == code_b != "timeout" and sha_a == sha_b
        differ += not same
        print(f"{'same' if same else 'DIFFERS'}  exit {code_a}/{code_b}  "
              f"{sha_b[:12]}  {t_a:5.1f}s/{t_b:5.1f}s  {' '.join(cmd)}", flush=True)
    print(f"{len(ARGVS) - differ} of {len(ARGVS)} command lines byte-identical")
    (base, t_a), (head, t_b) = run_digests(args.base), run_digests(args.head)
    for name in ("scheme digest", "seeded-run digest", "shared-protocol digest",
                 "validated-walk digest", "readout digest", "errata digest",
                 "transcript digest"):
        same = name in base and base.get(name) == head.get(name)
        differ += not same
        print(f"{'same' if same else 'DIFFERS'}  {head.get(name, 'failed')[:12]}  "
              f"{t_a:5.1f}s/{t_b:5.1f}s  {name}", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--digests"]:  # the child process of run_digests
        for name, digest in digests().items():
            print(name, digest)
        sys.exit(0)
    sys.exit(main())

"""Command-line front door: configure runs, enumerate branches, verify
against the oracle, and emit JSON reports.

One JSON document goes to stdout (or --output); a short human summary goes to
stderr.  Identical seeds and flags produce byte-identical reports.  Exit
codes: 0 all checks pass, 1 fidelity failure, 2 blocked by a controller,
3 configuration error or a failed report write, 141 stdout closed before the
report was written.
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
from typing import Sequence, TextIO

from . import __version__, protocol
from .optics import SQRT_HALF, SU2Operator
from .oracle import direct_apply, target_fidelity
from .pcg import PCG64
from .protocol import (FIDELITY_THRESHOLD, ProtocolConfig, ProtocolRun,
                       branch_bit_count, branch_fidelity, check_variant,
                       iter_branches, run_full)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FIDELITY = 1
EXIT_BLOCKED = 2
EXIT_CONFIG = 3
EXIT_BROKEN_PIPE = 128 + 13  # as if killed by SIGPIPE, like a shell pipeline

ENUMERATE_MAX_BITS = 17
MAX_PARTIES = 4
MAX_CONTROLLERS = 3
MAX_U_FLAGS = 9

PRESETS = {
    "identity": (1.0 + 0j, 0j),
    "pauli-x": (0j, 1.0 + 0j),
    "pauli-z": (1j, 0j),
    "hadamard-like": (SQRT_HALF + 0j, SQRT_HALF + 0j),
}


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # usage errors are configuration errors for exit-code purposes
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def parse_complex(text: str) -> complex:
    try:
        return complex(text.strip().replace(" ", ""))
    except ValueError:
        raise ConfigError(f"cannot parse complex number {text!r}") from None


def parse_unitary(text: str) -> SU2Operator:
    body = text.strip()
    if body.startswith("preset:"):
        body = body[len("preset:"):]
    if body in PRESETS:
        return SU2Operator(*PRESETS[body])
    parts = body.split(",")
    if len(parts) != 2:
        raise ConfigError(
            f"operator {text!r}: expected 'preset:<name>' or '<u>,<v>' "
            f"(presets: {', '.join(sorted(PRESETS))})"
        )
    try:
        return SU2Operator(parse_complex(parts[0]), parse_complex(parts[1]))
    except ValueError as exc:
        raise ConfigError(f"operator {text!r}: {exc}") from None


def parse_consent(text: str | None, n: int) -> tuple[bool, ...]:
    if text is None:
        return (True,) * n
    bits = text.strip()
    if n == 0 and bits in ("", "1"):
        return ()
    if len(bits) != n or any(c not in "01" for c in bits):
        raise ConfigError(
            f"consent mask {text!r} must be {n} characters of 0/1 "
            "(one per controller)"
        )
    return tuple(c == "1" for c in bits)


def _seed(text: str) -> int:
    """A ``--seed``: a non-negative int, which seeds :class:`~cjrio.pcg.PCG64`."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def _add_shared_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, default=2, help="number of joint parties (default 2)")
    p.add_argument("--n", type=int, default=1, help="number of controllers (default 1)")
    p.add_argument("--alpha", default="1", help="input amplitude on path 0 (complex, e.g. 0.6 or 0.6+0.2j)")
    p.add_argument("--beta", default="0", help="input amplitude on path 1")
    for i in range(1, MAX_U_FLAGS + 1):
        p.add_argument(f"--u{i}", default=None, metavar="OP",
                       help=argparse.SUPPRESS if i > 2 else
                       f"operator of party {i}: preset:<name> or '<u>,<v>'")
    p.add_argument("--consent", default=None, metavar="MASK",
                   help="per-controller consent bits, e.g. 1 or 101 (default: all consent)")
    p.add_argument("--consent2", default=None, metavar="MASK",
                   help="per-controller consent bits for the release stage (default: same as --consent)")
    p.add_argument("--seed", type=_seed, default=None, help="seed for sampled runs (>= 0)")
    p.add_argument("--check-paper-eqs", action="store_true",
                   help="cross-check simulator states against the per-stage closed forms (m=2, n=1 only)")
    p.add_argument("--variant", choices=protocol.VARIANTS, default="cjrio")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="write the JSON report here instead of stdout")


def build_config(args) -> ProtocolConfig:
    m, n = args.m, args.n
    if m < 1 or n < 0:
        raise ConfigError("need m >= 1 joint parties and n >= 0 controllers")
    if m > MAX_U_FLAGS:
        raise ConfigError(f"m={m} joint parties, but operators can only be given "
                          f"for {MAX_U_FLAGS} (--u1..--u{MAX_U_FLAGS})")
    try:
        check_variant(args.variant, m, n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    unitaries = []
    for i in range(1, MAX_U_FLAGS + 1):
        text = getattr(args, f"u{i}")
        if i <= m:
            unitaries.append(parse_unitary(text) if text else SU2Operator(*PRESETS["identity"]))
        elif text is not None:
            raise ConfigError(f"--u{i} given but only {m} parties configured")
    alpha = parse_complex(args.alpha)
    beta = parse_complex(args.beta)
    consent = parse_consent(args.consent, n)
    consent2 = parse_consent(args.consent2, n) if args.consent2 is not None else consent
    try:
        return ProtocolConfig(m, n, tuple(unitaries), alpha, beta, consent, consent2)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _check_enumerable(config: ProtocolConfig) -> None:
    bits = branch_bit_count(config.m, config.n)
    if config.m > MAX_PARTIES or config.n > MAX_CONTROLLERS or bits > ENUMERATE_MAX_BITS:
        raise ConfigError(
            f"enumeration rejected: m={config.m}, n={config.n} spans "
            f"2^{bits} = {2 ** bits} branches (limit 2^{ENUMERATE_MAX_BITS}; "
            f"m <= {MAX_PARTIES}, n <= {MAX_CONTROLLERS})"
        )


def _check_paper_eqs_shape(args, config: ProtocolConfig) -> None:
    if args.check_paper_eqs and (config.m, config.n) != (2, 1):
        raise ConfigError("--check-paper-eqs needs the m=2, n=1 configuration")


def _c2j(z: complex) -> list[float]:
    return [z.real, z.imag]


def _config_json(config: ProtocolConfig, args, mode: str) -> dict:
    return {
        "m": config.m,
        "n": config.n,
        "alpha": _c2j(config.alpha),
        "beta": _c2j(config.beta),
        "unitaries": [{"u": _c2j(complex(op.u)), "v": _c2j(complex(op.v))}
                      for op in config.unitaries],
        "consent": [int(c) for c in config.consent],
        "consent_phase2": [int(c) for c in config.consent_phase2],
        "variant": args.variant,
        "seed": args.seed,
        "mode": mode,
    }


def _open_output(args) -> contextlib.AbstractContextManager[TextIO]:
    """The report's destination, opened before any branch is computed so an
    unwritable ``--output`` fails fast as a configuration error."""
    if not args.output:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(args.output, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write report to {args.output!r}: {exc.strerror}") from None


def _emit(report: dict, out: TextIO) -> None:
    """Write ``report`` out whole, before a summary line can claim it was."""
    out.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    out.flush()


# Stands in for the spooled "branches" list; no other report string holds a NUL.
_BRANCHES_MARK = "\0branches"

# The branch entries joined into one spool write.  A batch is held three
# times over as it is written (the entries, their join and its bytes), and
# that sets the walk's allocation peak: a (2,1) report peaks near 0.77 MB at
# 128 entries, 0.88 MB at 256 and past 1 MB at 1,024.
_SPOOL_BATCH = 128


# Each 8-bit chunk of a word as list items, bit 0 first, each followed by a separator.
_CHUNKS = tuple("".join(f"{c >> j & 1},\n        " for j in range(8)) for c in range(256))


def _branch_tail(probability: str, fidelity: str, blocked: bool) -> str:
    """What follows the bits list in an entry of an enumerate report's
    "branches" list, ``probability`` and ``fidelity`` given as their JSON
    texts; see :func:`_branch_text`."""
    return (f',\n      "blocked": {"true" if blocked else "false"},\n'
            f'      "fidelity": {fidelity},\n'
            f'      "probability": {probability}\n    }}')


def _branch_text(word: int, width: int, tail: str) -> str:
    """One entry of an enumerate report's "branches" list, the first ``width``
    bits of ``word`` (at most ``ENUMERATE_MAX_BITS``) and then ``tail``, from
    :func:`_branch_tail`, byte for byte as ``json.dumps(report, indent=2,
    sort_keys=True)`` writes it for finite floats, which ``json`` writes with
    ``float.__repr__``."""
    if not width:
        return '    {\n      "bits": []' + tail
    # Three chunks hold 24 bits; 11 characters a bit, less the last separator's 10.
    bits = (_CHUNKS[word & 255] + _CHUNKS[word >> 8 & 255]
            + _CHUNKS[word >> 16 & 255])[:11 * width - 10]
    return f'    {{\n      "bits": [\n        {bits}\n      ]{tail}'


def _summary(line: str) -> None:
    print(line, file=sys.stderr)


def cmd_simulate(args) -> int:
    config = build_config(args)
    _check_paper_eqs_shape(args, config)
    seed = args.seed = int.from_bytes(os.urandom(4), "little") if args.seed is None else args.seed
    with _open_output(args) as out:
        result = run_full(config, seed=seed, check_stages=args.check_paper_eqs)
        try:
            fid, failure = branch_fidelity(config, result), None
        except ValueError as exc:  # a build that leaves a photon live: reported, not raised
            fid, failure = None, str(exc)
        labels = list(result.bits)
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": "simulate",
            "config": _config_json(config, args, "sample"),
            "outcome_labels": labels,
            "branch": {
                "bits": list(result.bits.values()),
                "probability": result.probability,
                "fidelity": fid,
                "blocked": result.blocked,
                "blocked_at": result.blocked_at,
            },
            "transcript": result.transcript,
            "errata": [e.to_json() for e in result.errata],
            "max_terms": result.max_terms,
        }
        _emit(report, out)
    if result.blocked:
        _summary(f"blocked by controller at {result.blocked_at}")
        return EXIT_BLOCKED
    if failure is not None:
        print(f"cjrio: {failure}", file=sys.stderr)
        return EXIT_FIDELITY
    _summary(f"fidelity {fid:.15f} over {len(labels)} outcome bits (seed {seed})")
    return EXIT_OK if fid >= FIDELITY_THRESHOLD else EXIT_FIDELITY


def cmd_enumerate(args) -> int:
    config = build_config(args)
    _check_enumerable(config)
    _check_paper_eqs_shape(args, config)
    target = direct_apply(config.unitaries, config.alpha, config.beta)
    # Looked up on the module, where iter_branches looks it up, so a wrapper
    # put there sees the one build.
    proto = protocol.build_protocol(config)
    walk, root = protocol._start(config, args.check_paper_eqs, False, proto)
    labels = proto.labels
    # The walk alone keeps the build, its tables and subtree entries, to its
    # last leaf, so they are freed before the report is written.
    leaves = walk(root, None)
    del proto, walk, root

    # Errata, blocked branches' too, stay in memory: --check-paper-eqs runs
    # only at (2,1), so there are at most 2^11 branches x 10 checked nodes =
    # 20480 records.
    errata = []
    # A fidelity reads live photons only, and branches that end in one live
    # state share its object, so its JSON text is made once per such object.
    fidelities = {}
    failure = None  # the first fidelity error
    prob_sum = 0.0
    min_fid = None
    blocked_count = 0
    max_terms = 0
    count = 0
    # The last entry's (probability, fidelity text, blocked) and the text
    # after its bits: a run's branches mostly share them.
    tail_key, tail = None, ""
    # Each leaf is written out as it is yielded, from its word and with no
    # BranchResult made, so memory stays flat in the branch count.  sort_keys
    # puts "aggregate", known only after the last branch, ahead of "branches",
    # hence the spool.
    # A binary spool: a text file open for reading resets its decoder per
    # write.  Entries go to it joined, one encode and write per _SPOOL_BATCH.
    with _open_output(args) as out, tempfile.TemporaryFile() as spool:
        batch, sep = [], ""  # sep: ahead of every batch but the first
        for _, live, _, word, width, probability, errs, terms, blocked_at in leaves:
            count += 1
            prob_sum += probability
            if terms > max_terms:
                max_terms = terms
            if errs:
                errata.extend(errs)
            if blocked_at is not None:
                blocked_count += 1
                fid = "null"
            elif (fid := fidelities.get(live)) is None:
                try:
                    value = target_fidelity(live, target)
                except ValueError as exc:  # no fidelity: the report is still written whole
                    failure = failure or str(exc)
                    fid = fidelities[live] = "null"
                else:
                    min_fid = value if min_fid is None else min(min_fid, value)
                    fid = fidelities[live] = float.__repr__(value)
            key = probability, fid, blocked_at is not None
            if key != tail_key or not probability:  # 0.0 and -0.0 print apart
                tail_key, tail = key, _branch_tail(float.__repr__(probability), fid, key[2])
            batch.append(_branch_text(word, width, tail))
            if len(batch) == _SPOOL_BATCH:
                spool.write((sep + ",\n".join(batch)).encode())
                batch, sep = [], ",\n"
        if batch:
            spool.write((sep + ",\n".join(batch)).encode())

        report = {
            "schema_version": SCHEMA_VERSION,
            "command": "enumerate",
            "config": _config_json(config, args, "enumerate"),
            "outcome_labels": list(labels),
            "branches": _BRANCHES_MARK,
            "aggregate": {
                "branch_count": count,
                "blocked_count": blocked_count,
                "probability_sum": prob_sum,
                "min_fidelity": min_fid,
                "classical_bits": None if min_fid is None else len(labels),
                "max_terms": max_terms,
            },
            "errata": [e.to_json() for e in errata],
        }
        head, tail = json.dumps(report, indent=2, sort_keys=True).split(
            json.dumps(_BRANCHES_MARK))
        out.write(head + "[\n")
        spool.seek(0)
        # The spool's ASCII bytes go into an ASCII-compatible output as they are.
        if hasattr(out, "buffer") and codecs.lookup(out.encoding).name in ("utf-8", "ascii"):
            out.flush()
            shutil.copyfileobj(spool, out.buffer)
        else:
            with io.TextIOWrapper(spool, encoding="utf-8") as text:  # closes the spool
                shutil.copyfileobj(text, out)
        out.write("\n  ]" + tail + "\n")
        out.flush()
    _summary(
        f"{count} branches, probability sum {prob_sum:.12f}, "
        f"min fidelity {min_fid if min_fid is not None else 'n/a'}, "
        f"{blocked_count} blocked, {len(errata)} stage mismatches"
    )
    if failure is not None:
        print(f"cjrio: {failure}", file=sys.stderr)
        return EXIT_FIDELITY
    if blocked_count:
        return EXIT_BLOCKED
    if min_fid is None or min_fid < FIDELITY_THRESHOLD:
        return EXIT_FIDELITY
    return EXIT_OK


def cmd_stats(args) -> int:
    config = build_config(args)
    if args.check_paper_eqs:
        raise ConfigError("--check-paper-eqs does not apply to stats, which runs no stage checks")
    if args.samples < 100:
        raise ConfigError("stats needs at least 100 samples")
    _check_enumerable(config)
    if not all(config.consent) or not all(config.consent_phase2):
        raise ConfigError("stats needs a fully consenting configuration")
    proto = protocol.build_protocol(config)
    labels = list(proto.labels)

    with _open_output(args) as out:
        expected = {lbl: 0.0 for lbl in labels}
        for res in iter_branches(config, protocol=proto):
            for lbl in labels:
                if res.bits[lbl]:
                    expected[lbl] += res.probability

        seed = args.seed = 0 if args.seed is None else args.seed
        rng = PCG64(seed)
        counts = {lbl: 0 for lbl in labels}
        for _ in range(args.samples):
            res = ProtocolRun(config, rng=rng, protocol=proto).finish()
            for lbl in labels:
                counts[lbl] += res.bits[lbl]

        all_within = True
        table = {}
        for lbl in labels:
            p = expected[lbl]
            freq = counts[lbl] / args.samples
            sigma = math.sqrt(max(p * (1.0 - p), 1e-300) / args.samples)
            within = abs(freq - p) <= 3.0 * sigma
            all_within = all_within and within
            table[lbl] = {
                "expected": p,
                "count": counts[lbl],
                "frequency": freq,
                "sigma": sigma,
                "within_3_sigma": within,
            }

        report = {
            "schema_version": SCHEMA_VERSION,
            "command": "stats",
            "config": _config_json(config, args, "sample"),
            "samples": args.samples,
            "outcome_labels": labels,
            "bits": table,
            "all_within_3_sigma": all_within,
        }
        _emit(report, out)
    _summary(f"{args.samples} samples over {len(labels)} bits; "
             f"{'all' if all_within else 'NOT all'} within 3 sigma")
    return EXIT_OK if all_within else EXIT_FIDELITY


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cjrio", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cjrio {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", parents=[], help="sample one protocol branch")
    _add_shared_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_enum = sub.add_parser("enumerate", help="verify every outcome branch")
    _add_shared_flags(p_enum)
    p_enum.set_defaults(func=cmd_enumerate)

    p_stats = sub.add_parser("stats", help="empirical outcome frequencies vs exact marginals")
    _add_shared_flags(p_stats)
    p_stats.add_argument("--samples", type=int, default=10000)
    p_stats.set_defaults(func=cmd_stats)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"cjrio: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # The report was not written whole.  If it went to stdout, point that
        # at devnull so the interpreter's last flush of what is still buffered
        # stays quiet.
        if not args.output:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        if isinstance(exc, BrokenPipeError):  # the reader closed stdout
            return EXIT_BROKEN_PIPE
        print(f"cjrio: cannot write report: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

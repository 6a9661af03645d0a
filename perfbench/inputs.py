"""Seeded inputs for the benchmark workloads.

The workload seed is the only source of randomness: one seed always gives the
same configurations, run seeds and command lines.  The program under test
only ever receives what these functions return.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cjrio import ProtocolConfig, SU2Operator

# (m, n) shapes the sampled runs cycle through, smallest to largest.
SAMPLE_SHAPES = ((1, 0), (2, 1), (3, 2), (4, 3), (8, 4))
# Every VETO_EVERY-th cycle of shapes has one controller refuse the release.
VETO_EVERY = 8
# 2^13 branches, about 1 s per CLI call: enough ops in a run for a steady
# best op, where (3,1) at 2^15 branches gave only about 7.
ENUMERATE_SHAPE = (2, 2)
CERTIFY_SHAPE = (2, 1)


@dataclass(frozen=True)
class SampleInput:
    config: ProtocolConfig
    run_seed: int
    blocked_at: str | None  # node that must report the veto, or None


def _unit_pair(rng: np.random.Generator) -> tuple[complex, complex]:
    """Haar-random normalized pair (a, b) with |a|^2 + |b|^2 = 1."""
    x = rng.normal(size=4)
    x /= np.linalg.norm(x)
    return complex(x[0], x[1]), complex(x[2], x[3])


def _config(rng: np.random.Generator, m: int, n: int,
            veto: int | None = None) -> ProtocolConfig:
    ops = tuple(SU2Operator(*_unit_pair(rng)) for _ in range(m))
    alpha, beta = _unit_pair(rng)
    release = tuple(j != veto for j in range(1, n + 1))
    return ProtocolConfig(m, n, ops, alpha, beta, consent_phase2=release)


def sample_inputs(seed: int, count: int) -> list[SampleInput]:
    """``count`` sampled-run inputs cycling through SAMPLE_SHAPES."""
    rng = np.random.default_rng([seed, 1])
    out = []
    for i in range(count):
        m, n = SAMPLE_SHAPES[i % len(SAMPLE_SHAPES)]
        cycle = i // len(SAMPLE_SHAPES)
        veto = None
        if n and cycle % VETO_EVERY == VETO_EVERY - 1:
            veto = int(rng.integers(1, n + 1))
        cfg = _config(rng, m, n, veto)
        blocked_at = f"control_measure[{veto}]" if veto else None
        out.append(SampleInput(cfg, int(rng.integers(2 ** 32)), blocked_at))
    return out


def certify_inputs(seed: int, count: int) -> list[ProtocolConfig]:
    rng = np.random.default_rng([seed, 2])
    return [_config(rng, *CERTIFY_SHAPE) for _ in range(count)]


def _fmt(z: complex) -> str:
    # Shortest round-trip digits, sign always explicit on the imaginary part.
    return f"{z.real!r}{z.imag:+}j"


def cli_enumerate_argv(config: ProtocolConfig, output: str) -> list[str]:
    """``cjrio enumerate`` argv for one configuration, report to ``output``."""
    argv = ["enumerate", "--m", str(config.m), "--n", str(config.n),
            f"--alpha={_fmt(config.alpha)}", f"--beta={_fmt(config.beta)}"]
    for i, op in enumerate(config.unitaries, start=1):
        argv.append(f"--u{i}={_fmt(complex(op.u))},{_fmt(complex(op.v))}")
    return argv + ["--output", output]


def enumerate_inputs(seed: int, count: int) -> list[ProtocolConfig]:
    rng = np.random.default_rng([seed, 3])
    return [_config(rng, *ENUMERATE_SHAPE) for _ in range(count)]


def warm_up_config(seed: int) -> ProtocolConfig:
    """A (1,0) config, 2^5 branches, for warming up the enumerate path."""
    return _config(np.random.default_rng([seed, 4]), 1, 0)

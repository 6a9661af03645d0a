"""Per-stage analytic reference forms for the two-party, one-controller run.

Each checkpoint rebuilds, from nothing but the branch's broadcast bits and
the configured operators, the closed-form state the derivation predicts at
that point of the protocol, and compares it with the simulator state up to
global phase at 1e-12.  A form's builder takes the bits it reads as its
parameters, so one checker builds each form once per value of those bits
and reaches each verdict once per (checkpoint, those bits, live state,
retired bits).  A disagreement is never absorbed: it becomes a structured
mismatch record carrying both coefficient lists, and the report path
surfaces it so it can be held against the documented errata list.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .hilbert import (BasisKet, HybridState, PhotonRegister, VERTICAL,
                      equal_up_to_global_phase, registry)
from .oracle import direct_apply

STAGE_TOL = 1e-12
SQRT_HALF = 1.0 / math.sqrt(2.0)

CHECK_IDS = (
    "entangle",
    "transfer",
    "consent",
    "concentrate",
    "first-op",
    "hop-link",
    "hop-done",
    "joint-measure",
    "control-measure",
    "polar-fixed",
)

@dataclass
class StageMismatch:
    """Simulator state vs reference form at one checkpoint of one branch."""

    stage: str
    bits: dict[str, int]
    photons: list[str]
    simulator: list[dict]
    reference: list[dict]

    def to_json(self) -> dict:
        return {
            "stage": self.stage,
            "branch": self.bits,
            "photons": self.photons,
            "simulator_coefficients": self.simulator,
            "reference_coefficients": self.reference,
        }


def _dump(state: HybridState) -> list[dict]:
    """The terms as coefficient rows, ordered by (path bits, polarization bits)."""
    unpack = state.register.unpack
    out = []
    for ket in sorted(state.terms, key=unpack):
        spatial, polar = unpack(ket)
        amp = state.terms[ket]
        out.append({
            "paths": list(spatial),
            "pol": list(polar),
            "amp": [amp.real, amp.imag],
        })
    return out


def _state(reg: PhotonRegister, alive: tuple[bool, ...],
           terms: dict[int, complex]) -> HybridState:
    terms = {k: a for k, a in terms.items() if abs(a) > 1e-16}
    return HybridState(reg, alive, terms).normalized()


def make_stage_checker(config) -> Callable[..., StageMismatch | None]:
    """Checker closure for one (m=2, n=1) configuration: ``check(labels,
    check_id, word, width, live, frozen)`` takes the bit names, the branch's
    word and bit count, and its state as a live part and the retired bits."""
    if config.m != 2 or config.n != 1:
        raise ValueError("stage reference forms exist only for m=2, n=1")

    alpha, beta = complex(config.alpha), complex(config.beta)
    t2 = direct_apply(config.unitaries[1:], alpha, beta)
    t12 = direct_apply(config.unitaries[:1], t2.a0, t2.a1)  # one step past t2
    pair_in = (alpha, beta)
    pair_2 = (t2.a0, t2.a1)
    pair_12 = (t12.a0, t12.a1)
    reg = registry(2, 1)

    def ghz_state(alive, x_spatial, branches):
        """Two amplitude branches tensored with the polarization GHZ of the
        channel photons; X polar stays V."""
        terms: dict[int, complex] = {}
        for weight, (sa, sb1, sb2, sc) in branches:
            for u in (0, 1):
                ket = BasisKet(
                    (x_spatial, sa, sb1, sb2, sc),
                    (VERTICAL, u, u, u, u),
                )
                terms[ket] = terms.get(ket, 0j) + weight * SQRT_HALF
        return _state(reg, alive, terms)

    all_alive = (True,) * 5
    x_dead = (False, True, True, True, True)

    def f_entangle(k):
        # X still live and in superposition: branch weight rides on X's path.
        terms: dict[int, complex] = {}
        for weight, xs, ch in ((alpha, 0, k), (beta, 1, k ^ 1)):
            for u in (0, 1):
                ket = BasisKet((xs, ch, ch, ch, ch), (VERTICAL, u, u, u, u))
                terms[ket] = weight * SQRT_HALF
        return _state(reg, all_alive, terms)

    def f_transfer(k, m, n):
        sgn = -1.0 if (k ^ m ^ n) else 1.0
        return ghz_state(
            x_dead, n ^ 1,
            [(alpha, (k ^ m ^ 1, k, k, k)),
             (sgn * beta, (k ^ m ^ 1, k ^ 1, k ^ 1, k ^ 1))],
        )

    def f_consent(k, m, n, s):
        sgn = -1.0 if ((m ^ n ^ s) == 0) else 1.0  # minus (-1)^(m^n^s)
        c = k ^ s ^ 1
        return ghz_state(
            x_dead, n ^ 1,
            [(alpha, (k ^ m ^ 1, k, k, c)),
             (sgn * beta, (k ^ m ^ 1, k ^ 1, k ^ 1, c))],
        )

    def f_concentrate(k, m, n, s, l):
        sgn = -1.0 if (k ^ m ^ n ^ s ^ l) else 1.0
        return ghz_state(
            x_dead, n ^ 1,
            [(alpha, (k ^ m ^ 1, k ^ l ^ 1, k, k ^ s ^ 1)),
             (sgn * beta, (k ^ m ^ 1, k ^ l ^ 1, k ^ 1, k ^ s ^ 1))],
        )

    def f_first_op(k, m, n, s, l):
        return ghz_state(
            x_dead, n ^ 1,
            [(pair_2[0], (k ^ m ^ 1, k ^ l ^ 1, 0, k ^ s ^ 1)),
             (pair_2[1], (k ^ m ^ 1, k ^ l ^ 1, 1, k ^ s ^ 1))],
        )

    def f_hop_link(k, m, n, s, l, r):
        sgn = -1.0 if (k ^ l ^ 1) else 1.0
        return ghz_state(
            x_dead, n ^ 1,
            [(pair_2[0], (k ^ m ^ 1, k ^ l ^ r ^ 1, 0, k ^ s ^ 1)),
             (sgn * pair_2[1], (k ^ m ^ 1, k ^ l ^ r, 1, k ^ s ^ 1))],
        )

    def f_hop_done(k, m, n, s, g):
        return ghz_state(
            x_dead, n ^ 1,
            [(pair_12[0], (k ^ m ^ 1, 0, g, k ^ s ^ 1)),
             (pair_12[1], (k ^ m ^ 1, 1, g, k ^ s ^ 1))],
        )

    def f_joint_measure(k, m, n, s, p, q, w, g):
        sgn = -1.0 if (q ^ w) else 1.0
        alive = (False, True, False, False, True)
        terms = {
            BasisKet((n ^ 1, k ^ m ^ 1, q, g, k ^ s ^ 1),
                     (VERTICAL, p, p, w, p)): pair_12[0],
            BasisKet((n ^ 1, k ^ m ^ 1, q, g, k ^ s ^ 1),
                     (VERTICAL, p ^ 1, p, w, p ^ 1)): sgn * pair_12[1],
        }
        return _state(reg, alive, terms)

    def f_control_measure(k, m, n, s, p, q, w, g, v):
        sgn = -1.0 if (q ^ w ^ v) else 1.0
        alive = (False, True, False, False, False)
        c_path = (k ^ s ^ 1) ^ v  # the splitter moved the V component over
        terms = {
            BasisKet((n ^ 1, k ^ m ^ 1, q, g, c_path),
                     (VERTICAL, p, p, w, v)): pair_12[0],
            BasisKet((n ^ 1, k ^ m ^ 1, q, g, c_path),
                     (VERTICAL, p ^ 1, p, w, v)): sgn * pair_12[1],
        }
        return _state(reg, alive, terms)

    def f_polar_fixed(k, m, n, s, p, q, w, g, v):
        alive = (False, True, False, False, False)
        c_path = (k ^ s ^ 1) ^ v
        terms = {
            BasisKet((n ^ 1, k ^ m ^ 1, q, g, c_path),
                     (VERTICAL, 0, p, w, v)): pair_12[0],
            BasisKet((n ^ 1, k ^ m ^ 1, q, g, c_path),
                     (VERTICAL, 1, p, w, v)): pair_12[1],
        }
        return _state(reg, alive, terms)

    builders = {
        "entangle": f_entangle,
        "transfer": f_transfer,
        "consent": f_consent,
        "concentrate": f_concentrate,
        "first-op": f_first_op,
        "hop-link": f_hop_link,
        "hop-done": f_hop_done,
        "joint-measure": f_joint_measure,
        "control-measure": f_control_measure,
        "polar-fixed": f_polar_fixed,
    }

    # A builder reads exactly the bits its parameters name (found in the word
    # on a checkpoint's first check), so its form is a function of their
    # values, and a verdict of those, the live state (never mutated, so its
    # identity will do) and the retired bits; memos the checker owns keep both.
    # A full state is made on a verdict's first check, names only for a mismatch.
    params = {check_id: tuple(inspect.signature(build).parameters)
              for check_id, build in builders.items()}
    readers: dict[str, tuple] = {}

    def check(labels: Sequence[str], check_id: str, word: int, width: int,
              live: HybridState, frozen: int) -> StageMismatch | None:
        if (reader := readers.get(check_id)) is None:
            at = [labels.index(p) for p in params[check_id]]
            reader = readers[check_id] = at, sum(1 << j for j in at), {}, {}
        at, mask, refs, verdicts = reader
        read = word & mask
        verdict = verdicts.get((read, live, frozen))
        if verdict is None:  # a pass is (), a mismatch the two states
            if (ref := refs.get(read)) is None:
                ref = refs[read] = builders[check_id](*[word >> j & 1 for j in at])
            sim = live.with_frozen(frozen)
            verdict = verdicts[read, live, frozen] = (
                () if equal_up_to_global_phase(sim, ref, STAGE_TOL) else (sim, ref))
        if not verdict:
            return None
        sim, ref = verdict
        return StageMismatch(
            stage=check_id,
            bits={labels[j]: word >> j & 1 for j in range(width)},
            photons=[str(p) for p in sim.photons],
            simulator=_dump(sim),
            reference=_dump(ref),
        )

    return check

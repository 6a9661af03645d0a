"""Independent ground truth for the remote-operation task.

Everything here deliberately bypasses the protocol engine: the target state
comes from plain 2x2 matrix products, and corrections are found by exhaustive
search over the four Pauli powers against a factorization of the state.  The
protocol's frame-derived corrections are validated against this module, never
the other way around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .hilbert import A, HybridState, PHASE_TOL, check_unit_pair
from .optics import (ALL_PAULI_POWERS, PauliPower, SU2Operator,
                     apply_pauli_polar, apply_pauli_spatial)

FACTOR_TOL = 1e-9  # largest amplitude residue a factored-out qubit may leave


class CorrectionSearchError(ValueError):
    """Exhaustive Pauli search found no working correction."""


@dataclass(frozen=True)
class TargetState:
    """Amplitudes on Alice's two paths with fixed V polarization."""

    a0: complex
    a1: complex

    def __post_init__(self) -> None:
        check_unit_pair({"a0": self.a0, "a1": self.a1}, "target amplitude ",
                        "target amplitudes must be finite", "target amplitudes are not normalized")


def split(x: float) -> tuple[float, float, float]:
    """``(x, hi, lo)``: Veltkamp's split, ``hi + lo == x`` in 26-bit halves."""
    hi = (c := 134217729.0 * x) - (c - x)  # 2**27 + 1
    return x, hi, x - hi


def fma(a: tuple[float, float, float], b: tuple[float, float, float], c: float) -> float:
    """``a*b + c`` rounded once, with IEEE 754's signed zero, for finite ``a``, ``b``
    (as :func:`split` gives them) and ``c``; OverflowError past the float range.  Exact
    ratios replace Dekker's product where ``a*b`` is tiny, huge or 0 or a split overflowed."""
    (a, ah, al), (b, bh, bl) = a, b
    p = a * b
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl  # a*b == p + e
    if 2.0 ** -900 < abs(p) < 2.0 ** 900 and e == e:  # e is NaN if a split overflowed
        return math.fsum((p, e, c))
    if not (a and b):  # an exact zero product: IEEE's sum gives the zero's sign
        return p + c
    (an, ad), (bn, bd), (cn, cd) = a.as_integer_ratio(), b.as_integer_ratio(), c.as_integer_ratio()
    num = an * bn * cd + cn * ad * bd
    return num / (ad * bd * cd) if num else 0.0  # int division rounds correctly


def direct_apply(
    unitaries: Sequence[SU2Operator], alpha: complex, beta: complex
) -> TargetState:
    """Left-to-right matrix product of all party operators applied to the
    input pair: U1 . U2 . ... . UM (alpha, beta)^T.  Each entry product m*x
    is ``(fma(m.re, x.re, -(m.im*x.im)), fma(m.re, x.im, m.im*x.re))`` and a row
    adds its two plainly, as numpy's ``@`` rounds under OpenBLAS's SkylakeX
    kernel: pinned, so that report bytes depend on no BLAS kernel."""
    if not unitaries:
        raise ValueError("at least one operator is required")
    y0, y1 = complex(alpha), complex(beta)
    for op in reversed(unitaries):
        u, v = complex(op.u), complex(op.v)  # the rows are (u, v) and (-v*, u*)
        ur, vr, nvr, ar, ai, br, bi = map(split, (
            u.real, v.real, -v.real, y0.real, y0.imag, y1.real, y1.imag))
        y0, y1 = (complex(fma(mr, ar, -(mi * ai[0])) + fma(nr, br, -(ni * bi[0])),
                          fma(mr, ai, mi * ar[0]) + fma(nr, bi, ni * br[0]))
                  for mr, mi, nr, ni in ((ur, u.imag, vr, v.imag), (nvr, v.imag, ur, -u.imag)))
    return TargetState(y0, y1)


def target_fidelity(final: HybridState, target: TargetState) -> float:
    """|<target|final>| with the target embedded on photon A's path qubit.

    The final state must have photon A as its only live photon, V polarized.
    """
    alive = final.alive
    try:  # a registry's A is photon 1
        i, missing = 1 if final.photons[1:2] == (A,) else final.index_of(A), None
    except ValueError as err:  # no A: a live photon is a stray, named before this error
        i, missing = -1, err
    if missing is not None or not alive[i] or alive.count(True) > 1:
        for j, flag in enumerate(alive):
            if flag and j != i:
                raise ValueError(f"protocol incomplete: photon {final.photons[j]} still live")
        if missing is not None:
            raise missing
        raise ValueError("photon A must be live in the final state")
    on, pol = final.register.masks[i]
    c0 = c1 = 0j
    for ket, amp in final.terms.items():
        if not ket & pol:  # H polarized
            break
        if ket & on:
            c1 += amp
        else:
            c0 += amp
    else:
        if final.terms:
            return abs(target.a0.conjugate() * c0 + target.a1.conjugate() * c1)
    final.definite_bit(i, "polar")  # raises unless every ket is on H
    raise ValueError("final state must be V polarized on photon A")


def extract_qubit(state: HybridState, i: int, dof: str) -> tuple[complex, complex]:
    """Factor out the qubit of the photon at position ``i`` on one DOF.

    Requires the state to split as (c0|0> + c1|1>) on that bit tensor an
    arbitrary remainder; returns the normalized (c0, c1).  Raises ValueError
    when the bit is entangled with the rest.
    """
    state.require_alive(i)
    on = state.register.mask(i, dof)
    rests: tuple[dict, dict] = ({}, {})
    for ket, amp in state.terms.items():
        rests[1 if ket & on else 0][ket & ~on] = amp
    v0, v1 = rests
    if not v1:
        return (1.0 + 0j, 0j)
    if not v0:
        return (0j, 1.0 + 0j)
    if set(v0) != set(v1):
        raise ValueError(f"photon {state.photons[i]} {dof} bit is entangled with the rest")
    anchor = max(v0, key=lambda k: abs(v0[k]))
    lam = v1[anchor] / v0[anchor]
    for k, a in v0.items():
        if abs(v1[k] - lam * a) > FACTOR_TOL:
            raise ValueError(f"photon {state.photons[i]} {dof} bit is entangled with the rest")
    scale = 1.0 / math.sqrt(1.0 + abs(lam) ** 2)
    return (scale + 0j, lam * scale)


def brute_force_correction(state: HybridState, i: int, dof: str,
                           want: tuple[complex, complex]) -> tuple[PauliPower, ...]:
    """Search the four Pauli powers for every one that brings the qubit of
    the photon at position ``i`` to the wanted amplitude pair (up to global
    phase), in ``ALL_PAULI_POWERS`` order.  A generic pair has exactly one,
    a degenerate pair more: on a basis state, Z is only a global phase."""
    w0, w1 = complex(want[0]), complex(want[1])
    wnorm = math.sqrt(abs(w0) ** 2 + abs(w1) ** 2)
    w0, w1 = w0 / wnorm, w1 / wnorm
    applier = apply_pauli_spatial if dof == "spatial" else apply_pauli_polar
    matches = []
    for power in ALL_PAULI_POWERS:
        candidate = applier(state, i, power)
        try:
            c0, c1 = extract_qubit(candidate, i, dof)
        except ValueError:
            continue
        if abs(w0.conjugate() * c0 + w1.conjugate() * c1) >= 1.0 - PHASE_TOL:
            matches.append(power)
    if not matches:
        raise CorrectionSearchError(f"no working correction on {state.photons[i]} {dof}")
    return tuple(matches)

"""Linear-optical elements and local unitaries on single photons.

All operations are pure functions from state to state, exactly norm
preserving, and reject photons that were already measured out.  Each takes
the photon's register position (``state.index_of(photon)``) and reads and
flips its ket bits through the register's masks.  The balanced
beam splitter and the quarter-wave plate are both modeled as the Hadamard
rotation on their bit (sign carried by the path-1 / V output component), so
each is its own inverse; that is the reading under which every published
per-step closed form of the protocol reproduces, see the stage checker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .hilbert import HybridState, check_unit_pair, on_path, prune

SQRT_HALF = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class SU2Operator:
    """2x2 unitary ((u, v), (-v*, u*)) acting on a two-path qubit."""

    u: complex
    v: complex

    def __post_init__(self) -> None:
        check_unit_pair({"u": self.u, "v": self.v}, "operator entry ",
                        "operator entries u and v must be finite", "|u|^2 + |v|^2 must equal 1")


@dataclass(frozen=True)
class PauliPower:
    """X^x Z^z up to global phase; exponents are bits, composition is XOR."""

    x_pow: int
    z_pow: int

    def __post_init__(self) -> None:
        if not all(type(e) is int and e in (0, 1) for e in (self.x_pow, self.z_pow)):
            raise ValueError(f"Pauli exponents must be ints 0 or 1, got {self.x_pow!r}, {self.z_pow!r}")

    def __str__(self) -> str:
        return f"Z^{self.z_pow}X^{self.x_pow}"


ALL_PAULI_POWERS = (PauliPower(0, 0), PauliPower(1, 0), PauliPower(0, 1), PauliPower(1, 1))


def _hadamard(state: HybridState, bit: int, if_mask: int = 0, if_value: int = 0) -> HybridState:
    # Rotates ``bit`` in the kets whose ``if_mask`` bits read ``if_value``
    # (every ket by default); the others pass through.
    off = ~bit
    out: dict[int, complex] = {}
    for ket, amp in state.terms.items():
        if (ket & if_mask) != if_value:
            out[ket] = out.get(ket, 0j) + amp
            continue
        half = amp * SQRT_HALF
        k0 = ket & off
        k1 = ket | bit
        out[k0] = out.get(k0, 0j) + half
        out[k1] = out.get(k1, 0j) + (-half if ket & bit else half)
    return state.adopt(prune(out))


def _flip(state: HybridState, bit: int, if_mask: int, if_value: int) -> HybridState:
    # Flips ``bit`` in the kets whose ``if_mask`` bits read ``if_value``.
    out: dict[int, complex] = {}
    for ket, amp in state.terms.items():
        if (ket & if_mask) == if_value:
            ket ^= bit
        out[ket] = out.get(ket, 0j) + amp
    return state.adopt(out)


def apply_bbs(state: HybridState, i: int) -> HybridState:
    """Balanced beam splitter mixing the paths of the photon at position
    ``i``: |0> -> (|0> + |1>)/sqrt2, |1> -> (|0> - |1>)/sqrt2.  Self-inverse."""
    sm, _ = state.require_alive(i)
    return _hadamard(state, sm)


def apply_hwp(state: HybridState, i: int, path: int) -> HybridState:
    """Half-wave plate on one path: swaps H and V there, other path untouched."""
    sm, pm = state.require_alive(i)
    return _flip(state, pm, sm, on_path(sm, path))


def apply_qwp(state: HybridState, i: int, path: int) -> HybridState:
    """Quarter-wave plate on one path: polarization Hadamard,
    H -> (H + V)/sqrt2, V -> (H - V)/sqrt2."""
    sm, pm = state.require_alive(i)
    return _hadamard(state, pm, sm, on_path(sm, path))


def apply_pbs(state: HybridState, i: int, in_path: int) -> HybridState:
    """Polarizing beam splitter fed from a single path: H is transmitted and
    keeps the path, V is reflected onto the other path.  Polarization is
    unchanged; the photon's path becomes correlated with it."""
    sm, pm = state.require_alive(i)
    on = on_path(sm, in_path)
    for ket in state.terms:
        if (ket & sm) != on:
            raise ValueError(
                f"photon {state.photons[i]} has amplitude off path {in_path}; "
                "single-input use only"
            )
    return _flip(state, sm, pm, pm)


def _apply_pauli(state: HybridState, i: int, power: PauliPower, dof: str) -> HybridState:
    # Z^z X^x as an operator product: X flips first, Z phases the flipped bit.
    # Not _flip: its 0j + amp would turn a -0.0 part into +0.0.
    sm, pm = state.require_alive(i)
    bit = sm if dof == "spatial" else pm
    flip = bit if power.x_pow else 0
    out: dict[int, complex] = {}
    for ket, amp in state.terms.items():
        ket ^= flip
        if power.z_pow and ket & bit:
            amp = -amp
        out[ket] = amp
    return state.adopt(out)


def apply_pauli_spatial(state: HybridState, i: int, power: PauliPower) -> HybridState:
    """Path-qubit Pauli correction Z^z X^x on the photon at position ``i``."""
    return _apply_pauli(state, i, power, "spatial")


def apply_pauli_polar(state: HybridState, i: int, power: PauliPower) -> HybridState:
    """Polarization-qubit Pauli correction Z^z X^x on the photon at position ``i``."""
    return _apply_pauli(state, i, power, "polar")


def apply_su2_spatial(state: HybridState, i: int, op: SU2Operator) -> HybridState:
    """Apply a party's 2x2 operator to the path qubit of the photon at
    position ``i`` (path 0 maps to the first matrix row)."""
    on, _ = state.require_alive(i)
    off = ~on
    u, v = complex(op.u), complex(op.v)
    pairs: dict[int, list[complex]] = {}
    for ket, amp in state.terms.items():
        slot = pairs.setdefault(ket & off, [0j, 0j])
        slot[1 if ket & on else 0] += amp
    out: dict[int, complex] = {}
    for key, (a0, a1) in pairs.items():
        out[key] = u * a0 + v * a1
        out[key | on] = -v.conjugate() * a0 + u.conjugate() * a1
    return state.adopt(prune(out))

"""Linear-optical elements and local unitaries on single photons.

All operations are pure functions from state to state, exactly norm
preserving, and reject photons that were already measured out.  The balanced
beam splitter and the quarter-wave plate are both modeled as the Hadamard
rotation on their bit (sign carried by the path-1 / V output component), so
each is its own inverse; that is the reading under which every published
per-step closed form of the protocol reproduces, see the stage checker.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .hilbert import BasisKet, HybridState, PhotonId, prune

SQRT_HALF = 1.0 / math.sqrt(2.0)
UNITARY_TOL = 1e-9


@dataclass(frozen=True)
class SU2Operator:
    """2x2 unitary ((u, v), (-v*, u*)) acting on a two-path qubit."""

    u: complex
    v: complex

    def __post_init__(self) -> None:
        u, v = complex(self.u), complex(self.v)
        if not (cmath.isfinite(u) and cmath.isfinite(v)):
            raise ValueError("operator entries u and v must be finite")
        if abs(abs(u) ** 2 + abs(v) ** 2 - 1.0) > UNITARY_TOL:
            raise ValueError("|u|^2 + |v|^2 must equal 1")

    @property
    def matrix(self) -> np.ndarray:
        u, v = complex(self.u), complex(self.v)
        return np.array([[u, v], [-v.conjugate(), u.conjugate()]], dtype=complex)

    def dagger(self) -> "SU2Operator":
        return SU2Operator(complex(self.u).conjugate(), -complex(self.v))


@dataclass(frozen=True)
class PauliPower:
    """X^x Z^z up to global phase; exponents are bits, composition is XOR."""

    x_pow: int
    z_pow: int

    def __post_init__(self) -> None:
        if self.x_pow not in (0, 1) or self.z_pow not in (0, 1):
            raise ValueError("Pauli exponents must be bits")

    def __str__(self) -> str:
        return f"Z^{self.z_pow}X^{self.x_pow}"


ALL_PAULI_POWERS = (PauliPower(0, 0), PauliPower(1, 0), PauliPower(0, 1), PauliPower(1, 1))


def apply_bbs(state: HybridState, photon: PhotonId) -> HybridState:
    """Balanced beam splitter mixing the photon's two paths:
    |0> -> (|0> + |1>)/sqrt2, |1> -> (|0> - |1>)/sqrt2.  Self-inverse."""
    i = state.require_alive(photon)
    out: dict[BasisKet, complex] = {}
    for ket, amp in state.terms.items():
        j = ket.spatial[i]
        half = amp * SQRT_HALF
        k0 = ket.with_spatial(i, 0)
        k1 = ket.with_spatial(i, 1)
        out[k0] = out.get(k0, 0j) + half
        out[k1] = out.get(k1, 0j) + (-half if j else half)
    return state.replace_terms(prune(out))


def apply_hwp(state: HybridState, photon: PhotonId, path: int) -> HybridState:
    """Half-wave plate on one path: swaps H and V there, other path untouched."""
    i = state.require_alive(photon)
    out: dict[BasisKet, complex] = {}
    for ket, amp in state.terms.items():
        if ket.spatial[i] == path:
            ket = ket.with_polar(i, ket.polar[i] ^ 1)
        out[ket] = out.get(ket, 0j) + amp
    return state.replace_terms(out)


def apply_qwp(state: HybridState, photon: PhotonId, path: int) -> HybridState:
    """Quarter-wave plate on one path: polarization Hadamard,
    H -> (H + V)/sqrt2, V -> (H - V)/sqrt2."""
    i = state.require_alive(photon)
    out: dict[BasisKet, complex] = {}
    for ket, amp in state.terms.items():
        if ket.spatial[i] != path:
            out[ket] = out.get(ket, 0j) + amp
            continue
        j = ket.polar[i]
        half = amp * SQRT_HALF
        kh = ket.with_polar(i, 0)
        kv = ket.with_polar(i, 1)
        out[kh] = out.get(kh, 0j) + half
        out[kv] = out.get(kv, 0j) + (-half if j else half)
    return state.replace_terms(prune(out))


def apply_pbs(state: HybridState, photon: PhotonId, in_path: int) -> HybridState:
    """Polarizing beam splitter fed from a single path: H is transmitted and
    keeps the path, V is reflected onto the other path.  Polarization is
    unchanged; the photon's path becomes correlated with it."""
    i = state.require_alive(photon)
    for ket in state.terms:
        if ket.spatial[i] != in_path:
            raise ValueError(
                f"photon {photon} has amplitude off path {in_path}; "
                "single-input use only"
            )
    out: dict[BasisKet, complex] = {}
    for ket, amp in state.terms.items():
        if ket.polar[i] == 1:
            ket = ket.with_spatial(i, in_path ^ 1)
        out[ket] = out.get(ket, 0j) + amp
    return state.replace_terms(out)


def _apply_pauli(state: HybridState, photon: PhotonId, power: PauliPower, dof: str) -> HybridState:
    # Z^z X^x as an operator product: X flips first, Z phases the flipped bit.
    i = state.require_alive(photon)
    x, z = power.x_pow, power.z_pow
    if x == 0 and z == 0:
        return state.replace_terms(state.terms)
    out: dict[BasisKet, complex] = {}
    for ket, amp in state.terms.items():
        bit = (ket.spatial[i] if dof == "spatial" else ket.polar[i]) ^ x
        if z and bit:
            amp = -amp
        if x:
            ket = ket.with_spatial(i, bit) if dof == "spatial" else ket.with_polar(i, bit)
        out[ket] = amp
    return state.replace_terms(out)


def apply_pauli_spatial(state: HybridState, photon: PhotonId, power: PauliPower) -> HybridState:
    """Path-qubit Pauli correction Z^z X^x on one photon."""
    return _apply_pauli(state, photon, power, "spatial")


def apply_pauli_polar(state: HybridState, photon: PhotonId, power: PauliPower) -> HybridState:
    """Polarization-qubit Pauli correction Z^z X^x on one photon."""
    return _apply_pauli(state, photon, power, "polar")


def apply_su2_spatial(state: HybridState, photon: PhotonId, op: SU2Operator) -> HybridState:
    """Apply a party's 2x2 operator to the photon's path qubit
    (path 0 maps to the first matrix row)."""
    i = state.require_alive(photon)
    u, v = complex(op.u), complex(op.v)
    pairs: dict[BasisKet, list[complex]] = {}
    for ket, amp in state.terms.items():
        key = ket.with_spatial(i, 0)
        slot = pairs.setdefault(key, [0j, 0j])
        slot[ket.spatial[i]] += amp
    out: dict[BasisKet, complex] = {}
    for key, (a0, a1) in pairs.items():
        out[key] = u * a0 + v * a1
        out[key.with_spatial(i, 1)] = -v.conjugate() * a0 + u.conjugate() * a1
    return state.replace_terms(prune(out))

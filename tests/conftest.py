"""Shared helpers: random inputs, dense-vector oracles kept independent of
the package's sparse-state code paths, and a fixture that pins the
polarization correction."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import settings

from cjrio import SU2Operator, protocol
from cjrio.hilbert import HybridState, PhotonId
from cjrio.optics import PauliPower


# Property tests draw a fixed, bounded example set, so tier-1 stays
# deterministic and its time stays bounded.
settings.register_profile("cjrio", derandomize=True, max_examples=100, deadline=None,
                          database=None)
settings.load_profile("cjrio")


def random_su2(rng: np.random.Generator) -> SU2Operator:
    z = rng.standard_normal(4)
    u = complex(z[0], z[1])
    v = complex(z[2], z[3])
    nrm = (abs(u) ** 2 + abs(v) ** 2) ** 0.5
    return SU2Operator(u / nrm, v / nrm)


def random_pair(rng: np.random.Generator) -> tuple[complex, complex]:
    z = rng.standard_normal(4)
    a = complex(z[0], z[1])
    b = complex(z[2], z[3])
    nrm = (abs(a) ** 2 + abs(b) ** 2) ** 0.5
    return a / nrm, b / nrm


def matrix(op: SU2Operator) -> np.ndarray:
    """The operator's dense 2x2 matrix ((u, v), (-v*, u*))."""
    u, v = complex(op.u), complex(op.v)
    return np.array([[u, v], [-v.conjugate(), u.conjugate()]], dtype=complex)


def bit(state: HybridState, ket: int, photon: PhotonId, dof: str = "spatial") -> int:
    """One bit of a ket of ``state``, read through the register's mask."""
    return 1 if ket & state.register.mask(state.index_of(photon), dof) else 0


def dense_vector(state: HybridState) -> np.ndarray:
    """Flatten a sparse state into the full 4^n-dimensional vector, one
    (spatial, polar) qubit pair per photon, independent numpy path."""
    reg = state.register
    n = len(reg)
    masks = [(reg.mask(i, "spatial"), reg.mask(i, "polar")) for i in range(n)]
    vec = np.zeros(4 ** n, dtype=complex)
    for ket, amp in state.terms.items():
        idx = 0
        for spatial, polar in masks:
            idx = idx * 4 + (2 if ket & spatial else 0) + (1 if ket & polar else 0)
        vec[idx] += amp
    return vec


def dense_overlap(a: HybridState, b: HybridState) -> complex:
    """<a|b> over the two states' dense vectors; both must be on one register
    with the same alive flags."""
    assert a.register == b.register and a.alive == b.alive
    return complex(np.vdot(dense_vector(a), dense_vector(b)))


def dense_norm(state: HybridState) -> float:
    """The 2-norm of the state's dense vector."""
    return float(np.linalg.norm(dense_vector(state)))


def dense_reduced_purity(state: HybridState, keep_indices, dof: str = "both") -> float:
    """Brute-force Tr(rho^2) via the dense density matrix."""
    n = len(state.register)
    vec = dense_vector(state).reshape([2] * (2 * n))
    # axis 2i = photon i spatial, axis 2i+1 = photon i polar
    keep_axes = []
    for i in keep_indices:
        if dof in ("both", "spatial"):
            keep_axes.append(2 * i)
        if dof in ("both", "polar"):
            keep_axes.append(2 * i + 1)
    other = [ax for ax in range(2 * n) if ax not in keep_axes]
    perm = keep_axes + other
    psi = np.transpose(vec, perm).reshape(2 ** len(keep_axes), 2 ** len(other))
    rho = psi @ psi.conj().T
    rho = rho / np.trace(rho)
    return float(np.real(np.trace(rho @ rho)))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)


@pytest.fixture
def fixed_polar_fix(monkeypatch):
    """Call with a PauliPower to make every protocol built afterwards apply
    that one polarization fix on every branch, in place of the v-dependent
    correction the frame derives."""
    build = protocol.build_protocol

    def fix(power: PauliPower) -> None:
        def build_fixed(*args, **kwargs) -> protocol.Protocol:
            proto = build(*args, **kwargs)
            # constant forms: the exponents on bit 0, no outcome bit
            proto.plan["polar_fix"] = dataclasses.replace(
                proto.plan["polar_fix"], x=power.x_pow, z=power.z_pow)
            return proto

        monkeypatch.setattr(protocol, "build_protocol", build_fixed)

    return fix


@pytest.fixture
def flipped_x(monkeypatch):
    """Call with a node name to make every protocol built afterwards flip the
    constant of that node's X exponent, a wrong fix on every branch, or with
    ``bit`` too, its coefficient of the word's bit ``bit``, a wrong fix on the
    branches where that bit is 1."""
    build = protocol.build_protocol

    def flip(node: str, bit: int | None = None) -> None:
        term = 1 if bit is None else 2 << bit  # a form's bit 0 is its constant

        def build_flipped(*args, **kwargs) -> protocol.Protocol:
            proto = build(*args, **kwargs)
            proto.plan[node] = dataclasses.replace(proto.plan[node], x=proto.plan[node].x ^ term)
            return proto

        monkeypatch.setattr(protocol, "build_protocol", build_flipped)

    return flip

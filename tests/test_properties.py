"""Property tests on random registries up to (4,3) and random sparse states:
each optics primitive held against a dense 4x4 matrix applied to
``dense_vector``, the ket format, and each measurement outcome against the
prune-normalize-retire composition it replaces.  Sampled runs with random
SU(2) operators and inputs up to (8,4) are checked against the oracle.
Examples come from the derandomized profile registered in conftest, so runs
are repeatable."""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from cjrio.hilbert import (PRUNE_TOL, BasisKet, HybridState, enumerate_measurement,
                           prune, registry)
from cjrio.kerr import enumerate_homodyne, fresh_probe, kerr
from cjrio.optics import (PauliPower, SU2Operator, apply_bbs, apply_hwp,
                          apply_pauli_polar, apply_pauli_spatial, apply_pbs,
                          apply_qwp, apply_su2_spatial)
from cjrio.oracle import direct_apply, target_fidelity
from cjrio.protocol import ProtocolConfig, ProtocolRun

from conftest import dense_norm, dense_vector, matrix

S = 1 / math.sqrt(2)
I2 = np.eye(2)
HAD = np.array([[S, S], [S, -S]])
X2 = np.array([[0, 1], [1, 0]])
Z2 = np.diag([1, -1])

OPS = ("bbs", "hwp", "qwp", "pbs", "pauli_spatial", "pauli_polar", "su2")


def on_path(path: int, op: np.ndarray) -> np.ndarray:
    """``op`` on the polarization where the photon is on ``path``; identity
    on the other path.  Local basis index: 2 * path bit + polarization bit."""
    proj = np.zeros((2, 2))
    proj[path, path] = 1
    return np.kron(proj, op) + np.kron(I2 - proj, I2)


def pauli(power: PauliPower) -> np.ndarray:
    return np.linalg.matrix_power(Z2, power.z_pow) @ np.linalg.matrix_power(X2, power.x_pow)


@st.composite
def registers(draw):
    return registry(draw(st.integers(1, 4)), draw(st.integers(0, 3)))


def _unit_pair(z: list[float]) -> tuple[complex, complex]:
    nrm = math.sqrt(sum(x * x for x in z))
    return complex(z[0], z[1]) / nrm, complex(z[2], z[3]) / nrm


def unit_pairs():
    """Complex pairs (a, b) with |a|^2 + |b|^2 = 1."""
    return st.lists(st.floats(-1, 1), min_size=4, max_size=4).filter(
        lambda z: sum(x * x for x in z) > 1e-3).map(_unit_pair)


@st.composite
def cases(draw, ops=OPS):
    """(state, op name, photon position, op argument, local 4x4 matrix)."""
    reg = draw(registers())
    size = len(reg)
    op = draw(st.sampled_from(ops))
    i = draw(st.integers(0, size - 1))
    bits = st.lists(st.integers(0, 1), min_size=size, max_size=size)
    pairs = draw(st.lists(st.tuples(bits, bits), min_size=1, max_size=8))
    if op == "pbs":
        # the splitter takes a single input path
        path = draw(st.integers(0, 1))
        for spatial, _ in pairs:
            spatial[i] = path
    amp = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    terms = {BasisKet(s, p): draw(amp) for s, p in pairs}
    if sum(abs(a) ** 2 for a in terms.values()) < 1e-6:
        terms = {ket: 1.0 for ket in terms}
    state = HybridState(reg, (True,) * size, terms).normalized()

    if op == "bbs":
        return state, op, i, None, np.kron(HAD, I2)
    if op in ("hwp", "qwp"):
        path = draw(st.integers(0, 1))
        return state, op, i, path, on_path(path, X2 if op == "hwp" else HAD)
    if op == "pbs":
        # V on the input path swaps to the other path; that is the splitter
        # on every state it accepts
        swap = np.eye(4)
        v_in, v_out = 2 * path + 1, 2 * (path ^ 1) + 1
        swap[[v_in, v_out]] = swap[[v_out, v_in]]
        return state, op, i, path, swap
    if op.startswith("pauli"):
        power = PauliPower(draw(st.integers(0, 1)), draw(st.integers(0, 1)))
        local = np.kron(pauli(power), I2) if op == "pauli_spatial" else np.kron(I2, pauli(power))
        return state, op, i, power, local
    su2 = SU2Operator(*draw(unit_pairs()))
    return state, op, i, su2, np.kron(matrix(su2), I2)


def apply(state, op, i, arg):
    if op == "bbs":
        return apply_bbs(state, i)
    return {"hwp": apply_hwp, "qwp": apply_qwp, "pbs": apply_pbs,
            "pauli_spatial": apply_pauli_spatial, "pauli_polar": apply_pauli_polar,
            "su2": apply_su2_spatial}[op](state, i, arg)


def dense_apply(local: np.ndarray, vec: np.ndarray, i: int, size: int) -> np.ndarray:
    """``local`` on photon ``i``'s (path, polarization) axis of ``vec``."""
    tensor = vec.reshape([4] * size)
    return np.moveaxis(np.tensordot(local, tensor, axes=([1], [i])), 0, i).reshape(-1)


@given(cases())
def test_primitive_matches_dense_matrix(case):
    state, op, i, arg, local = case
    size = len(state.register)
    want = dense_apply(local, dense_vector(state), i, size)
    got = dense_vector(apply(state, op, i, arg))
    assert np.max(np.abs(got - want)) <= 1e-12


@given(cases())
def test_primitive_preserves_norm(case):
    state, op, i, arg, _ = case
    assert abs(dense_norm(apply(state, op, i, arg)) - 1.0) <= 1e-12


@given(cases(ops=("bbs", "qwp")))
def test_bbs_and_qwp_are_self_inverse(case):
    state, op, i, arg, _ = case
    twice = apply(apply(state, op, i, arg), op, i, arg)
    assert np.max(np.abs(dense_vector(twice) - dense_vector(state))) <= 1e-12


@given(st.data())
def test_basis_ket_round_trips(data):
    reg = data.draw(registers())
    bits = st.lists(st.integers(0, 1), min_size=len(reg), max_size=len(reg)).map(tuple)
    spatial, polar = data.draw(bits), data.draw(bits)
    ket = BasisKet(spatial, polar)
    assert reg.unpack(ket) == (spatial, polar)
    for i in range(len(reg)):
        assert (1 if ket & reg.mask(i, "spatial") else 0) == spatial[i]
        assert (1 if ket & reg.mask(i, "polar") else 0) == polar[i]


@st.composite
def readouts(draw):
    """(state, readout, photon position, dofs or taps): a measurement of one
    photon on both DOFs or on its polarization alone (its path then
    definite), or a homodyne readout of one to three Kerr taps."""
    reg = draw(registers())
    size = len(reg)
    kind = draw(st.sampled_from(("both", "polar", "homodyne")))
    i = draw(st.integers(0, size - 1))
    bits = st.lists(st.integers(0, 1), min_size=size, max_size=size)
    pairs = draw(st.lists(st.tuples(bits, bits), min_size=1, max_size=8))
    if kind == "polar":
        path = draw(st.integers(0, 1))
        for spatial, _ in pairs:
            spatial[i] = path
    amp = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    terms = {BasisKet(s, p): draw(amp) for s, p in pairs}
    if sum(abs(a) ** 2 for a in terms.values()) < 1e-6:
        terms = {ket: 1.0 for ket in terms}
    state = HybridState(reg, (True,) * size, terms).normalized()
    if kind == "homodyne":
        tap = st.tuples(st.integers(0, size - 1), st.integers(0, 1), st.sampled_from((-1, 1, 2)))
        return state, kind, i, draw(st.lists(tap, min_size=1, max_size=3))
    return state, kind, i, ("polar", "spatial") if kind == "both" else ("polar",)


def _built(build):
    """A built state, or the message of the ValueError building it raised."""
    try:
        return build()
    except ValueError as exc:
        return str(exc)


@given(readouts())
def test_outcomes_equal_the_prune_normalize_retire_composition(case):
    state, kind, i, arg = case
    reg = state.register
    if kind == "homodyne":
        probe = fresh_probe(state)
        for j, path, mult in arg:
            probe = kerr(probe, state, j, path, mult)
        got = enumerate_homodyne(probe, state)
        labels = {ket: abs(sum(mult for j, path, mult in arg
                               if (1 if ket & reg.mask(j, "spatial") else 0) == path))
                  for ket in state.terms}
    else:
        got = enumerate_measurement(state, i, arg)
        labels = {ket: tuple(1 if ket & reg.mask(i, d) else 0 for d in arg)
                  for ket in state.terms}
    # The reference: bucket by outcome, skip a bucket the pruning tolerance
    # leaves empty, then copy, prune, normalize and (for a measurement)
    # retire the photon, one step at a time.
    buckets: dict = {}
    for ket, amp in state.terms.items():
        buckets.setdefault(labels[ket], {})[ket] = amp
    want = []
    # Ordered by class, or lexicographically by the bits in DOF order, while
    # a measurement's outcome reports its bits as a word: DOF j's at bit j.
    for bits in sorted(buckets):
        terms = buckets[bits]
        p = 0  # folded left to right: from Python 3.12, sum() of floats is compensated
        for a in terms.values():
            p += abs(a) ** 2
        if p <= PRUNE_TOL ** 2:
            continue

        def build(terms=terms):
            collapsed = HybridState(state.register, state.alive, prune(terms)).normalized()
            return collapsed if kind == "homodyne" else collapsed.mark_dead(i)

        word = bits if kind == "homodyne" else sum(b << j for j, b in enumerate(bits))
        want.append((word, p, build))
    assert [(o.bits, o.p) for o in got] == [(bits, p) for bits, p, _ in want]
    for out, (_, _, build) in zip(got, want):
        s_got, s_want = _built(out.build), _built(build)
        if isinstance(s_want, str):
            assert s_got == s_want
            continue
        assert s_got.register == s_want.register and s_got.alive == s_want.alive
        assert list(s_got.terms.items()) == list(s_want.terms.items())


@st.composite
def configs(draw):
    """Consenting configurations up to (8,4) with random SU(2) operators and
    inputs, and a run seed."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(0, 4))
    ops = tuple(SU2Operator(*draw(unit_pairs())) for _ in range(m))
    return ProtocolConfig(m, n, ops, *draw(unit_pairs())), draw(st.integers(0, 2 ** 32 - 1))


@given(configs())
def test_sampled_runs_check_their_frame_and_reach_the_target(case):
    # validate_corrections checks every frame-derived correction against
    # exhaustive Pauli search and raises FrameInconsistencyError unless the
    # frame's power is among those that work (both Z powers do when a pair
    # the search aims at is a basis state).
    config, seed = case
    ops, alpha, beta = config.unitaries, config.alpha, config.beta
    res = ProtocolRun(config, seed=seed, validate_corrections=True).finish()
    assert not res.blocked
    assert target_fidelity(res.state, direct_apply(ops, alpha, beta)) >= 1.0 - 1e-10

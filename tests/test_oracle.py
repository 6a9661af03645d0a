import math

import numpy as np
import pytest

from cjrio.hilbert import (A, PHASE_TOL, BasisKet, HybridState, VERTICAL, bob,
                           registry)
from cjrio.optics import PauliPower, SU2Operator, apply_pauli_spatial
from cjrio.oracle import (CorrectionSearchError, TargetState,
                          brute_force_correction, direct_apply, extract_qubit,
                          target_fidelity)

from conftest import random_pair, random_su2


def test_direct_apply_identity():
    t = direct_apply([SU2Operator(1, 0), SU2Operator(1, 0)], 0.6, 0.8)
    assert t.a0 == pytest.approx(0.6)
    assert t.a1 == pytest.approx(0.8)


def test_direct_apply_rotation_first_column():
    phi = 0.7
    op = SU2Operator(math.cos(phi), math.sin(phi))
    t = direct_apply([op], 1.0, 0.0)
    assert t.a0 == pytest.approx(math.cos(phi))
    assert t.a1 == pytest.approx(-math.sin(phi))


def test_direct_apply_matches_two_sequential_multiplications(rng):
    u1, u2 = random_su2(rng), random_su2(rng)
    t = direct_apply([u1, u2], 0.6, 0.8)
    want = u1.matrix @ (u2.matrix @ np.array([0.6, 0.8]))
    assert t.a0 == pytest.approx(complex(want[0]), abs=1e-12)
    assert t.a1 == pytest.approx(complex(want[1]), abs=1e-12)


def test_direct_apply_normalized_output(rng):
    ops = [random_su2(rng) for _ in range(4)]
    a, b = random_pair(rng)
    t = direct_apply(ops, a, b)
    assert abs(t.a0) ** 2 + abs(t.a1) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_direct_apply_rejects_empty():
    with pytest.raises(ValueError):
        direct_apply([], 1.0, 0.0)


def test_target_state_rejects_non_finite():
    for a0, a1 in ((math.nan, 0.0), (1.0, complex(0, math.nan)), (math.inf, 0.0)):
        with pytest.raises(ValueError, match="finite"):
            TargetState(a0, a1)


def _final_state(c0, c1, extra_live=False):
    reg = registry(1, 0)
    alive = (False, True, True if extra_live else False)
    terms = {
        BasisKet((0, 0, 0), (VERTICAL, VERTICAL, 0)): c0,
        BasisKet((0, 1, 0), (VERTICAL, VERTICAL, 0)): c1,
    }
    return HybridState(reg, alive, {k: a for k, a in terms.items() if abs(a) > 0})


def test_assert_equiv_and_rejections(rng):
    a, b = random_pair(rng)
    final = _final_state(a, b)
    assert target_fidelity(final, TargetState(a, b)) >= 1.0 - PHASE_TOL
    assert not target_fidelity(_final_state(a, -b), TargetState(a, b)) >= 1.0 - PHASE_TOL
    with pytest.raises(ValueError):
        target_fidelity(_final_state(a, b, extra_live=True), TargetState(a, b))


def test_extract_qubit_factorizable(rng):
    a, b = random_pair(rng)
    final = _final_state(a, b)
    c0, c1 = extract_qubit(final, final.index_of(A), "spatial")
    # equal up to global phase
    assert abs(a.conjugate() * c0 + b.conjugate() * c1) == pytest.approx(1.0, abs=1e-12)


def test_extract_qubit_rejects_entangled():
    reg = registry(1, 0)
    terms = {
        BasisKet((0, 0, 0), (VERTICAL,) * 3): 1 / math.sqrt(2),
        BasisKet((0, 1, 1), (VERTICAL,) * 3): 1 / math.sqrt(2),
    }
    s = HybridState(reg, (True,) * 3, terms)
    with pytest.raises(ValueError):
        extract_qubit(s, s.index_of(A), "spatial")


def _one_pauli_away(a, b, power):
    reg = registry(1, 0)
    terms = {
        BasisKet((0, 0, 0), (VERTICAL, VERTICAL, 0)): a,
        BasisKet((0, 0, 1), (VERTICAL, VERTICAL, 0)): b,
    }
    s = HybridState(reg, (False, False, True), terms)
    # apply the inverse so that `power` is exactly what recovers (a, b)
    return apply_pauli_spatial(s, s.index_of(bob(1)), power)


def test_brute_force_identity_on_canonical():
    probe = (0.6, 0.8)
    s = _one_pauli_away(*probe, PauliPower(0, 0))
    assert brute_force_correction(s, s.index_of(bob(1)), "spatial", probe) == (PauliPower(0, 0),)


def test_brute_force_finds_each_power():
    probe = (0.6, 0.8)
    for power in (PauliPower(0, 0), PauliPower(1, 0), PauliPower(0, 1), PauliPower(1, 1)):
        s = _one_pauli_away(*probe, power)
        assert brute_force_correction(s, s.index_of(bob(1)), "spatial", probe) == (power,)


def test_brute_force_degenerate_probe_is_ambiguous():
    # equal magnitudes make X-corrections indistinguishable up to phase
    probe = (1 / math.sqrt(2), 1 / math.sqrt(2))
    s = _one_pauli_away(*probe, PauliPower(0, 0))
    assert brute_force_correction(s, s.index_of(bob(1)), "spatial", probe) == (
        PauliPower(0, 0), PauliPower(1, 0))


def test_brute_force_basis_state_takes_either_z_power():
    # on a basis state Z is a global phase
    s = HybridState(registry(1, 0), (False, False, True),
                    {BasisKet((0, 0, 1), (VERTICAL, VERTICAL, 0)): 1.0})
    assert brute_force_correction(s, s.index_of(bob(1)), "spatial", (1.0, 0.0)) == (
        PauliPower(1, 0), PauliPower(1, 1))


def test_brute_force_raises_when_no_power_works():
    s = _one_pauli_away(0.6, 0.8, PauliPower(0, 0))
    with pytest.raises(CorrectionSearchError, match="no working correction"):
        brute_force_correction(s, s.index_of(bob(1)), "spatial", (0.6, 0.8j))

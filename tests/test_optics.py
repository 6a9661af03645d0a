import math

import numpy as np
import pytest

from cjrio.hilbert import (A, BasisKet, HybridState, VERTICAL, X, bob,
                           build_initial_state, charlie, registry)
from cjrio.optics import (PauliPower, SU2Operator, apply_bbs, apply_hwp,
                          apply_pauli_polar, apply_pauli_spatial, apply_pbs,
                          apply_qwp, apply_su2_spatial)

from conftest import bit, dense_norm, dense_overlap, matrix, random_pair, random_su2

S = 1 / math.sqrt(2)


def single_photon(spatial=0, polar=0, amp_pairs=None):
    """One-photon state on A; amp_pairs maps (spatial, polar) -> amplitude."""
    reg = registry(1, 0)
    # only photon B1 is used to stand in for whichever photon a test wants
    if amp_pairs is None:
        amp_pairs = {(spatial, polar): 1.0}
    terms = {
        BasisKet((0, 0, s), (VERTICAL, VERTICAL, p)): a
        for (s, p), a in amp_pairs.items()
    }
    return HybridState(reg, (True,) * 3, terms).normalized()


def amp(state, spatial, polar):
    total = 0j
    for ket, a in state.terms.items():
        if bit(state, ket, bob(1)) == spatial and bit(state, ket, bob(1), "polar") == polar:
            total += a
    return total


# Register position of the stand-in photon B1 in single_photon states.
B1 = registry(1, 0).index(bob(1))

# Paths that are not the int 0 or 1: out of range, or bools, Python's or
# numpy's, though True == 1.
NOT_PATHS = (2, -1, True, False, 0.5, np.True_, np.False_)


def test_bbs_path0_rule():
    s = single_photon(spatial=0)
    out = apply_bbs(s, B1)
    assert amp(out, 0, 0) == pytest.approx(S)
    assert amp(out, 1, 0) == pytest.approx(S)


def test_bbs_is_involution(rng):
    a, b = random_pair(rng)
    s = build_initial_state(a, b, 2, 1)
    i = s.index_of(A)
    out = apply_bbs(apply_bbs(s, i), i)
    assert abs(dense_overlap(s, out) - 1.0) < 1e-12


def test_bbs_norm_preserved(rng):
    a, b = random_pair(rng)
    s = build_initial_state(a, b, 2, 1)
    assert dense_norm(apply_bbs(s, s.index_of(bob(2)))) == pytest.approx(1.0, abs=1e-12)


def test_bbs_on_two_branch_state_matches_expansion(rng):
    # |a1>(alpha|b b c0> + beta|b1 b1 c1>), mix photon C:
    # coefficient on c0 must be alpha|bb> + beta|b1b1>, on c1 alpha|bb> - beta|b1b1>
    alpha, beta = random_pair(rng)
    reg = registry(2, 1)
    terms = {
        BasisKet((0, 1, 0, 0, 0), (VERTICAL,) * 5): alpha,
        BasisKet((0, 1, 1, 1, 1), (VERTICAL,) * 5): beta,
    }
    s = HybridState(reg, (True,) * 5, terms)
    out = apply_bbs(s, s.index_of(charlie(1)))
    got = {(bit(out, k, bob(1)), bit(out, k, charlie(1))): a for k, a in out.terms.items()}
    assert got[(0, 0)] == pytest.approx(alpha * S)
    assert got[(0, 1)] == pytest.approx(alpha * S)
    assert got[(1, 0)] == pytest.approx(beta * S)
    assert got[(1, 1)] == pytest.approx(-beta * S)


def test_hwp_swaps_on_its_path():
    s = single_photon(spatial=1, polar=0)
    out = apply_hwp(s, B1, 1)
    assert amp(out, 1, 1) == pytest.approx(1.0)
    # other path untouched
    s2 = single_photon(spatial=0, polar=0)
    out2 = apply_hwp(s2, B1, 1)
    assert amp(out2, 0, 0) == pytest.approx(1.0)


def test_hwp_is_involution():
    s = single_photon(amp_pairs={(1, 0): 0.6, (1, 1): 0.8})
    out = apply_hwp(apply_hwp(s, B1, 1), B1, 1)
    assert abs(dense_overlap(s, out) - 1.0) < 1e-12


@pytest.mark.parametrize("path", NOT_PATHS)
def test_hwp_rejects_a_path_other_than_0_or_1(path):
    s = single_photon(amp_pairs={(1, 0): 0.6, (1, 1): 0.8})
    with pytest.raises(ValueError, match="path must be 0 or 1"):
        apply_hwp(s, B1, path)


def test_qwp_rules():
    s = single_photon(spatial=1, polar=0)
    out = apply_qwp(s, B1, 1)
    assert amp(out, 1, 0) == pytest.approx(S)
    assert amp(out, 1, 1) == pytest.approx(S)

    s = single_photon(spatial=0, polar=1)
    out = apply_qwp(s, B1, 0)
    assert amp(out, 0, 0) == pytest.approx(S)
    assert amp(out, 0, 1) == pytest.approx(-S)


def test_qwp_twice_is_identity(rng):
    a, b = random_pair(rng)
    s = single_photon(amp_pairs={(1, 0): a, (1, 1): b})
    out = apply_qwp(apply_qwp(s, B1, 1), B1, 1)
    assert abs(dense_overlap(s, out) - 1.0) < 1e-12


@pytest.mark.parametrize("path", NOT_PATHS)
def test_qwp_rejects_a_path_other_than_0_or_1(path):
    s = single_photon(amp_pairs={(1, 0): 0.6, (1, 1): 0.8})
    with pytest.raises(ValueError, match="path must be 0 or 1"):
        apply_qwp(s, B1, path)


def test_pbs_splits_by_polarization(rng):
    a, b = random_pair(rng)
    s = single_photon(amp_pairs={(1, 0): a, (1, 1): b})
    out = apply_pbs(s, B1, 1)
    assert amp(out, 1, 0) == pytest.approx(a)  # H transmitted
    assert amp(out, 0, 1) == pytest.approx(b)  # V reflected

    pure_h = single_photon(spatial=0, polar=0)
    assert amp(apply_pbs(pure_h, B1, 0), 0, 0) == pytest.approx(1.0)
    pure_v = single_photon(spatial=0, polar=1)
    assert amp(apply_pbs(pure_v, B1, 0), 1, 1) == pytest.approx(1.0)


def test_pbs_rejects_dual_input():
    s = single_photon(amp_pairs={(0, 0): S, (1, 0): S})
    with pytest.raises(ValueError):
        apply_pbs(s, B1, 0)


@pytest.mark.parametrize("in_path", NOT_PATHS)
def test_pbs_rejects_an_in_path_other_than_0_or_1(in_path):
    s = single_photon(spatial=1, polar=1)
    with pytest.raises(ValueError, match="path must be 0 or 1"):
        apply_pbs(s, B1, in_path)


def test_pauli_spatial_flip_and_sign(rng):
    a, b = random_pair(rng)
    s = single_photon(amp_pairs={(0, 0): a, (1, 0): b})
    out = apply_pauli_spatial(s, B1, PauliPower(1, 0))
    assert amp(out, 0, 0) == pytest.approx(b)
    assert amp(out, 1, 0) == pytest.approx(a)

    out = apply_pauli_spatial(s, B1, PauliPower(0, 1))
    assert amp(out, 0, 0) == pytest.approx(a)
    assert amp(out, 1, 0) == pytest.approx(-b)
    with pytest.raises(ValueError):
        PauliPower(2, 0)


@pytest.mark.parametrize("x, z", [(0.0, 1), (True, False), (1, 0.0), (0, True), (np.int64(1), 0)],
                         ids=["float", "bools", "float-z", "bool-z", "numpy"])
def test_pauli_power_takes_only_the_ints_0_and_1(x, z):
    # by exact type, as a path is: 0.0 == 0 and True == 1, yet neither is a bit here
    with pytest.raises(ValueError, match="Pauli exponents must be ints 0 or 1"):
        PauliPower(x, z)


def test_pauli_polar_sign(rng):
    a, b = random_pair(rng)
    s = single_photon(amp_pairs={(0, 0): a, (0, 1): b})
    out = apply_pauli_polar(s, B1, PauliPower(0, 1))
    assert amp(out, 0, 0) == pytest.approx(a)
    assert amp(out, 0, 1) == pytest.approx(-b)


def test_pauli_z_fixes_flipped_branch_sign(rng):
    # the step-4 style fix: Z^1 recovers alpha|0> + beta|1> from a minus sign
    a, b = random_pair(rng)
    s = single_photon(amp_pairs={(0, 0): a, (1, 0): -b})
    out = apply_pauli_spatial(s, B1, PauliPower(0, 1))
    want = single_photon(amp_pairs={(0, 0): a, (1, 0): b})
    assert abs(dense_overlap(out, want)) >= 1.0 - 1e-12


def test_su2_identity_and_swap(rng):
    a, b = random_pair(rng)
    s = single_photon(amp_pairs={(0, 0): a, (1, 0): b})
    assert abs(dense_overlap(apply_su2_spatial(s, B1, SU2Operator(1, 0)), s)) >= 1.0 - 1e-12

    out = apply_su2_spatial(s, B1, SU2Operator(0, 1))
    assert amp(out, 0, 0) == pytest.approx(b)
    assert amp(out, 1, 0) == pytest.approx(-a)


def test_su2_matches_matrix_product(rng):
    for _ in range(25):
        op = random_su2(rng)
        a, b = random_pair(rng)
        s = single_photon(amp_pairs={(0, 0): a, (1, 0): b})
        out = apply_su2_spatial(s, B1, op)
        want = matrix(op) @ np.array([a, b])
        assert amp(out, 0, 0) == pytest.approx(complex(want[0]), abs=1e-12)
        assert amp(out, 1, 0) == pytest.approx(complex(want[1]), abs=1e-12)


def test_su2_dagger_inverts(rng):
    op = random_su2(rng)
    a, b = random_pair(rng)
    s = single_photon(amp_pairs={(0, 0): a, (1, 0): b})
    inverse = SU2Operator(complex(op.u).conjugate(), -complex(op.v))
    out = apply_su2_spatial(apply_su2_spatial(s, B1, op), B1, inverse)
    assert abs(dense_overlap(s, out) - 1.0) < 1e-12


def test_su2_rejects_non_unitary():
    with pytest.raises(ValueError):
        SU2Operator(1.0, 1.0)
    for u, v in ((math.nan, 0), (1, complex(0, math.nan)), (math.inf, 0)):
        with pytest.raises(ValueError, match="finite"):
            SU2Operator(u, v)
    for u, v in ((1e200, 0), (0, 1e200j), (10 ** 400, 0)):  # squares past the float range
        with pytest.raises(ValueError, match=r"^\|u\|\^2 \+ \|v\|\^2 must equal 1$"):
            SU2Operator(u, v)


@pytest.mark.parametrize("u, v, field", [(None, 0, "u"), ("a", 0, "u"), (True, False, "u"),
                                         ("1", "0", "u"), (1, None, "v"), (0, [1], "v"),
                                         (1, np.bool_(False), "v")],
                         ids=["none", "str", "bools", "numeric-strs", "v-none", "v-list",
                              "numpy-bool"])
def test_su2_rejects_entries_that_are_not_numbers(u, v, field):
    with pytest.raises(ValueError, match=f"^operator entry {field} must be a number, got "):
        SU2Operator(u, v)


def test_su2_accepts_numpy_scalars():
    op = SU2Operator(np.complex128(0.6 + 0.48j), np.complex128(0.64j))
    assert matrix(op)[1, 0] == 0.64j  # -v*
    assert SU2Operator(np.complex64(0), np.complex64(1j)).v == 1j
    assert SU2Operator(np.float64(1.0), np.int64(0)).u == 1.0


def test_ops_on_distinct_photons_commute(rng):
    a, b = random_pair(rng)
    s = build_initial_state(a, b, 2, 1)
    a, b2 = s.index_of(A), s.index_of(bob(2))
    one = apply_bbs(apply_bbs(s, a), b2)
    two = apply_bbs(apply_bbs(s, b2), a)
    assert set(one.terms) == set(two.terms)
    for ket in one.terms:
        assert one.terms[ket] == pytest.approx(two.terms[ket], abs=1e-15)


def test_every_element_preserves_norm(rng):
    a, b = random_pair(rng)
    s = build_initial_state(a, b, 2, 1)
    at = s.index_of
    candidates = [
        apply_bbs(s, at(bob(1))),
        apply_hwp(s, at(bob(1)), 1),
        apply_qwp(s, at(charlie(1)), 0),
        apply_pauli_spatial(s, at(bob(2)), PauliPower(1, 1)),
        apply_pauli_polar(s, at(A), PauliPower(1, 1)),
        apply_su2_spatial(s, at(bob(2)), random_su2(rng)),
    ]
    # the splitter needs a single-path input
    collapsed = HybridState(s.register, s.alive, {k: amp for k, amp in s.terms.items()
                                                  if bit(s, k, A) == 0}).normalized()
    candidates.append(apply_pbs(collapsed, at(A), 0))
    for out in candidates:
        assert abs(dense_norm(out) - 1.0) < 1e-12


def test_dead_photon_rejected():
    s = build_initial_state(1.0, 0.0, 2, 1)
    x = s.index_of(X)
    dead = HybridState(s.register, s.alive, {k: a for k, a in s.terms.items()
                                             if bit(s, k, X) == 0}).normalized().mark_dead(x)
    for fn in (lambda st: apply_bbs(st, x),
               lambda st: apply_hwp(st, x, 0),
               lambda st: apply_qwp(st, x, 0),
               lambda st: apply_pbs(st, x, 0),
               lambda st: apply_pauli_spatial(st, x, PauliPower(1, 0)),
               lambda st: apply_su2_spatial(st, x, SU2Operator(1, 0))):
        with pytest.raises(ValueError):
            fn(dead)

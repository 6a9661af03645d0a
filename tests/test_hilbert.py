import cmath
import math

import pytest

from cjrio.hilbert import (A, BasisKet, HybridState, PhotonId, PhotonRegister, VERTICAL, X,
                           bob, build_initial_state, charlie,
                           enumerate_measurement, equal_up_to_global_phase,
                           overlap, registry)
from cjrio.optics import apply_pbs

from conftest import bit, random_pair


def test_photon_ids():
    assert str(X) == "X"
    assert str(bob(2)) == "B2"
    assert str(charlie(1)) == "C1"
    with pytest.raises(ValueError):
        PhotonId("X", 3)
    with pytest.raises(ValueError):
        PhotonId("B", 0)
    with pytest.raises(ValueError):
        PhotonId("Q")


def test_registry_order():
    reg = registry(2, 1)
    assert [str(p) for p in reg.photons] == ["X", "A", "B1", "B2", "C1"]
    assert reg.index(bob(2)) == 3
    with pytest.raises(ValueError):
        reg.index(charlie(2))


def test_initial_state_beta_zero_has_four_terms():
    s = build_initial_state(1.0, 0.0, 2, 1)
    assert len(s.terms) == 4
    # |x0>|V> tensor (|0000>+|1111>)(|HHHH>+|VVVV>)/2
    expected = {}
    for branch in (0, 1):
        for pol in (0, 1):
            ket = BasisKet((0, branch, branch, branch, branch),
                           (VERTICAL, pol, pol, pol, pol))
            expected[ket] = 0.5
    for ket, amp in expected.items():
        assert s.terms[ket] == pytest.approx(amp)


def test_initial_state_generic_eight_terms():
    alpha, beta = 0.6, 0.8j
    s = build_initial_state(alpha, beta, 2, 1)
    assert len(s.terms) == 8
    assert s.norm() == pytest.approx(1.0, abs=1e-12)
    # brute-force rebuild: enumerate the expected kets directly
    for xbit, w in ((0, alpha), (1, beta)):
        for branch in (0, 1):
            for pol in (0, 1):
                ket = BasisKet((xbit, branch, branch, branch, branch),
                               (VERTICAL, pol, pol, pol, pol))
                assert s.terms[ket] == pytest.approx(w / 2)


def test_initial_state_m3_n2():
    s = build_initial_state(3 / 5, 4 / 5, 3, 2)
    assert len(s.terms) == 8
    assert s.norm() == pytest.approx(1.0, abs=1e-15)
    assert len(s.register) == 7


def test_initial_state_rejections():
    with pytest.raises(ValueError):
        build_initial_state(1.0, 1.0, 2, 1)
    with pytest.raises(ValueError):
        build_initial_state(1.0, 0.0, 0, 1)
    with pytest.raises(ValueError):
        build_initial_state(1.0, 0.0, 2, -1)
    # Each with ProtocolConfig's message for it.
    for args, message in [((True, 0.0, 2, 1), "alpha must be a number"),
                          ((0.0, "x", 2, 1), "beta must be a number"),
                          ((1.0, 0.0, True, 1), "m must be an int"),
                          ((1.0, 0.0, 1.5, 1), "m must be an int"),
                          ((1.0, 0.0, 2, 1.0), "n must be an int"),
                          ((math.inf, 0.0, 2, 1), "input amplitudes must be finite"),
                          ((1e200, 0.0, 2, 1), "input amplitudes are not normalized"),
                          ((0.0, 10 ** 400, 2, 1), "input amplitudes are not normalized")]:
        with pytest.raises(ValueError, match=message):
            build_initial_state(*args)


def test_overlap_self_is_one(rng):
    a, b = random_pair(rng)
    s = build_initial_state(a, b, 2, 1)
    assert overlap(s, s) == pytest.approx(1.0, abs=1e-12)


def test_overlap_sign_flip_on_half_weight_branch():
    s = build_initial_state(1 / math.sqrt(2), 1 / math.sqrt(2), 1, 0)
    flipped = {k: (-a if bit(s, k, X) == 1 else a) for k, a in s.terms.items()}
    s2 = HybridState(s.register, s.alive, flipped)
    assert abs(overlap(s, s2)) == pytest.approx(0.0, abs=1e-12)


def test_overlap_disjoint_spatial_supports(rng):
    # the two post-entangle branches k=0 / k=1 occupy disjoint path sets
    from cjrio.kerr import enumerate_homodyne, fresh_probe, kerr

    a, b = random_pair(rng)
    s = build_initial_state(a, b, 2, 1)
    probe = kerr(kerr(fresh_probe(s), s, s.index_of(X), 0, +1), s, s.index_of(A), 0, -1)
    outcomes = enumerate_homodyne(probe, s)
    assert len(outcomes) == 2
    s0, s1 = outcomes[0].build(), outcomes[1].build()
    assert abs(overlap(s0, s1)) == pytest.approx(0.0, abs=1e-12)


def test_overlap_conjugate_symmetry(rng):
    a, b = random_pair(rng)
    c, d = random_pair(rng)
    s1 = build_initial_state(a, b, 2, 1)
    s2 = build_initial_state(c, d, 2, 1)
    assert overlap(s1, s2) == overlap(s2, s1).conjugate()


def _with_dead(s):
    # freeze X by projecting onto its x0 component first
    terms = {k: a for k, a in s.terms.items() if bit(s, k, X) == 0}
    return HybridState(s.register, s.alive, terms).normalized().mark_dead(s.index_of(X))


def test_overlap_registry_mismatch():
    s1 = build_initial_state(0.6, 0.8, 2, 1)
    s2 = build_initial_state(0.6, 0.8, 2, 2)
    with pytest.raises(ValueError):
        overlap(s1, s2)
    with pytest.raises(ValueError):
        overlap(s1, _with_dead(s1))


def test_equal_up_to_global_phase(rng):
    a, b = random_pair(rng)
    s = build_initial_state(a, b, 2, 1)
    phased = HybridState(s.register, s.alive, {k: cmath.exp(1j * math.pi / 7) * amp
                                               for k, amp in s.terms.items()})
    assert equal_up_to_global_phase(s, phased, 1e-10)

    # flipping the relative phase of the beta branch is a different state
    rotated = HybridState(s.register, s.alive, {k: (-amp if bit(s, k, X) else amp)
                                                for k, amp in s.terms.items()})
    assert not equal_up_to_global_phase(s, rotated, 1e-10)


def test_enumerate_measurement_probabilities(rng):
    alpha, beta = random_pair(rng)
    s = build_initial_state(alpha, beta, 1, 0)
    x = s.index_of(X)
    outs = enumerate_measurement(s, x, ("spatial",))
    assert [o.bits for o in outs] == [0, 1]
    probs = {o.bits: o.p for o in outs}
    assert probs[0] == pytest.approx(abs(alpha) ** 2, abs=1e-12)
    assert probs[1] == pytest.approx(abs(beta) ** 2, abs=1e-12)
    for st in (o.build() for o in outs):
        assert st.norm() == pytest.approx(1.0, abs=1e-12)
        assert not st.alive[x]


@pytest.mark.parametrize("dofs", [("polar", "polar"), ("spatial", "polar", "spatial")],
                         ids=["polar-twice", "spatial-twice"])
def test_enumerate_measurement_rejects_a_repeated_dof(dofs):
    # read twice, a bit's outcomes would be counted twice: probabilities summing to 2
    s = build_initial_state(0.6, 0.8, 1, 0)
    with pytest.raises(ValueError, match=f"^dof {dofs[0]!r} is listed twice$"):
        enumerate_measurement(s, s.index_of(X), dofs)


def test_enumerate_measurement_rejects_an_empty_dof_list():
    # with nothing read there would be one outcome of probability 1, whose
    # state retires a photon whose bits were never made definite
    s = build_initial_state(0.6, 0.8, 1, 0)
    with pytest.raises(ValueError, match="dof list is empty"):
        enumerate_measurement(s, s.index_of(X), ())


def test_mark_dead_requires_definite_bits():
    s = build_initial_state(0.6, 0.8, 2, 1)
    with pytest.raises(ValueError):
        s.mark_dead(s.index_of(X))  # X path is in superposition


def _first_term_only(s):
    ket = next(iter(s.terms))
    return HybridState(s.register, s.alive, {ket: 1.0})


@pytest.mark.parametrize("reach, message", [
    (lambda s, b1, c1: _first_term_only(s).mark_dead(b1).require_alive(b1),
     "photon B1 has been measured out"),
    (lambda s, b1, c1: apply_pbs(s, c1, 0), "photon C1 has amplitude off path 0"),
    (lambda s, b1, c1: s.definite_bit(b1, "spatial"), "photon B1 spatial bit is in superposition"),
], ids=["measured-out", "off-path", "superposition"])
def test_errors_reached_by_position_name_the_photon(reach, message):
    s = build_initial_state(0.6, 0.8, 2, 1)
    with pytest.raises(ValueError, match=f"^{message}"):
        reach(s, s.index_of(bob(1)), s.index_of(charlie(1)))


@pytest.mark.parametrize("reach, message", [
    (lambda s: PhotonRegister([X, X]), "duplicate photon in register"),
    (lambda s: HybridState(s.register, s.alive[1:], s.terms), "alive flags do not match register"),
    (lambda s: s.register.mask(0, "both"), "unknown dof 'both'"),
    (lambda s: s.adopt({}).normalized(), "cannot normalize a null state"),
    (lambda s: s.adopt({ket: 1e-15 for ket in s.terms}).normalized(),
     "cannot normalize a null state"),
], ids=["duplicate-photon", "alive-length", "unknown-dof", "empty", "below-tolerance"])
def test_malformed_registers_and_states_are_rejected(reach, message):
    s = build_initial_state(0.6, 0.8, 2, 1)
    with pytest.raises(ValueError, match=f"^{message}$"):
        reach(s)


def test_basis_ket_rejects_unequal_lengths():
    with pytest.raises(ValueError, match="one path bit and one polarization bit"):
        BasisKet((0, 1), (1,))


@pytest.mark.parametrize("spatial, polar", [((0, 2), (1, 0)), ((0, 1), (1, -1))],
                         ids=["path-2", "polar-minus-1"])
def test_basis_ket_rejects_non_binary_bits(spatial, polar):
    with pytest.raises(ValueError, match="must be 0 or 1"):
        BasisKet(spatial, polar)


def test_replace_terms_copies_its_argument():
    # the public constructor copies the caller's mapping; only adopt() does not
    s = build_initial_state(0.6, 0.8, 1, 0)
    terms = dict(s.terms)
    before = dict(terms)
    copy = HybridState(s.register, s.alive, terms)
    terms.clear()
    terms[0] = 1.0
    assert copy.terms == before


def test_outcomes_below_the_pruning_tolerance_are_skipped():
    # A class of probability 1e-30 carries no state to collapse onto: both
    # readouts skip it rather than fail to normalize it.
    from cjrio.kerr import enumerate_homodyne, fresh_probe, kerr

    reg = registry(1, 0)
    ket_a = BasisKet((0, 0, 0), (1, 0, 0))  # X on path 0
    ket_b = BasisKet((1, 0, 0), (1, 0, 0))  # X on path 1
    s = HybridState(reg, (True,) * 3, {ket_a: 1.0, ket_b: 1e-15})
    x = s.index_of(X)
    measured = enumerate_measurement(s, x, ("spatial",))
    assert [(o.bits, o.p) for o in measured] == [(0, 1.0)]
    tapped = enumerate_homodyne(kerr(fresh_probe(s), s, x, 1, +1), s)
    assert [(o.bits, o.p) for o in tapped] == [(0, 1.0)]
    state = tapped[0].build()
    assert state.terms == {ket_a: 1.0}


def _fold(values):
    """``values`` added left to right from int 0."""
    total = 0
    for v in values:
        total += v
    return total


def test_norm_and_readout_probabilities_are_left_folds():
    # Ten amplitudes sqrt(0.1) with X on path 0: their squares fold left to
    # right to 0.9999999999999999, while their exact sum rounds to 1.0, as
    # Python 3.12's compensated sum() gives it.  The norm and both readouts'
    # p must read the fold on every Python.
    from cjrio.kerr import enumerate_homodyne, fresh_probe, kerr

    reg = registry(2, 1)
    terms = {2 * k: complex(math.sqrt(0.1)) for k in range(1, 11)}  # even kets: X on path 0
    s = HybridState(reg, (True,) * len(reg), terms)
    x = s.index_of(X)
    squares = [abs(a) ** 2 for a in s.terms.values()]
    assert _fold(squares) != math.fsum(squares)
    assert s.norm() == math.sqrt(_fold(a.real * a.real + a.imag * a.imag
                                       for a in s.terms.values()))
    assert [o.p for o in enumerate_measurement(s, x, ("spatial",))] == [_fold(squares)]
    probe = kerr(fresh_probe(s), s, x, 0, +1)
    assert [(o.bits, o.p) for o in enumerate_homodyne(probe, s)] == [(1, _fold(squares))]

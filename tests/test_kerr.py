import numpy as np
import pytest

from cjrio.hilbert import A, HybridState, X, build_initial_state
from cjrio.kerr import enumerate_homodyne, fresh_probe, kerr
from cjrio.optics import apply_bbs

from conftest import bit, dense_norm, random_pair


def entangle_probe(state):
    probe = kerr(fresh_probe(state), state, state.index_of(X), 0, +1)
    return kerr(probe, state, state.index_of(A), 0, -1)


def entangle_multiplier(state, ket):
    """The multiplier ``entangle_probe`` gives ``ket``, worked out by hand."""
    return (1 if bit(state, ket, X) == 0 else 0) - (1 if bit(state, ket, A) == 0 else 0)


def distribution(probe, state):
    """(phase class, probability) pairs, ascending by class."""
    return [(o.bits, o.p) for o in enumerate_homodyne(probe, state)]


def test_entangle_taps_give_expected_multipliers(rng):
    a, b = random_pair(rng)
    s = build_initial_state(a, b, 2, 1)
    want = {ket: entangle_multiplier(s, ket) for ket in s.terms}
    assert sorted(set(want.values())) == [-1, 0, 1]
    # the readout classes each ket by the magnitude of its multiplier
    classed = {ket: o.bits for o in enumerate_homodyne(entangle_probe(s), s)
               for ket in o.build().terms}
    assert classed == {ket: abs(mult) for ket, mult in want.items()}


def test_kerr_on_empty_path_changes_nothing(rng):
    a, b = random_pair(rng)
    s = build_initial_state(a, b, 1, 0)
    # collapse X onto path 0 first so path 1 carries no amplitude
    terms = {k: amp for k, amp in s.terms.items() if bit(s, k, X) == 0}
    s = HybridState(s.register, s.alive, terms).normalized()
    probe = kerr(fresh_probe(s), s, s.index_of(X), 1, +1)
    assert distribution(probe, s) == [(0, pytest.approx(1.0))]


def test_transfer_taps_cover_four_classes(rng):
    a, b = random_pair(rng)
    s = build_initial_state(a, b, 2, 1)
    probe = entangle_probe(s)
    s1 = enumerate_homodyne(probe, s)[0].build()
    at_x, at_a = s.index_of(X), s.index_of(A)
    st = apply_bbs(apply_bbs(s1, at_x), at_a)
    probe2 = kerr(fresh_probe(st), st, at_x, 0, +1)
    probe2 = kerr(probe2, st, at_a, 0, +2)
    dist = distribution(probe2, st)
    assert [c for c, _ in dist] == [0, 1, 2, 3]
    for _, p in dist:
        assert p == pytest.approx(0.25, abs=1e-12)


def test_entangle_distribution_uniform_and_input_independent(rng):
    dists = []
    for _ in range(20):
        a, b = random_pair(rng)
        s = build_initial_state(a, b, 2, 1)
        dist = distribution(entangle_probe(s), s)
        assert [c for c, _ in dist] == [0, 1]
        for _, p in dist:
            assert p == pytest.approx(0.5, abs=1e-12)
        dists.append(tuple(p for _, p in dist))
    first = dists[0]
    for d in dists[1:]:
        assert d == pytest.approx(first, abs=1e-12)


def test_sign_blind_class_merge(rng):
    a, b = random_pair(rng)
    s = build_initial_state(a, b, 2, 1)
    probe = entangle_probe(s)
    # +1 and -1 kets land in the same outcome class
    classes = enumerate_homodyne(probe, s)
    assert len(classes) == 2
    p1, merged = classes[1].p, classes[1].build()
    mults = {entangle_multiplier(s, k) for k in merged.terms}
    assert mults == {-1, 1}
    assert p1 == pytest.approx(0.5, abs=1e-12)


def test_distribution_sums_to_one_and_collapse_normalized(rng):
    a, b = random_pair(rng)
    s = build_initial_state(a, b, 3, 2)
    probe = entangle_probe(s)
    total = sum(p for _, p in distribution(probe, s))
    assert total == pytest.approx(1.0, abs=1e-12)
    for o in enumerate_homodyne(probe, s):
        assert dense_norm(o.build()) == pytest.approx(1.0, abs=1e-12)


def test_unentangled_probe_single_outcome(rng):
    a, b = random_pair(rng)
    s = build_initial_state(a, b, 2, 1)
    probe = fresh_probe(s)
    dist = distribution(probe, s)
    assert dist == [(0, pytest.approx(1.0))]
    outcomes = enumerate_homodyne(probe, s)
    assert len(outcomes) == 1
    assert abs(sum((outcomes[0].build().terms[k] - s.terms[k]) for k in s.terms)) < 1e-12


def test_multiplier_whitelist(rng):
    a, b = random_pair(rng)
    s = build_initial_state(a, b, 2, 1)
    with pytest.raises(ValueError):
        kerr(fresh_probe(s), s, s.index_of(X), 0, 3)


@pytest.mark.parametrize("path, mult", [(2, 1), (-1, 1), (True, 1), (False, 1), (0, True),
                                        (1, False), (np.True_, 1), (0, np.True_)])
def test_kerr_rejects_a_path_or_multiplier_out_of_range(rng, path, mult):
    # A path must be 0 or 1 and a multiplier one of the allowed ints; bools,
    # Python's or numpy's, are neither, though True == 1.
    s = build_initial_state(*random_pair(rng), 2, 1)
    with pytest.raises(ValueError):
        kerr(fresh_probe(s), s, s.index_of(X), path, mult)


def test_a_probe_reads_out_only_the_state_it_was_tapped_on(rng):
    s = build_initial_state(*random_pair(rng), 2, 1)
    copy = HybridState(s.register, s.alive, s.terms)
    probe = kerr(fresh_probe(s), s, s.index_of(X), 0, +1)
    with pytest.raises(ValueError, match="re-tap"):
        kerr(probe, copy, s.index_of(A), 0, -1)
    with pytest.raises(ValueError, match="re-tap"):
        enumerate_homodyne(probe, copy)

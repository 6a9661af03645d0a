import itertools
import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest

from cjrio.cli import PRESETS
from cjrio.hilbert import (A, PHASE_TOL, X, BasisKet, HybridState, PhotonRegister,
                           VERTICAL, bob, registry)
from cjrio.optics import PauliPower, SU2Operator, apply_pauli_spatial
from cjrio.oracle import (CorrectionSearchError, TargetState,
                          brute_force_correction, direct_apply, extract_qubit, fma, split,
                          target_fidelity)

from conftest import matrix, random_pair, random_su2


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
    want = matrix(u1) @ (matrix(u2) @ np.array([0.6, 0.8]))
    assert t.a0 == pytest.approx(complex(want[0]), abs=1e-12)
    assert t.a1 == pytest.approx(complex(want[1]), abs=1e-12)


def test_direct_apply_normalized_output(rng):
    ops = [random_su2(rng) for _ in range(4)]
    a, b = random_pair(rng)
    t = direct_apply(ops, a, b)
    assert abs(t.a0) ** 2 + abs(t.a1) ** 2 == pytest.approx(1.0, abs=1e-12)


def fma_reference(a: float, b: float, c: float) -> float:
    """``a*b + c`` in exact rational arithmetic, rounded once (``float`` of a
    Fraction divides ints, which rounds correctly, and raises OverflowError
    past the float range).  An exact zero is -0.0 only as IEEE 754 makes it:
    a zero product and a zero ``c`` that are both negative."""
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    if exact:
        return float(exact)
    negative = (not (a and b) and math.copysign(1.0, a) * math.copysign(1.0, b) < 0
                and math.copysign(1.0, c) < 0)
    return -0.0 if negative else 0.0


def _fma_or_overflow(fn, a, b, c):
    try:
        return fn(a, b, c).hex()
    except OverflowError:
        return "overflow"


SPECIAL_FLOATS = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.5e-310, 2.0 ** -1022,
                  2.0 ** -460, -(2.0 ** -470) * 1.5, 2.0 ** -900, 2.0 ** 460, 2.0 ** 1000,
                  -1.7976931348623157e308, 0.1, -3.0]


def _random_finite(rng: random.Random) -> float:
    """A float with uniform random bits, so every exponent is equally likely,
    subnormals included; infinities and NaNs are redrawn."""
    while True:
        x = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        if math.isfinite(x):
            return x


def test_fma_rounds_the_exact_sum_once():
    rng = random.Random(7)
    triples = list(itertools.product(SPECIAL_FLOATS, repeat=3))
    triples += [tuple(_random_finite(rng) for _ in range(3)) for _ in range(20000)]
    # products below 2**-900, where Dekker's error term may underflow
    triples += [(math.ldexp(rng.random() + 0.5, rng.randint(-600, -300)),
                 math.ldexp(rng.random() - 0.5, rng.randint(-600, -300)),
                 math.ldexp(rng.random() - 0.5, rng.randint(-1100, -850))) for _ in range(5000)]
    # unit-scale operands, as the oracle's products have
    triples += [(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1) * rng.random() ** 8)
                for _ in range(20000)]
    for a, b, c in triples:
        assert (_fma_or_overflow(lambda a, b, c: fma(split(a), split(b), c), a, b, c)
                == _fma_or_overflow(fma_reference, a, b, c)), (a, b, c)


def exact_direct_apply(unitaries, alpha, beta) -> tuple[complex, complex]:
    """The per-part FMA rule of ``direct_apply`` in exact arithmetic: each
    entry product m*x is (fma(m.re, x.re, -(m.im*x.im)), fma(m.re, x.im,
    m.im*x.re)), each part rounded once, and a row adds its two products."""
    def product(p: complex, q: complex) -> complex:
        return complex(fma_reference(p.real, q.real, -(p.imag * q.imag)),
                       fma_reference(p.real, q.imag, p.imag * q.real))

    y0, y1 = complex(alpha), complex(beta)
    for op in reversed(unitaries):
        u, v = complex(op.u), complex(op.v)
        y0, y1 = (product(m0, y0) + product(m1, y1)
                  for m0, m1 in ((u, v), (-v.conjugate(), u.conjugate())))
    return y0, y1


def _hex(pair) -> list[str]:
    return [part.hex() for z in pair for part in (z.real, z.imag)]


ZERO_HEAVY = [SU2Operator(*PRESETS[name]) for name in ("identity", "pauli-x", "hadamard-like")]


def test_direct_apply_is_the_exact_per_part_fma_rule(rng):
    inputs = [(0.6, 0.8), (1.0, 0.0), (0j, 1j), (-0.6, 0.8j)]
    for m in range(1, 9):
        for trial in range(40):
            # every third product is of presets only, the rest mixes them in
            ops = [ZERO_HEAVY[int(rng.integers(3))] if trial % 3 == 0 or rng.random() < 0.3
                   else random_su2(rng) for _ in range(m)]
            alpha, beta = inputs[trial % 4] if trial % 2 else random_pair(rng)
            t = direct_apply(ops, alpha, beta)
            assert _hex((t.a0, t.a1)) == _hex(exact_direct_apply(ops, alpha, beta))


def test_direct_apply_agrees_with_numpys_matmul_within_a_few_ulps(rng):
    # numpy's own bits depend on the BLAS kernel it picks, so only closeness
    # is asked of it.
    for m in range(1, 9):
        for _ in range(25):
            ops = [random_su2(rng) for _ in range(m)]
            alpha, beta = random_pair(rng)
            want = np.array([alpha, beta])
            for op in reversed(ops):
                want = matrix(op) @ want
            t = direct_apply(ops, alpha, beta)
            for got, ref in zip((t.a0, t.a1), want):
                assert abs(got.real - ref.real) <= 4 * m * 2.0 ** -53
                assert abs(got.imag - ref.imag) <= 4 * m * 2.0 ** -53


def test_direct_apply_rejects_empty():
    with pytest.raises(ValueError):
        direct_apply([], 1.0, 0.0)


def test_target_state_rejects_non_finite():
    for a0, a1 in ((math.nan, 0.0), (1.0, complex(0, math.nan)), (math.inf, 0.0)):
        with pytest.raises(ValueError, match="finite"):
            TargetState(a0, a1)
    for a0, a1 in ((1e200, 0.0), (0.0, -1e200j)):  # finite, but the square overflows
        with pytest.raises(ValueError, match="^target amplitudes are not normalized$"):
            TargetState(a0, a1)


@pytest.mark.parametrize("a0, a1, field", [(None, 0, "a0"), ("a", 0, "a0"), (True, False, "a0"),
                                           ("1", "0", "a0"), (1, None, "a1")],
                         ids=["none", "str", "bools", "numeric-strs", "a1-none"])
def test_target_state_rejects_entries_that_are_not_numbers(a0, a1, field):
    with pytest.raises(ValueError, match=f"^target amplitude {field} must be a number, got "):
        TargetState(a0, a1)


def test_target_state_accepts_numpy_scalars():
    t = TargetState(np.complex128(0.6j), np.float64(0.8))
    assert (t.a0, t.a1) == (0.6j, 0.8)


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


def test_target_fidelity_rejections_name_the_first_fault():
    target = TargetState(0.6, 0.8)

    def final(register, alive, polar=VERTICAL):
        size = len(register)
        return HybridState(register, alive, {BasisKet((0,) * size, (polar,) * size): 1})

    reg = registry(1, 1)  # X, A, B1, C1
    no_a = PhotonRegister([X, bob(1), bob(2)])
    cases = [
        (final(reg, (False, True, True, True)), "photon B1 still live"),
        (final(reg, (True, False, False, True)), "photon X still live"),
        (final(no_a, (False, False, True)), "photon B2 still live"),
        (final(no_a, (False, False, False)), "photon A not in register"),
        (final(reg, (False, False, False, False)), "photon A must be live"),
        (final(reg, (False, True, False, False), polar=0), "must be V polarized"),
    ]
    for state, message in cases:
        with pytest.raises(ValueError, match=message):
            target_fidelity(state, target)
    assert target_fidelity(final(reg, (False, True, False, False)), target) == pytest.approx(0.6)


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


def test_extract_qubit_rejects_halves_on_the_same_kets_that_are_not_proportional():
    # B1's two path halves share the rest kets (A on path 0 or 1) but not
    # their ratio: B1 is entangled with A, and no Pauli power factors it out
    reg = registry(1, 0)
    pol = (VERTICAL, VERTICAL, 0)
    s = HybridState(reg, (False, True, True), {
        BasisKet((0, 0, 0), pol): 0.6, BasisKet((0, 0, 1), pol): 0.3,
        BasisKet((0, 1, 0), pol): 0.3, BasisKet((0, 1, 1), pol): 0.6,
    }).normalized()
    b1 = s.index_of(bob(1))
    with pytest.raises(ValueError, match="photon B1 spatial bit is entangled with the rest"):
        extract_qubit(s, b1, "spatial")
    with pytest.raises(CorrectionSearchError, match="no working correction on B1 spatial"):
        brute_force_correction(s, b1, "spatial", (0.6, 0.8))


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

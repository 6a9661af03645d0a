"""Hand-built final states for ``oracle.target_fidelity``, shared by its tests
and by the fidelity digest of ``scripts/compare_reports.py``."""

from __future__ import annotations

from cjrio.hilbert import A, X, HybridState, PhotonId, PhotonRegister, bob, registry
from cjrio.oracle import TargetState


def fidelity_cases(rng):
    """(final state, random unit target) pairs drawn from the numpy Generator
    ``rng``.  Per shape (1,0), (2,1) and (3,2): one to eight random kets with A
    V polarized and every other bit random, the retired photons' too, with A
    the only live photon, then with one ket's A on H, with A retired and with a
    second live photon; and no terms.  Then registers with no A, with A first
    and with an A equal to, but not, the registry's."""
    def target():
        x = rng.normal(size=4)
        x /= (x @ x) ** 0.5
        return TargetState(complex(x[0], x[1]), complex(x[2], x[3]))

    for m, n in ((1, 0), (2, 1), (3, 2)):
        reg = registry(m, n)
        size, pol = len(reg), reg.mask(1, "polar")
        only_a = tuple(j == 1 for j in range(size))
        for count in range(1, 9):
            terms = {int(k) | pol: complex(*rng.normal(size=2))
                     for k in rng.integers(1 << 2 * size, size=count)}
            h = int(rng.integers(len(terms)))
            other = int(rng.choice([j for j in range(size) if j != 1]))
            yield HybridState(reg, only_a, terms), target()
            yield HybridState(reg, only_a, {k & ~pol if j == h else k: a
                                            for j, (k, a) in enumerate(terms.items())}), target()
            yield HybridState(reg, (False,) * size, terms), target()
            yield HybridState(reg, tuple(j in (1, other) for j in range(size)), terms), target()
        yield HybridState(reg, only_a, {}), target()
    for photons, alive in (([X, bob(1), bob(2)], (False, False, False)),
                           ([X, bob(1), bob(2)], (False, True, False)),
                           ([A, X, bob(1)], (True, False, False)),
                           ([X, PhotonId("A"), bob(1)], (False, True, False))):
        reg = PhotonRegister(photons)
        pol = reg.mask(photons.index(A), "polar") if A in photons else 0
        yield HybridState(reg, alive, {pol: 0.6 + 0j, pol | 0b111: 0.8j}), target()

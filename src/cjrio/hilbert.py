"""Sparse amplitude algebra for hybrid path/polarization photonic states.

Every photon carries two qubits worth of structure: a spatial bit (which of
its two paths it occupies) and a polarization bit (0 = H, 1 = V).  A state is
a complex-weighted collection of basis kets over all photons of a run.  The
protocol never populates more than a handful of kets at a time, so terms live
in an associative map keyed by ket rather than a dense vector; that keeps
branch enumeration exact and cheap.

A ket is one int holding every photon's path and polarization bits.  Only
this module knows where each bit sits; other modules go through
:func:`BasisKet`, :meth:`PhotonRegister.mask` and :meth:`PhotonRegister.unpack`,
and address a photon by its register position.

Measured-out photons stay in the registry with their bits frozen (identical
across every term) and their ``alive`` flag cleared, so transcripts keep
stable photon identities for the whole run.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import partial
from typing import Callable, Hashable, Iterable, Mapping, Sequence

PRUNE_TOL = 1e-14
INPUT_NORM_TOL = 1e-9
PHASE_TOL = 1e-10

VERTICAL = 1

_KINDS = ("X", "A", "B", "C")


@dataclass(frozen=True)
class PhotonId:
    """One photon: the input carrier X, Alice's channel photon A, or an
    indexed joint-party (B) / controller (C) photon."""

    kind: str
    index: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown photon kind {self.kind!r}")
        if self.kind in ("X", "A") and self.index != 0:
            raise ValueError(f"photon {self.kind} carries no index")
        if self.kind in ("B", "C") and self.index < 1:
            raise ValueError(f"photon {self.kind} index must be >= 1")

    def __str__(self) -> str:
        return self.kind if self.index == 0 else f"{self.kind}{self.index}"


X = PhotonId("X")
A = PhotonId("A")


def bob(i: int) -> PhotonId:
    return PhotonId("B", i)


def charlie(j: int) -> PhotonId:
    return PhotonId("C", j)


def BasisKet(spatial: Sequence[int], polar: Sequence[int]) -> int:
    """Pack one classical configuration, per-photon path bits and
    polarization bits in registry order, into an int ket: with n photons,
    photon i's path bit is bit i and its polarization bit is bit n + i."""
    if len(spatial) != len(polar):
        raise ValueError("a ket needs one path bit and one polarization bit per photon")
    ket = 0
    for i, b in enumerate((*spatial, *polar)):
        if b != 0 and b != 1:
            raise ValueError("a ket's bits must be 0 or 1")
        ket |= b << i
    return ket


class PhotonRegister:
    """Immutable photon list shared by every state of one run."""

    __slots__ = ("photons", "masks", "_index")

    def __init__(self, photons: Iterable[PhotonId]):
        self.photons = tuple(photons)
        self._index = {p: i for i, p in enumerate(self.photons)}
        if len(self._index) != len(self.photons):
            raise ValueError("duplicate photon in register")
        self.masks = tuple((1 << i, 1 << (len(self.photons) + i)) for i in range(len(self.photons)))

    def index(self, photon: PhotonId) -> int:
        try:
            return self._index[photon]
        except KeyError:
            raise ValueError(f"photon {photon} not in register") from None

    def mask(self, i: int, dof: str) -> int:
        """The ket bit holding the path ("spatial") or polarization ("polar")
        bit of the photon at position ``i``."""
        if dof == "spatial":
            return 1 << i
        if dof == "polar":
            return 1 << (len(self.photons) + i)
        raise ValueError(f"unknown dof {dof!r}")

    def unpack(self, ket: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The (path bits, polarization bits) of a ket, in registry order;
        the inverse of :func:`BasisKet`."""
        n = len(self.photons)
        bits = tuple(ket >> i & 1 for i in range(2 * n))
        return bits[:n], bits[n:]

    def __len__(self) -> int:
        return len(self.photons)

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, PhotonRegister)
                                 and self.photons == other.photons)

    def __hash__(self) -> int:
        return hash(self.photons)

    def __repr__(self) -> str:
        return f"PhotonRegister({', '.join(str(p) for p in self.photons)})"


_REGISTRIES: dict[tuple[int, int], PhotonRegister] = {}


def registry(m: int, n: int) -> PhotonRegister:
    """Standard registry for a run: X, A, B1..Bm, C1..Cn.  Registers are
    immutable, so every call for one shape returns the same object."""
    reg = _REGISTRIES.get((m, n))
    if reg is None:
        photons = [X, A]
        photons += [bob(i) for i in range(1, m + 1)]
        photons += [charlie(j) for j in range(1, n + 1)]
        reg = _REGISTRIES[m, n] = PhotonRegister(photons)
    return reg


class HybridState:
    """Normalized pure state with value semantics.

    ``terms`` maps an int ket (see :func:`BasisKet`) to a complex amplitude;
    the constructor copies it, :meth:`adopt` does not.  Every operation returns
    a new state, and states may share one ``terms`` dict: it is never mutated.
    """

    __slots__ = ("register", "alive", "terms")

    def __init__(
        self,
        register: PhotonRegister,
        alive: tuple[bool, ...],
        terms: Mapping[int, complex],
    ):
        if len(alive) != len(register):
            raise ValueError("alive flags do not match register")
        self.register = register
        self.alive = tuple(alive)
        self.terms = dict(terms)

    # -- registry helpers -------------------------------------------------

    @property
    def photons(self) -> tuple[PhotonId, ...]:
        return self.register.photons

    def index_of(self, photon: PhotonId) -> int:
        """The register position of ``photon``: the one lookup by name."""
        return self.register.index(photon)

    def require_alive(self, i: int) -> tuple[int, int]:
        """Photon ``i``'s (path, polarization) mask pair; it must still be live."""
        if not self.alive[i]:
            raise ValueError(f"photon {self.photons[i]} has been measured out")
        return self.register.masks[i]

    def definite_bit(self, i: int, dof: str) -> int:
        """Photon ``i``'s bit on ``dof``, which must be the same in every term."""
        mask = self.register.mask(i, dof)
        want = next(iter(self.terms), 0) & mask
        for ket in self.terms:
            if ket & mask != want:
                break
        else:
            if self.terms:
                return 1 if want else 0
        raise ValueError(f"photon {self.photons[i]} {dof} bit is in superposition")

    # -- construction helpers ---------------------------------------------

    def adopt(self, terms: dict[int, complex]) -> "HybridState":
        """A state on the same photons that takes over ``terms``, uncopied."""
        s = HybridState.__new__(HybridState)
        s.register = self.register
        s.alive = self.alive
        s.terms = terms
        return s

    def mark_dead(self, i: int) -> "HybridState":
        """Freeze the photon at position ``i`` out of the live registry.

        Both of its bits must already be definite; the frozen values stay in
        every ket so later records can still report where it ended up.
        """
        self.require_alive(i)
        self.definite_bit(i, "spatial")
        self.definite_bit(i, "polar")
        s = self.adopt(self.terms)
        s.alive = self.alive[:i] + (False,) + self.alive[i + 1:]
        return s

    def live_part(self) -> tuple["HybridState", int]:
        """This state with the bits of its retired photons cleared from every
        ket, and those bits, which are the same in every ket: the inverse of
        :meth:`with_frozen`.  Term order and amplitudes are kept as they are."""
        live = 0
        for (sm, pm), alive in zip(self.register.masks, self.alive):
            if alive:
                live |= sm | pm
        frozen = next(iter(self.terms), 0) & ~live
        if not frozen:
            return self, 0
        return self.adopt({ket & live: a for ket, a in self.terms.items()}), frozen

    def with_frozen(self, frozen: int) -> "HybridState":
        """This state with the retired bits ``frozen`` set in every ket."""
        if not frozen:
            return self
        return self.adopt({ket | frozen: a for ket, a in self.terms.items()})

    def exact_key(self) -> tuple:
        """A key equal for two states only if they hold the same alive flags,
        the same kets in the same order and bit-identical amplitudes: unlike
        ``==``, it tells -0.0 from 0.0."""
        amps = [x for a in self.terms.values() for x in (a.real, a.imag)]
        return self.alive, tuple(self.terms), struct.pack(f"{len(amps)}d", *amps)

    # -- numerics ----------------------------------------------------------

    def norm(self) -> float:
        return math.sqrt(sum((a.real * a.real + a.imag * a.imag) for a in self.terms.values()))

    def normalized(self) -> "HybridState":
        nrm = self.norm()
        if nrm < PRUNE_TOL:
            raise ValueError("cannot normalize a null state")
        inv = 1.0 / nrm
        return self.adopt({k: a * inv for k, a in self.terms.items()})

    def __repr__(self) -> str:
        live = [str(p) for p, al in zip(self.photons, self.alive) if al]
        return f"HybridState({len(self.terms)} terms, live={','.join(live)})"


def prune(terms: Mapping[int, complex]) -> dict[int, complex]:
    return {k: a for k, a in terms.items() if abs(a) > PRUNE_TOL}


def build_initial_state(alpha: complex, beta: complex, m: int, n: int) -> HybridState:
    """Input qubit on photon X tensored with the (2+m+n)-photon channel.

    X sits in the path superposition alpha|x0> + beta|x1> with fixed V
    polarization; the channel photons share one GHZ-like branch in their path
    bits and another in their polarization bits.  Eight terms for generic
    amplitudes, always normalized.
    """
    if m < 1:
        raise ValueError("at least one joint party is required (m >= 1)")
    if n < 0:
        raise ValueError("controller count must be >= 0")
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > INPUT_NORM_TOL:
        raise ValueError("input amplitudes are not normalized")
    for w in (alpha, beta):
        w = complex(w)
        if not (math.isfinite(w.real) and math.isfinite(w.imag)):
            raise ValueError("input amplitudes must be finite")

    reg = registry(m, n)
    n_channel = len(reg) - 1
    terms: dict[int, complex] = {}
    for xbit, w in ((0, complex(alpha)), (1, complex(beta))):
        for branch in (0, 1):
            for pol in (0, 1):
                ket = BasisKet(
                    (xbit,) + (branch,) * n_channel,
                    (VERTICAL,) + (pol,) * n_channel,
                )
                terms[ket] = w / 2.0
    state = HybridState(reg, (True,) * len(reg), prune(terms))
    return state.normalized()


def overlap(a: HybridState, b: HybridState) -> complex:
    """Inner product <a|b>; conjugate-symmetric by construction."""
    if a.register != b.register or a.alive != b.alive:
        raise ValueError("states live on different photon registries")
    if len(b.terms) < len(a.terms):
        return overlap(b, a).conjugate()  # walk the smaller state
    total = 0j
    for ket, amp in a.terms.items():
        other = b.terms.get(ket)
        if other is not None:
            total += amp.conjugate() * other
    return total


def equal_up_to_global_phase(a: HybridState, b: HybridState, tol: float = PHASE_TOL) -> bool:
    """True iff |<a|b>| >= 1 - tol (states assumed normalized)."""
    return abs(overlap(a, b)) >= 1.0 - tol


class Outcome:
    """One readout outcome: its bits as a word (or homodyne class), its
    probability and ``build``, which makes its state each time it is called,
    so a run builds only the outcome it enters."""

    __slots__ = ("bits", "p", "build")

    def __init__(self, bits, p: float, build: Callable[[], HybridState]):
        self.bits, self.p, self.build = bits, p, build


def _collapse(state: HybridState, terms: dict[int, complex], dead: int | None) -> HybridState:
    """``state`` projected onto ``terms``, pruned, normalized, photon ``dead`` (if any) retired."""
    s = state.adopt(prune(terms)).normalized()
    return s if dead is None else s.mark_dead(dead)


def collapse_outcomes(state: HybridState, buckets: Mapping[Hashable, dict[int, complex]],
                      order: Iterable[tuple[object, Hashable]],
                      dead: int | None = None) -> list[Outcome]:
    """The outcomes of a readout that splits ``state``'s kets into ``buckets``, one
    per (bits, key) in ``order``, skipping a bucket of p <= ``PRUNE_TOL ** 2``."""
    out = []
    for bits, key in order:
        terms = buckets[key]
        p = sum(abs(a) ** 2 for a in terms.values())
        if p <= PRUNE_TOL ** 2:
            continue
        out.append(Outcome(bits, p, partial(_collapse, state, terms, dead)))
    return out


def enumerate_measurement(state: HybridState, i: int,
                          dofs: Sequence[str] = ("polar", "spatial")) -> list[Outcome]:
    """Projective measurement of the photon at position ``i`` in the
    computational basis of the listed DOFs, returning every outcome with its
    probability and collapsed state (photon marked dead).  An outcome's bits
    are a word, the j-th listed DOF's bit at bit j; outcomes come in
    lexicographic order of the bits in DOF order, not in numeric word order."""
    state.require_alive(i)
    masks = [state.register.mask(i, d) for d in dofs]
    measured = sum(set(masks))  # one-bit masks: the sum of distinct ones is their union
    buckets: dict[int, dict[int, complex]] = {}
    for ket, amp in state.terms.items():
        buckets.setdefault(ket & measured, {})[ket] = amp
    # Every readout as (word, bucket key), lexicographic in the bits in DOF order.
    readouts = [(0, 0)]
    for j in reversed(range(len(masks))):
        readouts += [(word | 1 << j, key | masks[j]) for word, key in readouts]
    return collapse_outcomes(state, buckets, [r for r in readouts if r[1] in buckets], i)

"""Per-stage analytic reference forms for the two-party, one-controller run.

Each checkpoint's closed form, the state the derivation predicts there, is
built from nothing but the branch's broadcast bits and the configured
operators.  Its layout, a function of the bits the form reads, holds the
alive flags and each ket with the slot of the amplitude pair it takes (the
input, after U2, after U1 U2) and the sign and scale the form applies; it is
made once per process per (checkpoint, bits read), on first use, and a
config's amplitudes fill it.  A checker compares the simulator state with
the reference up to global phase at 1e-12, once per (checkpoint, those bits,
live state, retired bits).  A disagreement, of alive flags too, is never
absorbed: it becomes a structured mismatch record carrying both coefficient
lists, and the report path surfaces it against the documented errata list.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .hilbert import BasisKet, HybridState, PhotonRegister, VERTICAL, registry
from .oracle import direct_apply

STAGE_TOL = 1e-12
SQRT_HALF = 1.0 / math.sqrt(2.0)


@dataclass
class StageMismatch:
    """Simulator state vs reference form at one checkpoint of one branch."""

    stage: str
    bits: dict[str, int]
    photons: list[str]
    simulator: list[dict]
    reference: list[dict]

    def to_json(self) -> dict:
        return {
            "stage": self.stage,
            "branch": self.bits,
            "photons": self.photons,
            "simulator_coefficients": self.simulator,
            "reference_coefficients": self.reference,
        }


def _dump(state: HybridState) -> list[dict]:
    """The terms as coefficient rows, ordered by (path bits, polarization bits)."""
    unpack = state.register.unpack
    out = []
    for ket in sorted(state.terms, key=unpack):
        spatial, polar = unpack(ket)
        amp = state.terms[ket]
        out.append({
            "paths": list(spatial),
            "pol": list(polar),
            "amp": [amp.real, amp.imag],
        })
    return out


def _state(reg: PhotonRegister, alive: tuple[bool, ...],
           terms: dict[int, complex]) -> HybridState:
    terms = {k: a for k, a in terms.items() if abs(a) > 1e-16}
    return HybridState(reg, alive, terms).normalized()


# A layout row's code indexes a config's amplitude table and so names the
# float operations its form makes on the amplitude: the pair slot (IN, U2 or
# U12, plus 1 for the pair's second amplitude); plus PLUS or MINUS where the
# form multiplies it by its sign 1.0 or -1.0; plus HALF where it multiplies
# that by SQRT_HALF, or GHZ where it also adds the product to 0j, as a GHZ
# form accumulates its terms (a layout's kets are distinct).
IN, U2, U12 = 0, 2, 4
PLUS, MINUS = 6, 12
HALF, GHZ = 18, 36


def _sign(odd: int) -> int:
    return MINUS if odd else PLUS


def _ghz(n: int, branches) -> tuple:
    """X retired on path n ^ 1, V polarized, and two amplitude branches, each a
    code and the paths of A, B1, B2 and C1, tensored with the polarization GHZ
    of the channel photons."""
    return (False, True, True, True, True), [
        (BasisKet((n ^ 1, *paths), (VERTICAL, u, u, u, u)), GHZ + code)
        for code, paths in branches for u in (0, 1)]


# Each checkpoint's form, in broadcast order: a function of the bits it reads,
# its parameters, that gives its alive flags and one (ket, code) row per term,
# in the order the derivation writes the terms.
FORMS = {
    # X still live and in superposition: branch weight rides on X's path.
    "entangle": lambda k: ((True,) * 5, [
        (BasisKet((xs, ch, ch, ch, ch), (VERTICAL, u, u, u, u)), HALF + code)
        for code, xs, ch in ((IN, 0, k), (IN + 1, 1, k ^ 1)) for u in (0, 1)]),
    "transfer": lambda k, m, n: _ghz(n, [
        (IN, (k ^ m ^ 1, k, k, k)),
        (IN + 1 + _sign(k ^ m ^ n), (k ^ m ^ 1, k ^ 1, k ^ 1, k ^ 1))]),
    "consent": lambda k, m, n, s: _ghz(n, [  # the sign is minus (-1)^(m^n^s)
        (IN, (k ^ m ^ 1, k, k, k ^ s ^ 1)),
        (IN + 1 + _sign(m ^ n ^ s ^ 1), (k ^ m ^ 1, k ^ 1, k ^ 1, k ^ s ^ 1))]),
    "concentrate": lambda k, m, n, s, l: _ghz(n, [
        (IN, (k ^ m ^ 1, k ^ l ^ 1, k, k ^ s ^ 1)),
        (IN + 1 + _sign(k ^ m ^ n ^ s ^ l), (k ^ m ^ 1, k ^ l ^ 1, k ^ 1, k ^ s ^ 1))]),
    "first-op": lambda k, m, n, s, l: _ghz(n, [
        (U2, (k ^ m ^ 1, k ^ l ^ 1, 0, k ^ s ^ 1)),
        (U2 + 1, (k ^ m ^ 1, k ^ l ^ 1, 1, k ^ s ^ 1))]),
    "hop-link": lambda k, m, n, s, l, r: _ghz(n, [
        (U2, (k ^ m ^ 1, k ^ l ^ r ^ 1, 0, k ^ s ^ 1)),
        (U2 + 1 + _sign(k ^ l ^ 1), (k ^ m ^ 1, k ^ l ^ r, 1, k ^ s ^ 1))]),
    "hop-done": lambda k, m, n, s, g: _ghz(n, [
        (U12, (k ^ m ^ 1, 0, g, k ^ s ^ 1)),
        (U12 + 1, (k ^ m ^ 1, 1, g, k ^ s ^ 1))]),
    "joint-measure": lambda k, m, n, s, p, q, w, g: ((False, True, False, False, True), [
        (BasisKet((n ^ 1, k ^ m ^ 1, q, g, k ^ s ^ 1), (VERTICAL, p, p, w, p)), U12),
        (BasisKet((n ^ 1, k ^ m ^ 1, q, g, k ^ s ^ 1), (VERTICAL, p ^ 1, p, w, p ^ 1)),
         U12 + 1 + _sign(q ^ w))]),
    # The splitter moved C1's V component over: its path is k ^ s ^ 1 ^ v.
    "control-measure": lambda k, m, n, s, p, q, w, g, v: ((False, True, False, False, False), [
        (BasisKet((n ^ 1, k ^ m ^ 1, q, g, k ^ s ^ 1 ^ v), (VERTICAL, p, p, w, v)), U12),
        (BasisKet((n ^ 1, k ^ m ^ 1, q, g, k ^ s ^ 1 ^ v), (VERTICAL, p ^ 1, p, w, v)),
         U12 + 1 + _sign(q ^ w ^ v))]),
    "polar-fixed": lambda k, m, n, s, p, q, w, g, v: ((False, True, False, False, False), [
        (BasisKet((n ^ 1, k ^ m ^ 1, q, g, k ^ s ^ 1 ^ v), (VERTICAL, 0, p, w, v)), U12),
        (BasisKet((n ^ 1, k ^ m ^ 1, q, g, k ^ s ^ 1 ^ v), (VERTICAL, 1, p, w, v)), U12 + 1)]),
}
CHECK_IDS = tuple(FORMS)
_LAYOUTS: dict[int, tuple] = {}


def _layout(check_id: str, word: int, at: Sequence[int]) -> tuple:
    """The alive flags, kets and codes of ``check_id``'s form on the bits of
    ``word`` at ``at``, the values of its parameters: made on the first call,
    then kept for every config, keyed by one int, those values packed (the
    first lowest) times the checkpoint count plus the checkpoint's index."""
    key = sum((word >> j & 1) << t for t, j in enumerate(at))
    key = key * len(CHECK_IDS) + CHECK_IDS.index(check_id)
    layout = _LAYOUTS.get(key)
    if layout is None:
        alive, rows = FORMS[check_id](*(word >> j & 1 for j in at))
        layout = _LAYOUTS[key] = (alive, *zip(*rows))
    return layout


def _agrees(live: HybridState, frozen: int, ref: HybridState) -> bool:
    """Whether ``live`` with the retired bits ``frozen`` set in every ket equals
    ``ref`` up to global phase: their overlap, each of ``live``'s conjugated
    amplitudes times ``ref``'s on the same ket, summed in ``live``'s term order,
    with no full state made.  States on other photons or alive flags never agree."""
    if live.alive != ref.alive or live.register != ref.register:
        return False
    get, total = ref.terms.get, 0j
    for ket, amp in live.terms.items():
        if (other := get(ket | frozen)) is not None:
            total += amp.conjugate() * other
    return abs(total) >= 1.0 - STAGE_TOL


def make_stage_checker(config) -> Callable[..., StageMismatch | None]:
    """Checker closure for one (m=2, n=1) configuration: ``check(labels,
    check_id, word, width, live, frozen)`` takes the bit names, the branch's
    word and bit count, and its state as a live part and the retired bits."""
    if config.m != 2 or config.n != 1:
        raise ValueError("stage reference forms exist only for m=2, n=1")

    alpha, beta = complex(config.alpha), complex(config.beta)
    t2 = direct_apply(config.unitaries[1:], alpha, beta)
    t12 = direct_apply(config.unitaries[:1], t2.a0, t2.a1)  # one step past t2
    # The amplitude table a layout's codes index: each float operation a
    # hand-written form makes on an amplitude, made once.
    signed = (alpha, beta, t2.a0, t2.a1, t12.a0, t12.a1)
    signed += tuple(1.0 * a for a in signed) + tuple(-1.0 * a for a in signed)
    table = (*signed, *[w * SQRT_HALF for w in signed], *[0j + w * SQRT_HALF for w in signed])
    reg = registry(2, 1)
    # A layout's amplitudes, filtered and normalized, depend only on its alive
    # flags and codes: they are made once per config as a state keyed by row,
    # and a reference puts each row's ket in place of its row.
    scaled: dict[tuple, HybridState] = {}

    def reference(check_id: str, word: int, at: Sequence[int]) -> HybridState:
        alive, kets, codes = _layout(check_id, word, at)
        if (amps := scaled.get((alive, codes))) is None:
            amps = scaled[alive, codes] = _state(reg, alive, {i: table[code]
                                                              for i, code in enumerate(codes)})
        return amps.adopt({kets[i]: a for i, a in amps.terms.items()})

    # A form reads exactly the bits its parameters name (found in the word on
    # a checkpoint's first check), so its reference is a function of their
    # values, and a verdict of those, the live state (never mutated, so its
    # identity will do) and the retired bits; memos the checker owns keep
    # both.  A full state and the bit names are made only for a mismatch.
    readers: dict[str, tuple] = {}

    def check(labels: Sequence[str], check_id: str, word: int, width: int,
              live: HybridState, frozen: int) -> StageMismatch | None:
        if (reader := readers.get(check_id)) is None:
            at = [labels.index(p) for p in inspect.signature(FORMS[check_id]).parameters]
            reader = readers[check_id] = at, sum(1 << j for j in at), {}, {}
        at, mask, refs, verdicts = reader
        read = word & mask
        verdict = verdicts.get((read, live, frozen))
        if verdict is None:  # a pass is (), a mismatch the two states
            if (ref := refs.get(read)) is None:
                ref = refs[read] = reference(check_id, word, at)
            verdict = verdicts[read, live, frozen] = (
                () if _agrees(live, frozen, ref) else (live.with_frozen(frozen), ref))
        if not verdict:
            return None
        sim, ref = verdict
        return StageMismatch(
            stage=check_id,
            bits={labels[j]: word >> j & 1 for j in range(width)},
            photons=[str(p) for p in sim.photons],
            simulator=_dump(sim),
            reference=_dump(ref),
        )

    return check

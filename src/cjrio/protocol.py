"""State machine for controlled-joint remote implementation of operators.

A run walks nine stages over one shared hyperentangled channel: Alice
entangles her carrier photon with the channel and measures it out (bits k,
then m and n), each controller consents by disentangling her photon (s_j),
all but the last joint party measure out so the secret amplitudes concentrate
on the last one (l_i), the parties apply their operators while shuttling the
amplitudes down the chain two at a time (r_i, g_i), everything moves into the
polarization degree of freedom through local measurements (p, q, w_i), the
controllers release it (v_j), and Alice converts her polarization qubit back
into a path qubit.

Every measurement node exposes its full outcome fan-out, so a run can either
sample one branch or enumerate all of them with exact probabilities.  The
classical Pauli fixes between measurements are never hard-coded per branch:
``build_protocol`` derives them once, symbolically, as affine GF(2) forms over
the broadcast bits, held as ints and added with ``^`` as each readout joins
the node list, and they can be cross-checked on every branch against
exhaustive Pauli search.
"""

from __future__ import annotations

import cmath
import numbers
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import oracle
from .hilbert import (A, HybridState, Outcome, PhotonId, X, bob, build_initial_state,
                      charlie, enumerate_measurement)
from .kerr import enumerate_homodyne, fresh_probe, kerr
from .optics import (ALL_PAULI_POWERS, PauliPower, SU2Operator, apply_bbs,
                     apply_hwp, apply_pauli_polar, apply_pauli_spatial, apply_pbs,
                     apply_qwp, apply_su2_spatial)

BLOCKED = "blocked"
FIDELITY_THRESHOLD = 1.0 - 1e-10

VARIANTS = ("cjrio", "jrio", "crio", "rio")


class FrameInconsistencyError(RuntimeError):
    """A frame-derived correction is not among those exhaustive search finds."""

    def __init__(self, node: str, bits: Mapping[str, int], derived: PauliPower, found: tuple):
        super().__init__(
            f"frame correction {derived} at {node} disagrees with searched "
            f"{' or '.join(map(str, found))} on branch {dict(bits)}"
        )
        self.node = node
        self.bits = dict(bits)
        self.derived = derived
        self.found = found


class _FrameMismatch(Exception):
    """A node run's correction check failed on the bits it reads, ``word``
    (the first ``heard`` broadcast bits, masked); the walk, which holds the
    branch's whole word, raises it as a :class:`FrameInconsistencyError`."""

    def __init__(self, word: int, heard: int, derived: PauliPower, found: tuple):
        super().__init__(word, heard, derived, found)
        self.word, self.heard, self.derived, self.found = word, heard, derived, found


def _namer(labels: Sequence[str]) -> Callable[[int, int], dict[str, int]]:
    """Names the first ``width`` bits of a word, bit j as ``labels[j]``, in one
    dict rewritten in place: a depth-first walk names words that share most
    bits with the last one, so only the bits that differ are rewritten.  The
    dict stays the namer's; whoever keeps it takes a copy."""
    names: dict[str, int] = {}
    last = 0

    def named(word: int, width: int) -> dict[str, int]:
        nonlocal last
        while len(names) > width:
            names.popitem()
        # The bits that changed and those past the dict's end, lowest first.
        stale = ((word ^ last) | -1 << len(names)) & ((1 << width) - 1)
        while stale:
            j = (stale & -stale).bit_length() - 1
            names[labels[j]] = word >> j & 1
            stale &= stale - 1
        last = word
        return names
    return named


# ---------------------------------------------------------------------------
# XOR-linear forms and the Pauli frame
# ---------------------------------------------------------------------------
#
# A branch's outcome bits are one int, its word: the j-th broadcast bit at
# bit j.  An affine GF(2) form over them is an int too: bit 0 its constant,
# bit j + 1 the coefficient of the j-th broadcast bit.  Forms add with ``^``.
#
# The Pauli frame is two such forms, kept as ``build_protocol`` adds each
# readout: the relative sign between the two amplitude branches on a path
# (``sign``) and on the polarization (``polar_sign``).  Two parity rules
# generate every path correction.  A photon whose branch paths are
# complementary that is re-mixed, tapped on path T and read out with bit o
# lands on path T ^ o ^ 1 and flips the sign by that landing.  A photon on a
# definite path d that is re-mixed into superposition flips it by d.  Both
# rules are checked per branch against exhaustive Pauli search in the tests.


@dataclass(frozen=True)
class CorrectionSpec:
    """One deferred Pauli fix: which party, which DOF, and the exponents as
    affine forms over the broadcast outcome bits."""

    party: PhotonId
    dof: str
    x: int
    z: int

    def power(self, word: int) -> PauliPower:
        """One of the four shared ``ALL_PAULI_POWERS``, on the bits of ``word``."""
        live = word << 1 | 1  # the constant's bit is always on
        x, z = (self.x & live).bit_count() & 1, (self.z & live).bit_count() & 1
        return ALL_PAULI_POWERS[x | z << 1]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProtocolConfig:
    """Full description of one run: party counts, operators, the secret input
    pair, and per-controller consent at both gates."""

    m: int
    n: int
    unitaries: tuple[SU2Operator, ...]
    alpha: complex
    beta: complex
    consent: tuple[bool, ...] | None = None
    consent_phase2: tuple[bool, ...] | None = None

    def __post_init__(self) -> None:
        for name in ("m", "n"):
            val = getattr(self, name)
            if isinstance(val, bool) or not isinstance(val, int):
                raise ValueError(f"{name} must be an int, got {val!r}")
        if self.m < 1:
            raise ValueError("at least one joint party is required")
        if self.n < 0:
            raise ValueError("controller count must be >= 0")
        object.__setattr__(self, "unitaries", tuple(self.unitaries))
        if len(self.unitaries) != self.m:
            raise ValueError(f"expected {self.m} operators, got {len(self.unitaries)}")
        for j, op in enumerate(self.unitaries):
            if not isinstance(op, SU2Operator):
                raise ValueError(f"unitaries[{j}] must be an SU2Operator, got {op!r}")
        for name in ("alpha", "beta"):
            val = getattr(self, name)
            if isinstance(val, bool) or not isinstance(val, numbers.Number):
                raise ValueError(f"{name} must be a number, got {val!r}")
        if not (cmath.isfinite(self.alpha) and cmath.isfinite(self.beta)):
            raise ValueError("input amplitudes must be finite")
        if abs(abs(self.alpha) ** 2 + abs(self.beta) ** 2 - 1.0) > 1e-9:
            raise ValueError("input amplitudes are not normalized")
        for name in ("consent", "consent_phase2"):
            val = getattr(self, name)
            val = (True,) * self.n if val is None else tuple(val)
            if len(val) != self.n:
                raise ValueError(f"{name} must list one flag per controller")
            if not all(isinstance(flag, bool) for flag in val):
                raise ValueError(f"{name} flags must be bools, got {val!r}")
            object.__setattr__(self, name, val)


def check_variant(variant: str, m: int, n: int) -> None:
    """Reject configurations that do not match the named reduction."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "jrio" and (n != 0 or m < 2):
        raise ValueError("jrio requires n = 0 and m >= 2")
    if variant == "crio" and (m != 1 or n < 1):
        raise ValueError("crio requires m = 1 and n >= 1")
    if variant == "rio" and (m != 1 or n != 0):
        raise ValueError("rio requires m = 1 and n = 0")


def branch_bit_count(m: int, n: int) -> int:
    """Outcome bits of a consenting (m, n) run: k, m, n, then s and v per
    controller and l, r, g and w per joint party past the first, p, q."""
    return 5 + 4 * (m - 1) + 2 * n


def _family(base: str, count: int, start: int = 1) -> list[str]:
    """The bit names of a family of ``count`` nodes: the bare base for a
    single member, indexed from ``start`` otherwise."""
    if count == 1:
        return [base]
    return [f"{base}{i}" for i in range(start, start + count)]


# ---------------------------------------------------------------------------
# Protocol nodes
# ---------------------------------------------------------------------------


@dataclass
class Node:
    """One step of the scheme.  ``run`` maps a state and a word to every
    outcome of the node (its state built on demand, its bits a word) and its
    largest intermediate term count; an empty outcome list means the node's
    controller withheld consent.  The walk hands ``run`` only the word's bits
    in ``reads``: k for a node whose Kerr tap sits on path k, and the bits a
    correcting node's fix reads.  ``check_id`` names the stage checkpoint the
    state is compared with after the node, where a checker exists (m=2, n=1
    only)."""

    name: str
    stage: int
    party: str
    bit_labels: tuple[str, ...]
    run: Callable[[HybridState, int], tuple[list[Outcome], int]]
    check_id: str | None = None
    reads: int = 0


class _Row(NamedTuple):
    """One stored outcome of a node run: its bits, its probability, its
    state's live part (canonical) and the bits that part leaves out."""

    bits: int
    p: float
    state: HybridState
    frozen: int


@dataclass
class Protocol:
    """The node list of one run, its bit names in broadcast order and, keyed
    by node name in node order, the Pauli fix each correcting node applies.

    It also keeps the walk's two tables.  ``interned`` maps the exact content
    of a live-only state to its one canonical copy.  ``results[i]`` maps a
    canonical state and the bits node ``i`` reads to that node's run there:
    its peak term count and its outcome rows; it is None until node ``i``
    first runs."""

    config: ProtocolConfig
    plan: dict[str, CorrectionSpec]
    nodes: list[Node]
    initial_state: HybridState
    labels: tuple[str, ...]
    interned: dict[tuple, HybridState] = field(default_factory=dict, repr=False,
                                               compare=False)
    results: list[dict | None] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.results = [None] * len(self.nodes)

    def intern(self, state: HybridState) -> tuple[HybridState, int]:
        """The canonical copy of ``state``'s live part, and the retired bits
        it leaves out."""
        live, frozen = state.live_part()
        return self.interned.setdefault(live.exact_key(), live), frozen


def build_protocol(
    config: ProtocolConfig,
    *,
    validate_corrections: bool = False,
) -> Protocol:
    """The node list of ``config``, in broadcast order.  Each measuring node
    names its bits (k is bit 0) and advances the Pauli frame; each correcting
    node takes its fix from the frame as it stands there."""
    m, n = config.m, config.n
    initial = build_initial_state(config.alpha, config.beta, m, n)
    # Register positions, resolved once: the nodes address photons by these.
    at_x, at_a = initial.index_of(X), initial.index_of(A)
    at_b = [initial.index_of(bob(i)) for i in range(1, m + 1)]
    at_c = [initial.index_of(charlie(j)) for j in range(1, n + 1)]
    sign = 0  # the path half of the Pauli frame, a form
    nodes: list[Node] = []
    labels: list[str] = []
    plan: dict[str, CorrectionSpec] = {}
    # Per plan entry: its party's register position, the oracle pair validation
    # compares it with (None unless validated) and how many bits are out by then.
    sites: dict[str, tuple[int, tuple[complex, complex] | None, int]] = {}

    def add(node: Node) -> list[int]:
        """Append ``node``, naming its bits at the next word positions;
        returns their forms."""
        nodes.append(node)
        labels.extend(node.bit_labels)
        return [2 << j for j in range(len(labels) - len(node.bit_labels), len(labels))]

    def fix(node: str, party: PhotonId, dof: str, x: int, z: int,
            want: tuple[complex, complex] | None) -> None:
        """Give ``node``, the one just added, its correction."""
        plan[node] = CorrectionSpec(party, dof, x, z)
        sites[node] = (initial.index_of(party), want, len(labels))
        nodes[-1].reads |= (x | z) >> 1  # the forms' bit j + 1 is word bit j

    def target(ops) -> tuple[complex, complex] | None:
        """The input pair after ``ops``, if corrections are validated."""
        if not validate_corrections:
            return None
        t = oracle.direct_apply(ops, config.alpha, config.beta)
        return t.a0, t.a1

    def correct(state: HybridState, bits: int, node: str) -> HybridState:
        spec = plan[node]
        i, want, heard = sites[node]
        power = spec.power(bits)
        if validate_corrections:
            found = oracle.brute_force_correction(state, i, spec.dof, want)
            if power not in found:
                raise _FrameMismatch(bits, heard, power, found)
        applier = apply_pauli_spatial if spec.dof == "spatial" else apply_pauli_polar
        return applier(state, i, power)

    def kerr_read(st: HybridState, *taps: tuple[int, int, int]) -> tuple[list[Outcome], int]:
        """Tap a fresh probe on each (position, path, multiplier) of ``st``
        and read it out: every outcome, and ``st``'s term count."""
        probe = fresh_probe(st)
        for i, path, mult in taps:
            probe = kerr(probe, st, i, path, mult)
        return enumerate_homodyne(probe, st), len(st.terms)

    def run_entangle(state, bits):
        return kerr_read(state, (at_x, 0, +1), (at_a, 0, -1))

    (k,) = add(Node("entangle", 1, "A", ("k",), run_entangle, "entangle"))

    def run_transfer(state, bits):
        st = apply_bbs(state, at_x)
        st = apply_bbs(st, at_a)
        outcomes, peak = kerr_read(st, (at_x, 0, +1), (at_a, bits & 1, +2))
        # Class c reads m = c >> 1 and n = c & 1.
        return [Outcome(o.bits >> 1 | (o.bits & 1) << 1, o.p,
                        lambda build=o.build: build().mark_dead(at_x))
                for o in outcomes], peak

    bit_m, bit_n = add(Node("transfer", 2, "A", ("m", "n"), run_transfer, "transfer", 1))
    # X was tapped on path 0 (bit n fires it), A on path k (bit m fires it);
    # both collapse together, X landing on n ^ 1.
    a_path = k ^ bit_m ^ 1
    sign ^= bit_n ^ 1 ^ a_path

    for j, s_lbl in enumerate(_family("s", n), start=1):
        def run_consent(state, bits, _j=j, _c=at_c[j - 1]):
            if not config.consent[_j - 1]:
                return [], len(state.terms)
            return kerr_read(apply_bbs(state, _c), (_c, bits & 1, +1))

        (s,) = add(Node(f"consent[{j}]", 3, f"C{j}", (s_lbl,), run_consent, "consent", 1))
        sign ^= k ^ s ^ 1  # tapped on path k

    landing: list[int] = []  # path each of B1..B(m-1) lands on
    for i, l_lbl in enumerate(_family("l", m - 1), start=1):
        def run_concentrate(state, bits, _b=at_b[i - 1]):
            return kerr_read(apply_bbs(state, _b), (_b, bits & 1, +1))

        (l,) = add(Node(f"concentrate[{i}]", 4, f"B{i}", (l_lbl,), run_concentrate,
                        "concentrate", 1))
        landing.append(k ^ l ^ 1)
        sign ^= landing[-1]

    def run_first_op(state, bits):
        st = correct(state, bits, "first_op")
        st = apply_su2_spatial(st, at_b[m - 1], config.unitaries[m - 1])
        return [Outcome(0, 1.0, lambda: st)], len(st.terms)

    add(Node("first_op", 4, f"B{m}", (), run_first_op, "first-op"))
    fix("first_op", bob(m), "spatial", k, sign, (config.alpha, config.beta))
    sign = 0

    r_lbls, g_lbls = _family("r", m - 1), _family("g", m - 1)
    for i in range(m - 1, 0, -1):
        def run_hop_link(state, bits, _b=at_b[i - 1], _next=at_b[i]):
            d = state.definite_bit(_b, "spatial")
            return kerr_read(apply_bbs(state, _b), (_b, d, +1), (_next, 0, -1))

        (r,) = add(Node(f"hop_link[{i}]", 5, f"B{i + 1}", (r_lbls[i - 1],), run_hop_link,
                        "hop-link"))
        sign ^= landing[i - 1]  # B_i leaves its definite path, re-split

        # _g: bit g's position in the word, the next one, which add gives it below.
        def run_hop_close(state, bits, _i=i, _g=len(labels), _b=at_b[i - 1], _next=at_b[i]):
            outcomes, peak = kerr_read(apply_bbs(state, _next), (_next, 1, +1))

            def close(build, c):  # the correction and the operator, on demand
                s3 = correct(build(), bits | c << _g, f"hop_close[{_i}]")
                return apply_su2_spatial(s3, _b, config.unitaries[_i - 1])
            return [Outcome(o.bits, o.p, partial(close, o.build, o.bits))
                    for o in outcomes], peak

        (g,) = add(Node(f"hop_close[{i}]", 5, f"B{i + 1}", (g_lbls[i - 1],), run_hop_close,
                        "hop-done"))
        sign ^= g  # tapped on path 1, so it lands on g
        fix(f"hop_close[{i}]", bob(i), "spatial", landing[i - 1] ^ r, sign,
            target(config.unitaries[i:]))
        sign = 0

    def run_joint_b1(state, bits):
        st = apply_hwp(state, at_b[0], 1)
        st = apply_bbs(st, at_b[0])
        return enumerate_measurement(st, at_b[0], ("polar", "spatial")), len(st.terms)

    p, q = add(Node("joint_measure[1]", 7, "B1", ("p", "q"), run_joint_b1))
    # Every polarization readout after p flips the relative sign with its bit.
    polar_sign = q

    for i, w_lbl in enumerate(_family("w", m - 1, start=2), start=2):
        def run_joint_w(state, bits, _b=at_b[i - 1]):
            path = state.definite_bit(_b, "spatial")
            st = apply_qwp(state, _b, path)
            return enumerate_measurement(st, _b, ("polar",)), len(st.terms)

        (w,) = add(Node(f"joint_measure[{i}]", 7, f"B{i}", (w_lbl,), run_joint_w,
                        "joint-measure"))
        polar_sign ^= w

    for j, v_lbl in enumerate(_family("v", n), start=1):
        def run_control(state, bits, _j=j, _c=at_c[j - 1]):
            if not config.consent_phase2[_j - 1]:
                return [], len(state.terms)
            path = state.definite_bit(_c, "spatial")
            st = apply_qwp(state, _c, path)
            st = apply_pbs(st, _c, path)
            return enumerate_measurement(st, _c, ("polar",)), len(st.terms)

        (v,) = add(Node(f"control_measure[{j}]", 8, f"C{j}", (v_lbl,), run_control,
                        "control-measure"))
        polar_sign ^= v

    def run_polar_fix(state, bits):
        st = correct(state, bits, "polar_fix")
        return [Outcome(0, 1.0, lambda: st)], len(st.terms)

    add(Node("polar_fix", 8, "A", (), run_polar_fix, "polar-fixed"))
    fix("polar_fix", A, "polar", p, polar_sign, target(config.unitaries))

    def run_to_spatial(state, bits):
        in_path = state.definite_bit(at_a, "spatial")
        st = apply_pbs(state, at_a, in_path)
        st = apply_hwp(st, at_a, in_path)
        peak = len(st.terms)
        st = correct(st, bits, "to_spatial")
        return [Outcome(0, 1.0, lambda: st)], peak

    add(Node("to_spatial", 9, "A", (), run_to_spatial))
    fix("to_spatial", A, "spatial", a_path, 0, sites["polar_fix"][1])

    return Protocol(config, plan, nodes, initial, tuple(labels))


# ---------------------------------------------------------------------------
# Transcripts and results
# ---------------------------------------------------------------------------


@dataclass
class OutcomeRecord:
    step: str
    party: str
    bits: dict[str, int]


@dataclass
class CorrectionRecord:
    party: str
    dof: str
    power: PauliPower


@dataclass
class Transcript:
    """Classical-communication ledger of one branch: every outcome bit in
    broadcast order, every correction applied, and the bit total."""

    outcomes: list[OutcomeRecord]
    corrections: list[CorrectionRecord]
    classical_bits: int
    seed: int | None = None


@dataclass
class BranchResult:
    """One protocol branch: its outcome bits, probability, final (or halt)
    state and any stage-check mismatch records.

    Neither its state nor its transcript is made until first asked for, then
    kept.  The state is built by setting the retired bits ``_frozen`` in every
    ket of ``_live``.  Each bit is broadcast once and each correction is a
    function of the bits, so the transcript is read off ``_word`` and the first
    ``_passed`` nodes of ``_protocol``."""

    bits: dict[str, int]
    probability: float
    blocked_at: str | None
    errata: list
    max_terms: int
    seed: int | None
    _protocol: Protocol = field(repr=False, compare=False)
    _passed: int = field(repr=False, compare=False)
    _word: int = field(repr=False, compare=False)
    _live: HybridState = field(repr=False, compare=False)
    _frozen: int = field(repr=False, compare=False)
    # Plain properties fill these: on Python 3.10 and 3.11 a cached_property
    # takes a lock on every read.
    _state: HybridState | None = field(default=None, repr=False, compare=False)
    _transcript: Transcript | None = field(default=None, repr=False, compare=False)

    @property
    def blocked(self) -> bool:
        return self.blocked_at is not None

    @property
    def state(self) -> HybridState:
        if self._state is None:
            self._state = self._live.with_frozen(self._frozen)
        return self._state

    @property
    def live(self) -> HybridState:
        """``state`` with some of its retired bits cleared, the same object
        for the branches that end in one canonical live state: a key for work
        that reads live photons only."""
        return self._live

    @property
    def transcript(self) -> Transcript:
        if self._transcript is None:
            bits = self.bits
            passed = self._protocol.nodes[:self._passed]
            plan = self._protocol.plan
            self._transcript = Transcript(
                outcomes=[OutcomeRecord(node.name, node.party,
                                        {lbl: bits[lbl] for lbl in node.bit_labels})
                          for node in passed if node.bit_labels],
                corrections=[CorrectionRecord(str(spec.party), spec.dof, spec.power(self._word))
                             for spec in (plan.get(node.name) for node in passed) if spec],
                classical_bits=len(bits),
                seed=self.seed,
            )
        return self._transcript


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


_tuple_new = tuple.__new__


class _Branch(NamedTuple):
    """Where one branch stands: the index of its next node (or of the node
    that blocked it), its state (``state`` with the retired bits ``frozen``
    set in every ket), its bits as a word (the j-th broadcast bit at bit j)
    and how many there are, and what it has gathered so far.  The walk moves
    it with :meth:`advance`, one node outcome at a time."""

    idx: int
    state: HybridState
    frozen: int
    word: int
    width: int
    probability: float
    errata: tuple
    max_terms: int
    blocked_at: str | None

    def advance(self, node: Node, bits: int, p: float, state: HybridState, frozen: int,
                peak: int, checker, names) -> "_Branch":
        """The branch after ``node`` produced the outcome ``bits`` with
        probability ``p`` and the state ``state`` with ``frozen`` set;
        ``peak`` is the node's largest intermediate term count.  A stage
        ``checker`` reads the bits as ``names`` gives them, and the full
        state, built for it."""
        idx, _, _, word, width, probability, errata, max_terms, _ = self
        word |= bits << width
        width += len(node.bit_labels)
        if checker is not None and node.check_id is not None:
            mismatch = checker(node.check_id, names(word, width), state.with_frozen(frozen))
            if mismatch is not None:
                errata = errata + (mismatch,)
        # Compared by hand and built with tuple.__new__, which skips the
        # Python-level __new__ of a NamedTuple: this runs once per edge of the
        # outcome tree, and without the max() call and that frame a (3,2)
        # enumeration takes 20% less CPU time.
        terms = len(state.terms)
        if terms < peak:
            terms = peak
        if terms > max_terms:
            max_terms = terms
        return _tuple_new(_Branch, (idx + 1, state, frozen, word, width, probability * p,
                                    errata, max_terms, None))

    def result(self, proto: Protocol, names, seed: int | None = None) -> BranchResult:
        """The finished, or blocked, branch, its bits named by ``names``."""
        idx, state, frozen, word, width, probability, errata, max_terms, blocked_at = self
        return BranchResult(dict(names(word, width)), probability, blocked_at, list(errata),
                            max_terms, seed, proto, idx, word, state, frozen)


def _start(config: ProtocolConfig, check_stages: bool, validate_corrections: bool,
           proto: Protocol | None):
    """The protocol (``proto`` if given, else one built from ``config``), its
    word namer, its walk (running the stage checks if asked) and the root."""
    if proto is None:
        proto = build_protocol(config, validate_corrections=validate_corrections)
    elif proto.config != config or validate_corrections:
        raise ValueError("a given protocol must come from this config, validated or not")
    names = _namer(proto.labels)
    checker = None
    if check_stages:
        from .stages import make_stage_checker

        checker = make_stage_checker(config)
    state = proto.initial_state
    root = _Branch(0, state, 0, 0, 0, 1.0, (), len(state.terms), None)
    return proto, names, partial(_walk, proto, names, checker), root


def _walk(proto: Protocol, names, checker, branch: _Branch, choose,
          stage: int | None = None) -> Iterator[_Branch]:
    """Depth-first from ``branch``: run each node and enter the outcomes
    ``choose`` keeps of its outcome list, first to last.  Yields each branch
    that is finished or blocked or, for a ``stage``, has reached a node of
    another stage.

    A node's outcomes depend only on the live part of its input state and on
    the word's bits it reads (primitives touch live photons only, and a
    retired photon's bits are the same in every ket), so each node runs once
    per (canonical live part, bits read) and ``proto.results`` keeps the
    outcome rows for every later branch that arrives with the same key.  The
    correction check of ``validate_corrections`` runs inside the node, so it
    too runs once per key; its verdict is a function of that key alone.  A
    node's first run is stored nowhere and builds only the outcomes
    ``choose`` keeps, so a sampled run, which enters each node once, pays for
    no table."""
    nodes, results, intern = proto.nodes, proto.results, proto.intern
    end = len(nodes)
    stack = [branch]
    while stack:
        branch = stack.pop()
        idx = branch.idx
        if (branch.blocked_at is not None or idx == end
                or stage is not None and nodes[idx].stage != stage):
            yield branch
            continue
        node = nodes[idx]
        state, frozen = branch.state, branch.frozen
        bits = branch.word & node.reads
        table = results[idx]
        try:
            if table is None:
                results[idx] = {}
                outcomes, peak = node.run(state, bits)
                children = [branch.advance(node, out.bits, out.p, out.build(), frozen, peak,
                                           checker, names) for out in choose(outcomes)]
            else:
                entry = table.get((state, bits))
                if entry is None:
                    state, retired = intern(state)
                    frozen |= retired
                    entry = table.get((state, bits))
                    if entry is None:
                        outcomes, peak = node.run(state, bits)
                        entry = table[state, bits] = peak, [
                            _Row(out.bits, out.p, *intern(out.build())) for out in outcomes]
                peak, outcomes = entry
                children = [branch.advance(node, row.bits, row.p, row.state, frozen | row.frozen,
                                           peak, checker, names) for row in choose(outcomes)]
        except _FrameMismatch as err:
            raise FrameInconsistencyError(node.name, names(branch.word | err.word, err.heard),
                                          err.derived, err.found) from None
        if not outcomes:  # the node's controller withheld consent
            stack.append(branch._replace(max_terms=max(branch.max_terms, peak),
                                         blocked_at=node.name))
            continue
        # Advanced in outcome order; pushed reversed, so the first is walked first.
        stack.extend(reversed(children))


def iter_branches(
    config: ProtocolConfig,
    *,
    check_stages: bool = False,
    validate_corrections: bool = False,
    protocol: Protocol | None = None,
) -> Iterator[BranchResult]:
    """Depth-first enumeration of every outcome branch, in lexicographic
    order of the outcome-bit sequence.  Blocked branches absorb their whole
    subtree probability.  ``protocol`` is ``config``'s node list, if built."""
    proto, names, walk, root = _start(config, check_stages, validate_corrections, protocol)
    for branch in walk(root, lambda outcomes: outcomes):
        yield branch.result(proto, names)


class ProtocolRun:
    """One sampled execution with stepwise control, for interactive use and
    stage-by-stage tests.  ``run_full`` drives it end to end.  ``protocol``
    is ``config``'s node list, if built; many runs may share one build."""

    def __init__(
        self,
        config: ProtocolConfig,
        seed: int | None = None,
        rng: np.random.Generator | None = None,
        *,
        check_stages: bool = False,
        validate_corrections: bool = False,
        protocol: Protocol | None = None,
    ):
        self.config = config
        self._proto, self._names, self._walk, self._branch = _start(
            config, check_stages, validate_corrections, protocol)
        self._seed = seed
        self._rng = rng if rng is not None else np.random.default_rng(seed)
        self._shown = self._state = None
        self._stage = 0  # the last stage stepped

    @property
    def state(self) -> HybridState:
        """The full state where the run stands, built once per branch."""
        branch = self._branch
        if self._shown is not branch:
            self._shown, self._state = branch, branch.state.with_frozen(branch.frozen)
        return self._state

    @property
    def bits(self) -> dict[str, int]:
        return dict(self._names(self._branch.word, self._branch.width))

    @property
    def blocked(self) -> bool:
        return self._branch.blocked_at is not None

    @property
    def blocked_at(self) -> str | None:
        return self._branch.blocked_at

    def _draw(self, outcomes: list[Outcome]) -> list[Outcome]:
        """The outcome a node with a choice draws: one uniform number, and the
        first outcome whose running probability sum exceeds it, or the last
        outcome if rounding leaves the sum short.  Only the outcome taken has
        its state built."""
        if len(outcomes) > 1:
            r = self._rng.random()
            acc = 0.0
            for out in outcomes:
                acc += out.p
                if r < acc:
                    return [out]
        return outcomes[-1:]

    def step(self, stage: int):
        """Run the nodes of ``stage`` and return the bits they broadcast, in
        order, or BLOCKED once a controller has withheld consent.  Stages
        are numbered as in the node list: 1 to 9, the shift chain being 5.
        Each step must name a later stage than the last, and skip no stage
        with nodes still to run; a stage without nodes in this shape gives
        ``()``."""
        branch, nodes = self._branch, self._proto.nodes
        lo = self._stage + 1
        hi = 9 if branch.blocked_at or branch.idx == len(nodes) else nodes[branch.idx].stage
        if stage not in range(lo, hi + 1):
            expected = (f"stage {lo}" if lo == hi else f"a stage from {lo} to {hi}"
                        if lo < hi else "none: the run is over")
            raise ValueError(f"cannot step stage {stage!r} now: expected {expected}")
        self._stage = stage
        (self._branch,) = self._walk(branch, self._draw, stage)
        if self.blocked:
            return BLOCKED
        bits = self.bits
        return tuple(bits[lbl] for node in nodes if node.stage == stage
                     for lbl in node.bit_labels)

    def finish(self) -> BranchResult:
        self._stage = 9
        (self._branch,) = self._walk(self._branch, self._draw)
        return self._branch.result(self._proto, self._names, seed=self._seed)


def run_full(
    config: ProtocolConfig,
    seed: int | None = None,
    *,
    rng: np.random.Generator | None = None,
    check_stages: bool = False,
    validate_corrections: bool = False,
) -> BranchResult:
    """Sample one branch end to end and return it with its transcript."""
    return ProtocolRun(
        config,
        seed=seed,
        rng=rng,
        check_stages=check_stages,
        validate_corrections=validate_corrections,
    ).finish()


def branch_fidelity(config: ProtocolConfig, result: BranchResult) -> float | None:
    """Overlap magnitude of a finished branch against the oracle target."""
    if result.blocked:
        return None
    target = oracle.direct_apply(config.unitaries, config.alpha, config.beta)
    return oracle.target_fidelity(result.state, target)

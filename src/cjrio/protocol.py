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
they are derived once per (m, n) shape, symbolically, as affine GF(2) forms
over the broadcast bits, held as ints and added with ``^`` as each readout
joins the node list, and they can be cross-checked on every branch against
exhaustive Pauli search.  ``build_protocol`` binds one config into its shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial
from types import MappingProxyType
from typing import Callable, Iterator, NamedTuple, Sequence

from . import oracle
from .hilbert import (A, HybridState, Outcome, PhotonId, X, bob, build_initial_state, charlie,
                      check_amplitudes, check_shape, enumerate_measurement, registry)
from .kerr import enumerate_homodyne, fresh_probe, kerr
from .optics import (ALL_PAULI_POWERS, PauliPower, SU2Operator, apply_bbs,
                     apply_hwp, apply_pauli_polar, apply_pauli_spatial, apply_pbs,
                     apply_qwp, apply_su2_spatial)
from .pcg import PCG64

BLOCKED = "blocked"
FIDELITY_THRESHOLD = 1.0 - 1e-10

VARIANTS = ("cjrio", "jrio", "crio", "rio")


class FrameInconsistencyError(RuntimeError):
    """A frame-derived correction is not among those exhaustive search finds."""

    def __init__(self, node: str, bits: dict[str, int], derived: PauliPower, found: tuple):
        super().__init__(
            f"frame correction {derived} at {node} disagrees with searched "
            f"{' or '.join(map(str, found))} on branch {bits}"
        )
        self.node = node
        self.bits = bits
        self.derived = derived
        self.found = found


class _FrameMismatch(Exception):
    """A node run's correction check failed on the bits it reads, ``word``
    (the first ``heard`` broadcast bits, masked); the walk, which holds the
    branch's whole word, raises it as a :class:`FrameInconsistencyError`."""

    def __init__(self, word: int, heard: int, derived: PauliPower, found: tuple):
        super().__init__(word, heard, derived, found)
        self.word, self.heard, self.derived, self.found = word, heard, derived, found


def _named(labels: Sequence[str], word: int, width: int) -> dict[str, int]:
    """The first ``width`` bits of ``word`` in a fresh dict, bit j as ``labels[j]``."""
    return {labels[j]: word >> j & 1 for j in range(width)}


# ---------------------------------------------------------------------------
# XOR-linear forms and the Pauli frame
# ---------------------------------------------------------------------------
#
# A branch's outcome bits are one int, its word: the j-th broadcast bit at
# bit j.  An affine GF(2) form over them is an int too: bit 0 its constant,
# bit j + 1 the coefficient of the j-th broadcast bit.  Forms add with ``^``.
#
# The Pauli frame is two such forms, kept as ``_skeleton`` adds each
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
        check_shape(self.m, self.n)
        object.__setattr__(self, "unitaries", _listed("unitaries", self.unitaries))
        if len(self.unitaries) != self.m:
            raise ValueError(f"expected {self.m} operators, got {len(self.unitaries)}")
        for j, op in enumerate(self.unitaries):
            if not isinstance(op, SU2Operator):
                raise ValueError(f"unitaries[{j}] must be an SU2Operator, got {op!r}")
        check_amplitudes(self.alpha, self.beta)
        for name in ("consent", "consent_phase2"):
            val = getattr(self, name)
            val = (True,) * self.n if val is None else _listed(name, val)
            if len(val) != self.n:
                raise ValueError(f"{name} must list one flag per controller")
            if not all(isinstance(flag, bool) for flag in val):
                raise ValueError(f"{name} flags must be bools, got {val!r}")
            object.__setattr__(self, name, val)


def _listed(name: str, val) -> tuple:
    """``val`` as a tuple; it must be iterable."""
    try:
        return tuple(val)
    except TypeError:
        raise ValueError(f"{name} must be a sequence, got {val!r}") from None


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
    """One step of the scheme.  ``run`` maps the protocol, a state and a word
    to every outcome of the node (its state built on demand, its bits a word)
    and its largest intermediate term count; an empty outcome list means the
    node's controller withheld consent.  The walk hands ``run`` only the
    word's bits in ``reads``: k for a node whose Kerr tap sits on path k, and
    the bits a correcting node's fix reads.  ``check_id`` names the stage
    checkpoint the state is compared with after the node, where a checker
    exists (m=2, n=1 only).  ``table`` maps a canonical live state and the
    bits the node reads to its run there: its peak term count and its outcome
    rows; it is None until the node first runs."""

    name: str
    stage: int
    party: str
    bit_labels: tuple[str, ...]
    run: Callable[[Protocol, HybridState, int], tuple[list[Outcome], int]]
    check_id: str | None = None
    reads: int = 0
    table: dict | None = field(default=None, repr=False, compare=False)


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
    Its node runs read its config, its plan and, if validated, ``targets[s]``,
    the oracle pair after the operators from s on.

    ``interned`` maps the exact content of a live-only state to its one
    canonical copy, the key of every node's ``table``."""

    config: ProtocolConfig
    plan: dict[str, CorrectionSpec]
    nodes: list[Node]
    initial_state: HybridState
    labels: tuple[str, ...]
    targets: list[tuple[complex, complex]] | None = field(default=None, repr=False,
                                                          compare=False)
    interned: dict[tuple, HybridState] = field(default_factory=dict, repr=False,
                                               compare=False)

    def intern(self, state: HybridState) -> tuple[HybridState, int]:
        """The canonical copy of ``state``'s live part, and the retired bits
        it leaves out."""
        live, frozen = state.live_part()
        return self.interned.setdefault(live.exact_key(), live), frozen


@cache
def _skeleton(m: int, n: int) -> tuple:
    """What (m, n) alone fixes, derived once: the bit names in broadcast order,
    the nodes with each ``run`` a function of (``Protocol``, state, bits), and
    the plan.  Each measuring node names its bits (k is bit 0) and advances the
    Pauli frame; each correcting node takes its fix from the frame there."""
    reg = registry(m, n)
    # Register positions, resolved once: the nodes address photons by these.
    at_x, at_a = reg.index(X), reg.index(A)
    at_b = [reg.index(bob(i)) for i in range(1, m + 1)]
    at_c = [reg.index(charlie(j)) for j in range(1, n + 1)]
    sign = 0  # the path half of the Pauli frame, a form
    nodes: list[Node] = []
    labels: list[str] = []
    plan: dict[str, CorrectionSpec] = {}
    # Per plan entry: its party's register position, how many bits are out by
    # then, the index of the oracle pair validation compares it with and the
    # bits its node reads.
    sites: dict[str, tuple[int, int, int, int]] = {}

    def add(node: Node) -> list[int]:
        """Append ``node``, naming its bits at the next word positions;
        returns their forms."""
        nodes.append(node)
        labels.extend(node.bit_labels)
        return [2 << j for j in range(len(labels) - len(node.bit_labels), len(labels))]

    def fix(node: str, party: PhotonId, dof: str, x: int, z: int, target: int) -> None:
        """Give ``node``, the one just added, its correction."""
        plan[node] = CorrectionSpec(party, dof, x, z)
        nodes[-1].reads |= (x | z) >> 1  # the forms' bit j + 1 is word bit j
        sites[node] = (reg.index(party), len(labels), target, nodes[-1].reads)

    def correct(proto: Protocol, state: HybridState, bits: int, node: str) -> HybridState:
        spec = proto.plan[node]
        i, heard, target, reads = sites[node]
        if extra := (spec.x | spec.z) >> 1 & ~reads:  # the walk hands these in as 0
            raise ValueError(f"the plan entry of {node} reads bits its node's reads leave out: "
                             + ", ".join(lbl for j, lbl in enumerate(labels) if extra >> j & 1))
        power = spec.power(bits)
        if proto.targets is not None:
            found = oracle.brute_force_correction(state, i, spec.dof, proto.targets[target])
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

    def run_entangle(proto, state, bits):
        return kerr_read(state, (at_x, 0, +1), (at_a, 0, -1))

    (k,) = add(Node("entangle", 1, "A", ("k",), run_entangle, "entangle"))

    def run_transfer(proto, state, bits):
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
        def run_consent(proto, state, bits, _j=j, _c=at_c[j - 1]):
            if not proto.config.consent[_j - 1]:
                return [], len(state.terms)
            return kerr_read(apply_bbs(state, _c), (_c, bits & 1, +1))

        (s,) = add(Node(f"consent[{j}]", 3, f"C{j}", (s_lbl,), run_consent, "consent", 1))
        sign ^= k ^ s ^ 1  # tapped on path k

    landing: list[int] = []  # path each of B1..B(m-1) lands on
    for i, l_lbl in enumerate(_family("l", m - 1), start=1):
        def run_concentrate(proto, state, bits, _b=at_b[i - 1]):
            return kerr_read(apply_bbs(state, _b), (_b, bits & 1, +1))

        (l,) = add(Node(f"concentrate[{i}]", 4, f"B{i}", (l_lbl,), run_concentrate,
                        "concentrate", 1))
        landing.append(k ^ l ^ 1)
        sign ^= landing[-1]

    def run_first_op(proto, state, bits):
        st = correct(proto, state, bits, "first_op")
        st = apply_su2_spatial(st, at_b[m - 1], proto.config.unitaries[m - 1])
        return [Outcome(0, 1.0, lambda: st)], len(st.terms)

    add(Node("first_op", 4, f"B{m}", (), run_first_op, "first-op"))
    fix("first_op", bob(m), "spatial", k, sign, m)  # targets[m]: the input pair
    sign = 0

    r_lbls, g_lbls = _family("r", m - 1), _family("g", m - 1)
    for i in range(m - 1, 0, -1):
        def run_hop_link(proto, state, bits, _b=at_b[i - 1], _next=at_b[i]):
            d = state.definite_bit(_b, "spatial")
            return kerr_read(apply_bbs(state, _b), (_b, d, +1), (_next, 0, -1))

        (r,) = add(Node(f"hop_link[{i}]", 5, f"B{i + 1}", (r_lbls[i - 1],), run_hop_link,
                        "hop-link"))
        sign ^= landing[i - 1]  # B_i leaves its definite path, re-split

        # _g: bit g's position in the word, the next one, which add gives it below.
        def run_hop_close(proto, state, bits, _i=i, _g=len(labels), _b=at_b[i - 1], _next=at_b[i]):
            outcomes, peak = kerr_read(apply_bbs(state, _next), (_next, 1, +1))

            def close(build, c):  # the correction and the operator, on demand
                s3 = correct(proto, build(), bits | c << _g, f"hop_close[{_i}]")
                return apply_su2_spatial(s3, _b, proto.config.unitaries[_i - 1])
            return [Outcome(o.bits, o.p, partial(close, o.build, o.bits))
                    for o in outcomes], peak

        (g,) = add(Node(f"hop_close[{i}]", 5, f"B{i + 1}", (g_lbls[i - 1],), run_hop_close,
                        "hop-done"))
        sign ^= g  # tapped on path 1, so it lands on g
        fix(f"hop_close[{i}]", bob(i), "spatial", landing[i - 1] ^ r, sign, i)
        sign = 0

    def run_joint_b1(proto, state, bits):
        st = apply_hwp(state, at_b[0], 1)
        st = apply_bbs(st, at_b[0])
        return enumerate_measurement(st, at_b[0], ("polar", "spatial")), len(st.terms)

    p, q = add(Node("joint_measure[1]", 7, "B1", ("p", "q"), run_joint_b1))
    # Every polarization readout after p flips the relative sign with its bit.
    polar_sign = q

    for i, w_lbl in enumerate(_family("w", m - 1, start=2), start=2):
        def run_joint_w(proto, state, bits, _b=at_b[i - 1]):
            path = state.definite_bit(_b, "spatial")
            st = apply_qwp(state, _b, path)
            return enumerate_measurement(st, _b, ("polar",)), len(st.terms)

        (w,) = add(Node(f"joint_measure[{i}]", 7, f"B{i}", (w_lbl,), run_joint_w,
                        "joint-measure"))
        polar_sign ^= w

    for j, v_lbl in enumerate(_family("v", n), start=1):
        def run_control(proto, state, bits, _j=j, _c=at_c[j - 1]):
            if not proto.config.consent_phase2[_j - 1]:
                return [], len(state.terms)
            path = state.definite_bit(_c, "spatial")
            st = apply_qwp(state, _c, path)
            st = apply_pbs(st, _c, path)
            return enumerate_measurement(st, _c, ("polar",)), len(st.terms)

        (v,) = add(Node(f"control_measure[{j}]", 8, f"C{j}", (v_lbl,), run_control,
                        "control-measure"))
        polar_sign ^= v

    def run_polar_fix(proto, state, bits):
        st = correct(proto, state, bits, "polar_fix")
        return [Outcome(0, 1.0, lambda: st)], len(st.terms)

    add(Node("polar_fix", 8, "A", (), run_polar_fix, "polar-fixed"))
    fix("polar_fix", A, "polar", p, polar_sign, 0)

    def run_to_spatial(proto, state, bits):
        in_path = state.definite_bit(at_a, "spatial")
        st = apply_pbs(state, at_a, in_path)
        st = apply_hwp(st, at_a, in_path)
        peak = len(st.terms)
        st = correct(proto, st, bits, "to_spatial")
        return [Outcome(0, 1.0, lambda: st)], peak

    add(Node("to_spatial", 9, "A", (), run_to_spatial))
    fix("to_spatial", A, "spatial", a_path, 0, 0)

    return tuple(labels), tuple(nodes), MappingProxyType(plan)


def build_protocol(config: ProtocolConfig, *, validate_corrections: bool = False) -> Protocol:
    """The node list of ``config``, in broadcast order: its shape's skeleton,
    with fresh nodes, each with a table of its own, and its own plan."""
    m, n = config.m, config.n
    labels, nodes, plan = _skeleton(m, n)
    targets = None
    if validate_corrections:  # each suffix product is U_s applied to the next one's pair
        targets = [(config.alpha, config.beta)]
        for u in reversed(config.unitaries):
            targets.insert(0, ((t := oracle.direct_apply((u,), *targets[0])).a0, t.a1))
    return Protocol(config, dict(plan), [Node(nd.name, nd.stage, nd.party, nd.bit_labels, nd.run,
                                              nd.check_id, nd.reads) for nd in nodes],
                    build_initial_state(config.alpha, config.beta, m, n), labels, targets)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class BranchResult:
    """One protocol branch where a walk left it: its outcome bits,
    probability, state (final, at a halt or between stages) and any
    stage-check mismatch records.  A walk resumes from one at node index
    ``_passed``, the node that blocked it if it is blocked.

    ``live`` is ``state`` with some of its retired bits cleared, the same
    object for the branches that end in one canonical live state: a key for
    work that reads live photons only.  Neither the state nor the transcript
    is made until first asked for, then kept.  The state is built by setting
    the retired bits ``_frozen`` in every ket of ``live``.

    The transcript is the classical ledger, the ``transcript`` section of a
    ``simulate`` report as it is written: ``outcomes``, each node's step,
    party and named bits in broadcast order, ``corrections``, each fix's
    party, DOF and Pauli exponents, ``classical_bits`` and ``seed``.  Each bit
    is broadcast once and each correction is a function of the bits, so it is
    read off ``_word`` and the first ``_passed`` nodes of ``_protocol``."""

    bits: dict[str, int]
    probability: float
    blocked_at: str | None
    errata: list
    max_terms: int
    seed: int | None
    _protocol: Protocol = field(repr=False, compare=False)
    _passed: int = field(repr=False, compare=False)
    _word: int = field(repr=False, compare=False)
    live: HybridState = field(repr=False, compare=False)
    _frozen: int = field(repr=False, compare=False)
    # Plain properties fill these: on Python 3.10 and 3.11 a cached_property
    # takes a lock on every read.
    _state: HybridState | None = field(default=None, repr=False, compare=False)
    _transcript: dict | None = field(default=None, repr=False, compare=False)

    @property
    def blocked(self) -> bool:
        return self.blocked_at is not None

    def _at(self, leaf: tuple) -> BranchResult:
        """The branch at a leaf a walk from this one yields, with its protocol and seed."""
        idx, live, frozen, word, width, probability, errata, max_terms, blocked_at = leaf
        return BranchResult(_named(self._protocol.labels, word, width), probability, blocked_at,
                            list(errata), max_terms, self.seed, self._protocol, idx, word, live,
                            frozen)

    @property
    def state(self) -> HybridState:
        if self._state is None:
            self._state = self.live.with_frozen(self._frozen)
        return self._state

    @property
    def transcript(self) -> dict:
        if self._transcript is None:
            bits = self.bits
            passed = self._protocol.nodes[:self._passed]
            plan = self._protocol.plan
            self._transcript = {
                "outcomes": [{"step": node.name, "party": node.party,
                              "bits": {lbl: bits[lbl] for lbl in node.bit_labels}}
                             for node in passed if node.bit_labels],
                "corrections": [{"party": str(spec.party), "dof": spec.dof,
                                 "x_pow": (power := spec.power(self._word)).x_pow,
                                 "z_pow": power.z_pow}
                                for spec in (plan.get(node.name) for node in passed) if spec],
                "classical_bits": len(bits),
                "seed": self.seed,
            }
        return self._transcript


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def _start(config: ProtocolConfig, check_stages: bool, validate_corrections: bool,
           proto: Protocol | None, seed: int | None = None):
    """The walk on the protocol (``proto`` if given, else one built from
    ``config``), running the stage checks if asked, and the root branch,
    where no node has run, with ``seed``."""
    if proto is None:
        proto = build_protocol(config, validate_corrections=validate_corrections)
    elif proto.config != config or validate_corrections:
        raise ValueError("a given protocol must come from this config, validated or not")
    checker = None
    if check_stages:
        from .stages import make_stage_checker

        checker = partial(make_stage_checker(config), proto.labels)
    state = proto.initial_state
    root = BranchResult({}, 1.0, None, [], len(state.terms), seed, proto, 0, 0, state, 0)
    return partial(_walk, proto, checker), root


def _walk(proto: Protocol, checker, branch: BranchResult, choose,
          stop: int | None = None) -> Iterator[tuple]:
    """Depth-first from ``branch``: run each node and enter the outcomes
    ``choose`` keeps of its outcome list, first to last.  Yields each branch
    that is blocked or has reached node index ``stop`` (the end by default)
    as a leaf, the plain tuple a pending branch is kept as: (node index, live
    state, retired bits, word, bit count, probability, errata, term peak, halt).

    A node's outcomes depend only on the live part of its input state and on
    the word's bits it reads (primitives touch live photons only, and a
    retired photon's bits are the same in every ket), so each node runs once
    per (canonical live part, bits read) and its ``table`` keeps the outcome
    rows for every later branch that arrives with the same key.  The
    correction check of ``validate_corrections`` runs inside the node, so it
    too runs once per key; its verdict is a function of that key alone.  A
    node's first run is stored nowhere and builds only the outcomes
    ``choose`` keeps, so a sampled run, which enters each node once, pays for
    no table.  A node's first child goes on at once: a one-outcome node pushes none."""
    nodes, intern = proto.nodes, proto.intern
    end = len(nodes) if stop is None else stop
    stack = [(branch._passed, branch.live, branch._frozen, branch._word, len(branch.bits),
              branch.probability, tuple(branch.errata), branch.max_terms, branch.blocked_at)]
    while stack:
        idx, state, frozen, word, width, probability, errata, max_terms, blocked_at = stack.pop()
        while idx != end and blocked_at is None:
            node = nodes[idx]
            bits = word & node.reads
            table = node.table
            kept = frozen  # the children's retired bits, before their own
            try:
                if table is None:
                    node.table = {}
                    outcomes, peak = node.run(proto, state, bits)
                    rows = [(out.bits, out.p, out.build(), 0) for out in choose(outcomes)]
                else:
                    entry = table.get((state, bits))
                    if entry is None:
                        live, retired = intern(state)
                        kept |= retired
                        entry = table.get((live, bits))
                        if entry is None:
                            outcomes, peak = node.run(proto, live, bits)
                            entry = table[live, bits] = peak, [
                                _Row(out.bits, out.p, *intern(out.build())) for out in outcomes]
                    peak, outcomes = entry
                    rows = choose(outcomes)
            except _FrameMismatch as err:
                raise FrameInconsistencyError(node.name,
                                              _named(proto.labels, word | err.word, err.heard),
                                              err.derived, err.found) from None
            if max_terms < peak:
                max_terms = peak
            if not outcomes:  # the node's controller withheld consent
                blocked_at = node.name
                break
            after = width + len(node.bit_labels)
            first, rest = None, len(stack)  # later children go under the ones before them
            for out_bits, p, st, fz in rows:
                w = word | out_bits << width
                fz |= kept
                errs = errata
                if checker is not None and node.check_id is not None:
                    mismatch = checker(node.check_id, w, after, st, fz)
                    if mismatch is not None:
                        errs = errata + (mismatch,)
                terms = len(st.terms)
                child = (idx + 1, st, fz, w, after, probability * p, errs,
                         terms if terms > max_terms else max_terms, None)
                if first is None:
                    first = child
                else:
                    stack.insert(rest, child)
            idx, state, frozen, word, width, probability, errata, max_terms, _ = first
        yield idx, state, frozen, word, width, probability, errata, max_terms, blocked_at


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
    walk, root = _start(config, check_stages, validate_corrections, protocol)
    yield from map(root._at, walk(root, lambda outcomes: outcomes))


class ProtocolRun:
    """One sampled execution with stepwise control, for interactive use and
    stage-by-stage tests.  ``run_full`` drives it end to end.  It draws from
    ``rng``, any object with ``random()``, if given, else from ``PCG64(seed)``,
    never both.  ``protocol`` is ``config``'s node list, if built; many runs
    may share one build.  ``branch`` is the :class:`BranchResult` where the
    run stands: its state, bits and block."""

    def __init__(self, config: ProtocolConfig, seed: int | None = None, rng=None, *,
                 check_stages: bool = False, validate_corrections: bool = False,
                 protocol: Protocol | None = None):
        if seed is not None and rng is not None:
            raise ValueError("a run takes a seed or an rng, not both")
        self._rng = rng if rng is not None else PCG64(seed)
        self._walk, self.branch = _start(config, check_stages, validate_corrections, protocol,
                                         seed)
        self._stage = 0  # the last stage stepped

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
        branch = self.branch
        nodes, start = branch._protocol.nodes, branch._passed
        lo = self._stage + 1
        hi = 9 if branch.blocked_at or start == len(nodes) else nodes[start].stage
        if isinstance(stage, bool) or not isinstance(stage, int) or not lo <= stage <= hi:
            expected = (f"stage {lo}" if lo == hi else f"a stage from {lo} to {hi}"
                        if lo < hi else "none: the run is over")
            raise ValueError(f"cannot step stage {stage!r} now: expected {expected}")
        self._stage = stage
        # Nodes come in stage order, so the stage's nodes are those up to the
        # first of a later stage.
        stop = next((j for j in range(start, len(nodes)) if nodes[j].stage > stage), len(nodes))
        (leaf,) = self._walk(branch, self._draw, stop)
        self.branch = branch._at(leaf)
        if self.branch.blocked:
            return BLOCKED
        bits = self.branch.bits
        return tuple(bits[lbl] for node in nodes[start:stop] for lbl in node.bit_labels)

    def finish(self) -> BranchResult:
        self._stage = 9
        (leaf,) = self._walk(self.branch, self._draw)
        self.branch = self.branch._at(leaf)
        return self.branch


def run_full(config: ProtocolConfig, seed: int | None = None, *,
             check_stages: bool = False) -> BranchResult:
    """Sample one branch end to end and return it with its transcript.  A
    shared ``rng`` or ``validate_corrections`` goes through :class:`ProtocolRun`."""
    return ProtocolRun(config, seed=seed, check_stages=check_stages).finish()


def branch_fidelity(config: ProtocolConfig, result: BranchResult) -> float | None:
    """Overlap magnitude of a finished branch against the oracle target."""
    if result.blocked:
        return None
    target = oracle.direct_apply(config.unitaries, config.alpha, config.beta)
    return oracle.target_fidelity(result.state, target)

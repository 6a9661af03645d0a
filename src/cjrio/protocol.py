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
they are derived once, symbolically, as XOR-linear functions of the broadcast
bits (see :class:`PauliFrame`) and can be cross-checked on every branch
against exhaustive Pauli search.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterator, Mapping, NamedTuple

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
    """A frame-derived correction disagreed with exhaustive search."""

    def __init__(self, node: str, bits: Mapping[str, int], derived: PauliPower, found: PauliPower):
        super().__init__(
            f"frame correction {derived} at {node} disagrees with searched "
            f"{found} on branch {dict(bits)}"
        )
        self.node = node
        self.bits = dict(bits)
        self.derived = derived
        self.found = found


# ---------------------------------------------------------------------------
# XOR-linear expressions and the Pauli frame
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class XorExpr:
    """Affine GF(2) form over named outcome bits: const XOR (sym1 ^ sym2 ...)."""

    const: int = 0
    syms: frozenset = frozenset()

    @staticmethod
    def bit(name: str) -> "XorExpr":
        return XorExpr(0, frozenset((name,)))

    @staticmethod
    def of(value: int) -> "XorExpr":
        return XorExpr(value & 1)

    def __xor__(self, other) -> "XorExpr":
        if isinstance(other, int):
            return XorExpr(self.const ^ (other & 1), self.syms)
        if isinstance(other, str):
            other = XorExpr.bit(other)
        return XorExpr(self.const ^ other.const, self.syms ^ other.syms)

    def evaluate(self, bits: Mapping[str, int]) -> int:
        v = self.const
        for s in self.syms:
            v ^= bits[s]
        return v

    def __str__(self) -> str:
        parts = sorted(self.syms)
        if self.const:
            parts.append("1")
        return "^".join(parts) if parts else "0"


@dataclass(frozen=True)
class CorrectionSpec:
    """One deferred Pauli fix: which party, which DOF, and the exponents as
    XOR-linear functions of the broadcast outcome bits."""

    party: PhotonId
    dof: str
    x: XorExpr
    z: XorExpr

    def power(self, bits: Mapping[str, int]) -> PauliPower:
        """One of the four shared ``ALL_PAULI_POWERS``."""
        return ALL_PAULI_POWERS[self.x.evaluate(bits) | self.z.evaluate(bits) << 1]


class PauliFrame:
    """Tracks, symbolically, the relative sign between the two amplitude
    branches and where each photon's path lands.

    Two parity rules generate every correction.  A photon whose branch paths
    are complementary that is re-mixed, tapped on path T and read out with
    bit o lands on path T^o^1 and flips the relative branch sign exactly when
    that landing path is 1.  A photon sitting on a single definite path d that
    is re-mixed into superposition flips the sign exactly when d is 1.  Both
    rules are validated per branch against exhaustive Pauli search in the
    test suite.
    """

    def __init__(self) -> None:
        self.sign = XorExpr()

    def collapse_complementary(self, tap: XorExpr, outcome: XorExpr) -> XorExpr:
        landing = tap ^ outcome ^ 1
        self.sign = self.sign ^ landing
        return landing

    def resplit_single(self, path: XorExpr) -> None:
        self.sign = self.sign ^ path

    def take_sign(self) -> XorExpr:
        out = self.sign
        self.sign = XorExpr()
        return out


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
        if self.m < 1:
            raise ValueError("at least one joint party is required")
        if self.n < 0:
            raise ValueError("controller count must be >= 0")
        if len(self.unitaries) != self.m:
            raise ValueError(f"expected {self.m} operators, got {len(self.unitaries)}")
        if not (cmath.isfinite(self.alpha) and cmath.isfinite(self.beta)):
            raise ValueError("input amplitudes must be finite")
        if abs(abs(self.alpha) ** 2 + abs(self.beta) ** 2 - 1.0) > 1e-9:
            raise ValueError("input amplitudes are not normalized")
        for name in ("consent", "consent_phase2"):
            val = getattr(self, name)
            if val is None:
                object.__setattr__(self, name, (True,) * self.n)
            elif len(val) != self.n:
                raise ValueError(f"{name} must list one flag per controller")


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
    """One step of the scheme.  ``run`` returns every outcome of the node (its
    state built on demand) and its largest intermediate term count; an empty
    outcome list means the node's controller withheld consent.  ``check_id``
    names the stage checkpoint the state is compared with after the node,
    where a checker exists (m=2, n=1 only)."""

    name: str
    stage: int
    party: str
    bit_labels: tuple[str, ...]
    run: Callable[[HybridState, Mapping[str, int]], tuple[list[Outcome], int]]
    check_id: str | None = None


@dataclass
class Protocol:
    """The node list of one run and, keyed by node name in node order, the
    Pauli fix each correcting node applies."""

    config: ProtocolConfig
    plan: dict[str, CorrectionSpec]
    nodes: list[Node]
    initial_state: HybridState

    @property
    def labels(self) -> tuple[str, ...]:
        """Every outcome-bit name, in broadcast order."""
        return tuple(lbl for node in self.nodes for lbl in node.bit_labels)


def build_protocol(
    config: ProtocolConfig,
    *,
    validate_corrections: bool = False,
) -> Protocol:
    """The node list of ``config``, in broadcast order.  Each measuring node
    names its bits and advances the Pauli frame; each correcting node takes
    its fix from the frame as it stands there."""
    m, n = config.m, config.n
    initial = build_initial_state(config.alpha, config.beta, m, n)
    # Register positions, resolved once: the nodes address photons by these.
    at_x, at_a = initial.index_of(X), initial.index_of(A)
    at_b = [initial.index_of(bob(i)) for i in range(1, m + 1)]
    at_c = [initial.index_of(charlie(j)) for j in range(1, n + 1)]
    k = XorExpr.bit("k")
    frame = PauliFrame()
    plan: dict[str, CorrectionSpec] = {}
    fixed_at: dict[str, int] = {}  # register position of each plan entry's party
    # Oracle pairs the validator compares each correction against, None when
    # corrections are not validated.
    wants: dict[str, tuple[complex, complex] | None] = {}

    def target(ops) -> tuple[complex, complex] | None:
        """The input pair after ``ops``, if corrections are validated."""
        if not validate_corrections:
            return None
        t = oracle.direct_apply(ops, config.alpha, config.beta)
        return t.a0, t.a1

    def correct(state: HybridState, bits: Mapping[str, int], node: str) -> HybridState:
        spec = plan[node]
        i = fixed_at[node]
        power = spec.power(bits)
        if validate_corrections:
            found = oracle.brute_force_correction(state, i, spec.dof, wants[node])
            if found != power:
                raise FrameInconsistencyError(node, bits, power, found)
        applier = apply_pauli_spatial if spec.dof == "spatial" else apply_pauli_polar
        return applier(state, i, power)

    def readout(probe, state) -> list[Outcome]:
        """The homodyne outcomes of a one-bit node, the class as its bit."""
        return [Outcome((o.bits,), o.p, o.build) for o in enumerate_homodyne(probe, state)]

    nodes: list[Node] = []

    def run_entangle(state, bits):
        probe = fresh_probe(state)
        probe = kerr(probe, state, at_x, 0, +1)
        probe = kerr(probe, state, at_a, 0, -1)
        return readout(probe, state), len(state.terms)

    nodes.append(Node("entangle", 1, "A", ("k",), run_entangle, "entangle"))

    def run_transfer(state, bits):
        st = apply_bbs(state, at_x)
        st = apply_bbs(st, at_a)
        peak = len(st.terms)
        probe = fresh_probe(st)
        probe = kerr(probe, st, at_x, 0, +1)
        probe = kerr(probe, st, at_a, bits["k"], +2)
        return [Outcome(((o.bits >> 1) & 1, o.bits & 1), o.p,
                        lambda build=o.build: build().mark_dead(at_x))
                for o in enumerate_homodyne(probe, st)], peak

    nodes.append(Node("transfer", 2, "A", ("m", "n"), run_transfer, "transfer"))
    # X was tapped on path 0 (bit n fires it), A on path k (bit m fires it);
    # both collapse together.
    frame.collapse_complementary(XorExpr.of(0), XorExpr.bit("n"))
    a_path = frame.collapse_complementary(k, XorExpr.bit("m"))

    for j, s_lbl in enumerate(_family("s", n), start=1):
        def run_consent(state, bits, _j=j, _c=at_c[j - 1]):
            if not config.consent[_j - 1]:
                return [], len(state.terms)
            st = apply_bbs(state, _c)
            peak = len(st.terms)
            probe = kerr(fresh_probe(st), st, _c, bits["k"], +1)
            return readout(probe, st), peak

        nodes.append(Node(f"consent[{j}]", 3, f"C{j}", (s_lbl,), run_consent, "consent"))
        frame.collapse_complementary(k, XorExpr.bit(s_lbl))

    landing: list[XorExpr] = []  # path each of B1..B(m-1) lands on
    for i, l_lbl in enumerate(_family("l", m - 1), start=1):
        def run_concentrate(state, bits, _b=at_b[i - 1]):
            st = apply_bbs(state, _b)
            peak = len(st.terms)
            probe = kerr(fresh_probe(st), st, _b, bits["k"], +1)
            return readout(probe, st), peak

        nodes.append(Node(f"concentrate[{i}]", 4, f"B{i}", (l_lbl,), run_concentrate,
                          "concentrate"))
        landing.append(frame.collapse_complementary(k, XorExpr.bit(l_lbl)))

    def run_first_op(state, bits):
        st = correct(state, bits, "first_op")
        st = apply_su2_spatial(st, at_b[m - 1], config.unitaries[m - 1])
        return [Outcome((), 1.0, lambda: st)], len(st.terms)

    nodes.append(Node("first_op", 4, f"B{m}", (), run_first_op, "first-op"))
    plan["first_op"] = CorrectionSpec(bob(m), "spatial", x=k, z=frame.take_sign())
    wants["first_op"] = (config.alpha, config.beta)

    r_lbls, g_lbls = _family("r", m - 1), _family("g", m - 1)
    for i in range(m - 1, 0, -1):
        def run_hop_link(state, bits, _b=at_b[i - 1], _next=at_b[i]):
            d = state.definite_bit(_b, "spatial")
            st = apply_bbs(state, _b)
            peak = len(st.terms)
            probe = kerr(fresh_probe(st), st, _b, d, +1)
            probe = kerr(probe, st, _next, 0, -1)
            return readout(probe, st), peak

        nodes.append(Node(f"hop_link[{i}]", 5, f"B{i + 1}", (r_lbls[i - 1],), run_hop_link,
                          "hop-link"))
        frame.resplit_single(landing[i - 1])

        def run_hop_close(state, bits, _i=i, _g=g_lbls[i - 1], _b=at_b[i - 1], _next=at_b[i]):
            st = apply_bbs(state, _next)
            peak = len(st.terms)
            probe = kerr(fresh_probe(st), st, _next, 1, +1)

            def close(build, c):  # the correction and the operator, on demand
                s3 = correct(build(), {**bits, _g: c}, f"hop_close[{_i}]")
                return apply_su2_spatial(s3, _b, config.unitaries[_i - 1])
            return [Outcome((o.bits,), o.p, partial(close, o.build, o.bits))
                    for o in enumerate_homodyne(probe, st)], peak

        nodes.append(Node(f"hop_close[{i}]", 5, f"B{i + 1}", (g_lbls[i - 1],), run_hop_close,
                          "hop-done"))
        frame.collapse_complementary(XorExpr.of(1), XorExpr.bit(g_lbls[i - 1]))
        plan[f"hop_close[{i}]"] = CorrectionSpec(
            bob(i), "spatial", x=landing[i - 1] ^ r_lbls[i - 1], z=frame.take_sign())
        wants[f"hop_close[{i}]"] = target(config.unitaries[i:])

    def run_joint_b1(state, bits):
        st = apply_hwp(state, at_b[0], 1)
        st = apply_bbs(st, at_b[0])
        return enumerate_measurement(st, at_b[0], ("polar", "spatial")), len(st.terms)

    nodes.append(Node("joint_measure[1]", 7, "B1", ("p", "q"), run_joint_b1))
    # Every polarization readout after p flips the relative sign with its bit.
    polar_sign = XorExpr.bit("q")

    for i, w_lbl in enumerate(_family("w", m - 1, start=2), start=2):
        def run_joint_w(state, bits, _b=at_b[i - 1]):
            path = state.definite_bit(_b, "spatial")
            st = apply_qwp(state, _b, path)
            return enumerate_measurement(st, _b, ("polar",)), len(st.terms)

        nodes.append(Node(f"joint_measure[{i}]", 7, f"B{i}", (w_lbl,), run_joint_w,
                          "joint-measure"))
        polar_sign = polar_sign ^ w_lbl

    for j, v_lbl in enumerate(_family("v", n), start=1):
        def run_control(state, bits, _j=j, _c=at_c[j - 1]):
            if not config.consent_phase2[_j - 1]:
                return [], len(state.terms)
            path = state.definite_bit(_c, "spatial")
            st = apply_qwp(state, _c, path)
            st = apply_pbs(st, _c, path)
            return enumerate_measurement(st, _c, ("polar",)), len(st.terms)

        nodes.append(Node(f"control_measure[{j}]", 8, f"C{j}", (v_lbl,), run_control,
                          "control-measure"))
        polar_sign = polar_sign ^ v_lbl

    def run_polar_fix(state, bits):
        st = correct(state, bits, "polar_fix")
        return [Outcome((), 1.0, lambda: st)], len(st.terms)

    nodes.append(Node("polar_fix", 8, "A", (), run_polar_fix, "polar-fixed"))
    plan["polar_fix"] = CorrectionSpec(A, "polar", x=XorExpr.bit("p"), z=polar_sign)
    wants["polar_fix"] = target(config.unitaries)

    def run_to_spatial(state, bits):
        in_path = state.definite_bit(at_a, "spatial")
        st = apply_pbs(state, at_a, in_path)
        st = apply_hwp(st, at_a, in_path)
        peak = len(st.terms)
        st = correct(st, bits, "to_spatial")
        return [Outcome((), 1.0, lambda: st)], peak

    nodes.append(Node("to_spatial", 9, "A", (), run_to_spatial))
    plan["to_spatial"] = CorrectionSpec(A, "spatial", x=a_path, z=XorExpr())
    wants["to_spatial"] = wants["polar_fix"]
    fixed_at.update((name, initial.index_of(spec.party)) for name, spec in plan.items())

    return Protocol(config, plan, nodes, initial)


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

    Its transcript is not stored: every bit is broadcast once and every
    correction is a function of the bits, so it is read off the first
    ``_passed`` nodes of ``_protocol`` when first asked for."""

    bits: dict[str, int]
    probability: float
    state: HybridState
    blocked_at: str | None
    errata: list
    max_terms: int
    seed: int | None
    _protocol: Protocol = field(repr=False, compare=False)
    _passed: int = field(repr=False, compare=False)

    @property
    def blocked(self) -> bool:
        return self.blocked_at is not None

    @cached_property
    def transcript(self) -> Transcript:
        bits = self.bits
        passed = self._protocol.nodes[:self._passed]
        plan = self._protocol.plan
        return Transcript(
            outcomes=[OutcomeRecord(node.name, node.party,
                                    {lbl: bits[lbl] for lbl in node.bit_labels})
                      for node in passed if node.bit_labels],
            corrections=[CorrectionRecord(str(spec.party), spec.dof, spec.power(bits))
                         for spec in (plan.get(node.name) for node in passed) if spec],
            classical_bits=len(bits),
            seed=self.seed,
        )


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


class _Branch(NamedTuple):
    """Where one branch stands: the index of its next node (or of the node
    that blocked it), its state, its bits and what it has gathered so far.
    Both drivers move it with :meth:`advance`, one node outcome at a time."""

    idx: int
    state: HybridState
    bits: dict[str, int]
    probability: float
    errata: tuple
    max_terms: int
    blocked_at: str | None

    def advance(self, node: Node, outcome: Outcome, peak: int, checker) -> "_Branch":
        """The branch after ``node`` produced ``outcome``, whose state is
        built here; ``peak`` is the node's largest intermediate term count."""
        idx, _, bits, probability, errata, max_terms, _ = self
        out_bits, prob, state = outcome.bits, outcome.p, outcome.build()
        if node.bit_labels:
            bits = {**bits, **dict(zip(node.bit_labels, out_bits))}
        if checker is not None and node.check_id is not None:
            mismatch = checker(node.check_id, bits, state)
            if mismatch is not None:
                errata = errata + (mismatch,)
        max_terms = max(max_terms, peak, len(state.terms))
        return _Branch(idx + 1, state, bits, probability * prob, errata, max_terms, None)

    def halt(self, node: Node, peak: int) -> "_Branch":
        """The branch stopped at ``node``, whose controller withheld consent."""
        return self._replace(max_terms=max(self.max_terms, peak), blocked_at=node.name)

    def result(self, proto: Protocol, seed: int | None = None) -> BranchResult:
        """The finished, or blocked, branch."""
        idx, state, bits, probability, errata, max_terms, blocked_at = self
        return BranchResult(dict(bits), probability, state, blocked_at, list(errata),
                            max_terms, seed, proto, idx)


def _start(config: ProtocolConfig, check_stages: bool, validate_corrections: bool,
           proto: Protocol | None):
    """The protocol (``proto`` if given, else one built from ``config``),
    its stage checker (or None) and the root branch."""
    if proto is None:
        proto = build_protocol(config, validate_corrections=validate_corrections)
    elif proto.config != config or validate_corrections:
        raise ValueError("a given protocol must come from this config, validated or not")
    checker = None
    if check_stages:
        from .stages import make_stage_checker

        checker = make_stage_checker(config)
    state = proto.initial_state
    root = _Branch(0, state, {}, 1.0, (), len(state.terms), None)
    return proto, checker, root


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
    proto, checker, root = _start(config, check_stages, validate_corrections, protocol)
    nodes = proto.nodes
    stack = [root]
    end = len(nodes)
    while stack:
        branch = stack.pop()
        idx, state, bits, _, _, _, blocked_at = branch
        if blocked_at is not None or idx == end:
            yield branch.result(proto)
            continue
        node = nodes[idx]
        outcomes, peak = node.run(state, bits)
        if not outcomes:
            stack.append(branch.halt(node, peak))
        # Built in outcome order; pushed reversed, so the first is walked first.
        stack.extend(reversed([branch.advance(node, out, peak, checker) for out in outcomes]))


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
        self._proto, self._checker, self._branch = _start(
            config, check_stages, validate_corrections, protocol)
        self._seed = seed
        self._rng = rng if rng is not None else np.random.default_rng(seed)

    @property
    def state(self) -> HybridState:
        return self._branch.state

    @property
    def bits(self) -> dict[str, int]:
        return self._branch.bits

    @property
    def blocked(self) -> bool:
        return self._branch.blocked_at is not None

    @property
    def blocked_at(self) -> str | None:
        return self._branch.blocked_at

    def _advance_stage(self, stage: int | None) -> None:
        """Run the nodes of ``stage``, or every remaining node for None, until
        the branch is blocked.  Each node with a choice draws one uniform
        number and takes the first outcome whose running probability sum
        exceeds it, or the last outcome if rounding leaves the sum short; only
        the outcome taken has its state built."""
        nodes = self._proto.nodes
        rng, checker = self._rng, self._checker
        branch = self._branch
        while branch.blocked_at is None and branch.idx < len(nodes):
            node = nodes[branch.idx]
            if stage is not None and node.stage != stage:
                break
            outcomes, peak = node.run(branch.state, branch.bits)
            if not outcomes:
                branch = branch.halt(node, peak)
                continue
            pick = outcomes[-1]
            if len(outcomes) > 1:
                r = rng.random()
                acc = 0.0
                for out in outcomes:
                    acc += out.p
                    if r < acc:
                        pick = out
                        break
            branch = branch.advance(node, pick, peak, checker)
        self._branch = branch

    def step(self, stage: int):
        """Run the nodes of ``stage`` and return the bits they broadcast, in
        order, or BLOCKED once a controller has withheld consent.  Stages
        are numbered as in the node list: 1 to 9, the shift chain being 5."""
        self._advance_stage(stage)
        if self.blocked:
            return BLOCKED
        bits = self.bits
        return tuple(bits[lbl] for node in self._proto.nodes if node.stage == stage
                     for lbl in node.bit_labels)

    def finish(self) -> BranchResult:
        self._advance_stage(None)
        return self._branch.result(self._proto, seed=self._seed)


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

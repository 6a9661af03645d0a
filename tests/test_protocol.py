import dataclasses
import gc
import math
import re
import weakref
from functools import partial

import numpy as np
import pytest

from cjrio.hilbert import A, VERTICAL, X, bob, charlie
from cjrio.optics import PauliPower, SU2Operator
from cjrio.oracle import direct_apply, target_fidelity
from cjrio.protocol import (BLOCKED, FIDELITY_THRESHOLD, FrameInconsistencyError,
                            ProtocolConfig, ProtocolRun, branch_bit_count,
                            branch_fidelity, build_protocol, check_variant,
                            iter_branches, run_full)

from conftest import bit, dense_norm, dense_reduced_purity, matrix, random_pair, random_su2

I2 = SU2Operator(1, 0)


def cfg(m=2, n=1, us=None, alpha=0.6, beta=0.8, **kw):
    us = us if us is not None else (I2,) * m
    return ProtocolConfig(m, n, tuple(us), alpha, beta, **kw)


# -- configuration ----------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        cfg(m=0)
    with pytest.raises(ValueError):
        ProtocolConfig(2, 1, (I2,), 0.6, 0.8)
    with pytest.raises(ValueError):
        cfg(alpha=1.0, beta=1.0)
    # a finite entry whose square leaves the float range, not an OverflowError
    for alpha, beta in ((1e200, 0.0), (0.6, 1e200j), (complex(1e308, 1e308), 0.0)):
        with pytest.raises(ValueError, match="^input amplitudes are not normalized$"):
            cfg(alpha=alpha, beta=beta)
    for alpha, beta in ((math.nan, 0.0), (1.0, complex(math.nan, 0)), (math.inf, 0.0)):
        with pytest.raises(ValueError, match="finite"):
            cfg(alpha=alpha, beta=beta)
    with pytest.raises(ValueError):
        cfg(consent=(True, True))
    # m and n are ints: not floats, and not bools, which a report would echo
    for m, n, field in ((2.0, 1, "m"), (2, 1.0, "n"), (True, 0, "m")):
        with pytest.raises(ValueError, match=f"^{field} must be an int"):
            ProtocolConfig(m, n, (I2,) * int(m), 0.6, 0.8)
    # a malformed field is named, not misread: "0" is truthy, so "00" would
    # run as full consent; a None operator would fail deep inside the walk
    for kw, message in (
        (dict(n=2, consent="00"), r"consent flags must be bools"),
        (dict(consent_phase2=(1,)), r"consent_phase2 flags must be bools"),
        (dict(us=(None, None)), r"unitaries\[0\] must be an SU2Operator"),
        (dict(us=(I2, "pauli-x")), r"unitaries\[1\] must be an SU2Operator"),
        (dict(alpha="x"), r"alpha must be a number"),
        (dict(beta=None), r"beta must be a number"),
        (dict(consent=True), r"consent must be a sequence"),  # a bare flag
    ):
        with pytest.raises(ValueError, match=f"^{message}"):
            cfg(**kw)
    for us in (None, I2):  # no operator list, or a bare operator
        with pytest.raises(ValueError, match=r"^unitaries must be a sequence"):
            ProtocolConfig(1, 1, us, 0.6, 0.8)
    config = ProtocolConfig(2, 2, [I2, I2], 0.6, 0.8, [True, False], [False, True])
    assert config.unitaries == (I2, I2)
    assert config.consent == (True, False) and config.consent_phase2 == (False, True)


def test_variant_constraints():
    check_variant("jrio", 2, 0)
    check_variant("crio", 1, 2)
    check_variant("rio", 1, 0)
    for variant, m, n in (("jrio", 2, 1), ("crio", 2, 1), ("rio", 2, 0), ("bogus", 2, 1)):
        with pytest.raises(ValueError):
            check_variant(variant, m, n)


def test_outcome_labels_m2_n1():
    labels = build_protocol(cfg()).labels
    assert labels == ("k", "m", "n", "s", "l", "r", "g", "p", "q", "w", "v")
    assert branch_bit_count(2, 1) == 11
    assert branch_bit_count(3, 2) == 17
    assert branch_bit_count(1, 0) == 5
    # the ledger formula against the node list, and a run's bits in node order
    for m in range(1, 10):
        for n in range(5):
            proto = build_protocol(cfg(m=m, n=n))
            labels = proto.labels
            assert labels == tuple(lbl for node in proto.nodes for lbl in node.bit_labels)
            # every plan form reads only bits broadcast up to its own node
            out = 0
            for node in proto.nodes:
                out += len(node.bit_labels)
                if node.name in proto.plan:
                    spec = proto.plan[node.name]
                    assert (spec.x | spec.z) >> 1 < 1 << out, (m, n, node.name)
            assert branch_bit_count(m, n) == len(labels)
            assert labels == tuple(run_full(cfg(m=m, n=n), seed=0).bits)
            if n:
                vetoed = tuple(run_full(cfg(m=m, n=n, consent=(False,) * n), seed=0).bits)
                assert vetoed == labels[:len(vetoed)] and len(vetoed) < len(labels)


# -- symbolic corrections ---------------------------------------------------

M2_N1_LABELS = ("k", "m", "n", "s", "l", "r", "g", "p", "q", "w", "v")


def _expr(*syms, const=0, labels=M2_N1_LABELS):
    """The affine form const ^ syms over the bits named ``labels``: bit 0
    the constant, bit j + 1 the j-th label."""
    return const | sum(2 << labels.index(s) for s in syms)


def test_plan_matches_published_exponents_m2_n1():
    plan = build_protocol(cfg()).plan
    first = plan["first_op"]
    assert first.party == bob(2) and first.dof == "spatial"
    assert first.x == _expr("k")
    assert first.z == _expr("k", "m", "n", "s", "l")

    hop = plan["hop_close[1]"]
    assert hop.party == bob(1) and hop.dof == "spatial"
    assert hop.x == _expr("k", "l", "r", const=1)
    assert hop.z == _expr("k", "l", "g", const=1)

    polar = plan["polar_fix"]
    assert polar.party == A and polar.dof == "polar"
    assert polar.x == _expr("p")
    assert polar.z == _expr("q", "w", "v")

    final = plan["to_spatial"]
    assert final.x == _expr("k", "m", const=1)
    assert final.z == _expr()


def test_plan_m2_n3_first_z_exponent():
    proto = build_protocol(cfg(n=3))
    assert proto.plan["first_op"].z == _expr("k", "m", "n", "s1", "s2", "s3", "l",
                                             labels=proto.labels)


def test_derive_corrections_evaluates_plan():
    plan = build_protocol(cfg()).plan
    bits = dict(k=1, m=0, n=1, s=1, l=0, r=1, g=0, p=1, q=0, w=1, v=1)
    word = sum(b << M2_N1_LABELS.index(lbl) for lbl, b in bits.items())
    by_party = {(str(spec.party), spec.dof): spec.power(word) for spec in plan.values()}
    assert by_party[("B2", "spatial")] == PauliPower(1, 1)  # x=k, z=k^m^n^s^l
    assert by_party[("B1", "spatial")] == PauliPower(1, 0)  # x=k^l^r^1, z=k^l^g^1
    assert by_party[("A", "polar")] == PauliPower(1, 0)     # x=p, z=q^w^v


def test_frame_agrees_with_brute_force_everywhere_m2_n1(rng):
    alpha, beta = random_pair(rng)
    config = cfg(us=(random_su2(rng), random_su2(rng)), alpha=alpha, beta=beta)
    count = 0
    for res in iter_branches(config, validate_corrections=True):
        count += 1
    assert count == 2048


def test_runs_share_one_built_protocol(rng):
    config = cfg(us=(random_su2(rng), random_su2(rng)))
    proto = build_protocol(config)
    for seed in range(8):
        shared = ProtocolRun(config, seed=seed, protocol=proto).finish()
        fresh = run_full(config, seed=seed)
        assert shared.bits == fresh.bits and shared.state.terms == fresh.state.terms
    assert [r.bits for r in iter_branches(config, protocol=proto)] == [
        r.bits for r in iter_branches(config)]
    with pytest.raises(ValueError):
        ProtocolRun(cfg(n=0), protocol=proto)
    with pytest.raises(ValueError):
        next(iter_branches(config, validate_corrections=True, protocol=proto))


# -- one skeleton per shape, one binding per config ------------------------

def _metadata(proto):
    return [(node.name, node.stage, node.party, node.bit_labels, node.check_id, node.reads)
            for node in proto.nodes]


def test_interleaved_walks_on_one_build_name_their_own_bits(rng):
    # Every walk on one build shares its node tables: two checked
    # enumerations zipped, with a stepped sampled run between each pair, name
    # each branch's bits as a walk on a build of its own does.
    config = cfg(us=(random_su2(rng), random_su2(rng)), alpha=0.8j, beta=0.6)
    proto = build_protocol(config)
    walks = [iter_branches(config, check_stages=True, protocol=proto) for _ in range(2)]
    fresh = iter_branches(config, check_stages=True)
    count = 0
    for i, (first, second) in enumerate(zip(*walks)):
        want = next(fresh)
        for got in (first, second):
            assert list(got.bits.items()) == list(want.bits.items())
            assert got.probability == want.probability and got.errata == want.errata
        run, alone = ProtocolRun(config, seed=i, protocol=proto), ProtocolRun(config, seed=i)
        for stage in (1, 2):
            assert run.step(stage) == alone.step(stage) and run.branch.bits == alone.branch.bits
        count += 1
    assert count == 2048 and next(fresh, None) is None


def test_a_dropped_protocol_goes_without_the_cyclic_collector(rng):
    # No node refers to its protocol, so its filled tables are freed as soon
    # as the last reference goes.
    config = cfg(us=(random_su2(rng), random_su2(rng)))
    proto = build_protocol(config, validate_corrections=True)
    assert len(list(iter_branches(config, protocol=proto))) == 2048
    dropped = weakref.ref(proto)
    gc.disable()
    try:
        del proto
        assert dropped() is None
    finally:
        gc.enable()


def test_builds_of_one_shape_share_labels_but_no_node_or_plan(rng):
    config = cfg(us=(random_su2(rng), random_su2(rng)), alpha=0.8j, beta=0.6)
    a = build_protocol(config)
    b = build_protocol(cfg(alpha=0, beta=1j, consent_phase2=(False,)),
                       validate_corrections=True)
    assert a.labels is b.labels
    assert a.plan == b.plan and a.plan is not b.plan
    assert _metadata(a) == _metadata(b)
    assert not {id(node) for node in a.nodes} & {id(node) for node in b.nodes}
    assert all(x.run is y.run for x, y in zip(a.nodes, b.nodes, strict=True))
    assert a.initial_state.register is b.initial_state.register
    ProtocolRun(config, seed=5, protocol=a).finish()
    assert (all(node.table is not None for node in a.nodes)
            and all(node.table is None for node in b.nodes))
    # A run reassigned on one protocol, as a tracer or a counting test does,
    # stays on that protocol: neither the other nor the next build sees it.
    runs = [node.run for node in b.nodes]

    def broken(proto, state, bits):
        raise AssertionError("a run reassigned on another protocol was called")

    for node in a.nodes:
        node.run = broken
    assert [node.run for node in b.nodes] == runs
    res = ProtocolRun(config, seed=5, protocol=build_protocol(config)).finish()
    assert branch_fidelity(config, res) >= FIDELITY_THRESHOLD
    with pytest.raises(AssertionError, match="reassigned"):
        ProtocolRun(config, seed=5, protocol=a).finish()


def test_a_replaced_plan_entry_stays_with_its_protocol(rng):
    # As the flipped_x and fixed_polar_fix fixtures do: the entry replaced
    # after a build is the one that protocol's correcting node applies.
    alpha, beta = random_pair(rng)
    config = cfg(us=(random_su2(rng), random_su2(rng)), alpha=alpha, beta=beta)
    proto = build_protocol(config, validate_corrections=True)
    spec = proto.plan["hop_close[1]"]
    proto.plan["hop_close[1]"] = dataclasses.replace(spec, x=spec.x ^ 1)
    with pytest.raises(FrameInconsistencyError, match=r"at hop_close\[1\]"):
        for _ in iter_branches(config, protocol=proto):
            pass
    fresh = build_protocol(config, validate_corrections=True)
    assert fresh.plan["hop_close[1]"] == spec
    fids = [branch_fidelity(config, res) for res in iter_branches(config, protocol=fresh)]
    assert len(fids) == 2 ** 11 and min(fids) >= FIDELITY_THRESHOLD


@pytest.mark.parametrize("shape, count", [((1, 0), 12), ((2, 1), 38)], ids=["m1-n0", "m2-n1"])
def test_a_plan_entry_reading_bits_outside_its_node_raises(rng, shape, count):
    # The walk hands a node only the word bits in its reads, which the derived
    # forms fix.  A replaced entry that reads another bit heard by then would
    # see it as 0 on every branch, so each such one-coefficient change raises.
    m, n = shape
    config = cfg(m, n, [random_su2(rng) for _ in range(m)], *random_pair(rng))
    proto, mutants, heard = build_protocol(config), [], 0
    for node in proto.nodes:
        heard += len(node.bit_labels)  # hop_close's fix reads its own bit g
        if node.name in proto.plan:
            mutants += [(node.name, form, j) for form in ("x", "z") for j in range(heard)
                        if not node.reads >> j & 1]
    assert len(mutants) == count
    for name, form, j in mutants:
        for sampled in (False, True):
            proto = build_protocol(config)
            spec = proto.plan[name]
            proto.plan[name] = dataclasses.replace(spec, **{form: getattr(spec, form) ^ 2 << j})
            match = rf"plan entry of {re.escape(name)} .*: {proto.labels[j]}$"
            with pytest.raises(ValueError, match=match):
                if sampled:
                    ProtocolRun(config, seed=j, protocol=proto).finish()
                else:
                    for _ in iter_branches(config, protocol=proto):
                        pass


@pytest.mark.parametrize("shape, count", [((1, 0), 20), ((2, 1), 38)], ids=["m1-n0", "m2-n1"])
def test_every_plan_mutant_inside_its_node_reads_is_killed_by_both_checks(rng, shape, count):
    # Each one-coefficient change of a correcting node's x or z form, on the
    # constant or on a bit the node reads, sends some branch off its target
    # and fails the validated walk at that node.  The runs see each mutant
    # only through the protocol the walk hands them.
    m, n = shape
    config = cfg(m, n, [random_su2(rng) for _ in range(m)], *random_pair(rng))
    proto = build_protocol(config)
    mutants = [(node.name, form, flip) for node in proto.nodes if node.name in proto.plan
               for form in ("x", "z")
               for flip in [1] + [2 << j for j in range(node.reads.bit_length())
                                  if node.reads >> j & 1]]
    assert len(mutants) == count

    def mutated(name, form, flip, validate):
        proto = build_protocol(config, validate_corrections=validate)
        spec = proto.plan[name]
        proto.plan[name] = dataclasses.replace(spec, **{form: getattr(spec, form) ^ flip})
        return iter_branches(config, protocol=proto)

    for name, form, flip in mutants:
        assert any(not res.blocked and branch_fidelity(config, res) < FIDELITY_THRESHOLD
                   for res in mutated(name, form, flip, False)), (name, form, flip)
        with pytest.raises(FrameInconsistencyError) as info:
            for _ in mutated(name, form, flip, True):
                pass
        assert info.value.node == name


def test_configs_of_one_shape_built_back_to_back_reach_their_own_targets(rng):
    # All four are built before any runs, each with its own operators, input
    # pair and consent: a binding that leaked into the skeleton, or into
    # another build, would send a config to another's target or veto.
    cases = [({}, None), ({"consent": (False,)}, "consent[1]"),
             ({"consent_phase2": (False,)}, "control_measure[1]"), ({}, None)]
    configs = [cfg(us=(random_su2(rng), random_su2(rng)), alpha=a, beta=b, **kw)
               for (kw, _), (a, b) in zip(cases, (random_pair(rng) for _ in cases))]
    protos = [build_protocol(config) for config in configs]
    for config, proto, (_, blocked_at) in zip(configs, protos, cases):
        for res in iter_branches(config, protocol=proto):
            assert res.blocked_at == blocked_at
            if blocked_at is None:
                assert branch_fidelity(config, res) >= FIDELITY_THRESHOLD


def test_validation_targets_are_the_suffix_products_bit_for_bit(rng):
    # The build takes each suffix product one operator past the next; the
    # oracle's product from scratch must give the same float bits.
    for m in range(1, 9):
        for _ in range(5):
            us, (alpha, beta) = tuple(random_su2(rng) for _ in range(m)), random_pair(rng)
            proto = build_protocol(ProtocolConfig(m, 0, us, alpha, beta),
                                   validate_corrections=True)
            want = [direct_apply(us[s:], alpha, beta) for s in range(m)]
            assert len(proto.targets) == m + 1 and proto.targets[m] == (alpha, beta)
            for got, t in zip(proto.targets, want):
                assert [(z.real.hex(), z.imag.hex()) for z in got] == [
                    (z.real.hex(), z.imag.hex()) for z in (t.a0, t.a1)], (m, us)


def test_frame_agrees_with_brute_force_m3_n2_sampled(rng):
    config = ProtocolConfig(3, 2, tuple(random_su2(rng) for _ in range(3)),
                            *random_pair(rng))
    for seed in range(64):
        ProtocolRun(config, seed=seed, validate_corrections=True).finish()


def test_basis_state_pairs_validate():
    # On a basis state Z is a global phase, so two powers work; the frame's
    # is among them.  Identity operators on the CLI's default input (1, 0):
    config = cfg(alpha=1, beta=0)
    res = ProtocolRun(config, seed=1, validate_corrections=True).finish()
    assert branch_fidelity(config, res) >= FIDELITY_THRESHOLD
    # and the (1,0) input (0, 1j), where every seed used to be rejected.
    config = cfg(m=1, n=0, alpha=0, beta=1j)
    for seed in range(8):
        res = ProtocolRun(config, seed=seed, validate_corrections=True).finish()
        assert branch_fidelity(config, res) >= FIDELITY_THRESHOLD


def test_flipped_plan_entry_raises_at_its_node(flipped_x):
    flipped_x("hop_close[1]")
    with pytest.raises(FrameInconsistencyError, match=r"Z\^0X\^1 at hop_close\[1\]") as info:
        ProtocolRun(cfg(), seed=3, validate_corrections=True).finish()
    err = info.value
    assert err.node == "hop_close[1]"
    assert list(err.bits.items()) == [("k", 0), ("m", 0), ("n", 0), ("s", 1), ("l", 1),
                                      ("r", 0), ("g", 0)]
    assert err.derived == PauliPower(1, 0) and err.found == (PauliPower(0, 0),)
    # on a basis state both Z powers of the right X work, and neither is the frame's
    with pytest.raises(FrameInconsistencyError) as info:
        ProtocolRun(cfg(alpha=1, beta=0), seed=3, validate_corrections=True).finish()
    assert info.value.found == (PauliPower(0, 0), PauliPower(0, 1))


def test_flipped_plan_entry_raises_at_its_node_m8_n4(rng, flipped_x):
    config = ProtocolConfig(8, 4, tuple(random_su2(rng) for _ in range(8)),
                            *random_pair(rng))
    proto = build_protocol(config)
    node = "hop_close[5]"
    upto = [n.name for n in proto.nodes].index(node) + 1
    heard = proto.labels[:sum(len(n.bit_labels) for n in proto.nodes[:upto])]
    runs = [run_full(config, seed=seed) for seed in range(4)]
    flipped_x(node)
    for seed, res in enumerate(runs):
        with pytest.raises(FrameInconsistencyError) as info:
            ProtocolRun(config, seed=seed, validate_corrections=True).finish()
        err = info.value
        assert err.node == node
        assert list(err.bits.items()) == [(lbl, res.bits[lbl]) for lbl in heard]
        assert err.derived not in err.found and len(err.found) == 1


def test_sampled_run_applies_each_operator_once(rng, monkeypatch):
    # A sampled run builds only the outcome it draws, so each party's
    # operator is applied once, not once per outcome of its node.
    from cjrio import protocol

    calls = []
    apply = protocol.apply_su2_spatial

    def counted(state, i, op):
        calls.append(op)
        return apply(state, i, op)

    monkeypatch.setattr(protocol, "apply_su2_spatial", counted)
    config = ProtocolConfig(3, 2, tuple(random_su2(rng) for _ in range(3)),
                            *random_pair(rng))
    res = run_full(config, seed=7)
    assert not res.blocked and len(calls) == config.m
    assert sorted(map(id, calls)) == sorted(map(id, config.unitaries))


# -- stepwise runs ----------------------------------------------------------

def test_step1_entangle_forms(rng):
    alpha, beta = random_pair(rng)
    run = ProtocolRun(cfg(alpha=alpha, beta=beta), seed=1)
    (k,) = run.step(1)
    i_x = run.branch.state.index_of(X)
    for ket, amp in run.branch.state.terms.items():
        spatial, _ = run.branch.state.register.unpack(ket)
        if spatial[i_x] == 0:
            assert all(b == k for b in spatial[1:])
        else:
            assert all(b == (k ^ 1) for b in spatial[1:])
    assert dense_norm(run.branch.state) == pytest.approx(1.0, abs=1e-12)


def test_step1_uniform_even_for_unit_alpha():
    # alpha=1 leaves X's path in a product, yet k stays fair
    config = cfg(alpha=1.0, beta=0.0)
    counts = {0: 0, 1: 0}
    for res in iter_branches(config):
        counts[res.bits["k"]] += res.probability
    assert counts[0] == pytest.approx(0.5, abs=1e-12)
    assert counts[1] == pytest.approx(0.5, abs=1e-12)


def test_step2_collapsed_form(rng):
    alpha, beta = random_pair(rng)
    run = ProtocolRun(cfg(alpha=alpha, beta=beta), seed=5)
    (k,) = run.step(1)
    m, n = run.step(2)
    st = run.branch.state
    assert not st.alive[st.index_of(X)]
    assert st.definite_bit(st.index_of(X), "spatial") == n ^ 1
    assert st.definite_bit(st.index_of(A), "spatial") == k ^ m ^ 1
    # two-branch structure on the remaining photons with sign (-1)^(k^m^n)
    branch = {}
    for ket, amp in st.terms.items():
        branch.setdefault(bit(st, ket, bob(1)), []).append(amp)
    sgn = -1.0 if (k ^ m ^ n) else 1.0
    got = sum(branch[k ^ 1]) / sum(branch[k])
    assert got == pytest.approx(sgn * beta / alpha, abs=1e-9)


def test_step3_consent_disentangles_controller(rng):
    alpha, beta = random_pair(rng)
    run = ProtocolRun(cfg(alpha=alpha, beta=beta), seed=7)
    run.step(1)
    run.step(2)
    (s_bit,) = run.step(3)
    k = run.branch.bits["k"]
    st = run.branch.state
    assert st.definite_bit(st.index_of(charlie(1)), "spatial") == k ^ s_bit ^ 1
    joint = [st.index_of(bob(1)), st.index_of(bob(2))]
    assert dense_reduced_purity(st, joint, "spatial") == pytest.approx(1.0, abs=1e-12)


def test_step3_no_consent_blocks_and_purity_stays_mixed(rng):
    alpha, beta = random_pair(rng)
    config = cfg(alpha=alpha, beta=beta, consent=(False,))
    run = ProtocolRun(config, seed=11)
    run.step(1)
    run.step(2)
    assert run.step(3) == BLOCKED
    assert run.branch.blocked and run.branch.blocked_at == "consent[1]"
    want = abs(alpha) ** 4 + abs(beta) ** 4
    st = run.branch.state
    got = dense_reduced_purity(st, [st.index_of(bob(1)), st.index_of(bob(2))], "spatial")
    assert got == pytest.approx(want, abs=1e-12)
    # every later stage reports the veto and leaves the branch as it was
    state, bits = run.branch.state, dict(run.branch.bits)
    for stage in range(4, 10):
        assert run.step(stage) == BLOCKED
        assert run.branch.state is state and run.branch.bits == bits
    assert run.branch.blocked_at == "consent[1]"


@pytest.mark.parametrize("kw, done, stage, expected", [
    ({}, (), 3, "stage 1"),                   # skips stages 1 and 2
    ({}, (1,), 4, "stage 2"),                 # skips stage 2
    ({}, (1,), 1, "stage 2"),                 # repeats a stage
    ({}, (), 10, "stage 1"),                  # past the last stage
    ({}, (), 0, "stage 1"),                   # before the first
    ({}, (), None, "stage 1"),                # not a stage: would run to the end
    ({"n": 0}, (1, 2), 5, "a stage from 3 to 4"),  # stage 3 has no nodes, 4 has
    ({"consent": (False,)}, (1, 2, 3), 3, "a stage from 4 to 9"),  # blocked, then repeated
    ({}, "finish", 9, "none: the run is over"),
    ({}, (), True, "stage 1"),                # a bool is not a stage number
    ({}, (1,), 2.0, "stage 2"),               # nor is a float, even a whole one
], ids=["first-skipped", "second-skipped", "repeated", "past-9", "zero", "none", "range",
        "blocked-repeated", "after-finish", "bool", "float"])
def test_step_rejects_stages_out_of_order(kw, done, stage, expected):
    run = ProtocolRun(cfg(**kw), seed=1)
    if done == "finish":
        run.finish()
    else:
        for earlier in done:
            run.step(earlier)
    before = run.branch.bits
    with pytest.raises(ValueError, match=f"^cannot step stage {stage} now: expected {expected}$"):
        run.step(stage)
    assert run.branch.bits == before  # nothing ran


def test_phase2_consent_withheld_blocks_at_release(rng):
    alpha, beta = random_pair(rng)
    config = cfg(alpha=alpha, beta=beta, consent=(True,), consent_phase2=(False,))
    res = run_full(config, seed=47)
    assert res.blocked and res.blocked_at == "control_measure[1]"
    # the run got through the whole path phase first
    assert set(res.bits) == {"k", "m", "n", "s", "l", "r", "g", "p", "q", "w"}
    assert branch_fidelity(config, res) is None


def test_step3_is_noop_without_controllers():
    run = ProtocolRun(cfg(n=0), seed=3)
    run.step(1)
    run.step(2)
    before = run.branch.state
    assert run.step(3) == ()
    assert run.branch.state is before


def test_step4_identity_operator_form(rng):
    alpha, beta = random_pair(rng)
    run = ProtocolRun(cfg(alpha=alpha, beta=beta), seed=13)
    run.step(1)
    run.step(2)
    run.step(3)
    (l_bit,) = run.step(4)
    st = run.branch.state
    k = run.branch.bits["k"]
    assert st.definite_bit(st.index_of(bob(1)), "spatial") == k ^ l_bit ^ 1
    # with U2 = I the secret pair sits cleanly on B2's paths
    amp0 = sum(a for ket, a in st.terms.items() if bit(st, ket, bob(2)) == 0)
    amp1 = sum(a for ket, a in st.terms.items() if bit(st, ket, bob(2)) == 1)
    assert amp1 / amp0 == pytest.approx(beta / alpha, abs=1e-9)


def test_step4_swap_operator(rng):
    alpha, beta = random_pair(rng)
    run = ProtocolRun(cfg(us=(I2, SU2Operator(0, 1)), alpha=alpha, beta=beta), seed=17)
    run.step(1)
    run.step(2)
    run.step(3)
    run.step(4)
    st = run.branch.state
    amp0 = sum(a for ket, a in st.terms.items() if bit(st, ket, bob(2)) == 0)
    amp1 = sum(a for ket, a in st.terms.items() if bit(st, ket, bob(2)) == 1)
    # (alpha, beta) -> (beta, -alpha)
    assert amp1 / amp0 == pytest.approx(-alpha / beta, abs=1e-9)


def test_shift_chain_identity_recovers_input(rng):
    alpha, beta = random_pair(rng)
    run = ProtocolRun(cfg(alpha=alpha, beta=beta), seed=19)
    run.step(1)
    run.step(2)
    run.step(3)
    run.step(4)
    r_bit, g_bit = run.step(5)
    st = run.branch.state
    assert st.definite_bit(st.index_of(bob(2)), "spatial") == g_bit
    amp0 = sum(a for ket, a in st.terms.items() if bit(st, ket, bob(1)) == 0)
    amp1 = sum(a for ket, a in st.terms.items() if bit(st, ket, bob(1)) == 1)
    assert amp1 / amp0 == pytest.approx(beta / alpha, abs=1e-9)


def test_shift_chain_random_operators_match_product(rng):
    alpha, beta = random_pair(rng)
    u1, u2 = random_su2(rng), random_su2(rng)
    run = ProtocolRun(cfg(us=(u1, u2), alpha=alpha, beta=beta), seed=23)
    run.step(1)
    run.step(2)
    run.step(3)
    run.step(4)
    run.step(5)
    st = run.branch.state
    amp0 = sum(a for ket, a in st.terms.items() if bit(st, ket, bob(1)) == 0)
    amp1 = sum(a for ket, a in st.terms.items() if bit(st, ket, bob(1)) == 1)
    want = matrix(u1) @ (matrix(u2) @ np.array([alpha, beta]))
    assert amp1 / amp0 == pytest.approx(complex(want[1] / want[0]), abs=1e-9)


def test_joint_measure_probabilities(rng):
    alpha, beta = random_pair(rng)
    config = cfg(us=(random_su2(rng), random_su2(rng)), alpha=alpha, beta=beta)
    weights = {}
    for res in iter_branches(config):
        key = (res.bits["p"], res.bits["q"], res.bits["w"])
        weights[key] = weights.get(key, 0.0) + res.probability
    assert len(weights) == 8
    for w in weights.values():
        assert w == pytest.approx(1 / 8, abs=1e-12)


def test_full_run_final_state_exact_for_identity():
    res = run_full(cfg(alpha=0.6, beta=0.8), seed=29)
    st = res.state
    assert st.definite_bit(st.index_of(A), "polar") == VERTICAL
    amp = {bit(st, ket, A): a for ket, a in st.terms.items()}
    ratio = amp[1] / amp[0]
    assert ratio == pytest.approx(0.8 / 0.6, abs=1e-9)
    assert branch_fidelity(cfg(alpha=0.6, beta=0.8), res) == pytest.approx(1.0, abs=1e-12)


# -- enumeration ------------------------------------------------------------

def test_enumeration_m2_n1_branch_count_and_probabilities(rng):
    alpha, beta = random_pair(rng)
    config = cfg(us=(random_su2(rng), random_su2(rng)), alpha=alpha, beta=beta)
    results = list(iter_branches(config))
    assert len(results) == 2048
    for res in results:
        assert res.probability == pytest.approx(2.0 ** -11, abs=1e-12)
        assert res.max_terms <= 16
    assert sum(r.probability for r in results) == pytest.approx(1.0, abs=1e-10)


def test_enumeration_order_is_lexicographic(rng):
    config = cfg()
    seen = [tuple(res.bits.values()) for res in iter_branches(config)]
    assert seen == sorted(seen)
    assert len(set(seen)) == len(seen)


def test_enumeration_matches_oracle_on_every_branch(rng):
    alpha, beta = random_pair(rng)
    u1, u2 = random_su2(rng), random_su2(rng)
    config = cfg(us=(u1, u2), alpha=alpha, beta=beta)
    target = direct_apply(config.unitaries, alpha, beta)
    for res in iter_branches(config):
        assert target_fidelity(res.state, target) >= 1.0 - 1e-10


def test_enumeration_blocked_consent():
    config = cfg(consent=(False,))
    results = list(iter_branches(config))
    # branches split on k, m, n before the consent gate halts each of them
    assert len(results) == 8
    assert all(r.blocked and r.blocked_at == "consent[1]" for r in results)
    assert sum(r.probability for r in results) == pytest.approx(1.0, abs=1e-12)


def test_degenerate_inputs_run_end_to_end():
    for alpha, beta in ((1.0, 0.0), (0.0, 1.0)):
        config = cfg(alpha=alpha, beta=beta)
        target = direct_apply(config.unitaries, alpha, beta)
        for seed in range(8):
            res = run_full(config, seed=seed)
            assert target_fidelity(res.state, target) >= 1.0 - 1e-10


# -- the walk's tables ------------------------------------------------------

def _reference_walk(proto):
    """Every branch of ``proto`` depth-first, first outcome first, as (word,
    state, probability, max_terms, blocked_at), with no use of the walk's
    tables; a blocked branch ends at the node that blocked it, with that
    node's input state and its peak counted.  At every node of every branch
    it checks the tables' premise: the node run on the full state with the
    whole word, and on the state's live part with only the bits the node
    reads, agree once the frozen bits are set back."""
    nodes = proto.nodes
    state = proto.initial_state
    stack = [(0, state, 0, 0, 1.0, len(state.terms))]
    while stack:
        idx, state, word, width, probability, max_terms = stack.pop()
        if idx == len(nodes):
            yield word, state, probability, max_terms, None
            continue
        node = nodes[idx]
        outcomes, peak = node.run(proto, state, word)
        live, frozen = state.live_part()
        on_live, live_peak = node.run(proto, live, word & node.reads)
        assert peak == live_peak, node.name
        assert [(o.bits, o.p) for o in outcomes] == [(o.bits, o.p) for o in on_live], node.name
        if not outcomes:  # the node's controller withheld consent
            yield word, state, probability, max(max_terms, peak), node.name
            continue
        children = []
        for out, other in zip(outcomes, on_live):
            child, rebased = out.build(), other.build().with_frozen(frozen)
            assert child.alive == rebased.alive, node.name
            assert list(child.terms.items()) == list(rebased.terms.items()), node.name
            assert child.exact_key() == rebased.exact_key(), node.name  # signed zeros too
            children.append((idx + 1, child, word | out.bits << width,
                             width + len(node.bit_labels), probability * out.p,
                             max(max_terms, peak, len(child.terms))))
        stack.extend(reversed(children))


# Validated at (2,1), so the premise covers the correction check's verdict
# too; the larger shapes, (3,1) here and (2,2) below, run unchecked.
@pytest.mark.parametrize("shape, validate", [((2, 1), True), ((3, 1), False)],
                         ids=["m2-n1", "m3-n1"])
def test_node_runs_depend_only_on_live_part_and_read_bits(rng, shape, validate):
    m, n = shape
    config = ProtocolConfig(m, n, tuple(random_su2(rng) for _ in range(m)),
                            *random_pair(rng))
    proto = build_protocol(config, validate_corrections=validate)
    assert sum(1 for _ in _reference_walk(proto)) == 2 ** branch_bit_count(m, n)


def _assert_replayed(config, blocked_at, count):
    """Each branch the tabled walk yields, against the same branch replayed
    node by node on a freshly built protocol whose tables stay unused."""
    replay = _reference_walk(build_protocol(config))
    seen = 0
    for res, want in zip(iter_branches(config), replay, strict=True):
        word, state, probability, max_terms, halted_at = want
        assert res._word == word
        assert res.probability == probability and res.max_terms == max_terms
        assert res.blocked_at == halted_at == blocked_at
        assert res.state.alive == state.alive
        assert res.state.exact_key() == state.exact_key()
        seen += 1
    assert seen == count


def test_enumeration_equals_a_replay_without_tables_m2_n2(rng):
    config = ProtocolConfig(2, 2, (random_su2(rng), random_su2(rng)), *random_pair(rng))
    _assert_replayed(config, None, 2 ** 13)


def test_vetoed_enumeration_equals_a_replay_without_tables_m2_n2(rng):
    # Every branch halts at the first release gate, with the state it
    # reached that node with, before any intern, and the node's peak counted.
    config = ProtocolConfig(2, 2, (random_su2(rng), random_su2(rng)), *random_pair(rng),
                            consent_phase2=(False, True))
    _assert_replayed(config, "control_measure[1]", 2 ** 11)


def test_consent_vetoed_enumeration_equals_a_replay_without_tables_m2_n2(rng):
    # Blocked at the second consent gate, after k, m, n and s1.
    config = ProtocolConfig(2, 2, (random_su2(rng), random_su2(rng)), *random_pair(rng),
                            consent=(True, False))
    _assert_replayed(config, "consent[2]", 16)


def test_crio_enumeration_equals_a_replay_without_tables_m1_n2(rng):
    check_variant("crio", 1, 2)
    config = ProtocolConfig(1, 2, (random_su2(rng),), *random_pair(rng))
    _assert_replayed(config, None, 2 ** branch_bit_count(1, 2))


def _walked(branch):
    return branch._word, branch.probability, branch.max_terms, branch.state.exact_key()


@pytest.mark.parametrize("shape", [(2, 1), (3, 2)], ids=["m2-n1", "m3-n2"])
def test_stepped_runs_on_an_enumerated_build_match_a_fresh_build(rng, shape):
    # An enumeration leaves every subtree of the build linked and folded; a
    # stepped run stops at each stage's end, so it must step over no node
    # a fold joins into the edge above, nor draw differently.
    m, n = shape
    config = ProtocolConfig(m, n, tuple(random_su2(rng) for _ in range(m)), *random_pair(rng))
    filled = build_protocol(config)
    assert sum(1 for _ in iter_branches(config, protocol=filled)) == 2 ** branch_bit_count(m, n)
    for seed in range(32):
        run = ProtocolRun(config, seed=seed, protocol=filled)
        alone = ProtocolRun(config, seed=seed)
        for stage in range(1, 10):
            assert run.step(stage) == alone.step(stage)
            assert _walked(run.branch) == _walked(alone.branch)
        finished = ProtocolRun(config, seed=seed, protocol=filled).finish()
        assert _walked(finished) == _walked(alone.branch)


@pytest.mark.parametrize("checked_first", [True, False], ids=["checked-first", "unchecked-first"])
def test_checked_and_unchecked_walks_on_one_build_agree(rng, monkeypatch, checked_first):
    # The unchecked walk replays folded edges, the checked one every edge:
    # neither leaves the other anything to replay but the same branches, and
    # the checker sees every branch at every checked node as on a fresh build.
    from collections import Counter

    from cjrio import stages

    seen, make = [], stages.make_stage_checker

    def recorded_checker(config):
        check = make(config)

        def recorded(labels, check_id, word, width, live, frozen):
            seen.append((check_id, word))
            return check(labels, check_id, word, width, live, frozen)
        return recorded

    monkeypatch.setattr(stages, "make_stage_checker", recorded_checker)
    config = cfg(us=(random_su2(rng), random_su2(rng)), alpha=0.8j, beta=0.6)
    want = [_walked(res) for res in iter_branches(config)]
    assert [_walked(res) for res in iter_branches(config, check_stages=True)] == want
    fresh, seen[:] = Counter(seen), []
    proto = build_protocol(config)
    for check in (checked_first, not checked_first):
        assert [_walked(res) for res in iter_branches(config, check_stages=check,
                                                      protocol=proto)] == want
    assert Counter(seen) == fresh and sum(fresh.values()) == 5402


def test_enumeration_runs_each_node_once_per_table_key(rng, monkeypatch):
    # Without the tables a (3,2) enumeration runs a node 389,243 times, once
    # per node of every branch; with them, once per distinct live part and
    # read bits (1,574 here).
    from cjrio import protocol

    runs = []
    build = protocol.build_protocol

    def counted(run, proto, state, bits):
        runs.append(1)
        return run(proto, state, bits)

    def counted_build(*args, **kwargs):
        proto = build(*args, **kwargs)
        for node in proto.nodes:
            node.run = partial(counted, node.run)
        return proto

    monkeypatch.setattr(protocol, "build_protocol", counted_build)
    config = ProtocolConfig(3, 2, tuple(random_su2(rng) for _ in range(3)),
                            *random_pair(rng))
    assert sum(1 for _ in iter_branches(config)) == 2 ** 17
    assert len(runs) <= 1_600


# The primitives perfbench/spans.py counts by replacing them on cjrio.protocol.
PRIMITIVES = ("apply_bbs", "apply_hwp", "apply_qwp", "apply_pbs", "apply_pauli_spatial",
              "apply_pauli_polar", "apply_su2_spatial", "fresh_probe", "kerr",
              "enumerate_homodyne", "enumerate_measurement")


def test_node_runs_look_up_their_primitives_on_the_module_at_call_time(monkeypatch):
    # A run that bound a primitive when its shape's skeleton was built would
    # call past a replacement made later, and that layer would count 0.
    from cjrio import protocol

    config = cfg(us=(SU2Operator(0.6 + 0.48j, 0.64j), SU2Operator(1j, 0)), beta=-0.8j)
    build_protocol(config)  # the (2,1) skeleton is cached before the patch
    counts = dict.fromkeys(PRIMITIVES, 0)

    def counted(name, fn, *args):
        counts[name] += 1
        return fn(*args)

    for name in PRIMITIVES:
        monkeypatch.setattr(protocol, name, partial(counted, name, getattr(protocol, name)))
    result = ProtocolRun(config, seed=3, validate_corrections=True).finish()
    assert not result.blocked
    assert counts == {"apply_bbs": 7, "apply_hwp": 2, "apply_qwp": 2, "apply_pbs": 2,
                      "apply_pauli_spatial": 3, "apply_pauli_polar": 1, "apply_su2_spatial": 2,
                      "fresh_probe": 6, "kerr": 9, "enumerate_homodyne": 6,
                      "enumerate_measurement": 3}


# -- one driver for sampling and enumeration --------------------------------

def _same_branch(sampled, enumerated):
    assert sampled.probability == enumerated.probability
    assert sampled.blocked == enumerated.blocked
    assert sampled.blocked_at == enumerated.blocked_at
    assert sampled.max_terms == enumerated.max_terms
    assert sampled.errata == enumerated.errata
    ts, te = sampled.transcript, enumerated.transcript
    assert ts["outcomes"] == te["outcomes"]
    assert ts["corrections"] == te["corrections"]
    assert ts["classical_bits"] == te["classical_bits"]
    assert sampled.state.register == enumerated.state.register
    assert sampled.state.alive == enumerated.state.alive
    assert set(sampled.state.terms) == set(enumerated.state.terms)
    for ket, amp in sampled.state.terms.items():
        assert abs(amp - enumerated.state.terms[ket]) <= 1e-12


@pytest.mark.parametrize("shape", [(1, 0), (2, 1), (3, 2), "veto"],
                         ids=["m1-n0", "m2-n1", "m3-n2", "m2-n1-veto"])
def test_sampled_run_equals_enumerated_branch(rng, shape):
    if shape == "veto":
        m, n, kw = 2, 1, {"consent_phase2": (False,)}
    else:
        (m, n), kw = shape, {}
    config = ProtocolConfig(m, n, tuple(random_su2(rng) for _ in range(m)),
                            *random_pair(rng), **kw)
    sampled = {}
    for seed in range(16):
        res = run_full(config, seed=seed)
        sampled[tuple(res.bits.items())] = res
    found = 0
    for res in iter_branches(config):
        match = sampled.get(tuple(res.bits.items()))
        if match is not None:
            _same_branch(match, res)
            found += 1
            if found == len(sampled):
                break
    assert found == len(sampled)
    if shape == "veto":
        assert all(r.blocked_at == "control_measure[1]" for r in sampled.values())


# Outcome bits of 20 consecutive runs on one rng, each packed most significant
# bit first in broadcast order.  They pin how the sampler draws from the rng
# (one draw per node with a choice, cumulative scan), which fixes every
# seeded simulate and stats report.
SAMPLED_BITS = {
    (2, 1): [1339, 1875, 313, 1738, 936, 1202, 68, 1443, 829, 701, 1907, 1385,
             687, 792, 1086, 986, 848, 1488, 926, 1407],
    (3, 2): [86005, 57823, 88484, 77060, 5418, 46509, 122326, 93546, 29230,
             63285, 22163, 31359, 72141, 80233, 21233, 87461, 61270, 56600,
             122605, 94247],
}


def _pinned_config(m, n, **kw):
    ops = (SU2Operator(2 ** -0.5, 2 ** -0.5), SU2Operator(0.6 + 0.48j, 0.64j),
           SU2Operator(0, 1))[:m]
    return ProtocolConfig(m, n, ops, 0.6, 0.8j, **kw)


@pytest.mark.parametrize("shape", sorted(SAMPLED_BITS), ids=["m2-n1", "m3-n2"])
def test_sampled_bits_are_pinned(shape):
    config = _pinned_config(*shape)
    gen = np.random.default_rng(0)
    got = []
    for _ in range(20):
        res = ProtocolRun(config, rng=gen).finish()
        got.append(int("".join(str(bit) for bit in res.bits.values()), 2))
    assert got == SAMPLED_BITS[shape]


# -- transcripts ------------------------------------------------------------

# Transcripts of seeded runs, kept as literals so the correction powers are
# checked against a fixed record, not against another output of the same
# code: (m, n), config keywords, seed, outcomes as (step, party, bits) and
# corrections as (party, dof, x_pow, z_pow).
PINNED_TRANSCRIPTS = {
    "m2-n1": ((2, 1), {}, 5, [
        ("entangle", "A", {"k": 1}), ("transfer", "A", {"m": 1, "n": 1}),
        ("consent[1]", "C1", {"s": 1}), ("concentrate[1]", "B1", {"l": 0}),
        ("hop_link[1]", "B2", {"r": 0}), ("hop_close[1]", "B2", {"g": 0}),
        ("joint_measure[1]", "B1", {"p": 0, "q": 1}), ("joint_measure[2]", "B2", {"w": 0}),
        ("control_measure[1]", "C1", {"v": 0}),
    ], [("B2", "spatial", 1, 0), ("B1", "spatial", 0, 0), ("A", "polar", 0, 1),
        ("A", "spatial", 1, 0)]),
    "m3-n2": ((3, 2), {}, 6, [
        ("entangle", "A", {"k": 1}), ("transfer", "A", {"m": 0, "n": 1}),
        ("consent[1]", "C1", {"s1": 0}), ("consent[2]", "C2", {"s2": 0}),
        ("concentrate[1]", "B1", {"l1": 1}), ("concentrate[2]", "B2", {"l2": 1}),
        ("hop_link[2]", "B3", {"r2": 1}), ("hop_close[2]", "B3", {"g2": 0}),
        ("hop_link[1]", "B2", {"r1": 1}), ("hop_close[1]", "B2", {"g1": 0}),
        ("joint_measure[1]", "B1", {"p": 0, "q": 0}), ("joint_measure[2]", "B2", {"w2": 1}),
        ("joint_measure[3]", "B3", {"w3": 0}), ("control_measure[1]", "C1", {"v1": 1}),
        ("control_measure[2]", "C2", {"v2": 1}),
    ], [("B3", "spatial", 1, 0), ("B2", "spatial", 0, 1), ("B1", "spatial", 0, 1),
        ("A", "polar", 0, 1), ("A", "spatial", 0, 0)]),
    "m1-n0": ((1, 0), {}, 7, [
        ("entangle", "A", {"k": 1}), ("transfer", "A", {"m": 1, "n": 1}),
        ("joint_measure[1]", "B1", {"p": 1, "q": 1}),
    ], [("B1", "spatial", 1, 1), ("A", "polar", 1, 1), ("A", "spatial", 1, 0)]),
    "consent-veto": ((2, 1), {"consent": (False,)}, 8, [
        ("entangle", "A", {"k": 0}), ("transfer", "A", {"m": 1, "n": 1}),
    ], []),
    "release-veto": ((2, 1), {"consent_phase2": (False,)}, 9, [
        ("entangle", "A", {"k": 1}), ("transfer", "A", {"m": 0, "n": 1}),
        ("consent[1]", "C1", {"s": 1}), ("concentrate[1]", "B1", {"l": 1}),
        ("hop_link[1]", "B2", {"r": 1}), ("hop_close[1]", "B2", {"g": 1}),
        ("joint_measure[1]", "B1", {"p": 1, "q": 1}), ("joint_measure[2]", "B2", {"w": 1}),
    ], [("B2", "spatial", 1, 0), ("B1", "spatial", 0, 0)]),
}


@pytest.mark.parametrize("case", list(PINNED_TRANSCRIPTS))
def test_transcripts_are_pinned(case):
    shape, kw, seed, outcomes, corrections = PINNED_TRANSCRIPTS[case]
    t = run_full(_pinned_config(*shape, **kw), seed=seed).transcript
    assert [(rec["step"], rec["party"], rec["bits"]) for rec in t["outcomes"]] == outcomes
    assert [(rec["party"], rec["dof"], rec["x_pow"], rec["z_pow"])
            for rec in t["corrections"]] == corrections
    assert t["classical_bits"] == sum(len(bits) for _, _, bits in outcomes)

def test_transcript_ledger_m2_n1(rng):
    alpha, beta = random_pair(rng)
    res = run_full(cfg(alpha=alpha, beta=beta), seed=31)
    t = res.transcript
    names = tuple(lbl for rec in t["outcomes"] for lbl in rec["bits"])
    assert names == ("k", "m", "n", "s", "l", "r", "g", "p", "q", "w", "v")
    assert t["classical_bits"] == 11
    assert t["seed"] == 31
    parties = [(rec["party"], rec["dof"]) for rec in t["corrections"]]
    assert parties == [("B2", "spatial"), ("B1", "spatial"), ("A", "polar"), ("A", "spatial")]


def test_branch_state_and_transcript_are_made_once(rng):
    us, (alpha, beta) = (random_su2(rng), random_su2(rng)), random_pair(rng)
    target = direct_apply(us, alpha, beta)
    for res in iter_branches(cfg(us=us, alpha=alpha, beta=beta)):
        assert res.state is res.state
        assert res.transcript is res.transcript
        # the live part scores as the full state does, bit for bit
        assert target_fidelity(res.live, target) == target_fidelity(res.state, target)
        assert res.live.alive == res.state.alive
        assert len(res.live.terms) == len(res.state.terms)


def test_a_run_takes_a_seed_or_an_rng_not_both():
    with pytest.raises(ValueError, match="a seed or an rng, not both"):
        ProtocolRun(cfg(), seed=5, rng=np.random.default_rng(7))


@pytest.mark.parametrize("seed", [True, False, 1.5, 1.0, "a", -1, np.int64(3)],
                         ids=["true", "false", "float", "whole-float", "str", "negative", "numpy"])
def test_a_run_rejects_a_seed_that_is_not_a_non_negative_int(seed):
    # as the shape's m and n: a bool is no seed, though True == 1
    message = f"^a seed must be a non-negative int, got {re.escape(repr(seed))}$"
    with pytest.raises(ValueError, match=message):
        run_full(cfg(), seed=seed)


def test_transcript_seed_reproducibility():
    r1 = run_full(cfg(), seed=37)
    r2 = run_full(cfg(), seed=37)
    assert r1.bits == r2.bits
    assert r1.probability == r2.probability
    assert r1.transcript == r2.transcript


# -- reductions -------------------------------------------------------------

def test_reduction_jrio_matches_full_scheme(rng):
    alpha, beta = random_pair(rng)
    u1, u2 = random_su2(rng), random_su2(rng)
    target = direct_apply((u1, u2), alpha, beta)
    jrio = ProtocolConfig(2, 0, (u1, u2), alpha, beta)
    check_variant("jrio", jrio.m, jrio.n)
    for res in iter_branches(jrio):
        assert target_fidelity(res.state, target) >= 1.0 - 1e-10
    full = ProtocolConfig(2, 1, (u1, u2), alpha, beta)
    check_variant("cjrio", full.m, full.n)
    for res in iter_branches(full):
        assert target_fidelity(res.state, target) >= 1.0 - 1e-10


def test_reduction_crio_oracle(rng):
    alpha, beta = random_pair(rng)
    u1 = random_su2(rng)
    config = ProtocolConfig(1, 1, (u1,), alpha, beta)
    target = direct_apply((u1,), alpha, beta)
    check_variant("crio", config.m, config.n)
    for res in iter_branches(config):
        assert target_fidelity(res.state, target) >= 1.0 - 1e-10


def test_reduction_rio_with_z_like_operator():
    # u = i gives the phase-flip action (alpha, beta) -> (alpha, -beta) up to phase
    config = ProtocolConfig(1, 0, (SU2Operator(1j, 0),), 0.6, 0.8)
    check_variant("rio", config.m, config.n)
    results = list(iter_branches(config))
    assert len(results) == 32
    target = direct_apply(config.unitaries, 0.6, 0.8)
    for res in results:
        assert target_fidelity(res.state, target) >= 1.0 - 1e-10
        amp = {bit(res.state, ket, A): a for ket, a in res.state.terms.items()}
        assert amp[1] / amp[0] == pytest.approx(-0.8 / 0.6, abs=1e-9)


def test_jrio_skips_controller_stages():
    res = run_full(ProtocolConfig(2, 0, (I2, I2), 0.6, 0.8), seed=41)
    steps = [rec["step"] for rec in res.transcript["outcomes"]]
    assert not any(s.startswith("consent") or s.startswith("control") for s in steps)
    assert res.transcript["classical_bits"] == 9


def test_crio_skips_concentrate_and_hops():
    res = run_full(ProtocolConfig(1, 1, (I2,), 0.6, 0.8), seed=43)
    steps = [rec["step"] for rec in res.transcript["outcomes"]]
    assert not any(s.startswith("concentrate") or s.startswith("hop") for s in steps)
    assert res.transcript["classical_bits"] == 7


# -- secrecy ----------------------------------------------------------------

def test_marginals_uniform_across_inputs(rng):
    reference = None
    for _ in range(5):
        alpha, beta = random_pair(rng)
        config = cfg(us=(random_su2(rng), random_su2(rng)), alpha=alpha, beta=beta)
        marg = {lbl: 0.0 for lbl in build_protocol(config).labels}
        for res in iter_branches(config):
            for lbl in marg:
                if res.bits[lbl]:
                    marg[lbl] += res.probability
        for lbl, p in marg.items():
            assert p == pytest.approx(0.5, abs=1e-12), lbl
        if reference is None:
            reference = marg
        else:
            for lbl in marg:
                assert marg[lbl] == pytest.approx(reference[lbl], abs=1e-12)


def test_controller_release_is_required(rng, fixed_polar_fix):
    # no fixed polarization Pauli can replace the v-dependent correction
    alpha, beta = 0.6, 0.8
    config = cfg(alpha=alpha, beta=beta)
    target = direct_apply(config.unitaries, alpha, beta)
    for override in (PauliPower(0, 0), PauliPower(1, 0), PauliPower(0, 1), PauliPower(1, 1)):
        fixed_polar_fix(override)
        worst = 1.0
        for res in iter_branches(config):
            fix = res.transcript["corrections"][2]
            assert (fix["x_pow"], fix["z_pow"]) == (override.x_pow, override.z_pow)
            worst = min(worst, target_fidelity(res.state, target))
        assert worst < 1.0 - 1e-10


def test_package_exports_resolve():
    import cjrio

    missing = [name for name in cjrio.__all__ if not hasattr(cjrio, name)]
    assert missing == []

import hashlib
import inspect
import itertools
import json
import pathlib

import pytest

from cjrio import protocol, stages
from cjrio.hilbert import X, HybridState, registry
from cjrio.optics import SU2Operator
from cjrio.protocol import ProtocolConfig, ProtocolRun, build_protocol, iter_branches, run_full
from cjrio.stages import CHECK_IDS, StageMismatch, make_stage_checker

from conftest import bit, random_pair, random_su2

ERRATA_FILE = pathlib.Path(__file__).resolve().parents[1] / "docs" / "errata.json"


def config_for(rng):
    alpha, beta = random_pair(rng)
    return ProtocolConfig(2, 1, (random_su2(rng), random_su2(rng)), alpha, beta)


def test_checker_rejects_other_shapes(rng):
    cfg = ProtocolConfig(3, 1, (SU2Operator(1, 0),) * 3, 0.6, 0.8)
    with pytest.raises(ValueError):
        make_stage_checker(cfg)


def test_every_checkpoint_fires_on_a_sampled_run(rng):
    cfg = config_for(rng)
    run = run_full(cfg, seed=2, check_stages=True)
    assert run.errata == []
    # the node list must carry all ten checkpoints
    ids = {node.check_id for node in build_protocol(cfg).nodes if node.check_id}
    assert ids == set(CHECK_IDS)


def test_all_branches_match_reference_forms(rng):
    cfg = config_for(rng)
    total = 0
    for res in iter_branches(cfg, check_stages=True):
        total += 1
        assert res.errata == []
    assert total == 2048


def test_mismatch_record_structure(rng):
    cfg = config_for(rng)
    checker = make_stage_checker(cfg)
    # feed the transfer checkpoint a deliberately wrong state (sign flipped)
    for res in iter_branches(cfg):
        bits = {lbl: res.bits[lbl] for lbl in ("k", "m", "n")}
        break
    run = run_full(cfg, seed=4)
    # reconstruct a post-transfer state then corrupt its relative sign
    from cjrio.hilbert import bob
    from cjrio.protocol import ProtocolRun

    r = ProtocolRun(cfg, seed=4)
    r.step(1)
    r.step(2)
    state = r.branch.state
    k = r.branch.bits["k"]
    corrupted = HybridState(state.register, state.alive, {
        ket: (-a if bit(state, ket, bob(1)) == (k ^ 1) else a)
        for ket, a in state.terms.items()
    })
    # the branch's word (bit j its j-th bit) and the whole state as its live part
    word = sum(b << j for j, b in enumerate(r.branch.bits.values()))
    record = checker(build_protocol(cfg).labels, "transfer", word, len(r.branch.bits),
                     corrupted, 0)
    assert isinstance(record, StageMismatch)
    payload = record.to_json()
    assert payload["stage"] == "transfer"
    assert payload["branch"] == r.branch.bits
    assert payload["photons"] == ["X", "A", "B1", "B2", "C1"]
    assert len(payload["simulator_coefficients"]) == len(payload["reference_coefficients"])
    for row in payload["simulator_coefficients"]:
        assert set(row) == {"paths", "pol", "amp"}


def test_documented_errata_file_exists_and_is_empty():
    data = json.loads(ERRATA_FILE.read_text())
    assert data["schema_version"] == 1
    assert sorted(data["stages"]) == sorted(CHECK_IDS)
    assert data["known_mismatches"] == []


def test_memoized_references_hide_no_mismatch(rng, monkeypatch, flipped_x):
    # A wrong fix at first_op puts every checkpoint from there on out of step
    # with its closed form, on every branch.
    flipped_x("first_op")
    cfg = config_for(rng)
    memoized = [res.errata for res in iter_branches(cfg, check_stages=True)]

    def unmemoized(config):
        # A new checker, so a new reference and verdict, for every call.
        return lambda *args: make_stage_checker(config)(*args)

    monkeypatch.setattr(stages, "make_stage_checker", unmemoized)
    fresh = [res.errata for res in iter_branches(cfg, check_stages=True)]
    assert len(memoized) == len(fresh) == 2048
    assert {e.stage for errata in memoized for e in errata} == set(CHECK_IDS[4:])
    for got, want in zip(memoized, fresh):
        assert [e.to_json() for e in got] == [e.to_json() for e in want]


def test_memoized_verdicts_hide_no_mismatch_of_half_the_branches(rng, monkeypatch, flipped_x):
    # A wrong coefficient of k in hop_close[1]'s X fix puts exactly the
    # branches with k = 1 out of step, so one live state and retired bits
    # meet both passing and failing references across the walk.
    flipped_x("hop_close[1]", bit=0)
    cfg = config_for(rng)
    memoized = [res.errata for res in iter_branches(cfg, check_stages=True)]
    monkeypatch.setattr(stages, "make_stage_checker",
                        lambda config: lambda *args: make_stage_checker(config)(*args))
    fresh = [res.errata for res in iter_branches(cfg, check_stages=True)]
    assert len(memoized) == len(fresh) == 2048
    assert sum(1 for errata in memoized if errata) == 1024
    assert {e.stage for errata in memoized for e in errata} == set(CHECK_IDS[6:])
    for got, want in zip(memoized, fresh):
        assert [e.to_json() for e in got] == [e.to_json() for e in want]


def test_one_live_state_gets_a_verdict_per_bits_read_and_retired_bits(rng):
    # One post-transfer state checked under every (k, m, n): each value has
    # a reference of its own, so the memo must not hand one verdict to all.
    cfg = config_for(rng)
    labels = build_protocol(cfg).labels
    run = ProtocolRun(cfg, seed=4)
    run.step(1)
    run.step(2)
    state, checker = run.branch.state, make_stage_checker(cfg)

    def verdict(check, word):
        record = check(labels, "transfer", word, 3, state, 0)
        return record and record.to_json()

    words = [*range(8), *range(8)]  # the second pass meets the memo
    verdicts = [verdict(checker, word) for word in words]
    assert verdicts == [verdict(make_stage_checker(cfg), word) for word in words]
    own = sum(b << j for j, b in enumerate(run.branch.bits.values()))
    assert [word for word, v in zip(words, verdicts) if v is None] == [own, own]
    # Nor one verdict to every set of retired bits: X, retired at transfer,
    # put on its other path.
    live, frozen = state.live_part()
    moved = frozen ^ state.register.mask(state.index_of(X), "spatial")
    for check in (checker, make_stage_checker(cfg)):
        assert check(labels, "transfer", own, 3, live, frozen) is None
        assert check(labels, "transfer", own, 3, live, moved) is not None


def test_checked_walk_compares_once_per_verdict_key(rng, monkeypatch):
    # A verdict is a function of (checkpoint, the bits its form reads, live
    # state, retired bits): the checker compares the live state with the
    # reference once per such key, counted here from the calls, builds no
    # full state on a passing walk and never names the bits of a check.
    calls, compared, built = [], [], []
    make, agrees, with_frozen = stages.make_stage_checker, stages._agrees, HybridState.with_frozen

    def recorded_checker(config):
        check = make(config)

        def recorded(labels, check_id, word, width, live, frozen):
            at = [labels.index(p) for p in inspect.signature(stages.FORMS[check_id]).parameters]
            calls.append((check_id, tuple(word >> j & 1 for j in at), live, frozen))
            return check(labels, check_id, word, width, live, frozen)
        return recorded

    def counted_agrees(live, frozen, ref):
        compared.append(1)
        return agrees(live, frozen, ref)

    def counted_with_frozen(state, frozen):
        built.append(1)
        return with_frozen(state, frozen)

    monkeypatch.setattr(stages, "make_stage_checker", recorded_checker)
    monkeypatch.setattr(stages, "_agrees", counted_agrees)
    monkeypatch.setattr(HybridState, "with_frozen", counted_with_frozen)
    cfg = config_for(rng)
    proto = build_protocol(cfg)
    named_bits, named = protocol._named, []
    monkeypatch.setattr(protocol, "_named", lambda *args: named.append(1) or named_bits(*args))
    assert all(res.errata == [] for res in iter_branches(cfg, check_stages=True, protocol=proto))
    assert len(calls) == 5_402
    assert len(compared) == len(set(calls)) == 2_778
    assert len(named) == 2048  # once per branch, for BranchResult.bits
    assert built == []


def test_checked_walk_builds_each_reference_once_per_bits_read(rng, monkeypatch):
    # Ten checkpoints see 5,402 edges of a (2,1) walk; the forms read 1,466
    # distinct (checkpoint, bits read) values, and the checker looks each
    # one's layout up once.  Their amplitudes go through stages._state once
    # per distinct (alive flags, codes): 12 per config.
    layouts, builds, checks = [], [], []
    layout, state = stages._layout, stages._state
    make = stages.make_stage_checker

    def counted_layout(*args):
        layouts.append(1)
        return layout(*args)

    def counted_state(*args):
        builds.append(1)
        return state(*args)

    def counted_checker(config):
        check = make(config)

        def counted(*args):
            checks.append(1)
            return check(*args)
        return counted

    monkeypatch.setattr(stages, "_layout", counted_layout)
    monkeypatch.setattr(stages, "_state", counted_state)
    monkeypatch.setattr(stages, "make_stage_checker", counted_checker)
    assert all(res.errata == [] for res in iter_branches(config_for(rng), check_stages=True))
    assert len(checks) == 5_402
    assert len(layouts) == 1_466
    assert len(builds) == 12


def test_references_share_the_protocol_register(rng, monkeypatch):
    assert registry(2, 1) is registry(2, 1)
    registers = []
    state = stages._state

    def recorded(reg, *args):
        registers.append(reg)
        return state(reg, *args)

    monkeypatch.setattr(stages, "_state", recorded)
    cfg = config_for(rng)
    res = run_full(cfg, seed=3, check_stages=True)
    assert res.errata == [] and registers
    reg = build_protocol(cfg).initial_state.register
    assert reg is registry(2, 1)
    assert res.state.register is reg
    assert all(r is reg for r in registers)


def test_alive_flag_disagreement_is_a_mismatch(rng):
    # The initial state, X still live, at the transfer checkpoint, whose
    # form has X retired: a record, not an error out of the walk.
    cfg = config_for(rng)
    proto = build_protocol(cfg)
    state = proto.initial_state
    record = make_stage_checker(cfg)(proto.labels, "transfer", 0, 3, state, 0)
    assert isinstance(record, StageMismatch)
    assert record.bits == {"k": 0, "m": 0, "n": 0}
    assert record.simulator == stages._dump(state)
    assert len(record.reference) == 4


# The bits each checkpoint's form reads, in order, and two fixed (2,1)
# configs: the second's pair after U2 has a zero amplitude, which the
# references drop.
READS = {"entangle": "k", "transfer": "kmn", "consent": "kmns", "concentrate": "kmnsl",
         "first-op": "kmnsl", "hop-link": "kmnslr", "hop-done": "kmnsg",
         "joint-measure": "kmnspqwg", "control-measure": "kmnspqwgv",
         "polar-fixed": "kmnspqwgv"}
SQRT_HALF = 0.7071067811865475  # 1 / sqrt(2), rounded
PINNED_CONFIGS = (
    ProtocolConfig(2, 1, (SU2Operator(-0.17547439839203136+0.8014734357988105j,
                                      -0.046073835870012125+0.5698475838906644j),
                          SU2Operator(-0.4341752927689969+0.5160279857654675j,
                                      0.6155850087501356+0.40775241269413204j)),
                   -0.8811999406590537-0.45498665299503344j,
                   -0.08769975050259558-0.09371533460773546j),
    ProtocolConfig(2, 1, (SU2Operator(0.6 + 0.48j, 0.64j),
                          SU2Operator(SQRT_HALF + 0j, SQRT_HALF + 0j)), SQRT_HALF, SQRT_HALF),
)
# The sha256 of every reference's coefficient rows, floats as hex, in the
# order below, as the hand-written builders of 3adcaef's stages.py made them.
PINNED_REFERENCES = "b25bf6c7bef7dfb8a1ccf391d01126663dbfab6e0429fcf1ee1c7596b5985af1"


def test_every_reference_is_pinned():
    # A state that matches no form (all photons live, its one ket with X H
    # polarized) fails every check, so each record carries its reference's
    # rows: 1,466 (checkpoint, bits read) per config.
    probe = HybridState(registry(2, 1), (True,) * 5, {0: 1 + 0j})
    digest, count = hashlib.sha256(), 0
    for cfg in PINNED_CONFIGS:
        check, labels = make_stage_checker(cfg), build_protocol(cfg).labels
        for check_id in CHECK_IDS:
            names = READS[check_id]
            for values in itertools.product((0, 1), repeat=len(names)):
                word = sum(b << labels.index(name) for name, b in zip(names, values))
                rows = check(labels, check_id, word, len(labels), probe, 0).reference
                for row in rows:
                    row["amp"] = [x.hex() for x in row["amp"]]
                digest.update(repr(rows).encode())
                count += 1
    assert count == 2 * 1_466
    assert digest.hexdigest() == PINNED_REFERENCES


def test_a_second_config_walk_makes_no_ket(rng, monkeypatch):
    # Ket layouts depend on the bits read alone: once one walk has made them,
    # another config's walk scales them and packs no ket.
    kets = []
    basis_ket = stages.BasisKet
    monkeypatch.setattr(stages, "_LAYOUTS", {})
    monkeypatch.setattr(stages, "BasisKet", lambda *args: kets.append(1) or basis_ket(*args))
    for made in (3_304, 0):
        kets.clear()
        assert all(res.errata == [] for res in iter_branches(config_for(rng), check_stages=True))
        assert len(kets) == made
    assert len(stages._LAYOUTS) == 1_466

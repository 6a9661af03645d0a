import json
import pathlib

import pytest

from cjrio import stages
from cjrio.hilbert import HybridState, registry
from cjrio.optics import SU2Operator
from cjrio.protocol import ProtocolConfig, build_protocol, iter_branches, run_full
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
    record = checker("transfer", r.branch.bits, corrupted)
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
        # A new checker, so a new reference, for every call.
        return lambda stage, bits, sim: make_stage_checker(config)(stage, bits, sim)

    monkeypatch.setattr(stages, "make_stage_checker", unmemoized)
    fresh = [res.errata for res in iter_branches(cfg, check_stages=True)]
    assert len(memoized) == len(fresh) == 2048
    assert {e.stage for errata in memoized for e in errata} == set(CHECK_IDS[4:])
    for got, want in zip(memoized, fresh):
        assert [e.to_json() for e in got] == [e.to_json() for e in want]


def test_checked_walk_builds_each_reference_once_per_bits_read(rng, monkeypatch):
    # Ten checkpoints see 5,402 edges of a (2,1) walk; the forms read 1,466
    # distinct (checkpoint, bits read) values.  Every builder makes its state
    # through stages._state once.
    builds, checks = [], []
    state = stages._state
    make = stages.make_stage_checker

    def counted_state(*args):
        builds.append(1)
        return state(*args)

    def counted_checker(config):
        check = make(config)

        def counted(*args):
            checks.append(1)
            return check(*args)
        return counted

    monkeypatch.setattr(stages, "_state", counted_state)
    monkeypatch.setattr(stages, "make_stage_checker", counted_checker)
    assert all(res.errata == [] for res in iter_branches(config_for(rng), check_stages=True))
    assert len(checks) == 5_402
    assert len(builds) <= 1_466


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

import json
import pathlib

import pytest

from cjrio.optics import SU2Operator
from cjrio.protocol import ProtocolConfig, iter_branches, run_full
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
    from cjrio.protocol import build_protocol

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
    state = r.state
    k = r.bits["k"]
    corrupted = state.replace_terms({
        ket: (-a if bit(state, ket, bob(1)) == (k ^ 1) else a)
        for ket, a in state.terms.items()
    })
    record = checker("transfer", r.bits, corrupted)
    assert isinstance(record, StageMismatch)
    payload = record.to_json()
    assert payload["stage"] == "transfer"
    assert payload["branch"] == r.bits
    assert payload["photons"] == ["X", "A", "B1", "B2", "C1"]
    assert len(payload["simulator_coefficients"]) == len(payload["reference_coefficients"])
    for row in payload["simulator_coefficients"]:
        assert set(row) == {"paths", "pol", "amp"}


def test_documented_errata_file_exists_and_is_empty():
    data = json.loads(ERRATA_FILE.read_text())
    assert data["schema_version"] == 1
    assert sorted(data["stages"]) == sorted(CHECK_IDS)
    assert data["known_mismatches"] == []

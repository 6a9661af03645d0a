"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS line with the
measured quantities when it succeeds (run with ``pytest -s`` to see them).
"""

import json
import math
import pathlib
import time

import numpy as np

from cjrio.hilbert import (BasisKet, HybridState, VERTICAL, bob,
                           build_initial_state, registry)
from cjrio.optics import PauliPower, SU2Operator
from cjrio.oracle import direct_apply, target_fidelity
from cjrio.protocol import (ProtocolConfig, ProtocolRun, build_protocol, check_variant,
                            iter_branches, run_full)

from conftest import dense_overlap, dense_reduced_purity, random_pair, random_su2

ERRATA_FILE = pathlib.Path(__file__).resolve().parents[1] / "docs" / "errata.json"
FID_TOL = 1e-10


def _report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_criterion_1_exhaustive_m2_n1():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 1.0
    for _ in range(20):
        alpha, beta = random_pair(rng)
        config = ProtocolConfig(2, 1, (random_su2(rng), random_su2(rng)), alpha, beta)
        target = direct_apply(config.unitaries, alpha, beta)
        count = 0
        for res in iter_branches(config):
            count += 1
            fid = target_fidelity(res.state, target)
            worst = min(worst, fid)
            assert fid >= 1.0 - FID_TOL
        assert count == 2048
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report("criterion 1 (exhaustive m=2 n=1)",
            f"20 configs x 2048 branches, min fidelity {worst:.17f}, {elapsed:.1f}s")


def test_criterion_2_stage_equation_suite():
    rng = np.random.default_rng(202)
    alpha, beta = random_pair(rng)
    config = ProtocolConfig(2, 1, (random_su2(rng), random_su2(rng)), alpha, beta)
    known = {
        (entry["stage"], json.dumps(entry.get("branch"), sort_keys=True))
        for entry in json.loads(ERRATA_FILE.read_text())["known_mismatches"]
    }
    undocumented = []
    count = 0
    for res in iter_branches(config, check_stages=True):
        count += 1
        for record in res.errata:
            key = (record.stage, json.dumps(record.bits, sort_keys=True))
            if key not in known:
                undocumented.append(record.to_json())
    assert count == 2048
    assert undocumented == [], f"undocumented stage mismatches: {undocumented[:3]}"
    _report("criterion 2 (per-stage closed forms)",
            f"2048 branches x 10 checkpoints, 0 undocumented mismatches")


def test_criterion_3_generalization_m3_n2():
    rng = np.random.default_rng(303)
    alpha, beta = random_pair(rng)
    config = ProtocolConfig(3, 2, tuple(random_su2(rng) for _ in range(3)), alpha, beta)
    target = direct_apply(config.unitaries, alpha, beta)
    worst = 1.0
    count = 0
    # full enumeration fits the time budget; corrections validated against
    # exhaustive Pauli search on every branch
    for res in iter_branches(config, validate_corrections=True):
        count += 1
        fid = target_fidelity(res.state, target)
        worst = min(worst, fid)
        assert fid >= 1.0 - FID_TOL
    assert count == 2 ** 17
    _report("criterion 3 (m=3 n=2 generalization)",
            f"{count} branches, min fidelity {worst:.17f}, frame = search everywhere")


def test_criterion_4_reductions():
    rng = np.random.default_rng(404)

    # jrio: no controllers
    alpha, beta = random_pair(rng)
    u1, u2 = random_su2(rng), random_su2(rng)
    jrio = ProtocolConfig(2, 0, (u1, u2), alpha, beta)
    check_variant("jrio", jrio.m, jrio.n)
    target = direct_apply((u1, u2), alpha, beta)
    jrio_fids = [target_fidelity(r.state, target) for r in iter_branches(jrio)]
    assert len(jrio_fids) == 2 ** 9
    assert min(jrio_fids) >= 1.0 - FID_TOL

    # crio: single joint party
    alpha, beta = random_pair(rng)
    u1 = random_su2(rng)
    crio = ProtocolConfig(1, 1, (u1,), alpha, beta)
    check_variant("crio", crio.m, crio.n)
    target = direct_apply((u1,), alpha, beta)
    crio_fids = [target_fidelity(r.state, target) for r in iter_branches(crio)]
    assert len(crio_fids) == 2 ** 7
    assert min(crio_fids) >= 1.0 - FID_TOL

    # the jrio channel is the three-photon state left after deleting the
    # controller factor: rebuild it by hand and compare exactly
    alpha, beta = random_pair(rng)
    built = build_initial_state(alpha, beta, 2, 0)
    reg = registry(2, 0)
    terms = {}
    for xbit, w in ((0, alpha), (1, beta)):
        for branch in (0, 1):
            for pol in (0, 1):
                ket = BasisKet((xbit, branch, branch, branch),
                               (VERTICAL, pol, pol, pol))
                terms[ket] = w / 2
    manual = HybridState(reg, (True,) * 4, terms).normalized()
    assert abs(dense_overlap(built, manual)) >= 1.0 - 1e-12
    assert set(built.terms) == set(manual.terms)

    _report("criterion 4 (reductions)",
            f"jrio min {min(jrio_fids):.17f} over 512, crio min {min(crio_fids):.17f} "
            f"over 128, 3-photon channel matches")


def test_criterion_5_secrecy_uniformity():
    rng = np.random.default_rng(505)
    u1, u2 = random_su2(rng), random_su2(rng)
    labels = build_protocol(ProtocolConfig(2, 1, (u1, u2), 1, 0)).labels

    reference = None
    worst_dev = 0.0
    for _ in range(100):
        alpha, beta = random_pair(rng)
        config = ProtocolConfig(2, 1, (u1, u2), alpha, beta)
        marg = dict.fromkeys(labels, 0.0)
        for res in iter_branches(config):
            p = res.probability
            for lbl in labels:
                if res.bits[lbl]:
                    marg[lbl] += p
        for lbl in labels:
            worst_dev = max(worst_dev, abs(marg[lbl] - 0.5))
            assert abs(marg[lbl] - 0.5) <= 1e-12
        if reference is None:
            reference = marg
        else:
            for lbl in labels:
                assert abs(marg[lbl] - reference[lbl]) <= 1e-12

    # empirical sampling against the exact marginals
    samples = 10_000
    config = ProtocolConfig(2, 1, (u1, u2), *random_pair(rng))
    gen = np.random.default_rng(55)
    counts = dict.fromkeys(labels, 0)
    for _ in range(samples):
        res = ProtocolRun(config, rng=gen).finish()
        for lbl in labels:
            counts[lbl] += res.bits[lbl]
    sigma = math.sqrt(0.25 / samples)
    worst_band = 0.0
    for lbl in labels:
        dev = abs(counts[lbl] / samples - 0.5)
        worst_band = max(worst_band, dev / sigma)
        assert dev <= 3.0 * sigma
    _report("criterion 5 (secrecy/uniformity)",
            f"100 inputs enumerated, max marginal deviation {worst_dev:.2e}; "
            f"10^4 samples, worst band use {worst_band:.2f} sigma")


def test_criterion_6_controller_power(fixed_polar_fix):
    rng = np.random.default_rng(606)

    # consent withheld at the consent gate: joint parties keep a mixed state
    worst = 0.0
    for _ in range(50):
        alpha, beta = random_pair(rng)
        config = ProtocolConfig(2, 1, (random_su2(rng), random_su2(rng)),
                                alpha, beta, consent=(False,))
        res = ProtocolRun(config, rng=rng).finish()
        assert res.blocked and res.blocked_at == "consent[1]"
        want = abs(alpha) ** 4 + abs(beta) ** 4
        st = res.state
        got = dense_reduced_purity(st, [st.index_of(bob(1)), st.index_of(bob(2))], "spatial")
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-12

    # release withheld: no fixed polarization Pauli recovers every branch
    alpha, beta = 0.6, 0.8
    config = ProtocolConfig(2, 1, (random_su2(rng), random_su2(rng)), alpha, beta)
    target = direct_apply(config.unitaries, alpha, beta)
    for override in (PauliPower(0, 0), PauliPower(1, 0),
                     PauliPower(0, 1), PauliPower(1, 1)):
        fixed_polar_fix(override)
        worst_fid = 1.0
        for res in iter_branches(config):
            worst_fid = min(worst_fid, target_fidelity(res.state, target))
        assert worst_fid < 1.0 - FID_TOL
    _report("criterion 6 (controller power)",
            f"50 blocked runs, max purity deviation {worst:.2e}; "
            f"all 4 fixed polarization Paulis fail some branch")


def test_criterion_7_classical_ledger():
    res = run_full(ProtocolConfig(2, 1, (SU2Operator(1, 0),) * 2, 0.6, 0.8), seed=77)
    names = tuple(lbl for rec in res.transcript["outcomes"] for lbl in rec["bits"])
    assert names == ("k", "m", "n", "s", "l", "r", "g", "p", "q", "w", "v")
    assert res.transcript["classical_bits"] == 11
    _report("criterion 7 (classical ledger)",
            f"bits {'.'.join(names)}, classical total 11")


def test_criterion_8_report_determinism(capsys):
    from cjrio.cli import main

    argv = ["simulate", "--m", "2", "--n", "1", "--alpha", "0.6", "--beta", "0.8",
            "--u1", "preset:hadamard-like", "--u2", "preset:pauli-x", "--seed", "123"]
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert main(list(argv)) == 0
    second = capsys.readouterr().out
    assert first.encode() == second.encode()

    argv = ["enumerate", "--m", "2", "--n", "1", "--alpha", "0.8", "--beta", "0.6",
            "--u1", "preset:identity", "--u2", "preset:hadamard-like", "--seed", "9"]
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert main(list(argv)) == 0
    second = capsys.readouterr().out
    assert first.encode() == second.encode()
    with capsys.disabled():
        _report("criterion 8 (report determinism)",
                "simulate and enumerate reports byte-identical across reruns")

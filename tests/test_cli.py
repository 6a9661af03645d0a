import json
import os
import random
import shlex
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cjrio import cli, protocol, stages
from cjrio.cli import (EXIT_BLOCKED, EXIT_BROKEN_PIPE, EXIT_CONFIG, EXIT_FIDELITY,
                       EXIT_OK, main, parse_complex, parse_unitary)
from cjrio.hilbert import Outcome, X


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_complex():
    assert parse_complex("0.6") == 0.6
    assert parse_complex("0.6+0.8j") == 0.6 + 0.8j
    assert parse_complex("0.8j") == 0.8j
    with pytest.raises(ValueError):
        parse_complex("zzz")


def test_parse_unitary_presets_and_pairs():
    op = parse_unitary("preset:identity")
    assert (op.u, op.v) == (1, 0)
    op = parse_unitary("pauli-x")
    assert (op.u, op.v) == (0, 1)
    op = parse_unitary("0.6,0.8j")
    assert op.u == 0.6 and op.v == 0.8j
    with pytest.raises(ValueError):
        parse_unitary("preset:nope")
    with pytest.raises(ValueError):
        parse_unitary("0.9,0.9")  # not unitary


def _library_transcript(argv: list[str]) -> dict:
    """The transcript of the run a seeded ``simulate`` argv samples, from the
    library, through JSON as a report holds it."""
    args = cli.make_parser().parse_args(argv)
    return json.loads(json.dumps(protocol.run_full(cli.build_config(args),
                                                   seed=args.seed).transcript))


def test_simulate_identity_pass(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--m", "2", "--n", "1", "--alpha", "0.6",
        "--beta", "0.8", "--u1", "preset:identity", "--u2", "preset:identity",
        "--seed", "42")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["branch"]["fidelity"] == pytest.approx(1.0, abs=1e-12)
    assert report["outcome_labels"] == ["k", "m", "n", "s", "l", "r", "g", "p", "q", "w", "v"]
    assert report["transcript"]["classical_bits"] == 11
    assert report["config"]["seed"] == 42


def test_simulate_blocked(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--m", "2", "--n", "1",
                           "--consent", "0", "--seed", "1")
    assert code == EXIT_BLOCKED
    report = json.loads(out)
    assert report["branch"]["blocked"] is True
    assert report["branch"]["fidelity"] is None


def test_enumerate_m2_n1(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--m", "2", "--n", "1", "--alpha", "0.6",
        "--beta", "0.8", "--u1", "preset:hadamard-like", "--u2", "preset:pauli-z",
        "--check-paper-eqs")
    assert code == EXIT_OK
    report = json.loads(out)
    agg = report["aggregate"]
    assert agg["branch_count"] == 2048
    assert agg["probability_sum"] == pytest.approx(1.0, abs=1e-10)
    assert agg["min_fidelity"] >= 1.0 - 1e-10
    assert agg["classical_bits"] == 11
    assert report["errata"] == []
    assert len(report["branches"]) == 2048
    assert report["branches"][0]["bits"] == [0] * 11


def test_simulate_m3_n2_random_operators(capsys):
    argv = ["simulate", "--m", "3", "--n", "2", "--alpha", "0.6", "--beta", "0.8",
            "--u1", "preset:hadamard-like", "--u2", "0.6,0.8j", "--u3", "preset:pauli-x",
            "--seed", "7"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["branch"]["fidelity"] >= 1.0 - 1e-10
    assert report["transcript"]["classical_bits"] == 17
    assert report["transcript"] == _library_transcript(argv)


def test_consent2_blocks_release_stage(capsys):
    argv = ["simulate", "--m", "2", "--n", "1", "--consent", "1", "--consent2", "0",
            "--seed", "2"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_BLOCKED
    report = json.loads(out)
    assert report["branch"]["blocked_at"] == "control_measure[1]"
    assert report["transcript"] == _library_transcript(argv)


def test_enumerate_rio(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--m", "1", "--n", "0",
                           "--variant", "rio", "--alpha", "0.6", "--beta", "0.8")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["aggregate"]["branch_count"] == 32
    assert report["aggregate"]["min_fidelity"] >= 1.0 - 1e-10


def test_enumerate_exits_1_when_a_wrong_fix_drops_the_fidelity(capsys, flipped_x):
    flipped_x("first_op")
    code, out, err = run_cli(capsys, "enumerate", "--m", "1", "--n", "0")
    assert code == EXIT_FIDELITY
    assert json.loads(out)["aggregate"]["min_fidelity"] < 1e-12
    assert "min fidelity" in err


def test_enumerate_over_limit(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--m", "4", "--n", "3")
    assert code == EXIT_CONFIG
    assert "2^23" in err and "8388608" in err


def test_stats_over_limit(capsys):
    code, out, err = run_cli(capsys, "stats", "--m", "4", "--n", "3")
    assert code == EXIT_CONFIG
    assert out == ""
    assert "2^23" in err and "limit 2^17" in err


def test_variant_mismatch(capsys):
    code, _, err = run_cli(capsys, "simulate", "--m", "2", "--n", "1",
                           "--variant", "rio")
    assert code == EXIT_CONFIG
    # more joint parties than there are --u flags
    code, out, err = run_cli(capsys, "simulate", "--m", "10", "--n", "0")
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("cjrio: configuration error:") and "--u1..--u9" in err


def test_non_normalized_input(capsys):
    code, _, err = run_cli(capsys, "simulate", "--alpha", "1", "--beta", "1")
    assert code == EXIT_CONFIG
    assert "normalized" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "1", "--consent", "10"],
    ["simulate", "--n", "1", "--consent", "2"],
    ["simulate", "--m", "0"],
    ["simulate", "--n", "-1"],
    ["simulate", "--m", "2", "--u3", "preset:identity"],
    ["stats", "--consent", "0"],
], ids=["mask-too-long", "mask-not-binary", "no-parties", "negative-controllers",
        "operator-past-m", "stats-vetoed"])
def test_shape_mask_and_operator_faults_are_config_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.splitlines() == [err.strip()]
    assert err.startswith("cjrio: configuration error:")


def test_unknown_flag_is_config_error(capsys):
    # the subcommand is the run mode, so there is no --mode to override it
    for argv in (["simulate", "--bogus"], ["stats", "--mode", "enumerate"],
                 ["simulate", "--mode", "enumerate"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG


def test_check_flag_needs_canonical_shape(capsys):
    code, _, err = run_cli(capsys, "simulate", "--m", "3", "--n", "1",
                           "--check-paper-eqs", "--seed", "0")
    assert code == EXIT_CONFIG
    # stats runs no stage checks, so the flag is refused there at any shape
    code, out, err = run_cli(capsys, "stats", "--check-paper-eqs")
    assert code == EXIT_CONFIG
    assert out == ""
    assert "--check-paper-eqs" in err


def test_byte_identical_reports(capsys):
    argv = ["simulate", "--m", "2", "--n", "1", "--alpha", "0.6", "--beta", "0.8",
            "--u1", "preset:hadamard-like", "--u2", "preset:identity", "--seed", "7"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2

    argv = ["enumerate", "--m", "1", "--n", "1", "--variant", "crio",
            "--alpha", "0.8", "--beta", "0.6", "--u1", "preset:pauli-x"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_output_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "simulate", "--seed", "3", "--output", str(path))
    assert code == EXIT_OK
    assert out == ""
    report = json.loads(path.read_text())
    assert report["command"] == "simulate"


def test_stats_bands(capsys):
    code, out, _ = run_cli(capsys, "stats", "--m", "2", "--n", "1",
                           "--alpha", "0.6", "--beta", "0.8", "--seed", "5",
                           "--samples", "400")
    report = json.loads(out)
    assert report["samples"] == 400
    assert set(report["bits"]) == {"k", "m", "n", "s", "l", "r", "g", "p", "q", "w", "v"}
    for row in report["bits"].values():
        assert row["expected"] == pytest.approx(0.5, abs=1e-12)
    # deterministic given the seed
    code2, out2, _ = run_cli(capsys, "stats", "--m", "2", "--n", "1",
                             "--alpha", "0.6", "--beta", "0.8", "--seed", "5",
                             "--samples", "400")
    assert out == out2


def test_stats_builds_one_protocol_for_every_sample(capsys, monkeypatch):
    build = protocol.build_protocol
    builds = []

    def counted(*args, **kwargs):
        builds.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(protocol, "build_protocol", counted)
    per_run = []
    for samples in (100, 300):
        builds.clear()
        code, out, _ = run_cli(capsys, "stats", "--m", "2", "--n", "1", "--seed", "3",
                               "--samples", str(samples))
        assert code in (EXIT_OK, EXIT_FIDELITY)
        assert json.loads(out)["samples"] == samples
        per_run.append(len(builds))
    assert per_run == [1, 1]


def test_enumerate_builds_one_protocol_and_scores_each_final_state_once(capsys, monkeypatch):
    build, fidelity = protocol.build_protocol, cli.target_fidelity
    builds, scored = [], []

    def counted_build(*args, **kwargs):
        builds.append(1)
        return build(*args, **kwargs)

    def counted_fidelity(*args):
        scored.append(1)
        return fidelity(*args)

    monkeypatch.setattr(protocol, "build_protocol", counted_build)
    monkeypatch.setattr(cli, "target_fidelity", counted_fidelity)
    code, out, _ = run_cli(capsys, "enumerate", "--m", "2", "--n", "2", "--alpha=0.6",
                           "--beta=0.8j", "--u1=0.6+0.48j,0.64j", "--u2", "preset:hadamard-like")
    assert code == EXIT_OK
    assert json.loads(out)["aggregate"]["branch_count"] == 2 ** 13
    assert builds == [1]
    # The 8,192 branches end in 4 canonical live states, plus the first
    # branch's own, which the walk builds before any table holds it.
    assert len(scored) <= 5


def _leave_x_live(monkeypatch, when=lambda k, c: True):
    """Wrap ``protocol.build_protocol`` so that the transfer outcomes of class
    ``c`` on bit ``k`` for which ``when`` holds keep photon X live, as a build
    that forgot to retire it would."""
    build = protocol.build_protocol

    def revived(build_state):
        st = build_state()
        live, x = st.adopt(st.terms), st.index_of(X)
        live.alive = st.alive[:x] + (True,) + st.alive[x + 1:]
        return live

    def leaky(*args, **kwargs):
        proto = build(*args, **kwargs)
        node = next(nd for nd in proto.nodes if nd.name == "transfer")
        run = node.run

        def run_live(proto, state, bits):
            outcomes, peak = run(proto, state, bits)
            return [Outcome(o.bits, o.p, partial(revived, o.build)) if when(bits, o.bits) else o
                    for o in outcomes], peak
        node.run = run_live
        return proto

    monkeypatch.setattr(protocol, "build_protocol", leaky)


def test_enumerate_reports_a_live_photon_instead_of_raising(capsys, monkeypatch):
    # One transfer outcome in eight keeps X live: its branches have no
    # fidelity, and the checker's records of them reach the report.
    _leave_x_live(monkeypatch, lambda k, c: k == 0 and c == 0)
    code, out, err = run_cli(capsys, "enumerate", "--m", "2", "--n", "1", "--check-paper-eqs")
    assert code == EXIT_FIDELITY
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("cjrio:")] == [
        "cjrio: protocol incomplete: photon X still live"]
    report = json.loads(out)
    fids = [b["fidelity"] for b in report["branches"]]
    assert len(fids) == 2_048 and fids.count(None) == 256
    assert min(f for f in fids if f is not None) >= protocol.FIDELITY_THRESHOLD
    stages_hit = {e["stage"] for e in report["errata"]}
    assert len(report["errata"]) == 9 * 256
    assert stages_hit == set(stages.CHECK_IDS[1:])  # from transfer on


def test_simulate_reports_a_live_photon_instead_of_raising(capsys, monkeypatch):
    _leave_x_live(monkeypatch)
    code, out, err = run_cli(capsys, "simulate", "--m", "2", "--n", "1", "--seed", "3",
                             "--check-paper-eqs")
    assert code == EXIT_FIDELITY
    assert "Traceback" not in err
    assert err.splitlines() == ["cjrio: protocol incomplete: photon X still live"]
    report = json.loads(out)
    assert report["branch"]["fidelity"] is None and not report["branch"]["blocked"]
    assert [e["stage"] for e in report["errata"]] == list(stages.CHECK_IDS[1:])


def test_stats_rejects_tiny_sample(capsys):
    code, _, err = run_cli(capsys, "stats", "--samples", "50")
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("argv", [
    ["simulate", "--alpha", "nan", "--beta", "0"],
    ["enumerate", "--m", "1", "--n", "0", "--alpha", "1", "--beta", "nan"],
    ["simulate", "--u1", "nan,0", "--alpha", "1"],
])
def test_non_finite_input_is_config_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.splitlines() == [err.strip()]
    assert err.startswith("cjrio: configuration error:") and "finite" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--m", "2", "--n", "1", "--alpha", "1e308", "--beta", "0", "--seed", "1"],
    ["enumerate", "--m", "1", "--n", "0", "--u1", "1e200,0"],
], ids=["amplitude", "operator"])
def test_overflowing_input_is_config_error(capsys, argv):
    # A finite entry whose square overflows is off the unit norm, not a crash.
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.splitlines() == [err.strip()]
    assert err.startswith("cjrio: configuration error:")
    assert "normalized" in err or "must equal 1" in err


@pytest.mark.parametrize("command", ["simulate", "enumerate", "stats"])
def test_unwritable_output_is_config_error(tmp_path, capsys, monkeypatch, command):
    def no_compute(*args, **kwargs):
        raise AssertionError("computed before the output was opened")

    monkeypatch.setattr(cli, "iter_branches", no_compute)
    monkeypatch.setattr(cli, "run_full", no_compute)
    path = tmp_path / "missing" / "r.json"
    code, out, err = run_cli(capsys, command, "--seed", "1", "--output", str(path))
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.splitlines() == [err.strip()]
    assert err.startswith("cjrio:") and str(path) in err
    assert not path.exists()


def _readme_quick_start() -> list[list[str]]:
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    return [cmd[1:] for cmd in commands if cmd and cmd[0] == "cjrio"]


def test_readme_quick_start_exit_codes(capsys):
    commands = _readme_quick_start()[:3]
    assert [c[0] for c in commands] == ["simulate", "enumerate", "simulate"]
    assert "--consent" in commands[2]
    for argv, expected in zip(commands, (EXIT_OK, EXIT_OK, EXIT_BLOCKED)):
        code, _, err = run_cli(capsys, *argv)
        assert code == expected, (argv, err)


def _reference_enumerate_report(argv: list[str]) -> str:
    """The report as built before it was streamed: every branch as a dict,
    then one json.dumps of the whole document."""
    args = cli.make_parser().parse_args(argv)
    config = cli.build_config(args)
    target = cli.direct_apply(config.unitaries, config.alpha, config.beta)
    labels = list(protocol.build_protocol(config).labels)
    branches, errata = [], []
    prob_sum, min_fid, blocked_count, classical_bits, max_terms = 0.0, None, 0, None, 0
    for res in cli.iter_branches(config, check_stages=args.check_paper_eqs):
        prob_sum += res.probability
        max_terms = max(max_terms, res.max_terms)
        errata.extend(res.errata)
        if res.blocked:
            blocked_count += 1
            branches.append({
                "bits": [res.bits[lbl] for lbl in labels if lbl in res.bits],
                "probability": res.probability,
                "fidelity": None,
                "blocked": True,
            })
            continue
        fid = cli.target_fidelity(res.state, target)
        min_fid = fid if min_fid is None else min(min_fid, fid)
        classical_bits = res.transcript["classical_bits"]
        branches.append({
            "bits": [res.bits[lbl] for lbl in labels],
            "probability": res.probability,
            "fidelity": fid,
            "blocked": False,
        })
    report = {
        "schema_version": cli.SCHEMA_VERSION,
        "command": "enumerate",
        "config": cli._config_json(config, args, "enumerate"),
        "outcome_labels": labels,
        "branches": branches,
        "aggregate": {
            "branch_count": len(branches),
            "blocked_count": blocked_count,
            "probability_sum": prob_sum,
            "min_fidelity": min_fid,
            "classical_bits": classical_bits,
            "max_terms": max_terms,
        },
        "errata": [e.to_json() for e in errata],
    }
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


STREAMED_ARGVS = {
    "check-paper-eqs": ["enumerate", "--m", "2", "--n", "1", "--alpha", "0.6",
                        "--beta=-0.8j", "--u1", "0.6+0.48j,0.64j", "--u2", "preset:pauli-z",
                        "--check-paper-eqs"],
    "consent-01": ["enumerate", "--m", "2", "--n", "2", "--consent", "01"],
    "consent2-0": ["enumerate", "--m", "2", "--n", "1", "--consent2", "0"],
    "rio": ["enumerate", "--m", "1", "--n", "0", "--variant", "rio",
            "--alpha", "0.6", "--beta", "0.8", "--u1", "preset:hadamard-like"],
}


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
@pytest.mark.parametrize("name", sorted(STREAMED_ARGVS))
def test_streamed_report_matches_reference(tmp_path, capsys, name, to_file):
    argv = STREAMED_ARGVS[name]
    expected = _reference_enumerate_report(argv)
    path = tmp_path / "r.json"
    code, out, _ = run_cli(capsys, *argv, *(["--output", str(path)] if to_file else []))
    assert code in (EXIT_OK, EXIT_BLOCKED)
    assert (path.read_text(encoding="utf-8") if to_file else out) == expected


# Any finite float, and by name the signed zero, the least subnormal and the
# exponent forms that the reference report tests never reach (every (2,2)
# probability is at least 2^-13).  No report holds a non-finite float, since
# ProtocolConfig rejects one, so the equality is claimed for finite floats.
_FLOATS = st.sampled_from([-0.0, 5e-324, 2.0 ** -17, 1e16]) | st.floats(
    allow_nan=False, allow_infinity=False)


@given(word=st.integers(0, 2 ** cli.ENUMERATE_MAX_BITS - 1), probability=_FLOATS,
       fidelity=st.none() | _FLOATS)
@example(word=0, probability=5e-324, fidelity=None)
@example(word=2 ** 17 - 1, probability=2.0 ** -17, fidelity=-0.0)
@example(word=0b10, probability=1e16, fidelity=1e16)
def test_branch_text_is_its_slice_of_the_json_dump(word, probability, fidelity):
    # Every width an enumeration can reach, each on the word's low bits,
    # blocked and not; the probability's and fidelity's texts are the ones
    # cmd_enumerate makes.
    fidelity_text = "null" if fidelity is None else float.__repr__(fidelity)
    head, tail = '{\n  "branches": [\n', "\n  ]\n}"
    for width in range(cli.ENUMERATE_MAX_BITS + 1):
        low = word & (1 << width) - 1
        for blocked in (False, True):
            entry = {"bits": [low >> j & 1 for j in range(width)], "probability": probability,
                     "fidelity": fidelity, "blocked": blocked}
            dumped = json.dumps({"branches": [entry]}, indent=2, sort_keys=True)
            assert dumped.startswith(head) and dumped.endswith(tail)
            text = cli._branch_text(low, width, cli._branch_tail(float.__repr__(probability),
                                                                 fidelity_text, blocked))
            assert text == dumped[len(head):-len(tail)]


def test_streamed_report_matches_reference_with_errata(capsys, monkeypatch):
    def always_mismatch(config):
        def check(labels, stage, word, width, live, frozen):
            # the real dump of the post-transfer state, so its row order shows
            dump = stages._dump(live.with_frozen(frozen)) if stage == "transfer" else []
            bits = {labels[j]: word >> j & 1 for j in range(width)}
            return stages.StageMismatch(stage, bits, ["X"], dump, [{"amp": [0.5, -0.0]}])
        return check

    monkeypatch.setattr(stages, "make_stage_checker", always_mismatch)
    # beta != 0 puts both amplitude branches, so four terms, in the dump
    argv = ["enumerate", "--m", "2", "--n", "1", "--alpha", "0.6", "--beta", "0.8",
            "--check-paper-eqs"]
    expected = _reference_enumerate_report(argv)
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    errata = json.loads(out)["errata"]
    assert len(errata) == 10 * 2048
    assert out == expected
    # coefficient rows come ordered by (path bits, polarization bits)
    dumps = [e["simulator_coefficients"] for e in errata if e["stage"] == "transfer"]
    assert len(dumps) == 2048
    for rows in dumps:
        keys = [(row["paths"], row["pol"]) for row in rows]
        assert len(keys) == 4 and keys == sorted(keys)
    # A blocked branch reports the mismatches of the checkpoints it passed:
    # 1024 branches vetoed at control_measure, each past 8 checkpoints.
    argv = ["enumerate", "--m", "2", "--n", "1", "--check-paper-eqs", "--consent2", "0"]
    expected = _reference_enumerate_report(argv)
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_BLOCKED
    assert len(json.loads(out)["errata"]) == 8 * 1024
    assert out == expected


def test_enumerate_memory_flat_in_branch_count(tmp_path):
    # A materialized 2048-branch report peaks near 4.7 MB; streamed, well under 1 MB.
    argv = ["enumerate", "--m", "2", "--n", "1", "--output", str(tmp_path / "r.json")]
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("command", ["simulate", "enumerate", "stats"])
def test_negative_seed_is_config_error(capsys, command):
    # numpy takes only non-negative int seeds; enumerate, which only echoes
    # the seed, refuses one too
    for seed in ("-1", "abc"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", seed])
        assert exc.value.code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--seed" in captured.err and "Traceback" not in captured.err


def _cli_env() -> dict[str, str]:
    """The environment of a CLI subprocess that imports this checkout."""
    src = str(Path(__file__).parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_the_cli_imports_no_numpy():
    # nor secrets, which brings hashlib, hmac and base64 with it
    check = ("import sys, cjrio.cli; assert 'numpy' not in sys.modules, 'numpy imported'; "
             "assert 'secrets' not in sys.modules, 'secrets imported'")
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                          env=_cli_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_the_cli_imports_no_stage_checks():
    # cjrio.stages loads on the first use of a stage-check name; a star
    # import binds every name of cjrio.__all__ all the same.
    check = ("import sys, cjrio.cli; assert 'cjrio.stages' not in sys.modules, 'stages imported'; "
             "import cjrio; names = {}; exec('from cjrio import *', names); "
             "assert len(cjrio.__all__) == 40 and not set(cjrio.__all__) - set(names)")
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                          env=_cli_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_report_bytes_do_not_depend_on_the_blas_kernel():
    # numpy's matrix product rounds one way under OpenBLAS's Haswell kernel
    # and another under SkylakeX; this run's fidelity read either digit.
    argv = [sys.executable, "-m", "cjrio.cli", "simulate", "--m", "3", "--n", "2",
            "--alpha=0.28-0.96j", "--beta=0", "--u1", "preset:hadamard-like",
            "--u2=0.6+0.48j,0.64j", "--u3", "preset:pauli-x", "--seed", "6"]
    outs = [subprocess.run(argv, capture_output=True, env={**_cli_env(), **kernel}, timeout=120,
                           check=True).stdout for kernel in ({}, {"OPENBLAS_CORETYPE": "Haswell"})]
    assert outs[0] == outs[1]
    assert b'"fidelity": 0.9999999999999999,' in outs[0]


def test_closed_stdout_exits_quietly():
    # The (2,1) report is about 500 kB, more than a pipe buffer holds, so the
    # report cannot be written out once the reader has gone.
    argv = [sys.executable, "-m", "cjrio.cli", "enumerate", "--m", "2", "--n", "1"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_cli_env())
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == EXIT_BROKEN_PIPE == 141
    assert b"Traceback" not in err and b"Exception ignored" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, to_stdout", [
    (["simulate", "--seed", "1"], True),
    (["simulate", "--seed", "1", "--output", "/dev/full"], False),
    (["enumerate", "--output", "/dev/full"], False),
], ids=["simulate-stdout", "simulate-output", "enumerate-output"])
def test_failed_report_write_is_config_error(argv, to_stdout):
    # /dev/full takes every open and fails every write: the report is lost,
    # and the run says so in one line instead of a traceback
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "cjrio.cli", *argv],
                              stdout=full if to_stdout else subprocess.DEVNULL,
                              stderr=subprocess.PIPE, env=_cli_env(), timeout=120)
    assert proc.returncode == EXIT_CONFIG
    err = proc.stderr.decode()
    assert err.splitlines() == [err.strip()]
    assert err.startswith("cjrio: cannot write report:") and "No space left" in err
    assert "Traceback" not in err and "Exception ignored" not in err


_FUZZ_PAIRS = [("1", "0"), ("0.6", "0.8"), ("0.6", "-0.8j"), ("0", "1j")]
_FUZZ_OPS = ["preset:identity", "preset:pauli-x", "pauli-z", "hadamard-like", "0.6,0.8j",
             "0.6+0.48j,0.64j"]
# The values a fault gives each flag: not numbers, not finite, out of range,
# overflowing, subnormal, bad presets, ill-formed pairs and masks of many
# lengths, and a few that are valid only at some shapes.
_FUZZ_BAD = {
    "--m": ["0", "-1", "10", "abc", "1.5", "nan", "1e308", ""],
    "--n": ["-1", "4", "abc", "inf", "2.0", ""],
    "--alpha": ["nan", "inf", "-inf", "1e308", "1e-320", "abc", "1+", "", "1,0"],
    "--beta": ["nan", "inf", "1e308", "1e-320", "abc", "0.8", "j"],
    "--u1": ["preset:nope", "preset:", "nan,0", "1e308,0", "1e-320,1", "1,1", "abc", "0,1,2",
             "inf,0", ""],
    "--u2": ["preset:bogus", "0.6,0.6", "abc,0", "1"],
    "--consent": ["", "0", "1", "2", "10", "01", "111", "x", "1 1", "0" * 9],
    "--consent2": ["", "2", "11", "abc", "0000"],
    "--seed": ["-1", "abc", str(2 ** 70), "1.5", "", "1e3"],
    "--variant": ["jrio", "crio", "rio", "bogus", ""],
    "--samples": ["50", "0", "-5", "abc", "1e9"],
}


def _fuzz_argv(rng) -> list[str]:
    """A CLI argv: a valid run at a shape up to (2,1), the costliest drawn
    least, with its flags in a random order and each spelled ``--flag value``
    or ``--flag=value`` (the latter always for a value that starts with a
    dash).  Four times in five it then carries one to three faults: a flag
    set to one of its fault values, an operator past m, a stray flag or
    a dropped flag other than ``--samples``."""
    command = rng.choice(["simulate", "enumerate", "stats"])
    m, n = rng.choice([(1, 0), (1, 1)] * 3 + [(2, 0)] * 2 + [(2, 1)])
    alpha, beta = rng.choice(_FUZZ_PAIRS)
    flags = {"--m": str(m), "--n": str(n), "--alpha": alpha, "--beta": beta,
             "--seed": str(rng.randrange(2 ** 32))}
    for i in range(1, m + 1):
        if rng.random() < 0.7:
            flags[f"--u{i}"] = rng.choice(_FUZZ_OPS)
    if n and command != "stats" and rng.random() < 0.3:
        flags["--consent2"] = rng.choice(["0", "1"])
    if command == "stats":
        flags["--samples"] = "100"
    if rng.random() < 0.8:
        for _ in range(rng.randint(1, 3)):
            fault = rng.random()
            if fault < 0.7:
                flag = rng.choice(sorted(_FUZZ_BAD))
                flags[flag] = rng.choice(_FUZZ_BAD[flag])
            elif fault < 0.8:
                flags[f"--u{rng.randint(m + 1, 10)}"] = rng.choice(_FUZZ_OPS)
            elif fault < 0.9:
                flags[rng.choice(["--bogus", "--check-paper-eqs", "--mode"])] = None
            else:  # stats would fall back on its 10,000 samples
                flags.pop(rng.choice(sorted(set(flags) - {"--samples"})), None)
    items = list(flags.items())
    rng.shuffle(items)
    argv = [command]
    for flag, val in items:
        if val is None:
            argv.append(flag)
        elif val.startswith("-") or rng.random() < 0.5:
            argv.append(f"{flag}={val}")
        else:
            argv += [flag, val]
    return argv


def test_malformed_argvs_end_in_an_exit_code_not_an_exception(capsys):
    rng = random.Random(20261020)
    codes = []
    for _ in range(300):
        argv = _fuzz_argv(rng)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        except Exception as exc:
            pytest.fail(f"{argv} raised {exc!r}")
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_FIDELITY, EXIT_BLOCKED, EXIT_CONFIG), argv
        assert "Traceback" not in err, argv
        codes.append(code)
    assert sum(code != EXIT_CONFIG for code in codes) >= len(codes) // 4

import hashlib
import json
import sys

import numpy as np
import pytest

from paulidelta import BasisPair, audit_invariant, random_circuit, simulate, theta_for
from paulidelta.circuit import LightCones
from paulidelta import bounds, cli
from paulidelta.cli import build_parser, main

ALL_ID = "\n".join(
    ["qubits 1 levels 10 output 0", "noise eps1=0.01 epsk=0.4"]
    + [f"level {i}: ID(0)" for i in range(1, 11)]
) + "\n"

CNOT_2 = """qubits 2 levels 2 output 0
noise eps1=0.1 epsk=0.45
level 1: CNOT(0,1)
level 2: H(0); RESET(1)
"""


@pytest.fixture
def all_id_file(tmp_path):
    p = tmp_path / "all_id.pdc"
    p.write_text(ALL_ID)
    return str(p)


@pytest.fixture
def cnot_file(tmp_path):
    p = tmp_path / "cnot.pdc"
    p.write_text(CNOT_2)
    return str(p)


def test_threshold_k2(capsys):
    assert main(["threshold", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "0.356406" in out


def test_threshold_cnot_only(capsys):
    assert main(["threshold", "--k", "2", "--cnot-only"]) == 0
    out = capsys.readouterr().out
    assert "0.356406" in out and "0.292893" in out


@pytest.mark.parametrize("k", ["1", "3"])
def test_threshold_cnot_only_needs_k2(k, capsys):
    assert main(["threshold", "--k", k, "--cnot-only"]) == 2
    assert "the CNOT refinement applies only to k=2" in capsys.readouterr().err


def test_threshold_k1(capsys):
    assert main(["threshold", "--k", "1"]) == 0
    assert "0.000000" in capsys.readouterr().out


def test_threshold_takes_a_400_digit_k(capsys):
    k = "1" + "0" * 400
    assert main(["threshold", "--k", k]) == 0
    assert capsys.readouterr().out == f"epsk_threshold(k={k}) 1.000000\n"


def test_threshold_bad_k():
    assert main(["threshold", "--k", "0"]) == 2


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    assert capsys.readouterr().err.endswith("error: the following arguments are required: command\n")


@pytest.fixture
def built(monkeypatch):
    """The names given to each build_parser call that main makes."""
    calls = []
    monkeypatch.setattr(cli, "build_parser", lambda names: calls.append(list(names)) or build_parser(names))
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["bogus"],
        ["decay", "--bogus", "1"],
        ["decay", "--k"],
        ["decay", "-h"],
        ["check-invariant", "--max-set-size", "x"],
        ["simulate", "--shots", "-1"],
        ["threshold"],
    ],
)
def test_one_command_parser_reads_as_the_full_parser(argv, built, capsys, monkeypatch):
    """main builds only the named command's subparser; its help, usage
    errors and exit codes are the all-commands parser's, byte for byte."""
    got = main(argv), *capsys.readouterr()
    assert built == [argv[:1] if argv and argv[0] in cli.COMMANDS else list(cli.COMMANDS)]
    monkeypatch.setattr(cli, "build_parser", lambda names: build_parser())
    assert got == (main(argv), *capsys.readouterr())


def test_main_reads_the_command_from_sys_argv(built, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["paulidelta", "threshold", "--k", "2"])
    assert main() == 0 and built == [["threshold"]]
    assert capsys.readouterr().out == "epsk_threshold(k=2) 0.356406\n"


def test_decay_all_identity_csv(all_id_file, capsys):
    assert main(["decay", "--circuit", all_id_file]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "T,measured,bound"
    assert len(lines) == 11
    for t in range(1, 11):
        cols = lines[t].split(",")
        assert cols[0] == str(t)
        assert float(cols[1]) == pytest.approx(0.99**t, abs=1e-12)
        assert float(cols[1]) <= float(cols[2]) + 1e-9


def test_decay_json_format(all_id_file, capsys):
    assert main(["decay", "--circuit", all_id_file, "--format", "json", "--t-max", "3"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["T"] for r in rows] == [1, 2, 3]
    assert rows[0]["measured"] <= rows[0]["bound"]


def test_decay_refuses_infeasible_noise(tmp_path, capsys):
    p = tmp_path / "sub.pdc"
    p.write_text("qubits 2 levels 1 output 0\nnoise eps1=0.1 epsk=0.30\nlevel 1: CNOT(0,1)\n")
    assert main(["decay", "--circuit", str(p)]) == 2
    err = capsys.readouterr().err
    assert "(1+mu^2)^k" in err


def test_decay_infeasible_circuit_passes_in_cnot_mode(tmp_path, capsys):
    p = tmp_path / "sub.pdc"
    p.write_text("qubits 2 levels 1 output 0\nnoise eps1=0.1 epsk=0.30\nlevel 1: CNOT(0,1)\n")
    assert main(["decay", "--circuit", str(p), "--cnot-only"]) == 0
    capsys.readouterr()


def test_decay_output_files_are_deterministic(tmp_path):
    args = ["decay", "--random", "n=3,T=5,pool=CNOT|H|ID", "--seed", "7", "--epsk", "0.45"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


@pytest.mark.parametrize("command", ["decay", "check-invariant"])
def test_cnot_only_refuses_other_multi_qubit_gates(command, tmp_path, capsys):
    p = tmp_path / "cz.pdc"
    p.write_text(
        "qubits 3 levels 2 output 0\nnoise eps1=0.1 epsk=0.45\n"
        "level 1: CNOT(0,1); H(2)\nlevel 2: H(0); CZ(1,2)\n"
    )
    assert main([command, "--circuit", str(p), "--cnot-only"]) == 2
    err = capsys.readouterr().err
    assert "--cnot-only" in err and "level 2, placement 1 is CZ on wires [1, 2]" in err
    argv = [command, "--random", "n=3,T=3,pool=RANDMIX2|H", "--seed", "1", "--cnot-only"]
    assert main(argv) == 2
    assert "level 1, placement 0 is UnitaryMixture" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["decay", "check-invariant", "simulate", "verify"])
def test_negative_seed_rejected(command, capsys):
    assert main([command, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "argument --seed" in err and ">= 0" in err


def test_random_requires_seed(capsys):
    assert main(["decay", "--random", "n=2,T=2,pool=CNOT|ID"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_random_pool_rejects_depol_up_front(capsys):
    assert main(["simulate", "--random", "n=2,T=2,pool=DEPOL", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert "pool token 'DEPOL' needs a strength p" in err
    assert "placement" not in err


def test_random_pool_of_one_qubit_gates_runs_on_one_wire(capsys):
    assert main(["decay", "--random", "n=1,T=3,pool=H|S", "--seed", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "T,measured,bound"
    assert main(["decay", "--random", "n=1,T=3,pool=CNOT", "--seed", "1"]) == 2
    assert "pool arity 2 gates cannot fit on n=1 wires" in capsys.readouterr().err


def test_circuit_and_random_mutually_exclusive(all_id_file, capsys):
    assert main(["decay", "--circuit", all_id_file, "--random", "n=2,T=2,pool=ID"]) == 2
    capsys.readouterr()


def test_check_invariant_passes_above_threshold(cnot_file, capsys):
    assert main(["check-invariant", "--circuit", cnot_file, "--max-set-size", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["failures"] == 0
    assert doc["sets_checked"] > 0
    assert doc["min_margin"] >= -1e-9
    assert doc["worst"]["margin"] == doc["min_margin"]


def test_check_invariant_worst_is_the_tightest_nonempty_set(capsys):
    # The empty set has lhs = rhs = 0; its margin of 0 must not pass for the worst.
    pool = ("CNOT", "H", "T", "RESET", "ID", "RANDMIX2")
    spec = "n=4,T=4,pool=" + "|".join(pool)
    argv = ["check-invariant", "--random", spec, "--seed", "7", "--max-set-size", "3"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    circ = random_circuit(4, 4, seed=7, gate_pool=pool, k=2)
    report = audit_invariant(
        circ, BasisPair("0000", "1111"), theta_for(circ.noise, 2).theta, max_size=3
    )
    nonempty = [r for r in report.records if r.qubits]
    assert doc["sets_checked"] == len(report.records) == len(nonempty) + 1
    assert doc["worst"]["qubits"]
    assert doc["min_margin"] == doc["worst"]["margin"] == min(r.margin for r in nonempty)


def test_check_invariant_max_set_size_zero(cnot_file, capsys):
    assert main(["check-invariant", "--circuit", cnot_file, "--max-set-size", "0"]) == 0
    text = capsys.readouterr().out
    doc = json.loads(text)
    assert doc["sets_checked"] == 1
    assert doc["failures"] == 0
    assert doc["min_margin"] is None and doc["worst"] is None
    assert "Infinity" not in text


def test_check_invariant_forced_theta_is_exploratory(tmp_path, capsys):
    p = tmp_path / "sub.pdc"
    p.write_text("qubits 2 levels 2 output 0\nnoise eps1=0.1 epsk=0.2\nlevel 1: CNOT(0,1)\nlevel 2: ID(0); ID(1)\n")
    assert main(["check-invariant", "--circuit", str(p), "--force-theta", "0.99"]) == 0
    captured = capsys.readouterr()
    assert "exploratory" in captured.err
    doc = json.loads(captured.out)
    assert doc["forced"] is True


@pytest.mark.parametrize("theta", ["-0.5", "nan", "2"])
def test_check_invariant_forced_theta_outside_unit_interval(cnot_file, theta, capsys):
    assert main(["check-invariant", "--circuit", cnot_file, "--force-theta", theta]) == 2
    captured = capsys.readouterr()
    assert "--force-theta must lie in (0, 1]" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["check-invariant", "--format", "csv"], "--format"),
        (["threshold", "--k", "2", "--seed", "1"], "--seed"),
        (["cnot-table", "--seed", "1"], "--seed"),
    ],
)
def test_flags_a_command_would_ignore_are_rejected(cnot_file, argv, flag, capsys):
    if argv[0] == "check-invariant":
        argv = argv + ["--circuit", cnot_file]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {flag}" in captured.err
    assert captured.out == ""


def test_check_invariant_budget(cnot_file, capsys):
    assert main(["check-invariant", "--circuit", cnot_file, "--max-sets", "2"]) == 2
    assert "budget" in capsys.readouterr().err


def test_check_invariant_output_bytes_are_pinned(tmp_path):
    # 1,896 sets of size <= 4; the digest pins every byte of the --out file
    # (records, their order and their floats) across versions.
    out = tmp_path / "audit.json"
    spec = "n=4,T=6,pool=CNOT|H|S|T|RESET|ID|RANDMIX2"
    argv = ["check-invariant", "--random", spec, "--seed", "3", "--epsk", "0.45",
            "--max-set-size", "4", "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "3a12ed19655f26121c72d2f4cfcac1179f890a23753e072310eadfef40a5d81e"
    )


@pytest.mark.parametrize(
    "spec, options, digest",
    [
        pytest.param(
            "n=8,T=20,pool=CNOT|H|S|T|RESET|ID|RANDMIX2", ["--epsk", "0.45"],
            "e250642e5c5e0cbf5605f86f9316a8bee438e307713486b4c24f96898720ce9e", id="n=8,T=20",
        ),
        # The output's light cone here touches at most 12 of the 20 wires, the engine's cap.
        pytest.param(
            "n=20,T=12,pool=CNOT|H|S|T|RESET|ID|RANDMIX2", [],
            "98b3b35bf3c06df943b5346818ea4c651e6b6dde8211bd24904c1394ddd5ca6d", id="n=20,T=12",
        ),
    ],
)
def test_decay_output_bytes_are_pinned(tmp_path, spec, options, digest, on_haswell):
    # The digest pins every byte of the --out file (each row's measured value
    # and bound) across versions, not only against the dense engine.
    out = tmp_path / "decay.txt"
    on_haswell("-m", "paulidelta.cli", "decay", "--random", spec, "--seed", "3", *options, "--out", str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_forced_theta_audit_output_bytes_are_pinned(tmp_path, on_haswell):
    # 95 sets of size <= 3, 59 of them failing at theta = 0.3: the digest pins
    # the failing records, their order and the worst set across versions.
    out = tmp_path / "audit.json"
    spec = "n=3,T=3,pool=CNOT|H|T|RESET|ID|RANDMIX2"
    on_haswell("-m", "paulidelta.cli", "check-invariant", "--random", spec, "--seed", "1",
               "--force-theta", "0.3", "--max-set-size", "3", "--out", str(out))
    doc = json.loads(out.read_text())
    assert (doc["sets_checked"], doc["failures"], len(doc["failing"])) == (95, 59, 59)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "b4a8d1ba0d04b0275c889768298c80771f391c4b9384df09c8ab165f2a98eea4"
    )


def test_check_invariant_builds_records_only_for_the_worst_and_failing_sets(monkeypatch, capsys):
    built = 0

    class Counted(bounds.InvariantRecord):
        def __init__(self, *args):
            nonlocal built
            built += 1
            super().__init__(*args)

    monkeypatch.setattr(bounds, "InvariantRecord", Counted)
    argv = ["check-invariant", "--random", "n=3,T=3,pool=CNOT|H|T|RESET|ID|RANDMIX2", "--seed", "1",
            "--force-theta", "0.3", "--max-set-size", "3"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["sets_checked"], doc["failures"]) == (95, 59)
    assert built == 1 + 59


def test_check_invariant_budget_refuses_a_deep_circuit_before_its_table(capsys, monkeypatch):
    # 804 wire-time qubits: a table of every ref's compatible later refs
    # would ask for 804 consumers; the budget stops the walk after 4 sets.
    calls = 0
    consumer = LightCones.consumer

    def count(self, b):
        nonlocal calls
        calls += 1
        return consumer(self, b)

    monkeypatch.setattr(LightCones, "consumer", count)
    argv = ["check-invariant", "--random", "n=4,T=200,pool=CNOT|H", "--seed", "1",
            "--max-set-size", "3", "--max-sets", "3"]
    assert main(argv) == 2
    assert "enumeration budget exceeded (3 sets)" in capsys.readouterr().err
    assert calls <= 3


@pytest.mark.parametrize("command", ["decay", "check-invariant"])
def test_k_below_gate_arity_rejected(cnot_file, command, capsys):
    assert main([command, "--circuit", cnot_file, "--k", "1"]) == 2
    assert "gate arity 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["decay", "check-invariant"])
def test_k_past_the_float_range_is_refused_as_infeasible(command, capsys):
    argv = [command, "--random", "n=3,T=2,pool=CNOT|H|ID", "--seed", "1", "--k", "100000"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: no feasible theta: binding constraint (1+mu^2)^k <= 2*theta gives "
        "theta=inf >= 1 for eps1=0.05, epsk=0.4\n"
    )
    assert captured.out == ""


def test_sampler_stream_is_pinned(capsys):
    # 1000 shots span several blocks; any change to the draws moves the estimate
    assert simulate.SHOT_BLOCK < 1000
    spec = "n=6,T=12,pool=CNOT|H|S|T|RESET|ID|RANDMIX2"
    assert main(["simulate", "--random", spec, "--seed", "3", "--epsk", "0.45", "--shots", "1000"]) == 0
    assert capsys.readouterr().out == (
        "distinguishability 2.50697298281e-05\nsampled(1000 shots) 0.00208121827578\n"
    )


LIGHT_CONE = (
    "error: the output's light cone at depth 12 touches 13 wires, "
    "above the coefficient-engine cap 12"
)


@pytest.mark.parametrize(
    "argv, spec, message",
    [
        # The output's light cone here reaches all 13 wires at depth 12.
        pytest.param(["decay"], "n=13,T=12,pool=CNOT|ID", LIGHT_CONE, id="decay"),
        pytest.param(["simulate"], "n=13,T=12,pool=CNOT|ID", LIGHT_CONE, id="simulate-light-cone"),
        pytest.param(
            ["check-invariant"], "n=13,T=1,pool=ID",
            "error: n=13 exceeds the coefficient-engine cap 12", id="check-invariant",
        ),
        # The exact engine needs one wire here; the sampler's states span all 13.
        pytest.param(
            ["simulate", "--shots", "1"], "n=13,T=1,pool=ID",
            "error: n=13 exceeds the sampler cap 12", id="simulate",
        ),
    ],
)
def test_engine_cap_checked_before_inputs_are_built(argv, spec, message, capsys):
    # A 13-wire coefficient vector would take 512 MiB; the cap must refuse first.
    assert main(argv + ["--random", spec, "--seed", "0"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_simulate_checks_the_sampler_before_the_exact_pass(monkeypatch, capsys):
    def exact_pass(*_):
        raise AssertionError("the exact pass ran before the sampler's checks")

    monkeypatch.setattr("paulidelta.cli.output_distinguishability", exact_pass)
    argv = ["simulate", "--random", "n=16,T=3,pool=RANDU1|H", "--seed", "1", "--shots", "5"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: n=16 exceeds the sampler cap 12\n"
    assert captured.out == ""


def test_simulate_checks_the_sampler_cap_before_drawing_the_circuit(monkeypatch, capsys):
    def draw(*_, **__):
        raise AssertionError("the circuit was drawn before the sampler's cap was checked")

    monkeypatch.setattr("paulidelta.cli.random_circuit", draw)
    argv = ["simulate", "--random", "n=16,T=3000,pool=RANDU1|H", "--seed", "1", "--shots", "5"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: n=16 exceeds the sampler cap 12\n"
    assert captured.out == ""


def test_simulate_past_the_cap_runs_on_the_output_light_cone(capsys):
    source = ["--random", "n=20,T=4,pool=CNOT|H|S|T|ID|RANDMIX2", "--seed", "1"]
    assert main(["decay"] + source) == 0
    last_row = capsys.readouterr().out.splitlines()[-1]
    assert main(["simulate"] + source) == 0
    assert capsys.readouterr().out == "distinguishability 0.0187766000311\n"
    assert last_row.split(",")[:2] == ["4", "0.0187766000311"]


@pytest.mark.parametrize(
    "spec", ["n=13,T=1,pool=ID", "n=20,T=12,pool=CNOT|H|S|T|RESET|ID|RANDMIX2"]
)
def test_decay_past_the_cap_runs_on_the_output_light_cone(spec, capsys):
    assert main(["decay", "--random", spec, "--seed", "3", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["T"] for r in rows] == list(range(1, len(rows) + 1))
    assert all(0.0 <= r["measured"] <= r["bound"] for r in rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--shots", "-3"],
        ["check-invariant", "--max-set-size", "-1"],
        ["check-invariant", "--max-sets", "-1"],
        ["verify", "--cases", "-1"],
        ["verify", "--cases", "\u00b2"],
    ],
)
def test_negative_counts_rejected(argv, capsys):
    assert main(argv) == 2
    assert ">= 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "levels, where",
    [([[{"gate": "CNOT"}]], "level 1, placement 0"), (3, "levels: ")],
)
def test_malformed_json_circuit_is_usage_error(tmp_path, levels, where, capsys):
    p = tmp_path / "bad.json"
    doc = {"qubits": 2, "levels": levels, "noise": {"eps1": 0.1, "epsk": 0.4}, "output": 0}
    p.write_text(json.dumps(doc))
    assert main(["simulate", "--circuit", str(p)]) == 2
    assert where in capsys.readouterr().err


def test_deeply_nested_json_circuit_is_usage_error(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000)
    assert main(["simulate", "--circuit", str(p)]) == 2
    err = capsys.readouterr().err
    assert "error: circuit: JSON nests too deeply" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["decay", "check-invariant", "simulate"])
@pytest.mark.parametrize("flag", ["--eps1", "--epsk"])
def test_noise_flags_are_refused_with_a_circuit_file(cnot_file, command, flag, capsys):
    assert main([command, "--circuit", cnot_file, flag, "0.9"]) == 2
    captured = capsys.readouterr()
    assert f"error: {flag} applies only to --random" in captured.err
    assert captured.out == ""


def test_verify_default_passes(capsys):
    assert main(["verify", "--cases", "5", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "engine-equivalence: 5 cases, 0 failures" in out
    assert "gate-validation" in out
    assert out.strip().endswith("PASS")


def test_verify_reports_a_raising_suite_as_a_failure(monkeypatch, capsys):
    # A non-Hermitian "evolved" operator makes coeffs_from_op raise; that is a
    # detected defect (exit 1, every suite reported), not a usage error.
    def broken(circ, op, cut):
        out = np.zeros_like(op)
        out[0, -1] = 1.0
        return out

    monkeypatch.setattr("paulidelta.verify.evolve_density", broken)
    assert main(["verify", "--cases", "3"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "engine-equivalence: 3 cases, 1 failures"
    assert lines[-2] == "gate-validation: 3 cases, 0 failures"
    assert lines[-1] == "FAIL"
    assert "engine-equivalence: raised ValueError: operator is not Hermitian" in captured.err


def test_verify_zero_cases(capsys):
    assert main(["verify", "--cases", "0"]) == 0
    out = capsys.readouterr().out
    assert "0 cases, 0 failures" in out


def test_cnot_table(capsys):
    assert main(["cnot-table"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 17
    rows = {l.split()[0]: l.split() for l in lines[1:]}
    assert rows["II"][1] == "II" and rows["II"][2] == "+1"
    assert rows["XI"][1] == "XX" and rows["XI"][2] == "+1"
    assert rows["IZ"][1] == "ZZ" and rows["IZ"][2] == "+1"
    assert rows["YY"][1] == "XZ" and rows["YY"][2] == "-1"
    for cols in rows.values():
        assert not (cols[3] == "I*" and cols[4] == "*I")
        assert not (cols[3] == "*I" and cols[4] == "I*")


def test_simulate_exact_and_sampled(cnot_file, capsys):
    assert main(["simulate", "--circuit", cnot_file]) == 0
    out1 = capsys.readouterr().out
    assert out1.startswith("distinguishability ")
    assert main(["simulate", "--circuit", cnot_file, "--shots", "50", "--seed", "3"]) == 0
    out2 = capsys.readouterr().out
    assert "sampled(50 shots)" in out2
    assert main(["simulate", "--circuit", cnot_file, "--shots", "50", "--seed", "3"]) == 0
    assert capsys.readouterr().out == out2


def test_simulate_json_circuit_by_extension(tmp_path, capsys):
    from paulidelta import circuit_to_json, parse_circuit

    j = tmp_path / "c.json"
    j.write_text(circuit_to_json(parse_circuit(CNOT_2)))
    assert main(["simulate", "--circuit", str(j)]) == 0
    capsys.readouterr()


def test_bad_input_pair_bits(cnot_file, capsys):
    assert main(["simulate", "--circuit", cnot_file, "--rho", "012"]) == 2
    assert "--rho and --tau must be 2 bits of 0/1, got '012', '11'" in capsys.readouterr().err


def test_missing_circuit_file(capsys):
    assert main(["simulate", "--circuit", "/nonexistent.pdc"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "spec, message",
    [
        ("n=two,T=2,pool=CNOT", "--random n must be an integer >= 1, got 'two'"),
        ("n=2,T=2.5,pool=CNOT", "--random T must be an integer >= 0, got '2.5'"),
        ("n=2,T=2,pool=CNOT,k=x", "--random k must be an integer >= 1, got 'x'"),
        ("n=2,T=-1,pool=CNOT", "--random T must be an integer >= 0, got '-1'"),
        ("n=2,T=2,pool=CNOT,t=9", "--random has unknown key 't'"),
        ("n=3,T=2,pool=CNOT,n=4", "--random gives n more than once"),
        ("n=2,T=2", "--random spec missing pool"),
    ],
)
def test_bad_random_spec_is_located(spec, message, capsys):
    assert main(["simulate", "--random", spec, "--seed", "1"]) == 2
    assert message in capsys.readouterr().err


def test_cli_never_builds_a_dense_input_pair(cnot_file, tmp_path, monkeypatch):
    import paulidelta.bounds
    import paulidelta.paulis
    import paulidelta.simulate

    def refuse(*args, **kwargs):
        raise AssertionError("the CLI built a dense input")

    monkeypatch.setattr(paulidelta.simulate.InputPair, "__post_init__", refuse)
    for module in (paulidelta.paulis, paulidelta.simulate, paulidelta.bounds):
        monkeypatch.setattr(module, "coeffs_from_op", refuse, raising=False)
    out = str(tmp_path / "out")
    assert main(["decay", "--circuit", cnot_file, "--out", out]) == 0
    assert main(["check-invariant", "--circuit", cnot_file, "--out", out]) == 0
    assert main(["simulate", "--circuit", cnot_file, "--shots", "20", "--seed", "1", "--out", out]) == 0

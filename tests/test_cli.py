"""Command-line surface: exit codes, report determinism, file formats."""

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from qmlab.cli import main
from qmlab.oracles import read_batch


def invoke(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestRun:
    def test_accept_exit_zero(self, capsys):
        code, out = invoke(capsys, "run", "--machine", "lprime", "--input", "aca")
        assert code == 0
        assert "verdict=accept" in out

    def test_reject_exit_one(self, capsys):
        code, out = invoke(capsys, "run", "--machine", "lprime", "--input", "acb")
        assert code == 1
        assert "verdict=reject" in out

    def test_unknown_machine_exit_two(self, capsys):
        assert main(["run", "--machine", "nope:9", "--input", "a"]) == 2

    def test_step_limit_exit_four(self, capsys):
        code, _ = invoke(capsys, "run", "--machine", "lprime",
                         "--input", "ab0c0ab", "--max-steps", "3")
        assert code == 4
        code, out = invoke(capsys, "run", "--machine", "lprime",
                           "--input", "ab0c0ab", "--max-steps", "0")
        assert code == 4 and "steps=0 " in out

    @pytest.mark.parametrize("argv", [
        ["run", "--machine", "lprime", "--input", "ab0c0ab", "--max-steps", "-3"],
        ["verify", "--suite", "pi", "--k-max", "2", "--max-steps", "-1"],
    ])
    def test_negative_max_steps_is_a_usage_error(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --max-steps must be >= 0")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv,needle", [
        (["run", "--machine", "tk:7", "--input", "0"], "error: unknown machine 'tk:7'"),
        (["run", "--machine", "anbn:foo", "--input", "ab"],
         "error: unknown machine 'anbn:foo': bad machine parameter"),
        (["bench", "--machine", "anbn:foo", "--min-exp", "3", "--max-exp", "6"],
         "error: bad machine parameter in 'anbn:foo'"),
        (["bench", "--machine", "mk:x", "--min-exp", "3", "--max-exp", "6"],
         "error: bad machine parameter in 'mk:x'"),
        (["bench", "--machine", "lprime", "--min-exp", "0", "--max-exp", "3"],
         "error: sizes must be distinct"),
        (["verify", "--suite", "lprime", "--k-max", "-1", "--cases", "2"],
         "error: --k-max must be >= 0, not -1"),
        (["verify", "--suite", "fk", "--cases", "-2"], "error: --cases must be >= 0"),
        (["verify", "--suite", "anbn", "--len-max", "-1"], "error: --len-max must be"),
        (["verify", "--suite", "lprime", "--exhaustive-len", "-1"],
         "error: --exhaustive-len must be"),
        (["bench", "--machine", "lprime", "--min-exp", "-3", "--max-exp", "1"],
         "error: --min-exp must be >= 0"),
        (["bench", "--machine", "lprime", "--min-exp", "1", "--max-exp", "-1"],
         "error: --max-exp must be >= 0"),
        (["gen", "--family", "lprime", "--count", "3", "--k-max", "-1", "--out", "x"],
         "error: --k-max must be >= 0"),
        (["gen", "--family", "anbn", "--count", "-1", "--out", "x"],
         "error: --count must be >= 0"),
        (["verify", "--suite", "fk", "--cases", "3", "--max-steps", "1"],
         "error: --max-steps applies only with --batch"),
        (["verify", "--suite", "fk", "--batch", "/nonexistent"],
         "error: --batch applies only to the lprime suite"),
        (["run", "--machine", "lprime", "--max-steps", "x"],
         "error: argument --max-steps: invalid int value: 'x'"),
        (["run", "--input", "a"], "error: the following arguments are required: --machine"),
        ([], "error: the following arguments are required: command"),
        (["verify", "--suite", "pi", "--k-max", "2", "a\nb"],
         "error: unrecognized arguments: a\\nb"),
    ])
    def test_usage_error_is_one_line_exit_two(self, capsys, argv, needle):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(needle) and captured.err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: qmlab run")

    @pytest.mark.parametrize("name", ["tk:7", "mk:65"])
    def test_builtin_k_above_bound_exit_two(self, capsys, name):
        assert main(["run", "--machine", name, "--input", "0"]) == 2
        err = capsys.readouterr().err
        assert "takes k <=" in err and err.count("\n") == 1

    def test_trace_file(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        code, _ = invoke(capsys, "run", "--machine", "lprime", "--input", "aca",
                         "--trace", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "step,state,consumed,len(q),emit"
        assert len(lines) == 7   # header + 6 steps
        assert lines[1].startswith("1,store_w,y,1,")

    def test_dump_spec_round_trip(self, capsys, tmp_path):
        path = tmp_path / "mk2.qm"
        code, _ = invoke(capsys, "run", "--machine", "mk:2",
                         "--dump-spec", str(path))
        assert code == 0
        code, out = invoke(capsys, "run", "--machine", str(path),
                           "--input", "01#1$00$11$")
        assert code == 0
        assert "output=01$10$" in out

    def test_machine_output(self, capsys):
        code, out = invoke(capsys, "run", "--machine", "mk:2",
                           "--input", "01#1$00$11$")
        assert code == 0
        assert "output=01$10$" in out


class TestGenAndBatch:
    def test_gen_then_run_batch(self, capsys, tmp_path):
        path = tmp_path / "cases.tsv"
        code, out = invoke(capsys, "gen", "--family", "lprime", "--count", "40",
                           "--seed", "5", "--out", str(path))
        assert code == 0
        cases = read_batch(path)
        assert len(cases) == 40
        code, out = invoke(capsys, "run", "--machine", "lprime", "--batch", str(path))
        assert code == 0
        assert "40/40 cases matched" in out

    def test_gen_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        invoke(capsys, "gen", "--family", "fk", "--count", "30", "--seed", "9",
               "--out", str(a))
        invoke(capsys, "gen", "--family", "fk", "--count", "30", "--seed", "9",
               "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_fk_batch_checks_outputs(self, capsys, tmp_path):
        path = tmp_path / "fk.tsv"
        invoke(capsys, "gen", "--family", "fk", "--count", "20", "--seed", "3",
               "--out", str(path))
        cases = read_batch(path)
        assert any(c.expected.startswith("output=") for c in cases)
        assert any(c.expected == "reject" for c in cases)

    def test_anbn_batch(self, capsys, tmp_path):
        path = tmp_path / "anbn.tsv"
        invoke(capsys, "gen", "--family", "anbn", "--count", "20", "--seed", "2",
               "--out", str(path))
        code, out = invoke(capsys, "run", "--machine", "anbn:linear",
                           "--batch", str(path))
        assert code == 0

    def test_verify_reads_generated_batch(self, capsys, tmp_path):
        path = tmp_path / "cases.tsv"
        invoke(capsys, "gen", "--family", "lprime", "--count", "30", "--seed", "8",
               "--out", str(path))
        code, out = invoke(capsys, "verify", "--suite", "lprime",
                           "--batch", str(path))
        assert code == 0
        assert "cases=30 failures=0" in out


class TestBatchErrors:
    """Bad batch files end with a documented exit code and a one-line error."""

    def malformed(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("aca\taccept\tmember\nno-tabs-here\n")
        return path

    def outside_alphabet(self, tmp_path):
        path = tmp_path / "alien.tsv"
        path.write_text("aca\taccept\tmember\naxa\treject\talien\n")
        return path

    def check_error(self, capsys, argv, code, needle):
        assert main(argv) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("\n") == 1
        assert needle in err

    def test_run_malformed_line_exit_three(self, capsys, tmp_path):
        path = self.malformed(tmp_path)
        self.check_error(capsys, ["run", "--machine", "lprime", "--batch", str(path)],
                         3, f"error: {path}:2: expected 3 tab-separated fields")

    def test_verify_malformed_line_exit_three(self, capsys, tmp_path):
        path = self.malformed(tmp_path)
        self.check_error(capsys, ["verify", "--suite", "lprime", "--batch", str(path)],
                         3, f"error: {path}:2: expected 3 tab-separated fields")

    def test_run_symbol_outside_alphabet_exit_two(self, capsys, tmp_path):
        path = self.outside_alphabet(tmp_path)
        self.check_error(capsys, ["run", "--machine", "lprime", "--batch", str(path)],
                         2, "batch case 1:")

    def test_verify_symbol_outside_alphabet_exit_two(self, capsys, tmp_path):
        path = self.outside_alphabet(tmp_path)
        self.check_error(capsys, ["verify", "--suite", "lprime", "--batch", str(path)],
                         2, "batch case 1:")

    def test_cli_subprocess_prints_no_traceback(self, tmp_path):
        path = self.malformed(tmp_path)
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "qmlab", "run", "--machine", "mk:1",
             "--batch", str(path)], capture_output=True, text=True, env=env)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr


class TestVerify:
    def test_pi_suite_passes(self, capsys):
        code, out = invoke(capsys, "verify", "--suite", "pi", "--k-max", "12")
        assert code == 0
        assert "failures=0" in out
        assert out.count("PASS") == 26

    def test_formulas_suite_passes(self, capsys):
        code, out = invoke(capsys, "verify", "--suite", "formulas", "--k-max", "6")
        assert code == 0
        assert "failures=0" in out

    def test_lprime_suite_k_max_zero_has_no_v_mismatch_cases(self, capsys):
        code, out = invoke(capsys, "verify", "--suite", "lprime", "--k-max", "0",
                           "--cases", "2")
        assert code == 0
        assert "PASS lprime:v-mismatch cases=0\n" in out
        assert "PASS lprime:member cases=2\n" in out

    def test_unknown_suite(self, capsys):
        assert main(["verify", "--suite", "mystery"]) == 2

    def test_seeded_reports_byte_identical(self, capsys):
        _, out1 = invoke(capsys, "verify", "--suite", "formulas", "--k-max", "5",
                         "--seed", "42")
        _, out2 = invoke(capsys, "verify", "--suite", "formulas", "--k-max", "5",
                         "--seed", "42")
        assert out1 == out2

    def test_worker_count_does_not_change_report(self, capsys):
        args = ["verify", "--suite", "lprime", "--cases", "40", "--k-max", "4",
                "--seed", "7"]
        _, serial = invoke(capsys, *args, "--workers", "1")
        _, fanned = invoke(capsys, *args, "--workers", "2")
        assert serial == fanned

    def test_json_format(self, capsys):
        code, out = invoke(capsys, "verify", "--suite", "pi", "--k-max", "3",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["failures"] == 0
        assert len(data["checks"]) == 8


class TestBench:
    def test_csv_shape_and_summary(self, capsys):
        code, out = invoke(capsys, "bench", "--machine", "mk:2",
                           "--min-exp", "6", "--max-exp", "9")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,steps,max_len,verdict"
        assert len([l for l in lines if not l.startswith(("n,", "#"))]) == 4
        assert lines[-1].startswith("# machine=mk:2")
        assert "verdict=linear" in lines[-1]

    def test_csv_byte_stable(self, capsys):
        args = ["bench", "--machine", "lprime", "--min-exp", "6", "--max-exp", "9",
                "--seed", "3"]
        _, a = invoke(capsys, *args)
        _, b = invoke(capsys, *args)
        assert a == b

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "bench.csv"
        code, out = invoke(capsys, "bench", "--machine", "anbn:linear",
                           "--min-exp", "4", "--max-exp", "7", "--out", str(path))
        assert code == 0
        assert path.read_text().startswith("n,steps,max_len,verdict")

    def test_json_format(self, capsys):
        code, out = invoke(capsys, "bench", "--machine", "mk:1", "--min-exp", "6",
                           "--max-exp", "9", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "linear"
        assert len(data["rows"]) == 4

    def test_too_few_sizes(self, capsys):
        assert main(["bench", "--machine", "mk:1", "--min-exp", "8",
                     "--max-exp", "9"]) == 2


def test_workers_env_override(monkeypatch):
    from qmlab.analysis import effective_workers
    monkeypatch.setenv("QMLAB_WORKERS", "3")
    assert effective_workers() == 3
    monkeypatch.delenv("QMLAB_WORKERS")
    assert effective_workers(5) == 5
    assert effective_workers() >= 1


def test_bad_workers_env_is_a_usage_error(monkeypatch, capsys):
    from qmlab.analysis import effective_workers
    monkeypatch.setenv("QMLAB_WORKERS", "abc")
    with pytest.raises(ValueError, match="QMLAB_WORKERS"):
        effective_workers()
    assert main(["verify", "--suite", "pi", "--k-max", "2"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: QMLAB_WORKERS") and err.count("\n") == 1


def test_console_entry_point_subprocess():
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "qmlab", "run", "--machine", "lprime",
         "--input", "aca"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "verdict=accept" in proc.stdout


def test_check_formulas_exits_one_on_a_mismatched_row(monkeypatch, capsys):
    import runpy

    from qmlab import analysis, cli

    real = analysis.lprime_timing

    def off_by_one_at_k2(inst, max_steps=None):
        t = real(inst, max_steps)
        return replace(t, predicted_tail=t.predicted_tail + 1) if t.k == 2 else t

    monkeypatch.setattr(analysis, "lprime_timing", off_by_one_at_k2)
    monkeypatch.setattr(cli, "main", lambda argv: 0)   # the verify suites pass
    monkeypatch.setattr(sys, "argv", ["check_formulas.py", "3"])
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "check_formulas.py")
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(script, run_name="__main__")
    out = capsys.readouterr().out
    assert out.count("<-- MISMATCH") == 1
    assert exit_.value.code == 1

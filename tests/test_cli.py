"""Command-line surface: exit codes, report determinism, file formats."""

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from qmlab import analysis, oracles
from qmlab.cli import QUADRATIC_MAX_EXP, SUITE_K_MAX, VERIFY_FLAGS, main
from qmlab.oracles import read_batch


def invoke(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def no_pool(processes=None, *args, **kwargs):
    pytest.fail(f"started a pool of {processes} processes")


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
        (["run", "--machine", "lprime", "--batch", "b.tsv", "--trace", "t.csv",
          "--input", "zzz"], "error: give --input or --batch, not both"),
        (["run", "--machine", "lprime", "--trace", "t.csv"], "error: --trace needs --input"),
        (["verify", "--suite", "fk", "--k-max", "1"],
         "error: --k-max does not apply to the fk suite"),
        (["verify", "--suite", "pi", "--cases", "5", "--len-max", "3", "--exhaustive-len", "2",
          "--workers", "2"], "error: --cases does not apply to the pi suite"),
        (["verify", "--suite", "anbn", "--seed", "5"],
         "error: --seed does not apply to the anbn suite"),
        (["verify", "--suite", "lprime", "--batch", "b.tsv", "--cases", "3"],
         "error: --cases does not apply with --batch"),
        (["gen", "--family", "anbn", "--k-max", "9", "--out", "x"],
         "error: --k-max does not apply to the anbn family"),
        (["verify", "--suite", "pi", "--k-max", "17"],
         "error: --k-max for the pi suite must be <= 16, not 17"),
        (["verify", "--suite", "formulas", "--k-max", "40", "--seed", "2000"],
         "error: --k-max for the formulas suite must be <= 16, not 40"),
        (["verify", "--suite", "lprime", "--k-max", "17", "--cases", "1", "--workers", "1"],
         "error: --k-max for the lprime suite must be <= 16, not 17"),
        (["gen", "--family", "lprime", "--k-max", "17", "--out", "x"],
         "error: --k-max for the lprime family must be <= 16, not 17"),
        (["bench", "--machine", "lprime", "--max-exp", "21"],
         "error: --max-exp must be <= 20, not 21"),
        (["verify", "--suite", "lprime", "--exhaustive-len", "17", "--k-max", "1", "--cases", "1",
          "--workers", "1"], "error: --exhaustive-len for the lprime suite must be <= 16, not 17"),
        (["verify", "--suite", "anbn", "--len-max", "17"],
         "error: --len-max for the anbn suite must be <= 16, not 17"),
        (["gen", "--family", "fk", "--k-max", "0", "--count", "4", "--out", "x"],
         "error: --k-max for the fk family must be in 1..64, not 0"),
        (["gen", "--family", "fk", "--k-max", "65", "--out", "x"],
         "error: --k-max for the fk family must be in 1..64, not 65"),
        (["verify", "--suite", "fk", "--cases", "1", "--workers", "-5"],
         "error: --workers must be >= 0, not -5"),
        (["bench", "--machine", "anbn:quadratic", "--max-exp", "14"],
         "error: --max-exp for anbn:quadratic must be <= 13, not 14"),
        (["verify", "--suite", "fk", "--cases", "1", "--workers", "100000"],
         "error: --workers must be in 0..64, not 100000"),
    ])
    def test_usage_error_is_one_line_exit_two(self, capsys, monkeypatch, tmp_path, argv,
                                              needle):
        real = oracles.SplitMix64.letters

        def bounded_letters(self, n):
            # A size flag above its bound must stop before it builds a word
            # longer than any bound admits.
            assert n <= 1 << 16, f"a usage error built a word of {n} letters"
            return real(self, n)

        def bounded(fn):
            # ... or before it enumerates words longer than any bound admits.
            def call(max_len):
                assert max_len <= SUITE_K_MAX, f"a usage error called {fn.__name__}({max_len})"
                return fn(max_len)
            return call

        real_point = analysis.growth_point

        def bounded_point(name, target, seed):
            # ... or before it runs a bench size that no machine admits.
            assert target <= 1 << QUADRATIC_MAX_EXP, f"a usage error ran {name} at {target}"
            return real_point(name, target, seed)

        monkeypatch.setattr(oracles.SplitMix64, "letters", bounded_letters)
        for name in ("shape_compositions", "_anbn_words"):
            monkeypatch.setattr(analysis, name, bounded(getattr(analysis, name)))
        monkeypatch.setattr(analysis, "growth_point", bounded_point)
        monkeypatch.setattr(analysis.multiprocessing, "Pool", no_pool)
        monkeypatch.chdir(tmp_path)   # a gen that is wrongly accepted writes here
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(needle) and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv,needle", [
        (["run", "--machine", "invalid.qm", "--input", "0"],
         "error: invalid machine file: start state 'b' not declared"),
        (["run", "--machine", "malformed.qm", "--input", "0"], "error: line 2: "),
        (["run", "--machine", "latin1.qm", "--input", "0"], "codec can't decode"),
        (["run", "--machine", ".", "--input", "0"], "Is a directory"),
        (["run", "--machine", "lprime", "--batch", "missing.tsv"], "No such file"),
        (["verify", "--suite", "lprime", "--batch", "missing.tsv"], "No such file"),
        (["gen", "--family", "lprime", "--count", "2", "--out", "missing/x.tsv"],
         "No such file"),
        (["run", "--machine", "lprime", "--input", "aca", "--trace", "missing/t.csv"],
         "No such file"),
        (["run", "--machine", "mk:1", "--dump-spec", "missing/mk1.qm"], "No such file"),
        (["bench", "--machine", "mk:1", "--min-exp", "3", "--max-exp", "6",
          "--out", "missing/b.csv"], "No such file"),
    ], ids=["invalid-machine", "malformed-machine", "non-utf8-machine", "directory-machine",
            "run-missing-batch", "verify-missing-batch", "gen-out", "run-trace",
            "run-dump-spec", "bench-out"])
    def test_file_error_is_one_line_exit_three(self, capsys, monkeypatch, tmp_path, argv,
                                               needle):
        (tmp_path / "invalid.qm").write_text(
            "name: bad\nstates: a\nstart: b\ninput_alphabet: 01\noutput_alphabet:\n")
        (tmp_path / "malformed.qm").write_text("name: bad\nno header here\n")
        (tmp_path / "latin1.qm").write_bytes("name: b\xe4d\n".encode("latin-1"))
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert needle in captured.err

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

    def test_step_limited_batch(self, capsys, tmp_path):
        """run --batch compares verdict strings; verify --batch counts any run
        that does not accept as a rejection, so only the members fail."""
        path = tmp_path / "limited.tsv"
        path.write_text("aca\taccept\tm\nab0c0ba\treject\tn\nacb\treject\tr\n"
                        "ab0c0ab\taccept\tm2\n")
        code, out = invoke(capsys, "run", "--machine", "lprime", "--batch", str(path),
                           "--max-steps", "5")
        assert code == 1
        assert out == (
            "FAIL case 0 tag=m word=aca expected=accept got=step_limit_exceeded\n"
            "FAIL case 1 tag=n word=ab0c0ba expected=reject got=step_limit_exceeded\n"
            "FAIL case 3 tag=m2 word=ab0c0ab expected=accept got=step_limit_exceeded\n"
            f"batch {path}: 1/4 cases matched\n")
        code, out = invoke(capsys, "verify", "--suite", "lprime", "--batch", str(path),
                           "--max-steps", "5")
        assert code == 1
        assert out == (
            "FAIL case 0 tag=m expected=accept oracle=accept got=step_limit_exceeded\n"
            "FAIL case 3 tag=m2 expected=accept oracle=accept got=step_limit_exceeded\n"
            f"verify suite=lprime batch={path} cases=4 failures=2\n")

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

    @pytest.mark.parametrize("argv,report", [
        (["pi", "--k-max", "2"], """\
PASS pi:k=00.matches-halving n=1
PASS pi:k=00.permutation n=1
PASS pi:k=01.matches-halving n=2
PASS pi:k=01.permutation n=2
PASS pi:k=02.matches-halving n=4
PASS pi:k=02.permutation n=4
verify suite=pi seed=1 checks=6 failures=0
"""),
        (["formulas", "--k-max", "2"], """\
PASS formulas:k=00.cycle-lengths observed=[2] predicted=[2]
PASS formulas:k=00.prefix-realtime min-delay=0
PASS formulas:k=00.tail-steps observed=4 predicted=4
PASS formulas:k=00.verdict verdict=accept
PASS formulas:k=01.cycle-lengths observed=[5, 2] predicted=[5, 2]
PASS formulas:k=01.prefix-realtime min-delay=0
PASS formulas:k=01.tail-steps observed=9 predicted=9
PASS formulas:k=01.verdict verdict=accept
PASS formulas:k=02.cycle-lengths observed=[9, 5, 2] predicted=[9, 5, 2]
PASS formulas:k=02.prefix-realtime min-delay=0
PASS formulas:k=02.tail-steps observed=18 predicted=18
PASS formulas:k=02.verdict verdict=accept
verify suite=formulas seed=1 checks=12 failures=0
"""),
        (["anbn", "--len-max", "3"], """\
PASS anbn:linear.exhaustive words=15 max-len=3
PASS anbn:quadratic.exhaustive words=15 max-len=3
PASS anbn:speedup.monotone linear/quadratic step ratios=['0.4500', '0.2396', '0.1232', \
'0.0623', '0.0312', '0.0156', '0.0078', '0.0039']
verify suite=anbn seed=1 checks=3 failures=0
"""),
        (["fk", "--cases", "2"], """\
PASS fk:k=1 cases=2
PASS fk:k=2 cases=2
PASS fk:k=3 cases=2
verify suite=fk seed=1 checks=3 failures=0
"""),
        (["lprime", "--k-max", "1", "--cases", "2", "--exhaustive-len", "4"], """\
PASS lprime:bad-format cases=2
PASS lprime:bad-length cases=2
PASS lprime:exhaustive words=209 max-len=4
PASS lprime:member cases=2
PASS lprime:v-mismatch cases=2
PASS lprime:w-not-pi cases=2
verify suite=lprime seed=1 checks=6 failures=0
"""),
    ])
    def test_golden_report(self, capsys, argv, report):
        assert invoke(capsys, "verify", "--suite", *argv) == (0, report)

    def test_verify_flags_are_the_readme_table(self):
        # The flag table of the README, without --format and the --batch form.
        assert VERIFY_FLAGS == {"lprime": ("k_max", "cases", "seed", "exhaustive_len", "workers"),
                                "fk": ("cases", "seed", "workers"),
                                "anbn": ("len_max",),
                                "formulas": ("k_max", "seed"),
                                "pi": ("k_max", "seed")}

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


@pytest.mark.parametrize("env,argv,needle", [
    ("100000", [], "error: QMLAB_WORKERS must be in 0..64, not 100000"),
    ("-5", [], "error: QMLAB_WORKERS must be in 0..64, not -5"),
    (None, ["--workers", "65"], "error: --workers must be in 0..64, not 65"),
])
def test_worker_count_outside_its_bound_is_a_usage_error(monkeypatch, capsys, env, argv,
                                                         needle):
    monkeypatch.setattr(analysis.multiprocessing, "Pool", no_pool)
    if env is None:
        monkeypatch.delenv("QMLAB_WORKERS", raising=False)
    else:
        monkeypatch.setenv("QMLAB_WORKERS", env)
    assert main(["verify", "--suite", "fk", "--cases", "1", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(needle) and captured.err.count("\n") == 1


def test_parallel_map_starts_at_most_one_process_per_task(monkeypatch):
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(analysis.multiprocessing, "Pool", SerialPool)
    assert analysis.parallel_map(abs, [-1, -2, -3], workers=analysis.MAX_WORKERS) == [1, 2, 3]
    assert analysis.parallel_map(abs, [-4, -5, -6], workers=2) == [4, 5, 6]
    assert analysis.parallel_map(abs, [-7], workers=8) == [7]
    assert sizes == [3, 2]


def test_console_entry_point_subprocess():
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "qmlab", "run", "--machine", "lprime",
         "--input", "aca"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "verdict=accept" in proc.stdout


def test_verify_exits_one_on_a_failed_check(monkeypatch, capsys):
    from qmlab import analysis

    real = analysis.lprime_timing

    def off_by_one_at_k2(inst):
        t = real(inst)
        return replace(t, predicted_tail=t.predicted_tail + 1) if t.k == 2 else t

    monkeypatch.setattr(analysis, "lprime_timing", off_by_one_at_k2)
    code, out = invoke(capsys, "verify", "--suite", "formulas", "--k-max", "3")
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1 and fails[0].startswith("FAIL formulas:k=02.tail-steps ")

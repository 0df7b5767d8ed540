"""Fuzz tests: machine files and command lines never end in a traceback.

``specfile.loads`` may only raise ``SpecFormatError``; dumping and reloading a
valid spec gives it back.  ``cli.main`` on generated argv (every subcommand,
known and unknown machines and suites, junk tokens, small and negative
counts) returns an exit code in 0..5 and, for exit 2 or 3, prints exactly one
``error:`` line.  Every size is small so the file runs in seconds.
"""

import contextlib
import io
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmlab import specfile
from qmlab.cli import VERIFY_SUITES, main
from qmlab.machine import Acceptance
from qmlab.machines import builtin
from qmlab.oracles import BatchCase, write_batch
from test_reference_stepper import machine_specs

# --------------------------------------------------------------------------
# Machine files

_SPEC_LINES = specfile.dumps(builtin("tk:1")).splitlines()
_TOKENS = ("name:", "states:", "start:", "input_alphabet:", "output_alphabet:",
           "storage:", "acceptance:", "mode:", "epsilon_accept:", "queue", "pushdown",
           "tape", "tracks=", "tracks=2", "final_states(", ")", "online", "post",
           "true", "|", "->", ",", "*", "-", "_", "y", "n", "pop", "push=", "pop+push=",
           "write=", "move=", "/", "#", "s", "q", "a", "0", " ", "\n")


def _spec_texts():
    # Valid lines, recombined and cut; lines built from format tokens; and text.
    lines = st.one_of(st.sampled_from(_SPEC_LINES),
                      st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join),
                      st.text(max_size=20))
    return st.one_of(st.text(), st.lists(lines, max_size=12).map("\n".join))


@settings(max_examples=300, deadline=None)
@given(text=_spec_texts())
def test_loads_raises_only_spec_format_error(text):
    try:
        specfile.loads(text)
    except specfile.SpecFormatError:
        pass


@settings(max_examples=50, deadline=None)
@given(spec=machine_specs())
def test_generated_specs_round_trip(spec):
    # The format writes final states only for final-state acceptance, the one
    # mode that reads them; the generator draws them for every mode.
    if spec.acceptance is not Acceptance.FINAL_STATES:
        spec = replace(spec, finals=frozenset())
    assert specfile.loads(specfile.dumps(spec)) == spec


# --------------------------------------------------------------------------
# Command lines

_MACHINES = ("lprime", "mk:1", "mk:2", "tk:1", "tk:2", "anbn:linear", "anbn:quadratic",
             "mk:0", "tk:7", "mk:x", "anbn:foo", "nope", "")
# Text as a shell can pass it: any character but NUL and lone surrogates.
_JUNK = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"),
                max_size=5)


def _int(lo, hi):
    return st.integers(lo, hi).map(str)


def _machine(files):
    return st.one_of(st.sampled_from(_MACHINES), st.sampled_from(files), _JUNK)


def _flags(draw, always, maybe):
    """Draw every pair of ``always`` and some of ``maybe``, in any order."""
    pairs = [(flag, draw(value)) for flag, value in always]
    pairs += [(flag, draw(value)) for flag, value in maybe if draw(st.booleans())]
    return [tok for pair in draw(st.permutations(pairs)) for tok in pair]


@st.composite
def _argv(draw, files, outdir):
    command = draw(st.sampled_from(("run", "verify", "bench", "gen", "junk")))
    paths = st.sampled_from(files)
    if command == "run":
        argv = ["run"] + _flags(draw, (), (
            ("--machine", _machine(files)),
            ("--input", st.one_of(st.text("abc01#$", max_size=8), _JUNK)),
            ("--batch", paths),
            ("--max-steps", _int(-3, 50)),
            ("--trace", st.sampled_from((f"{outdir}/trace.csv", outdir))),
            ("--dump-spec", st.sampled_from((f"{outdir}/dumped.qm", outdir)))))
    elif command == "verify":
        argv = ["verify"] + _flags(draw, (
            ("--k-max", _int(-2, 3)), ("--cases", _int(-2, 3)),
            ("--len-max", _int(-2, 4)), ("--exhaustive-len", _int(-2, 4)),
        ), (
            ("--suite", st.one_of(st.sampled_from(VERIFY_SUITES + ("mystery",)), _JUNK)),
            ("--seed", _int(-3, 3)),
            ("--batch", paths),
            ("--max-steps", _int(-3, 50)),
            ("--workers", _int(-1, 2)),
            ("--format", st.sampled_from(("text", "json", "xml")))))
    elif command == "bench":
        argv = ["bench"] + _flags(draw, (
            ("--min-exp", _int(-2, 6)), ("--max-exp", _int(-2, 6)),
        ), (
            ("--machine", _machine(files)),
            ("--seed", _int(-3, 3)),
            ("--out", st.sampled_from((f"{outdir}/bench.csv", outdir))),
            ("--format", st.sampled_from(("csv", "json", "xml")))))
    elif command == "gen":
        argv = ["gen"] + _flags(draw, (("--count", _int(-2, 5)),), (
            ("--family", st.sampled_from(("lprime", "fk", "anbn", "mystery"))),
            ("--k-max", _int(-2, 3)),
            ("--seed", _int(-3, 3)),
            ("--out", st.sampled_from((f"{outdir}/gen.tsv", outdir)))))
    else:
        argv = []
    junk = draw(st.lists(st.one_of(_JUNK, _int(-3, 3)), max_size=2))
    for tok in junk:
        argv.insert(draw(st.integers(0, len(argv))), tok)
    return argv


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Inputs the argv may name: good and bad batch files, a machine file,
    a directory and a missing path."""
    d = tmp_path_factory.mktemp("fuzz")
    write_batch(d / "lprime.tsv", [BatchCase("aca", "accept", "member"),
                                   BatchCase("acb", "reject", "w-not-pi")])
    write_batch(d / "alien.tsv", [BatchCase("axa", "reject", "alien")])
    (d / "malformed.tsv").write_text("aca\taccept\n")
    specfile.dump(builtin("mk:1"), d / "mk1.qm")
    (d / "out").mkdir()
    return d, [str(d / name) for name in
               ("lprime.tsv", "alien.tsv", "malformed.tsv", "mk1.qm", "out", "missing")]


def test_cli_argv_never_crash(files):
    outdir, paths = files

    @settings(max_examples=400, deadline=None)
    @given(argv=_argv(paths, str(outdir / "out")))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:   # only -h/--help (or a prefix) leaves this way
                code = exc.code
                assert code == 0 and any(a.startswith("-h") or a.startswith("--h")
                                         for a in argv)
        err = err.getvalue()
        assert code in range(6), (argv, code)
        assert "Traceback" not in err
        if code in (2, 3):
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)

    check()

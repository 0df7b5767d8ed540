"""Machine description file format: round-trips and error reporting."""

import pytest

from qmlab import specfile
from qmlab.machine import Kind, Mode, Verdict, run, validate_spec
from qmlab.machines import build_anbn, build_lprime_acceptor, build_mk, build_tk

ALL_BUILTINS = [build_mk(1), build_mk(2), build_mk(3), build_tk(1), build_tk(2),
                build_tk(3), build_lprime_acceptor(), build_anbn("linear"),
                build_anbn("quadratic")]


@pytest.mark.parametrize("spec", ALL_BUILTINS, ids=lambda s: s.name)
def test_roundtrip(spec):
    reloaded = specfile.loads(specfile.dumps(spec))
    assert reloaded == spec
    assert validate_spec(reloaded).ok


def test_reloaded_machine_behaves_identically(tmp_path):
    path = tmp_path / "lprime.qm"
    specfile.dump(build_lprime_acceptor(), path)
    spec = specfile.load(path)
    assert run(spec, "ab0c0ab").verdict is Verdict.ACCEPT
    assert run(spec, "ab0c1ab").verdict is Verdict.REJECT


def test_comments_and_blank_lines_ignored():
    text = specfile.dumps(build_mk(1))
    commented = "# a comment\n\n" + text.replace("\n", "\n# noise\n", 1)
    assert specfile.loads(commented) == build_mk(1)


def test_tape_storage_line():
    text = specfile.dumps(build_tk(2))
    assert "storage: t tape 01D tracks=2" in text
    assert "storage: p pushdown 01" in text


def test_post_mode_round_trip_fields():
    spec = specfile.loads(specfile.dumps(build_anbn("linear")))
    assert spec.mode is Mode.POST
    assert spec.epsilon_accept is True
    assert spec.storages[0].kind is Kind.QUEUE


def test_final_states_header():
    text = specfile.dumps(build_mk(2))
    assert "acceptance: final_states(round_1)" in text


@pytest.mark.parametrize("line,msg", [
    ("nonsense without colon", "unrecognized"),
    ("storage: q", "storage needs"),
    ("storage: q conveyor ab", "unknown storage kind"),
    ("acceptance: sometimes", "unknown acceptance"),
    ("mode: offline", "unknown mode"),
    ("epsilon_accept: maybe", "bad epsilon_accept"),
])
def test_header_errors(line, msg):
    base = "states: s\nstart: s\ninput_alphabet: a\noutput_alphabet:\n"
    with pytest.raises(specfile.SpecFormatError, match=msg):
        specfile.loads(base + line + "\n")


def test_transition_errors():
    base = ("states: s\nstart: s\ninput_alphabet: a\noutput_alphabet:\n"
            "storage: q queue a\n")
    with pytest.raises(specfile.SpecFormatError, match="malformed transition"):
        specfile.loads(base + "s | a -> s\n")
    with pytest.raises(specfile.SpecFormatError, match="bad queue action"):
        specfile.loads(base + "s | a | * -> s | y | jump | -\n")
    with pytest.raises(specfile.SpecFormatError, match="observations for"):
        specfile.loads(base + "s | a | *,* -> s | y | -,- | -\n")
    with pytest.raises(specfile.SpecFormatError, match="bad consume"):
        specfile.loads(base + "s | a | * -> s | x | - | -\n")
    with pytest.raises(specfile.SpecFormatError, match="missing states"):
        specfile.loads("input_alphabet: a\n")


def test_hand_written_machine_runs():
    text = """\
# toggle machine: accepts words of odd length by final state
name: odd
states: even odd
start: even
input_alphabet: x
output_alphabet:
storage: q queue x
acceptance: final_states(odd)
mode: online
epsilon_accept: false
even | x | * -> odd | y | - | -
odd | x | * -> even | y | - | -
"""
    spec = specfile.loads(text)
    assert validate_spec(spec).ok
    assert run(spec, "xxx").verdict is Verdict.ACCEPT
    assert run(spec, "xx").verdict is Verdict.REJECT


@pytest.mark.parametrize("acts,count", [("push=a,pop,push=a", 3), ("-,-", 2)])
def test_action_count_must_match_storage_count(acts, count):
    # Surplus actions used to be dropped silently, so the spec loaded and
    # validated as if the extra tokens were not there.
    text = ("states: s\nstart: s\ninput_alphabet: a\noutput_alphabet:\n"
            "storage: q queue a\n"
            f"s | a | * -> s | y | {acts} | -\n")
    with pytest.raises(specfile.SpecFormatError,
                       match=f"line 6: {count} actions for 1 storages") as info:
        specfile.loads(text)
    assert info.value.lineno == 6


@pytest.mark.parametrize("option", ["tracks=x", "tracks=", "tracks=0"])
def test_bad_tracks_value_names_its_line(option):
    text = ("states: s\nstart: s\ninput_alphabet: a\noutput_alphabet:\n"
            f"storage: t tape 01 {option}\n")
    with pytest.raises(specfile.SpecFormatError) as info:
        specfile.loads(text)
    assert info.value.lineno == 5

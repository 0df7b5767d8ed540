"""The value records: their reprs, equality, hashing and immutability."""

import pickle
from collections import deque

import pytest

from qmlab.analysis import Check, LprimeTiming, ScanResult
from qmlab.growth import GrowthReport
from qmlab.machine import (
    MAX_TRACKS,
    Acceptance,
    Configuration,
    Kind,
    MachineSpec,
    QueueOp,
    Rule,
    RunResult,
    StepRecord,
    StorageSpec,
    TapeOp,
    ValidationReport,
    Verdict,
)
from qmlab.oracles import BatchCase, FkInstance, LprimeInstance

QUEUE = StorageSpec("q", Kind.QUEUE, frozenset("a"))
RULE = Rule("s", "a", ("*",), "t", True, (QueueOp(push="a"),), "b")
SPEC = MachineSpec("m", ("s", "t"), "s", frozenset("a"), frozenset("b"), (QUEUE,), (RULE,),
                   Acceptance.FINAL_STATES, frozenset("t"))

# One instance of each frozen record, with its repr.
FROZEN = [
    (QueueOp(pop=True, push="a"), "QueueOp(pop=True, push='a')"),
    (TapeOp(write="1_", move="R"), "TapeOp(write='1_', move='R')"),
    (RULE, "Rule(state='s', input_pat='a', storage_pats=('*',), next_state='t', consume=True, "
           "ops=(QueueOp(pop=False, push='a'),), emit='b')"),
    (QUEUE, "StorageSpec(ident='q', kind=<Kind.QUEUE: 'queue'>, alphabet=frozenset({'a'}), "
            "tracks=1)"),
    (SPEC, "MachineSpec(name='m', states=('s', 't'), start='s', input_alphabet=frozenset({'a'}), "
           "output_alphabet=frozenset({'b'}), storages=(StorageSpec(ident='q', "
           "kind=<Kind.QUEUE: 'queue'>, alphabet=frozenset({'a'}), tracks=1),), "
           "rules=(Rule(state='s', input_pat='a', storage_pats=('*',), next_state='t', "
           "consume=True, ops=(QueueOp(pop=False, push='a'),), emit='b'),), "
           "acceptance=<Acceptance.FINAL_STATES: 'final_states'>, finals=frozenset({'t'}), "
           "mode=<Mode.ONLINE: 'online'>, epsilon_accept=False)"),
    (StepRecord(3, "t", True, (1, 0), None),
     "StepRecord(step=3, state='t', consumed=True, lengths=(1, 0), emit=None)"),
    (Check("lprime:x", False, "got=reject"),
     "Check(case_id='lprime:x', ok=False, detail='got=reject')"),
    (LprimeTiming(1, Verdict.ACCEPT, 4, True, 1, 9, 9, (5,), (3,), (3,)),
     "LprimeTiming(k=1, verdict=<Verdict.ACCEPT: 'accept'>, prefix_length=4, "
     "prefix_realtime=True, prefix_min_delay=1, tail_steps=9, predicted_tail=9, "
     "cycle_start_steps=(5,), cycle_lengths=(3,), predicted_lengths=(3,))"),
    (ScanResult(7, ("ab: oracle=True machine=False",)),
     "ScanResult(words_checked=7, mismatches=('ab: oracle=True machine=False',))"),
    (GrowthReport(((2, 4), (4, 8)), 1.0, 2.0, 2.0, True),
     "GrowthReport(series=((2, 4), (4, 8)), fitted_exponent=1.0, max_ratio=2.0, "
     "min_ratio=2.0, linear=True)"),
    (FkInstance(("a", "b"), ("01",)), "FkInstance(prefixes=('a', 'b'), blocks=('01',))"),
    (LprimeInstance("ab", "0"), "LprimeInstance(w='ab', v='0')"),
    (BatchCase("aca", "accept", "t"), "BatchCase(word='aca', expected='accept', tag='t')"),
]


@pytest.mark.parametrize("record,text", FROZEN, ids=lambda v: type(v).__name__)
def test_frozen_record_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record,text", FROZEN, ids=lambda v: type(v).__name__)
def test_frozen_record_equality_and_hash(record, text):
    twin = pickle.loads(pickle.dumps(record))
    assert twin == record and not twin != record and twin is not record
    assert hash(twin) == hash(record)
    assert record == record and {record: 1}[twin] == 1


@pytest.mark.parametrize("record,text", FROZEN, ids=lambda v: type(v).__name__)
def test_frozen_record_rejects_assignment(record, text):
    name = text.split("(", 1)[1].split("=", 1)[0]   # the first field
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    assert repr(record) == text


def test_records_hash_as_their_fields():
    assert hash(QueueOp(True, "a")) == hash((True, "a"))
    assert hash(TapeOp("1", "L")) == hash(("1", "L"))
    assert hash(BatchCase("a", "accept", "t")) == hash(("a", "accept", "t"))
    assert QueueOp(True, "a") != QueueOp(True, "b") and TapeOp() != TapeOp(move="R")


def test_machine_spec_hash_reads_three_fields():
    assert hash(SPEC) == hash(("m", "s", 1))
    other = MachineSpec(SPEC.name, SPEC.states, SPEC.start, SPEC.input_alphabet,
                        SPEC.output_alphabet, SPEC.storages, (RULE,), SPEC.acceptance,
                        frozenset(), epsilon_accept=True)
    assert hash(other) == hash(SPEC) and other != SPEC


def test_storage_spec_rejects_tracks_on_a_queue():
    with pytest.raises(ValueError, match="tracks=2 is only allowed for tapes"):
        StorageSpec("q", Kind.QUEUE, frozenset("a"), tracks=2)
    with pytest.raises(ValueError, match="tracks must be >= 1"):
        StorageSpec("t", Kind.TAPE, frozenset("a"), tracks=0)
    assert StorageSpec("t", Kind.TAPE, frozenset("a"), tracks=MAX_TRACKS).tracks == MAX_TRACKS
    with pytest.raises(ValueError, match=f"tracks must be <= {MAX_TRACKS}"):
        StorageSpec("t", Kind.TAPE, frozenset("a"), tracks=MAX_TRACKS + 1)
    with pytest.raises(ValueError, match="alphabet must be single characters"):
        StorageSpec("p", Kind.PUSHDOWN, frozenset(["ab"]))
    assert StorageSpec("t", Kind.TAPE, frozenset("a"), 2).blank_cell == "__"


def test_run_result_repr_and_equality():
    res = RunResult(Verdict.ACCEPT, "", 1, 1, "no_rule")
    assert repr(res) == ("RunResult(verdict=<Verdict.ACCEPT: 'accept'>, output='', steps=1, "
                         "input_consumed=1, halt_reason='no_rule', trace=None, fault=None, "
                         "max_lengths=None)")
    assert res == RunResult(Verdict.ACCEPT, "", 1, 1, "no_rule", None, None, None)
    assert res != RunResult(Verdict.ACCEPT, "", 1, 1, "no_rule", max_lengths=(1,))
    assert res != RunResult(Verdict.REJECT, "", 1, 1, "no_rule")
    assert res.accepted and not RunResult(Verdict.REJECT, "", 1, 1, "no_rule").accepted
    res.steps = 2   # a run's result is mutable
    assert res.steps == 2 and res == RunResult(Verdict.ACCEPT, "", 2, 1, "no_rule")
    with pytest.raises(TypeError):
        hash(res)


def test_configuration_repr_and_equality():
    cfg = Configuration("ab", "s", 0, [deque("a")], [], 0)
    assert repr(cfg) == ("Configuration(input='ab', state='s', input_pos=0, "
                         "stores=[deque(['a'])], output=[], steps=0)")
    assert cfg == Configuration("ab", "s", 0, [deque("a")], [], 0)
    assert cfg != Configuration("ab", "s", 1, [deque("a")], [], 0)
    cfg.steps += 1
    assert cfg.steps == 1 and cfg.storage_lengths() == (1,)
    with pytest.raises(TypeError):
        hash(cfg)


def test_validation_report_repr_and_equality():
    rep = ValidationReport()
    assert repr(rep) == "ValidationReport(violations=[], warnings=[])"
    assert rep.ok and rep == ValidationReport([], [])
    rep.violations.append("x")
    assert not rep.ok and rep != ValidationReport()
    assert ValidationReport().violations is not ValidationReport().violations
    assert ValidationReport(warnings=["w"]) == ValidationReport([], ["w"])

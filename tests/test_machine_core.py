"""Core executor semantics: storages, matching, verdicts, traces."""

import dataclasses
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmlab.machine import (
    EMPTY,
    NO_SYMBOL,
    WILDCARD,
    Acceptance,
    InputSymbolError,
    Kind,
    MachineSpec,
    Mode,
    QueueOp,
    Rule,
    StepRecord,
    StorageSpec,
    TapeOp,
    NO_OP,
    Verdict,
    check_bounded_delay,
    check_realtime,
    executor_for,
    minimal_delay,
    run,
    step,
    storage_length_series,
    validate_spec,
)

words_ab = st.text(alphabet="ab", min_size=1, max_size=40)


def simple_machine(kind: Kind, *rules, acceptance=Acceptance.EMPTY_STORAGES,
                   mode=Mode.ONLINE, finals=(), alphabet="ab", storage_alphabet=None,
                   output="ab", epsilon_accept=False, states=None, start=None,
                   tracks=1):
    states = states or sorted({r.state for r in rules} | {r.next_state for r in rules})
    return MachineSpec(
        name="test", states=tuple(states), start=start or states[0],
        input_alphabet=frozenset(alphabet), output_alphabet=frozenset(output),
        storages=(StorageSpec("s", kind, frozenset(storage_alphabet or alphabet),
                              tracks=tracks),),
        rules=tuple(rules), acceptance=acceptance, finals=frozenset(finals),
        mode=mode, epsilon_accept=epsilon_accept)


def echo_machine(kind: Kind) -> MachineSpec:
    # Push the whole input, then pop-and-emit until empty.
    rules = [Rule("go", ch, (WILDCARD,), "go", consume=True,
                  ops=(QueueOp(push=ch),)) for ch in "ab"]
    rules += [Rule("go", NO_SYMBOL, (ch,), "go", ops=(QueueOp(pop=True),), emit=ch)
              for ch in "ab"]
    return simple_machine(kind, *rules, states=("go",))


class TestStorageLaws:
    @given(words_ab)
    @settings(max_examples=60)
    def test_queue_is_fifo(self, word):
        res = run(echo_machine(Kind.QUEUE), word)
        assert res.output == word
        assert res.verdict is Verdict.ACCEPT

    @given(words_ab)
    @settings(max_examples=60)
    def test_pushdown_is_lifo(self, word):
        res = run(echo_machine(Kind.PUSHDOWN), word)
        assert res.output == word[::-1]
        assert res.verdict is Verdict.ACCEPT

    def test_queue_pop_and_push_in_one_step(self):
        # front-to-back [a, b], action pop + push c  ->  [b, c]
        spec = simple_machine(
            Kind.QUEUE,
            Rule("load", "a", (WILDCARD,), "load", consume=True, ops=(QueueOp(push="a"),)),
            Rule("load", "b", (WILDCARD,), "load", consume=True, ops=(QueueOp(push="b"),)),
            Rule("load", NO_SYMBOL, ("a",), "done", ops=(QueueOp(pop=True, push="c"),)),
            storage_alphabet="abc", states=("load", "done"))
        cfg = executor_for(spec).initial("ab")
        while step(spec, cfg):
            pass
        assert cfg.storage_contents(0) == ("b", "c")

    def test_pushdown_pop_and_push_in_one_step(self):
        # bottom-to-top [a, b], action pop + push c  ->  [a, c]
        spec = simple_machine(
            Kind.PUSHDOWN,
            Rule("load", "a", (WILDCARD,), "load", consume=True, ops=(QueueOp(push="a"),)),
            Rule("load", "b", (WILDCARD,), "load", consume=True, ops=(QueueOp(push="b"),)),
            Rule("load", NO_SYMBOL, ("b",), "done", ops=(QueueOp(pop=True, push="c"),)),
            storage_alphabet="abc", states=("load", "done"))
        cfg = executor_for(spec).initial("ab")
        while step(spec, cfg):
            pass
        assert cfg.storage_contents(0) == ("a", "c")


class TestTape:
    def write_right_machine(self):
        cells = ["0", "1", "_"]
        rules = []
        for b in "01":
            for seen in cells:
                rules.append(Rule("w", b, (seen,), "w", consume=True,
                                  ops=(TapeOp(write=b, move="R"),)))
        return simple_machine(Kind.TAPE, *rules, alphabet="01",
                              storage_alphabet="01", output="01", states=("w",))

    def test_write_and_extent(self):
        spec = self.write_right_machine()
        cfg = executor_for(spec).initial("101")
        while step(spec, cfg):
            pass
        cells, head = cfg.storage_contents(0)
        assert cells[:3] == ("1", "0", "1")
        assert head == 3
        assert cfg.storage_lengths() == (3,)   # tape length counts nonblank cells

    def test_move_left_off_end_faults(self):
        spec = simple_machine(
            Kind.TAPE,
            Rule("w", "0", (WILDCARD,), "w", consume=True, ops=(TapeOp(move="L"),)),
            alphabet="01", storage_alphabet="01", output="01", states=("w",))
        res = run(spec, "0")
        assert res.verdict is Verdict.FAULT
        assert "left end" in res.fault

    def test_blank_rewrite_shrinks_length(self):
        spec = simple_machine(
            Kind.TAPE,
            Rule("w", "0", ("_",), "x", consume=True, ops=(TapeOp(write="0", move="S"),)),
            Rule("x", "0", ("0",), "w", consume=True, ops=(TapeOp(write="_", move="S"),)),
            alphabet="01", storage_alphabet="01", output="01", states=("w", "x"))
        res = run(spec, "00", trace=True)
        assert [r.lengths[0] for r in res.trace.records] == [1, 0]


class TestMatching:
    def test_concrete_beats_wildcard(self):
        spec = simple_machine(
            Kind.QUEUE,
            Rule("s", "a", (WILDCARD,), "s", consume=True, emit="a", ops=(NO_OP,)),
            Rule("s", WILDCARD, (WILDCARD,), "s", consume=True, emit="b", ops=(NO_OP,)),
            states=("s",))
        assert run(spec, "ab").output == "ab"

    def test_input_component_most_significant(self):
        # On observation (input=a, front=a) the rule concrete on the input
        # wins over the rule concrete on the storage.
        spec = simple_machine(
            Kind.QUEUE,
            Rule("s", "b", (WILDCARD,), "s", consume=True, ops=(QueueOp(push="a"),)),
            Rule("s", "a", (WILDCARD,), "s", consume=True, emit="a", ops=(NO_OP,)),
            Rule("s", WILDCARD, ("a",), "s", consume=True, emit="b", ops=(NO_OP,)),
            states=("s",))
        res = run(spec, "ba")
        assert res.output == "a"

    def test_halt_when_no_rule_matches(self):
        spec = simple_machine(
            Kind.QUEUE,
            Rule("s", "a", (WILDCARD,), "s", consume=True, ops=(QueueOp(push="a"),)),
            states=("s",))
        res = run(spec, "ab")
        assert res.verdict is Verdict.REJECT
        assert res.steps == 1 and res.input_consumed == 1

    def test_pop_on_empty_under_wildcard_is_fault_not_halt(self):
        spec = simple_machine(
            Kind.QUEUE,
            Rule("s", "a", (WILDCARD,), "s", consume=True, ops=(QueueOp(pop=True),)),
            states=("s",))
        res = run(spec, "a")
        assert res.verdict is Verdict.FAULT
        assert "pop on empty" in res.fault


class TestValidator:
    def test_duplicate_rules_flagged_naming_both(self):
        dup = Rule("s", "a", (WILDCARD,), "s", consume=True, ops=(NO_OP,))
        spec = simple_machine(Kind.QUEUE, dup, dup, states=("s",))
        rep = validate_spec(spec)
        assert any("rules 0 and 1" in v for v in rep.violations)

    def test_post_mode_input_read_flagged(self):
        spec = simple_machine(
            Kind.QUEUE,
            Rule("s", "a", (WILDCARD,), "s", consume=True, ops=(NO_OP,)),
            mode=Mode.POST, states=("s",))
        rep = validate_spec(spec)
        assert any("input read in post mode" in v for v in rep.violations)

    def test_alphabet_leak_flagged(self):
        spec = simple_machine(
            Kind.QUEUE,
            Rule("s", "a", (WILDCARD,), "s", consume=True, ops=(QueueOp(push="z"),)),
            states=("s",))
        assert any("push symbol" in v for v in validate_spec(spec).violations)

    def test_unreachable_state_warns(self):
        spec = simple_machine(
            Kind.QUEUE,
            Rule("s", "a", (WILDCARD,), "s", consume=True, ops=(NO_OP,)),
            states=("s", "island"))
        rep = validate_spec(spec)
        assert rep.ok
        assert any("island" in w for w in rep.warnings)

    def test_finals_need_final_state_acceptance(self):
        # The machine file writes final states only under final-state acceptance.
        rule = Rule("s", "a", (WILDCARD,), "t", consume=True, ops=(NO_OP,))
        spec = simple_machine(Kind.QUEUE, rule, finals=("t",), states=("s", "t"))
        assert "final states given, but acceptance is empty_all_storages" \
            in validate_spec(spec).violations
        assert validate_spec(simple_machine(Kind.QUEUE, rule, finals=("t",), states=("s", "t"),
                                            acceptance=Acceptance.FINAL_STATES)).ok

    def test_tracks_only_on_tapes(self):
        with pytest.raises(ValueError):
            StorageSpec("q", Kind.QUEUE, frozenset("ab"), tracks=2)


class TestInitialConfiguration:
    def test_online_start(self):
        spec = echo_machine(Kind.QUEUE)
        cfg = executor_for(spec).initial("aca".replace("c", "b"))
        assert cfg.input_pos == 0 and cfg.steps == 0
        assert cfg.storage_contents(0) == ()

    def test_post_mode_preloads_queue(self):
        spec = simple_machine(
            Kind.QUEUE, Rule("s", NO_SYMBOL, ("a",), "s", ops=(NO_OP,)),
            mode=Mode.POST, states=("s",))
        cfg = executor_for(spec).initial("aabb")
        assert cfg.storage_contents(0) == ("a", "a", "b", "b")

    def test_bad_symbol_rejected_with_position(self):
        spec = echo_machine(Kind.QUEUE)
        with pytest.raises(InputSymbolError) as exc:
            executor_for(spec).initial("a7b")
        assert exc.value.position == 1


class TestRun:
    def test_step_limit(self):
        spec = simple_machine(
            Kind.QUEUE, Rule("s", WILDCARD, (WILDCARD,), "s", ops=(NO_OP,)),
            states=("s",))
        res = run(spec, "a", max_steps=10)
        assert res.verdict is Verdict.STEP_LIMIT and res.steps == 10

    def test_empty_input_needs_epsilon_flag(self):
        from dataclasses import replace
        spec = echo_machine(Kind.QUEUE)
        assert run(spec, "").verdict is Verdict.REJECT
        # the same machine with the flag set accepts the empty input
        assert run(replace(spec, epsilon_accept=True), "").verdict is Verdict.ACCEPT

    def test_final_states_acceptance(self):
        spec = simple_machine(
            Kind.QUEUE,
            Rule("s", "a", (WILDCARD,), "t", consume=True, ops=(NO_OP,)),
            acceptance=Acceptance.FINAL_STATES, finals=("t",), states=("s", "t"))
        assert run(spec, "a").verdict is Verdict.ACCEPT
        assert run(spec, "aa").verdict is Verdict.REJECT   # halts mid-input

    def test_output_bit_acceptance(self):
        spec = simple_machine(
            Kind.QUEUE,
            Rule("s", "a", (WILDCARD,), "s", consume=True, emit="1", ops=(NO_OP,)),
            Rule("s", "b", (WILDCARD,), "s", consume=True, emit="0", ops=(NO_OP,)),
            acceptance=Acceptance.OUTPUT_BIT, output="01", states=("s",))
        assert run(spec, "a").verdict is Verdict.ACCEPT
        assert run(spec, "ab").verdict is Verdict.REJECT

    @given(words_ab)
    @settings(max_examples=40)
    def test_determinism_bit_for_bit(self, word):
        spec = echo_machine(Kind.QUEUE)
        a = run(spec, word, trace=True)
        b = run(spec, word, trace=True)
        assert a.trace.records == b.trace.records
        assert a.trace.to_lines() == b.trace.to_lines()

    @given(words_ab)
    @settings(max_examples=40)
    def test_step_accounting(self, word):
        res = run(echo_machine(Kind.QUEUE), word, trace=True)
        tr = res.trace
        assert len(tr.records) == res.steps
        assert sum(r.consumed for r in tr.records) == res.input_consumed == len(word)
        assert res.input_consumed <= res.steps
        assert sum(r.emit is not None for r in tr.records) == len(res.output) <= res.steps
        assert [r.step for r in tr.records] == list(range(1, res.steps + 1))

    def test_post_mode_conservation(self):
        # No storage actions at all: the queue holds the input at every step.
        spec = simple_machine(
            Kind.QUEUE,
            Rule("s", NO_SYMBOL, ("a",), "t", ops=(NO_OP,)),
            Rule("t", NO_SYMBOL, ("a",), "u", ops=(NO_OP,)),
            mode=Mode.POST, states=("s", "t", "u"))
        cfg = executor_for(spec).initial("ab")
        seen = [cfg.storage_contents(0)]
        while step(spec, cfg):
            seen.append(cfg.storage_contents(0))
        assert all(s == ("a", "b") for s in seen)

    def test_acceptance_soundness_empty_storages(self):
        res = run(echo_machine(Kind.QUEUE), "abba", trace=True)
        assert res.verdict is Verdict.ACCEPT
        series = storage_length_series(res.trace, "s")
        assert series[-1][1] == 0


def test_default_step_limit_formula():
    from qmlab.machine import default_step_limit
    assert default_step_limit(0) == 64
    assert default_step_limit(3) == 64 * 16


class TestTraceChecks:
    def trace_of(self, word="abba"):
        return run(echo_machine(Kind.QUEUE), word, trace=True).trace

    def test_realtime_true_for_pure_copy(self):
        rules = [Rule("go", ch, (WILDCARD,), "go", consume=True,
                      ops=(QueueOp(push=ch),)) for ch in "ab"]
        spec = simple_machine(Kind.QUEUE, *rules, states=("go",))
        tr = run(spec, "abab", trace=True).trace
        assert check_realtime(tr)

    def test_realtime_false_with_any_silent_step(self):
        tr = self.trace_of()
        assert not check_realtime(tr)

    def test_bounded_delay_zero_equals_realtime(self):
        tr = self.trace_of("ab")
        n = len(tr.records)
        assert check_bounded_delay(tr, (1, n), 0) == check_realtime(tr)
        assert check_bounded_delay(tr, (1, 2), 0)       # the consuming prefix
        assert not check_bounded_delay(tr, (1, n), 1)   # two silent pops at the end
        assert check_bounded_delay(tr, (1, n), 2)
        assert minimal_delay(tr, (1, n)) == 2

    def test_region_validation(self):
        tr = self.trace_of("ab")
        with pytest.raises(ValueError):
            check_bounded_delay(tr, (0, 2), 1)
        with pytest.raises(ValueError):
            check_bounded_delay(tr, (1, 99), 1)

    def test_length_series(self):
        rules = [Rule("go", ch, (WILDCARD,), "go", consume=True,
                      ops=(QueueOp(push=ch),)) for ch in "ab"]
        spec = simple_machine(Kind.QUEUE, *rules, states=("go",))
        tr = run(spec, "aba", trace=True).trace
        assert storage_length_series(tr, "s") == [(1, 1), (2, 2), (3, 3)]
        with pytest.raises(ValueError):
            storage_length_series(tr, "nope")

    def test_records_view(self):
        tr = self.trace_of("ab")
        records = tr.records
        assert len(records) == len(tr) == 4
        assert records[-1] == records[3] == StepRecord(4, "go", False, (0,), "b")
        assert records[1:3] == list(records)[1:3]
        assert records == list(records) and records != list(records)[:-1]
        with pytest.raises(IndexError):
            records[4]

    def test_trace_file_format(self):
        tr = self.trace_of("ab")
        lines = tr.to_lines()
        assert lines[0] == "step,state,consumed,len(s),emit"
        assert lines[1] == "1,go,y,1,"
        assert lines[-1].endswith(",n,0,b")


def test_unpickled_spec_hashes_like_a_fresh_one_in_another_process():
    # str hashes depend on PYTHONHASHSEED, so a spec unpickled in a worker
    # process must hash like one built there: no hash may travel with it.
    from qmlab.machines import build_mk
    spec = build_mk(2)
    hash(spec)
    data = pickle.dumps(spec)
    probe = ("import pickle, sys; from qmlab.machines import build_mk; "
             "spec = pickle.loads(sys.stdin.buffer.read()); fresh = build_mk(2); "
             "print(hash(spec) == hash(fresh), spec == fresh, hash(fresh))")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    fresh_hashes = set()
    for seed in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", probe], input=data,
                              capture_output=True, check=True,
                              env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src))
        same_hash, equal, fresh = proc.stdout.decode().split()
        assert (same_hash, equal) == ("True", "True")
        fresh_hashes.add(fresh)
    assert len(fresh_hashes) == 2     # the seeds really change the hash


@pytest.mark.parametrize("name", ["tk:3", "mk:3", "lprime"])
def test_reloaded_spec_hashes_equal_and_shares_the_executor(name):
    # A dumped machine file replays on the executor of the builtin it came from.
    from qmlab import specfile
    from qmlab.machines import builtin
    spec = builtin(name)
    reloaded = specfile.loads(specfile.dumps(spec))
    assert reloaded is not spec and reloaded == spec
    assert hash(reloaded) == hash(spec)
    assert executor_for(reloaded) is executor_for(spec)


def test_specs_differing_in_one_rule_get_their_own_executors():
    spec = echo_machine(Kind.QUEUE)
    rules = list(spec.rules)
    rules[2] = dataclasses.replace(rules[2], emit="b")   # pops an a, emits b
    other = dataclasses.replace(spec, rules=tuple(rules))
    assert (other.name, other.start, len(other.rules)) == (spec.name, spec.start,
                                                            len(spec.rules))
    assert other != spec
    assert executor_for(other) is not executor_for(spec)
    assert run(spec, "ab").output == "ab" and run(other, "ab").output == "bb"

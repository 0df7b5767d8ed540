"""Core executor semantics: storages, matching, verdicts, traces."""

import itertools
import os
import pickle
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmlab import machine
from qmlab.analysis import lprime_timing
from qmlab.machine import (
    EMPTY,
    FORBIDDEN_SYMBOLS,
    NO_SYMBOL,
    WILDCARD,
    Acceptance,
    ExecutionFault,
    Executor,
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
    Trace,
    Verdict,
    check_bounded_delay,
    check_realtime,
    executor_for,
    minimal_delay,
    run,
    step,
    storage_length_series,
    validate_spec,
    _COPY,
    _SWEEPS,
    _Tape,
)
from qmlab.analysis import sized_fk_instance
from qmlab.machines import builtin
from qmlab.oracles import gen_lk, gen_lprime

words_ab = st.text(alphabet="ab", min_size=1, max_size=40)


def contents(cfg, j):
    """Storage ``j`` of a configuration: a queue front to back, a pushdown
    bottom to top, a tape as (cells, head)."""
    s = cfg.stores[j]
    if isinstance(s, _Tape):
        return tuple(s.cells), s.head
    return tuple(s)


def step_actions(trace):
    """The trace's action of each step: a slot's own, or its run's actions
    in turn, one per step of the run."""
    actions = []
    for i, action in enumerate(trace.actions):
        n, cycle = trace.runs.get(i, (1, (action,)))
        assert n >= 0 and cycle[0] is action
        actions += itertools.islice(itertools.cycle(cycle), n)
    return actions


def steps_of(trace):
    """The trace's steps as :class:`StepRecord` objects, built from its
    actions, one per step, and its columns."""
    columns = [trace.lengths_of(i) for i in trace.storage_ids]
    actions = step_actions(trace)
    assert len(actions) == len(trace) == len(trace.consumed)
    return [StepRecord(i, action[0], bool(consumed), tuple(c[i - 1] for c in columns),
                       action[2])
            for i, (action, consumed) in enumerate(zip(actions, trace.consumed), 1)]


def stepped_lines(spec, word, max_steps=None):
    """The trace file lines of a run of ``word`` driven by ``step``, to its
    halt, its first fault or ``max_steps`` steps (a run's default limit if
    ``None``)."""
    limit = 64 * (len(word) + 1) ** 2 if max_steps is None else max_steps
    cfg = executor_for(spec).initial(word)
    lines = ["step,state,consumed," + ",".join(f"len({s.ident})" for s in spec.storages)
             + ",emit"]
    try:
        while cfg.steps < limit and (rec := step(spec, cfg)) is not None:
            lines.append(f"{rec.step},{rec.state},{'y' if rec.consumed else 'n'},"
                         f"{','.join(map(str, rec.lengths))},{rec.emit or ''}")
    except ExecutionFault:
        pass
    return lines


def count_bulk_calls(ex, monkeypatch) -> Counter:
    """Counts, by kind, the calls of ``machine._rotate``, ``machine._sweep``
    (``sweep`` for a tape sweep whose cells stay, ``map`` for one that
    writes, consumes, pushes or pops), ``machine._halve`` (``halve``),
    ``machine._serve`` (``serve``) and the ``match`` of each copy context
    ``ex`` has compiled so far."""
    calls = Counter()

    def counted(kind, fn):
        def count(*args):
            calls[kind(*args) if callable(kind) else kind] += 1
            return fn(*args)
        return count

    monkeypatch.setattr(machine, "_rotate", counted("rotate", machine._rotate))
    monkeypatch.setattr(machine, "_sweep", counted(
        lambda walk, *_: "sweep" if walk.stays else "map", machine._sweep))
    monkeypatch.setattr(machine, "_halve", counted("halve", machine._halve))
    monkeypatch.setattr(machine, "_serve", counted("serve", machine._serve))
    for bulk in ex._sweeps.values():
        if bulk.action and _COPY in bulk.action[3:-1:2]:
            bulk.match = counted("copy", bulk.match)
    return calls


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
        assert contents(cfg, 0) == ("b", "c")

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
        assert contents(cfg, 0) == ("a", "c")


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
        cells, head = contents(cfg, 0)
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
        assert [r.lengths[0] for r in steps_of(res.trace)] == [1, 0]


class TestFaultPeaks:
    """Peak lengths count completed steps only: a step that faults after it
    grew a storage leaves no mark in ``max_lengths`` or in the trace."""

    def two_queues(self, *rules):
        queue = partial(StorageSpec, kind=Kind.QUEUE, alphabet=frozenset("a"))
        return MachineSpec(
            name="two-queues", states=("s", "t"), start="s", input_alphabet=frozenset("a"),
            output_alphabet=frozenset(), storages=(queue("q"), queue("r")), rules=rules,
            acceptance=Acceptance.EMPTY_STORAGES)

    def runs(self, spec, word):
        ex = executor_for(spec)
        return (ex.run(word, watch_lengths=True), ex.run(word, trace=True),
                ex.run(word, trace=True, watch_lengths=True))

    def test_push_then_pop_on_empty_queue(self):
        spec = self.two_queues(Rule("s", "a", (WILDCARD, WILDCARD), "s", consume=True,
                                    ops=(QueueOp(push="a"), QueueOp(pop=True))))
        watched, traced, both = self.runs(spec, "a")
        for res in (watched, traced, both):
            assert res.verdict is Verdict.FAULT and res.steps == 0
        assert watched.max_lengths == both.max_lengths == (0, 0)
        assert len(traced.trace) == len(both.trace) == 0

    def test_peak_of_an_earlier_step_stays(self):
        spec = self.two_queues(
            Rule("s", "a", (WILDCARD, WILDCARD), "t", consume=True,
                 ops=(QueueOp(push="a"), NO_OP)),
            Rule("t", "a", (WILDCARD, WILDCARD), "t", consume=True,
                 ops=(QueueOp(push="a"), QueueOp(pop=True))))
        watched, traced, both = self.runs(spec, "aa")
        assert watched.verdict is Verdict.FAULT and watched.steps == 1
        assert watched.max_lengths == both.max_lengths == (1, 0)
        assert traced.trace.to_lines() == both.trace.to_lines() == [
            "step,state,consumed,len(q),len(r),emit", "1,t,y,1,0,"]

    def test_tape_write_then_move_off_left_end(self):
        spec = simple_machine(
            Kind.TAPE,
            Rule("w", "0", (WILDCARD,), "w", consume=True, ops=(TapeOp(write="1", move="L"),)),
            alphabet="01", storage_alphabet="01", output="01", states=("w",))
        res = run(spec, "0", trace=True, watch_lengths=True)
        assert res.verdict is Verdict.FAULT and "left end" in res.fault
        assert res.max_lengths == (0,)
        assert len(res.trace) == 0
        assert run(spec, "0", watch_lengths=True).max_lengths == (0,)


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

    @pytest.mark.parametrize("field, symbols", [
        ("input", "a-"), ("output", "a,"), ("input", "a_"), ("output", "a*"), ("output", ["ab"]),
    ])
    def test_reserved_symbols_in_input_and_output_alphabets_flagged(self, field, symbols):
        # As a storage's symbols, they must be single characters outside the
        # reserved ones: a "-" would read as end of input, a "," split a trace line.
        spec = simple_machine(Kind.QUEUE, Rule("s", "a", (WILDCARD,), "s", consume=True,
                                               ops=(NO_OP,)), states=("s",))
        assert validate_spec(spec).ok
        bad = spec._replace(**{f"{field}_alphabet": frozenset(symbols)})
        assert validate_spec(bad).violations == [
            f"{field} alphabet must be single characters outside {sorted(FORBIDDEN_SYMBOLS)}"]

    def test_tracks_only_on_tapes(self):
        with pytest.raises(ValueError):
            StorageSpec("q", Kind.QUEUE, frozenset("ab"), tracks=2)
        tape = StorageSpec("t", Kind.TAPE, frozenset("ab"), tracks=2)
        with pytest.raises(ValueError):   # a changed copy is checked too
            tape._replace(kind=Kind.QUEUE)
        assert tape._replace(tracks=3) == ("t", Kind.TAPE, frozenset("ab"), 3)


class TestInitialConfiguration:
    def test_online_start(self):
        spec = echo_machine(Kind.QUEUE)
        cfg = executor_for(spec).initial("aca".replace("c", "b"))
        assert cfg.input_pos == 0 and cfg.steps == 0
        assert contents(cfg, 0) == ()

    def test_post_mode_preloads_queue(self):
        spec = simple_machine(
            Kind.QUEUE, Rule("s", NO_SYMBOL, ("a",), "s", ops=(NO_OP,)),
            mode=Mode.POST, states=("s",))
        cfg = executor_for(spec).initial("aabb")
        assert contents(cfg, 0) == ("a", "a", "b", "b")

    @pytest.mark.parametrize("mode", [Mode.ONLINE, Mode.POST], ids=["online", "post"])
    @pytest.mark.parametrize("start", [
        lambda ex, word: ex.initial(word), lambda ex, word: ex.run(word),
        lambda ex, word: ex.run(word, trace=True),
        lambda ex, word: ex.run(word, watch_lengths=True)],
        ids=["initial", "run", "traced-run", "watched-run"])
    def test_bad_symbol_rejected_with_position(self, start, mode):
        # A run checks the word itself, before any step, as initial() does.
        spec = (echo_machine(Kind.QUEUE) if mode is Mode.ONLINE else simple_machine(
            Kind.QUEUE, Rule("s", NO_SYMBOL, ("a",), "s", ops=(QueueOp(pop=True),)),
            mode=Mode.POST, states=("s",)))
        assert validate_spec(spec).ok
        with pytest.raises(InputSymbolError) as exc:
            start(executor_for(spec), "a7b")
        assert (exc.value.symbol, exc.value.position) == ("7", 1)


class TestRun:
    def test_step_limit(self):
        spec = simple_machine(
            Kind.QUEUE, Rule("s", WILDCARD, (WILDCARD,), "s", ops=(NO_OP,)),
            states=("s",))
        res = run(spec, "a", max_steps=10)
        assert res.verdict is Verdict.STEP_LIMIT and res.steps == 10

    @pytest.mark.parametrize("name, word", [("mk:3", gen_lk(3, (9, 9, 9), 3, 1).render()),
                                            ("lprime", gen_lprime(6, 1).render()),
                                            ("anbn:quadratic", "a" * 20 + "b" * 20)])
    def test_step_limit_past_maxsize(self, name, word):
        # No run takes sys.maxsize steps, so a larger limit is that one: its
        # copies, rotations and passes count no further than it.
        ex = Executor(builtin(name))
        for mode in ({}, {"watch_lengths": True}, {"trace": True}):
            huge, most = (ex.run(word, max_steps=limit, **mode) for limit in (2**70, sys.maxsize))
            if huge.trace is not None:
                assert huge.trace.to_lines() == most.trace.to_lines()
                huge.trace = most.trace
            assert huge.accepted and huge == most

    @pytest.mark.parametrize("name, word", [("anbn:quadratic", "a" * 20 + "b" * 20),
                                            ("tk:1", "10$0$1$1$0$1$1$")])
    def test_traced_runs_take_sweeps_in_bulk(self, name, word):
        # A traced run on a fresh executor compiles sweep codes into the one
        # cache, and still records each step's action.
        spec = builtin(name)
        ex = Executor(spec)
        traced = ex.run(word, trace=True)
        sweeps = set(_SWEEPS.values())
        assert any(sweeps & set(a[3:-1:2]) for a in ex._cache.values() if a)
        assert len(step_actions(traced.trace)) == traced.steps == ex.run(word).steps
        assert traced.trace.to_lines() == stepped_lines(spec, word)

    @pytest.mark.parametrize("name, word", [("lprime", gen_lprime(6, 1).render()),
                                            ("mk:3", gen_lk(3, (9, 9, 9), 3, 1).render())])
    def test_traced_runs_take_input_runs_in_bulk(self, name, word):
        # A traced run on a fresh executor compiles copy codes into the one
        # cache, and still records each step's action.
        spec = builtin(name)
        ex = Executor(spec)
        traced = ex.run(word, trace=True)
        assert any(_COPY in a[3:-1:2] for a in ex._cache.values() if a)
        plain = ex.run(word)
        assert len(step_actions(traced.trace)) == traced.steps == plain.steps
        assert traced.trace.consumed.count(1) == plain.input_consumed == len(word)
        assert traced.trace.to_lines() == stepped_lines(spec, word)

    @pytest.mark.parametrize("name, word, bulk", [
        ("anbn:quadratic", "a" * 20 + "b" * 20, {"rotate"}),
        ("tk:1", "11011011001$0$0$0$0$1$1$1$0$0$0$0$1$", {"sweep", "map"}),
        ("lprime", gen_lprime(6, 1).render(), {"rotate", "copy", "halve"}),
        ("mk:3", gen_lk(3, (9, 9, 9), 3, 1).render(), {"copy"}),
        ("anbn:linear", "a" * 20 + "b" * 20, {"halve"})])
    def test_traced_runs_take_as_many_bulk_steps_as_plain_runs(self, name, word, bulk,
                                                               monkeypatch):
        # Counted on one warm executor: _rotate, _sweep and the copy
        # contexts' match are called as often in a traced run as in a plain one.
        ex = Executor(builtin(name))
        ex.run(word)
        ex.run(word, trace=True)   # every key of both runs is now compiled
        calls = count_bulk_calls(ex, monkeypatch)
        ex.run(word)
        plain = dict(calls)
        calls.clear()
        ex.run(word, trace=True)
        assert calls == plain and set(plain) == bulk

    @pytest.mark.parametrize("name, word, bulk", [
        ("lprime", gen_lprime(6, 1).render(), {"rotate", "copy", "halve"}),
        ("anbn:quadratic", "a" * 8 + "b" * 8, {"rotate"}),
        ("tk:1", "11011011001$0$0$0$0$1$1$1$0$0$0$0$1$", {"sweep", "map"}),
        ("mk:3", gen_lk(3, (9, 9, 9), 3, 1).render(), {"copy"}),
        ("anbn:linear", "a" * 20 + "b" * 20, {"halve"})])
    def test_step_calls_no_bulk_helper(self, name, word, bulk, monkeypatch):
        # step() runs its loop to one step past the configuration's, so no
        # bulk branch has room for a step: it calls neither _rotate, _sweep,
        # _halve, _serve nor a copy context's match.  A plain run of the word
        # calls them.
        spec = builtin(name)
        ex = Executor(spec)
        ex.run(word)   # compiles every key that stepping the word meets
        keys = set(ex._cache)
        monkeypatch.setattr(machine, "executor_for", lambda _: ex)
        calls = count_bulk_calls(ex, monkeypatch)
        cfg = ex.initial(word)
        while step(spec, cfg) is not None:
            pass
        assert not calls and set(ex._cache) == keys
        assert ex.run(word).steps == cfg.steps and set(calls) == bulk

    @pytest.mark.parametrize("name, word", [("lprime", gen_lprime(6, 1).render()),
                                            ("mk:3", gen_lk(3, (9, 9, 9), 3, 1).render()),
                                            ("tk:1", "10$0$1$1$0$1$1$"),
                                            ("anbn:quadratic", "a" * 20 + "b" * 20),
                                            ("anbn:linear", "a" * 20 + "b" * 20)])
    def test_one_observation_cache(self, name, word):
        # Plain, traced and watched runs read one cache: once a plain run has
        # compiled a word's keys, the other two compile none.  Every action
        # carries its row for the trace.  Every bulk context is one _Bulk
        # record, whose members each compiled key proved: a queue's keys share
        # the record's action, as many as it has members (a halving pass's
        # keeps), and a tape sweep's keys keep their own actions, with the
        # context's code and row, and map to it by action.  A halving pass's
        # keep pairs give its keep action (s to t) and its drop pairs its drop
        # action (t to s), and a record's match is the one its members give.
        ex = Executor(builtin(name))
        ex.run(word)
        keys = set(ex._cache)
        ex.run(word, trace=True)
        ex.run(word, watch_lengths=True)
        assert set(ex._cache) == keys
        k = len(ex.spec.storages)
        for action in filter(None, ex._cache.values()):
            row = action[-1]
            assert type(row) is bytes and len(row) == k + 1 and row[0] == action[1]
        keys_of, codes = {}, {*_SWEEPS.values(), machine._HALVE}
        for key, action in ex._cache.items():
            bulk = action and ex._walks.get(id(action), next(
                (arg for arg in action[4:-1:2] if type(arg) is machine._Bulk), None))
            if bulk is not None:
                keys_of.setdefault(id(bulk), []).append(key)
        assert ex._sweeps
        for context, bulk in ex._sweeps.items():
            assert type(bulk) is machine._Bulk
            picks, its_keys = set(), keys_of.get(id(bulk), ())
            for key in its_keys:
                action = ex._cache[key]
                j = next(j for j, code in enumerate(action[3:-1:2]) if code in codes)
                code, row = action[3 + 2 * j], action[-1]
                if bulk.action is not None:   # a queue's keys share its action
                    assert action is bulk.action
                    picks.add((key[1], key[2 + j]) if code == machine._HALVE
                              else key[1] if code == _COPY else key[2 + j])
                    continue
                assert context[-4:-1] == (j, code, row) and context[-1] == bulk.stays
                pick = key[1:2] * row[0] + key[2 + j:3 + j + (row[j + 2:j + 3] == b"\xff")]
                pick = pick if pick[1:] else pick[0]
                cell = action[4 + 2 * j] or key[2 + j]
                picks.add(pick)
                assert bulk[pick] == (None if bulk.stays else (cell, action[6 + 2 * j])
                                      if row[j + 2:j + 3] == b"\x01" else cell)
            if bulk.keeps is not None:   # a halving pass's
                s, t, *rest, j, code = context
                assert code == machine._HALVE and picks == bulk.keeps
                assert len(its_keys) == len(bulk.keeps) and set(bulk.values()) <= {None}
                for pairs, state, action in ((bulk.keeps, s, bulk.action), (bulk, t, bulk.drop)):
                    for view, front in pairs:
                        assert ex._cache[(state, view, *rest[:j], front, *rest[j:])] is action
                assert bulk.action is None or bulk.action[0] == t
                assert bulk.drop is None or bulk.drop[0] == s
                match = machine._pass_match(bulk, bulk.keeps)
            elif bulk.action:   # a rotation's or a copy's
                assert picks == set(bulk) and len(its_keys) == len(bulk)
                assert set(bulk.values()) == {None}
                match = (re.compile(f"[{re.escape(''.join(bulk))}]*").match
                         if _COPY in bulk.action[3:-1:2] else None)
            else:   # a tape sweep's
                assert bulk and set(bulk) == picks
                match = None
            pattern = match and match.__self__.pattern
            assert pattern == (bulk.match and bulk.match.__self__.pattern)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_traced_lprime_takes_its_halving_passes_in_bulk(self, seed, monkeypatch):
        # A traced gen_lprime(15, seed) run takes at least 95 % of its
        # compare and rotate steps in _halve (the rest: each pass's rent).
        ex, word, took = Executor(builtin("lprime")), gen_lprime(15, seed).render(), []
        halve = machine._halve

        def count(queue, context, padded, pos, steps, limit):
            res = halve(queue, context, padded, pos, steps, limit)
            took.append(res[0] - steps)
            return res

        ex.run(word)
        monkeypatch.setattr(machine, "_halve", count)
        res = ex.run(word, trace=True)
        passes = sum(action[0] in ("compare", "rotate") for action in step_actions(res.trace))
        assert passes == 65536 and sum(took) >= 0.95 * passes
        assert res.accepted and len(res.trace) == res.steps == ex.run(word).steps

    @pytest.mark.parametrize("name", ["mk:3", "tk:3"])
    def test_serving_rounds_go_in_bulk(self, name, monkeypatch):
        # Plain and watched runs of sized_fk_instance(k, 2**13, 1) on a warm
        # executor take at least 90 % of their serving rounds' steps (the
        # steps along the serving cycle, counted in a traced run) in _serve;
        # the rest are the rent of single rounds before a call.
        ex, word = Executor(builtin(name)), sized_fk_instance(3, 2**13, 1).render()
        cycle = next(iter(ex._tags.values()))
        after = dict(zip(cycle.states, cycle.states[1:] + cycle.states[:1]))
        trace = ex.run(word, trace=True).trace
        actions = step_actions(trace)
        serving = sum(after.get(a[0]) == b[0] for a, b in zip(actions, actions[1:]))
        assert serving > len(trace) // 5
        serve, took = machine._serve, []

        def count(*args):
            res = serve(*args)
            took.append(res[0] - args[6])
            return res

        monkeypatch.setattr(machine, "_serve", count)
        for mode in ({}, {"watch_lengths": True}):
            took.clear()
            assert ex.run(word, **mode).steps == len(trace)
            assert sum(took) >= 0.9 * serving, (mode, sum(took), serving)

    def test_empty_input_needs_epsilon_flag(self):
        spec = echo_machine(Kind.QUEUE)
        assert run(spec, "").verdict is Verdict.REJECT
        # the same machine with the flag set accepts the empty input
        assert run(spec._replace(epsilon_accept=True), "").verdict is Verdict.ACCEPT

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
        assert steps_of(a.trace) == steps_of(b.trace)
        assert a.trace.to_lines() == b.trace.to_lines()

    @given(words_ab)
    @settings(max_examples=40)
    def test_step_accounting(self, word):
        res = run(echo_machine(Kind.QUEUE), word, trace=True)
        records = steps_of(res.trace)
        assert len(res.trace) == len(records) == res.steps
        assert sum(r.consumed for r in records) == res.input_consumed == len(word)
        assert res.input_consumed <= res.steps
        assert sum(r.emit is not None for r in records) == len(res.output) <= res.steps
        assert [r.step for r in records] == list(range(1, res.steps + 1))

    def test_post_mode_conservation(self):
        # No storage actions at all: the queue holds the input at every step.
        spec = simple_machine(
            Kind.QUEUE,
            Rule("s", NO_SYMBOL, ("a",), "t", ops=(NO_OP,)),
            Rule("t", NO_SYMBOL, ("a",), "u", ops=(NO_OP,)),
            mode=Mode.POST, states=("s", "t", "u"))
        cfg = executor_for(spec).initial("ab")
        seen = [contents(cfg, 0)]
        while step(spec, cfg):
            seen.append(contents(cfg, 0))
        assert all(s == ("a", "b") for s in seen)

    def test_acceptance_soundness_empty_storages(self):
        res = run(echo_machine(Kind.QUEUE), "abba", trace=True)
        assert res.verdict is Verdict.ACCEPT
        series = storage_length_series(res.trace, "s")
        assert series[-1][1] == 0


def test_default_step_limit_formula():
    # A machine that never halts, run without max_steps, stops at the default
    # limit 64 * (n + 1) ** 2: 64 steps on the empty word, 1,024 on three symbols.
    spec = simple_machine(Kind.QUEUE, Rule("s", WILDCARD, (WILDCARD,), "s", ops=(NO_OP,)),
                          states=("s",))
    for flags in ({}, {"watch_lengths": True}, {"trace": True}):
        for word, limit in (("", 64), ("aba", 64 * 16)):
            res = run(spec, word, **flags)
            assert (res.verdict, res.halt_reason, res.steps) == (
                Verdict.STEP_LIMIT, "step_limit", limit), flags


def test_loop_hooks_are_the_extras_keys():
    # A marker line renders its extras' lines for its name, and a misspelled
    # one renders nothing: every hook of the templates is some extra's key,
    # and every key is a hook.
    templates = (machine._LOOP, *machine._LOOP_SETUP.values(), *machine._LOOP_APPLY.values())
    hooks = {m[2] for template in templates for m in machine._MARKER.finditer(template)}
    assert hooks == set().union(machine._WORD, machine._CONFIG, machine._WATCH,
                                machine._TRACE, machine._SERVE)


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
        n = len(tr)
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

    def test_records_is_the_trace(self):
        tr = self.trace_of("ab")
        assert tr.records is tr
        assert len(tr) == len(steps_of(tr)) == 4
        assert steps_of(tr)[-1] == StepRecord(4, "go", False, (0,), "b")

    def test_length_after(self):
        tr = self.trace_of("ab")
        assert [tr.length_after("s", i) for i in range(len(tr) + 1)] == [0, 1, 2, 1, 0]
        for storage, step in (("nope", 0), ("s", -1), ("s", len(tr) + 1)):
            with pytest.raises(ValueError):
                tr.length_after(storage, step)

    def test_minimal_delay_on_every_short_column(self):
        """Every 0/1 ``consumed`` column up to 10 steps and every region
        against the longest run of silent steps counted one by one."""
        for n in range(1, 11):
            for bits in itertools.product((0, 1), repeat=n):
                tr = Trace((), ())
                tr.actions = [("s", c, None, bytes((c,))) for c in bits]
                for start, end in itertools.combinations_with_replacement(range(1, n + 1), 2):
                    worst = streak = 0
                    for c in bits[start - 1:end]:
                        streak = 0 if c else streak + 1
                        worst = max(worst, streak)
                    assert minimal_delay(tr, (start, end)) == worst, (bits, start, end)

    def test_lengths_on_every_short_column(self):
        """Every sequence of up to 4 steps of two storages (initially of
        lengths 0 and 2), each step changing each by +1, -1 or 0 and no
        length going below 0: every length read against a plain loop."""
        ids, initial = ("p", "q"), (0, 2)
        for n in range(5):
            for steps in itertools.product(itertools.product((1, -1, 0), repeat=2), repeat=n):
                want, row = [], list(initial)
                for changes in steps:
                    row = [x + d for x, d in zip(row, changes)]
                    want.append(tuple(row))
                if any(x < 0 for after in want for x in after):
                    continue
                tr = Trace(ids, initial)
                tr.actions = [("s", 0, None, bytes((0, *(d & 255 for d in changes))))
                              for changes in steps]
                for j, i in enumerate(ids):
                    assert list(tr.lengths_of(i)) == [after[j] for after in want], steps
                    assert [tr.length_after(i, m) for m in range(n + 1)] == [
                        initial[j], *(after[j] for after in want)], steps
                    assert storage_length_series(tr, i) == [
                        (m, after[j]) for m, after in enumerate(want, 1)], steps
                lines = tr.to_lines()
                assert lines[0] == "step,state,consumed,len(p),len(q),emit"
                assert [tuple(map(int, line.split(",")[3:5])) for line in lines[1:]] == want

    @pytest.mark.parametrize("name, word", [("mk:3", gen_lk(3, (9, 9, 9), 3, 1).render()),
                                            ("tk:2", "10#01$11$00$"),
                                            ("lprime", gen_lprime(4, 1).render())],
                             ids=["mk:3", "tk:2", "lprime"])
    def test_length_after_reads_its_kept_column(self, name, word):
        """Once a storage's change column is kept, queries in decreasing step
        order, the storages interleaved, still read each length."""
        tr = run(builtin(name), word, trace=True).trace
        tr.length_after(tr.storage_ids[0], len(tr))
        assert "_columns" in vars(tr)
        want = {i: [tr.initial[j], *tr.lengths_of(i)] for j, i in enumerate(tr.storage_ids)}
        for n in reversed(range(len(tr) + 1)):
            for i in tr.storage_ids[::-1]:
                assert tr.length_after(i, n) == want[i][n], (i, n)

    def test_lprime_timing_memory_per_step(self):
        """``lprime_timing`` reads ``consumed`` and a few queue lengths, so a
        trace keeps its actions and builds no length column."""
        inst = gen_lprime(12, 1)
        lprime_timing(inst)   # the executor and its caches exist before measuring
        tracemalloc.start()
        try:
            timing = lprime_timing(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * (timing.prefix_length + timing.tail_steps)

    def test_trace_file_format(self):
        tr = self.trace_of("ab")
        lines = tr.to_lines()
        assert lines[0] == "step,state,consumed,len(s),emit"
        assert lines[1] == "1,go,y,1,"
        assert lines[-1].endswith(",n,0,b")

    @pytest.mark.parametrize("seed", range(60))
    def test_entry_readers_match_the_trace_one_action_per_step(self, seed, monkeypatch):
        """A random list of entries (single steps, runs of one action and
        keep/drop runs of odd and even counts, 0 included, over two storages
        whose lengths rise, fall and stay) reads as the same trace with one
        action per step, and as values counted step by step."""
        rng = random.Random(seed)

        def action():
            consume, changes = rng.randrange(2), [rng.choice((-1, 0, 1)) for _ in "pq"]
            return (rng.choice(("s", "t", "u%d")), bool(consume), rng.choice((None, None, "a")),
                    0, None, 0, None, bytes((consume, *(d & 255 for d in changes))))

        tr = Trace(("p", "q"), (rng.randrange(4), rng.randrange(4)))
        for _ in range(rng.randrange(10)):
            kind = rng.randrange(3)   # a single step, a run of one action, of a keep and a drop
            cycle = (action(), action())[:kind or 1]
            if kind:
                tr.runs[len(tr.actions)] = rng.randrange(12), cycle
            tr.actions.append(cycle[0])
        steps = step_actions(tr)
        expanded = Trace(tr.storage_ids, tr.initial)
        expanded.actions = steps
        after, lines = [list(tr.initial)], ["step,state,consumed,len(p),len(q),emit"]
        for n, a in enumerate(steps, 1):
            after.append([x + (d ^ 128) - 128 for x, d in zip(after[-1], a[-1][1:])])
            lines.append(f"{n},{a[0]},{'y' if a[1] else 'n'},{after[-1][0]},{after[-1][1]},"
                         f"{a[2] or ''}")
        consumed = bytes(a[1] for a in steps)
        for trace in (tr, expanded):
            assert len(trace) == len(steps)
            assert trace.consumed == consumed
            for j, i in enumerate(trace.storage_ids):
                assert list(trace.lengths_of(i)) == [x[j] for x in after[1:]]
                assert [trace.length_after(i, n) for n in range(len(steps) + 1)] == [
                    x[j] for x in after]
            for start, end in itertools.combinations_with_replacement(
                    range(1, len(steps) + 1), 2):
                silent = consumed[start - 1:end].split(b"\x01")
                assert minimal_delay(trace, (start, end)) == max(map(len, silent))
            for chunk in (1, 2, 3, 7, machine._CHUNK):
                monkeypatch.setattr(machine, "_CHUNK", chunk)
                assert trace.to_lines() == lines, chunk

    @pytest.mark.parametrize("name, word", [
        ("anbn:quadratic", "a" * 256 + "b" * 256), ("lprime", gen_lprime(12, 1).render()),
        ("tk:1", "11011011001$0$0$0$0$1$1$1$0$0$0$0$1$"),
        ("mk:3", gen_lk(3, (9, 9, 9), 3, 1).render()), ("anbn:linear", "a" * 20 + "b" * 20)])
    def test_traced_runs_hold_an_entry_per_single_step_and_bulk_call(self, name, word,
                                                                      monkeypatch):
        """On a fresh executor (warmed by one plain run, so that each copy
        context exists and its matches are counted), a traced run holds one
        slot per step it took singly and one run per bulk call; anbn:quadratic
        and lprime hold fewer than one slot per ten steps."""
        ex = Executor(builtin(name))
        ex.run(word)
        calls = count_bulk_calls(ex, monkeypatch)
        res = ex.run(word, trace=True)
        tr, bulk = res.trace, sum(calls.values())
        assert bulk and len(tr.runs) == bulk and len(tr) == res.steps
        assert len(tr.actions) == res.steps - sum(n for n, _ in tr.runs.values()) + bulk
        assert name not in ("anbn:quadratic", "lprime") or 10 * len(tr.actions) < res.steps


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
    spec = builtin(name)
    reloaded = specfile.loads(specfile.dumps(spec))
    assert reloaded is not spec and reloaded == spec
    assert hash(reloaded) == hash(spec)
    assert executor_for(reloaded) is executor_for(spec)


def test_specs_differing_in_one_rule_get_their_own_executors():
    spec = echo_machine(Kind.QUEUE)
    rules = list(spec.rules)
    rules[2] = rules[2]._replace(emit="b")   # pops an a, emits b
    other = spec._replace(rules=tuple(rules))
    assert (other.name, other.start, len(other.rules)) == (spec.name, spec.start,
                                                            len(spec.rules))
    assert other != spec
    assert executor_for(other) is not executor_for(spec)
    assert run(spec, "ab").output == "ab" and run(other, "ab").output == "bb"

"""Differential test: the executor's run loop against a naive reference.

The reference below follows the README's "Machine model" section and nothing
else: it scans every rule of the spec on every step, keeps the most specific
applicable one (componentwise, input most significant) and has no cache.
Plain, watched and traced ``Executor.run`` and the public ``step`` API must
each agree with it on verdict, output, steps, input consumed, fault text,
halt reason, per-step records and peak storage lengths, and ``step`` must
leave the same configuration behind, after a fault too.  A traced run's
trace file lines, ``check_realtime``, ``minimal_delay`` and
``storage_length_series`` must equal values computed from the reference's
records.  The machines are the builtins, a few hand-written ones and
randomly generated valid specs.
"""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_machine_core as core
from qmlab.machine import (
    BLANK,
    EMPTY,
    NO_SYMBOL,
    WILDCARD,
    Acceptance,
    ExecutionFault,
    Kind,
    MachineSpec,
    Mode,
    QueueOp,
    Rule,
    StorageSpec,
    TapeOp,
    Verdict,
    check_realtime,
    default_step_limit,
    executor_for,
    minimal_delay,
    step,
    storage_length_series,
    validate_spec,
)
from qmlab.machines import builtin
from qmlab.oracles import FK_CLAUSES, LPRIME_CLAUSES, gen_lk, gen_lprime, mutate_negative


class _Fault(Exception):
    pass


@dataclass
class Reference:
    verdict: Verdict
    output: str
    steps: int
    input_consumed: int
    fault: str | None
    records: list      # (step, state, consumed, lengths, emit) per step
    peaks: tuple
    config: tuple      # (state, input position, steps, output, storage contents)


def reference_run(spec, word, max_steps=None) -> Reference:
    post = spec.mode is Mode.POST
    stores = []
    for j, st_ in enumerate(spec.storages):
        if st_.kind is Kind.TAPE:
            stores.append({"cells": [BLANK * st_.tracks], "head": 0})
        else:
            stores.append(list(word) if post and j == 0 else [])

    def view(j):
        s, kind = stores[j], spec.storages[j].kind
        if kind is Kind.TAPE:
            return s["cells"][s["head"]]
        if not s:
            return EMPTY
        return s[0] if kind is Kind.QUEUE else s[-1]

    def lengths():
        return tuple(sum(c != BLANK * st_.tracks for c in s["cells"])
                     if st_.kind is Kind.TAPE else len(s)
                     for st_, s in zip(spec.storages, stores))

    def apply(rule):
        nonlocal pos
        if rule.consume:
            if pos >= len(word):
                raise _Fault("input consumed past end of word")
            pos += 1
        for st_, s, op in zip(spec.storages, stores, rule.ops):
            if st_.kind is Kind.TAPE:
                if op.write is not None:
                    s["cells"][s["head"]] = op.write
                if op.move == "R":
                    s["head"] += 1
                    if s["head"] == len(s["cells"]):
                        s["cells"].append(BLANK * st_.tracks)
                elif op.move == "L":
                    if s["head"] == 0:
                        raise _Fault(f"tape head moved off the left end of {st_.ident!r}")
                    s["head"] -= 1
                continue
            if op.pop:
                if not s:
                    raise _Fault(f"pop on empty {st_.kind.value} {st_.ident!r}")
                s.pop(0 if st_.kind is Kind.QUEUE else -1)
            if op.push is not None:
                s.append(op.push)
        if rule.emit is not None:
            output.append(rule.emit)

    state, pos, output, records = spec.start, 0, [], []
    peaks = lengths()
    limit = default_step_limit(len(word)) if max_steps is None else max_steps
    fault = None
    while True:
        if len(records) >= limit:
            verdict = Verdict.STEP_LIMIT
            break
        obs = (NO_SYMBOL if post or pos >= len(word) else word[pos],) + tuple(
            view(j) for j in range(len(stores)))
        best = None
        for rule in spec.rules:
            pats = (rule.input_pat,) + rule.storage_pats
            if rule.state == state and all(p in (WILDCARD, o) for p, o in zip(pats, obs)):
                rank = tuple(p != WILDCARD for p in pats)
                if best is None or rank > best[0]:
                    best = (rank, rule)
        if best is None:
            verdict = _halt_verdict(spec, word, state, pos, lengths(), output)
            break
        rule = best[1]
        try:
            apply(rule)
        except _Fault as exc:
            fault, verdict = str(exc), Verdict.FAULT
            break
        state = rule.next_state
        now = lengths()
        peaks = tuple(map(max, peaks, now))
        records.append((len(records) + 1, state, rule.consume, now, rule.emit))
    contents = tuple((tuple(s["cells"]), s["head"]) if isinstance(s, dict) else tuple(s)
                     for s in stores)
    return Reference(verdict, "".join(output), len(records), pos, fault, records, peaks,
                     (state, pos, len(records), "".join(output), contents))


def _halt_verdict(spec, word, state, pos, lengths, output):
    if not word and not spec.epsilon_accept:
        return Verdict.REJECT
    consumed_all = spec.mode is Mode.POST or pos == len(word)
    if spec.acceptance is Acceptance.EMPTY_STORAGES:
        ok = consumed_all and not any(lengths)
    elif spec.acceptance is Acceptance.FINAL_STATES:
        ok = consumed_all and state in spec.finals
    else:
        ok = bool(output) and output[-1] == "1"
    return Verdict.ACCEPT if ok else Verdict.REJECT


# --------------------------------------------------------------------------
# Machines and words


def _tape_left_machine():
    return core.simple_machine(
        Kind.TAPE,
        Rule("w", "0", (WILDCARD,), "w", consume=True, ops=(TapeOp(write="1", move="R"),)),
        Rule("w", "1", (WILDCARD,), "w", consume=True, ops=(TapeOp(move="L"),)),
        alphabet="01", storage_alphabet="01", output="01", states=("w",))


def _blank_rewrite_machine():
    return core.simple_machine(
        Kind.TAPE,
        Rule("w", "0", ("_",), "x", consume=True, ops=(TapeOp(write="0", move="S"),)),
        Rule("x", "0", ("0",), "w", consume=True, ops=(TapeOp(write="_", move="S"),)),
        alphabet="01", storage_alphabet="01", output="01", states=("w", "x"))


def _pushdown_rewrite_machine():
    # Replaces, pops and pushes the top depending on the input, then drains.
    return core.simple_machine(
        Kind.PUSHDOWN,
        Rule("w", "a", (WILDCARD,), "w", consume=True, ops=(QueueOp(push="a"),)),
        Rule("w", "b", ("a",), "w", consume=True, ops=(QueueOp(pop=True, push="b"),)),
        Rule("w", "b", ("b",), "w", consume=True, ops=(QueueOp(pop=True),)),
        Rule("w", "b", (EMPTY,), "w", consume=True, ops=(QueueOp(push="b"),)),
        Rule("w", NO_SYMBOL, ("a",), "w", ops=(QueueOp(pop=True),), emit="a"),
        Rule("w", NO_SYMBOL, ("b",), "w", ops=(QueueOp(pop=True, push="a"),), emit="b"),
        states=("w",))


def _lprime_words():
    member = st.builds(lambda k, seed: gen_lprime(k, seed).render(),
                       st.integers(0, 3), st.integers(0, 2**32))
    negative = st.builds(
        lambda k, clause, seed: mutate_negative(gen_lprime(k, seed), clause, seed + 1),
        st.integers(1, 3), st.sampled_from(LPRIME_CLAUSES), st.integers(0, 2**32))
    return st.one_of(st.text("01abc", max_size=14), member, negative)


def _fk_words(k):
    inst = st.builds(lambda f, m, seed: gen_lk(k, tuple(f), m, seed),
                     st.lists(st.integers(1, 3), min_size=k, max_size=k),
                     st.integers(1, 3), st.integers(0, 2**32))
    negative = st.builds(mutate_negative, inst, st.sampled_from(FK_CLAUSES),
                         st.integers(0, 2**32))
    return st.one_of(st.text("01#$", max_size=16), inst.map(lambda i: i.render()),
                     negative)


_ANBN_WORDS = st.one_of(st.text("ab", max_size=10),
                        st.integers(0, 6).map(lambda n: "a" * n + "b" * n))

MACHINES = {
    "lprime": (lambda: builtin("lprime"), _lprime_words()),
    **{f"mk:{k}": (lambda k=k: builtin(f"mk:{k}"), _fk_words(k)) for k in (1, 2, 3)},
    **{f"tk:{k}": (lambda k=k: builtin(f"tk:{k}"), _fk_words(k)) for k in (1, 2)},
    "anbn:linear": (lambda: builtin("anbn:linear"), _ANBN_WORDS),
    "anbn:quadratic": (lambda: builtin("anbn:quadratic"), _ANBN_WORDS),
    "echo:queue": (lambda: core.echo_machine(Kind.QUEUE), st.text("ab", max_size=12)),
    "echo:pushdown": (lambda: core.echo_machine(Kind.PUSHDOWN), st.text("ab", max_size=12)),
    "pushdown:rewrite": (_pushdown_rewrite_machine, st.text("ab", max_size=12)),
    "tape:write-right": (lambda: core.TestTape().write_right_machine(),
                         st.text("01", max_size=12)),
    "tape:left-end": (_tape_left_machine, st.text("01", max_size=12)),
    "tape:blank-rewrite": (_blank_rewrite_machine, st.text("01", max_size=12)),
}

_LIMITS = st.one_of(st.none(), st.integers(0, 40))


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_machines_are_valid(name):
    assert validate_spec(MACHINES[name][0]()).ok


def _config(cfg):
    return (cfg.state, cfg.input_pos, cfg.steps, "".join(cfg.output),
            tuple(cfg.storage_contents(j) for j in range(len(cfg.stores))))


def check_runs(spec, word, max_steps):
    """Plain, watched and traced runs on one executor against the reference."""
    ref = reference_run(spec, word, max_steps)
    ex = executor_for(spec)
    plain = ex.run(word, max_steps=max_steps)
    watched = ex.run(word, max_steps=max_steps, watch_lengths=True)
    traced = ex.run(word, max_steps=max_steps, trace=True)
    reason = {Verdict.STEP_LIMIT: "step_limit", Verdict.FAULT: "fault"}.get(ref.verdict, "no_rule")
    want = (ref.verdict, ref.output, ref.steps, ref.input_consumed, ref.fault, reason)
    for res in (plain, watched, traced):
        assert (res.verdict, res.output, res.steps, res.input_consumed, res.fault,
                res.halt_reason) == want
    assert plain.trace is None and plain.max_lengths is None
    assert watched.trace is None and watched.max_lengths == ref.peaks
    assert traced.max_lengths is None
    assert [(r.step, r.state, r.consumed, r.lengths, r.emit)
            for r in traced.trace.records] == ref.records
    check_trace(spec, traced.trace, ref.records)


def check_trace(spec, tr, records):
    """The trace's file lines and checks against values computed record by
    record from the reference."""
    ids = tuple(s.ident for s in spec.storages)
    assert len(tr) == len(records)
    assert tr.to_lines() == ["step,state,consumed," + ",".join(f"len({i})" for i in ids)
                             + ",emit"] + [
        f"{n},{state},{'y' if consumed else 'n'},{','.join(map(str, lengths))},{emit or ''}"
        for n, state, consumed, lengths, emit in records]
    assert check_realtime(tr) == all(consumed for _, _, consumed, _, _ in records)
    worst = streak = 0
    for _, _, consumed, _, _ in records:
        streak = 0 if consumed else streak + 1
        worst = max(worst, streak)
    if records:
        assert minimal_delay(tr, (1, len(records))) == worst
    else:
        with pytest.raises(ValueError):
            minimal_delay(tr, (1, 0))
    for j, ident in enumerate(ids):
        assert storage_length_series(tr, ident) == [(n, lengths[j])
                                                    for n, _, _, lengths, _ in records]


def check_steps(spec, word, limit):
    """``step`` driven to halt, fault or ``limit`` against the reference,
    including the configuration it leaves behind."""
    ref = reference_run(spec, word, max_steps=limit)
    cfg = executor_for(spec).initial(word)
    records, fault = [], None
    try:
        while cfg.steps < limit and (rec := step(spec, cfg)) is not None:
            records.append((rec.step, rec.state, rec.consumed, rec.lengths, rec.emit))
    except ExecutionFault as exc:
        fault = str(exc)
    assert records == ref.records
    assert fault == ref.fault
    assert _config(cfg) == ref.config


@pytest.mark.parametrize("name", sorted(MACHINES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_run_matches_reference(name, data):
    build, words = MACHINES[name]
    check_runs(build(), data.draw(words, label="word"), data.draw(_LIMITS, label="max_steps"))


@pytest.mark.parametrize("name", sorted(MACHINES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_step_matches_reference(name, data):
    build, words = MACHINES[name]
    check_steps(build(), data.draw(words, label="word"), 200)


# --------------------------------------------------------------------------
# Generated specs: 0-3 storages of mixed kinds (at least one, a queue first,
# in post mode), online or post mode, wildcard
# and "-" patterns, consume/emit, and actions that can fault (pop on empty,
# head off the left end, consume past the end of the input).

_SYMBOLS = "ab"


def _cells(tracks):
    return st.text(BLANK + _SYMBOLS, min_size=tracks, max_size=tracks)


def _pattern(storage):
    if storage.kind is Kind.TAPE:
        return st.one_of(st.just(WILDCARD), st.just(WILDCARD), _cells(storage.tracks))
    return st.sampled_from((WILDCARD, WILDCARD, EMPTY, *_SYMBOLS))


def _op(storage, pat):
    if storage.kind is Kind.TAPE:
        # Few left moves: at cell 0 one faults, which would end most runs early.
        return st.builds(TapeOp, st.one_of(st.none(), _cells(storage.tracks)),
                         st.sampled_from("LSSRR"))
    # Pop mostly where the pattern proves the storage non-empty, seldom under
    # a wildcard, for the same reason.
    pop = (st.booleans() if pat == EMPTY
           else st.sampled_from((True, True, True, False)) if pat in _SYMBOLS
           else st.sampled_from((True, False, False, False, False, False)))
    return st.builds(QueueOp, pop, st.sampled_from((None, *_SYMBOLS)))


@st.composite
def machine_specs(draw):
    post = draw(st.booleans())
    storages = []
    for j in range(draw(st.integers(1 if post else 0, 3))):
        kind = Kind.QUEUE if post and j == 0 else draw(st.sampled_from(list(Kind)))
        tracks = draw(st.integers(1, 3)) if kind is Kind.TAPE else 1
        storages.append(StorageSpec(f"s{j}", kind, frozenset(_SYMBOLS), tracks))
    states = tuple(f"q{i}" for i in range(draw(st.integers(1, 3))))
    input_pats = (WILDCARD, NO_SYMBOL) if post else (WILDCARD, WILDCARD, WILDCARD, NO_SYMBOL, *_SYMBOLS)

    def rule(input_pat, pats):
        consume = draw(st.booleans()) and not post and input_pat != NO_SYMBOL
        return Rule(draw(st.sampled_from(states)), input_pat, pats,
                    draw(st.sampled_from(states)), consume,
                    tuple(draw(_op(s, p)) for s, p in zip(storages, pats)),
                    draw(st.sampled_from((None, "0", "1"))))

    # Catch-all rules (every pattern a wildcard) for some states keep runs
    # going until they fault or reach the step limit.
    table = [rule(WILDCARD, (WILDCARD,) * len(storages))
             for _ in range(draw(st.integers(0, len(states))))]
    table += [rule(draw(st.sampled_from(input_pats)),
                   tuple(draw(_pattern(s)) for s in storages))
              for _ in range(draw(st.integers(4, 16)))]
    table = list({r.pattern_key(): r for r in reversed(table)}.values())
    acceptance = draw(st.sampled_from(list(Acceptance)))
    finals = (draw(st.frozensets(st.sampled_from(states)))
              if acceptance is Acceptance.FINAL_STATES else frozenset())
    return MachineSpec(
        name="generated", states=states, start=states[0],
        input_alphabet=frozenset(_SYMBOLS), output_alphabet=frozenset("01"),
        storages=tuple(storages), rules=tuple(table), acceptance=acceptance, finals=finals,
        mode=Mode.POST if post else Mode.ONLINE, epsilon_accept=draw(st.booleans()))


@settings(max_examples=200, deadline=None)
@given(spec=machine_specs(), word=st.text(_SYMBOLS, max_size=8),
       max_steps=st.one_of(st.just(60), st.just(0), st.integers(0, 60)))
def test_generated_spec_runs_match_reference(spec, word, max_steps):
    assert validate_spec(spec).ok
    check_runs(spec, word, max_steps)


@settings(max_examples=100, deadline=None)
@given(spec=machine_specs(), word=st.text(_SYMBOLS, max_size=8))
def test_generated_spec_steps_match_reference(spec, word):
    check_steps(spec, word, 60)

"""Differential test: the executor's run loop against a naive reference.

The reference below follows the README's "Machine model" section and nothing
else: it scans every rule of the current state on every step, keeps the most
specific applicable one (componentwise, input most significant) and has no
cache.  It runs a word once to its default limit, keeping the configuration
after every step, and a run cut at a smaller limit is that run's prefix.
Plain, watched and traced ``Executor.run`` and the public ``step`` API must
each agree with it on verdict, output, steps, input consumed, fault text,
halt reason, per-step records and peak storage lengths, and ``step`` must
leave the same configuration behind, after a fault too.  The run loop
entered from a configuration must return what a run from the word returns.
A traced run's trace file lines, ``check_realtime``, ``minimal_delay``,
``storage_length_series`` and ``Trace.length_after`` must equal values
computed from the reference's records, and the trace file written in
chunks of 1, 2, 3, 7 and 2**14 steps must equal the lines of the same run
driven by ``step``.
The machines are the builtins, a few hand-written ones and randomly
generated valid specs.
"""

import io
import itertools
import random
import timeit
from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_machine_core as core
from qmlab import machine
from qmlab.machine import (
    BLANK,
    EMPTY,
    NO_OP,
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
    executor_for,
    _COPY,
    minimal_delay,
    step,
    storage_length_series,
    validate_spec,
)
from qmlab.analysis import sized_fk_instance
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
    rows: list         # (step, state, consumed, lengths, emit) per step
    peaks: tuple
    config: tuple      # (state, input position, steps, output, storage contents)


def reference_run(spec, word, max_steps=None) -> Reference:
    limit = 64 * (len(word) + 1) ** 2 if max_steps is None else max_steps
    if (spec, word) not in _FULL_RUNS or limit > 64 * (len(word) + 1) ** 2:
        run = _reference_run(spec, word, limit)
        if max_steps is None:   # kept, so that runs cut at smaller limits are its prefixes
            _FULL_RUNS.clear() if len(_FULL_RUNS) > 16 else None
            _FULL_RUNS[spec, word] = run
        return run[0]
    full, configs, initial = _FULL_RUNS[spec, word]
    if max_steps is None or max_steps > full.steps or max_steps == full.steps and (
            full.verdict is Verdict.STEP_LIMIT):
        return full
    rows = full.rows[:max_steps]
    _, pos, _, output, _ = configs[max_steps]
    return Reference(Verdict.STEP_LIMIT, output, max_steps, pos, None, rows,
                     tuple(map(max, zip(initial, *(r[3] for r in rows)))), configs[max_steps])


_FULL_RUNS: dict = {}   # (spec, word): a run to the default limit, with its configurations


def _reference_run(spec, word, max_steps):
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

    def contents():
        return tuple((tuple(s["cells"]), s["head"]) if isinstance(s, dict) else tuple(s)
                     for s in stores)

    state, pos, output, records = spec.start, 0, [], []
    initial = peaks = lengths()
    limit, fault = max_steps, None
    rules_of = {}
    for rule in spec.rules:
        rules_of.setdefault(rule.state, []).append(rule)
    configs = [(state, pos, 0, "", contents())]
    while True:
        if len(records) >= limit:
            verdict = Verdict.STEP_LIMIT
            break
        obs = (NO_SYMBOL if post or pos >= len(word) else word[pos],) + tuple(
            view(j) for j in range(len(stores)))
        best = None
        for rule in rules_of.get(state, ()):
            pats = (rule.input_pat,) + rule.storage_pats
            if all(p in (WILDCARD, o) for p, o in zip(pats, obs)):
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
        configs.append((state, pos, len(records), "".join(output), contents()))
    return Reference(verdict, "".join(output), len(records), pos, fault, records, peaks,
                     (state, pos, len(records), "".join(output), contents())), configs, initial


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


def _rotate_all_machine():
    # Queues the input, then rotates it for ever: every symbol is in the
    # rotation sweep, so a run on a non-empty word reaches the step limit.
    rules = [Rule("w", ch, (WILDCARD,), "w", consume=True, ops=(QueueOp(push=ch),))
             for ch in "ab"]
    rules += [Rule("w", NO_SYMBOL, (ch,), "w", ops=(QueueOp(pop=True, push=ch),))
              for ch in "ab"]
    return core.simple_machine(Kind.QUEUE, *rules, states=("w",))


def _sweep_right_machine():
    # Marks cell 0, writes the input after it, sweeps left to the mark (which
    # ends that sweep), then sweeps right over the written cells and on over
    # blank cells past the tape's end until the step limit.
    right, left = TapeOp(move="R"), TapeOp(move="L")
    rules = [Rule("s", WILDCARD, (WILDCARD,), "w", ops=(TapeOp(write="m", move="R"),)),
             Rule("w", NO_SYMBOL, (WILDCARD,), "l", ops=(left,)),
             Rule("l", NO_SYMBOL, ("m",), "r", ops=(right,))]
    rules += [Rule("w", b, (WILDCARD,), "w", consume=True, ops=(TapeOp(write=b, move="R"),))
              for b in "01"]
    rules += [Rule("l", NO_SYMBOL, (b,), "l", ops=(left,)) for b in "01"]
    rules += [Rule("r", NO_SYMBOL, (c,), "r", ops=(right,)) for c in "01_"]
    return core.simple_machine(Kind.TAPE, *rules, alphabet="01", storage_alphabet="01m",
                               output="01", states=("s", "w", "l", "r"))


def _sweep_left_fault_machine():
    # Writes the input, then sweeps left over it and off cell 0.
    rules = [Rule("w", b, (WILDCARD,), "w", consume=True, ops=(TapeOp(write=b, move="R"),))
             for b in "01"]
    rules += [Rule(state, NO_SYMBOL, (WILDCARD,), "l", ops=(TapeOp(move="L"),))
              for state in ("w", "l")]
    return core.simple_machine(Kind.TAPE, *rules, alphabet="01", storage_alphabet="01",
                               output="01", states=("w", "l"))


def _rotate_context_machine():
    # Queues the input and stacks it too, then rotates the queue past the
    # symbols equal to the stack's top; any other front also pops the stack,
    # which changes the context, and so the sweep, of the next rotations.
    # It halts when the stack is empty, or rotates for ever once every
    # queued symbol equals the top.
    rules = [Rule("w", ch, (WILDCARD, WILDCARD), "w", consume=True,
                  ops=(QueueOp(push=ch), QueueOp(push=ch))) for ch in "ab"]
    rules.append(Rule("w", NO_SYMBOL, (WILDCARD, WILDCARD), "r", ops=(NO_OP, NO_OP)))
    for front, top in itertools.product("ab", repeat=2):
        rules.append(Rule("r", NO_SYMBOL, (front, top), "r",
                          ops=(QueueOp(pop=True, push=front), QueueOp(pop=front != top))))
    return MachineSpec(
        name="rotate-context", states=("w", "r"), start="w",
        input_alphabet=frozenset("ab"), output_alphabet=frozenset("01"),
        storages=(StorageSpec("q", Kind.QUEUE, frozenset("ab")),
                  StorageSpec("p", Kind.PUSHDOWN, frozenset("ab"))),
        rules=tuple(rules), acceptance=Acceptance.FINAL_STATES, finals=frozenset({"r"}))


def _push_other_machine():
    # Queues the input, then pops each front: an a is pushed back as a b (a
    # self-loop that pops one symbol and pushes another, so not a rotation)
    # and a b is emitted.
    rules = [Rule("w", ch, (WILDCARD,), "w", consume=True, ops=(QueueOp(push=ch),))
             for ch in "ab"]
    rules += [Rule("w", NO_SYMBOL, (WILDCARD,), "r", ops=(NO_OP,)),
              Rule("r", NO_SYMBOL, ("a",), "r", ops=(QueueOp(pop=True, push="b"),)),
              Rule("r", NO_SYMBOL, ("b",), "r", ops=(QueueOp(pop=True),), emit="b")]
    return core.simple_machine(Kind.QUEUE, *rules, states=("w", "r"))


def _copy_alternate_machine():
    # Copies each a and b onto the queue, the input runs that the run loop
    # takes in bulk; a c appends an a instead (a consuming self-loop that
    # appends another symbol than it reads) and ends the run.  Then it emits
    # the queue.
    rules = [Rule("w", ch, (WILDCARD,), "w", consume=True, ops=(QueueOp(push=ch),))
             for ch in "ab"]
    rules += [Rule("w", "c", (WILDCARD,), "w", consume=True, ops=(QueueOp(push="a"),)),
              Rule("w", NO_SYMBOL, (WILDCARD,), "d", ops=(NO_OP,))]
    rules += [Rule("d", NO_SYMBOL, (ch,), "d", ops=(QueueOp(pop=True),), emit=ch)
              for ch in "ab"]
    return core.simple_machine(Kind.QUEUE, *rules, alphabet="abc", storage_alphabet="ab",
                               states=("w", "d"))


def _copy_context_machine():
    # Copies the input onto the queue while a pushdown's top is part of each
    # run's context: an a is copied under any top, a b only under an empty
    # pushdown or an a, and goes onto the pushdown under a b; a c sets the
    # top (a, then b, then a, ...).  Then it drains both storages.
    def rule(state, symbol, pats, q_op, p_op, emit=None):
        return Rule(state, symbol, pats, "w" if symbol != NO_SYMBOL else "d",
                    consume=symbol != NO_SYMBOL, ops=(q_op, p_op), emit=emit)

    pop = QueueOp(pop=True)
    rules = [rule("w", "a", (WILDCARD, WILDCARD), QueueOp(push="a"), NO_OP),
             rule("w", "b", (WILDCARD, EMPTY), QueueOp(push="b"), NO_OP),
             rule("w", "b", (WILDCARD, "a"), QueueOp(push="b"), NO_OP),
             rule("w", "b", (WILDCARD, "b"), NO_OP, QueueOp(push="b")),
             rule("w", "c", (WILDCARD, EMPTY), NO_OP, QueueOp(push="a")),
             rule("w", "c", (WILDCARD, "a"), NO_OP, QueueOp(pop=True, push="b")),
             rule("w", "c", (WILDCARD, "b"), NO_OP, QueueOp(pop=True, push="a")),
             rule("w", NO_SYMBOL, (WILDCARD, WILDCARD), NO_OP, NO_OP)]
    rules += [rule("d", NO_SYMBOL, (ch, WILDCARD), pop, NO_OP, emit=ch) for ch in "ab"]
    rules += [rule("d", NO_SYMBOL, (EMPTY, ch), NO_OP, pop) for ch in "ab"]
    return MachineSpec(
        name="copy-context", states=("w", "d"), start="w",
        input_alphabet=frozenset("abc"), output_alphabet=frozenset("ab"),
        storages=(StorageSpec("q", Kind.QUEUE, frozenset("ab")),
                  StorageSpec("p", Kind.PUSHDOWN, frozenset("ab"))),
        rules=tuple(rules), acceptance=Acceptance.EMPTY_STORAGES)


def _tape_pushdown_machine(name, *rules, finals):
    """A machine over the bits with one tape (cells of 0, 1, D and m) and one
    pushdown of bits."""
    states = tuple(dict.fromkeys(s for r in rules for s in (r.state, r.next_state)))
    return MachineSpec(
        name=name, states=states, start=states[0], input_alphabet=frozenset("01"),
        output_alphabet=frozenset("01"),
        storages=(StorageSpec("t", Kind.TAPE, frozenset("01Dm")),
                  StorageSpec("p", Kind.PUSHDOWN, frozenset("01"))),
        rules=rules, acceptance=Acceptance.FINAL_STATES, finals=frozenset(finals))


def _tape_rule(state, symbol, cell, top, next_state, write=None, move="S", pd=NO_OP):
    return Rule(state, symbol, (cell, top), next_state, consume=symbol in "01",
                ops=(TapeOp(write=write, move=move), pd))


def _copy(then, pd=lambda b: NO_OP, cell=lambda b: b, mark="m", end=None):
    # Writes ``mark`` in cell 0, then copies the input onto the tape, past its
    # end (a tape sweep that consumes its input: each step is picked by its
    # symbol and cell), and at the end of the input writes ``end`` and turns
    # left into ``then``.
    return (_tape_rule("s", WILDCARD, WILDCARD, WILDCARD, "w", mark, "R" if mark else "S"),
            *(_tape_rule("w", b, WILDCARD, WILDCARD, "w", cell(b), "R", pd(b)) for b in "01"),
            _tape_rule("w", NO_SYMBOL, WILDCARD, WILDCARD, then, end, "L"))


def _gather_fault_machine():
    # Copies the input from cell 0, then gathers it leftwards onto the
    # pushdown, marking it D (the top it pushes is left out of its context),
    # and off the left end.
    return _tape_pushdown_machine("gather-fault", *_copy("g", mark=None), *(
        _tape_rule("g", WILDCARD, b, WILDCARD, "g", "D", "L", QueueOp(push=b))
        for b in "01"), finals=())


def _refill_empty_machine():
    # Copies the input as D cells and onto the pushdown, goes back to the mark,
    # then refills the D cells from the pushdown until it is empty.
    return _tape_pushdown_machine("refill-empty", *_copy(
        "b", pd=lambda b: QueueOp(push=b), cell=lambda b: "D"),
        _tape_rule("b", WILDCARD, "D", WILDCARD, "b", move="L"),
        _tape_rule("b", WILDCARD, "m", WILDCARD, "r", move="R"),
        *(_tape_rule("r", WILDCARD, "D", b, "r", b, "R", QueueOp(pop=True)) for b in "01"),
        finals=("r",))


def _lower_machine():
    # Copies the input between two marks, blanks its trailing 1s leftwards (a
    # tape sweep whose writes lower the tape's length each step), then writes
    # D over them rightwards up to the end mark, back to the same peak.
    return _tape_pushdown_machine(
        "lower", *_copy("e", end="m"),
        _tape_rule("e", WILDCARD, "1", WILDCARD, "e", "_", "L"),
        _tape_rule("e", WILDCARD, "0", WILDCARD, "f", move="R"),
        _tape_rule("f", WILDCARD, "_", WILDCARD, "f", "D", "R"), finals=("f",))


def _mixed_rows_machine():
    # Copies the input between two marks, a 0 as a blank and a 1 as a 1, then
    # writes D over them leftwards: each of these sweeps raises the tape's
    # length on some cells and keeps it on others, so its keys differ in
    # their rows, and so in their contexts.
    return _tape_pushdown_machine(
        "mixed-rows", *_copy("g", cell=lambda b: "_" if b == "0" else b, end="m"),
        *(_tape_rule("g", WILDCARD, c, WILDCARD, "g", "D", "L") for c in "_1"), finals=("g",))


def _push_reads_top_machine():
    # Gathers leftwards as _gather_fault_machine does, but pushes a bit that
    # depends on the top it reads: the top it sets picks its next step, so
    # the sweep goes step by step.
    return _tape_pushdown_machine("push-reads-top", *_copy("g"), *(
        _tape_rule("g", WILDCARD, b, top, "g", "D", "L", QueueOp(push=push))
        for b in "01" for top, push in ((EMPTY, "0"), ("0", "1"), ("1", "0"))), finals=("g",))


def _halve_wrap_machine():
    # Queues the input up to a c, then halves the queue: a kept front, then a
    # dropped one that consumes an input symbol, for as long as the input
    # lasts, so a long tail goes round the whole queue again and again.  A
    # front is kept only under an a or at the end of the input, where the
    # next drop faults: a b there halts the run.
    rules = [Rule("w", ch, (WILDCARD,), "w", consume=True, ops=(QueueOp(push=ch),))
             for ch in "ab"]
    rules.append(Rule("w", "c", (WILDCARD,), "k", consume=True, ops=(NO_OP,)))
    rules += [Rule("k", symbol, (ch,), "d", ops=(QueueOp(pop=True, push=ch),))
              for symbol in ("a", NO_SYMBOL) for ch in "ab"]
    rules += [Rule("d", WILDCARD, (ch,), "k", consume=True, ops=(QueueOp(pop=True),))
              for ch in "ab"]
    return core.simple_machine(Kind.QUEUE, *rules, alphabet="abc", storage_alphabet="ab",
                               states=("w", "k", "d"))


def _halve_mixed_machine():
    # halve:wrap, but a dropped b consumes no input: the pass has two drop
    # actions, and only the first that a run meets goes in bulk.
    spec = _halve_wrap_machine()
    return spec._replace(name="halve-mixed", rules=tuple(
        r._replace(consume=False) if (r.state, r.storage_pats) == ("d", ("b",)) else r
        for r in spec.rules))


def _halve_silent_machine():
    # Post mode: halves the queue round and round, keeping an a or b and
    # dropping the next front without reading input, until it is empty; a
    # dropped b is emitted, which ends the pass.
    rules = [Rule("k", NO_SYMBOL, (ch,), "d", ops=(QueueOp(pop=True, push=ch),))
             for ch in "ab"]
    rules += [Rule("d", NO_SYMBOL, ("a",), "k", ops=(QueueOp(pop=True),)),
              Rule("d", NO_SYMBOL, ("b",), "k", ops=(QueueOp(pop=True),), emit="b")]
    return core.simple_machine(Kind.QUEUE, *rules, mode=Mode.POST, output="b",
                               states=("k", "d"), epsilon_accept=True)


def _halve_two_queues_machine():
    # Queues the input on two queues up to a c, then, in one pair of states,
    # keeps a front and drops the next one, which consumes the input symbol:
    # the first queue's under an a, the second's under a b.  So the two
    # queues' passes have contexts that differ only in the queue they take.
    rules = [Rule("w", ch, (WILDCARD, WILDCARD), "w", consume=True,
                  ops=(QueueOp(push=ch), QueueOp(push=ch))) for ch in "ab"]
    rules.append(Rule("w", "c", (WILDCARD, WILDCARD), "k", consume=True, ops=(NO_OP, NO_OP)))
    for symbol, order in (("a", 1), ("b", -1)):
        for ch in "ab":
            keep, drop = (QueueOp(pop=True, push=ch), NO_OP), (QueueOp(pop=True), NO_OP)
            pats = (ch, WILDCARD)[::order]
            rules += [Rule("k", symbol, pats, "d", ops=keep[::order]),
                      Rule("d", symbol, pats, "k", consume=True, ops=drop[::order])]
    return MachineSpec(
        name="halve-two-queues", states=("w", "k", "d"), start="w",
        input_alphabet=frozenset("abc"), output_alphabet=frozenset("01"),
        storages=(StorageSpec("q", Kind.QUEUE, frozenset("ab")),
                  StorageSpec("r", Kind.QUEUE, frozenset("ab"))),
        rules=tuple(rules), acceptance=Acceptance.FINAL_STATES, finals=frozenset({"k"}))


def _behind(kind, build):
    """``build()``'s machine behind an idle storage of ``kind``: every rule
    reads it through a wildcard and keeps it, so the machine's own storages
    are numbered from 1."""
    spec = build()
    idle = TapeOp() if kind is Kind.TAPE else NO_OP
    return spec._replace(
        name=f"{kind.value}+{spec.name}",
        storages=(StorageSpec("i", kind, frozenset("01")), *spec.storages),
        rules=tuple(r._replace(storage_pats=(WILDCARD, *r.storage_pats), ops=(idle, *r.ops))
                    for r in spec.rules))


def _lprime_words():
    member = st.builds(lambda k, seed: gen_lprime(k, seed).render(),
                       st.integers(0, 3), st.integers(0, 2**32))
    negative = st.builds(
        lambda k, clause, seed: mutate_negative(gen_lprime(k, seed), clause, seed + 1),
        st.integers(1, 3), st.sampled_from(LPRIME_CLAUSES), st.integers(0, 2**32))
    return st.one_of(st.text("01abc", max_size=14), member, negative)


def _lprime_flipped(k, seed, i):
    """``gen_lprime(k, seed)`` with the ``i``-th letter after its prefix
    flipped: a negative that the ``i + 1``-th drop of the first pass rejects."""
    inst = gen_lprime(k, seed)
    word, at = inst.render(), inst.prefix_length + i
    return word[:at] + "ab"[word[at] == "a"] + word[at + 1:]


def _fk_words(k):
    inst = st.builds(lambda f, m, seed: gen_lk(k, tuple(f), m, seed),
                     st.lists(st.integers(1, 3), min_size=k, max_size=k),
                     st.integers(1, 3), st.integers(0, 2**32))
    negative = st.builds(mutate_negative, inst, st.sampled_from(FK_CLAUSES),
                         st.integers(0, 2**32))
    # Words with long serving runs: segments of up to 16 bits and 8 to 16 rows (more
    # for small k), so that rounds pass the rent and go in bulk, and negatives of them.
    long = st.builds(lambda f, m, seed: gen_lk(k, tuple(f), m, seed),
                     st.lists(st.integers(1, 16), min_size=k, max_size=k),
                     st.integers(8, max(16, 60 // (k + 1))), st.integers(0, 2**32))
    return st.one_of(st.text("01#$", max_size=16), inst.map(lambda i: i.render()),
                     negative, long.map(lambda i: i.render()),
                     st.builds(mutate_negative, long, st.sampled_from(FK_CLAUSES),
                               st.integers(0, 2**32)))


_ANBN_WORDS = st.one_of(st.text("ab", max_size=10),
                        st.integers(0, 6).map(lambda n: "a" * n + "b" * n))

MACHINES = {
    "lprime": (lambda: builtin("lprime"), _lprime_words()),
    **{f"mk:{k}": (lambda k=k: builtin(f"mk:{k}"), _fk_words(k)) for k in (1, 2, 3, 5, 9)},
    **{f"tk:{k}": (lambda k=k: builtin(f"tk:{k}"), _fk_words(k)) for k in (1, 2, 3)},
    "anbn:linear": (lambda: builtin("anbn:linear"), _ANBN_WORDS),
    "anbn:quadratic": (lambda: builtin("anbn:quadratic"), _ANBN_WORDS),
    "echo:queue": (lambda: core.echo_machine(Kind.QUEUE), st.text("ab", max_size=12)),
    "echo:pushdown": (lambda: core.echo_machine(Kind.PUSHDOWN), st.text("ab", max_size=12)),
    "pushdown:rewrite": (_pushdown_rewrite_machine, st.text("ab", max_size=12)),
    "tape:write-right": (lambda: core.TestTape().write_right_machine(),
                         st.text("01", max_size=12)),
    "tape:left-end": (_tape_left_machine, st.text("01", max_size=12)),
    "tape:blank-rewrite": (_blank_rewrite_machine, st.text("01", max_size=12)),
    # Machines whose runs sweep (see Executor): their edges are also checked
    # at every step limit below.
    "sweep:rotate-all": (_rotate_all_machine, st.text("ab", max_size=4)),
    "sweep:tape-right": (_sweep_right_machine, st.text("01", max_size=4)),
    "sweep:tape-left-fault": (_sweep_left_fault_machine, st.text("01", max_size=12)),
    "sweep:rotate-context": (_rotate_context_machine, st.text("ab", max_size=8)),
    "sweep:push-other": (_push_other_machine, st.text("ab", max_size=8)),
    # Tape sweeps that write, consume input, push or pop, once past their rent.
    "sweep:copy-gather-fault": (_gather_fault_machine, st.text("01", max_size=16)),
    "sweep:refill-empty": (_refill_empty_machine, st.text("01", max_size=16)),
    "sweep:lower": (_lower_machine, st.text("01", max_size=16)),
    "sweep:push-reads-top": (_push_reads_top_machine, st.text("01", max_size=16)),
    "sweep:mixed-rows": (_mixed_rows_machine, st.text("01", max_size=16)),
    # The same sweeps with the tape and its pushdown at storages 1 and 2, and
    # a tape behind a second tape.
    "idle:queue+gather-fault": (lambda: _behind(Kind.QUEUE, _gather_fault_machine),
                                st.text("01", max_size=12)),
    "idle:pushdown+refill-empty": (lambda: _behind(Kind.PUSHDOWN, _refill_empty_machine),
                                   st.text("01", max_size=12)),
    "idle:queue+lower": (lambda: _behind(Kind.QUEUE, _lower_machine),
                         st.text("01", max_size=12)),
    "idle:tape+lower": (lambda: _behind(Kind.TAPE, _lower_machine), st.text("01", max_size=12)),
    # Machines whose runs take halving passes in bulk, once past their rent.
    "halve:wrap": (_halve_wrap_machine, st.text("abc", max_size=40)),
    "halve:silent": (_halve_silent_machine, st.text("ab", max_size=40)),
    "halve:mixed": (_halve_mixed_machine, st.text("abc", max_size=40)),
    "halve:two-queues": (_halve_two_queues_machine, st.text("abc", max_size=40)),
    "idle:pushdown+halve-wrap": (lambda: _behind(Kind.PUSHDOWN, _halve_wrap_machine),
                                 st.text("abc", max_size=40)),
    # Machines whose runs copy input runs onto a queue in bulk.
    "copy:alternate": (_copy_alternate_machine, st.text("abc", max_size=14)),
    "copy:context": (_copy_context_machine, st.text("abc", max_size=14)),
}

_LIMITS = st.one_of(st.none(), st.integers(0, 40))


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_machines_are_valid(name):
    assert validate_spec(MACHINES[name][0]()).ok


def _config(cfg):
    return (cfg.state, cfg.input_pos, cfg.steps, "".join(cfg.output),
            tuple(core.contents(cfg, j) for j in range(len(cfg.stores))))


def check_runs(spec, word, max_steps):
    """Plain, watched, traced, and both watched and traced runs on one
    executor against the reference."""
    ref = reference_run(spec, word, max_steps)
    ex = executor_for(spec)
    plain = ex.run(word, max_steps=max_steps)
    watched = ex.run(word, max_steps=max_steps, watch_lengths=True)
    traced = ex.run(word, max_steps=max_steps, trace=True)
    both = ex.run(word, max_steps=max_steps, trace=True, watch_lengths=True)
    reason = {Verdict.STEP_LIMIT: "step_limit", Verdict.FAULT: "fault"}.get(ref.verdict, "no_rule")
    want = (ref.verdict, ref.output, ref.steps, ref.input_consumed, ref.fault, reason)
    for res in (plain, watched, traced, both):
        assert (res.verdict, res.output, res.steps, res.input_consumed, res.fault,
                res.halt_reason) == want
    assert plain.trace is None and plain.max_lengths is None
    assert watched.trace is None and watched.max_lengths == ref.peaks
    assert traced.max_lengths is None
    assert [(r.step, r.state, r.consumed, r.lengths, r.emit)
            for r in core.steps_of(traced.trace)] == ref.rows
    check_trace(spec, traced.trace, ref.rows)
    initial = ex.initial(word).storage_lengths()
    for j, ident in enumerate(traced.trace.storage_ids):
        after = traced.trace.lengths_of(ident)
        assert [traced.trace.length_after(ident, i) for i in range(len(after) + 1)] == [
            initial[j], *after]
    assert both.max_lengths == watched.max_lengths
    assert both.trace.to_lines() == traced.trace.to_lines()
    check_written(spec, word, max_steps, traced.trace)


def check_written(spec, word, max_steps, trace):
    """The run's trace file, written in chunks of 1, 2, 3, 7 and the
    default number of steps, against the lines of the same run driven by
    ``step``."""
    want = "\n".join(core.stepped_lines(spec, word, max_steps)) + "\n"
    for chunk in (1, 2, 3, 7, machine._CHUNK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(machine, "_CHUNK", chunk)
            trace.write(buf := io.StringIO())
        assert buf.getvalue() == want, chunk


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
    assert records == ref.rows
    assert fault == ref.fault
    assert _config(cfg) == ref.config


def check_resume(spec, word, max_steps):
    """The run loop entered from ``initial(word)`` (rendered with
    ``resume=True``), plain, watched and traced, returns the result of the
    same run from the word and leaves the reference's configuration."""
    ex = executor_for(spec)
    limit = 64 * (len(word) + 1) ** 2 if max_steps is None else max_steps
    config = reference_run(spec, word, max_steps).config
    for watch, traced in ((False, False), (True, False), (False, True)):
        cfg = ex.initial(word)
        res = machine._run_loop(ex._layout, spec.acceptance, watch, traced,
                                resume=True)(ex, cfg, limit)
        want = ex.run(word, max_steps=max_steps, watch_lengths=watch, trace=traced)
        assert (res.verdict, res.output, res.steps, res.input_consumed, res.halt_reason,
                res.fault, res.max_lengths) == (
            want.verdict, want.output, want.steps, want.input_consumed, want.halt_reason,
            want.fault, want.max_lengths)
        assert traced == (res.trace is not None)
        if traced:
            assert res.trace.to_lines() == want.trace.to_lines()
        assert _config(cfg) == config


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


@pytest.mark.parametrize("name", sorted(MACHINES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_resume_matches_run(name, data):
    build, words = MACHINES[name]
    check_resume(build(), data.draw(words, label="word"), data.draw(_LIMITS, label="max_steps"))


_MK3, _TK3 = "101#010#110$", "1011001110100#0110100101101#1100101011010$"
_ROWS = "101$011$110$000$111$100$010$001$110$101$011$111$000$010$" * 2   # 28 rounds

_EDGE_ROWS = [
    ("sweep:rotate-all", "ab"),
    ("sweep:tape-right", ""),
    ("sweep:tape-right", "0"),
    ("sweep:tape-left-fault", "0110"),
    ("sweep:rotate-context", "a"),
    ("sweep:rotate-context", "aab"),
    ("sweep:rotate-context", "abbaab"),
    ("anbn:quadratic", "aaabbb"),
    ("sweep:push-other", "abab"),
    ("echo:queue", "abbab"),      # a first push, then a copy run to the end of input
    ("echo:queue", "aaaaaaa"),
    ("copy:alternate", "ab"),
    ("copy:alternate", "abcabcabcbacbbacaab"),   # short copy runs, many times
    ("copy:context", "abcabbcabba"),
    ("copy:context", "bbcaabbacbbaab"),
    ("lprime", gen_lprime(2, 5).render()),
    ("sweep:copy-gather-fault", "0110100111010"),
    ("sweep:refill-empty", "011010011101"),
    ("sweep:lower", "01101111111111111"),
    ("sweep:push-reads-top", "0110100111010"),
    ("sweep:mixed-rows", "0110100111010"),
    ("idle:queue+gather-fault", "011010011101"),
    ("idle:pushdown+refill-empty", "011010011101"),
    ("idle:queue+lower", "011111111111"),
    ("idle:tape+lower", "011111111111"),
    # tk:1 copies, gathers and refills runs of 11 bits (111 steps).
    ("tk:1", "11011011001$0$0$0$0$1$1$1$0$0$0$0$1$"),
    # Halving passes longer than their rent: an lprime member whose first pass
    # is 16 steps (83 steps), a negative whose mismatch stops a bulk window
    # (after 8 of its 16 steps), anbn:linear, and passes that go round the
    # whole queue, to the end of the input or to an empty queue, with drops
    # that consume the input symbol, none, or either.
    ("lprime", gen_lprime(4, 1).render()),
    ("lprime", _lprime_flipped(5, 1, 9)),
    ("anbn:linear", "a" * 16 + "b" * 16),
    ("halve:wrap", "ab" * 10 + "c" + "a" * 14),
    ("halve:wrap", "ab" * 10 + "c" + "a" * 12 + "baaa"),
    ("halve:wrap", "ab" * 6 + "c" + "a" * 30),
    ("halve:mixed", "ab" * 10 + "c" + "a" * 14),
    ("halve:two-queues", "abbaab" * 3 + "c" + "a" * 12 + "b" * 12 + "ab"),
    ("idle:pushdown+halve-wrap", "ab" * 10 + "c" + "a" * 12 + "baaa"),
    ("halve:silent", "ab" * 12),
    ("halve:silent", "a" * 17 + "b"),
    # Serving rounds past their rent, whose bulk call ends at the end of the
    # input, in a round cut short, at a wrong bit or at a bit where a $ is
    # due; and tk:3's at a blank track that sends check to a repair, then in
    # a round cut short, at the end of the input, and at a wrong bit.
    ("mk:3", _MK3 + _ROWS),
    ("mk:3", _MK3 + _ROWS + "10"),
    ("mk:3", _MK3 + _ROWS[:96] + "1#0$" + _ROWS[:8]),
    ("mk:3", _MK3 + _ROWS[:100] + "0110$"),
    ("tk:3", _TK3 + _ROWS[:96] + "10"),
    ("tk:3", _TK3 + _ROWS[:96]),
    ("tk:3", _TK3 + _ROWS[:84] + "10#1$"),
]


@pytest.mark.parametrize("name, word", _EDGE_ROWS)
def test_sweep_edges_match_reference(name, word):
    """A run that sweeps or copies input runs, cut at every step limit up to
    its length (the default limit, for one that reaches it), plain, watched
    and traced, and stepped by ``step``."""
    spec = MACHINES[name][0]()
    length = reference_run(spec, word).steps
    for max_steps in range(length + 1):
        check_runs(spec, word, max_steps)
    check_runs(spec, word, None)
    check_steps(spec, word, length + 1)


@pytest.mark.parametrize("name, word", _EDGE_ROWS)
def test_sweep_edges_resume_as_runs(name, word):
    """The same runs, cut at every step limit, entered from a configuration."""
    spec = MACHINES[name][0]()
    for max_steps in [*range(reference_run(spec, word).steps + 1), None]:
        check_resume(spec, word, max_steps)


@pytest.mark.parametrize("name, word, kind, first", [
    ("sweep:rotate-all", "ab", "rotate", 3),
    ("echo:queue", "aaaaaaa", "copy", 2),
    ("sweep:tape-right", "0", "sweep", 6 + machine._RENT),
    ("sweep:copy-gather-fault", "0110100111010", "map", 2 + machine._RENT),
    ("halve:silent", "a" * 24, "halve", 1 + machine._RENT),
    ("mk:2", "1#0$" + "10$" * 30, "serve", 5 + 3 * machine._SERVE_RENT),
])
def test_bulk_helpers_run_only_with_room(name, word, kind, first, monkeypatch):
    """On a warm executor, step ``first`` is the first that may take the
    rest of its sweep at once: the first whose new view continues a
    rotation or a copy, and a tape sweep's after its rent of single steps
    (the sweeps above start at steps 6 and 2), and the end of a serving
    round after its rent of round ends (round r ends at step 3 + 3r), with
    room for a round (3 steps) after it.  Its bulk helper is called once,
    when the run has room for a step (a round) after it, and never for zero
    steps."""
    ex = machine.Executor(MACHINES[name][0]())
    ex.run(word)
    calls = core.count_bulk_calls(ex, monkeypatch)
    for limit in range(first + 4):
        calls.clear()
        assert ex.run(word, max_steps=limit).steps == limit
        assert calls == ({kind: 1} if limit > first else {}), limit


@pytest.mark.parametrize("name, word, bulk", [
    ("tk:3", sized_fk_instance(3, 2**13, 1).render(), True),
    ("lprime", gen_lprime(9, 1).render(), True),
    ("anbn:linear", "a" * 300 + "b" * 300, True),
    ("halve:silent", "a" * 40 + "b" * 8, True),
    # The pass's rent is paid at the end of the input, where its drop faults.
    ("halve:wrap", "ab" * 6 + "c" + "a" * 4, False),
    # A leftward sweep whose rent is paid at cell 0, where its next step faults.
    ("idle:queue+gather-fault", "0000000000", True),
])
def test_bulk_helpers_never_run_for_zero_steps(name, word, bulk, monkeypatch):
    """On a fresh executor too, where a sweep or a pass past its rent may
    meet a view that no key has given yet, each bulk call takes a step."""
    taken = Counter()

    def counted(fn, at):   # the steps a helper took, from its result's first slot
        def count(*args):
            res = fn(*args)
            taken[(res[0] if type(res) is tuple else res) - args[at]] += 1
            return res
        return count

    monkeypatch.setattr(machine, "_rotate", counted(machine._rotate, 2))
    monkeypatch.setattr(machine, "_sweep", counted(machine._sweep, 10))
    monkeypatch.setattr(machine, "_halve", counted(machine._halve, 4))
    ex = machine.Executor(MACHINES[name][0]())
    assert ex.run(word).steps == ex.run(word).steps
    assert bool(taken) == bulk and 0 not in taken


@pytest.mark.parametrize("name, word, kinds", [
    ("sweep:copy-gather-fault", "0110100111010", {"consume", "push"}),
    ("sweep:refill-empty", "011010011101", {"consume+push", "keep", "pop"}),
    ("sweep:lower", "01101111111111111", {"consume", "write"}),
    ("idle:queue+gather-fault", "011010011101", {"consume", "push"}),
    ("idle:pushdown+refill-empty", "011010011101", {"consume+push", "keep", "pop"}),
    ("idle:queue+lower", "011111111111", {"consume", "write"}),
    ("idle:tape+lower", "011111111111", {"consume", "write"}),
])
def test_tape_sweeps_take_steps_in_bulk(name, word, kinds, monkeypatch):
    """On a warm executor, each kind of tape sweep in the run takes steps in
    bulk: one whose cells stay, one that writes, and one that also consumes
    the input symbol, pushes or pops."""
    ex = machine.Executor(MACHINES[name][0]())
    ex.run(word)
    took, sweep = set(), machine._sweep

    def counted(walk, cells, head, by, blank, pd, pop, push, w, pos, steps, limit):
        res = sweep(walk, cells, head, by, blank, pd, pop, push, w, pos, steps, limit)
        if res[0] > steps:
            took.add("+".join(kind for kind, on in (
                ("keep", walk.stays), ("consume", w is not None),
                ("push", pd is not None and not pop), ("pop", pop)) if on) or "write")
        return res

    monkeypatch.setattr(machine, "_sweep", counted)
    assert ex.run(word).steps == reference_run(MACHINES[name][0](), word).steps
    assert took == kinds


def test_input_runs_are_counted_only_when_the_next_symbol_copies():
    """A copy step tests the next input symbol against its context's views
    and counts the rest of the run only if it is one of them, so a one-step
    run makes no count.  Here each count starts at a member: one per maximal
    run of a and b after the first symbol (a first push), of length 2 or
    more."""
    spec, word = _copy_alternate_machine(), "abab" + "cab" * 5 + "cbbacac"
    ex = machine.Executor(spec)   # not the shared executor: its match gets wrapped
    ex.run(word)   # compiles every key
    calls = []

    def counted(match, members):
        def count(w, pos, end):
            calls.append(w[pos:pos + 1] in members)
            return match(w, pos, end)
        return count

    for bulk in ex._sweeps.values():
        if bulk.action and _COPY in bulk.action[3:-1:2]:
            bulk.match = counted(bulk.match, bulk)
    assert ex.run(word).steps == reference_run(spec, word).steps
    assert calls == [True] * 7


def test_input_run_counts_do_not_grow_with_the_position():
    """Counting an input run costs the run's length, not its position in
    the word: on 8 times the word, a run of short copy runs takes about 8
    times as long (a count that scanned from the word's start, 64 times)."""
    ex = executor_for(_copy_alternate_machine())

    def best(word):
        assert ex.run(word).steps == 2 * len(word) + 1
        return min(timeit.repeat(lambda: ex.run(word), number=1, repeat=5))

    assert best("abc" * 2**14) < 24 * best("abc" * 2**11)


# --------------------------------------------------------------------------
# Generated specs: 0-5 storages of mixed kinds (at least one, a queue first,
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
    for j in range(draw(st.integers(1 if post else 0, 5))):
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


# --------------------------------------------------------------------------
# Generated serving cycles: a fill phase, then a cycle of 2 to 5 states over
# one queue's front or one tape's cell, between idle storages, with exits on
# some views and a random emit table.


def cycle_specs(rng):
    """A seeded spec with a planted serving cycle, a word long enough to pass
    the rent and a step limit: ``random.Random`` ``rng`` draws them.  The
    fill state queues or writes the input's a and b up to a c; a tape's is
    then rewound to its mark m in cell 0.  Each cycle step consumes or not
    and touches the storage (a queue's pop and push, a tape's rewrite) or,
    one at least, nothing (a queue's) or moves right (a tape's last);
    its rules read the input view and the front or cell; some steps exit
    to a halting state on the input view c, and a tape's on its blank end.
    Some consuming steps read any input symbol, so a round may consume past
    the end; some tapes' rules also read and write blank cells, so a round
    may change the tape's length; and a few of a tape's rules move left (or,
    in the last step, stay), so that such rounds are not the cycle's."""
    tape = rng.random() < 0.5
    idle = [rng.choice(list(Kind)) for _ in range(rng.randint(0, 2))]
    at = rng.randint(0, len(idle))
    kinds = idle[:at] + [Kind.TAPE if tape else Kind.QUEUE] + idle[at:]
    storages = tuple(StorageSpec(f"s{j}", kind, frozenset("abm" if j == at else "ab"),
                                 rng.randint(1, 2) if kind is Kind.TAPE else 1)
                     for j, kind in enumerate(kinds))
    tracks = storages[at].tracks
    lives = ["".join(c) for c in itertools.product("ab", repeat=tracks)]
    cells = lives + [BLANK * tracks] * (rng.random() < 0.3)   # a cycle step's views
    still = [TapeOp() if kind is Kind.TAPE else NO_OP for kind in kinds]

    def rule(state, symbol, view, nxt, consume=False, op=None, emit=None):
        pats, ops = [WILDCARD] * len(kinds), list(still)
        pats[at] = view
        if op is not None:
            ops[at] = op
        return Rule(state, symbol, tuple(pats), nxt, consume, tuple(ops), emit)

    p = rng.randint(2, 5)
    states = [f"c{i}" for i in range(p)]
    rules = []
    if tape:   # mark cell 0, write the fill, rewind to the mark
        rules += [rule("f", WILDCARD, BLANK * tracks, "w", op=TapeOp("m" * tracks, "R"))]
        rules += [rule("w", ch, WILDCARD, "w", True, TapeOp(ch * tracks, "R")) for ch in "ab"]
        rules += [rule("w", "c", WILDCARD, "r", True, TapeOp(None, "L"))]
        rules += [rule("r", WILDCARD, cell, "r", op=TapeOp(None, "L")) for cell in lives]
        rules += [rule("r", WILDCARD, "m" * tracks, states[0], op=TapeOp(None, "R"))]
    else:
        rules += [rule("f", ch, WILDCARD, "f", True, QueueOp(push=ch)) for ch in "ab"]
        rules += [rule("f", "c", WILDCARD, states[0], True)]
    free = rng.randrange(p)   # a queue's step that touches nothing; the next touches it
    for i, state in enumerate(states):
        nxt, consume = states[(i + 1) % p], rng.random() < 0.7
        symbols = "ab" if consume and rng.random() < 0.8 else (WILDCARD,)
        touch = i != free and (i == (free + 1) % p or rng.random() < 0.8)
        if consume and rng.random() < 0.5:   # an exit on the input view c
            rules.append(rule(state, "c", WILDCARD, "x", True))
        for symbol in symbols:
            if tape or touch:
                for view in (cells if tape else "ab"):
                    move = ("R", "S") if i == p - 1 else ("S", "L")
                    op = (TapeOp(rng.choice([None, *cells]), move[rng.random() < 0.1])
                          if tape else QueueOp(pop=True, push=rng.choice("ab")))
                    rules.append(rule(state, symbol, view, nxt, consume, op,
                                      rng.choice([None, "0", "1"])))
            else:
                rules.append(rule(state, symbol, WILDCARD, nxt, consume, None,
                                  rng.choice([None, "0", "1"])))
    spec = MachineSpec(
        name="cycle", states=("f", "w", "r", *states, "x"), start="f",
        input_alphabet=frozenset("abc"), output_alphabet=frozenset("01"), storages=storages,
        rules=tuple(rules), acceptance=rng.choice([Acceptance.OUTPUT_BIT,
                                                   Acceptance.EMPTY_STORAGES]))
    fill = "".join(rng.choice("ab") for _ in range(rng.randint(*(30, 60) if tape else (1, 6))))
    word = fill + "c" + "".join(rng.choice("ab") for _ in range(rng.randint(40, 90)))
    if rng.random() < 0.3:   # a late c: an exit, or no rule reads it
        word += "c" + "".join(rng.choice("ab") for _ in range(rng.randint(0, 5)))
    return spec, word, rng.choice([400, 400, rng.randint(0, 400)])


@pytest.mark.parametrize("block", range(4))
def test_cycle_specs_match_reference_and_go_in_bulk(block):
    """Every run of 50 seeded cycle specs (per block) matches the reference,
    plain, watched, traced and entered from a configuration, and at least
    half of the plain runs call ``_serve``."""
    served = 0
    for seed in range(50 * block, 50 * block + 50):
        spec, word, limit = cycle_specs(random.Random(seed))
        assert validate_spec(spec).ok, seed
        ex, calls, serve = machine.Executor(spec), [], machine._serve

        def count(*args):
            calls.append(args)
            return serve(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(machine, "_serve", count)
            plain = ex.run(word, max_steps=limit)
        served += bool(calls)
        assert plain.steps == reference_run(spec, word, limit).steps, seed
        check_runs(spec, word, limit)
        check_resume(spec, word, limit)
    assert served >= 25


# --------------------------------------------------------------------------
# Cold executors.  What an executor has compiled (its rule index, its plans,
# its bulk records and macro tables) depends on the keys it has met and in
# which order; a run's result and trace file must not.


def _results(executors, word, max_steps=None):
    """A word's plain, watched and traced results and its trace file, each
    run on the next executor of ``executors``."""
    out = []
    for (watch, traced), ex in zip(((False, False), (True, False), (False, True)), executors):
        res = ex.run(word, max_steps=max_steps, watch_lengths=watch, trace=traced)
        if traced:
            res.trace.write(buf := io.StringIO())
        out.append((res.verdict, res.output, res.steps, res.input_consumed, res.halt_reason,
                    res.fault, res.max_lengths, traced and buf.getvalue()))
    return out


def check_cold_equals_warm(spec, word, others, seed, max_steps=None):
    """``word``'s runs on fresh executors, on one warmed by runs of
    ``others`` and on one that first compiled the keys of the word's runs in
    a seeded shuffled order give equal results and trace files."""
    cold = _results((machine.Executor(spec) for _ in range(3)), word, max_steps)
    warm, met, shuffled = (machine.Executor(spec) for _ in range(3))
    for other in others:
        _results(itertools.repeat(warm), other, max_steps)
    _results(itertools.repeat(met), word, max_steps)
    keys = list(met._cache)
    random.Random(seed).shuffle(keys)
    for key in keys:
        shuffled._compile(key)
    assert _results(itertools.repeat(warm), word, max_steps) == cold
    assert _results(itertools.repeat(shuffled), word, max_steps) == cold


@pytest.mark.parametrize("name", sorted(MACHINES))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_cold_runs_equal_warm_runs(name, data):
    build, words = MACHINES[name]
    check_cold_equals_warm(build(), data.draw(words, label="word"),
                           data.draw(st.lists(words, max_size=3), label="others"),
                           data.draw(st.integers(0, 2**32), label="seed"),
                           data.draw(_LIMITS, label="max_steps"))


@pytest.mark.parametrize("name, word", _EDGE_ROWS)
def test_cold_edge_runs_equal_warm_runs(name, word):
    others = [w for n, w in _EDGE_ROWS if n == name and w != word] or [word[:len(word) // 2]]
    check_cold_equals_warm(MACHINES[name][0](), word, others, len(word))


def test_cold_cycle_specs_equal_warm_runs():
    for seed in range(50):
        spec, word, limit = cycle_specs(random.Random(seed))
        check_cold_equals_warm(spec, word, [word[:len(word) // 2], word[::-1]], seed, limit)


def test_cold_serve_stops_at_the_first_non_member(monkeypatch):
    """mk:2's first ``serve`` window on a fresh executor (11 rounds: its
    queues hold 16 bits) meets five rounds of four keys not composed before,
    then a round with a ``#`` in its row, which leaves the cycle, then five
    more: the call composes the four in turn and that round, takes the five
    and stops there, and the run matches the reference."""
    from qmlab import macro
    spec = builtin("mk:2")
    word = ("1101001110100101#0110110001011010$" + "10$" * 16 + "01$11$00$10$01$" + "1#$"
            + "10$" * 5)
    calls, composed = [], []
    serve, compose = machine._serve, macro.compose

    def count(*args):
        calls.append((args[5], serve(*args)))
        return calls[-1][1]

    def record(*args):
        composed.append(compose(*args))
        return composed[-1]

    monkeypatch.setattr(machine, "_serve", count)
    monkeypatch.setattr(macro, "compose", record)
    ex = machine.Executor(spec)
    res = ex.run(word)
    ref = reference_run(spec, word)
    assert (res.verdict, res.steps, res.output) == (ref.verdict, ref.steps, ref.output)
    [(pos, (steps, end, *_))] = calls
    assert word[pos:end] == "$01$11$00$10$01" and word[end:end + 3] == "$1#"
    assert len(composed) == 5 and composed[-1] is None and None not in composed[:-1]
    assert len(next(iter(ex._tags.values()))) == 5   # its macro table: what the call composed

"""Deterministic multi-storage machines with exact step accounting.

The execution model is deliberately small: in one step a machine may read at
most one input symbol, pop at most one symbol per storage, push at most one
symbol per storage (a tape instead writes under its head and then moves),
emit at most one output symbol, and change state.  Every applied rule costs
exactly one step, whether or not it consumes input, so step counts in traces
are exact and comparable across machines.

Storages come in three kinds:

* ``queue``    -- FIFO; pop removes the front, push appends at the back.
* ``pushdown`` -- LIFO; pop removes the top, push adds on top.
* ``tape``     -- one-way infinite to the right, ``tracks`` parallel tracks;
                  a cell value is a string of one character per track, with
                  ``_`` as the blank.  The head may write the whole cell
                  vector and then move left, stay, or right.

Rules pattern-match on the current state, the input view and one view per
storage (front symbol, top symbol, or cell vector).  A pattern component is
either a concrete view value or the wildcard ``*``; among applicable rules
the most specific wins, comparing componentwise concreteness left to right
with the input component most significant.  Machines are deterministic: the
validator rejects rule tables where two distinct rules could tie.
"""

from __future__ import annotations

import io
import re
import struct
import textwrap
from array import array
from bisect import bisect_right
from collections import deque
from enum import Enum
from functools import cached_property, lru_cache, partial
from itertools import accumulate, compress, count, islice, repeat, takewhile
from math import prod
from operator import itemgetter, truth
from sys import intern, maxsize
from typing import NamedTuple

WILDCARD = "*"
# Pattern token and observation value for "no input symbol": end of input in
# online mode, and every step of a post-mode machine (which has no input tape).
NO_SYMBOL = "-"
# Observation value for an empty queue or pushdown.  Reserved: it may not be
# used as a storage symbol.
EMPTY = "empty"
BLANK = "_"
MAX_TRACKS = 64   # the most tracks a tape may have: a rule spells each cell in full
_CHUNK = 1 << 14                  # steps a trace file is written in at a time
_SILENT = re.compile(rb"\x00+")   # a run of steps that consume no input

# Characters that would collide with the machine file format or the reserved
# observation tokens; alphabets must avoid them.
FORBIDDEN_SYMBOLS = frozenset("*-_|, \t\n")


def _symbols_ok(alphabet: frozenset[str]) -> bool:
    return all(len(s) == 1 for s in alphabet) and FORBIDDEN_SYMBOLS.isdisjoint(alphabet)


class Kind(str, Enum):
    QUEUE = "queue"
    PUSHDOWN = "pushdown"
    TAPE = "tape"


class Mode(str, Enum):
    ONLINE = "online"  # separate one-way input tape
    POST = "post"      # input preloaded onto storage 0, which must be a queue


class Acceptance(str, Enum):
    EMPTY_STORAGES = "empty_all_storages"
    FINAL_STATES = "final_states"
    OUTPUT_BIT = "output_bit"


class Verdict(str, Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    STEP_LIMIT = "step_limit_exceeded"
    FAULT = "fault"


class ExecutionFault(Exception):
    """Raised when an applied action is impossible (pop on empty, head off
    the left tape end, reading past the end of the input)."""


class InputSymbolError(ValueError):
    """Input word contains a symbol outside the machine's input alphabet."""

    def __init__(self, symbol: str, position: int):
        super().__init__(f"input symbol {symbol!r} at position {position} "
                         f"is not in the input alphabet")
        self.symbol = symbol
        self.position = position

    @classmethod
    def first(cls, word: str, alphabet: frozenset[str]) -> InputSymbolError:
        """The error for ``word``'s first symbol outside ``alphabet``."""
        return next(cls(s, i) for i, s in enumerate(word) if s not in alphabet)


class QueueOp(NamedTuple):
    """Action on a queue or pushdown: optionally pop, optionally push."""
    pop: bool = False
    push: str | None = None


class TapeOp(NamedTuple):
    """Action on a tape: optionally write the full cell vector, then move."""
    write: str | None = None
    move: str = "S"  # L, S or R


NO_OP = QueueOp()
TAPE_STAY = TapeOp()


class Rule(NamedTuple):
    state: str
    input_pat: str                       # symbol, NO_SYMBOL or WILDCARD
    storage_pats: tuple[str, ...]        # per storage: view value or WILDCARD
    next_state: str
    consume: bool = False
    ops: tuple[QueueOp | TapeOp, ...] = ()
    emit: str | None = None

    def pattern_key(self) -> tuple:
        return (self.state, self.input_pat) + self.storage_pats


class _StorageFields(NamedTuple):
    ident: str
    kind: Kind
    alphabet: frozenset[str]
    tracks: int = 1


class StorageSpec(_StorageFields):
    """A storage's fields, checked when it is built: a NamedTuple's own body
    may not define ``__new__``, so the check lives in this subclass."""
    __slots__ = ()

    def __new__(cls, ident: str, kind: Kind, alphabet: frozenset[str], tracks: int = 1):
        if kind is not Kind.TAPE and tracks != 1:
            raise ValueError(f"storage {ident!r}: tracks={tracks} "
                             f"is only allowed for tapes")
        if tracks < 1:
            raise ValueError(f"storage {ident!r}: tracks must be >= 1")
        if tracks > MAX_TRACKS:
            raise ValueError(f"storage {ident!r}: tracks must be <= {MAX_TRACKS}")
        if not _symbols_ok(alphabet):
            raise ValueError(f"storage {ident!r}: alphabet must be "
                             f"single characters outside {sorted(FORBIDDEN_SYMBOLS)}")
        return super().__new__(cls, ident, kind, alphabet, tracks)

    @classmethod
    def _make(cls, iterable) -> StorageSpec:
        return cls(*iterable)   # so that _replace checks its result too

    @property
    def blank_cell(self) -> str:
        return BLANK * self.tracks


class MachineSpec(NamedTuple):
    name: str
    states: tuple[str, ...]
    start: str
    input_alphabet: frozenset[str]
    output_alphabet: frozenset[str]
    storages: tuple[StorageSpec, ...]
    rules: tuple[Rule, ...]
    acceptance: Acceptance
    finals: frozenset[str] = frozenset()
    mode: Mode = Mode.ONLINE
    epsilon_accept: bool = False

    def __hash__(self) -> int:
        # Hashing the whole rule table costs hundreds of microseconds, and
        # run() looks its executor up by spec; equal specs share these fields.
        return hash((self.name, self.start, len(self.rules)))


class _Record:
    """A mutable record whose fields are its ``__slots__``: compared only
    with its own class and shown field by field, in order."""
    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class ValidationReport(_Record):
    __slots__ = ("violations", "warnings")

    def __init__(self, violations: list[str] | None = None, warnings: list[str] | None = None):
        self.violations = [] if violations is None else violations
        self.warnings = [] if warnings is None else warnings

    @property
    def ok(self) -> bool:
        return not self.violations


def _cell_ok(storage: StorageSpec, cell: str) -> bool:
    return len(cell) == storage.tracks and all(c == BLANK or c in storage.alphabet for c in cell)


def _view_ok(storage: StorageSpec, pat: str) -> bool:
    if storage.kind is Kind.TAPE:
        return pat == WILDCARD or _cell_ok(storage, pat)
    return pat in (WILDCARD, EMPTY) or pat in storage.alphabet


def _op_ok(storage: StorageSpec, op: QueueOp | TapeOp) -> str | None:
    if storage.kind is Kind.TAPE:
        if not isinstance(op, TapeOp):
            return "tape storage needs a tape action"
        if op.move not in ("L", "S", "R"):
            return f"bad tape move {op.move!r}"
        if op.write is not None and not _cell_ok(storage, op.write):
            return f"tape write {op.write!r} outside alphabet"
        return None
    if not isinstance(op, QueueOp):
        return f"{storage.kind.value} storage needs a queue action"
    if op.push is not None and op.push not in storage.alphabet:
        return f"push symbol {op.push!r} outside alphabet of {storage.ident!r}"
    return None


def validate_spec(spec: MachineSpec) -> ValidationReport:
    """Check a machine description for executability.

    All problems are report entries; an empty violation list means the spec
    can be run.  Nondeterminism, alphabet leaks and post-mode input reads are
    violations; unreachable states are warnings.
    """
    rep = ValidationReport()
    v = rep.violations.append
    states = set(spec.states)
    if len(states) != len(spec.states):
        v("duplicate state names")
    if spec.start not in states:
        v(f"start state {spec.start!r} not declared")
    for name, alphabet in (("input", spec.input_alphabet), ("output", spec.output_alphabet)):
        if not _symbols_ok(alphabet):
            v(f"{name} alphabet must be single characters outside {sorted(FORBIDDEN_SYMBOLS)}")
    idents = [s.ident for s in spec.storages]
    if len(set(idents)) != len(idents):
        v("duplicate storage identifiers")
    if spec.acceptance is Acceptance.FINAL_STATES and not spec.finals <= states:
        v("final states not all declared")
    if spec.finals and spec.acceptance is not Acceptance.FINAL_STATES:
        v(f"final states given, but acceptance is {spec.acceptance.value}")
    if spec.mode is Mode.POST:
        if not spec.storages or spec.storages[0].kind is not Kind.QUEUE:
            v("post mode requires storage 0 to be a queue")
        elif not spec.input_alphabet <= spec.storages[0].alphabet:
            v("post mode requires the input alphabet inside storage 0's alphabet")

    for i, rule in enumerate(spec.rules):
        where = f"rule {i} ({rule.state})"
        if rule.state not in states:
            v(f"{where}: undeclared source state")
        if rule.next_state not in states:
            v(f"{where}: undeclared target state {rule.next_state!r}")
        if len(rule.storage_pats) != len(spec.storages) or len(rule.ops) != len(spec.storages):
            v(f"{where}: pattern/action arity does not match storage count")
            continue
        if rule.input_pat not in (WILDCARD, NO_SYMBOL) and rule.input_pat not in spec.input_alphabet:
            v(f"{where}: input pattern {rule.input_pat!r} outside input alphabet")
        if spec.mode is Mode.POST:
            if rule.consume:
                v(f"{where}: input read in post mode")
            if rule.input_pat not in (WILDCARD, NO_SYMBOL):
                v(f"{where}: input observed in post mode")
        if rule.consume and rule.input_pat == NO_SYMBOL:
            v(f"{where}: consumes input while matching end of input")
        if rule.emit is not None and rule.emit not in spec.output_alphabet:
            v(f"{where}: emitted symbol {rule.emit!r} outside output alphabet")
        for storage, pat, op in zip(spec.storages, rule.storage_pats, rule.ops):
            if not _view_ok(storage, pat):
                v(f"{where}: observation {pat!r} invalid for storage {storage.ident!r}")
            problem = _op_ok(storage, op)
            if problem:
                v(f"{where}: {problem}")

    # Determinism: two distinct rules that can match the same concrete
    # observation must differ in specificity, which (componentwise) forces
    # identical patterns.  Flag duplicates, naming both rules.
    by_state: dict[str, list[tuple[int, Rule]]] = {}
    for i, rule in enumerate(spec.rules):
        by_state.setdefault(rule.state, []).append((i, rule))
    for state, rules in by_state.items():
        seen: dict[tuple, int] = {}
        for i, rule in rules:
            key = rule.pattern_key()
            if key in seen:
                v(f"determinism: rules {seen[key]} and {i} in state {state!r} "
                  f"match the same observations")
            else:
                seen[key] = i

    # Reachability over the rule graph (static over-approximation).
    reachable = {spec.start}
    frontier = [spec.start]
    while frontier:
        s = frontier.pop()
        for _, rule in by_state.get(s, ()):
            if rule.next_state not in reachable:
                reachable.add(rule.next_state)
                frontier.append(rule.next_state)
    for s in spec.states:
        if s not in reachable:
            rep.warnings.append(f"state {s!r} is unreachable")
    return rep


# --------------------------------------------------------------------------
# Runtime


class _Tape:
    __slots__ = ("cells", "head", "blank")

    def __init__(self, blank: str):
        self.blank = blank
        self.cells = [blank]
        self.head = 0

    def __len__(self) -> int:
        """The number of non-blank cells, so a tape is false when blank."""
        return len(self.cells) - self.cells.count(self.blank)


class Configuration(_Record):
    """A full instantaneous description of a run.

    ``stores`` holds the live storage objects (deque for a queue, list for a
    pushdown bottom-to-top, ``_Tape`` for a tape); they are mutated in place
    by :func:`step`.
    """
    __slots__ = ("input", "state", "input_pos", "stores", "output", "steps")

    def __init__(self, input: str, state: str, input_pos: int, stores: list,
                 output: list[str], steps: int):
        self.input = input
        self.state = state
        self.input_pos = input_pos
        self.stores = stores
        self.output = output
        self.steps = steps

    def storage_lengths(self) -> tuple[int, ...]:
        """Per storage, its number of symbols; a tape's non-blank cells."""
        return tuple(map(len, self.stores))


class StepRecord(NamedTuple):
    step: int
    state: str            # state after the step
    consumed: bool
    lengths: tuple[int, ...]   # per-storage length after the step
    emit: str | None


class Trace:
    """A run's completed steps as entries of the compiled actions they
    applied (see :class:`Executor`; a step that faults adds none).  Slot
    ``i`` of ``actions`` is one step of its action, unless ``runs[i]`` is
    ``(n, cycle)``: one bulk call's ``n`` steps, which apply ``cycle``'s
    actions in turn (its action, or a halving pass's keep and drop), the
    first of which is ``actions[i]``.
    ``initial`` holds the storage lengths before step 1.  Each action's row
    holds whether the step consumed an input symbol, then each storage's
    change of length; the rows' columns, one byte per slot, are kept once
    read.  ``consumed`` (``consumed[i]`` is 0 or 1 for step ``i + 1``)
    repeats each run's bytes; :meth:`lengths_of` and :meth:`length_after`
    read the slots that change a storage, which a scan of its column finds.
    :meth:`write` renders a run's lines by one format.  ``records`` is the
    trace itself; ``perfbench/tracer.py`` reads it."""

    def __init__(self, storage_ids: tuple[str, ...], initial: tuple[int, ...]):
        self.storage_ids = storage_ids
        self.initial = initial
        self.actions: list[tuple] = []
        self.runs: dict[int, tuple[int, tuple]] = {}
        self._changes: dict[int, list[tuple]] = {}   # per storage, as _changes_of

    def __len__(self) -> int:
        runs = self.runs
        return len(self.actions) + sum(map(itemgetter(0), runs.values())) - len(runs)

    @property
    def records(self) -> Trace:
        return self

    @cached_property
    def _columns(self) -> list[bytes]:
        """The rows of the slots' actions (``k + 1`` bytes each) by column:
        whether a step consumed, then each storage's change of length (1,
        255 for -1, or 0)."""
        buf, width = io.BytesIO(), len(self.storage_ids) + 1
        buf.writelines(map(itemgetter(-1), self.actions))
        rows = buf.getvalue()
        return [rows[c::width] for c in range(width)]

    @cached_property
    def _ends(self) -> array:
        """The steps done after each slot."""
        counts = array("q", [1]) * len(self.actions)
        for i, (n, _) in self.runs.items():
            counts[i] = n
        return array("q", accumulate(counts))

    @cached_property
    def consumed(self) -> bytes:
        column, pieces, done = self._columns[0], [], 0
        for i, (n, cycle) in self.runs.items():
            each = column[i:i + 1] if len(cycle) == 1 else bytes(map(itemgetter(1), cycle))
            pieces += column[done:i], (each * n)[:n]
            done = i + 1
        pieces.append(column[done:])
        return b"".join(pieces)

    def _index(self, storage: str) -> int:
        try:
            return self.storage_ids.index(storage)
        except ValueError:
            raise ValueError(f"unknown storage {storage!r}; trace covers "
                             f"{self.storage_ids}") from None

    def _changes_of(self, j: int) -> list[tuple]:
        """The slots that change storage ``j``, each as the steps before it,
        the length before it, its steps and its cycle's changes of the
        length, between two that take no step: at the start and at the end."""
        if j not in self._changes:
            ends, length, found = self._ends, self.initial[j], [(0, self.initial[j], 0, [0])]
            column, runs = self._columns[j + 1], self.runs
            for i in sorted({*map(_start, _CHANGED.finditer(column)),
                             *(i for i, (_, cycle) in runs.items() if cycle[1:])}):
                if i in runs:
                    n, cycle = runs[i]
                    changes = [(action[-1][j + 1] ^ 128) - 128 for action in cycle]
                    found.append((ends[i] - n, length, n, changes))
                    length += _changed(changes, n)
                else:   # a single step
                    found.append((ends[i] - 1, length, 1, (d := (column[i] ^ 128) - 128,)))
                    length += d
            self._changes[j] = found + [(len(self), length, 0, [0])]
        return self._changes[j]

    def lengths_of(self, storage: str) -> array:
        """The length of ``storage`` after each step: repeated up to a slot
        that changes it, and over the slot, a progression per action."""
        pieces, since = [], 0   # the next length holds from step since + 1
        for start, length, n, changes in self._changes_of(self._index(storage)):
            pieces.append(array("q", [length]) * (start - since))
            since, m, by = start, len(changes), sum(changes)
            if n > 1 or m > 1:   # else the length after the step holds from it
                part = array("q", bytes(8 * n))
                for p in range(m):
                    count, first = len(range(p, n, m)), length + sum(changes[:p + 1])
                    part[p::m] = array("q", struct.pack(f"{count}q", *(range(
                        first, first + by * count, by) if by else repeat(first, count))))
                pieces.append(part)
                since += n
        return array("q", b"".join(pieces))

    def length_after(self, storage: str, step: int) -> int:
        """The length of ``storage`` after step ``step`` (0: before step 1):
        its length before the last slot that changes it and starts by
        ``step`` (found by bisection), plus that slot's changes up to it."""
        j = self._index(storage)
        if not 0 <= step <= len(self):
            raise ValueError(f"step {step} outside trace of {len(self)} steps")
        slots = self._changes_of(j)
        start, length, n, changes = slots[bisect_right(slots, step, key=itemgetter(0)) - 1]
        return length + _changed(changes, min(step - start, n))

    def write(self, fh) -> None:
        """Write the trace in its file format to ``fh``, ``_CHUNK`` steps at a
        time: each distinct action's text is rendered once, the lengths only
        after a step that changes one, and a run's lines in a chunk by one
        format over their steps and changing lengths."""
        fh.write(f"step,state,consumed,{','.join(f'len({i})' for i in self.storage_ids)},emit\n")
        lengths, texts, lens = list(self.initial), {}, ",".join(map(str, self.initial))
        lines, room, step, done, actions = [], _CHUNK, 1, 0, self.actions
        for i in [*self.runs, len(actions)]:   # the single steps before run i, then run i
            n, cycle = self.runs.get(i, (0, ()))
            for cycle, n in ((actions[done:i], i - done), (cycle, n)):
                while n:
                    take = min(n, room)
                    if take <= len(cycle):   # one line per action
                        for step, action in enumerate(cycle[:take], step):
                            head, tail, changes = texts.get(id(action)) or texts.setdefault(
                                id(action), (f"{action[0]},{'y' if action[1] else 'n'},",
                                             f",{action[2] or ''}\n", _length_changes(action[-1])))
                            if changes:
                                for j, d in changes:
                                    lengths[j] += d
                                lens = ",".join(map(str, lengths))
                            lines.append(f"{step},{head}{lens}{tail}")
                        step += 1
                    else:
                        lines.append(_run_text(cycle, take, step, lengths))
                        step, lens = step + take, ",".join(map(str, lengths))
                    turn = take % len(cycle)   # the rest starts at this action
                    n, room, cycle = n - take, room - take, cycle[turn:] + cycle[:turn]
                    if not room:
                        fh.write("".join(lines))
                        lines, room = [], _CHUNK
            done = i + 1
        fh.write("".join(lines))

    def to_lines(self) -> list[str]:
        """The trace in its file format, one step per line, as written."""
        self.write(buf := io.StringIO())
        return buf.getvalue().split("\n")[:-1]


_CHANGED = re.compile(rb"[^\x00]")   # a slot that changes a storage's length
_start = re.Match.start


def _changed(changes, n: int) -> int:
    """The change of ``n`` steps that take ``changes`` in turn."""
    return n // len(changes) * sum(changes) + sum(changes[:n % len(changes)])


def _length_changes(row: bytes) -> list[tuple[int, int]]:
    """The storages a step's trace row changes, each with its change (1 or -1)."""
    return [(j, d) for j, d in enumerate(array("b", row)[1:]) if d]


def _run_text(cycle: tuple, n: int, step: int, lengths: list[int]) -> str:
    """The file lines of ``n`` steps from ``step`` on, which apply
    ``cycle``'s actions in turn from ``lengths``, by one ``%``-format over
    the steps and the lengths that change; ``lengths`` is advanced past
    them."""
    m, changes = len(cycle), [array("b", action[-1])[1:] for action in cycle]
    by = [sum(c) for c in zip(*changes)]   # per storage, its change per cycle
    width, after, templates = 1 + len(by) - by.count(0), list(lengths), []
    values = [0] * (n * width)
    for p, (action, change) in enumerate(zip(cycle, changes)):
        after = [x + d for x, d in zip(after, change)]
        head = f"{action[0]},{'y' if action[1] else 'n'},".replace("%", "%%")
        lens = ",".join("%d" if d else str(x) for x, d in zip(after, by))
        templates.append(f"%d,{head}{lens},{(action[2] or '').replace('%', '%%')}\n")
        count = len(range(p, n, m))
        for c, column in enumerate([range(step + p, step + n, m)] + [
                range(x, x + d * count, d) for x, d in zip(after, by) if d]):
            values[p * width + c::m * width] = column
    for j, column in enumerate(zip(*changes)):
        lengths[j] += _changed(column, n)
    return ("".join(templates) * (n // m) + "".join(templates[:n % m])) % tuple(values)


class RunResult(_Record):
    """A run's verdict and counts.  ``halt_reason`` is no_rule, step_limit or
    fault; ``max_lengths`` holds each storage's peak if the run was watched."""
    __slots__ = ("verdict", "output", "steps", "input_consumed", "halt_reason", "trace",
                 "fault", "max_lengths")

    def __init__(self, verdict: Verdict, output: str, steps: int, input_consumed: int,
                 halt_reason: str, trace: Trace | None = None, fault: str | None = None,
                 max_lengths: tuple[int, ...] | None = None):
        self.verdict = verdict
        self.output = output
        self.steps = steps
        self.input_consumed = input_consumed
        self.halt_reason = halt_reason
        self.trace = trace
        self.fault = fault
        self.max_lengths = max_lengths

    @property
    def accepted(self) -> bool:
        return self.verdict is _ACCEPT


# The verdicts as module constants: a global is cheaper to read than an
# enum member.
_ACCEPT, _REJECT = Verdict.ACCEPT, Verdict.REJECT
_STEP_LIMIT, _FAULT = Verdict.STEP_LIMIT, Verdict.FAULT

# Storage effect codes of a compiled action.  The compiler knows every
# storage's view, so it settles statically whether a pop faults and, where it
# can, the view after the action.
_KEEP = 0             # the storage stays as it is
_APPEND = 1           # push onto a non-empty queue; view unchanged
_APPEND_SET = 2       # push onto an empty queue or onto a pushdown; view := arg
_POPLEFT = 3          # queue pop
_POPLEFT_APPEND = 4   # queue pop, then push
_POP = 5              # pushdown pop
_SET_TOP = 6          # pushdown pop, then push: replace the top; view := arg
_POP_EMPTY = 7        # pop on an empty queue or pushdown: faults
_WRITE = 8            # tape write, head stays; view := arg
_RIGHT = 9            # tape: write arg unless None, then move right
_LEFT = 10            # tape: write arg unless None, then move left (faults at cell 0)
# The bulk codes tag a step that runs take in bulk (see _bulk): a rotation's,
# a copy's or a tape sweep's, each a self-loop, or a halving pass's keep.  Its
# context is one _Bulk record, a queue code's arg; a tape's arg is its write.
_ROTATE = 11          # queue: pop the front and push it back
_SWEEP_R = 12         # tape: as _RIGHT
_SWEEP_L = 13         # tape: as _LEFT
_COPY = 14            # non-empty queue: consume the input symbol and append it
_SWEEPS = {_POPLEFT_APPEND: _ROTATE, _RIGHT: _SWEEP_R, _LEFT: _SWEEP_L, _APPEND: _COPY}
_HALVE = 15           # queue: as _POPLEFT_APPEND, whose push is the front
_CYCLE = 16           # a serving round's last step (see _cycles): as _POPLEFT_APPEND or _RIGHT
_RENT = 8             # single steps of a tape sweep or a halving pass before bulk
_SERVE_RENT = 16      # serving rounds taken singly before each bulk call


class _Bulk(dict):
    """A bulk context: the views that compiled keys proved to pick its next
    step (a rotation's fronts, a copy's input symbols, a tape sweep's input
    view, cell and popped top, a halving pass's drop (input view, front)
    pairs), each to what the step leaves (a tape sweep's cell, with its
    push) or ``None``.  ``action`` is the one action its queue keys share (a
    pass's keep), whose arg it is; a pass's ``keeps`` holds its keep's pairs
    and ``drop`` its first drop action; ``match`` is a copy's or a pass's
    regex match over its members; a tape sweep ``stays`` if its cells do."""
    __slots__ = ("keeps", "match", "action", "drop", "stays")

    def __init__(self, code: int, stays: bool):
        self.keeps = set() if code == _HALVE or code == _POPLEFT else None
        self.match = self.action = self.drop = None
        self.stays = stays


def _bulk(action: tuple, state: str, layout: tuple, named: set) -> tuple | None:
    """For an action of ``state`` that emits nothing, if runs may take it in
    bulk, its plan for the state's keys: its storage ``j``, its bulk code,
    the key's slot whose view must equal its arg (else a key steps singly)
    or ``None``, ``itemgetter``s of the views its context's key keeps (with
    what it adds before and after them) and of its picking views, and
    whether a tape sweep pushes.  A self-loop may rotate a queue, or consume
    the input symbol and append it to a non-empty queue; or move a tape's
    head, maybe consuming input, and pop from the pushdown after it or push
    if no rule of the state reads it (``named``: the slots they name).  A
    halving pass's keep (code _HALVE, s to t) pops the front and pushes it
    back, its drop (code _POPLEFT, t to s) pops it and may consume input.  A
    context's key: the key less the views that pick the step or that it sets
    (and a pass's state), plus the storage, the code, the row and whether a
    tape's cells stay, or a pass's states in the keep's order."""
    moved = [j for j, code in enumerate(action[3:-1:2]) if code]
    if not moved:
        return None
    j, consume, (code, arg) = moved[0], action[1], action[3 + 2 * moved[0]:5 + 2 * moved[0]]

    def plan(code, check, drops, adds, picks, push=False, states=()) -> tuple:
        kept = [i for i in range(2 + len(layout)) if i not in drops] or [slice(0, 0)]
        return j, code, check, itemgetter(*kept), states, adds, itemgetter(*picks), push

    if action[0] != state:
        if len(moved) == 1 and (code == _POPLEFT or code == _POPLEFT_APPEND and not consume):
            keep = code == _POPLEFT_APPEND
            return plan(_HALVE if keep else code, 2 + j if keep else None, (0, 1, 2 + j),
                        (j, _HALVE), (1, 2 + j), states=(state, action[0])[::1 if keep else -1])
    elif code == _RIGHT or code == _LEFT:
        other = _KEEP if len(moved) == 1 else action[5 + 2 * j] if moved[1:] == [j + 1] else None
        if other == _KEEP or other == _POP or other == _APPEND_SET and layout[
                j + 1] is Kind.PUSHDOWN and 3 + j not in named:
            reads, stays = (1,) * consume + (2 + j,), other == _KEEP and not consume and arg is None
            return plan(_SWEEPS[code], None, reads + (3 + j,) * (other != _KEEP),
                        (j, _SWEEPS[code], action[-1], stays),
                        reads + (3 + j,) * (other == _POP), other == _APPEND_SET)
    elif len(moved) == 1 and code in (_POPLEFT_APPEND, _APPEND) and (code == _APPEND) == consume:
        i = 1 if consume else 2 + j
        return plan(_SWEEPS[code], i, (i,), (j, _SWEEPS[code], action[-1]), (i,))
    return None


@lru_cache(maxsize=4096)   # a cold run compiles many keys with the same effects
def _effect(storage: StorageSpec, view: str, op: QueueOp | TapeOp) -> tuple[int, str | None, int]:
    """Compile ``op`` on a storage whose current view is ``view`` to ``(code,
    arg, change)``, where ``change`` is what it adds to the storage's length
    (1, 255 for -1, or 0; a tape's length is its non-blank cells): the
    storage's byte in the action's trace row, after the consume byte."""
    if storage.kind is Kind.TAPE:
        write = op.write if op.write != view else None
        change = 0 if write is None else (
            (write != storage.blank_cell) - (view != storage.blank_cell)) & 255
        if op.move == "R":
            return _RIGHT, write, change
        if op.move == "L":
            return _LEFT, write, change
        return (_KEEP, None, 0) if write is None else (_WRITE, write, change)
    queue = storage.kind is Kind.QUEUE
    if op.pop:
        if view == EMPTY:
            return _POP_EMPTY, None, 0
        if op.push is None:
            return _POPLEFT if queue else _POP, None, 255
        if queue:
            return _POPLEFT_APPEND, op.push, 0
        return (_KEEP, None, 0) if op.push == view else (_SET_TOP, op.push, 0)
    if op.push is None:
        return _KEEP, None, 0
    return _APPEND if queue and view != EMPTY else _APPEND_SET, op.push, 1


def _fault(storage: StorageSpec) -> str:
    """The fault of an action on ``storage``: its one impossible effect."""
    if storage.kind is Kind.TAPE:
        return f"tape head moved off the left end of {storage.ident!r}"
    return f"pop on empty {storage.kind.value} {storage.ident!r}"


def _rotate(queue: deque, bulk: _Bulk, steps: int, limit: int) -> int:
    """The rest of a rotation sweep at once: while ``queue``'s front is in
    ``bulk`` and the run is short of ``limit`` after the current step
    (``steps`` done before it), one more step moves the front to the back.
    Returns ``steps`` plus the steps it took."""
    run = len(list(takewhile(bulk.__contains__, islice(queue, limit - steps - 1))))
    if run == len(queue):   # every symbol rotates: the sweep runs to the limit
        run = limit - steps - 1
    queue.rotate(-run)
    return steps + run


def _pass_match(drops, keeps: set):
    """The ``match`` of a halving pass's longest proven run of steps, each two
    characters, its input view and its front: a drop whose pair is in
    ``drops`` and then one in ``keeps``, over and over."""
    def pairs(members: set) -> str:
        fronts: dict[str, str] = {}
        for view, front in sorted(members):
            fronts[view] = fronts.get(view, "") + re.escape(front)
        return "|".join(f"{re.escape(view)}[{f}]" for view, f in fronts.items()) or "(?!)"

    drop = f"(?:{pairs(drops)})"
    return re.compile(f"(?:{drop}(?:{pairs(keeps)}))*{drop}?").match


def _halve(queue: deque, bulk: _Bulk, padded: str, pos: int, steps: int, limit: int):
    """The rest of a halving pass at once, after a kept front (``steps`` done
    before it): while the run is short of ``limit`` after the current step, a
    step drops the front and the next keeps it, each while its input view and
    front are a pair that ``bulk`` has for it (a key, or one of its keeps).
    It reads the fronts in windows that grow fourfold up to 4,096 steps (so a
    long pass holds little at once), never past the queue's length, and stops
    at the end of the input if a drop consumes.  Returns ``steps`` plus the steps it took, and
    the input position."""
    by, match = bulk.drop[1], bulk.match
    room, n = limit - steps - 1, 64
    while w := min(n, room, len(queue), 2 * (len(padded) - 1 - pos) if by else room):
        views = [None] * (2 * w)   # per step, its input view and its front
        views[1::2] = islice(queue, w)
        if by:   # a drop reads the symbol at pos, its keep the next one
            views[::4] = padded[pos:pos + (w + 1) // 2]
            views[2::4] = padded[pos + 1:pos + 1 + w // 2]
        else:
            views[::2] = padded[pos] * w
        took = match("".join(views)).end() // 2
        for _ in repeat(None, took):
            queue.popleft()
        queue.extend(views[3:2 * took:4])   # the kept fronts
        steps, pos, room = steps + took, pos + by * ((took + 1) // 2), room - took
        if took < w or took & 1:
            break
        n = min(4 * n, 4096)
    return steps, pos


def _sweep(walk: _Bulk, cells: list, head: int, by: int, blank: str, pd: list | None,
           pop: bool, push: str | None, word: str | None, pos: int, steps: int, limit: int):
    """The rest of a tape sweep by ``by`` (1 or -1) at once: one more step
    while the run is short of ``limit`` after the current step and the views
    that pick it (the symbol at ``pos`` of ``word`` if given, the cell under
    the head, with ``pop`` the top under ``pd``'s) are in ``walk``, which
    maps them to the cell the step leaves, or to it and what it pushes after
    ``push``, unless its cells stay.  It stops at cell 0 and returns
    ``steps``, the head, ``pos`` and the push that the caller makes."""
    room, n = limit - steps - 1, 16
    while room:   # in windows of views that grow fourfold
        n = min(n, room)
        ahead = (cells[head:head + n] + [blank] * (head + n - len(cells)) if by > 0
                 else cells[max(head - n, 0) + 1:head + 1][::-1])
        if walk.stays:
            took = len(list(takewhile(walk.__contains__, ahead)))
        else:
            views = ([word[pos:pos + n]] if word is not None else []) + [ahead] + (
                [pd[max(len(pd) - n - 1, 0):-1][::-1]] if pop else [])
            run = list(takewhile(truth, map(walk.get, zip(*views) if len(views) > 1 else ahead)))
            took = len(run)
            if pop:
                del pd[len(pd) - 1 - took:-1]
            elif pd is not None:
                pd.append(push)
                pd.extend(map(itemgetter(1), run))
                push, run = pd.pop(), list(map(itemgetter(0), run))
            cells[head + 1 - took if by < 0 else head:head + 1 if by < 0 else head + took] = (
                run[::by])
            pos += took if word is not None else 0
        if by > 0:
            cells.extend(repeat(blank, head + took + 1 - len(cells)))
        steps, head, room, n = steps + took, head + by * took, room - took, 4 * n
        if took < n // 4:
            break
    return steps, head, pos, push


class _Cycle(dict):
    """A serving cycle's macro table: a round's reads to its emits and leaves (qmlab.macro);
    ``steps`` holds per step its state, storage, next state and the codes it may take."""
    __slots__ = ("states", "flags", "touch", "reads", "width", "tape", "steps")


def _cycles(by_state: dict, spec: MachineSpec) -> dict:
    """A rule table's serving cycles by last state: cycles of states with no
    self-loop whose rules agree on consuming and touch (pattern on or act on)
    one storage at most, each one's next its one such successor; over a tape
    the last step moves right, or over queues, one of which it pops and
    pushes; and whose rounds read 2^16 keys at most (mk:5's, tk:4's do not)."""
    stores, steps, tags = spec.storages, {}, {}
    for state, rules in by_state.items():   # what each state touches, consumes and goes to
        if state in (nexts := {r[3] for r in rules}):   # no cycle state loops: most states do
            continue
        pats, flags, ops = zip(*map(itemgetter(2, 4, 5), rules))
        touched = [j for j, (pat, op) in enumerate(zip(zip(*pats), zip(*ops)))
                   if pat.count(WILDCARD) < len(rules) or not {*op} <= {NO_OP, TAPE_STAY}]
        if len(touched) < 2 and len({*flags}) == 1:
            steps[state] = (*touched, None)[0], flags[0], nexts
    succ = {s: min(to) for s, (_, _, n) in steps.items() if len(to := n & steps.keys()) == 1}
    for s in list(succ):
        path = []
        while s in succ:
            path.append(s)
            s = succ.pop(s)
        path = path[path.index(s) if s in path else len(path):]
        used = sorted({steps[t][0] for t in path} - {None})
        tape = len(used) == 1 and stores[used[0]].kind is Kind.TAPE
        ends = [i for i, t in enumerate(path) if (any(
            r.ops[used[0]].move == "R" for r in by_state[t]) if tape else steps[t][0] is not None)]
        if tape and len(ends) != 1 or not tape and {stores[j].kind for j in used} != {Kind.QUEUE}:
            continue
        cycle = _Cycle()
        cycle.states = (*path[ends[-1] + 1:], *path[:ends[-1] + 1])
        cycle.touch, cycle.flags = zip(*(steps[t][:2] for t in cycle.states))
        cycle.reads = [(j, 1 if tape else cycle.touch.count(j)) for j in used]
        cycle.tape, cycle.width = used[0] if tape else None, sum(cycle.flags) + 1 - cycle.flags[-1]
        cycle.steps = [(t, j, after, ((_RIGHT, _CYCLE) if after == cycle.states[0] else (
            _KEEP, _WRITE)) if tape else (_POPLEFT_APPEND, _HALVE, _CYCLE)) for t, j, after in zip(
            cycle.states, cycle.touch, cycle.states[1:] + cycle.states[:1])]
        if len(spec.input_alphabet) ** sum(cycle.flags) * prod(
                (len(stores[j].alphabet) + tape) ** (n * stores[j].tracks)
                for j, n in cycle.reads) <= 1 << 16:
            tags[cycle.states[-1]] = cycle
    return tags


def _serve(*args):
    """Whole serving rounds at once: :func:`qmlab.macro.serve`, loaded by the first call."""
    from .macro import serve
    return serve(*args)


# The run loop, as a template specialised by :func:`_run_loop` to a storage
# layout, to where a run starts and to what it observes.  Storage j lives in
# locals: its object ``sj``, its view ``vj`` and, for a tape, its ``cellsj``,
# ``headj`` and ``blankj``; its effect code and argument in an action are
# ``cj`` and ``aj``.  Per storage kind, its new object, its lines at the start
# of a run, its branch in a step and what a resumed loop writes back.  A
# queue's branch tests its plain pops and pushes first, a tape's its plain
# moves and writes: the write, then the move (a right move appends a blank
# past the end, a left move faults at cell 0) and the new view, after which
# a sweep or a serving round's end adds only its rent and its bulk call.  A
# marker line ``@name`` becomes the lines ``_WORD`` or ``_CONFIG`` (where a
# loop starts, and what it writes back), ``_WATCH``, ``_TRACE`` and
# ``_SERVE`` give ``name``, or nothing.  Every loop stops (halt, step limit,
# fault) in the same lines and returns a RunResult.  A bulk branch runs only
# with room for a step and once the next step's picking views are keys of
# its _Bulk record (``aj``, or a tape's ``walk``); a tape sweep's only after
# ``_RENT`` single steps in its state and off cell 0 if leftward, a halving
# pass's after ``_RENT`` single steps of its pass (``keep_at``, the step of
# its next keep; ``keep_due``, when its rent is paid), a serving round's end
# (``_CYCLE``) after ``_SERVE_RENT`` of them since the last call
# (``served``).  In a trace, ``@swept`` and ``@halved`` add a bulk call's
# steps as one entry.  The dead ``if False`` block numbers a step's locals
# first (CPython numbers them as met; past 256, each use costs more).
_LOOP_SETUP = {
    Kind.QUEUE: "v{j} = s{j}[0] if s{j} else EMPTY\nkeep_at = -1\n@setup",
    Kind.PUSHDOWN: "v{j} = s{j}[-1] if s{j} else EMPTY\n@setup",
    Kind.TAPE: "cells{j}, head{j}, blank{j} = s{j}.cells, s{j}.head, s{j}.blank\n"
               "v{j}, last = cells{j}[head{j}], None\n@setup",
}
_LOOP_APPLY = {
    Kind.QUEUE: """\
if c{j}:
    if c{j} < {_POP}:   # a plain pop, push or both (the queue codes below _POP)
        if c{j} == {_POPLEFT}:
            s{j}.popleft()
            v{j} = s{j}[0] if s{j} else EMPTY
        elif c{j} == {_POPLEFT_APPEND}:
            s{j}.popleft()
            s{j}.append(a{j})
            v{j} = s{j}[0]
        elif c{j} == {_APPEND}:
            s{j}.append(a{j})
            @grow
        else:   # _APPEND_SET
            s{j}.append(a{j})
            v{j} = a{j}
            @grow
    elif c{j} == {_COPY}:   # the step, then the rest of the input run at once
        s{j}.append(word[pos - 1])
        if view in a{j} and steps + 1 < limit:   # one bounded match counts the rest
            end = a{j}.match(word, pos, pos + limit - steps - 1).end()
            s{j}.extend(word[pos:end])
            before = steps
            steps, pos, view = steps + end - pos, end, padded[end]
            @swept
        @grow
    elif c{j} == {_HALVE}:   # a kept front, then, past the rent, the rest of the pass
        s{j}.rotate(-1)
        if steps - keep_at:   # no keep two steps before: a new pass
            keep_due = steps + {_RENT}
        elif steps >= keep_due and steps + 1 < limit and (view, s{j}[0]) in a{j}:
            before = steps
            steps, pos = _halve(s{j}, a{j}, padded, pos, steps, limit)
            view = padded[pos]
            @halved
            if (steps - before) & 1:   # it ended on a drop
                action = a{j}.drop
                next_state = action[0]
        keep_at = steps + 2
        v{j} = s{j}[0] if s{j} else EMPTY
    elif c{j} == {_ROTATE}:   # the step, then the rest of the sweep at once
        s{j}.rotate(-1)
        if s{j}[0] in a{j} and steps + 1 < limit:
            before = steps
            steps = _rotate(s{j}, a{j}, steps, limit)
            @swept
        v{j} = s{j}[0]
    elif c{j} == {_CYCLE}:   # a pop and push ending a serving round: past the rent, whole rounds
        s{j}.popleft()
        s{j}.append(a{j})
        v{j} = s{j}[0]
        @serve
    else:
        raise ExecutionFault(_fault(ex.spec.storages[{j}]))""",
    Kind.PUSHDOWN: """\
if c{j}:
    if c{j} == {_APPEND_SET}:
        s{j}.append(a{j})
        v{j} = a{j}
        @grow
    elif c{j} == {_POP}:
        s{j}.pop()
        v{j} = s{j}[-1] if s{j} else EMPTY
    elif c{j} == {_SET_TOP}:
        s{j}[-1] = v{j} = a{j}
    else:
        raise ExecutionFault(_fault(ex.spec.storages[{j}]))""",
    Kind.TAPE: """\
if c{j}:
    if a{j} is not None:
        cells{j}[head{j}] = a{j}
        @write
    if c{j} < {_SWEEP_R}:   # a plain move or a write in place
        if c{j} == {_RIGHT}:
            head{j} += 1
            if head{j} == len(cells{j}):
                cells{j}.append(blank{j})
        elif c{j} == {_LEFT}:
            if head{j} == 0:
                raise ExecutionFault(_fault(ex.spec.storages[{j}]))
            head{j} -= 1
        v{j} = cells{j}[head{j}]
    else:   # a sweep's step or a serving round's end: the move, then its rent and bulk call
        if c{j} == {_SWEEP_L}:
            if head{j} == 0:
                raise ExecutionFault(_fault(ex.spec.storages[{j}]))
            head{j} -= 1
        else:
            head{j} += 1
            if head{j} == len(cells{j}):
                cells{j}.append(blank{j})
        v{j} = cells{j}[head{j}]
        if state is not last:   # a sweep's first step, or a round's end (its state never sweeps)
            if c{j} == {_CYCLE}:
                @serve
            else:
                last, due = state, steps + {_RENT}
        elif steps >= due and steps + 1 < limit and (head{j} or c{j} == {_SWEEP_R}) and (
                {pick}) in (walk := ex._walks[id(action)]):  # the next step's picking views
            before = steps
            steps, head{j}, pos, {push} = _sweep(
                walk, cells{j}, head{j}, 1 if c{j} == {_SWEEP_R} else -1,
                blank{j}, {pd}, word if consume else None, pos, steps, limit)
            view, v{j} = padded[pos], cells{j}[head{j}]
            @swept
            @moved""",
}
_LOOP_NEW = {Kind.QUEUE: "deque()", Kind.PUSHDOWN: "[]", Kind.TAPE: "ex._factories[{j}]()"}
_LOOP_FINAL = {**dict.fromkeys(Kind, ""), Kind.TAPE: "s{j}.head = head{j}"}
_LOOP = """\
def run_loop(ex, {params}):
    if False:   # never runs: the compiler meets a step's locals here first
        state = pos = steps = view = action = next_state = consume = emit = None
        add_action = change{hot} = None
    cache, compile_ = ex._cache, ex._compile
    @enter
    n = len(word)
    padded = NO_SYMBOL * (n + 1) if ex._post else word + NO_SYMBOL   # padded[pos]: input view
{setup}
    @begin
    emit_ = output.append
    view, served = padded[pos], 0
    try:
        while steps < limit:
            try:
                action = cache[state, view{views}]
            except KeyError:
                action = compile_((state, view{views}))
            if action is None:
                accept = (word or ex.spec.epsilon_accept) and {accepts}
                verdict = _ACCEPT if accept else _REJECT
                reason, fault = "no_rule", None
                break
            next_state, consume, emit{slots}, change = action
            if consume:
                if pos >= n:
                    raise ExecutionFault("input consumed past end of word")
                pos += 1
                view = padded[pos]
{apply}
            if emit is not None:
                emit_(emit)
            state = next_state
            steps += 1
            @step
        else:
            verdict, reason, fault = _STEP_LIMIT, "step_limit", None
    except ExecutionFault as exc:
        verdict, reason, fault = _FAULT, "fault", str(exc)
    @exit
{final}
    return RunResult(verdict, "".join(output), steps, pos, reason, {trace}, fault, {peaks})
"""
# A run from a word: fresh storages (a post-mode machine's storage 0 holds the
# word) and, without max_steps, the limit 64 * (n + 1) ** 2 for n symbols.
_WORD = {"enter": """\
alphabet = ex.spec.input_alphabet
if not alphabet.issuperset(word):
    raise InputSymbolError.first(word, alphabet)
limit = 64 * (len(word) + 1) ** 2 if max_steps is None else min(max_steps, maxsize)
{stores} = {new}
if ex._post:
    s0.extend(word)
state, pos, steps, output = ex.spec.start, 0, 0, []
"""}
_ACCEPTS = {Acceptance.OUTPUT_BIT: 'output[-1:] == ["1"]',
            Acceptance.FINAL_STATES: "(ex._post or pos == n) and state in ex.spec.finals",
            Acceptance.EMPTY_STORAGES: "(ex._post or pos == n) and not ({empty})"}
# Steps of a Configuration, in place, written back before the loop returns.
_CONFIG = {"enter": """\
{stores} = cfg.stores
word, output, state, pos, steps = cfg.input, cfg.output, cfg.state, cfg.input_pos, cfg.steps
""",
           "exit": "cfg.state, cfg.input_pos, cfg.steps = state, pos, steps\n"}
_PEAK = "if l{j} > m{j}:\n    m{j}, p{j} = l{j}, steps\n"       # raised in step pj
# A watched run keeps storage j's peak in mj (a push reads len(), a tape keeps
# its count in lj, changed by the action row's change per write or per step of
# a bulk sweep); its result undoes a peak a faulting step raised (by one).
_CHANGE = "((change[{j} + 1] ^ 128) - 128)"   # storage j's change of length, signed
_WATCH = {"setup": "l{j} = m{j} = len(s{j})\np{j} = -1\n",
          "grow": "if (l{j} := len(s{j})) > m{j}:\n    m{j}, p{j} = l{j}, steps\n",
          "write": f"l{{j}} += {_CHANGE}\n" + _PEAK,
          "moved": f"l{{j}} += (steps - before) * {_CHANGE}\n" + _PEAK}
# A traced run appends each step's action (its last slot is its trace row) and
# tracks no lengths.  A bulk call's steps are one entry, a run of the step's
# action (or of a pass's keep and drop in turn) added before the action that
# ends the step: the two hold the step and the call's steps in order.
_TRACE = {"begin": "trace = Trace(ex._storage_ids, tuple(map(len, ({stores}))))\n"
                   "add_action, runs = trace.actions.append, trace.runs\n",
          "swept": "runs[len(trace.actions)] = steps - before, (action,)\nadd_action(action)\n",
          "halved": "runs[len(trace.actions)] = steps - before, (action, a{j}.drop)\n"
                    "add_action(action)\n",
          "step": "add_action(action)\n", "serve": "pass\n"}
# Past the rent, with room for a round and its input, whole rounds at once (not traced).
_SERVE = {"serve": """\
served += 1
if served >= {_SERVE_RENT} and steps + len((cycle := ex._walks[id(action)]).states) < limit and (
        pos + cycle.width <= n + 1):
    {sync}steps, pos, emit, {vs} = _serve(ex, cycle, ({stores}), ({vs}), padded, pos, steps,
                                         limit, output, emit)
    view, served = padded[pos], 0{load}
"""}
_MARKER = re.compile(r"^( *)@(\w+)\n?", re.M)


@lru_cache(maxsize=256)
def _run_loop(layout: tuple[Kind, ...], acceptance: Acceptance,
              watch: bool = False, traced: bool = False, resume: bool = False):
    """The run loop for storages of the kinds ``layout`` and specs of the
    ``acceptance`` kind, tracing the completed steps if ``traced`` and
    keeping the peaks after them if ``watch``.  ``run_loop(ex, word,
    max_steps)`` is all of :meth:`Executor.run`, from the word to the
    :class:`RunResult`; with ``resume``, ``run_loop(ex, cfg, limit)`` steps
    ``cfg`` in place until it halts, faults or ``cfg.steps`` reaches
    ``limit``, writes the run's state back to it and returns the
    :class:`RunResult` of the steps from the word's start.  A faulting step
    keeps what it did before the fault (input consumed, earlier storages
    changed) but not its new state or its step: neither ``cfg`` nor the
    result counts it.  A tape's steps, sweeps included, run one body that
    writes, moves and reads the new view (see ``_LOOP_APPLY``)."""
    extras = [extra for on, extra in ((True, _CONFIG if resume else _WORD), (watch, _WATCH),
                                      (traced, _TRACE), (not traced, _SERVE)) if on]

    def expand(template: str) -> str:   # each marker line, as its extra lines
        return _MARKER.sub(lambda m: textwrap.indent(
            "".join(extra.get(m[2], "") for extra in extras), m[1]), template)

    def lines(parts: dict, indent: str) -> str:   # the effect codes are literals
        return "\n".join(textwrap.indent(expand(parts[kind]).format_map(dict(
            globals(), j=j, stores="".join(f"s{i}, " for i in js), vs="".join(
                f"v{i}, " for i in js), sync=f"s{j}.head = head{j}; " * (kind is Kind.TAPE),
            load=f"; head{j} = s{j}.head" * (kind is Kind.TAPE), **partner(j))), indent)
            for j, kind in enumerate(layout))

    def partner(j: int) -> dict:   # a tape sweep's pushdown, whose branch pushes the last push
        pick = f"(view, v{j}) if consume else v{j}"   # as _sweep's walk keys them
        if layout[j + 1:j + 2] == (Kind.PUSHDOWN,):   # a pop's next top is the one below
            below = f"*s{j + 1}[-2:-1]"
            return {"pd": f"s{j + 1} if change[{j + 2}] else None, change[{j + 2}] == 255, "
                          f"a{j + 1}", "push": f"a{j + 1}",
                    "pick": f"((view, v{j}, {below}) if consume else (v{j}, {below})) "
                            f"if change[{j + 2}] == 255 else {pick}"}
        return {"pd": "None, False, None", "push": "_", "pick": pick}

    js = range(len(layout))
    source = expand(_LOOP).format(
        params="cfg, limit" if resume else "word, max_steps",
        stores=", ".join(f"s{j}" for j in js) + "," if js else "_",
        new="".join(f"{_LOOP_NEW[kind].format(j=j)}, " for j, kind in enumerate(layout)) or "()",
        accepts=_ACCEPTS[acceptance].format(
            empty=" or ".join(f"s{j}" for j in js) or "()"),
        views="".join(f", v{j}" for j in js),
        slots="".join(f", c{j}, a{j}" for j in js),
        hot="".join(f" = v{j} = c{j} = a{j}" for j in js),
        trace="trace" if traced else "None",
        peaks="(" + "".join(f"m{j} - (p{j} == steps), " for j in js) + ")" if watch else "None",
        setup=lines(_LOOP_SETUP, "    "), apply=lines(_LOOP_APPLY, " " * 12),
        final=lines(_LOOP_FINAL, "    ") if resume else "")
    namespace: dict = {}
    exec(compile(source, f"<run loop {','.join(k.value for k in layout)}>", "exec"),
         globals(), namespace)
    return namespace["run_loop"]


class Executor:
    """Compiled form of a machine: per-state rule lists, a cache from
    concrete observations to compiled actions and the run loops of its
    storage layout.  Nothing it compiles outlives it.

    The cache key is ``(state, input view, view of storage 0, ...)``.  A key
    is compiled on its first look-up to ``None`` (no rule applies) or to
    ``(next_state, consume, emit, code 0, arg 0, code 1, arg 1, ..., row)``:
    per storage what the action does to it (see :func:`_effect`), and the
    step's row for the trace (see ``Trace._columns``).  Plain, watched and
    traced runs read this one cache.  A state's rules are indexed on its
    first compile (:meth:`_index`), and each of its distinct actions is
    planned once (:meth:`_plan`): one object for equal actions, and whether
    runs take it in bulk (:func:`_bulk`).  A bulk step gets a bulk code in
    its storage's slot; its context in ``_sweeps`` is one :class:`_Bulk`
    record, which a queue's keys share as their action's argument and a tape
    sweep's keys, each with its own action, find through ``_walks``.  A serving
    cycle's (see :func:`_cycles`) last step gets code ``_CYCLE`` and finds
    its macro table through ``_walks``; plain and watched runs take whole
    rounds at once (see :func:`_serve`).  A run is one call of a loop
    generated for the layout and the acceptance kind (see :func:`_run_loop`);
    :func:`step` enters it from a :class:`Configuration`.
    """

    def __init__(self, spec: MachineSpec):
        self.spec = spec
        self.rules_by_state: dict[str, list[Rule]] = {}
        for rule in spec.rules:
            self.rules_by_state.setdefault(rule.state, []).append(rule)
        self._cache: dict[tuple, tuple | None] = {}
        self._by_pattern: dict[str, tuple[list, dict, set]] = {}   # see _index
        self._actions: dict[tuple, tuple] = {}
        self._sweeps: dict[tuple, _Bulk] = {}   # a bulk context's key: its record
        self._walks: dict[int, _Bulk] = {}   # a tape sweep's action (by id): its record
        self._post = spec.mode is Mode.POST
        self._layout = tuple(s.kind for s in spec.storages)
        self._run = _run_loop(self._layout, spec.acceptance)
        self._factories = tuple(partial(_Tape, s.blank_cell) if s.kind is Kind.TAPE
                                else deque if s.kind is Kind.QUEUE else list
                                for s in spec.storages)
        self._storage_ids = tuple(s.ident for s in spec.storages)

    @cached_property
    def _tags(self) -> dict:   # a serving cycle by its last state, found on first compile
        return _cycles(self.rules_by_state, self.spec)

    # -- configuration -----------------------------------------------------

    def initial(self, word: str) -> Configuration:
        """Start-of-run configuration; in post mode, storage 0 holds the input."""
        alpha = self.spec.input_alphabet
        if not alpha.issuperset(word):
            raise InputSymbolError.first(word, alpha)
        stores = [make() for make in self._factories]
        if self._post:
            stores[0].extend(word)
        return Configuration(word, self.spec.start, 0, stores, [], 0)

    # -- stepping ----------------------------------------------------------

    def _compile(self, key: tuple) -> tuple | None:
        state = key[0]
        if state not in self._by_pattern:
            self._index(state)
        masks, plans, _ = self._by_pattern[state]
        for views, rules in masks:   # the most specific mask first
            rule = rules.get(views(key))
            if rule is not None:
                break
        else:
            self._cache[key] = None
            return None
        action, row = [intern(rule.next_state), rule.consume, rule.emit], [rule.consume]
        for code, arg, change in map(_effect, self.spec.storages, key[2:], rule.ops):
            action += code, arg
            row.append(change)
        action.append(bytes(row))
        action = tuple(action)
        action, plan = plans.get(action) or plans.setdefault(action, self._plan(state, action))
        if plan is None or plan[2] is not None and key[plan[2]] != action[4 + 2 * plan[0]]:
            self._cache[key] = action   # a single step (a bulk step's arg is its view)
            return action
        j, code, _, views, states, adds, picks, push = plan
        seen, pick = views(key), picks(key)
        context = (*states, *(seen if type(seen) is tuple else (seen,)), *adds)
        bulk = self._sweeps.get(context)
        if bulk is None:
            bulk = self._sweeps[context] = _Bulk(code, adds[-1] is True)   # (a tape's stays)
        if code == _POPLEFT:   # a pass's drop: its first, where it cannot fault
            bulk.drop = bulk.drop or action
            if action is bulk.drop and not (action[1] and key[1] == NO_SYMBOL):
                bulk[pick] = None
                bulk.match = _pass_match(bulk, bulk.keeps)
            self._cache[key] = action
            return action
        if code == _SWEEP_R or code == _SWEEP_L:   # its keys keep their actions
            cell = action[4 + 2 * j] or key[2 + j]
            bulk[pick] = None if bulk.stays else (cell, action[6 + 2 * j]) if push else cell
            action = self._cache[key] = (*action[:3 + 2 * j], code, *action[4 + 2 * j:])
            self._walks[id(action)] = bulk
            return action
        if code == _HALVE:
            bulk.keeps.add(pick)
            bulk.match = _pass_match(bulk, bulk.keeps)
        else:
            bulk[pick] = None
            if code == _COPY:
                bulk.match = re.compile(f"[{re.escape(''.join(bulk))}]*").match
        if bulk.action is None:   # its keys share one action, whose arg is the record
            bulk.action = (*action[:3 + 2 * j], code, bulk, *action[5 + 2 * j:])
        action = self._cache[key] = bulk.action
        return action

    def _index(self, state: str) -> None:
        """The state's rules per wildcard mask, the most specific first (an
        ``itemgetter`` of the views it names and a dict from them to the
        first rule of that pattern), its plans and the slots its rules name."""
        by_mask: dict[tuple[bool, ...], list] = {}
        for rule in self.rules_by_state.get(state, ()):
            pattern = (state, rule.input_pat, *rule.storage_pats)
            by_mask.setdefault(tuple(map(WILDCARD.__ne__, pattern)), []).append((pattern, rule))
        masks = []
        for mask in sorted(by_mask, reverse=True):
            named = [i for i in compress(count(), mask) if i] or [slice(0, 0)]   # none: ()
            views, (patterns, rules) = itemgetter(*named), zip(*reversed(by_mask[mask]))
            masks.append((views, dict(zip(map(views, patterns), rules))))   # the first wins
        self._by_pattern[state] = masks, {}, {*compress(count(), map(any, zip(*by_mask)))}

    def _plan(self, state: str, action: tuple) -> tuple:
        """An action as the state's keys take it (one object for equal ones;
        a serving round's last step with code ``_CYCLE``) and its bulk plan."""
        cycle = self._tags.get(state)
        if cycle is not None and action[0] == cycle.states[0] and action[t := 3 + 2 * cycle.touch[
                -1]] == (_POPLEFT_APPEND if cycle.tape is None else _RIGHT):
            action = (*action[:t], _CYCLE, *action[t + 1:])
            action = self._actions.setdefault(action, action)
            self._walks[id(action)] = cycle
            return action, None
        plan = action[2] is None and _bulk(action, state, self._layout, self._by_pattern[state][2])
        return self._actions.setdefault(action, action), plan or None

    # -- running -----------------------------------------------------------

    def run(self, word: str, max_steps: int | None = None,
            trace: bool = False, watch_lengths: bool = False) -> RunResult:
        if trace or watch_lengths:
            return _run_loop(self._layout, self.spec.acceptance, bool(watch_lengths),
                             bool(trace))(self, word, max_steps)
        return self._run(self, word, max_steps)


@lru_cache(maxsize=128)
def executor_for(spec: MachineSpec) -> Executor:
    return Executor(spec)


def step(spec: MachineSpec, cfg: Configuration) -> StepRecord | None:
    """Apply one step in place; returns ``None`` when the machine halts."""
    ex = executor_for(spec)
    pos, emitted = cfg.input_pos, len(cfg.output)
    res = _run_loop(ex._layout, spec.acceptance, resume=True)(ex, cfg, cfg.steps + 1)
    if res.fault is not None:
        raise ExecutionFault(res.fault)
    if res.halt_reason == "no_rule":
        return None
    return StepRecord(cfg.steps, cfg.state, cfg.input_pos > pos, cfg.storage_lengths(),
                      cfg.output[-1] if len(cfg.output) > emitted else None)


def run(spec: MachineSpec, word: str, max_steps: int | None = None,
        trace: bool = False, watch_lengths: bool = False) -> RunResult:
    """Run a validated machine to halt, step limit or fault."""
    return executor_for(spec).run(word, max_steps=max_steps, trace=trace,
                                  watch_lengths=watch_lengths)


# --------------------------------------------------------------------------
# Trace checks


def check_realtime(trace: Trace) -> bool:
    """True iff every step consumed exactly one input symbol."""
    return 0 not in trace.consumed


def check_bounded_delay(trace: Trace, region: tuple[int, int], d: int) -> bool:
    """True iff within ``region`` (1-based step range, inclusive) at most
    ``d`` consecutive steps occur without input consumption."""
    delay = minimal_delay(trace, region)   # checks the region first
    if d < 0:
        raise ValueError("d must be non-negative")
    return delay <= d


def minimal_delay(trace: Trace, region: tuple[int, int]) -> int:
    """Smallest d for which :func:`check_bounded_delay` holds on the region."""
    start, end = region
    if not (1 <= start <= end <= len(trace)):
        raise ValueError(f"region {region} outside trace of {len(trace)} steps")
    return max((m.end() - m.start() for m in _SILENT.finditer(trace.consumed, start - 1, end)),
               default=0)


def storage_length_series(trace: Trace, storage: str) -> list[tuple[int, int]]:
    """Length of one storage after each step, as (step, length) pairs."""
    return list(enumerate(trace.lengths_of(storage), 1))

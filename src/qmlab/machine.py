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

from collections import deque
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import lru_cache

WILDCARD = "*"
# Pattern token and observation value for "no input symbol": end of input in
# online mode, and every step of a post-mode machine (which has no input tape).
NO_SYMBOL = "-"
# Observation value for an empty queue or pushdown.  Reserved: it may not be
# used as a storage symbol.
EMPTY = "empty"
BLANK = "_"

# Characters that would collide with the machine file format or the reserved
# observation tokens; alphabets must avoid them.
FORBIDDEN_SYMBOLS = frozenset("*-_|, \t\n")


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


@dataclass(frozen=True, slots=True)
class QueueOp:
    """Action on a queue or pushdown: optionally pop, optionally push."""
    pop: bool = False
    push: str | None = None


@dataclass(frozen=True, slots=True)
class TapeOp:
    """Action on a tape: optionally write the full cell vector, then move."""
    write: str | None = None
    move: str = "S"  # L, S or R


NO_OP = QueueOp()
TAPE_STAY = TapeOp()


@dataclass(frozen=True, slots=True)
class Rule:
    state: str
    input_pat: str                       # symbol, NO_SYMBOL or WILDCARD
    storage_pats: tuple[str, ...]        # per storage: view value or WILDCARD
    next_state: str
    consume: bool = False
    ops: tuple[QueueOp | TapeOp, ...] = ()
    emit: str | None = None

    def specificity(self) -> tuple[int, ...]:
        pats = (self.input_pat,) + self.storage_pats
        return tuple(0 if p == WILDCARD else 1 for p in pats)

    def matches(self, input_view: str, views: tuple[str, ...]) -> bool:
        if self.input_pat != WILDCARD and self.input_pat != input_view:
            return False
        for pat, view in zip(self.storage_pats, views):
            if pat != WILDCARD and pat != view:
                return False
        return True

    def pattern_key(self) -> tuple:
        return (self.state, self.input_pat) + self.storage_pats


@dataclass(frozen=True, slots=True)
class StorageSpec:
    ident: str
    kind: Kind
    alphabet: frozenset[str]
    tracks: int = 1

    def __post_init__(self):
        if self.kind is not Kind.TAPE and self.tracks != 1:
            raise ValueError(f"storage {self.ident!r}: tracks={self.tracks} "
                             f"is only allowed for tapes")
        if self.tracks < 1:
            raise ValueError(f"storage {self.ident!r}: tracks must be >= 1")
        bad = set(self.alphabet) & FORBIDDEN_SYMBOLS
        if bad or any(len(s) != 1 for s in self.alphabet):
            raise ValueError(f"storage {self.ident!r}: alphabet must be "
                             f"single characters outside {sorted(FORBIDDEN_SYMBOLS)}")

    @property
    def blank_cell(self) -> str:
        return BLANK * self.tracks


@dataclass(frozen=True, slots=True)
class MachineSpec:
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
    # hash(self), computed on first use: hashing a large rule table costs
    # hundreds of microseconds, and run() looks its executor up by spec.
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(tuple(
                getattr(self, f.name) for f in fields(self) if f.compare)))
        return self._hash

    def __reduce__(self):
        # Rebuild through the constructor so the cached hash is not pickled:
        # str hashes differ between processes (PYTHONHASHSEED).
        return (MachineSpec, tuple(getattr(self, f.name) for f in fields(self) if f.init))


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _view_ok(storage: StorageSpec, pat: str) -> bool:
    if pat == WILDCARD:
        return True
    if storage.kind is Kind.TAPE:
        return (len(pat) == storage.tracks
                and all(c == BLANK or c in storage.alphabet for c in pat))
    return pat == EMPTY or pat in storage.alphabet


def _op_ok(storage: StorageSpec, op: QueueOp | TapeOp) -> str | None:
    if storage.kind is Kind.TAPE:
        if not isinstance(op, TapeOp):
            return "tape storage needs a tape action"
        if op.move not in ("L", "S", "R"):
            return f"bad tape move {op.move!r}"
        if op.write is not None and not (
                len(op.write) == storage.tracks
                and all(c == BLANK or c in storage.alphabet for c in op.write)):
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
    idents = [s.ident for s in spec.storages]
    if len(set(idents)) != len(idents):
        v("duplicate storage identifiers")
    if spec.acceptance is Acceptance.FINAL_STATES and not spec.finals <= states:
        v("final states not all declared")
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
    __slots__ = ("cells", "head", "nonblank", "blank")

    def __init__(self, blank: str):
        self.blank = blank
        self.cells = [blank]
        self.head = 0
        self.nonblank = 0


@dataclass
class Configuration:
    """A full instantaneous description of a run.

    ``stores`` holds the live storage objects (deque for a queue, list for a
    pushdown bottom-to-top, ``_Tape`` for a tape); they are mutated in place
    by :func:`step`.
    """
    input: str
    state: str
    input_pos: int
    stores: list
    output: list[str]
    steps: int

    def storage_contents(self, index: int):
        s = self.stores[index]
        if isinstance(s, _Tape):
            return tuple(s.cells), s.head
        return tuple(s)

    def storage_lengths(self) -> tuple[int, ...]:
        return tuple(s.nonblank if isinstance(s, _Tape) else len(s)
                     for s in self.stores)


@dataclass(frozen=True, slots=True)
class StepRecord:
    step: int
    state: str            # state after the step
    consumed: bool
    lengths: tuple[int, ...]   # per-storage length after the step
    emit: str | None


@dataclass
class Trace:
    storage_ids: tuple[str, ...]
    records: list[StepRecord] = field(default_factory=list)
    verdict: Verdict | None = None
    halt_reason: str | None = None    # no_rule, step_limit or fault

    @property
    def steps(self) -> int:
        return len(self.records)

    @property
    def input_consumed(self) -> int:
        return sum(1 for r in self.records if r.consumed)

    @property
    def output_length(self) -> int:
        return sum(1 for r in self.records if r.emit is not None)

    def to_lines(self) -> list[str]:
        """Render the trace in its file format, one record per line."""
        header = "step,state,consumed," + ",".join(
            f"len({i})" for i in self.storage_ids) + ",emit"
        lines = [header]
        for r in self.records:
            lens = ",".join(str(n) for n in r.lengths)
            lines.append(f"{r.step},{r.state},{'y' if r.consumed else 'n'},"
                         f"{lens},{r.emit or ''}")
        return lines


@dataclass
class RunResult:
    verdict: Verdict
    output: str
    steps: int
    input_consumed: int
    trace: Trace | None = None
    fault: str | None = None
    max_lengths: tuple[int, ...] | None = None   # per-storage peak, if watched

    @property
    def accepted(self) -> bool:
        return self.verdict is Verdict.ACCEPT


def default_step_limit(input_len: int) -> int:
    """Generous default: every machine in this package is at most quadratic."""
    return 64 * (input_len + 1) ** 2


def _view(store) -> str:
    """What a rule observes of one live storage."""
    if isinstance(store, _Tape):
        return store.cells[store.head]
    if not store:
        return EMPTY
    return store[0] if isinstance(store, deque) else store[-1]


# Storage effects of a compiled action, one tuple
# ``(storage index, code, arg, length delta, fault text)`` per storage that
# the action changes.  The compiler knows every storage's view, so it settles
# statically whether a pop faults, how a tape write changes the nonblank
# count, and, where it can, the view after the action.
_APPEND_SET = 0       # push onto an empty queue or onto a pushdown; view := arg
_APPEND = 1           # push onto a non-empty queue; view unchanged
_POPLEFT = 2          # queue pop
_POPLEFT_APPEND = 3   # queue pop, then push
_POP = 4              # pushdown pop
_SET_TOP = 5          # pushdown pop, then push: replace the top; view := arg
_WRITE = 6            # tape write, head stays; view := arg
_RIGHT = 7            # tape: write arg unless None, then move right
_LEFT = 8             # tape: write arg unless None, then move left (faults at cell 0)
_FAULT = 9            # pop on an empty queue or pushdown


def _effect(j: int, storage: StorageSpec, view: str, op: QueueOp | TapeOp) -> tuple | None:
    """Compile ``op`` on storage ``j`` whose current view is ``view``;
    ``None`` when the op leaves the storage as it is."""
    if storage.kind is Kind.TAPE:
        write = op.write if op.write != view else None
        blank = storage.blank_cell
        delta = 0 if write is None else (write != blank) - (view != blank)
        if op.move == "R":
            return (j, _RIGHT, write, delta, None)
        if op.move == "L":
            return (j, _LEFT, write, delta,
                    f"tape head moved off the left end of {storage.ident!r}")
        return None if write is None else (j, _WRITE, write, delta, None)
    queue = storage.kind is Kind.QUEUE
    if op.pop:
        if view == EMPTY:
            return (j, _FAULT, None, 0,
                    f"pop on empty {storage.kind.value} {storage.ident!r}")
        if op.push is None:
            return (j, _POPLEFT if queue else _POP, None, -1, None)
        if queue:
            return (j, _POPLEFT_APPEND, op.push, 0, None)
        return None if op.push == view else (j, _SET_TOP, op.push, 0, None)
    if op.push is None:
        return None
    return (j, _APPEND if queue and view != EMPTY else _APPEND_SET, op.push, 1, None)


class Executor:
    """Compiled form of a machine: per-state rule lists ordered by
    specificity plus a cache from concrete observations to compiled actions.

    The cache key is ``(state, input view, *storage views)``.  The first time
    a key is looked up it is compiled to ``None`` (no rule applies) or to
    ``(next_state, consume, emit, effects)``, where ``effects`` holds only the
    storages the rule changes (see :func:`_effect`).  A :class:`MachineSpec`
    is immutable, so one executor can serve any number of runs; each run's
    state lives in its own :class:`Configuration`.
    """

    def __init__(self, spec: MachineSpec):
        self.spec = spec
        self.rules_by_state: dict[str, list[Rule]] = {}
        for rule in spec.rules:
            self.rules_by_state.setdefault(rule.state, []).append(rule)
        for rules in self.rules_by_state.values():
            rules.sort(key=Rule.specificity, reverse=True)
        self._cache: dict[tuple, tuple | None] = {}
        self._post = spec.mode is Mode.POST

    # -- configuration -----------------------------------------------------

    def initial(self, word: str) -> Configuration:
        alpha = self.spec.input_alphabet
        if not alpha.issuperset(word):
            for i, ch in enumerate(word):
                if ch not in alpha:
                    raise InputSymbolError(ch, i)
        stores: list = []
        for j, st in enumerate(self.spec.storages):
            if st.kind is Kind.QUEUE:
                stores.append(deque(word) if (self._post and j == 0) else deque())
            elif st.kind is Kind.PUSHDOWN:
                stores.append([])
            else:
                stores.append(_Tape(st.blank_cell))
        return Configuration(input=word, state=self.spec.start, input_pos=0,
                             stores=stores, output=[], steps=0)

    # -- stepping ----------------------------------------------------------

    def _compile(self, key: tuple) -> tuple | None:
        state, input_view, *views = key
        action = None
        for rule in self.rules_by_state.get(state, ()):
            if rule.matches(input_view, views):   # presorted: first match wins
                effects = []
                for j, (st, view, op) in enumerate(zip(self.spec.storages, views, rule.ops)):
                    eff = _effect(j, st, view, op)
                    if eff is not None:
                        effects.append(eff)
                action = (rule.next_state, rule.consume, rule.emit, tuple(effects))
                break
        self._cache[key] = action
        return action

    def _steps(self, cfg: Configuration, limit: int, records: list | None,
               maxes: list | None) -> bool:
        """Step ``cfg`` in place until no rule applies (returns True) or
        ``cfg.steps`` reaches ``limit`` (False).  Appends a
        :class:`StepRecord` per step to ``records`` and raises peak lengths
        in ``maxes`` unless they are ``None``.  On :class:`ExecutionFault`
        ``cfg`` keeps what the faulting step did before the fault (input
        consumed, earlier storages changed) but not its new state or its
        step."""
        cache, compile_ = self._cache, self._compile
        stores, word = cfg.stores, cfg.input
        n = len(word)
        # The input view at position pos; pos never passes n.
        padded = NO_SYMBOL * (n + 1) if self._post else word + NO_SYMBOL
        views = [_view(s) for s in stores]
        observe = records is not None or maxes is not None
        lengths = list(cfg.storage_lengths()) if observe else None
        emit_ = cfg.output.append
        state, pos, steps = cfg.state, cfg.input_pos, cfg.steps
        try:
            while steps < limit:
                try:
                    action = cache[(state, padded[pos], *views)]
                except KeyError:
                    action = compile_((state, padded[pos], *views))
                if action is None:
                    return True
                next_state, consume, emit, effects = action
                if consume:
                    if pos >= n:
                        raise ExecutionFault("input consumed past end of word")
                    pos += 1
                for j, code, arg, delta, fault in effects:
                    s = stores[j]
                    if code == _APPEND_SET:
                        s.append(arg)
                        views[j] = arg
                    elif code == _POPLEFT:
                        s.popleft()
                        views[j] = s[0] if s else EMPTY
                    elif code == _APPEND:
                        s.append(arg)
                    elif code == _POP:
                        s.pop()
                        views[j] = s[-1] if s else EMPTY
                    elif code == _SET_TOP:
                        s[-1] = arg
                        views[j] = arg
                    elif code == _POPLEFT_APPEND:
                        s.popleft()
                        s.append(arg)
                        views[j] = s[0]
                    elif code == _WRITE:
                        s.cells[s.head] = arg
                        s.nonblank += delta
                        views[j] = arg
                    elif code == _RIGHT:
                        cells = s.cells
                        if arg is not None:
                            cells[s.head] = arg
                            s.nonblank += delta
                        head = s.head = s.head + 1
                        if head == len(cells):
                            cells.append(s.blank)
                        views[j] = cells[head]
                    elif code == _LEFT:
                        if arg is not None:
                            s.cells[s.head] = arg
                            s.nonblank += delta
                        if s.head == 0:
                            raise ExecutionFault(fault)
                        head = s.head = s.head - 1
                        views[j] = s.cells[head]
                    else:
                        raise ExecutionFault(fault)
                if emit is not None:
                    emit_(emit)
                state = next_state
                steps += 1
                if observe:
                    for j, _, _, delta, _ in effects:
                        if delta:
                            m = lengths[j] = lengths[j] + delta
                            if maxes is not None and m > maxes[j]:
                                maxes[j] = m
                    if records is not None:
                        records.append(StepRecord(steps, state, consume, tuple(lengths), emit))
            return False
        finally:
            cfg.state, cfg.input_pos, cfg.steps = state, pos, steps

    # -- running -----------------------------------------------------------

    def _verdict_on_halt(self, cfg: Configuration) -> Verdict:
        spec = self.spec
        if not cfg.input and not spec.epsilon_accept:
            return Verdict.REJECT
        consumed_all = self._post or cfg.input_pos == len(cfg.input)
        if spec.acceptance is Acceptance.EMPTY_STORAGES:
            empty = all(n == 0 for n in cfg.storage_lengths())
            return Verdict.ACCEPT if (empty and consumed_all) else Verdict.REJECT
        if spec.acceptance is Acceptance.FINAL_STATES:
            return Verdict.ACCEPT if (consumed_all and cfg.state in spec.finals) \
                else Verdict.REJECT
        # OUTPUT_BIT: the verdict is the last emitted symbol.
        return Verdict.ACCEPT if (cfg.output and cfg.output[-1] == "1") \
            else Verdict.REJECT

    def run(self, word: str, max_steps: int | None = None,
            trace: bool = False, watch_lengths: bool = False) -> RunResult:
        cfg = self.initial(word)
        limit = default_step_limit(len(word)) if max_steps is None else max_steps
        tr = Trace(tuple(s.ident for s in self.spec.storages)) if trace else None
        maxes = list(cfg.storage_lengths()) if watch_lengths else None
        verdict, reason, fault = Verdict.STEP_LIMIT, "step_limit", None
        try:
            if self._steps(cfg, limit, tr.records if tr is not None else None, maxes):
                verdict, reason = self._verdict_on_halt(cfg), "no_rule"
        except ExecutionFault as exc:
            fault = str(exc)
            verdict, reason = Verdict.FAULT, "fault"
        if tr is not None:
            tr.verdict = verdict
            tr.halt_reason = reason
        return RunResult(verdict=verdict, output="".join(cfg.output),
                         steps=cfg.steps, input_consumed=cfg.input_pos,
                         trace=tr, fault=fault,
                         max_lengths=tuple(maxes) if maxes is not None else None)


@lru_cache(maxsize=128)
def executor_for(spec: MachineSpec) -> Executor:
    return Executor(spec)


def initial_configuration(spec: MachineSpec, word: str) -> Configuration:
    """Start-of-run configuration; in post mode, storage 0 holds the input."""
    return executor_for(spec).initial(word)


def step(spec: MachineSpec, cfg: Configuration) -> StepRecord | None:
    """Apply one step in place; returns ``None`` when the machine halts."""
    records: list[StepRecord] = []
    return None if executor_for(spec)._steps(cfg, cfg.steps + 1, records, None) else records[0]


def run(spec: MachineSpec, word: str, max_steps: int | None = None,
        trace: bool = False, watch_lengths: bool = False) -> RunResult:
    """Run a validated machine to halt, step limit or fault."""
    return executor_for(spec).run(word, max_steps=max_steps, trace=trace,
                                  watch_lengths=watch_lengths)


# --------------------------------------------------------------------------
# Trace checks


def check_realtime(trace: Trace) -> bool:
    """True iff every step consumed exactly one input symbol."""
    return all(r.consumed for r in trace.records)


def check_bounded_delay(trace: Trace, region: tuple[int, int], d: int) -> bool:
    """True iff within ``region`` (1-based step range, inclusive) at most
    ``d`` consecutive steps occur without input consumption."""
    start, end = region
    if not (1 <= start <= end <= len(trace.records)):
        raise ValueError(f"region {region} outside trace of {len(trace.records)} steps")
    if d < 0:
        raise ValueError("d must be non-negative")
    return minimal_delay(trace, region) <= d


def minimal_delay(trace: Trace, region: tuple[int, int]) -> int:
    """Smallest d for which :func:`check_bounded_delay` holds on the region."""
    start, end = region
    if not (1 <= start <= end <= len(trace.records)):
        raise ValueError(f"region {region} outside trace of {len(trace.records)} steps")
    worst = streak = 0
    for rec in trace.records[start - 1:end]:
        streak = 0 if rec.consumed else streak + 1
        worst = max(worst, streak)
    return worst


def storage_length_series(trace: Trace, storage: str) -> list[tuple[int, int]]:
    """Length of one storage after each step, as (step, length) pairs."""
    try:
        idx = trace.storage_ids.index(storage)
    except ValueError:
        raise ValueError(f"unknown storage {storage!r}; trace covers "
                         f"{trace.storage_ids}") from None
    return [(r.step, r.lengths[idx]) for r in trace.records]

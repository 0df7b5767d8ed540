"""Spans and counts recorded around qmlab's public functions, from outside.

``install`` replaces each wrapped function wherever qmlab binds it: in its
home module and in every qmlab module that imported it by name (``analysis``
and ``cli`` do ``from .oracles import in_lprime``), so a call is recorded
whichever name it goes through.  Two methods are wrapped on their class.
The package source is never edited; ``uninstall`` puts the originals back.

A span is (name, start, end, parent, request, label).  Spans live in flat
arrays while the traced run lasts and are written out at its end.  The
request id advances whenever a word-level call (``Executor.run``, ``run``,
``growth_point``, ``lprime_timing``) opens with no other word-level call
open; oracle and generator calls carry the id of the latest such call.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import NamedTuple

import qmlab
from qmlab import analysis, cli, machine, machines, oracles, specfile

MODULES = {"machine": machine, "machines": machines, "oracles": oracles,
           "specfile": specfile, "analysis": analysis, "cli": cli}

WRAPPED_FUNCTIONS = {
    "machine": ("run", "validate_spec", "check_realtime", "check_bounded_delay",
                "minimal_delay", "storage_length_series"),
    "machines": ("builtin",),
    "oracles": ("in_lprime", "reference_fk", "gen_lprime", "gen_lk",
                "mutate_negative", "read_batch", "write_batch"),
    "specfile": ("load", "dump"),
    "analysis": ("parallel_map", "lprime_exhaustive_scan", "lprime_structured_suite",
                 "lprime_timing", "growth_series", "growth_point", "sized_fk_instance"),
    "cli": ("main",),
}
REQUEST_ROOTS = frozenset(("machine.Executor.run", "machine.run",
                           "analysis.growth_point", "analysis.lprime_timing"))


class RunRecord(NamedTuple):
    """One ``Executor.run`` call and what it returned."""
    executor: object
    word: str
    max_steps: int | None
    verdict: str
    steps: int
    output: str
    max_lengths: tuple[int, ...] | None
    trace_records: int


class Tracer:
    """In-memory span store plus one summary per ``Executor.run`` call."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("i")
        self.label = array("i")
        self._stack: list[int] = []
        self._roots_open = 0
        self._requests = 0
        self.runs: list[RunRecord] = []   # in call order

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int, root: bool, label: int) -> int:
        if root:
            if not self._roots_open:
                self._requests += 1
            self._roots_open += 1
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._requests)
        self.label.append(label)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int, root: bool) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()
        if root:
            self._roots_open -= 1

    def aggregate(self) -> dict[tuple[str, str | None], list[int]]:
        """(span name, label) -> [calls, total ns, self ns]; self time is a
        span's duration minus the durations of its direct children."""
        n = len(self.name)
        child = [0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out: dict[tuple[str, str | None], list[int]] = {}
        names = self.names
        for i in range(n):
            lab = self.label[i]
            key = (names[self.name[i]], names[lab] if lab >= 0 else None)
            d = end[i] - start[i]
            acc = out.setdefault(key, [0, 0, 0])
            acc[0] += 1
            acc[1] += d
            acc[2] += d - child[i]
        return out

    def write_spans(self, path) -> None:
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,label,start_ns,end_ns,parent,request\n")
            for i in range(len(self.name)):
                lab = self.label[i]
                fh.write(f"{i},{names[self.name[i]]},{names[lab] if lab >= 0 else ''},"
                         f"{self.start[i]},{self.end[i]},{self.parent[i]},"
                         f"{self.request[i]}\n")


def _wrap(tracer: Tracer, fn, name: str, label_of=None):
    nid = tracer.intern(name)
    root = name in REQUEST_ROOTS

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        label = tracer.intern(label_of(args)) if label_of is not None else -1
        i = tracer.open(nid, root, label)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i, root)
    return traced


def _wrap_executor_run(tracer: Tracer, fn):
    nid = tracer.intern("machine.Executor.run")

    @functools.wraps(fn)
    def traced(self, word, max_steps=None, trace=False, watch_lengths=False):
        i = tracer.open(nid, True, tracer.intern(self.spec.name))
        try:
            res = fn(self, word, max_steps=max_steps, trace=trace,
                     watch_lengths=watch_lengths)
        finally:
            tracer.close(i, True)
        tracer.runs.append(RunRecord(
            self, word, max_steps, res.verdict.value, res.steps, res.output,
            res.max_lengths, len(res.trace.records) if res.trace is not None else 0))
        return res
    return traced


def install(tracer: Tracer) -> list:
    """Wrap every listed function and method; returns what ``uninstall`` needs."""
    replacements = {}
    for mod_name, fn_names in WRAPPED_FUNCTIONS.items():
        mod = MODULES[mod_name]
        for fn_name in fn_names:
            fn = getattr(mod, fn_name, None)
            if fn is None:   # a function qmlab no longer has gives no spans
                continue
            label_of = (lambda args: args[0].name) if fn is machine.run else None
            replacements[id(fn)] = (fn, _wrap(tracer, fn, f"{mod_name}.{fn_name}", label_of))
    undo = []
    for mod in (qmlab, *MODULES.values()):
        for attr, value in list(vars(mod).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                undo.append((mod, attr, value))
                setattr(mod, attr, hit[1])
    for cls, attr, wrapper in (
            (machine.Executor, "run", _wrap_executor_run(tracer, machine.Executor.run)),
            (machine.Trace, "to_lines",
             _wrap(tracer, machine.Trace.to_lines, "machine.Trace.to_lines"))):
        undo.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, wrapper)
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)

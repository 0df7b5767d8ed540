#!/usr/bin/env python3
"""Per-step cost of plain, watched and traced runs, the cost of a short run,
of writing a trace file, of the cycle-schedule trace checks and of drawing
seeded bits.

    python3 tools/step_cost.py > costs.txt

For each machine, one seeded word (the kind ``analysis.growth_point`` runs)
is run on one executor in three ways: plain, with ``watch_lengths=True`` and
with ``trace=True``.  A traced run is timed together with reading its
``consumed`` column and the lengths of every storage (``lengths_of``, a
running sum of the storage's changes), as the trace checks do, since a trace
builds its columns when they are first read.
After one untimed warm-up run of each, the three are timed in that order,
``REPEAT`` times over; a mode's figure is its fastest repeat divided by the
run's steps, in ns/step.  ``short_run_us`` is the fastest of ``REPEAT``
batches of ``SHORT_BATCH`` plain lprime runs on each of ``SHORT_WORDS``, in
µs per run; ``short_run_over_plain_step`` divides the ``ab0c0`` figure by
lprime's plain ns/step, both taken in this process, so that most of a
drift of the host's speed between processes cancels.  ``cold_over_warm``
measures the compile layer: a fresh tk:3 executor's first pass over the
``COLD_WORDS`` words of ``gen_fk_cases(COLD_WORDS, SEED, 3)``, which
compiles each observation on its first look-up, divided by its second pass,
which finds them all cached; each pass is the fastest of ``REPEAT`` fresh
executors', all in this process.  ``warm_fk_us`` is that warm pass in µs per
run: batch-like words, whose tape sweeps are a few steps long.
``compile_us`` is the compile layer's cost per key: fresh tk:3, mk:3 and
lprime executors make a cold pass over the batch workload's kind of words
(tk:3 and mk:3 over ``gen_fk_cases(COLD_WORDS, SEED)``, lprime over
``gen_lprime_cases(COLD_LPRIME, SEED, k_max=4)``) and then a warm one; the
fastest cold pass of ``REPEAT`` less the fastest warm one, over the keys a
pass compiles, in µs.  ``compose_us``, ``cold_growth_over_warm`` and
``compose_rereads`` measure a cold growth pass: ``analysis.growth_series`` over
``GROWTH_EXPONENTS`` for mk:3 and tk:3, on fresh executors (``executor_for``'s
cache emptied first, as a fresh process has it) and again on the warm ones.
``compose_us`` is the time inside ``qmlab.macro.compose`` over the entries it
composes, in µs, in the fastest of ``REPEAT`` cold series;
``cold_growth_over_warm`` is the fastest cold series over the fastest warm
one; ``compose_rereads`` is how many more windows ``serve`` reads (runs of
its ``map(cycle.get, ...)`` line, counted by a line tracer) in the cold
series than in the warm one, and ``compose_serve_calls`` its ``serve``
calls in the cold series; both are counts, whatever the host.  ``step_us``
is the cost of one ``step`` call, in µs: the fastest of ``REPEAT`` passes
that step a configuration of ``gen_lprime(6, SEED)`` from its start to its
halt (255 steps), over the steps.  ``trace_file_ns_per_step`` is the fastest of ``REPEAT`` traced
tk:3 runs on its word, each written through ``Trace.write`` into an
``io.StringIO``, over the run's steps.  ``timing_checks_us`` is the fastest
of ``REPEAT`` passes of ``analysis.lprime_timing``'s checks (the cycle
starts, the queue length before each and the prefix's delay) on a held
traced run of ``gen_lprime(12, SEED)``, each on a fresh ``Trace`` of its
actions, so that the columns the checks read are built in the time.
``halving_share`` is the share of a plain run of ``gen_lprime(12, SEED)``'s
halving-pass steps (its ``compare`` and ``rotate`` steps, counted in a traced
run of the word) that ``machine._halve`` takes in bulk, on a warm executor.
``serving_share`` is the smaller, over mk:3 and tk:3 on their words, of
the share of a plain run's serving-round steps (its steps along the serving
cycle, counted in a traced run of the word) that ``machine._serve`` takes
in bulk, on a warm executor; ``serving_ns_per_step`` is, per machine, the
time spent in ``_serve`` over the steps it took, in the fastest of
``REPEAT`` plain runs.
``trace_entries`` holds, for the lprime, tk:3 and anbn:quadratic words, a
traced run's entries (its slots: one per step taken singly, one per bulk
call) and its steps; the counts are deterministic.
``bits`` is the fastest
``SplitMix64(seed).bits(n)`` call, in µs per 1,000 bits, for each ``n``.
``import_ms`` is the start-up cost of the command line: the fastest of
``REPEAT`` fresh ``python3 -c "import qmlab.cli"`` processes, with bytecode
writing off (``PYTHONDONTWRITEBYTECODE=1``) as in the benchmark runs, minus
the fastest of ``REPEAT`` ``python3 -c pass``, in ms; ``start_modules`` lists
which of ``LAZY_MODULES`` that import loads (none: only the commands that use
them import them).  ``run_result_us`` is the cost of building one
``RunResult``, the fastest of ``REPEAT`` batches of ``SHORT_BATCH``, in µs.
The program is imported from ``src/`` next to this directory.  The last line
printed is one JSON object.  Standard library only.
"""

from __future__ import annotations

import argparse
import inspect
import io
import json
import os
import platform
import subprocess
import sys
import time
import timeit
from itertools import cycle, islice

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from qmlab import machine  # noqa: E402
from qmlab.analysis import growth_series, lprime_cycle_starts, sized_fk_instance  # noqa: E402
from qmlab.machine import (Executor, RunResult, Trace, Verdict, executor_for,  # noqa: E402
                           minimal_delay, step)
from qmlab.machines import builtin  # noqa: E402
from qmlab.oracles import SplitMix64, gen_fk_cases, gen_lprime, gen_lprime_cases  # noqa: E402

SEED = 1
BIT_COUNTS = (64, 1024, 8192)
REPEAT = 7
SHORT_WORDS = ("a", "ab0c0", "ab0c0ab")   # 1, 5 and 14 steps
SHORT_BATCH = 2000
COLD_WORDS = 600   # as many fk words as the batch workload replays
COLD_LPRIME = 1500   # and as many lprime words as it verifies
GROWTH_EXPONENTS = range(8, 14)   # the growth workload's mk:3 and tk:3 series
LAZY_MODULES = ("multiprocessing", "dataclasses", "inspect")


def words() -> dict[str, str]:
    """The word each machine runs: about 2**13 symbols, 2**9 for anbn:quadratic."""
    return {"lprime": gen_lprime(12, SEED).render(),
            "mk:3": sized_fk_instance(3, 1 << 13, SEED).render(),
            "mk:64": sized_fk_instance(64, 1 << 13, SEED).render(),
            "tk:3": sized_fk_instance(3, 1 << 13, SEED).render(),
            "anbn:quadratic": "a" * 256 + "b" * 256}


def best(fn, repeat: int) -> float:
    """The fastest of ``repeat`` calls of ``fn``, in seconds."""
    times = []
    for _ in range(repeat):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return min(times)


def read_trace(res) -> None:
    """Read the columns that the trace checks read."""
    trace = res.trace
    trace.consumed
    for storage in trace.storage_ids:
        trace.lengths_of(storage)


def run_costs(repeat: int) -> dict:
    out = {}
    for name, word in words().items():
        ex = Executor(builtin(name))
        modes = {"plain": lambda: ex.run(word),
                 "watched": lambda: ex.run(word, watch_lengths=True),
                 "traced": lambda: read_trace(ex.run(word, trace=True))}
        steps = ex.run(word).steps
        for run in modes.values():
            run()
        times = {mode: [] for mode in modes}
        for _ in range(repeat):   # the modes interleaved, so drift hits each alike
            for mode, run in modes.items():
                t = time.perf_counter()
                run()
                times[mode].append(time.perf_counter() - t)
        ns = {mode: 1e9 * min(t) / steps for mode, t in times.items()}
        out[name] = {"symbols": len(word), "steps": steps,
                     **{f"{mode}_ns_per_step": round(v, 1) for mode, v in ns.items()},
                     "watched_over_plain": round(ns["watched"] / ns["plain"], 3),
                     "traced_over_plain": round(ns["traced"] / ns["plain"], 3)}
    return out


def short_run_costs(repeat: int) -> dict:
    """µs per plain lprime run on each short word: a run's fixed cost."""
    run_word = Executor(builtin("lprime")).run
    out = {}
    for word in SHORT_WORDS:
        run_word(word)
        batch = timeit.Timer("run_word(word)", globals={"run_word": run_word, "word": word})
        out[word] = round(1e6 * min(batch.repeat(repeat, SHORT_BATCH)) / SHORT_BATCH, 3)
    return out


def cold_and_warm(runs: list[tuple[str, list[str]]], repeat: int) -> tuple[float, float, int]:
    """The fastest first and second passes of fresh executors, one per
    machine of ``runs``, over its words, in seconds, and the keys a pass
    compiles."""
    passes, keys = ([], []), 0
    for _ in range(repeat):
        run_words = [(Executor(builtin(name)).run, words) for name, words in runs]
        for times in passes:
            t = time.perf_counter()
            for run_word, words in run_words:
                for word in words:
                    run_word(word)
            times.append(time.perf_counter() - t)
        keys = sum(len(run_word.__self__._cache) for run_word, _ in run_words)
    return min(passes[0]), min(passes[1]), keys


def cold_over_warm(repeat: int) -> tuple[float, float]:
    """A fresh tk:3 executor's first pass over the fk words over its second,
    and the second in µs per run."""
    words = [case.word for case in gen_fk_cases(COLD_WORDS, SEED, 3)]
    cold, warm, _ = cold_and_warm([("tk:3", words)], repeat)
    return round(cold / warm, 3), round(1e6 * warm / len(words), 3)


def compile_us(repeat: int) -> float:
    """µs per key that a cold batch-like pass compiles, beyond a warm pass."""
    fk = [case.word for case in gen_fk_cases(COLD_WORDS, SEED)]
    lp = [case.word for case in gen_lprime_cases(COLD_LPRIME, SEED, k_max=4)]
    cold, warm, keys = cold_and_warm([("tk:3", fk), ("mk:3", fk), ("lprime", lp)], repeat)
    return round(1e6 * (cold - warm) / keys, 3)


def growth_pass(repeat: int) -> dict:
    """The mk:3 and tk:3 growth series on fresh executors and on warm ones:
    µs per composed entry, cold over warm, and the windows read."""
    from qmlab import macro
    compose, spent, entries, passes = macro.compose, [0.0], [0], ([], [])

    def timed(*args):
        t = time.perf_counter()
        entry = compose(*args)
        spent[0] += time.perf_counter() - t
        entries[0] += 1
        return entry

    def series() -> None:
        for name in ("mk:3", "tk:3"):
            growth_series(name, GROWTH_EXPONENTS)

    macro.compose = timed
    try:
        composing = []
        for _ in range(repeat):
            machine.executor_for.cache_clear()
            spent[0] = entries[0] = 0
            for times in passes:   # cold, then warm
                t = time.perf_counter()
                series()
                times.append(time.perf_counter() - t)
            composing.append(spent[0] / entries[0])
    finally:
        macro.compose = compose
    reads, calls = [], []
    lines = inspect.getsourcelines(macro.serve)
    line = lines[1] + next(i for i, text in enumerate(lines[0]) if "map(cycle.get" in text)

    def tracer(frame, event, arg):   # serve's calls, then its lines
        if frame.f_code is not macro.serve.__code__:
            return None
        calls[-1] += event == "call"
        reads[-1] += event == "line" and frame.f_lineno == line
        return tracer

    machine.executor_for.cache_clear()
    for _ in passes:   # cold, then warm
        reads.append(0)
        calls.append(0)
        sys.settrace(tracer)
        try:
            series()
        finally:
            sys.settrace(None)
    return {"compose_us": round(1e6 * min(composing), 3),
            "cold_growth_over_warm": round(min(passes[0]) / min(passes[1]), 3),
            "compose_rereads": reads[0] - reads[1], "compose_serve_calls": calls[0]}


def step_us(repeat: int) -> float:
    """µs per ``step`` call, stepping lprime over one word to its halt."""
    spec, word = builtin("lprime"), gen_lprime(6, SEED).render()
    initial = executor_for(spec).initial

    def drive() -> int:
        cfg = initial(word)
        while step(spec, cfg) is not None:
            pass
        return cfg.steps

    steps = drive()
    return round(1e6 * best(drive, repeat) / steps, 3)


def trace_file_ns_per_step(repeat: int) -> float:
    """ns per step of a traced tk:3 run written as a trace file in memory."""
    run_word, word = Executor(builtin("tk:3")).run, words()["tk:3"]

    def write() -> int:
        res = run_word(word, trace=True)
        res.trace.write(io.StringIO())
        return res.steps

    steps = write()
    return round(1e9 * best(write, repeat) / steps, 1)


def timing_checks_us(repeat: int) -> float:
    """µs for ``lprime_timing``'s checks on a held traced lprime run."""
    inst = gen_lprime(12, SEED)
    held = executor_for(builtin("lprime")).run(inst.render(), trace=True).trace

    def checks() -> None:
        trace = Trace(held.storage_ids, held.initial)
        trace.actions, trace.runs = held.actions, held.runs
        for start in lprime_cycle_starts(trace, inst.prefix_length):
            trace.length_after("q", start - 1)
        minimal_delay(trace, (1, inst.prefix_length))

    checks()
    return round(1e6 * best(checks, repeat), 1)


def step_actions(trace: Trace):
    """The trace's action of each step: a slot's own, or its run's actions
    in turn."""
    for i, action in enumerate(trace.actions):
        n, actions = trace.runs.get(i, (1, (action,)))
        yield from islice(cycle(actions), n)


def halving_share() -> float:
    """The share of a plain lprime run's compare and rotate steps that
    ``machine._halve`` takes."""
    ex, word, took = Executor(builtin("lprime")), gen_lprime(12, SEED).render(), []
    halve = machine._halve

    def count(queue, context, padded, pos, steps, limit):
        res = halve(queue, context, padded, pos, steps, limit)
        took.append(res[0] - steps)
        return res

    trace = ex.run(word, trace=True).trace
    passes = sum(a[0] in ("compare", "rotate") for a in step_actions(trace))
    machine._halve = count
    try:
        ex.run(word)
    finally:
        machine._halve = halve
    return round(sum(took) / passes, 4)


def serving_share(repeat: int) -> tuple[float, dict]:
    """The smaller share, over mk:3 and tk:3, of a plain run's serving-round
    steps that ``machine._serve`` takes, and each one's ns per step taken."""
    shares, costs, serve = [], {}, machine._serve
    for name in ("mk:3", "tk:3"):
        ex, word = Executor(builtin(name)), words()[name]
        cycle = next(iter(ex._tags.values()))
        after = dict(zip(cycle.states, cycle.states[1:] + cycle.states[:1]))
        actions = list(step_actions(ex.run(word, trace=True).trace))
        serving = sum(after.get(a[0]) == b[0] for a, b in zip(actions, actions[1:]))
        took, spent = [], []

        def count(*args):
            t = time.perf_counter()
            res = serve(*args)
            spent.append(time.perf_counter() - t)
            took.append(res[0] - args[6])
            return res

        machine._serve = count
        try:
            best_ns = []
            for _ in range(repeat):
                took.clear()
                spent.clear()
                ex.run(word)
                best_ns.append(1e9 * sum(spent) / sum(took))
        finally:
            machine._serve = serve
        shares.append(sum(took) / serving)
        costs[name] = round(min(best_ns), 1)
    return round(min(shares), 4), costs


def trace_entries() -> dict:
    """A traced run's entries and steps for three of the machines' words."""
    out = {}
    for name in ("lprime", "tk:3", "anbn:quadratic"):
        trace = Executor(builtin(name)).run(words()[name], trace=True).trace
        out[name] = {"entries": len(trace.actions), "steps": len(trace)}
    return out


def python(code: str) -> subprocess.CompletedProcess:
    """A fresh interpreter running ``code``, which imports qmlab from ``src/``
    and writes no bytecode."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)


def import_ms(repeat: int) -> float:
    """ms that ``import qmlab.cli`` adds to an interpreter's start."""
    cost = {code: best(lambda: python(code), repeat) for code in ("pass", "import qmlab.cli")}
    return round(1e3 * (cost["import qmlab.cli"] - cost["pass"]), 1)


def start_modules() -> list[str]:
    """Which of ``LAZY_MODULES`` ``import qmlab.cli`` loads."""
    code = f"import sys, qmlab.cli; print(*(m for m in {LAZY_MODULES!r} if m in sys.modules))"
    return python(code).stdout.split()


def run_result_us(repeat: int) -> float:
    """µs to build one ``RunResult``, as a run's loop builds it at the halt."""
    build = timeit.Timer('RunResult(ACCEPT, "", 1, 1, "no_rule", None, None, None)',
                         globals={"RunResult": RunResult, "ACCEPT": Verdict.ACCEPT})
    return round(1e6 * min(build.repeat(repeat, SHORT_BATCH)) / SHORT_BATCH, 3)


def bit_costs(repeat: int) -> dict:
    return {str(n): round(1e9 * best(lambda: SplitMix64(SEED).bits(n), repeat) / n, 3)
            for n in BIT_COUNTS}


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    runs = run_costs(REPEAT)
    short = short_run_costs(REPEAT)
    cold, warm = cold_over_warm(REPEAT)
    result = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
              "repeat": REPEAT, "runs": runs, "short_run_us": short,
              "short_run_over_plain_step": round(
                  1e3 * short["ab0c0"] / runs["lprime"]["plain_ns_per_step"], 2),
              "cold_over_warm": cold, "warm_fk_us": warm,
              "compile_us": compile_us(REPEAT),
              **growth_pass(REPEAT),
              "step_us": step_us(REPEAT),
              "trace_file_ns_per_step": trace_file_ns_per_step(REPEAT),
              "timing_checks_us": timing_checks_us(REPEAT),
              "halving_share": halving_share(),
              **dict(zip(("serving_share", "serving_ns_per_step"), serving_share(REPEAT))),
              "trace_entries": trace_entries(),
              "bits_us_per_1000": bit_costs(REPEAT),
              "import_ms": import_ms(REPEAT),
              "start_modules": start_modules(),
              "run_result_us": run_result_us(REPEAT)}
    for name, r in result["runs"].items():
        print(f"{name:<15} {r['steps']:>8} steps  plain {r['plain_ns_per_step']:>7} "
              f"watched {r['watched_ns_per_step']:>7} traced {r['traced_ns_per_step']:>7} ns/step")
    for word, us in short.items():
        print(f"lprime short run {word!r}: {us} µs")
    print(f"an 'ab0c0' run costs {result['short_run_over_plain_step']} plain lprime steps")
    print(f"a cold tk:3 pass over {COLD_WORDS} fk words costs {result['cold_over_warm']} "
          f"warm passes; a warm pass, {result['warm_fk_us']} µs per run")
    print(f"a cold batch-like pass costs {result['compile_us']} µs per compiled key")
    print(f"a cold mk:3 and tk:3 growth pass costs {result['cold_growth_over_warm']} warm "
          f"ones and {result['compose_us']} µs per composed entry; its "
          f"{result['compose_serve_calls']} serve calls read {result['compose_rereads']} "
          f"windows more than a warm pass's")
    print(f"a step() call of lprime costs {result['step_us']} µs")
    print(f"a traced tk:3 run written as a trace file costs "
          f"{result['trace_file_ns_per_step']} ns/step")
    print(f"lprime_timing's checks on a k = 12 trace cost {result['timing_checks_us']} µs")
    print(f"a plain k = 12 lprime run takes {result['halving_share']} of its halving-pass "
          f"steps in bulk")
    print(f"plain mk:3 and tk:3 runs take at least {result['serving_share']} of their "
          f"serving-round steps in bulk, at {result['serving_ns_per_step']} ns/step")
    for name, r in result["trace_entries"].items():
        print(f"a traced {name} run holds {r['entries']} entries for {r['steps']} steps")
    for n, us in result["bits_us_per_1000"].items():
        print(f"bits({n}): {us} µs per 1,000 bits")
    print(f"import qmlab.cli adds {result['import_ms']} ms to a process's start and loads "
          f"{', '.join(result['start_modules']) or 'none'} of {', '.join(LAZY_MODULES)}")
    print(f"building a RunResult costs {result['run_result_us']} µs")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Per-step cost of plain, watched and traced runs, the cost of a short run,
and the cost of drawing seeded bits.

    python3 tools/step_cost.py > costs.txt

For each machine, one seeded word (the kind ``analysis.growth_point`` runs)
is run on one executor in three ways: plain, with ``watch_lengths=True`` and
with ``trace=True``.  A traced run is timed together with reading its
``consumed`` and ``lengths`` columns, as ``Trace.to_lines`` and the trace
checks do, since a trace builds its columns when they are first read.
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
executors', all in this process.  ``step_us`` is the cost of one ``step``
call, in µs: the fastest of ``REPEAT`` passes that step a configuration of
``gen_lprime(6, SEED)`` from its start to its halt (255 steps), over the
steps.  ``bits`` is the fastest
``SplitMix64(seed).bits(n)`` call, in µs per 1,000 bits, for each ``n``.
The program is imported from ``src/`` next to this directory.  The last line
printed is one JSON object.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import timeit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from qmlab.analysis import sized_fk_instance  # noqa: E402
from qmlab.machine import Executor, executor_for, step  # noqa: E402
from qmlab.machines import builtin  # noqa: E402
from qmlab.oracles import SplitMix64, gen_fk_cases, gen_lprime  # noqa: E402

SEED = 1
BIT_COUNTS = (64, 1024, 8192)
REPEAT = 7
SHORT_WORDS = ("a", "ab0c0", "ab0c0ab")   # 1, 5 and 14 steps
SHORT_BATCH = 2000
COLD_WORDS = 600   # as many fk words as the batch workload replays


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
    """Read the columns that ``Trace.to_lines`` and the trace checks read."""
    res.trace.consumed, res.trace.lengths


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


def cold_over_warm(repeat: int) -> float:
    """A fresh tk:3 executor's first pass over the fk words over its second."""
    words = [case.word for case in gen_fk_cases(COLD_WORDS, SEED, 3)]
    passes = ([], [])
    for _ in range(repeat):
        run_word = Executor(builtin("tk:3")).run
        for times in passes:
            t = time.perf_counter()
            for word in words:
                run_word(word)
            times.append(time.perf_counter() - t)
    return round(min(passes[0]) / min(passes[1]), 3)


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


def bit_costs(repeat: int) -> dict:
    return {str(n): round(1e9 * best(lambda: SplitMix64(SEED).bits(n), repeat) / n, 3)
            for n in BIT_COUNTS}


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    runs = run_costs(REPEAT)
    short = short_run_costs(REPEAT)
    result = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
              "repeat": REPEAT, "runs": runs, "short_run_us": short,
              "short_run_over_plain_step": round(
                  1e3 * short["ab0c0"] / runs["lprime"]["plain_ns_per_step"], 2),
              "cold_over_warm": cold_over_warm(REPEAT),
              "step_us": step_us(REPEAT),
              "bits_us_per_1000": bit_costs(REPEAT)}
    for name, r in result["runs"].items():
        print(f"{name:<15} {r['steps']:>8} steps  plain {r['plain_ns_per_step']:>7} "
              f"watched {r['watched_ns_per_step']:>7} traced {r['traced_ns_per_step']:>7} ns/step")
    for word, us in short.items():
        print(f"lprime short run {word!r}: {us} µs")
    print(f"an 'ab0c0' run costs {result['short_run_over_plain_step']} plain lprime steps")
    print(f"a cold tk:3 pass over {COLD_WORDS} fk words costs {result['cold_over_warm']} "
          f"warm passes")
    print(f"a step() call of lprime costs {result['step_us']} µs")
    for n, us in result["bits_us_per_1000"].items():
        print(f"bits({n}): {us} µs per 1,000 bits")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

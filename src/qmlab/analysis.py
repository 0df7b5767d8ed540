"""Instrumented studies tying the machines to their oracles and predictions.

This is the layer the command-line verify/bench suites and the acceptance
tests share: cycle-schedule reports for the riffle-copy acceptor, exhaustive
and structured oracle-agreement scans, interleaver equivalence checks, and
step-growth series.  Heavy scans fan out over worker processes; results are
merged in a fixed order so reports are byte-stable for a given seed.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
from dataclasses import dataclass

from .growth import GrowthReport, fit_growth
from .machine import (
    Trace,
    Verdict,
    executor_for,
    minimal_delay,
    run,
)
from .machines import (
    builtin,
    pi,
    pi_order,
    predicted_cycle_length,
    predicted_tail_steps,
)
from .oracles import (
    LPRIME_CLAUSES,
    FkInstance,
    LprimeInstance,
    SplitMix64,
    gen_lk,
    gen_lprime,
    in_lprime,
    is_anbn,
    mutate_negative,
    pi_by_halving,
    reference_fk,
)


# The most worker processes a suite may ask for: a typo such as 100000 would
# otherwise start that many.
MAX_WORKERS = 64


def effective_workers(workers: int | None = None) -> int:
    """``workers`` if given, else ``QMLAB_WORKERS`` if set, else the CPU count
    up to 8; 0 means 1.  A count outside 0..MAX_WORKERS is a ValueError."""
    source = "--workers"
    if workers is None and (env := os.environ.get("QMLAB_WORKERS")):
        try:
            workers, source = int(env), "QMLAB_WORKERS"
        except ValueError:
            raise ValueError(f"QMLAB_WORKERS must be an integer, got {env!r}") from None
    if workers is None:
        return max(1, min(8, os.cpu_count() or 1))
    if not 0 <= workers <= MAX_WORKERS:
        raise ValueError(f"{source} must be in 0..{MAX_WORKERS}, not {workers}")
    return max(1, workers)


def parallel_map(fn, tasks: list, workers: int | None = None) -> list:
    """Order-preserving map, fanned out over at most one process per task."""
    n = min(effective_workers(workers), len(tasks))
    if n <= 1:
        return [fn(t) for t in tasks]
    with multiprocessing.Pool(n) as pool:
        return pool.map(fn, tasks, chunksize=max(1, len(tasks) // (n * 16)))


@dataclass(frozen=True)
class Check:
    case_id: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.case_id} {self.detail}"


# --------------------------------------------------------------------------
# Riffle-copy acceptor: cycle schedule and timing


@dataclass(frozen=True)
class LprimeTiming:
    k: int
    verdict: Verdict
    prefix_length: int
    prefix_realtime: bool
    prefix_min_delay: int
    tail_steps: int
    predicted_tail: int
    cycle_start_steps: tuple[int, ...]
    cycle_lengths: tuple[int, ...]
    predicted_lengths: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return (self.verdict is Verdict.ACCEPT
                and self.prefix_realtime
                and self.tail_steps == self.predicted_tail
                and self.cycle_lengths == self.predicted_lengths)


def lprime_cycle_starts(trace: Trace, prefix_length: int) -> list[int]:
    """Step indices at which cleanup cycles start.

    The first consuming step after the stored prefix opens cycle 1; within a
    cycle, consuming comparison steps are separated by a single re-queue step,
    while a new cycle is preceded by the bit-run bookkeeping, so a consuming
    step after two or more silent steps opens the next cycle.
    """
    consumed = trace.consumed   # step i + 1 consumed iff consumed[i]
    i = consumed.find(1, prefix_length)
    if i < 0:
        return []
    starts = [i + 1]
    # Each later start is a consuming step right after two silent ones.
    i = consumed.find(b"\x00\x00\x01", i)
    while i >= 0:
        starts.append(i + 3)
        i = consumed.find(b"\x00\x00\x01", i + 3)
    return starts


def lprime_timing(inst: LprimeInstance) -> LprimeTiming:
    res = executor_for(builtin("lprime")).run(inst.render(), trace=True)
    trace = res.trace
    p = inst.prefix_length
    k = inst.k
    starts = lprime_cycle_starts(trace, p)
    if starts and starts[0] < 2:
        raise ValueError("a cycle starts at step 1, before any queue length is traced")
    # A cycle's length is the queue length after the step before its start.
    q = trace.lengths_of("q")
    cycle_lengths = tuple(q[s - 2] for s in starts)
    prefix_min_delay = minimal_delay(trace, (1, p))
    return LprimeTiming(
        k=k, verdict=res.verdict, prefix_length=p,
        prefix_realtime=prefix_min_delay == 0,
        prefix_min_delay=prefix_min_delay,
        tail_steps=res.steps - p,
        predicted_tail=predicted_tail_steps(k),
        cycle_start_steps=tuple(starts),
        cycle_lengths=cycle_lengths,
        predicted_lengths=tuple(predicted_cycle_length(k, i)
                                for i in range(1, k + 2)))


def formulas_suite(k_max: int = 10, seed: int = 1) -> list[Check]:
    checks = []
    for k in range(k_max + 1):
        t = lprime_timing(gen_lprime(k, seed + k))
        checks.append(Check(
            f"formulas:k={k:02d}.cycle-lengths", t.cycle_lengths == t.predicted_lengths,
            f"observed={list(t.cycle_lengths)} predicted={list(t.predicted_lengths)}"))
        checks.append(Check(
            f"formulas:k={k:02d}.tail-steps", t.tail_steps == t.predicted_tail,
            f"observed={t.tail_steps} predicted={t.predicted_tail}"))
        checks.append(Check(
            f"formulas:k={k:02d}.prefix-realtime", t.prefix_realtime,
            f"min-delay={t.prefix_min_delay}"))
        checks.append(Check(
            f"formulas:k={k:02d}.verdict", t.verdict is Verdict.ACCEPT,
            f"verdict={t.verdict.value}"))
    return checks


# --------------------------------------------------------------------------
# Riffle permutation suite


def pi_suite(k_max: int = 12, seed: int = 1) -> list[Check]:
    checks = []
    for k in range(k_max + 1):
        n = 1 << k
        order = pi_order(n)
        bijective = sorted(order) == list(range(n))
        word = SplitMix64(seed + k).letters(n)
        agree = pi(word) == pi_by_halving(word)
        checks.append(Check(f"pi:k={k:02d}.permutation", bijective,
                            f"n={n}"))
        checks.append(Check(f"pi:k={k:02d}.matches-halving", agree,
                            f"n={n}"))
    return checks


# --------------------------------------------------------------------------
# Exhaustive oracle agreement for the riffle-copy acceptor


def shape_compositions(max_len: int) -> list[tuple[int, int, int, int]]:
    """All letter/bit run lengths (wa, v1, v2, wb) of shape-plausible words
    (letters, bits, c, bits, letters) up to max_len total."""
    out = []
    for n in range(1, max_len + 1):
        for wa in range(n):
            for v1 in range(n - wa):
                for v2 in range(n - wa - v1):
                    out.append((wa, v1, v2, n - 1 - wa - v1 - v2))
    return out


def _scan_task(comp: tuple[int, int, int, int]) -> tuple[int, list[str]]:
    wa, v1, v2, wb = comp
    run_word = executor_for(builtin("lprime")).run
    slots = ([("a", "b")] * wa + [("0", "1")] * v1 + [("c",)]
             + [("0", "1")] * v2 + [("a", "b")] * wb)
    checked = 0
    bad: list[str] = []
    for tup in itertools.product(*slots):
        word = "".join(tup)
        checked += 1
        got = run_word(word).verdict is Verdict.ACCEPT
        want = in_lprime(word)
        if got != want:
            if len(bad) < 5:
                bad.append(f"{word}: oracle={want} machine={got}")
    return checked, bad


@dataclass(frozen=True)
class ScanResult:
    words_checked: int
    mismatches: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def lprime_exhaustive_scan(max_len: int = 13, workers: int | None = None) -> ScanResult:
    """Run the acceptor against the membership oracle on every shape-plausible
    word (letters, bits, one c, bits, letters) up to the given length."""
    results = parallel_map(_scan_task, shape_compositions(max_len), workers)
    total = sum(c for c, _ in results)
    bad = tuple(itertools.chain.from_iterable(b for _, b in results))
    return ScanResult(total, bad[:20])


# --------------------------------------------------------------------------
# Structured positives and negatives for the riffle-copy acceptor


def _structured_task(task: tuple[str, int, int, int]) -> tuple[str, int, list[str]]:
    kind, k, count, seed = task
    ex = executor_for(builtin("lprime"))
    bad: list[str] = []
    for j in range(count):
        inst = gen_lprime(k, seed + j)
        if kind == "member":
            word, want = inst.render(), True
        else:
            word, want = mutate_negative(inst, kind, seed + j), False
        got = ex.run(word).verdict is Verdict.ACCEPT
        if got != want or in_lprime(word) != want:
            if len(bad) < 5:
                bad.append(f"seed={seed + j} word-length={len(word)} "
                           f"expected={'accept' if want else 'reject'} "
                           f"machine={'accept' if got else 'reject'}")
    return (kind, count, bad)


def lprime_structured_suite(cases_per_clause: int = 10000, k_max: int = 10,
                            seed: int = 7, workers: int | None = None) -> list[Check]:
    """Seeded members plus one suite per violated clause, spread over tag
    lengths 0..k_max (1..k_max where the clause needs a nonempty tag)."""
    kinds = ("member",) + LPRIME_CLAUSES
    tasks = []
    for kind in kinds:
        # v-mismatch needs a nonempty tag: with k_max = 0 it has no tasks (cases=0).
        ks = range(1 if kind == "v-mismatch" else 0, k_max + 1)
        for k in ks:
            per_k = -(-cases_per_clause // len(ks))   # ceiling
            tasks.append((kind, k, per_k, seed + 1000 * k))
    results = parallel_map(_structured_task, tasks, workers)
    by_kind: dict[str, tuple[int, list[str]]] = {}
    for kind, count, bad in results:
        tot, fails = by_kind.get(kind, (0, []))
        by_kind[kind] = (tot + count, fails + bad)
    checks = []
    for kind in kinds:
        tot, fails = by_kind.get(kind, (0, []))
        checks.append(Check(f"lprime:{kind}", not fails,
                            f"cases={tot}" + (f" failures={fails}" if fails else "")))
    return checks


def lprime_suite(k_max: int = 10, cases: int = 200, seed: int = 1,
                 exhaustive_len: int | None = None, workers: int | None = None) -> list[Check]:
    """The structured suite, plus the exhaustive scan when ``exhaustive_len`` > 0."""
    checks = lprime_structured_suite(cases_per_clause=cases, k_max=k_max, seed=seed,
                                     workers=workers)
    if exhaustive_len:
        scan = lprime_exhaustive_scan(exhaustive_len, workers)
        checks.append(Check(
            "lprime:exhaustive", scan.ok,
            f"words={scan.words_checked} max-len={exhaustive_len}"
            + (f" mismatches={list(scan.mismatches)}" if scan.mismatches else "")))
    return checks


# --------------------------------------------------------------------------
# Interleaver equivalence (queue machine, tape machine, direct evaluation)


def _fk_task(task: tuple[int, int, int]) -> tuple[str, int, list[str]]:
    k, count, seed = task
    mk, tk = executor_for(builtin(f"mk:{k}")), executor_for(builtin(f"tk:{k}"))
    rng = SplitMix64(seed)
    bad: list[str] = []
    for j in range(count):
        f = tuple(1 + rng.below(6) for _ in range(k))
        m = 1 + rng.below(10)
        inst = gen_lk(k, f, m, rng.next())
        word = inst.render()
        want = reference_fk(k, word)
        got_m, got_t = mk.run(word), tk.run(word)
        ok = (got_m.output == want and got_t.output == want
              and got_m.accepted and got_t.accepted
              and got_m.steps == len(word))
        if not ok and len(bad) < 5:
            bad.append(f"word={word!r} want={want!r} "
                       f"mk={got_m.output!r} tk={got_t.output!r}")
    return (f"fk:k={k}", count, bad)


def fk_suite(cases: int = 200, seed: int = 1, workers: int | None = None) -> list[Check]:
    tasks = [(k, cases, seed + k) for k in (1, 2, 3)]
    results = parallel_map(_fk_task, tasks, workers)
    return [Check(case_id, not bad,
                  f"cases={count}" + (f" failures={bad}" if bad else ""))
            for case_id, count, bad in sorted(results)]


# --------------------------------------------------------------------------
# Post-mode a^n b^n


def _anbn_words(max_len: int):
    for n in range(max_len + 1):
        for tup in itertools.product("ab", repeat=n):
            yield "".join(tup)


def anbn_suite(len_max: int = 14) -> list[Check]:
    checks = []
    execs = {v: executor_for(builtin(f"anbn:{v}")) for v in ("linear", "quadratic")}
    for variant, ex in execs.items():
        bad = []
        count = 0
        for word in _anbn_words(len_max):
            count += 1
            got = ex.run(word).verdict is Verdict.ACCEPT
            if got != is_anbn(word) and len(bad) < 5:
                bad.append(word)
        checks.append(Check(f"anbn:{variant}.exhaustive", not bad,
                            f"words={count} max-len={len_max}"
                            + (f" failures={bad}" if bad else "")))
    ratios = []
    for t in (8, 16, 32, 64, 128, 256, 512, 1024):
        word = "a" * t + "b" * t
        lin = execs["linear"].run(word).steps
        quad = execs["quadratic"].run(word, max_steps=16 * t * t + 64).steps
        ratios.append(lin / quad)
    checks.append(Check("anbn:speedup.monotone",
                        all(x > y for x, y in zip(ratios, ratios[1:])),
                        f"linear/quadratic step ratios={['%.4f' % r for r in ratios]}"))
    return checks


# --------------------------------------------------------------------------
# Step-growth series


def sized_fk_instance(k: int, target: int, seed: int) -> FkInstance:
    """An interleaver input of roughly the requested length: half the symbols
    in the stream prefixes, half in the rows."""
    f_each = max(1, target // (4 * k))
    m = max(1, (target - k * f_each - k) // (k + 1))
    return gen_lk(k, (f_each,) * k, m, seed)


def growth_point(name: str, target: int, seed: int) -> tuple[int, int, int]:
    """One benchmark row for a builtin machine: (n, steps, max storage length)."""
    spec = builtin(name)   # KeyError unless a builtin machine, so one of:
    if name == "lprime":
        k = max(0, target.bit_length() - 2)
        word = gen_lprime(k, seed).render()
    elif name.startswith(("mk:", "tk:")):
        k = int(name.split(":")[1])
        word = sized_fk_instance(k, target, seed).render()
    else:  # anbn:linear or anbn:quadratic
        word = "a" * (target // 2) + "b" * (target // 2)
    res = run(spec, word, watch_lengths=True)
    if res.verdict is not Verdict.ACCEPT:
        raise AssertionError(f"{name} rejected its generated input (n={len(word)})")
    return len(word), res.steps, max(res.max_lengths)


def growth_series(name: str, exponents: range, seed: int = 3) -> list[tuple[int, int, int]]:
    return [growth_point(name, 1 << e, seed + e) for e in exponents]


def growth_report(name: str, exponents: range, seed: int = 3) -> GrowthReport:
    series = growth_series(name, exponents, seed)
    return fit_growth([(n, steps) for n, steps, _ in series])

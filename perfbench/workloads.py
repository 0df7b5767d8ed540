"""The four benchmark workloads: seeded set-up, one pass, and its checks.

Each workload is a closed loop driven by one Python process: the next call
into qmlab is made only after the previous one returns.  ``setup`` builds
the workload's machines and generates every word, batch file and machine
file from the seed; qmlab receives only these generated inputs (or a seed
derived from the workload seed, where a suite generates its own cases).
``run_<name>`` makes the calls once and returns a JSON-able outcome holding
everything the calls returned; ``check_<name>`` checks it against
independent references, and ``check_run`` checks each single machine run.

Why these four (BENCHMARK.json gives the same reasons):

* scan   -- many tiny runs: per-run fixed cost, the membership oracle and
            the process fan-out dominate, per-step speed barely matters.
* growth -- few long runs: per-step cost of the run loop dominates, fixed
            costs are negligible, watched and plain loops both timed.
* trace  -- traced runs: one step record per step plus the trace checks
            and the trace file, through the same executor as growth.
* batch  -- entry-point cost: every case goes through ``run()`` and its
            executor cache, plus ``builtin``, ``specfile.load`` and ``cli``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import re

from qmlab import analysis, cli, machine, machines, oracles, specfile
from qmlab.oracles import BatchCase, ParseReject, SplitMix64

# Sizes of one pass.  "smoke" runs every workload once at tiny sizes.
SIZES = {
    "full": {
        "scan": {"max_len": 9, "cases": 200, "k_max": 10},
        "growth": {"long": (8, 13), "anbn": (4, 9)},
        "trace": {"k_max": 15, "tk3_symbols": 1 << 13},
        "batch": {"fk_cases": 600, "lprime_cases": 1500, "lprime_k_max": 4},
    },
    "smoke": {
        "scan": {"max_len": 5, "cases": 10, "k_max": 3},
        "growth": {"long": (4, 7), "anbn": (2, 5)},
        "trace": {"k_max": 4, "tk3_symbols": 1 << 7},
        "batch": {"fk_cases": 20, "lprime_cases": 20, "lprime_k_max": 3},
    },
}
# Workloads whose passes keep every core busy (nproc workers); the others are serial.
PARALLEL = ("scan",)
GROWTH_MACHINES = ("lprime", "mk:1", "mk:2", "mk:3", "tk:1", "tk:2", "tk:3",
                   "anbn:linear", "anbn:quadratic")

_LPRIME_SHAPE = re.compile(r"([ab]*)([01]*)c([01]*)([ab]*)")


# --------------------------------------------------------------------------
# Independent references (closed forms from the README, oracles for the rest)


def lprime_tail_steps(k: int) -> int:
    """Steps after the stored prefix of a member with tag length k."""
    return 2 + 2 ** (k + 1) - 1 + k * k + 2 * k + 1


def lprime_cycle_lengths(k: int) -> list[int]:
    return [2 ** (k - i + 1) + 2 * (k - i + 1) + 1 for i in range(1, k + 2)]


def shape_word_count(max_len: int) -> int:
    """Words of shape letters, bits, c, bits, letters up to max_len symbols."""
    return sum(math.comb(n + 2, 3) << (n - 1) for n in range(1, max_len + 1))


def check_run(name: str, word: str, verdict: str, steps: int, output: str) -> str | None:
    """Compare one machine run with the independent reference for its family;
    returns a problem description or None."""
    accepted = verdict == "accept"
    if verdict not in ("accept", "reject"):
        return f"{name} {verdict} on word of length {len(word)}"
    if name == "lprime":
        want = oracles.in_lprime(word)
        if accepted != want:
            return f"lprime verdict {verdict} on {word[:40]!r}, oracle says {want}"
        if want:
            w, v, _, _ = _LPRIME_SHAPE.fullmatch(word).groups()
            expected = len(w) + 2 * len(v) + 1 + lprime_tail_steps(len(v))
            if steps != expected:
                return f"lprime k={len(v)} took {steps} steps, closed form {expected}"
        return None
    if name.startswith(("mk:", "tk:")):
        k = int(name[3:])
        try:
            want = oracles.reference_fk(k, word)
        except ParseReject:
            want = None
        if want is None:
            return None if not accepted else f"{name} accepted malformed {word[:40]!r}"
        if not accepted or output != want:
            return f"{name} {verdict} output differs from reference_fk on {word[:40]!r}"
        if name.startswith("mk:") and steps != len(word):
            return f"{name} took {steps} steps on {len(word)} symbols"
        return None
    if name.startswith("anbn:"):
        want = oracles.is_anbn(word)
        return None if accepted == want else f"{name} verdict {verdict}, is_anbn {want}"
    return f"no reference for machine {name!r}"


def executor_cache():
    """qmlab's executor cache (an ``lru_cache``), or None if it has none."""
    fn = getattr(machine, "executor_for", None)
    return fn if hasattr(fn, "cache_clear") else None


def fresh_process_state() -> None:
    """Empty the executor cache, so that every pass starts as a fresh
    ``qmlab`` process does (a batch's first ``run()`` then stores the spec it
    was given, and later equal specs pay the comparison against it)."""
    cache = executor_cache()
    if cache is not None:
        cache.cache_clear()


# --------------------------------------------------------------------------
# scan: many tiny runs of the riffle-copy acceptor


def setup_scan(seed: int, size: dict, workdir: str) -> dict:
    rng = SplitMix64(seed)
    return dict(size, seed=rng.below(1 << 31))


def run_scan(ctx: dict, workers: int) -> dict:
    scan = analysis.lprime_exhaustive_scan(max_len=ctx["max_len"], workers=workers)
    checks = analysis.lprime_structured_suite(
        cases_per_clause=ctx["cases"], k_max=ctx["k_max"], seed=ctx["seed"],
        workers=workers)
    return {"words": scan.words_checked, "mismatches": list(scan.mismatches),
            "checks": [c.line() for c in checks]}


def check_scan(ctx: dict, out: dict) -> list[str]:
    problems = [f"scan mismatch {m}" for m in out["mismatches"]]
    if out["words"] != shape_word_count(ctx["max_len"]):
        problems.append(f"scan checked {out['words']} words, "
                        f"expected {shape_word_count(ctx['max_len'])}")
    problems += [line for line in out["checks"] if not line.startswith("PASS")]
    if len(out["checks"]) != 1 + len(oracles.LPRIME_CLAUSES):
        problems.append(f"structured suite returned {len(out['checks'])} checks")
    return problems


# --------------------------------------------------------------------------
# growth: step-growth series plus one plain run of each largest input


def _growth_exponents(ctx: dict, name: str) -> range:
    lo, hi = ctx["anbn"] if name.startswith("anbn:") else ctx["long"]
    return range(lo, hi + 1)


def _growth_word(name: str, target: int, seed: int) -> str:
    """The word ``analysis.growth_point`` runs for this size and seed."""
    if name == "lprime":
        return oracles.gen_lprime(max(0, target.bit_length() - 2), seed).render()
    if name.startswith(("mk:", "tk:")):
        return analysis.sized_fk_instance(int(name[3:]), target, seed).render()
    return "a" * (target // 2) + "b" * (target // 2)


def setup_growth(seed: int, size: dict, workdir: str) -> dict:
    rng = SplitMix64(seed)
    ctx = dict(size, seeds={}, plain={})
    for name in GROWTH_MACHINES:
        s = ctx["seeds"][name] = rng.below(1 << 31)
        top = _growth_exponents(ctx, name)[-1]
        ctx["plain"][name] = (machine.Executor(machines.builtin(name)),
                              _growth_word(name, 1 << top, s + top))
    return ctx


def run_growth(ctx: dict, workers: int) -> dict:
    series, plain = {}, {}
    for name in GROWTH_MACHINES:
        series[name] = [list(row) for row in analysis.growth_series(
            name, _growth_exponents(ctx, name), seed=ctx["seeds"][name])]
    for name in GROWTH_MACHINES:
        ex, word = ctx["plain"][name]
        res = ex.run(word, max_steps=64 * len(word) ** 2 + 64)
        plain[name] = [len(word), res.verdict.value, res.steps,
                       hashlib.sha256(res.output.encode()).hexdigest()[:16]]
    return {"series": series, "plain": plain}


def check_growth(ctx: dict, out: dict) -> list[str]:
    problems = []
    for name in GROWTH_MACHINES:
        rows = out["series"][name]
        if len(rows) != len(_growth_exponents(ctx, name)):
            problems.append(f"{name}: {len(rows)} growth points")
            continue
        n, verdict, steps, _ = out["plain"][name]
        if verdict != "accept" or [n, steps] != rows[-1][:2]:
            problems.append(f"{name}: plain run {verdict} n={n} steps={steps} "
                            f"differs from its growth point {rows[-1]}")
    return problems


# --------------------------------------------------------------------------
# trace: traced cycle-schedule runs and one traced CLI run to a trace file


def setup_trace(seed: int, size: dict, workdir: str) -> dict:
    rng = SplitMix64(seed)
    return dict(size,
                instances=[oracles.gen_lprime(k, rng.below(1 << 31))
                           for k in range(size["k_max"] + 1)],
                tk3_word=analysis.sized_fk_instance(
                    3, size["tk3_symbols"], rng.below(1 << 31)).render(),
                trace_path=os.path.join(workdir, "tk3-trace.csv"))


def _cli(argv: list[str], workdir: str) -> list:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return [rc, buf.getvalue().replace(workdir, "<work>")]


def run_trace(ctx: dict, workers: int) -> dict:
    timings = []
    for inst in ctx["instances"]:
        t = analysis.lprime_timing(inst)
        timings.append([t.k, t.verdict.value, t.ok, t.prefix_length, t.tail_steps,
                        list(t.cycle_lengths), t.prefix_min_delay])
    workdir = os.path.dirname(ctx["trace_path"])
    rc, text = _cli(["run", "--machine", "tk:3", "--input", ctx["tk3_word"],
                     "--trace", ctx["trace_path"]], workdir)
    with open(ctx["trace_path"], "rb") as fh:
        data = fh.read()
    return {"timings": timings, "cli": [rc, text],
            "trace_lines": data.count(b"\n"),
            "trace_sha256": hashlib.sha256(data).hexdigest()}


def check_trace(ctx: dict, out: dict) -> list[str]:
    problems = []
    for k, verdict, ok, prefix, tail, cycles, delay in out["timings"]:
        if not (ok and verdict == "accept" and delay == 0
                and tail == lprime_tail_steps(k) and cycles == lprime_cycle_lengths(k)):
            problems.append(f"lprime_timing k={k}: verdict={verdict} tail={tail} "
                            f"cycles={cycles} delay={delay}")
    rc, text = out["cli"]
    m = re.fullmatch(r"verdict=accept steps=(\d+) output=([01$]*)\n", text)
    if rc != 0 or not m:
        problems.append(f"tk:3 traced run exited {rc}: {text[:80]!r}")
    else:
        if m.group(2) != oracles.reference_fk(3, ctx["tk3_word"]):
            problems.append("tk:3 traced run output differs from reference_fk")
        if out["trace_lines"] != int(m.group(1)) + 1:
            problems.append(f"trace file has {out['trace_lines']} lines "
                            f"for {m.group(1)} steps")
    return problems


# --------------------------------------------------------------------------
# batch: CLI batch replays through run() and the lprime batch verifier


def setup_batch(seed: int, size: dict, workdir: str) -> dict:
    rng = SplitMix64(seed)
    fk_cases = []
    for i in range(size["fk_cases"]):
        f = tuple(1 + rng.below(5) for _ in range(3))
        inst = oracles.gen_lk(3, f, 3 + rng.below(7), rng.next())
        if i % 2 == 0:
            word = inst.render()
            fk_cases.append(BatchCase(word, "output=" + oracles.reference_fk(3, word),
                                      "member"))
        else:
            clause = oracles.FK_CLAUSES[rng.below(len(oracles.FK_CLAUSES))]
            fk_cases.append(BatchCase(oracles.mutate_negative(inst, clause, rng.next()),
                                      "reject", clause))
    lp_cases = []
    for i in range(size["lprime_cases"]):
        k = rng.below(size["lprime_k_max"] + 1)
        inst = oracles.gen_lprime(k, rng.next())
        if i % 2 == 0:
            lp_cases.append(BatchCase(inst.render(), "accept", f"member:k={k}"))
        else:
            clauses = [c for c in oracles.LPRIME_CLAUSES if k or c != "v-mismatch"]
            clause = clauses[rng.below(len(clauses))]
            lp_cases.append(BatchCase(oracles.mutate_negative(inst, clause, rng.next()),
                                      "reject", f"{clause}:k={k}"))
    ctx = dict(size, workdir=workdir,
               fk_path=os.path.join(workdir, "fk3.tsv"),
               lprime_path=os.path.join(workdir, "lprime.tsv"),
               qm_path=os.path.join(workdir, "tk3.qm"))
    oracles.write_batch(ctx["fk_path"], fk_cases)
    oracles.write_batch(ctx["lprime_path"], lp_cases)
    specfile.dump(machines.builtin("tk:3"), ctx["qm_path"])
    return ctx


def run_batch(ctx: dict, workers: int) -> dict:
    fk = ctx["fk_path"]
    return {"cli": [_cli(argv, ctx["workdir"]) for argv in (
        ["run", "--machine", "tk:3", "--batch", fk],
        ["run", "--machine", ctx["qm_path"], "--batch", fk],
        ["run", "--machine", "mk:3", "--batch", fk],
        ["verify", "--suite", "lprime", "--batch", ctx["lprime_path"]])]}


def check_batch(ctx: dict, out: dict) -> list[str]:
    n, m = ctx["fk_cases"], ctx["lprime_cases"]
    want = [f"batch <work>/fk3.tsv: {n}/{n} cases matched\n"] * 3 + [
        f"verify suite=lprime batch=<work>/lprime.tsv cases={m} failures=0\n"]
    return [f"cli exited {rc}: {text[-120:]!r}"
            for (rc, text), expected in zip(out["cli"], want)
            if rc != 0 or text != expected]


WORKLOADS = {
    "scan": (setup_scan, run_scan, check_scan),
    "growth": (setup_growth, run_growth, check_growth),
    "trace": (setup_trace, run_trace, check_trace),
    "batch": (setup_batch, run_batch, check_batch),
}

"""One benchmark process, started by run.py; prints one JSON line.

    python3 perfbench/child.py ROLE WORKLOAD SEED SECONDS SIZE

Roles:
  setup    time ``import qmlab`` plus the workload's set-up, nothing else,
           between two host-speed probes.
  check    one traced, serial unit (set-up and one pass) whose every machine
           run is checked against its reference; gives the exact run and
           step counts and the digest of all run results.
  measure  set-up, one untimed warm-up pass, then timed passes with
           ``nproc`` workers for SECONDS, a host-speed probe before the first
           and after every pass; gives pass walls, probe times, outcome
           hashes and the peak RSS of this process and its worker processes.
  trace    repeated for SECONDS: an untraced serial unit, an untraced
           ``nproc`` unit and a traced serial unit; gives per-layer metrics.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import struct
import sys
import tempfile
import time
from collections import deque

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
NPROC = len(os.sched_getaffinity(0))
# Simulated steps re-run three ways (plain, watched, traced) for the slowdowns.
SLOWDOWN_STEP_BUDGET = 150_000
PROBE_STEPS = 200_000


def _probe_loop() -> float:
    """Seconds one copy of the probe loop takes; it never touches qmlab."""
    table = {(s, c): ((s + c) % 5, c) for s in range(5) for c in range(3)}
    queue = deque([0, 1, 2] * 4)
    records: list[tuple[int, int]] = []
    state = 0
    t0 = time.perf_counter()
    for i in range(PROBE_STEPS):
        c = queue.popleft()
        state, out = table[(state, c)]
        queue.append((out + i) % 3)
        records.append((i, state))
        if len(records) == 20_000:
            records = []
    return time.perf_counter() - t0


class Probe:
    """Measures the host's momentary speed: the mean seconds a fixed,
    qmlab-independent interpreter loop takes when ``width`` copies run at
    once, one per busy core (this process plus ``width - 1`` helpers forked
    when the probe is made).

    The loop does what a table-driven machine does (tuple keys, dict lookups,
    deque pops and appends, one small record kept per step), so a slow phase
    of the host slows it much as it slows qmlab; run.py divides pass and
    set-up times by it.  The helpers stay alive until ``close``, so they never
    count among the finished children whose peak RSS ``getrusage`` reports."""

    def __init__(self, width: int = 1):
        self._helpers = []
        for _ in range(width - 1):
            cmd_r, cmd_w = os.pipe()
            res_r, res_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(cmd_w)
                    os.close(res_r)
                    while os.read(cmd_r, 1):
                        os.write(res_w, struct.pack("d", _probe_loop()))
                finally:
                    os._exit(0)
            os.close(cmd_r)
            os.close(res_w)
            self._helpers.append((pid, cmd_w, res_r))

    def __call__(self) -> float:
        for _, cmd_w, _ in self._helpers:
            os.write(cmd_w, b"g")
        times = [_probe_loop()]
        for _, _, res_r in self._helpers:
            times.append(struct.unpack("d", os.read(res_r, 8))[0])
        return statistics.fmean(times)

    def close(self) -> None:
        for pid, cmd_w, res_r in self._helpers:
            os.close(cmd_w)
            os.close(res_r)
            os.waitpid(pid, 0)


def _outcome_hash(out: dict) -> str:
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


def _pass(W, workload: str, ctx: dict, workers: int) -> tuple[dict, list[str], float]:
    """One pass: outcome, problems found in it, wall seconds."""
    _, run_pass, check = W.WORKLOADS[workload]
    W.fresh_process_state()
    gc.collect()   # every pass starts from a collected heap, so garbage left by
    t0 = time.perf_counter()   # one pass does not time the next one's collections
    try:
        out = run_pass(ctx, workers)
    except Exception as exc:  # a failing program call fails the pass, not the benchmark
        return {"error": repr(exc)}, [f"pass raised {exc!r}"], time.perf_counter() - t0
    wall = time.perf_counter() - t0
    return out, check(ctx, out), wall


def _unit(W, workload: str, seed: int, size: str, workdir: str, workers: int):
    """Set-up plus one pass, timed together."""
    t0 = time.perf_counter()
    ctx = W.WORKLOADS[workload][0](seed, W.SIZES[size][workload], workdir)
    out, problems, _ = _pass(W, workload, ctx, workers)
    return out, problems, time.perf_counter() - t0


def _traced_unit(W, T, workload, seed, size, workdir):
    tracer = T.Tracer()
    undo = T.install(tracer)
    try:
        out, problems, wall = _unit(W, workload, seed, size, workdir, 1)
    finally:
        T.uninstall(undo)
    cache = W.executor_cache()   # emptied when the pass started
    info = cache.cache_info() if cache is not None else None
    lookups = (info.hits, info.hits + info.misses) if info else (0, 0)
    return tracer, out, problems, wall, lookups


def _check_runs(W, tracer) -> dict:
    digest = hashlib.sha256()
    failed, problems, steps = 0, [], 0
    for r in tracer.runs:
        name = r.executor.spec.name
        digest.update(f"{name}|{r.word}|{r.verdict}|{r.steps}|{r.output}|"
                      f"{r.max_lengths}\n".encode())
        steps += r.steps
        problem = W.check_run(name, r.word, r.verdict, r.steps, r.output)
        if problem:
            failed += 1
            if len(problems) < 5:
                problems.append(problem)
    return {"runs": len(tracer.runs), "sim_steps": steps,
            "digest": digest.hexdigest(), "failed_runs": failed, "problems": problems}


def _slowdowns(tracer) -> tuple[float, float]:
    """Watched / plain and traced / plain time of the unit's longest runs,
    re-run through the same held executors, up to a step budget."""
    budget, sample = SLOWDOWN_STEP_BUDGET, []
    for r in sorted(tracer.runs, key=lambda r: -r.steps):
        if 0 < r.steps <= budget:
            sample.append(r)
            budget -= r.steps
    plain = watched = traced = 0
    clock = time.perf_counter_ns
    for ex, word, max_steps, *_ in sample:
        t0 = clock()
        ex.run(word, max_steps=max_steps)
        t1 = clock()
        ex.run(word, max_steps=max_steps, watch_lengths=True)
        t2 = clock()
        ex.run(word, max_steps=max_steps, trace=True)
        t3 = clock()
        plain += t1 - t0
        watched += t2 - t1
        traced += t3 - t2
    return (watched / plain, traced / plain) if plain else (0.0, 0.0)


def _layer_metrics(tracer, lookups: tuple[int, int]) -> dict:
    by_name: dict[str, list[int]] = {}
    run_tk3 = [0, 0]
    for (name, label), (calls, total, self_ns) in tracer.aggregate().items():
        acc = by_name.setdefault(name, [0, 0, 0])
        acc[0] += calls
        acc[1] += total
        acc[2] += self_ns
        if name == "machine.run" and label == "tk:3":
            run_tk3[0] += calls
            run_tk3[1] += self_ns

    def calls(*names):
        return sum(by_name.get(n, (0,))[0] for n in names)

    def self_s(*names):
        return sum(by_name.get(n, (0, 0, 0))[2] for n in names) / 1e9

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    steps = sum(r.steps for r in tracer.runs)
    ex_calls, ex_self = calls("machine.Executor.run"), self_s("machine.Executor.run")
    run_calls, run_self = calls("machine.run"), self_s("machine.run")
    lp_calls = calls("oracles.in_lprime")
    lp_total = by_name.get("oracles.in_lprime", (0, 0))[1] / 1e9
    watch, trace = _slowdowns(tracer)
    return {
        "machine.Executor.run.calls": ex_calls,
        "machine.Executor.run.steps": steps,
        "machine.Executor.run.self_s": ex_self,
        "machine.Executor.run.us_per_run": per(ex_self, ex_calls, 1e6),
        "machine.Executor.run.ns_per_step": per(ex_self, steps, 1e9),
        "machine.Executor.run.watch_slowdown": watch,
        "machine.Executor.run.trace_slowdown": trace,
        "machine.run.calls": run_calls,
        "machine.run.self_s": run_self,
        "machine.run.us_per_call": per(run_self, run_calls, 1e6),
        "machine.run.tk3.us_per_call": per(run_tk3[1] / 1e9, run_tk3[0], 1e6),
        "machine.executor_for.hit_ratio": per(*lookups, 1),
        "machine.trace.records": sum(r.trace_records for r in tracer.runs),
        "machine.trace_checks.self_s": self_s(
            "machine.check_realtime", "machine.check_bounded_delay",
            "machine.minimal_delay", "machine.storage_length_series"),
        "machine.Trace.to_lines.self_s": self_s("machine.Trace.to_lines"),
        "machine.validate_spec.self_s": self_s("machine.validate_spec"),
        "specfile.load.self_s": self_s("specfile.load"),
        "machines.builtin.calls": calls("machines.builtin"),
        "machines.builtin.self_s": self_s("machines.builtin"),
        "oracles.in_lprime.calls": lp_calls,
        "oracles.in_lprime.us_per_call": per(lp_total, lp_calls, 1e6),
        "oracles.gen.self_s": self_s("oracles.gen_lprime", "oracles.gen_lk",
                                     "oracles.mutate_negative"),
        "oracles.reference_fk.self_s": self_s("oracles.reference_fk"),
        "oracles.read_batch.self_s": self_s("oracles.read_batch"),
        "analysis.self_s": self_s(*(n for n in by_name if n.startswith("analysis."))),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
    }


def role_setup(workload, seed, seconds, size, workdir):
    probe = Probe()
    try:
        before = probe()
        t0 = time.perf_counter()
        import workloads as W
        W.WORKLOADS[workload][0](seed, W.SIZES[size][workload], workdir)
        setup = time.perf_counter() - t0
        return {"setup_s": setup, "probe_s": (before + probe()) / 2}
    finally:
        probe.close()


def role_check(workload, seed, seconds, size, workdir):
    import tracer as T
    import workloads as W
    tracer, out, problems, _, _ = _traced_unit(W, T, workload, seed, size, workdir)
    return dict(_check_runs(W, tracer), outcome=_outcome_hash(out),
                outcome_problems=problems)


def role_measure(workload, seed, seconds, size, workdir):
    import workloads as W
    probe = Probe(NPROC if workload in W.PARALLEL else 1)
    try:
        ctx = W.WORKLOADS[workload][0](seed, W.SIZES[size][workload], workdir)
        out, problems, _ = _pass(W, workload, ctx, NPROC)   # warm-up, untimed
        hashes = ["failed" if problems else _outcome_hash(out)]
        walls, all_problems, probes = [], problems, [probe()]
        start = time.perf_counter()
        while True:
            out, problems, wall = _pass(W, workload, ctx, NPROC)
            probes.append(probe())
            walls.append(wall)
            hashes.append("failed" if problems else _outcome_hash(out))
            all_problems += problems
            if time.perf_counter() - start >= seconds:
                break
        kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    finally:
        probe.close()
    return {"walls": walls, "probes": probes, "outcomes": hashes,
            "problems": all_problems[:5], "peak_rss_mb": kb / 1024}


def role_trace(workload, seed, seconds, size, workdir):
    import tracer as T
    import workloads as W
    _unit(W, workload, seed, size, workdir, 1)   # warm-up, untimed
    rows, outcomes, problems = [], [], []
    start = time.perf_counter()
    while True:
        out1, p1, serial = _unit(W, workload, seed, size, workdir, 1)
        outn, pn, parallel = _unit(W, workload, seed, size, workdir, NPROC)
        tracer, out, p, traced, lookups = _traced_unit(W, T, workload, seed, size, workdir)
        outcomes += ["failed" if bad else _outcome_hash(o)
                     for o, bad in ((out1, p1), (outn, pn), (out, p))]
        problems += p1 + pn + p
        row = _layer_metrics(tracer, lookups)
        row["analysis.parallel_map.speedup"] = serial / parallel
        row["analysis.parallel_map.efficiency"] = serial / parallel / NPROC
        row["bench.trace_overhead"] = traced / serial
        rows.append(row)
        if time.perf_counter() - start >= seconds:
            break
    tracer.write_spans(os.path.join(OUT, f"spans-{workload}-{seed}.csv"))
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    return dict(_check_runs(W, tracer), units=3 * len(rows), outcomes=outcomes,
                outcome_problems=problems[:5], metrics=metrics)


ROLES = {"setup": role_setup, "check": role_check, "measure": role_measure,
         "trace": role_trace}


def main(argv: list[str]) -> int:
    role, workload, seed, seconds, size = argv
    if not os.path.isfile(os.path.join(SRC, "qmlab", "__init__.py")):
        print(f"error: no qmlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-{role}-", dir=OUT)
    try:
        result = ROLES[role](workload, int(seed), float(seconds), size, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

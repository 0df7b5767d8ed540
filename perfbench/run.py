#!/usr/bin/env python3
"""qmlab benchmark: end-to-end metrics (``--trace 0``) or per-layer metrics
(``--trace 1``) for one workload, checked against independent references.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --smoke      # tiny sizes, once each

Run it from the repository root.  It prints one block of readable lines per
workload and, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  This process never imports qmlab
itself: every measurement happens in a fresh ``perfbench/child.py`` process.

End-to-end metrics, from untraced runs.  The host this runs on changes speed
by tens of percent over seconds to minutes, so every set-up and pass is
bracketed by ``child._probe``, a fixed interpreter loop that does not use
qmlab, and its time is scaled to the speed at which the probe takes
PROBE_REF_S: corrected = measured * PROBE_REF_S / probe.  The uncorrected
values are printed as well (``*_raw``).
  setup_s      median over SETUP_SAMPLES fresh processes of import qmlab plus
               the workload's set-up (machines, seeded inputs and files)
  wall_s       median over the timed phase of one pass's wall time
  runs_per_s   machine runs of one pass / wall_s
  steps_per_s  exact simulated steps of one pass / wall_s; the step count
               comes from the separate checked pass, never the timed phase
  peak_rss_mb  peak RSS of the measuring process plus the largest peak RSS
               among its worker processes (not corrected)
  failed_ratio failed / attempted; printed, and carried by the JSON fields
               ``failed`` and ``attempted`` since it must read 0
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("scan", "growth", "trace", "batch")
SETUP_SAMPLES = 5
DEADLINE_S = 170   # per workload
# Probe time at the reference host speed: the median probe on a 2-core x86-64
# host with Python 3.11.7, so corrected and raw times agree there on average.
PROBE_REF_S = 0.08


class ChildFailed(Exception):
    pass


def _load(name: str) -> dict:
    with open(os.path.join(ROOT if name == "BENCHMARK.json" else HERE, name),
              encoding="utf-8") as fh:
        return json.load(fh)


def _child(role: str, workload: str, seed: int, seconds: float, size: str,
           deadline: float) -> dict:
    """Run one child process to completion (killing its whole process group
    if it outlives the deadline) and return its JSON result."""
    proc = subprocess.Popen(
        [sys.executable, CHILD, role, workload, str(seed), str(seconds), size],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{role} {workload} ran past the deadline") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{role} {workload} exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _recorded_problems(workload: str, seed: int, size: str, got: dict) -> list[str]:
    """Compare run count, step total and digest with the recorded values."""
    want = _load("recorded.json")["checks"].get(str(seed), {}).get(workload)
    if size != "full" or want is None:
        return []
    return [f"{key} {got[key]} differs from recorded {want[key]}"
            for key in ("runs", "sim_steps", "digest") if got[key] != want[key]]


def end_to_end(workload: str, seed: int, seconds: float, size: str,
               units: dict) -> tuple[dict, int, int, list[str]]:
    deadline = time.monotonic() + DEADLINE_S
    samples = SETUP_SAMPLES if size == "full" else 1
    setups = [_child("setup", workload, seed, 0, size, deadline) for _ in range(samples)]
    check = _child("check", workload, seed, 0, size, deadline)
    meas = _child("measure", workload, seed, seconds, size, deadline)
    runs = check["runs"]
    recorded = _recorded_problems(workload, seed, size, check)
    problems = check["problems"] + check["outcome_problems"] + recorded + meas["problems"]
    failed = runs if (check["outcome_problems"] or recorded) else check["failed_runs"]
    bad = sum(h != check["outcome"] for h in meas["outcomes"])
    failed += runs * bad
    if bad:
        problems.append(f"{bad} timed passes failed their checks or returned "
                        f"other outputs than the checked pass")
    attempted = max(1, runs * (1 + len(meas["outcomes"])))
    probes = meas["probes"]
    wall = statistics.median(w * PROBE_REF_S * 2 / (a + b)
                             for w, a, b in zip(meas["walls"], probes, probes[1:]))
    metrics = {
        "setup_s": statistics.median(r["setup_s"] * PROBE_REF_S / r["probe_s"]
                                     for r in setups),
        "wall_s": wall,
        "runs_per_s": runs / wall,
        "steps_per_s": check["sim_steps"] / wall,
        "peak_rss_mb": meas["peak_rss_mb"],
    }
    raw_wall = statistics.median(meas["walls"])
    raw = {"setup_raw_s": statistics.median(r["setup_s"] for r in setups),
           "wall_raw_s": raw_wall, "runs_per_raw_s": runs / raw_wall,
           "probe_s": statistics.median(probes)}
    print(f"workload={workload} seed={seed} size={size} passes={len(meas['walls'])} "
          f"setup samples={samples} runs/pass={runs} sim_steps/pass={check['sim_steps']} "
          f"digest={check['digest'][:16]}")
    shown = dict(units, failed_ratio="ratio", setup_raw_s="s", wall_raw_s="s",
                 runs_per_raw_s="runs/s", probe_s="s")
    for name, value in dict(metrics, failed_ratio=failed / attempted, **raw).items():
        print(f"  {name:<14} {value:.6g} {shown[name]}")
    return metrics, attempted, failed, problems


def per_layer(workload: str, seed: int, seconds: float, size: str,
              units: dict) -> tuple[dict, int, int, list[str]]:
    res = _child("trace", workload, seed, seconds, size, time.monotonic() + DEADLINE_S)
    runs = res["runs"]
    recorded = _recorded_problems(workload, seed, size, res)
    problems = res["problems"] + res["outcome_problems"] + recorded
    bad = sum(h != res["outcomes"][-1] or h == "failed" for h in res["outcomes"])
    failed = res["failed_runs"] + runs * (bad + bool(recorded))
    if bad:
        problems.append(f"{bad} units failed their checks or returned other outputs "
                        f"than the last traced unit")
    print(f"workload={workload} seed={seed} size={size} traced units={res['units'] // 3} "
          f"runs/unit={runs} sim_steps/unit={res['sim_steps']} "
          f"spans: perfbench/out/spans-{workload}-{seed}.csv")
    for name, value in res["metrics"].items():
        print(f"  {name:<40} {value:.6g} {units[name]}")
    return res["metrics"], max(1, runs * res["units"]), failed, problems


def main(argv=None) -> int:
    bench = _load("BENCHMARK.json")
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, one pass per workload")
    args = p.parse_args(argv)
    size = "smoke" if args.smoke else "full"
    seconds = 0 if args.smoke else args.seconds
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print(f"python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} "
          f"trace={args.trace} seconds={seconds}")
    measure = per_layer if args.trace else end_to_end
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    metrics, attempted, failed, problems = {}, 0, 0, []
    try:
        for name in names:
            m, a, f, pr = measure(name, args.seed, seconds, size, units)
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in m.items()})
            attempted, failed, problems = attempted + a, failed + f, problems + pr
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"  FAIL {problem}")
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""A/B benchmark: alternating pairs of ``perfbench/run.py`` runs on a base
commit and on the working tree, with each metric's median, quartiles and
wins.

    python3 tools/ab_bench.py --workload scan --seed 1 --pairs 10
    python3 tools/ab_bench.py --workload all --base HEAD^ --seconds 8 --pairs 4 \\
        --out BENCH_executor.json
    python3 tools/ab_bench.py --workload scan --trace 1 --pairs 3

The base side is a clean copy of the commit ``--base`` (default ``HEAD``),
exported with ``git archive`` into a temporary directory; the change side is
the working tree.  A pair runs each side once per workload, and the side that
runs first alternates from pair to pair.  Both sides must have the same
``perfbench/`` and ``BENCHMARK.json``, since runs of two different benchmarks
do not compare.  A metric's ``wins`` counts the pairs where the change is
better (``BENCHMARK.json`` says which direction is better; ties count for
neither side).  ``gain`` is true when the change wins at least nine tenths
of the pairs and the medians differ by more than the base runs' interquartile
range.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile

WORKLOADS = ("scan", "growth", "trace", "batch")


def _git(root: str, *args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=root, check=True,
                          capture_output=True).stdout


def _export(root: str, rev: str, dest: str) -> None:
    """The committed files of ``rev`` under ``dest``."""
    archive = tarfile.open(fileobj=io.BytesIO(_git(root, "archive", "--format=tar", rev)))
    kwargs = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    archive.extractall(dest, **kwargs)


def _bench(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``root``: its metric values by name."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {root}: perfbench/run.py exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"error: {root}: {workload} run is not correct:\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def _spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def summarize(base: list[dict], change: list[dict], metrics: dict) -> dict:
    """Per metric: each side's median, quartiles and runs, the change in the
    median, wins of the change over the pairs and whether a gain is shown."""
    out = {}
    for name, (unit, better) in metrics.items():
        b, c = [r[name] for r in base], [r[name] for r in change]
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(b, c))
        bs, cs = _spread(b), _spread(c)
        delta = cs["median"] - bs["median"]
        out[name] = {
            "unit": unit, "better": better, "base": bs, "change": cs,
            "change_pct": 100 * delta / bs["median"] if bs["median"] else None,
            "wins": wins, "pairs": len(b),
            "gain": wins >= 0.9 * len(b) and sign * delta > bs["q3"] - bs["q1"]}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed phase per run (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1 compares the per-layer metrics instead")
    p.add_argument("--base", default="HEAD", help="commit to compare against")
    p.add_argument("--out", help="write the summary to this JSON file")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")

    root = _git(os.getcwd(), "rev-parse", "--show-toplevel").decode().strip()
    if subprocess.run(["git", "diff", "--quiet", args.base, "--", "perfbench",
                       "BENCHMARK.json"], cwd=root).returncode != 0:
        raise SystemExit(f"error: perfbench/ or BENCHMARK.json differs from {args.base}; "
                         "runs of different benchmarks do not compare")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    metrics = {m["name"]: (m["unit"], m["better"])
               for m in bench["per_layer" if args.trace else "end_to_end"]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    base_rev = _git(root, "rev-parse", args.base).decode().strip()
    dirty = _git(root, "status", "--porcelain", "--untracked-files=no").strip()
    change_rev = _git(root, "rev-parse", "HEAD").decode().strip() + ("+dirty" if dirty else "")

    runs: dict = {name: {"base": [], "change": []} for name in names}
    # On SIGTERM, unwind like an error: subprocess.run kills the running
    # benchmark and the temporary copy of the base is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(f"stopped by signal {signum}"))
    with tempfile.TemporaryDirectory(prefix="ab-bench-") as base_root:
        _export(root, base_rev, base_root)
        for i in range(args.pairs):
            order = (("base", base_root), ("change", root))
            for name in names:
                for side, where in order if i % 2 == 0 else order[::-1]:
                    runs[name][side].append(
                        _bench(where, name, args.seed, seconds, args.trace))
                print(f"pair {i + 1}/{args.pairs} {name} done", file=sys.stderr)

    report = {"base": base_rev, "change": change_rev, "python": platform.python_version(),
              "nproc": len(os.sched_getaffinity(0)), "seed": args.seed, "seconds": seconds,
              "trace": args.trace, "pairs": args.pairs,
              "workloads": {name: summarize(r["base"], r["change"], metrics)
                            for name, r in runs.items()}}
    for name, table in report["workloads"].items():
        for metric, s in table.items():
            b, c = s["base"], s["change"]
            pct = "n/a" if s["change_pct"] is None else f"{s['change_pct']:+.1f}%"
            print(f"{name:<7} {metric:<40} base {b['median']:.6g} [{b['q1']:.6g}, "
                  f"{b['q3']:.6g}]  change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]"
                  f"  {pct}  wins {s['wins']}/{s['pairs']}{'  gain' if s['gain'] else ''}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Subcommands: ``run`` a machine on a word or batch file, ``verify`` a named
check suite, ``bench`` step growth, ``gen`` instance batch files.  Builtin
machine names: ``mk:<k>``, ``tk:<k>``, ``lprime``, ``anbn:linear``,
``anbn:quadratic``; anywhere a machine is named, a path to a machine spec
file works too.  ``QMLAB_WORKERS`` overrides the worker count for suites.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import analysis, specfile
from .growth import fit_growth
from .machine import (ExecutionFault, InputSymbolError, Verdict, executor_for, run,
                      validate_spec)
from .machines import builtin
from .oracles import (gen_anbn_cases, gen_fk_cases, gen_lprime_cases, in_lprime,
                      read_batch, write_batch)

EXIT_OK = 0
EXIT_FAIL = 1          # failed checks, rejected input, batch mismatch
EXIT_USAGE = 2         # unknown machine, suite or arguments
EXIT_IO = 3            # unreadable or unwritable file
EXIT_LIMIT = 4         # step limit exceeded
EXIT_FAULT = 5         # execution fault

_EPILOG = """exit codes:
  0  all checks passed / input accepted
  1  a check failed, the input was rejected, or a batch case mismatched
  2  usage error: unknown machine, suite or arguments
  3  unreadable or unwritable file
  4  step limit exceeded
  5  execution fault in the machine
"""

# The flags each verify suite reads besides --format; with --batch the lprime
# suite reads only --batch and --max-steps.  main() rejects any other flag.
VERIFY_FLAGS = {"lprime": ("k_max", "cases", "seed", "exhaustive_len", "workers"),
                "fk": ("cases", "seed", "workers"),
                "anbn": ("len_max",),
                "formulas": ("k_max", "seed"),
                "pi": ("k_max", "seed")}
# The largest --k-max of the pi and formulas suites, whose cost doubles with
# each step of k: pi builds pi_order(2**k), formulas runs lprime through about
# 2**(k+1) tail steps.
SUITE_K_MAX = 16
# Flags that count something; main() rejects a negative value for each.
_COUNT_FLAGS = ("max_steps", "k_max", "cases", "len_max", "exhaustive_len", "count",
                "min_exp", "max_exp")


def _resolve_machine(ref: str):
    try:
        return builtin(ref)
    except KeyError as exc:
        reason = exc.args[0]
    if os.path.exists(ref):
        spec = specfile.load(ref)
        report = validate_spec(spec)
        if not report.ok:
            raise ValueError("invalid machine file: " + "; ".join(report.violations))
        return spec
    raise KeyError(f"unknown machine {ref!r}: {reason}, and no such file")


def _cmd_run(args) -> int:
    try:
        spec = _resolve_machine(args.machine)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    if args.dump_spec:
        specfile.dump(spec, args.dump_spec)
        print(f"wrote machine spec to {args.dump_spec}")
        if args.input is None and args.batch is None:
            return EXIT_OK
    if args.batch is not None:
        return _run_batch(spec, args)
    try:
        res = run(spec, args.input, max_steps=args.max_steps,
                  trace=args.trace is not None)
    except InputSymbolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write("\n".join(res.trace.to_lines()) + "\n")
    line = f"verdict={res.verdict.value} steps={res.steps} output={res.output}"
    if res.fault:
        line += f" fault={res.fault}"
    print(line)
    return {Verdict.ACCEPT: EXIT_OK, Verdict.REJECT: EXIT_FAIL,
            Verdict.STEP_LIMIT: EXIT_LIMIT, Verdict.FAULT: EXIT_FAULT}[res.verdict]


def _run_cases(spec, args):
    """Run every case of ``args.batch`` on one executor.  Returns the list of
    ``(case, result)`` pairs, or an exit code after a one-line error."""
    try:
        cases = read_batch(args.batch)
    except (OSError, ValueError) as exc:   # unreadable file or malformed line
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    ex = executor_for(spec)
    results = []
    for i, case in enumerate(cases):
        try:
            results.append((case, ex.run(case.word, max_steps=args.max_steps)))
        except InputSymbolError as exc:
            print(f"error: batch case {i}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    return results


def _run_batch(spec, args) -> int:
    results = _run_cases(spec, args)
    if isinstance(results, int):
        return results
    failures = 0
    for i, (case, res) in enumerate(results):
        if case.expected.startswith("output="):
            ok = res.output == case.expected[len("output="):] and res.accepted
            got = f"output={res.output}"
        else:
            ok = res.verdict.value == case.expected
            got = res.verdict.value
        if not ok:
            failures += 1
            print(f"FAIL case {i} tag={case.tag} word={case.word} "
                  f"expected={case.expected} got={got}")
    print(f"batch {args.batch}: {len(results) - failures}/{len(results)} cases matched")
    return EXIT_OK if failures == 0 else EXIT_FAIL


def _cmd_verify(args) -> int:
    suite = args.suite
    if suite not in VERIFY_FLAGS:
        print(f"error: unknown suite {suite!r}; known: {', '.join(VERIFY_FLAGS)}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        workers = analysis.effective_workers(args.workers)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    k_max = {} if args.k_max is None else {"k_max": args.k_max}   # else the suite's default
    seed = 1 if args.seed is None else args.seed
    cases = 200 if args.cases is None else args.cases
    if suite == "pi":
        checks = analysis.pi_suite(seed=seed, **k_max)
    elif suite == "formulas":
        checks = analysis.formulas_suite(seed=seed, **k_max)
    elif suite == "lprime":
        if args.batch is not None:
            return _verify_batch_against_oracle(args)
        checks = analysis.lprime_structured_suite(
            cases_per_clause=cases, seed=seed, workers=workers, **k_max)
        if args.exhaustive_len:
            scan = analysis.lprime_exhaustive_scan(args.exhaustive_len, workers)
            checks.append(analysis.Check(
                "lprime:exhaustive", scan.ok,
                f"words={scan.words_checked} max-len={args.exhaustive_len}"
                + (f" mismatches={list(scan.mismatches)}" if scan.mismatches else "")))
    elif suite == "fk":
        checks = analysis.fk_suite(cases_per_k=cases, seed=seed,
                                   workers=workers)
    else:  # anbn
        checks = analysis.anbn_suite(**({} if args.len_max is None else {"max_len": args.len_max}))
    checks = sorted(checks, key=lambda c: c.case_id)
    lines = [c.line() for c in checks]
    failures = sum(1 for c in checks if not c.ok)
    summary = f"verify suite={suite} seed={seed} checks={len(checks)} failures={failures}"
    if args.format == "json":
        print(json.dumps({"suite": suite, "seed": seed,
                          "checks": [{"id": c.case_id, "ok": c.ok, "detail": c.detail}
                                     for c in checks],
                          "failures": failures}, indent=2, sort_keys=True))
    else:
        print("\n".join(lines + [summary]))
    return EXIT_OK if failures == 0 else EXIT_FAIL


def _verify_batch_against_oracle(args) -> int:
    results = _run_cases(builtin("lprime"), args)
    if isinstance(results, int):
        return results
    failures = 0
    for i, (case, res) in enumerate(results):
        want = in_lprime(case.word)
        ok = (res.accepted == want
              and case.expected == ("accept" if want else "reject"))
        if not ok:
            failures += 1
            print(f"FAIL case {i} tag={case.tag} expected={case.expected} "
                  f"oracle={'accept' if want else 'reject'} got={res.verdict.value}")
    print(f"verify suite=lprime batch={args.batch} cases={len(results)} failures={failures}")
    return EXIT_OK if failures == 0 else EXIT_FAIL


def _default_exponents(machine: str) -> range:
    # The quadratic rotator would need ~2**32 steps at 2**16 input symbols;
    # post-mode machines get a smaller default range.
    return range(4, 12) if machine.startswith("anbn:") else range(8, 17)


def _cmd_bench(args) -> int:
    name = args.machine
    lo = args.min_exp if args.min_exp is not None else _default_exponents(name).start
    hi = args.max_exp if args.max_exp is not None else _default_exponents(name).stop - 1
    if hi < lo or hi - lo < 3:
        print("error: need at least 4 sizes (max-exp >= min-exp + 3)", file=sys.stderr)
        return EXIT_USAGE
    try:
        series = analysis.growth_series(name, range(lo, hi + 1), seed=args.seed)
        report = fit_growth([(n, steps) for n, steps, _ in series])
    except (KeyError, ValueError) as exc:   # no such builtin; sizes too small to fit
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    rows = [f"{n},{steps},{max_len},accept" for n, steps, max_len in series]
    if args.format == "json":
        text = json.dumps({
            "machine": name, "seed": args.seed,
            "rows": [{"n": n, "steps": s, "max_len": m, "verdict": "accept"}
                     for n, s, m in series],
            "fitted_exponent": round(report.fitted_exponent, 6),
            "max_ratio": round(report.max_ratio, 6),
            "min_ratio": round(report.min_ratio, 6),
            "verdict": report.verdict}, indent=2, sort_keys=True)
    else:
        text = "\n".join(
            ["n,steps,max_len,verdict"] + rows
            + [f"# machine={name} seed={args.seed}"
               f" fitted_exponent={report.fitted_exponent:.6f}"
               f" max_ratio={report.max_ratio:.6f} min_ratio={report.min_ratio:.6f}"
               f" verdict={report.verdict}"])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {len(series)} rows to {args.out} (verdict={report.verdict})")
    else:
        print(text)
    return EXIT_OK


def _cmd_gen(args) -> int:
    k_max = {} if args.k_max is None else {"k_max": args.k_max}   # else the builder's default
    if args.family == "lprime":
        cases = gen_lprime_cases(args.count, args.seed, **k_max)
    elif args.family == "fk":
        cases = gen_fk_cases(args.count, args.seed, **k_max)
    else:  # anbn; argparse admits only the three families
        cases = gen_anbn_cases(args.count, args.seed)
    try:
        write_batch(args.out, cases)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {len(cases)} cases to {args.out}")
    return EXIT_OK


def _flag_error(args) -> str | None:
    """The error for a missing flag, or for a flag the command would not read."""
    if args.command == "run" and args.input is not None and args.batch is not None:
        return "give --input or --batch, not both"
    if args.command == "run" and args.trace is not None and args.input is None:
        return "--trace needs --input"
    if args.command == "run" and args.input is None and args.batch is None and not args.dump_spec:
        return "need --input, --batch or --dump-spec"
    if args.command == "gen" and args.family == "anbn" and args.k_max is not None:
        return "--k-max does not apply to the anbn family"
    if args.command != "verify" or args.suite not in VERIFY_FLAGS:
        return None
    if args.batch is not None and args.suite != "lprime":
        return "--batch applies only to the lprime suite"
    if args.max_steps is not None and args.batch is None:
        return "--max-steps applies only with --batch"
    reads = () if args.batch is not None else VERIFY_FLAGS[args.suite]
    for flag in ("seed", "k_max", "cases", "len_max", "exhaustive_len", "workers"):
        if getattr(args, flag) is not None and flag not in reads:
            where = "with --batch" if args.batch is not None else f"to the {args.suite} suite"
            return f"--{flag.replace('_', '-')} does not apply {where}"
    if args.suite in ("pi", "formulas") and args.k_max is not None and args.k_max > SUITE_K_MAX:
        return f"--k-max for the {args.suite} suite must be <= {SUITE_K_MAX}, not {args.k_max}"
    return None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # main() prints it as one line and returns 2, instead of argparse's
        # usage text and SystemExit.  Unrecognized arguments are not quoted.
        raise argparse.ArgumentError(None, message.replace("\n", "\\n"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qmlab",
        description="simulation lab for queue, pushdown and tracked-tape machines",
        epilog=_EPILOG, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a machine on an input word or batch file")
    p_run.add_argument("--machine", required=True,
                       help="builtin name (mk:<k>, tk:<k>, lprime, anbn:linear, "
                            "anbn:quadratic) or path to a machine spec file")
    p_run.add_argument("--input", help="input word")
    p_run.add_argument("--batch", help="batch file of word/expected/tag lines")
    p_run.add_argument("--trace", help="write the step trace to this path")
    p_run.add_argument("--dump-spec", help="write the machine spec file to this path")
    p_run.add_argument("--max-steps", type=int, default=None)
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="run a named check suite")
    p_verify.add_argument("--suite", required=True,
                          help=f"one of: {', '.join(VERIFY_FLAGS)}")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--k-max", type=int, default=None)
    p_verify.add_argument("--cases", type=int, default=None,
                          help="cases per clause (lprime) or per k (fk)")
    p_verify.add_argument("--len-max", type=int, default=None,
                          help="exhaustive word length for the anbn suite")
    p_verify.add_argument("--exhaustive-len", type=int, default=None,
                          help="also scan all shape-plausible words up to this length "
                               "(lprime suite)")
    p_verify.add_argument("--batch", help="check a generated lprime batch file instead")
    p_verify.add_argument("--max-steps", type=int, default=None,
                          help="step limit per batch case (with --batch only)")
    p_verify.add_argument("--workers", type=int, default=None)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=_cmd_verify)

    p_bench = sub.add_parser("bench", help="benchmark step growth of a machine")
    p_bench.add_argument("--machine", required=True)
    p_bench.add_argument("--min-exp", type=int, default=None,
                         help="smallest input size as a power of two (default 8; "
                              "4 for anbn)")
    p_bench.add_argument("--max-exp", type=int, default=None,
                         help="largest input size as a power of two (default 16; "
                              "11 for anbn)")
    p_bench.add_argument("--seed", type=int, default=3)
    p_bench.add_argument("--out", help="write the CSV/JSON report to this path")
    p_bench.add_argument("--format", choices=("csv", "json"), default="csv")
    p_bench.set_defaults(func=_cmd_bench)

    p_gen = sub.add_parser("gen", help="generate an instance batch file")
    p_gen.add_argument("--family", required=True, choices=("lprime", "fk", "anbn"))
    p_gen.add_argument("--count", type=int, default=100)
    p_gen.add_argument("--k-max", type=int, default=None)
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for flag in _COUNT_FLAGS:
            value = getattr(args, flag, None)   # each subcommand takes some of them
            if value is not None and value < 0:
                parser.error(f"--{flag.replace('_', '-')} must be >= 0, not {value}")
        problem = _flag_error(args)
        if problem:
            parser.error(problem)
    except argparse.ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except ExecutionFault as exc:
        print(f"fault: {exc}", file=sys.stderr)
        return EXIT_FAULT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

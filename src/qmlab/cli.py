"""Command-line entry point.

Subcommands: ``run`` a machine on a word or batch file, ``verify`` a named
check suite, ``bench`` step growth, ``gen`` instance batch files.  Builtin
machine names: ``mk:<k>``, ``tk:<k>``, ``lprime``, ``anbn:linear``,
``anbn:quadratic``; anywhere a machine is named, a path to a machine spec
file works too.  ``QMLAB_WORKERS`` overrides the worker count for suites.

Errors go one way: a command raises ``_Exit(code, message)`` or lets an
``OSError`` (exit 3) escape, and ``main`` alone prints ``error: <message>``.
A closed stdout is the one quiet exit 3: the reader has gone, so there is no
one to tell.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import analysis, specfile
from .growth import fit_growth
from .machine import InputSymbolError, Verdict, executor_for, run, validate_spec
from .machines import MAX_MK, builtin
from .oracles import (gen_anbn_cases, gen_fk_cases, gen_lprime_cases, in_lprime,
                      read_batch, write_batch)

EXIT_OK = 0
EXIT_FAIL = 1          # failed checks, rejected input, batch mismatch
EXIT_USAGE = 2         # unknown machine, suite or arguments
EXIT_IO = 3            # unreadable or unwritable file, or a closed stdout
EXIT_LIMIT = 4         # step limit exceeded
EXIT_FAULT = 5         # execution fault

_EPILOG = """exit codes:
  0  all checks passed / input accepted
  1  a check failed, the input was rejected, or a batch case mismatched
  2  usage error: unknown machine, suite or arguments
  3  unreadable or unwritable file, or stdout closed by its reader
  4  step limit exceeded
  5  execution fault in the machine
"""

# The function each verify suite and gen family calls.  Its parameters are
# the flags the suite or family reads and its defaults are theirs; main()
# rejects any other flag.  With --batch the lprime suite reads only --batch
# and --max-steps.
VERIFY_SUITES = {"lprime": analysis.lprime_suite, "fk": analysis.fk_suite,
                 "anbn": analysis.anbn_suite, "formulas": analysis.formulas_suite,
                 "pi": analysis.pi_suite}
GEN_FAMILIES = {"lprime": gen_lprime_cases, "fk": gen_fk_cases, "anbn": gen_anbn_cases}


def _parameters(fn) -> tuple[str, ...]:
    """The names of ``fn``'s parameters, in order, read off its code object."""
    return fn.__code__.co_varnames[:fn.__code__.co_argcount]


VERIFY_FLAGS = {name: _parameters(fn) for name, fn in VERIFY_SUITES.items()}
# The largest value of each size flag whose cost at least doubles with each
# step: --k-max wherever it is an exponent and bench --max-exp build words of
# about 2**k symbols; --len-max and --exhaustive-len run at least 2**k words.
SUITE_K_MAX = 16
BENCH_MAX_EXP = 20
# anbn:quadratic takes t*t + 2*t steps on a**t b**t: a series up to 2**13
# symbols costs about 22 M steps, one up to 2**20 about 2.7e11.
QUADRATIC_MAX_EXP = 13
# Flags that count something; _flag_error() rejects a negative value for each.
_COUNT_FLAGS = ("max_steps", "k_max", "cases", "len_max", "exhaustive_len", "count",
                "min_exp", "max_exp", "workers")


class _Exit(Exception):
    """``_Exit(code, message)``: main() prints ``error: <message>`` and returns ``code``."""


def _resolve_machine(ref: str):
    try:
        return builtin(ref)
    except KeyError as exc:
        reason = exc.args[0]
    if not os.path.exists(ref):
        raise _Exit(EXIT_USAGE, f"unknown machine {ref!r}: {reason}, and no such file")
    try:
        spec = specfile.load(ref)
    except ValueError as exc:   # malformed or not UTF-8
        raise _Exit(EXIT_IO, exc) from None
    report = validate_spec(spec)
    if not report.ok:
        raise _Exit(EXIT_IO, "invalid machine file: " + "; ".join(report.violations))
    return spec


def _cmd_run(args) -> int:
    spec = _resolve_machine(args.machine)
    if args.dump_spec:
        specfile.dump(spec, args.dump_spec)
        print(f"wrote machine spec to {args.dump_spec}")
        if args.input is None and args.batch is None:
            return EXIT_OK
    if args.batch is not None:
        return _check_batch(spec, args, _expected_judge,
                            lambda n, failed: f"batch {args.batch}: {n - failed}/{n} "
                                              "cases matched")
    try:
        res = run(spec, args.input, max_steps=args.max_steps,
                  trace=args.trace is not None)
    except InputSymbolError as exc:
        raise _Exit(EXIT_USAGE, exc) from None
    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8") as fh:
            res.trace.write(fh)
    line = f"verdict={res.verdict.value} steps={res.steps} output={res.output}"
    if res.fault:
        line += f" fault={res.fault}"
    print(line)
    return {Verdict.ACCEPT: EXIT_OK, Verdict.REJECT: EXIT_FAIL,
            Verdict.STEP_LIMIT: EXIT_LIMIT, Verdict.FAULT: EXIT_FAULT}[res.verdict]


def _check_batch(spec, args, judge, summary) -> int:
    """Run every case of ``args.batch`` on one executor, then print a FAIL line
    for each case that ``judge`` finds a fault in and ``summary(cases,
    failures)``.  A bad file or case is an error and prints no report."""
    try:
        cases = read_batch(args.batch)
    except ValueError as exc:   # malformed line
        raise _Exit(EXIT_IO, exc) from None
    ex = executor_for(spec)
    fails = []
    for i, case in enumerate(cases):
        try:
            res = ex.run(case.word, max_steps=args.max_steps)
        except InputSymbolError as exc:
            raise _Exit(EXIT_USAGE, f"batch case {i}: {exc}") from None
        if fault := judge(case, res):
            fails.append(f"FAIL case {i} tag={case.tag} {fault}")
    print("\n".join(fails + [summary(len(cases), len(fails))]))
    return EXIT_OK if not fails else EXIT_FAIL


def _expected_judge(case, res) -> str | None:
    """Compares the verdict string with the expected field, or the output of an
    accepting run with an ``output=`` field."""
    if case.expected.startswith("output="):
        ok = res.output == case.expected[len("output="):] and res.accepted
        got = f"output={res.output}"
    else:
        ok = res.verdict.value == case.expected
        got = res.verdict.value
    return None if ok else f"word={case.word} expected={case.expected} got={got}"


def _oracle_judge(case, res) -> str | None:
    """Checks the expected field against in_lprime, and that the run accepts
    exactly the members: any run that does not accept is a rejection."""
    want = in_lprime(case.word)
    if res.accepted == want and case.expected == ("accept" if want else "reject"):
        return None
    return (f"expected={case.expected} oracle={'accept' if want else 'reject'} "
            f"got={res.verdict.value}")


def _arguments(args, fn) -> dict:
    """Each parameter of ``fn``: its flag's value if given, else its default."""
    params = _parameters(fn)
    # __defaults__ holds the defaults of the last parameters, in order.
    defaults = dict(zip(reversed(params), reversed(fn.__defaults__)))
    return {p: defaults[p] if getattr(args, p) is None else getattr(args, p) for p in params}


def _cmd_verify(args) -> int:
    try:
        analysis.effective_workers(args.workers)   # a bad --workers or QMLAB_WORKERS: exit 2
    except ValueError as exc:
        raise _Exit(EXIT_USAGE, exc) from None
    if args.batch is not None:
        return _check_batch(builtin("lprime"), args, _oracle_judge,
                            lambda n, failed: f"verify suite=lprime batch={args.batch} "
                                              f"cases={n} failures={failed}")
    suite = VERIFY_SUITES[args.suite]
    arguments = _arguments(args, suite)
    checks = sorted(suite(**arguments), key=lambda c: c.case_id)
    seed = arguments.get("seed", 1)   # the anbn suite takes no seed and reports 1
    lines = [c.line() for c in checks]
    failures = sum(1 for c in checks if not c.ok)
    summary = f"verify suite={args.suite} seed={seed} checks={len(checks)} failures={failures}"
    if args.format == "json":
        print(json.dumps({"suite": args.suite, "seed": seed,
                          "checks": [{"id": c.case_id, "ok": c.ok, "detail": c.detail}
                                     for c in checks],
                          "failures": failures}, indent=2, sort_keys=True))
    else:
        print("\n".join(lines + [summary]))
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
        raise _Exit(EXIT_USAGE, "need at least 4 sizes (max-exp >= min-exp + 3)")
    try:
        series = analysis.growth_series(name, range(lo, hi + 1), seed=args.seed)
        report = fit_growth([(n, steps) for n, steps, _ in series])
    except (KeyError, ValueError) as exc:   # no such builtin; sizes too small to fit
        raise _Exit(EXIT_USAGE, exc.args[0]) from None
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
    family = GEN_FAMILIES[args.family]
    cases = family(**_arguments(args, family))
    write_batch(args.out, cases)
    print(f"wrote {len(cases)} cases to {args.out}")
    return EXIT_OK


def _flag_error(args) -> str | None:
    """The error for a negative count, for a missing flag, or for a flag the
    command would not read."""
    for flag in _COUNT_FLAGS:
        value = getattr(args, flag, None)   # each subcommand takes some of them
        if value is not None and value < 0:
            return f"--{flag.replace('_', '-')} must be >= 0, not {value}"
    if args.command == "run" and args.input is not None and args.batch is not None:
        return "give --input or --batch, not both"
    if args.command == "run" and args.trace is not None and args.input is None:
        return "--trace needs --input"
    if args.command == "run" and args.input is None and args.batch is None and not args.dump_spec:
        return "need --input, --batch or --dump-spec"
    if args.command == "bench" and args.max_exp is not None and args.max_exp > BENCH_MAX_EXP:
        return f"--max-exp must be <= {BENCH_MAX_EXP}, not {args.max_exp}"
    if (args.command == "bench" and args.machine == "anbn:quadratic"
            and args.max_exp is not None and args.max_exp > QUADRATIC_MAX_EXP):
        return f"--max-exp for anbn:quadratic must be <= {QUADRATIC_MAX_EXP}, not {args.max_exp}"
    if args.command == "verify":
        table, name, kind, batch = VERIFY_SUITES, args.suite, "suite", args.batch
    elif args.command == "gen":
        table, name, kind, batch = GEN_FAMILIES, args.family, "family", None
    else:
        return None
    if name not in table:
        return f"unknown suite {name!r}; known: {', '.join(table)}"
    if batch is not None and name != "lprime":
        return "--batch applies only to the lprime suite"
    if args.command == "verify" and args.max_steps is not None and batch is None:
        return "--max-steps applies only with --batch"
    reads = () if batch is not None else _parameters(table[name])
    for flag in vars(args):   # in the parser's order
        if (getattr(args, flag) is not None and flag not in reads
                and any(flag in _parameters(fn) for fn in table.values())):
            where = "with --batch" if batch is not None else f"to the {name} {kind}"
            return f"--{flag.replace('_', '-')} does not apply {where}"
    if (args.command, name) == ("gen", "fk"):
        # Here --k-max counts streams, and no builtin runs more than mk:64.
        if args.k_max is not None and not 1 <= args.k_max <= MAX_MK:
            return f"--k-max for the fk family must be in 1..{MAX_MK}, not {args.k_max}"
        return None
    for flag in ("k_max", "len_max", "exhaustive_len"):
        if flag in reads and (value := getattr(args, flag)) is not None and value > SUITE_K_MAX:
            return (f"--{flag.replace('_', '-')} for the {name} {kind} must be "
                    f"<= {SUITE_K_MAX}, not {value}")
    return None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # One line and exit 2, instead of argparse's usage text and
        # SystemExit.  Unrecognized arguments are not quoted.
        raise _Exit(EXIT_USAGE, message.replace("\n", "\\n"))


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
    p_gen.add_argument("--family", required=True, choices=tuple(GEN_FAMILIES))
    p_gen.add_argument("--count", type=int, default=None)
    p_gen.add_argument("--k-max", type=int, default=None)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if problem := _flag_error(args):
            raise _Exit(EXIT_USAGE, problem)
        return args.func(args)
    except BrokenPipeError:
        # The reader closed stdout (``| head``): no error line, and stdout
        # goes to the null device so that the flush at exit writes nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    except (_Exit, OSError) as exc:   # an OSError is an unreadable or unwritable file
        code, message = exc.args if isinstance(exc, _Exit) else (EXIT_IO, exc)
        print(f"error: {message}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

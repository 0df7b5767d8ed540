"""Acceptance suite: one test per shipping criterion, each printing a
pass/fail line.  Tolerances are pinned here, not configurable.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy scans fan out
over QMLAB_WORKERS processes (default: all cores, capped at 8).
"""

import os
import subprocess
import sys

import pytest

from qmlab.analysis import (
    anbn_suite,
    fk_suite,
    growth_report,
    lprime_exhaustive_scan,
    lprime_structured_suite,
    lprime_timing,
)
from qmlab.machine import Verdict, check_bounded_delay, run
from qmlab.machines import (
    build_lprime_acceptor,
    pi,
    pi_order,
    predicted_cycle_length,
    predicted_tail_steps,
)
from qmlab.oracles import gen_lprime, pi_by_halving, SplitMix64

K_RANGE = range(0, 11)          # tag lengths for the riffle-copy criteria
EXHAUSTIVE_LEN = 13             # full scan bound for criterion 3
STRUCTURED_PER_CLAUSE = 10000   # structured cases per clause for criterion 3
GROWTH_EXPONENTS = range(8, 17)     # 2**8 .. 2**16 input symbols
ANBN_EXPONENTS = range(4, 12)       # pair counts 8 .. 1024


def report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def timings():
    return {k: lprime_timing(gen_lprime(k, 4242 + k)) for k in K_RANGE}


def test_criterion_1_exact_cycle_lengths(timings):
    """Queue length at the start of cleanup cycle i equals
    2**(k-i+1) + 2*(k-i+1) + 1 exactly, for every k in 0..10."""
    bad = []
    for k, t in timings.items():
        expected = tuple(predicted_cycle_length(k, i) for i in range(1, k + 2))
        if t.verdict is not Verdict.ACCEPT or t.cycle_lengths != expected:
            bad.append((k, t.cycle_lengths, expected))
    report(1, not bad,
           f"cycle-length schedule exact for k in 0..10, zero tolerance"
           f"{'; mismatches: ' + str(bad) if bad else ''}")


def test_criterion_2_exact_tail_steps(timings):
    """Steps after the stored prefix equal 2 + 2**(k+1) - 1 + k*k + 2*k + 1
    exactly, for every k in 0..10."""
    bad = [(k, t.tail_steps, predicted_tail_steps(k)) for k, t in timings.items()
           if t.tail_steps != predicted_tail_steps(k)]
    report(2, not bad,
           "tail steps == closed form for k in 0..10"
           f"{'; mismatches: ' + str(bad) if bad else ''}")


def test_criterion_3_lprime_agreement():
    """Machine/oracle agreement: exhaustively on every shape-plausible word
    up to length 13, and on >= 10**4 structured cases per clause for k <= 10."""
    scan = lprime_exhaustive_scan(EXHAUSTIVE_LEN)
    checks = lprime_structured_suite(cases_per_clause=STRUCTURED_PER_CLAUSE,
                                     k_max=10, seed=31337)
    structured_ok = all(c.ok for c in checks)
    detail = (f"exhaustive scan: {scan.words_checked} words <= len {EXHAUSTIVE_LEN}, "
              f"{len(scan.mismatches)} mismatches; structured: "
              + "; ".join(c.line() for c in checks))
    report(3, scan.ok and structured_ok and scan.words_checked == 3080193, detail)


def test_criterion_4_linear_time_certification():
    """fit_growth says linear (slope <= 1.05, ratio spread <= 3) for the
    riffle-copy acceptor and both interleavers, k in 1..3, sizes 2**8..2**16."""
    rows = []
    ok = True
    for name in ["lprime", "mk:1", "mk:2", "mk:3", "tk:1", "tk:2", "tk:3"]:
        rep = growth_report(name, GROWTH_EXPONENTS)
        rows.append(f"{name}: slope={rep.fitted_exponent:.4f} "
                    f"spread={rep.max_ratio / rep.min_ratio:.3f} {rep.verdict}")
        ok = ok and rep.linear
    report(4, ok, "; ".join(rows))


def test_criterion_5_interleaver_equivalence():
    """Queue machine, tape machine and direct evaluation give identical
    outputs on 1000 seeded instances per k in {1, 2, 3}."""
    checks = fk_suite(cases=1000, seed=2718)
    report(5, all(c.ok for c in checks), "; ".join(c.line() for c in checks))


def test_criterion_6_riffle_bijection_and_oracle():
    """The riffle permutation is a bijection and matches the halving-scan
    oracle on every power-of-two length up to 2**12."""
    ok = True
    for k in range(13):
        n = 1 << k
        ok = ok and sorted(pi_order(n)) == list(range(n))
        word = SplitMix64(k).letters(n)
        ok = ok and pi(word) == pi_by_halving(word)
    report(6, ok, "bijection and oracle equality for lengths 2**0 .. 2**12")


def test_criterion_7_bounded_delay_on_prefix(timings):
    """On the stored-prefix region the acceptor reads one symbol per step:
    bounded delay holds at the documented constant d = 0 (and so at d <= 4)."""
    spec = build_lprime_acceptor()
    ok = True
    delays = []
    for k in K_RANGE:
        inst = gen_lprime(k, 99 + k)
        res = run(spec, inst.render(), trace=True)
        region = (1, inst.prefix_length)
        ok = ok and check_bounded_delay(res.trace, region, 0)
        ok = ok and check_bounded_delay(res.trace, region, 4)
        delays.append(timings[k].prefix_min_delay)
    report(7, ok and set(delays) == {0},
           f"prefix region real-time for k in 0..10 (measured d = 0, bound 4)")


def test_criterion_8_post_machine_demonstration():
    """Both post-mode acceptors agree with the predicate exhaustively to
    length 14; the halving variant fits linear, the rotating variant fits
    with slope >= 1.9 over pair counts 8..1024."""
    checks = anbn_suite(len_max=14)
    exhaustive_ok = all(c.ok for c in checks if "exhaustive" in c.case_id)
    lin = growth_report("anbn:linear", ANBN_EXPONENTS)
    quad = growth_report("anbn:quadratic", ANBN_EXPONENTS)
    ok = (exhaustive_ok and lin.linear and not quad.linear
          and quad.fitted_exponent >= 1.9)
    report(8, ok,
           f"exhaustive to 14: {'ok' if exhaustive_ok else 'FAILED'}; "
           f"linear slope={lin.fitted_exponent:.4f} ({lin.verdict}); "
           f"quadratic slope={quad.fitted_exponent:.4f}")


def test_criterion_9_reproducible_reports():
    """Two verify runs with equal seeds produce byte-identical reports."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    cmd = [sys.executable, "-m", "qmlab", "verify", "--suite", "formulas",
           "--k-max", "6", "--seed", "77"]
    a = subprocess.run(cmd, capture_output=True, env=env).stdout
    b = subprocess.run(cmd, capture_output=True, env=env).stdout
    cmd2 = [sys.executable, "-m", "qmlab", "verify", "--suite", "lprime",
            "--cases", "60", "--k-max", "4", "--seed", "77"]
    c = subprocess.run(cmd2, capture_output=True, env=env).stdout
    d = subprocess.run(cmd2, capture_output=True, env=env).stdout
    ok = a == b and len(a) > 0 and c == d and len(c) > 0
    report(9, ok, f"formulas report {len(a)} bytes, lprime report {len(c)} bytes, "
                  f"identical across equal-seed runs")

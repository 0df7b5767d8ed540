#!/usr/bin/env python3
"""Print observed vs predicted cleanup-cycle schedules for the riffle-copy
acceptor, then run the formulas and pi verify suites.

Usage: python scripts/check_formulas.py [k_max]

Exits 1 when a table row mismatches or a suite fails, else 0.
"""

import sys

from qmlab.analysis import lprime_timing
from qmlab.cli import main
from qmlab.oracles import gen_lprime


def table(k_max: int) -> bool:
    """Print the table; True iff every row matches its prediction."""
    print(f"{'k':>3} {'prefix':>7} {'tail':>7} {'predicted':>9}  cycle lengths")
    all_ok = True
    for k in range(k_max + 1):
        t = lprime_timing(gen_lprime(k, 2000 + k))
        all_ok &= t.ok
        mark = "" if t.ok else "  <-- MISMATCH"
        print(f"{k:>3} {t.prefix_length:>7} {t.tail_steps:>7} "
              f"{t.predicted_tail:>9}  {list(t.cycle_lengths)}{mark}")
    return all_ok


if __name__ == "__main__":
    k_max = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    code = 0 if table(k_max) else 1
    code = max(code, main(["verify", "--suite", "formulas", "--k-max", str(k_max)]))
    code = max(code, main(["verify", "--suite", "pi"]))
    sys.exit(code)

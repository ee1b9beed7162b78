#!/usr/bin/env python3
"""Sweep the finite-field oracle over every parameter of the given ranks.

Prints one JSON report line per (parameter, field) pair and exits 3 if any
comparison fails.

Example:
    python3 scripts/oracle_sweep.py --max-n 3 --sp2-fields 2 4 --exotic-fields 3 5
"""

import argparse
import json
import sys
import time

from springerbc.cli import pipe_safe, reported
from springerbc.fforacle import verify_against_formula
from springerbc.gf import field
from springerbc.params import check_rank
from springerbc.theory import EXOTIC, SP2


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=3)
    ap.add_argument("--sp2-fields", type=int, nargs="*", default=[2, 4])
    ap.add_argument("--exotic-fields", type=int, nargs="*", default=[3, 5])
    args = ap.parse_args()

    check_rank(args.max_n, "oracle")  # the top rank, before the first rank runs
    t0 = time.perf_counter()
    sweeps = [
        (SP2, [field(q) for q in args.sp2_fields]),
        (EXOTIC, [field(q) for q in args.exotic_fields]),
    ]
    # a field of the wrong characteristic is refused before the first report
    for theory, fields in sweeps:
        for F in fields:
            theory.standard_model(theory.rank1[0], F)
    failed = 0
    for n in range(1, args.max_n + 1):
        for theory, fields in sweeps:
            for F in fields:
                for p in theory.enumerate(n):
                    rep = verify_against_formula(p, F)
                    failed += not rep["pass"]
                    print(json.dumps(rep))
    print(
        f"# {failed} failures, {time.perf_counter() - t0:.1f}s", file=sys.stderr
    )
    return 3 if failed else 0


if __name__ == "__main__":
    sys.exit(pipe_safe(reported, main))

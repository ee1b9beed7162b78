#!/usr/bin/env python3
"""Sweep the finite-field oracle over every parameter of the given ranks.

Prints one JSON report line per (parameter, field) pair and exits 3 if any
comparison fails.  A summary on stderr gives the number of failures, the
time taken, the kernel lines walked, the lines walked per second and the
process's peak resident set size.

``--max-len L`` keeps, at each rank, the parameters whose kernel is
small: l(lam) <= L for sp2, and max(l(mu), l(nu)) <= L for exotic (the
kernel of the standard model has dimension l(lam), or twice that
maximum).  A sweep with no rank or no field is refused with exit 2, as is
L < 1, so that no empty sweep reads as a pass.

Example:
    python3 scripts/oracle_sweep.py --max-n 3 --sp2-fields 2 4 --exotic-fields 3 5
    python3 scripts/oracle_sweep.py --max-n 12 --max-len 2 --exotic-fields
"""

import argparse
import json
import resource
import sys
import time

from springerbc.cli import pipe_safe, reported
from springerbc.errors import InvalidParam
from springerbc.fforacle import verify_against_formula
from springerbc.gf import field
from springerbc.params import check_rank
from springerbc.theory import EXOTIC, SP2


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=3)
    ap.add_argument("--sp2-fields", type=int, nargs="*", default=[2, 4])
    ap.add_argument("--exotic-fields", type=int, nargs="*", default=[3, 5])
    ap.add_argument("--max-len", type=int, help="largest l(lam) or max(l(mu), l(nu))")
    args = ap.parse_args()

    # each refused before the first report, as is an oversized rank
    if args.max_n < 1:
        raise InvalidParam(f"--max-n must be >= 1, got {args.max_n}")
    if args.max_len is not None and args.max_len < 1:
        raise InvalidParam(f"--max-len must be >= 1, got {args.max_len}")
    if not (args.sp2_fields or args.exotic_fields):
        raise InvalidParam("no field to sweep: --sp2-fields and --exotic-fields are empty")
    check_rank(args.max_n, "oracle")  # the top rank, before the first rank runs
    t0 = time.perf_counter()
    sweeps = [
        (SP2, [field(q) for q in args.sp2_fields], lambda p: len(p.lam)),
        (
            EXOTIC,
            [field(q) for q in args.exotic_fields],
            lambda b: max(len(b.mu), len(b.nu)),
        ),
    ]
    # a field of the wrong characteristic is refused before the first report
    for theory, fields, _ in sweeps:
        for F in fields:
            theory.standard_model(theory.rank1[0], F)
    failed = lines = 0
    for n in range(1, args.max_n + 1):
        for theory, fields, length in sweeps:
            params = [
                p for p in theory.enumerate(n)
                if args.max_len is None or length(p) <= args.max_len
            ]
            for F in fields:
                for p in params:
                    rep = verify_against_formula(p, F)
                    failed += not rep["pass"]
                    # every kernel line walked is tallied or has an empty fibre
                    lines += sum(rep["tally"].values()) + rep["empty_fiber"]
                    print(json.dumps(rep))
    seconds = time.perf_counter() - t0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(
        f"# {failed} failures, {seconds:.1f}s, {lines} kernel lines,"
        f" {lines / seconds:.0f} lines/s, {peak_mb:.1f} MB peak RSS",
        file=sys.stderr,
    )
    return 3 if failed else 0


if __name__ == "__main__":
    sys.exit(pipe_safe(reported, main))

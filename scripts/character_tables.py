#!/usr/bin/env python3
"""Print the restriction identities and character-value table for a rank.

Example:
    python3 scripts/character_tables.py --theory exotic --n 3
"""

import argparse
import sys

from springerbc.cli import charsum_text, pipe_safe, reported
from springerbc.errors import InvalidParam
from springerbc.evaluator import value_table
from springerbc.qpoly import poly_to_text
from springerbc.theory import THEORIES


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--theory", choices=tuple(THEORIES), required=True)
    ap.add_argument("--n", type=int, required=True)
    args = ap.parse_args()

    if args.n < 1:  # refused before any output, as ``springerbc equivalence`` does
        raise InvalidParam(f"--n must be >= 1, got {args.n}")
    theory = THEORIES[args.theory]
    rows = value_table(args.n, args.theory)  # refuses an oversized rank first
    print(f"# restriction identities, rank {args.n}")
    for p, *_ in rows:
        print(f"Res({p}) = {charsum_text(theory.restrict(p))}")

    print(f"\n# character values, rank {args.n}")
    for p, vid, vs1 in rows:
        print(f"{p}\n  at id: {poly_to_text(vid)}\n  at s1: {poly_to_text(vs1)}")


if __name__ == "__main__":
    sys.exit(pipe_safe(reported, main))

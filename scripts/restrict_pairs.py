#!/usr/bin/env python3
"""Time one theory's restriction layer (``--theory``, sp2 by default) of
two source trees in one process, in alternating pairs.

Each tree's ``springerbc`` is loaded under a module name of its own.  A
pair times each side once, the side that goes first alternating from pair
to pair:

- ``point_<theory>_s``: the theory's queries of the first pass of the
  benchmark's ``point`` workload at seed 1 (bench/workloads.py), each
  cold, after ``clear_cache()``;
- ``restrict_s``: the theory's graded restriction (``restrict_symplectic``
  or ``restrict_exotic``) on every parameter those queries restrict, in
  the order they restrict them, recorded query by query in an untimed
  run.  Each query's restrictions run cold, after an untimed
  ``clear_cache()``, as they do within the query: the part moves and
  coefficients that the package memoizes until ``clear_cache()`` carry
  over neither from one query to the next nor from the ``point`` pass.

It prints one JSON line per pair, then a summary line.  For each metric
the summary gives each side's quartiles (first, median, third), the pairs
the change won (its time lower) and the verdict of ``bench/compare.py``
under the bound BENCHMARK.json sets for the theory's end-to-end time
(``sp2_s`` or ``exotic_s``).

Example:
    python3 scripts/restrict_pairs.py PARENT/src src --pairs 30
    python3 scripts/restrict_pairs.py PARENT/src src --theory exotic
"""

import argparse
import gc
import importlib.util
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from compare import quartiles, verdict  # noqa: E402
from workloads import Point  # noqa: E402

SIDES = ("parent", "change")
GRADED = {"sp2": "restrict_symplectic", "exotic": "restrict_exotic"}


def load(src, name):
    """The package under ``src`` as the module ``name``."""
    pkg = Path(src) / "springerbc"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Side:
    def __init__(self, sb, theory):
        self.sb, self.formula = sb, GRADED[theory]
        self.queries = [
            (p, w) for th, p, w in Point(sb, 1).pass_input(0) if th == theory
        ]
        restrict = sb.restrict
        graded = getattr(restrict, self.formula)
        self.groups = []  # per query, the parameters it restricts

        def recorded(p):
            self.groups[-1].append(p)
            return graded(p)

        setattr(restrict, self.formula, recorded)  # the evaluator reads it per miss
        try:
            for p, w in self.queries:
                self.groups.append([])
                sb.evaluator.clear_cache()
                sb.evaluator.value(p, w)
        finally:
            setattr(restrict, self.formula, graded)

    def point(self):
        ev = self.sb.evaluator
        total = 0.0
        for p, w in self.queries:
            ev.clear_cache()
            t0 = time.perf_counter()
            ev.value(p, w)
            total += time.perf_counter() - t0
        return total

    def restrict(self):
        graded = getattr(self.sb.restrict, self.formula)
        clear_cache = self.sb.evaluator.clear_cache
        total = 0.0
        for group in self.groups:
            clear_cache()
            t0 = time.perf_counter()
            for p in group:
                graded(p)
            total += time.perf_counter() - t0
        return total

    def measure(self):
        gc.collect()
        point = self.point()
        gc.collect()
        return point, self.restrict()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("parent", help="the src/ directory of the parent tree")
    ap.add_argument("change", help="the src/ directory of the changed tree")
    ap.add_argument("--pairs", type=int, default=30)
    ap.add_argument("--theory", choices=sorted(GRADED), default="sp2")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error(f"--pairs must be >= 1, got {args.pairs}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == f"{args.theory}_s")
    metrics = (f"point_{args.theory}_s", "restrict_s")
    sides = {
        side: Side(load(getattr(args, side), f"springerbc_{side}"), args.theory)
        for side in SIDES
    }
    counts = {side: sum(map(len, s.groups)) for side, s in sides.items()}
    if counts["parent"] != counts["change"]:
        sys.exit(f"the two trees make different numbers of restrictions: {counts}")
    times = {m: {side: [] for side in SIDES} for m in metrics}
    for k in range(args.pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        row = {"pair": k + 1, "first": order[0]}
        for side in order:
            for m, t in zip(metrics, sides[side].measure()):
                times[m][side].append(t)
        for m in metrics:
            row[m] = {side: times[m][side][-1] for side in SIDES}
        print(json.dumps(row), flush=True)
    summary = {"pairs": args.pairs, "restrict_calls": counts["change"]}
    for m, by_side in times.items():
        parent, change = by_side["parent"], by_side["change"]
        won = sum(c < p for p, c in zip(parent, change))
        summary[m] = {
            "parent_quartiles": quartiles(parent),
            "change_quartiles": quartiles(change),
            "change_won": f"{won} of {args.pairs}",
            "verdict": verdict(parent, change, won / args.pairs, bound, lower=True),
        }
    print(json.dumps(summary))


if __name__ == "__main__":
    main()

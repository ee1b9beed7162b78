#!/usr/bin/env python3
"""Summarise or compare sets of benchmark results.

    python3 bench/compare.py RESULTS.jsonl               # spread of one set
    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl   # parent against change

Each file holds the JSON lines ``bench/run.py --results FILE`` appended,
one per run; traced runs are skipped.  For every workload and end-to-end
metric of BENCHMARK.json it prints the median and quartiles of each set.

With one set, ``spread`` is the quartile distance as a share of the median,
next to the metric's bound.  With two sets, runs are paired by seed (in
file order where seeds differ), and ``won`` is the share of pairs in which
the change reads better, ties counting for neither side.  The verdict:

- ``gain``: the change wins at least 9 of 10 pairs and the medians differ
  by more than the parent's quartile distance;
- ``REGRESSION``: the change's median is worse than the parent's by more
  than the bound;
- ``unresolved``: the parent's own spread exceeds the bound, unless every
  change run reads better than every parent run;
- ``same``: none of these.

Each workload ends with one row giving its overall verdict.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            prov, res = rec["provenance"], rec["result"]
            if prov["trace"]:
                continue
            runs.setdefault(prov["workload"], []).append(
                {
                    "seed": prov["seed"],
                    "failed": res["failed"],
                    "attempted": res["attempted"],
                    "metrics": {k: m["value"] for k, m in res["metrics"].items()},
                }
            )
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def pairs(a_runs, b_runs):
    b_by_seed = {r["seed"]: r for r in b_runs}
    if len(b_by_seed) == len(b_runs) and all(r["seed"] in b_by_seed for r in a_runs):
        return [(r, b_by_seed[r["seed"]]) for r in a_runs]
    return list(zip(a_runs, b_runs))


def verdict(a, b, won, bound, lower):
    """Verdict for parent values ``a`` and change values ``b``."""
    a_q1, a_med, a_q3 = quartiles(a)
    _, b_med, _ = quartiles(b)
    gain = (a_med - b_med) if lower else (b_med - a_med)
    if won >= 0.9 and gain > a_q3 - a_q1:
        return "gain"
    if (a_q3 - a_q1) / a_med > bound:
        all_better = max(b) < min(a) if lower else min(b) > max(a)
        return "better in every run" if all_better else "unresolved"
    if -gain > bound * a_med:
        return "REGRESSION"
    return "same"


def fmt(x):
    return f"{x:.4g}"


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [load(p) for p in argv]
    for wl in (w["name"] for w in spec["workloads"]):
        if any(wl not in s for s in sets):
            print(f"{wl}: no untraced runs in every set")
            continue
        worst = []
        for m in spec["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            vals = [[r["metrics"][name] for r in s[wl]] for s in sets]
            cells = []
            for v in vals:
                q1, med, q3 = quartiles(v)
                cells.append(f"n={len(v)} {fmt(med)} [{fmt(q1)}, {fmt(q3)}]")
            if len(sets) == 1:
                q1, med, q3 = quartiles(vals[0])
                spread = (q3 - q1) / med
                flag = "ok" if spread <= bound else "WIDE"
                print(f"{wl:7} {name:12} {m['unit']:5} {cells[0]}  "
                      f"spread={spread:.3f} bound={bound} {flag}")
                continue
            ps = pairs(sets[0][wl], sets[1][wl])
            wins = sum(
                (b["metrics"][name] < a["metrics"][name]) if lower
                else (b["metrics"][name] > a["metrics"][name])
                for a, b in ps
            )
            won = wins / len(ps)
            v = verdict(vals[0], vals[1], won, bound, lower)
            worst.append((name, v))
            print(f"{wl:7} {name:12} {m['unit']:5} parent {cells[0]}  "
                  f"change {cells[1]}  won={won:.2f} bound={bound}  {v}")
        fails = [sum(r["failed"] for r in s[wl]) for s in sets]
        if len(sets) == 2:
            regressed = [n for n, v in worst if v == "REGRESSION"]
            unresolved = [n for n, v in worst if v == "unresolved"]
            gains = [n for n, v in worst if v == "gain"]
            if fails[1] > fails[0]:
                row = f"more failed checks ({fails[1]} vs {fails[0]})"
            elif regressed:
                row = "REGRESSION in " + ", ".join(regressed)
            elif unresolved:
                row = "unresolved: " + ", ".join(unresolved)
            else:
                row = "no regression" + ("; gain in " + ", ".join(gains) if gains else "")
            print(f"{wl:7} VERDICT  {row}")
        else:
            print(f"{wl:7} failed checks: {fails[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Command-line front end.

One subcommand per library operation, with stable text and JSON output so
the tool can back golden tests and scripted sweeps.  Exit codes: 0 on
success, 2 on parse or validity errors, 3 when a verification command
(oracle, equivalence) finds a mismatch.
"""

import argparse
import json
import sys

from .errors import InvalidParam, SpringerError
from .evaluator import value, value_table
from .fforacle import verify_against_formula
from .gf import field
from .params import iota, iota_inv, paving_predicates, to_limit_symbol
from .qpoly import ONE, poly_to_text
from .restrict import check_equivalence
from .theory import EXOTIC, SP2, THEORIES


def _coeff_text(poly, descending):
    text = poly_to_text(poly, descending=descending)
    nterms = sum(1 for c in poly if c)
    return f"({text})" if nterms > 1 else text


def charsum_text(cs, descending=True):
    parts = []
    for param, coeff in cs.items():
        target = f"({param})"
        if coeff == ONE:
            parts.append(target)
        else:
            parts.append(f"{_coeff_text(coeff, descending)}·{target}")
    return " + ".join(parts) if parts else "0"


def charsum_json(cs, rank):
    return {
        "rank": rank,
        "terms": [
            {"param": str(param), "coeff": list(coeff)}
            for param, coeff in cs.items()
        ],
    }


def _emit_json(obj):
    print(json.dumps(obj))


def cmd_restrict(args):
    th = THEORIES[args.theory]
    param = th.parse(args)
    cs = th.restrict_q1(param) if args.q1 else th.restrict(param)
    if args.format == "json":
        _emit_json(charsum_json(cs, param.rank - 1))
    else:
        print(charsum_text(cs, descending=not args.ascending))
    return 0


def cmd_value(args):
    param = THEORIES[args.theory].parse(args)
    poly = value(param, args.at)
    if args.format == "json":
        _emit_json(
            {
                "param": str(param),
                "at": args.at,
                "coeff": list(poly),
                "poly": poly_to_text(poly, descending=not args.ascending),
            }
        )
    else:
        print(poly_to_text(poly, descending=not args.ascending))
    return 0


def cmd_table(args):
    rows = value_table(args.n, args.theory)
    desc = not args.ascending
    if args.format == "json":
        _emit_json(
            [
                {
                    "param": str(p),
                    "id": list(vid),
                    "s1": list(vs1),
                    "id_poly": poly_to_text(vid, descending=desc),
                    "s1_poly": poly_to_text(vs1, descending=desc),
                }
                for p, vid, vs1 in rows
            ]
        )
    else:
        for p, vid, vs1 in rows:
            print(
                f"{p}\t{poly_to_text(vid, descending=desc)}"
                f"\t{poly_to_text(vs1, descending=desc)}"
            )
    return 0


def cmd_iota(args):
    if args.inverse:
        out = str(iota_inv(EXOTIC.parse(args)))
    else:
        out = str(iota(SP2.parse(args)))
    if args.format == "json":
        _emit_json({"param": out})
    else:
        print(out)
    return 0


def cmd_symbol(args):
    b = EXOTIC.parse(args)
    sym = to_limit_symbol(b, args.r, args.s, args.m)
    if args.format == "json":
        _emit_json(
            {
                "top": list(sym.top),
                "bottom": list(sym.bottom),
                "r": sym.r,
                "s": sym.s,
                "m": sym.m,
            }
        )
    else:
        print(f"top=[{','.join(str(x) for x in sym.top)}]")
        print(f"bottom=[{','.join(str(x) for x in sym.bottom)}]")
    return 0


def cmd_oracle(args):
    param = THEORIES[args.theory].parse(args)
    report = verify_against_formula(param, field(args.q), jobs=args.jobs)
    if args.format == "json":
        _emit_json(report)
    else:
        state = "PASS" if report["pass"] else "FAIL"
        print(f"param {report['param']} q={report['q']}: {state}")
        for key in report["formula"]:
            print(
                f"  {key}: tally={report['tally'].get(key, 0)}"
                f" formula={report['formula'][key]}"
            )
        print(f"  empty_fiber={report['empty_fiber']}")
    return 0 if report["pass"] else 3


def cmd_equivalence(args):
    if args.n < 1:
        raise InvalidParam(f"--n must be >= 1, got {args.n}")
    all_ok = True
    for n in range(1, args.n + 1):
        report = check_equivalence(n)
        for param, ok, detail in report.rows:
            state = "ok" if ok else f"MISMATCH {detail}"
            if args.format != "json":
                print(f"n={n} {param}: {state}")
            all_ok = all_ok and ok
        if args.format == "json":
            _emit_json(
                {
                    "n": n,
                    "pass": report.passed,
                    "params": [
                        {"param": str(p), "pass": ok, "detail": detail}
                        for p, ok, detail in report.rows
                    ],
                }
            )
    return 0 if all_ok else 3


def cmd_enumerate(args):
    texts = [str(p) for p in THEORIES[args.theory].enumerate(args.n)]
    if args.format == "json":
        _emit_json(texts)
    else:
        for text in texts:
            print(text)
    return 0


def cmd_paving(args):
    param = SP2.parse(args)
    lemma, theorem = paving_predicates(param)
    if args.format == "json":
        _emit_json({"lemma_hypothesis": lemma, "theorem_applies": theorem})
    else:
        print(
            f"lemma_hypothesis={'true' if lemma else 'false'} "
            f"theorem_applies={'true' if theorem else 'false'}"
        )
    return 0


def _add_common(sp, theory=True, param=True, fmt=True):
    if theory:
        sp.add_argument("--theory", choices=("sp2", "exotic"), required=True)
    if param:
        sp.add_argument("--param", help="sp2 parameter text, e.g. \"2^2_1\"")
        sp.add_argument("--mu", help="partition text, e.g. [5,3,1] or []")
        sp.add_argument("--nu", help="partition text, e.g. [4,2] or []")
    if fmt:
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument(
            "--ascending",
            action="store_true",
            help="print polynomials ascending by degree (default descending)",
        )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="springerbc",
        description="Restriction formulas and graded character values for the"
        " two rank-n Springer theories of type BC.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("restrict", help="restriction of one parameter")
    _add_common(sp)
    sp.add_argument("--q1", action="store_true", help="ungraded (q=1) formula")
    sp.set_defaults(func=cmd_restrict)

    sp = sub.add_parser("value", help="character value at id or s1")
    _add_common(sp)
    sp.add_argument("--at", choices=("id", "s1"), required=True)
    sp.set_defaults(func=cmd_value)

    sp = sub.add_parser("table", help="value table for a whole rank")
    _add_common(sp, param=False)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("iota", help="the parameter bijection, either way")
    _add_common(sp, theory=False)
    sp.add_argument("--inverse", action="store_true")
    sp.set_defaults(func=cmd_iota)

    sp = sub.add_parser("symbol", help="limit-symbol encoding of a bipartition")
    _add_common(sp, theory=False)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.set_defaults(func=cmd_symbol)

    sp = sub.add_parser("oracle", help="finite-field brute-force verification")
    _add_common(sp)
    sp.add_argument("--q", type=int, required=True, help="field size")
    sp.add_argument("--jobs", type=int, default=1)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("equivalence", help="cross-check the two formulas")
    _add_common(sp, theory=False, param=False)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=cmd_equivalence)

    sp = sub.add_parser("enumerate", help="list all parameters of a rank")
    _add_common(sp, param=False)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("paving", help="affine-paving predicates of a parameter")
    _add_common(sp, theory=False)
    sp.set_defaults(func=cmd_paving)

    return parser


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (SpringerError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Command-line front end.

One subcommand per library operation, with stable text and JSON output so
the tool can back golden tests and scripted sweeps.  Each ``cmd_*``
returns its JSON documents (one per output line), its text and, for the
verification commands (oracle, equivalence), an exit code; ``run`` alone
prints.  Exit codes: 0 on success, 2 on bad input (a parse or validity
error) or a broken internal invariant, 3 when a verification command finds
a mismatch, 1 when the reader of stdout goes away before the output is
written (as ``| head`` does).
"""

import argparse
import json
import os
import sys

from .errors import InvalidParam, InvariantViolation
from .evaluator import value, value_table
from .fforacle import verify_against_formula
from .gf import field
from .params import check_rank, iota, iota_inv, paving_predicates, to_limit_symbol
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


def cmd_restrict(args):
    th = THEORIES[args.theory]
    param = th.parse(args)
    cs = th.restrict_q1(param) if args.q1 else th.restrict(param)
    return [charsum_json(cs, param.rank - 1)], charsum_text(cs, not args.ascending)


def cmd_value(args):
    param = THEORIES[args.theory].parse(args)
    poly = value(param, args.at)
    text = poly_to_text(poly, descending=not args.ascending)
    doc = {"param": str(param), "at": args.at, "coeff": list(poly), "poly": text}
    return [doc], text


def cmd_table(args):
    desc = not args.ascending
    doc, lines = [], []
    for p, vid, vs1 in value_table(args.n, args.theory):
        name = str(p)
        t_id = poly_to_text(vid, desc)
        t_s1 = poly_to_text(vs1, desc)
        doc.append(dict(param=name, id=list(vid), s1=list(vs1),
                        id_poly=t_id, s1_poly=t_s1))
        lines.append(f"{name}\t{t_id}\t{t_s1}")
    return [doc], "\n".join(lines)


def cmd_iota(args):
    if args.inverse:
        out = str(iota_inv(EXOTIC.parse(args)))
    else:
        out = str(iota(SP2.parse(args)))
    return [{"param": out}], out


def cmd_symbol(args):
    sym = to_limit_symbol(EXOTIC.parse(args), args.r, args.s, args.m)
    doc = dict(top=list(sym.top), bottom=list(sym.bottom), r=sym.r, s=sym.s, m=sym.m)
    top, bottom = (",".join(map(str, row)) for row in (sym.top, sym.bottom))
    return [doc], f"top=[{top}]\nbottom=[{bottom}]"


def cmd_oracle(args):
    param = THEORIES[args.theory].parse(args)
    report = verify_against_formula(param, field(args.q))
    state = "PASS" if report["pass"] else "FAIL"
    lines = [f"param {report['param']} q={report['q']}: {state}"]
    for key, count in report["formula"].items():
        lines.append(f"  {key}: tally={report['tally'].get(key, 0)} formula={count}")
    lines.append(f"  empty_fiber={report['empty_fiber']}")
    return [report], "\n".join(lines), 0 if report["pass"] else 3


def cmd_equivalence(args):
    if args.n < 1:
        raise InvalidParam(f"--n must be >= 1, got {args.n}")
    check_rank(args.n)  # the top rank, before the first rank runs
    docs, lines = [], []
    for n in range(1, args.n + 1):
        report = check_equivalence(n)
        params = []
        for param, ok, detail in report.rows:
            lines.append(f"n={n} {param}: " + ("ok" if ok else f"MISMATCH {detail}"))
            params.append({"param": str(param), "pass": ok, "detail": detail})
        docs.append({"n": n, "pass": report.passed, "params": params})
    return docs, "\n".join(lines), 0 if all(d["pass"] for d in docs) else 3


def cmd_enumerate(args):
    texts = [str(p) for p in THEORIES[args.theory].enumerate(args.n)]
    return [texts], "\n".join(texts)


def cmd_paving(args):
    lemma, theorem = paving_predicates(SP2.parse(args))
    doc = {"lemma_hypothesis": lemma, "theorem_applies": theorem}
    return [doc], " ".join(f"{key}={json.dumps(v)}" for key, v in doc.items())


def _add_common(sp, theory=True, param=True, polys=False):
    if theory:
        sp.add_argument("--theory", choices=tuple(THEORIES), required=True)
    if param:
        sp.add_argument("--param", help="sp2 parameter text, e.g. \"2^2_1\"")
        sp.add_argument("--mu", help="partition text, e.g. [5,3,1] or []")
        sp.add_argument("--nu", help="partition text, e.g. [4,2] or []")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    if polys:
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
    _add_common(sp, polys=True)
    sp.add_argument("--q1", action="store_true", help="ungraded (q=1) formula")
    sp.set_defaults(func=cmd_restrict)

    sp = sub.add_parser("value", help="character value at id or s1")
    _add_common(sp, polys=True)
    sp.add_argument("--at", choices=("id", "s1"), required=True)
    sp.set_defaults(func=cmd_value)

    sp = sub.add_parser("table", help="value table for a whole rank")
    _add_common(sp, param=False, polys=True)
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


def pipe_safe(program, *args):
    """Return program(*args), an exit status, after flushing stdout.

    When the reader of stdout has gone (``| head``), print no traceback and
    return 1, with stdout pointed at os.devnull so that the flush at exit
    does not raise again.
    """
    try:
        code = program(*args)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def reported(program, *args):
    """Return program(*args), an exit status; on bad input or a broken
    invariant print ``error: ...`` on stderr instead of a traceback and
    return 2."""
    try:
        return program(*args)
    except (InvalidParam, InvariantViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    return reported(_print, args)


def _print(args):
    docs, text, *code = args.func(args)
    if args.format == "json":
        for doc in docs:
            print(json.dumps(doc))
    else:
        print(text)
    return code[0] if code else 0


def main():
    sys.exit(pipe_safe(run, sys.argv[1:]))


if __name__ == "__main__":
    main()

"""The three benchmark workloads: their seeded inputs, one pass each, and the
checks on every output.

The seed only shapes the inputs; the program receives parameter objects
(and, on ``table``, the rank and theory name that ``springerbc table``
takes).  A pass is the unit that is timed and traced:

- ``table``: ``value_table(12, theory)`` for both theories, each row
  formatted as ``springerbc table`` prints it.  The seed picks which theory
  goes first.  Each starts cold, as in a fresh ``springerbc table``
  process: ``clear_cache()`` and a garbage collection, untimed, come
  first, so that neither half pays for what the other left behind.  This
  fills the memo for every parameter of rank <= 12, once per group
  element.
- ``point``: ``POINT_PER_RANK`` sp2 parameters of each of ranks 16, 17
  and 18, each queried cold at each group element ``w``, and the same
  query on the exotic side at ``iota(p)``, in a seeded order.  The
  parameters are fixed: each rank's parameters are sorted by ``cost_key``
  and the ones at evenly spaced quantiles are taken, so that the queries
  span the costs of that rank.  Seeded picks of parameters, or of one
  ``w`` for each, made the cost of a run's queries differ from seed to
  seed by more than the benchmark's bounds allow (a cold query costs from
  15 to 500 ms, and ``w`` changes the cost of a few by a third).
- ``oracle``: ``verify_against_formula`` for every parameter of four
  full-rank sweeps, in a seeded order.

Each pass returns the theory, start and seconds of every timed call and
the number of failed checks.  Timings cover only the program's calls; checks run
after the clock stops.  The clock is ``Workload.clock``, which the
end-to-end run replaces by one that leaves out the calibration kernel's
time (see calibration.py).
"""

import gc
import hashlib
import random
import time
from dataclasses import dataclass, field

TABLE_RANK = 12
# sha256 of the text ``springerbc table --theory <t> --n 12`` prints
TABLE_DIGESTS = {
    "sp2": "a32783a5f97b783ba1f95ebea58d1f10f0d095c26c3807d958eb652fb4898f9c",
    "exotic": "8ec9fc84d614e773f672cdb760afc74713dbed5bcbc91b3c3886a84ea6a682a0",
}
POINT_RANKS = (16, 17, 18)
POINT_PER_RANK = 5
GROUP_ELEMENTS = ("id", "s1")
# (theory, rank, field size): both characteristics, prime and extension fields
ORACLE_SWEEPS = (("sp2", 5, 2), ("sp2", 3, 4), ("exotic", 4, 3), ("exotic", 3, 5))
ORACLE_LINES_PER_PASS = 21736


@dataclass
class PassResult:
    ops: list = field(default_factory=list)  # (theory, start, seconds) of each timed call
    items: int = 0  # rows, queries or kernel lines
    attempted: int = 0
    failed: int = 0

    @property
    def total_s(self):
        return sum(dt for _, _, dt in self.ops)


def line_count(q, d):
    return (q**d - 1) // (q - 1)


def kernel_dim(param):
    """dim ker N of the standard model, from the parameter alone: N has
    Jordan type lam for (lam, chi), and (mu+nu) doubled for (mu, nu)."""
    if hasattr(param, "lam"):
        return len(param.lam)
    return 2 * max(len(param.mu), len(param.nu))


def cost_key(p):
    """Predicted log of the time of a cold ``value(p, w)`` within one rank:
    repeated parts, nonzero and total chi raise it, a large first part and
    many distinct parts lower it.  Fitted by least squares to 300 sampled
    queries of ranks 16-18 (out-of-sample R^2 0.68)."""
    distinct = set(p.lam)
    repeated = sum(1 for r in distinct if p.lam.count(r) > 1)
    nonzero = sum(1 for c in p.chi if c)
    return (
        0.44 * repeated + 0.14 * nonzero + 0.15 * sum(p.chi)
        - 0.12 * p.lam[0] - 0.06 * len(distinct)
    )


class Workload:
    name = None
    lines_per_pass = 0  # kernel lines the oracle enumerates in one pass

    def __init__(self, sb, seed):
        self.sb = sb  # the imported springerbc package
        self.seed = seed
        self.episode = lambda: None  # the traced run marks cold-memo episodes
        self.clock = time.perf_counter

    def pass_input(self, k):
        raise NotImplementedError

    def run_pass(self, inp):
        raise NotImplementedError


class Table(Workload):
    name = "table"

    def __init__(self, sb, seed):
        super().__init__(sb, seed)
        self.text_of = {"sp2": "omega_to_text", "exotic": "bipartition_to_text"}
        self.iota = {p: sb.params.iota(p) for p in sb.params.enumerate_omega(TABLE_RANK)}

    def pass_input(self, k):
        """The order in which the k-th pass runs the two theories."""
        return random.Random(f"table-{self.seed}-{k}").sample(("sp2", "exotic"), 2)

    def run_pass(self, order):
        ev, poly_to_text = self.sb.evaluator, self.sb.qpoly.poly_to_text
        res = PassResult()
        rows, texts = {}, {}
        clock = self.clock
        for theory in order:
            fmt = getattr(self.sb.params, self.text_of[theory])
            ev.clear_cache()
            gc.collect()
            t0 = clock()
            table = ev.value_table(TABLE_RANK, theory)
            text = "".join(
                f"{fmt(p)}\t{poly_to_text(vid)}\t{poly_to_text(vs1)}\n"
                for p, vid, vs1 in table
            )
            dt = clock() - t0
            self.episode()
            res.ops.append((theory, t0, dt))
            rows[theory], texts[theory] = table, text
        exotic = {b: (vid, vs1) for b, vid, vs1 in rows["exotic"]}
        res.items = res.attempted = len(rows["sp2"]) + len(rows["exotic"])
        for p, vid, vs1 in rows["sp2"]:
            if exotic.get(self.iota[p]) != (vid, vs1):
                res.failed += 2
        for theory in ("sp2", "exotic"):
            digest = hashlib.sha256(texts[theory].encode()).hexdigest()
            if digest != TABLE_DIGESTS[theory]:
                res.failed += len(rows[theory])
        res.failed = min(res.failed, res.attempted)
        return res


class Point(Workload):
    name = "point"

    def __init__(self, sb, seed):
        super().__init__(sb, seed)
        self.grid = []
        for n in POINT_RANKS:
            params = sorted(sb.params.enumerate_omega(n), key=cost_key)
            self.grid += [
                params[(2 * i + 1) * len(params) // (2 * POINT_PER_RANK)]
                for i in range(POINT_PER_RANK)
            ]

    def pass_input(self, k):
        """Queries (theory, param, w) of the k-th pass: every grid parameter
        at every ``w``, in a seeded order, each followed by its exotic twin."""
        pairs = [(p, w) for p in self.grid for w in GROUP_ELEMENTS]
        out = []
        for p, w in random.Random(f"point-{self.seed}-{k}").sample(pairs, len(pairs)):
            out.append(("sp2", p, w))
            out.append(("exotic", self.sb.params.iota(p), w))
        return out

    def run_pass(self, queries):
        ev = self.sb.evaluator
        res = PassResult()
        answers = []
        clock = self.clock
        for theory, param, w in queries:
            ev.clear_cache()
            t0 = clock()
            v = ev.value(param, w)
            dt = clock() - t0
            self.episode()
            res.ops.append((theory, t0, dt))
            answers.append(v)
        res.items = res.attempted = len(queries)
        for i in range(0, len(answers), 2):
            if answers[i] != answers[i + 1]:
                res.failed += 2
        return res


class Oracle(Workload):
    name = "oracle"
    lines_per_pass = ORACLE_LINES_PER_PASS

    def __init__(self, sb, seed):
        super().__init__(sb, seed)
        self.items = []
        for theory, n, q in ORACLE_SWEEPS:
            enum = (
                sb.params.enumerate_omega if theory == "sp2"
                else sb.params.enumerate_bipartitions
            )
            F = sb.gf.field(q)
            for p in enum(n):
                self.items.append((theory, p, F, line_count(q, kernel_dim(p))))
        if sum(lines for *_, lines in self.items) != ORACLE_LINES_PER_PASS:
            raise RuntimeError("oracle sweeps changed: line total differs")

    def pass_input(self, k):
        """Every (theory, param, field, kernel lines) item, in the k-th
        pass's order."""
        return random.Random(f"oracle-{self.seed}-{k}").sample(self.items, len(self.items))

    def run_pass(self, items):
        verify = self.sb.fforacle.verify_against_formula
        res = PassResult()
        reports = []
        clock = self.clock
        for theory, param, F, lines in items:
            t0 = clock()
            rep = verify(param, F)
            dt = clock() - t0
            res.ops.append((theory, t0, dt))
            reports.append(rep)
        self.episode()
        res.attempted = len(items)
        for (theory, param, F, lines), rep in zip(items, reports):
            res.items += lines
            seen = sum(rep["tally"].values()) + rep["empty_fiber"]
            if not rep["pass"] or seen != lines:
                res.failed += 1
        return res


WORKLOADS = {w.name: w for w in (Table, Point, Oracle)}

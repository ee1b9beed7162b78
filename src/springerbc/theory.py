"""The two Springer theories of W(BC_n), one ``Theory`` record each.

sp2 (the symplectic Lie algebra in characteristic 2) has the (lam, chi)
parameters and exotic (the exotic nilpotent cone) the bipartitions.  Code
serving both looks a record up, by name in ``THEORIES`` or by parameter
with ``of``, instead of branching on the theory.  Fields that restrict or
build a model read the function off its module at call time, so that a
function rebound there (by a tracer or a test) is the one called.
"""

from types import SimpleNamespace

from . import fforacle, restrict
from .errors import InvalidParam
from .params import (
    Bipartition,
    OmegaParam,
    enumerate_bipartitions,
    enumerate_omega,
    omega_from_text,
)
from .partitions import EMPTY, Partition, partition_from_text


class Theory(SimpleNamespace):
    """What code serving both theories needs of one of them.

    ``name`` is the theory's command-line name and ``param_type`` the class
    of its parameters.  ``enumerate(n)`` lists the rank-n parameters in
    order, ``parse(args)`` reads one from the command-line options,
    ``restrict`` and ``restrict_q1`` are the graded and ungraded
    restrictions, ``standard_model(param, field)`` is the oracle's matrix
    model and ``invariant(model, memo)`` recovers the parameter of a
    model; a tally passes one dict as ``memo`` to all its calls, which
    both invariants fill with work their quotients share (see
    ``fforacle``): ``chi_invariant`` and ``exotic_invariant`` alike keep
    Jordan types and checked parameters there.
    ``rank1`` holds the rank-1 parameter whose values are 1 at id and s1,
    then the one whose values are 1 + q at id and 1 - q at s1.
    ``empty_lines(param, q)`` is the number of kernel lines over GF(q) whose
    fibre is empty.
    """


def _exotic_empty_lines(b, q):
    # ker N has dimension 2l, l = l(mu+nu).  When len(mu) > len(nu), so that
    # l = len(mu), the model vector pairs nontrivially with ker N, and the
    # q^(2l-1) lines off the hyperplane it cuts out have empty fibres;
    # otherwise no line does.  An observed rule: the tests check it against
    # the oracle and, formula-side, at every n <= 12.
    ell = len(b.mu)
    return q ** (2 * ell - 1) if ell > len(b.nu) else 0


def _parse_sp2(args):
    if args.param is None:
        raise InvalidParam("an sp2 parameter needs --param")
    return omega_from_text(args.param)


def _parse_exotic(args):
    if args.mu is None or args.nu is None:
        raise InvalidParam("an exotic parameter needs --mu and --nu")
    return Bipartition(partition_from_text(args.mu), partition_from_text(args.nu))


SP2 = Theory(
    name="sp2",
    param_type=OmegaParam,
    enumerate=enumerate_omega,
    parse=_parse_sp2,
    restrict=lambda p: restrict.restrict_symplectic(p),
    restrict_q1=lambda p: restrict.restrict_symplectic_q1(p),
    standard_model=lambda p, field: fforacle.standard_model_symplectic(p, field),
    invariant=lambda model, memo=None: fforacle.chi_invariant(model, memo),
    rank1=(omega_from_text("2^1_1"), omega_from_text("1^2_0")),
    empty_lines=lambda p, q: 0,  # the model vector is zero
)

EXOTIC = Theory(
    name="exotic",
    param_type=Bipartition,
    enumerate=enumerate_bipartitions,
    parse=_parse_exotic,
    restrict=lambda b: restrict.restrict_exotic(b),
    restrict_q1=lambda b: restrict.restrict_exotic_q1(b),
    standard_model=lambda b, field: fforacle.standard_model_exotic(b, field),
    invariant=lambda model, memo=None: fforacle.exotic_invariant(model, memo),
    rank1=(Bipartition(Partition([1]), EMPTY), Bipartition(EMPTY, Partition([1]))),
    empty_lines=_exotic_empty_lines,
)

THEORIES = {th.name: th for th in (SP2, EXOTIC)}
_BY_TYPE = {th.param_type: th for th in THEORIES.values()}


def of(param):
    """The theory whose parameter ``param`` is."""
    return _BY_TYPE[type(param)]

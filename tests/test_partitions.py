import pytest
from hypothesis import given
from hypothesis import strategies as st

from springerbc.errors import InvalidParam, InvariantViolation
from springerbc.partitions import (
    Partition,
    _drop,
    _lower,
    _run_end,
    _shift,
    partition_from_text,
    partition_to_text,
    partitions_of,
    sum_partitions,
    underlying_set,
    union_partitions,
)

parts_st = st.lists(st.integers(1, 9), max_size=8).map(Partition)


def test_constructor_normalizes():
    assert Partition([1, 3, 0, 2]) == (3, 2, 1)
    assert Partition() == ()
    assert Partition([0, 0]) == ()
    with pytest.raises(InvalidParam, match="^negative part in"):
        Partition([2, -1])


def test_multiplicity_examples():
    # m(r) is a count, m(>= r) the end of the run of r
    p = Partition([6, 4, 4, 3])
    assert p.count(4) == 2
    assert _run_end(p, 4) == 3
    assert _run_end(p, 4, 2) == 3
    assert _run_end(p, 3) == len(p)
    with pytest.raises(InvalidParam, match="not contained in"):
        _run_end(p, 4, 3)
    with pytest.raises(InvalidParam, match="not contained in"):
        _run_end(Partition(), 1)


@given(parts_st)
def test_multiplicity_additivity(p):
    # m(>= s) = m(>= r) + m(s) for adjacent distinct parts r > s
    und = underlying_set(p)
    for r, s in zip(und, und[1:]):
        assert _run_end(p, s) == _run_end(p, r) + p.count(s)


def test_underlying_set_examples():
    assert underlying_set(Partition([6, 4, 4, 3])) == (6, 4, 3)
    assert underlying_set(Partition()) == ()
    assert underlying_set(Partition([2, 2])) == (2,)


def test_union_examples():
    assert union_partitions(Partition([3, 1]), Partition([2, 1])) == (3, 2, 1, 1)
    assert union_partitions(Partition([2, 2]), Partition()) == (2, 2)
    assert union_partitions(Partition([1]), Partition([1])) == (1, 1)


@given(parts_st, parts_st)
def test_union_and_sum_sizes(a, b):
    assert union_partitions(a, b).size == a.size + b.size
    assert sum_partitions(a, b).size == a.size + b.size


def test_sum_example():
    a = Partition([4, 3, 2, 2, 2, 2, 1])
    b = Partition([3, 3, 3, 2, 1, 1])
    assert sum_partitions(a, b) == (7, 6, 5, 4, 3, 3, 1)
    assert sum_partitions(Partition([2]), Partition()) == (2,)
    assert sum_partitions(Partition([1, 1]), Partition([1, 1])) == (2, 2)


def test_lower_and_drop_examples():
    p = Partition([6, 4, 4, 3])
    assert _lower(p, 4, 2) == (6, 3, 3, 3)
    assert _lower(p, 4) == (6, 4, 3, 3)
    assert _lower(Partition([2, 1, 1]), 1, 2) == (2,)  # 1 -> 0 dropped
    assert _drop(p, 4) == (6, 4, 3, 2)
    assert _drop(Partition([3, 2, 2]), 3) == (2, 2, 1)  # after the run of 2
    assert _drop(Partition([2, 2]), 2) == (2,)  # 2 -> 0 dropped
    with pytest.raises(InvalidParam, match="not contained in"):
        _lower(p, 5)
    with pytest.raises(InvalidParam, match="not contained in"):
        _lower(p, 6, 2)
    with pytest.raises(InvalidParam, match="not contained in"):
        _drop(p, 5)
    with pytest.raises(InvalidParam, match="below zero"):
        _drop(Partition([1]), 1)


def test_shift_examples():
    assert _shift(Partition([5, 4, 3, 2]), 1, 6, 1) == (5, 5, 4, 3, 1, 1)
    assert _shift(Partition([5, 4, 3, 2]), 1, 4, -1) == (5, 3, 2, 1)
    assert _shift(Partition([3, 3, 2, 2]), 0, 2, -1) == (2, 2, 2, 2)
    assert _shift(Partition([1]), 1, 1, 1) == (1,)  # empty interval


def test_shift_edge_cases():
    assert _shift(Partition([2, 1]), 1, 2, -1) == (2,)  # 1 -> 0 dropped
    with pytest.raises(InvalidParam, match="exceeds length 2"):
        _shift(Partition([2, 1]), 0, 3, -1)  # interval past the length
    assert _shift(Partition(), 0, 2, 1) == (1, 1)
    # a move that would unsort the parts raises instead of sorting them
    with pytest.raises(InvariantViolation, match="unsorts"):
        _shift(Partition([4, 4, 3, 2]), 1, 3, 1)
    with pytest.raises(InvariantViolation, match="unsorts"):
        _shift(Partition([3, 3, 3, 3]), 1, 3, -1)


@given(st.data())
def test_shift_round_trip_on_strict_partitions(data):
    # strictly decreasing parts keep indices stable under a +1 shift
    raw = data.draw(st.lists(st.integers(1, 20), min_size=1, max_size=6, unique=True))
    p = Partition(raw)
    a = data.draw(st.integers(0, len(p) - 1))
    b = data.draw(st.integers(a + 1, len(p)))
    assert _shift(_shift(p, a, b, 1), a, b, -1) == p


def test_text_round_trip():
    assert partition_to_text(Partition([6, 4, 4, 3])) == "[6,4,4,3]"
    assert partition_to_text(Partition()) == "[]"
    assert partition_from_text("[6,4,4,3]") == (6, 4, 4, 3)
    assert partition_from_text("[]") == ()
    with pytest.raises(ValueError):
        partition_from_text("[1,2]")
    with pytest.raises(ValueError):
        partition_from_text("[0]")
    with pytest.raises(ValueError):
        partition_from_text("3,1")


def _reference_partitions(n, max_part):
    """Partitions of n with parts <= max_part, descending lexicographic,
    by recursion on the first part."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _reference_partitions(n - first, first):
            yield (first,) + rest


def test_partitions_of_matches_the_recursive_reference():
    for n in range(31):
        assert list(partitions_of(n)) == list(_reference_partitions(n, n))
    assert list(partitions_of(0)) == [()]
    assert sum(1 for _ in partitions_of(24)) == 1575
    assert sum(1 for _ in partitions_of(36)) == 17977

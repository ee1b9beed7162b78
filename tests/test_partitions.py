import pytest
from hypothesis import given
from hypothesis import strategies as st

from springerbc.errors import InvalidParam
from springerbc.partitions import (
    Partition,
    multiplicity,
    partition_from_text,
    partition_to_text,
    partitions_of,
    shift,
    substitute,
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
    p = Partition([6, 4, 4, 3])
    assert multiplicity(p, 4, "eq") == 2
    assert multiplicity(p, 4, "geq") == 3
    assert multiplicity(Partition(), 1, "geq") == 0
    with pytest.raises(ValueError):
        multiplicity(p, 4, "gt")


@given(parts_st, st.integers(1, 10))
def test_multiplicity_additivity(p, r):
    assert multiplicity(p, r, "geq") == multiplicity(p, r, "eq") + multiplicity(
        p, r + 1, "geq"
    )


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


def test_substitute_examples():
    p = Partition([6, 4, 4, 3])
    assert substitute(p, (4, 3), (2, 2)) == (6, 4, 2, 2)
    assert substitute(p, (4, 4), (2, 0)) == (6, 3, 2)
    assert substitute(Partition([2, 2]), (2, 2), (1, 1)) == (1, 1)
    with pytest.raises(InvalidParam, match="not contained in"):
        substitute(p, (5,), (1,))
    with pytest.raises(InvalidParam, match="not contained in"):
        substitute(p, (6, 6), (1, 1))


@given(parts_st, st.data())
def test_substitute_identity(p, data):
    k = data.draw(st.integers(0, len(p)))
    idx = data.draw(
        st.lists(st.integers(0, max(len(p) - 1, 0)), min_size=k, max_size=k, unique=True)
        if p
        else st.just([])
    )
    sub = [p[i] for i in idx]
    assert substitute(p, sub, sub) == p


def test_shift_examples():
    assert shift(Partition([4, 4, 3, 2]), "up", 2, 6) == (5, 4, 4, 3, 1, 1)
    assert shift(Partition([5, 4, 3, 2]), "down", 2, 4) == (5, 3, 2, 1)
    assert shift(Partition([3, 3, 3, 3]), "down", 2, 3) == (3, 3, 2, 2)
    assert shift(Partition([1]), "up", 2, 1) == (1,)  # empty interval


def test_shift_edge_cases():
    assert shift(Partition([2, 1]), "down", 2, 2) == (2,)  # 1 -> 0 dropped
    with pytest.raises(InvalidParam, match="exceeds length 2"):
        shift(Partition([2, 1]), "down", 1, 3)  # interval past the length
    assert shift(Partition(), "up", 1, 2) == (1, 1)


@given(st.data())
def test_shift_round_trip_on_strict_partitions(data):
    # strictly decreasing parts keep indices stable under a +1 shift
    raw = data.draw(st.lists(st.integers(1, 20), min_size=1, max_size=6, unique=True))
    p = Partition(raw)
    a = data.draw(st.integers(1, len(p)))
    b = data.draw(st.integers(a, len(p)))
    assert shift(shift(p, "up", a, b), "down", a, b) == p


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

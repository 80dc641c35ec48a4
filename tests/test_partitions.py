import itertools

import pytest
from hypothesis import given, settings, strategies as st

from superchar.partitions import (
    FrobeniusData,
    FrobeniusError,
    GeneralizedPartition,
    Partition,
    _column_lengths,
    bar_conjugate,
    from_frobenius,
    parse_frobenius,
    parse_partition,
    rank,
    split_signs,
    to_frobenius,
    transpose,
)

from oracles import column_lengths


def gen_partitions(max_part: int, length: int):
    for parts in itertools.product(range(max_part, -1, -1), repeat=length):
        if all(parts[i] >= parts[i + 1] for i in range(length - 1)):
            yield parts


def gen_generalized(max_abs: int, length: int):
    for parts in itertools.product(range(max_abs, -max_abs - 1, -1), repeat=length):
        if all(parts[i] >= parts[i + 1] for i in range(length - 1)):
            yield parts


def test_transpose_examples():
    assert transpose(Partition((4, 3, 1, 0, 0))) == Partition((3, 2, 2, 1))
    assert transpose(Partition((0, 0, 0))) == Partition((0,))
    assert transpose(Partition((5,))) == Partition((1, 1, 1, 1, 1))


def test_rank_examples():
    assert rank(Partition((4, 3, 1, 0, 0))) == 2
    assert rank(Partition((0, 0))) == 0
    # rank is the largest i with (lambda*)_i >= i; (3,1,0) has rank 1
    assert rank(GeneralizedPartition((0, -1, -3))) == -1
    with pytest.raises(ValueError):
        rank(GeneralizedPartition((1, -1)))


def test_split_signs_examples():
    plus, minus = split_signs(GeneralizedPartition((2, 0, -1)))
    assert plus == Partition((2, 0, 0)) and minus == GeneralizedPartition((0, 0, -1))
    plus, minus = split_signs(GeneralizedPartition((3, 2, 1)))
    assert plus.parts == (3, 2, 1) and minus.parts == (0, 0, 0)
    plus, minus = split_signs(GeneralizedPartition((-1, -2)))
    assert plus.parts == (0, 0) and minus.parts == (-1, -2)


def test_frobenius_examples():
    data = to_frobenius(Partition((4, 3, 1, 0, 0)))
    assert data.pos_half == (4, 2) and data.pos_int == (2, 0)
    assert not data.neg_half and not data.neg_int
    assert from_frobenius(data) == GeneralizedPartition((4, 3, 1, 0, 0))

    zero = to_frobenius(Partition((0, 0, 0)))
    assert zero.is_zero() and str(zero) == "(0,0)"
    assert from_frobenius(FrobeniusData((), (), (), (), 3)).parts == (0, 0, 0)

    one = to_frobenius(Partition((1,)))
    assert one.pos_half == (1,) and one.pos_int == (0,)


def test_from_frobenius_rejects_named_constraint():
    bad = FrobeniusData((), (), (1, 1), (1, 0), 4)
    with pytest.raises(FrobeniusError) as exc:
        from_frobenius(bad)
    assert exc.value.constraint == "xipos"
    tight = FrobeniusData((), (), (2,), (3,), 3)
    with pytest.raises(FrobeniusError) as exc:
        from_frobenius(tight)
    assert exc.value.constraint == "length"


def test_transpose_involution_and_rank_transpose():
    for d in range(1, 5):
        for parts in gen_partitions(3, d):
            lam = Partition(parts)
            lamT = transpose(lam)
            assert rank(lam) == rank(lamT) <= d
            if not lam.is_zero():
                back = transpose(lamT)
                assert back.parts == tuple(p for p in parts if p > 0) or back == lam


def test_roundtrip_exhaustive_small():
    for d in range(1, 5):
        for parts in gen_generalized(3, d):
            lam = GeneralizedPartition(parts)
            data = to_frobenius(lam)
            data.validate()
            assert from_frobenius(data) == lam
            # Eq. d and Eq. d-neg (the latter as -xi_0 <= d)
            if data.pos_int:
                assert data.pos_int[0] + min(data.pos_half[0], 1) <= d
            if data.neg_int:
                assert -data.neg_int[-1] <= d


def _valid_quartets(dmax: int, bound: int):
    def chains(vals, rmax):
        yield (), ()
        for r in range(1, rmax + 1):
            for half in itertools.combinations(range(bound, 0, -1), r):
                for intg in itertools.combinations(range(bound, -1, -1), r):
                    yield half, intg

    for d in range(1, dmax + 1):
        for ph, pi in chains(range(1, bound + 1), 2):
            for mh, mi in chains(range(1, bound + 1), 2):
                nh = tuple(1 - v for v in reversed(mh))
                ni = tuple(-1 - v for v in reversed(mi))
                data = FrobeniusData(nh, ni, ph, pi, d)
                try:
                    data.validate()
                except FrobeniusError:
                    continue
                yield data


def test_quartet_roundtrip():
    seen = 0
    for data in _valid_quartets(4, 3):
        lam = from_frobenius(data)
        assert to_frobenius(lam) == data
        seen += 1
    assert seen > 100


def test_bar_conjugate():
    assert bar_conjugate(Partition((2, 0, 0, 0)), 4) == Partition((2, 1, 1, 0))
    assert bar_conjugate(Partition((1, 1, 0, 0)), 4) == Partition((1, 1, 0, 0))
    with pytest.raises(ValueError):
        bar_conjugate(Partition((2, 2, 2, 0)), 4)  # lambda'_1 + lambda'_2 = 6 > 4
    # involution on the admissible range
    for n in (2, 3, 4):
        for parts in gen_partitions(3, n):
            lam = Partition(parts)
            cols = transpose(lam).parts if not lam.is_zero() else ()
            c1 = cols[0] if cols else 0
            c2 = cols[1] if len(cols) > 1 else 0
            if c1 + c2 > n:
                continue
            assert bar_conjugate(bar_conjugate(lam, n), n) == lam


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=5))
def test_roundtrip_hypothesis(vals):
    parts = tuple(sorted(vals, reverse=True))
    lam = GeneralizedPartition(parts)
    assert from_frobenius(to_frobenius(lam)) == lam


def test_literals_and_json():
    lam = parse_partition("[4,3,1,0,0]")
    assert lam.parts == (4, 3, 1, 0, 0)
    assert lam.to_json() == {"parts": [4, 3, 1, 0, 0], "length": 5}
    data = parse_frobenius("(4,2|2,0)", 5)
    assert from_frobenius(data).parts == (4, 3, 1, 0, 0)
    gdata = parse_frobenius("(0|-1|2|0)", 3)
    assert from_frobenius(gdata).parts == (2, 0, -1)
    assert parse_frobenius("(0,0)", 3).is_zero()


def test_equality_tracks_declared_length():
    assert Partition((2, 0, 0)) != Partition((2, 0))
    assert Partition((2, 0)) == GeneralizedPartition((2, 0))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-3, 30), max_size=12), st.booleans())
def test_column_lengths_match_counting_parts(vals, ordered):
    # partitions with declared trailing zeros, the zero partition, and the unsorted signed
    # lists fock --hw labels hand over; the count reads a negative part as no box
    parts = tuple(sorted(vals, reverse=True)) if ordered else tuple(vals)
    assert _column_lengths(parts) == column_lengths(parts)
    assert _column_lengths((0,) * len(vals)) == () == column_lengths((0,) * len(vals))

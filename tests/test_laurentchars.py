import itertools
import signal

import pytest

from superchar.laurentchars import (
    DecompositionError,
    GroupTag,
    LaurentPoly,
    char_group,
    classical_char_so_even,
    classical_char_sp,
    decompose_character,
    dimension,
    divexact,
    elementary_laurent,
    is_weyl_symmetric,
    tensor_multiplicity,
    weyl_char_alternant,
)
from superchar.partitions import GeneralizedPartition, Partition, bar_conjugate, transpose

from oracles import (
    dim_so_even,
    dim_so_odd,
    dim_sp,
    klimyk_tensor_sp,
    o2_tensor,
    o3_tensor,
    sl2_tensor,
    so3_char_exponents,
)


def zpow(m, i, k):
    return LaurentPoly.var(m, i, 2 * k)


def test_elementary_laurent_examples():
    assert elementary_laurent(1, 1) == zpow(1, 0, 1) + zpow(1, 0, -1)
    assert elementary_laurent(2, 1) == LaurentPoly.const(1)
    assert elementary_laurent(-1, 1) == 0
    assert elementary_laurent(0, 2) == LaurentPoly.const(2)
    assert elementary_laurent(5, 2) == 0


def test_sp_characters_small():
    assert classical_char_sp(Partition((1,)), 1) == zpow(1, 0, 1) + zpow(1, 0, -1)
    assert classical_char_sp(Partition((2,)), 1) == zpow(1, 0, 2) + 1 + zpow(1, 0, -2)
    assert classical_char_sp(Partition((0,)), 1) == LaurentPoly.const(1)


def test_sp_characters_vs_alternant_and_dims():
    for m in (1, 2):
        for parts in itertools.product(range(3, -1, -1), repeat=m):
            if any(parts[i] < parts[i + 1] for i in range(m - 1)):
                continue
            lam = Partition(parts)
            chi = classical_char_sp(lam, m)
            alt = weyl_char_alternant("C", tuple(2 * p for p in parts), m)
            assert chi == alt, parts
            assert chi.eval_ones() == dim_sp(parts, m)
    # dimension-only checks at higher rank
    for m in (3, 4):
        for parts in [(1,), (2,), (1, 1), (2, 1)]:
            lam = Partition(parts + (0,) * (m - len(parts)))
            assert classical_char_sp(lam, m).eval_ones() == dim_sp(lam.parts, m)


def test_so_even_characters_hand_values():
    z = lambda k2: LaurentPoly.var(1, 0, k2)
    assert classical_char_so_even((2,), 1) == z(2)
    assert classical_char_so_even((-2,), 1) == z(-2)
    assert classical_char_so_even((0,), 1) == LaurentPoly.const(1)
    assert classical_char_so_even((3,), 1) == z(3)
    assert classical_char_so_even((-3,), 1) == z(-3)
    # so(4) = sl2 x sl2 hand values
    half_half = classical_char_so_even((1, 1), 2)
    assert half_half.eval_ones() == 2
    spin = classical_char_so_even((3, 1), 2)
    assert spin.eval_ones() == 6  # regression for the spin determinant pairing
    vec = classical_char_so_even((2, 0), 2)
    assert vec.eval_ones() == 4


def test_so_even_dimension_formula():
    for m in (2, 3, 4, 5):
        cases = [(1,) + (0,) * (m - 1), (1, 1) + (0,) * (m - 2), (2,) + (0,) * (m - 1)]
        cases.append(tuple([1] * m))  # spinor-adjacent integral weight
        for nu in cases:
            chi = classical_char_so_even(tuple(2 * v for v in nu), m)
            assert chi.eval_ones() == dim_so_even(nu, m)
        # half-integral
        from fractions import Fraction

        half = tuple(Fraction(1, 2) for _ in range(m))
        chi = classical_char_so_even(tuple(1 for _ in range(m)), m)
        assert chi.eval_ones() == dim_so_even(half, m) == 2 ** (m - 1)


def test_b_type_alternant():
    for ell2 in (0, 1, 2, 3, 4):
        chi = weyl_char_alternant("B", (ell2,), 1)
        assert {e[0] for (e, _), c in chi.terms.items()} == set(so3_char_exponents(ell2))
        assert chi.eval_ones() == ell2 + 1
    for nu in [(0, 0), (1, 0), (1, 1), (2, 1)]:
        chi = weyl_char_alternant("B", tuple(2 * v for v in nu), 2)
        assert chi.eval_ones() == dim_so_odd(nu, 2)


def test_divexact_errors():
    one = LaurentPoly.const(1)
    z = LaurentPoly.var(1, 0, 2)
    assert divexact(z * z - one, z - one) == z + one
    with pytest.raises(ArithmeticError):
        divexact(z + one + one, z - one)


def test_char_group_examples():
    assert char_group(GroupTag("Sp", 1), Partition((1,))) == zpow(1, 0, 1) + zpow(1, 0, -1)
    assert char_group(GroupTag("O", 2), Partition((1, 0))) == zpow(1, 0, 1) + zpow(1, 0, -1)
    assert dimension(GroupTag("O", 2), Partition((1, 0))) == 2
    assert char_group(GroupTag("O", 2), Partition((1, 1))) == LaurentPoly.const(1)
    assert char_group(GroupTag("GL", 1), GeneralizedPartition((-2,))) == zpow(1, 0, -2)
    chi = char_group(GroupTag("O", 3), Partition((1, 0, 0)))
    eps = LaurentPoly.eps(1)
    assert chi == (zpow(1, 0, 1) + 1 + zpow(1, 0, -1)) * eps
    assert char_group(GroupTag("O", 3), Partition((1, 1, 1))) == eps


def test_weyl_symmetry_of_characters():
    for group, lam in [
        (GroupTag("Sp", 2), Partition((2, 1))),
        (GroupTag("O", 4), Partition((2, 1, 0, 0))),
        (GroupTag("GL", 2), GeneralizedPartition((1, -1))),
    ]:
        assert is_weyl_symmetric(char_group(group, lam), group)


def test_decompose_examples():
    sp2 = GroupTag("Sp", 1)
    chi1 = char_group(sp2, Partition((1,)))
    assert decompose_character(chi1, sp2) == {Partition((1,)): 1}
    assert decompose_character(chi1 * chi1, sp2) == {Partition((2,)): 1, Partition((0,)): 1}
    with pytest.raises(DecompositionError):
        decompose_character(LaurentPoly.var(1, 0, 4), sp2)  # not symmetric
    bad = LaurentPoly.var(1, 0, 4) + LaurentPoly.var(1, 0, -4)  # symmetric, not a character
    with pytest.raises(DecompositionError):
        decompose_character(bad, sp2)


def test_decompose_mass_only_at_eps_one_raises():
    # Sp has no eps grading, so eps alone is not a character; the peeler must
    # raise rather than loop, and the alarm bounds the run if it does not
    def timeout(signum, frame):
        raise TimeoutError("dominant peeling did not terminate")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        with pytest.raises(DecompositionError):
            decompose_character(LaurentPoly.eps(1), GroupTag("Sp", 1))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_decompose_roundtrip():
    for group, labels in [
        (GroupTag("Sp", 1), [Partition((k,)) for k in range(4)]),
        (GroupTag("Sp", 2), [Partition(p) for p in [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)]]),
        (GroupTag("GL", 2), [GeneralizedPartition(p) for p in [(1, 0), (2, -1), (0, -2)]]),
        (GroupTag("O", 3), [Partition(p) for p in [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0)]]),
    ]:
        for lam in labels:
            assert decompose_character(char_group(group, lam), group) == {lam: 1}
    # even O: canonical merged labels
    o2 = GroupTag("O", 2)
    dec = decompose_character(char_group(o2, Partition((1, 1))), o2)
    assert dec == {Partition((0, 0)): 1}


def test_tensor_examples_and_oracles():
    sp2 = GroupTag("Sp", 1)
    t = tensor_multiplicity(sp2, Partition((1,)), Partition((1,)))
    assert t == {Partition((2,)): 1, Partition((0,)): 1}
    sp4 = GroupTag("Sp", 2)
    t = tensor_multiplicity(sp4, Partition((1,)), Partition((1,)))
    assert t == {Partition((2, 0)): 1, Partition((1, 1)): 1, Partition((0, 0)): 1}
    mu = Partition((2, 1))
    assert tensor_multiplicity(sp4, mu, Partition((0,))) == {Partition((2, 1)): 1}

    # brute-force oracles, |mu|,|nu| <= 2
    small1 = [(0,), (1,), (2,)]
    for a in small1:
        for b in small1:
            got = tensor_multiplicity(sp2, Partition(a), Partition(b))
            want = {Partition((c,)): m for c, m in sl2_tensor(a[0], b[0]).items()}
            assert got == want
    small2 = [(0, 0), (1, 0), (1, 1), (2, 0)]
    for a in small2:
        for b in small2:
            got = tensor_multiplicity(sp4, Partition(a), Partition(b))
            want = {Partition(k): v for k, v in klimyk_tensor_sp(2, a, b).items()}
            assert got == want, (a, b)


def test_tensor_oracle_o2_o3():
    o2 = GroupTag("O", 2)
    labels2 = [(0, 0), (1, 0), (1, 1), (2, 0)]
    for a in labels2:
        for b in labels2:
            got = tensor_multiplicity(o2, Partition(a), Partition(b))
            raw = o2_tensor(a, b)
            merged: dict = {}
            for lam, c in raw.items():
                canon = lam if 2 * (transpose(Partition(lam)).parts[0] if sum(lam) else 0) <= 2 else bar_conjugate(Partition(lam), 2).parts
                merged[Partition(canon)] = merged.get(Partition(canon), 0) + c
            assert got == merged, (a, b)
    o3 = GroupTag("O", 3)
    labels3 = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 0, 0), (1, 1, 1)]
    for a in labels3:
        for b in labels3:
            got = tensor_multiplicity(o3, Partition(a), Partition(b))
            want = {Partition(k): v for k, v in o3_tensor(a, b).items()}
            assert got == want, (a, b)


def test_tensor_dimension_sum():
    for group, labels in [
        (GroupTag("Sp", 2), [Partition((1, 0)), Partition((1, 1)), Partition((2, 0))]),
        (GroupTag("O", 3), [Partition((1, 0, 0)), Partition((1, 1, 0))]),
    ]:
        for mu in labels:
            for nu in labels:
                total = sum(
                    m * dimension(group, lam)
                    for lam, m in tensor_multiplicity(group, mu, nu).items()
                )
                assert total == dimension(group, mu) * dimension(group, nu)


def test_rendering_and_json():
    chi = classical_char_sp(Partition((2,)), 1)
    assert str(chi) == "z1^2 + 1 + z1^-2"
    blob = chi.to_json()
    assert blob["doubled"] is True and len(blob["terms"]) == 3
    half = classical_char_so_even((3,), 1)
    assert "3/2" in str(half)


from hypothesis import given, settings, strategies as st


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from([(0,), (1,), (2,), (3,), (2, 1), (1, 1), (2, 2)]),
        st.integers(min_value=1, max_value=3),
        min_size=1,
        max_size=4,
    )
)
def test_decompose_roundtrip_random_sums_sp2(mults):
    group = GroupTag("Sp", 2)
    total = LaurentPoly.zero(2)
    want = {}
    for parts, c in mults.items():
        lam = Partition(parts + (0,) * (2 - len(parts)))
        want[lam] = want.get(lam, 0) + c
        total = total + char_group(group, lam) * c
    assert decompose_character(total, group) == want


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from([(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 0, 0), (1, 1, 1), (2, 1, 0)]),
        st.integers(min_value=1, max_value=3),
        min_size=1,
        max_size=4,
    )
)
def test_decompose_roundtrip_random_sums_o3(mults):
    group = GroupTag("O", 3)
    total = LaurentPoly.zero(1)
    want = {}
    for parts, c in mults.items():
        lam = Partition(parts)
        want[lam] = want.get(lam, 0) + c
        total = total + char_group(group, lam) * c
    assert decompose_character(total, group) == want

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from superchar.laurentchars import LaurentPoly
from superchar.partitions import Partition
from superchar.superschur import _lambda_box
from superchar.symring import (
    SymFunc,
    _codec,
    _degree,
    _unit,
    hook_schur,
    schur,
    weight_expansion,
)

from oracles import omega, q_series, schur_monomials, specialize, weight_expansion_by_subsets


def x_vars(m):
    return [LaurentPoly.var(m, i, 2) for i in range(m)]


def as_monomials(poly: LaurentPoly):
    return {tuple(e // 2 for e in exps): c for (exps, _), c in poly.terms.items()}


def test_generator_examples():
    h2 = _unit("h", 2, "x", 4)
    assert h2.coefficient(x={1: 2}) == 1 and h2.coefficient(x={2: 1}) == -1
    assert _unit("e", 0, "x", 3) == SymFunc.const(3)
    assert _unit("h", 5, "x", 4) == 0


def test_unit_rejects_a_base_its_alphabet_does_not_carry():
    # e and h over one alphabet, e and the hook unit hs over the combined one
    assert _unit("hs", 1, "xy", 2) == _unit("e", 1, "x", 2) + _unit("e", 1, "y", 2)
    for base, alphabet in (("hs", "x"), ("hs", "y"), ("h", "xy"), ("e", "z"), ("elementary", "x")):
        with pytest.raises(ValueError, match="alphabet"):
            _unit(base, 1, alphabet, 2)


def test_multiply_truncation():
    e1 = _unit("e", 1, "x", 2)
    e2 = _unit("e", 2, "x", 2)
    assert (e1 * e1).coefficient(x={1: 2}) == 1
    assert e1 * e2 == 0  # degree 3 > cap 2
    one = SymFunc.const(2)
    assert (one + e1) * (one - e1) == one - e1 * e1
    with pytest.raises(ValueError):
        e1 * _unit("e", 1, "x", 3)


def test_schur_examples():
    assert schur(Partition((1,)), "x", 3) == _unit("e", 1, "x", 3)
    assert schur(Partition((2,)), "x", 3) == _unit("h", 2, "x", 3)
    assert schur(Partition((1, 1)), "x", 3) == _unit("e", 2, "x", 3)


def test_schur_vs_tableau_oracle():
    rng = random.Random(5)
    shapes = [(1,), (2,), (1, 1), (2, 1), (3,), (2, 2), (3, 1), (1, 1, 1), (3, 2)]
    for shape in shapes:
        lam = Partition(shape)
        cap = sum(shape)
        poly = specialize(schur(lam, "x", cap), x_vars(3), [], one=LaurentPoly.const(3))
        assert as_monomials(poly) == {
            k: v for k, v in schur_monomials(shape, 3).items() if v
        }


def test_hook_schur_examples():
    hs1 = hook_schur(Partition((1,)), 3)
    assert hs1 == _unit("e", 1, "x", 3) + _unit("e", 1, "y", 3)
    hs11 = hook_schur(Partition((1, 1)), 3)
    expect = (
        _unit("e", 2, "x", 3)
        + _unit("e", 1, "x", 3) * _unit("e", 1, "y", 3)
        + _unit("h", 2, "y", 3)
    )
    assert hs11 == expect
    assert hook_schur(Partition((0,)), 2) == SymFunc.const(2)


def test_hook_schur_is_omega_y_of_the_combined_schur():
    # the omega route stays the reference for the determinant over the hook units
    for lam in _lambda_box(5, 5):
        assert hook_schur(lam, 5) == omega(schur(lam, "xy", 5), "y"), lam


def test_hook_schur_separately_symmetric():
    # symmetric in x and in y separately: invariance under swapping two of the
    # three specialised variables in either alphabet
    lam = Partition((2, 1))
    hs = hook_schur(lam, 3)
    m = 3
    xs = x_vars(m)
    ys = [LaurentPoly.var(m, i, 2) for i in range(m)]
    base = specialize(hs, xs, [], one=LaurentPoly.const(m))
    swapped = specialize(hs, [xs[1], xs[0], xs[2]], [], one=LaurentPoly.const(m))
    assert base == swapped
    base_y = specialize(hs, [], ys, one=LaurentPoly.const(m))
    swapped_y = specialize(hs, [], [ys[2], ys[1], ys[0]], one=LaurentPoly.const(m))
    assert base_y == swapped_y


def test_omega_examples():
    f = _unit("e", 2, "y", 4)
    assert omega(f, "y") == _unit("h", 2, "y", 4)
    g = _unit("e", 2, "x", 4)
    assert omega(g, "y") == g


small_symfuncs = st.builds(
    lambda pairs: SymFunc(
        4,
        {
            ((tuple(sorted({k: 1 for k in xs}.items())), tuple())): Fraction(c)
            for xs, c in pairs
        },
    ),
    st.lists(
        st.tuples(st.lists(st.integers(1, 3), min_size=0, max_size=2), st.integers(-3, 3)),
        max_size=3,
    ),
)


@settings(max_examples=60, deadline=None)
@given(small_symfuncs, small_symfuncs)
def test_omega_is_ring_hom(f, g):
    assert omega(f * g, "y") == omega(f, "y") * omega(g, "y")
    assert omega(f * g, "x") == omega(f, "x") * omega(g, "x")


@settings(max_examples=60, deadline=None)
@given(small_symfuncs)
def test_omega_involution(f):
    assert omega(omega(f, "y"), "y") == f
    assert omega(omega(f, "x"), "x") == f


def test_truncation_coherence():
    lam = Partition((2, 1))
    assert SymFunc(3, hook_schur(lam, 5).terms) == hook_schur(lam, 3)
    assert SymFunc(4, schur(lam, "xy", 6).terms) == schur(lam, "xy", 4)
    mixed = lambda cap: _unit("hs", 2, "xy", cap) * _unit("hs", 2, "xy", cap) + _unit("e", 1, "x", cap)
    assert SymFunc(3, mixed(5).terms) == mixed(3) == _unit("e", 1, "x", 3)


def test_specialize_examples():
    e2 = _unit("e", 2, "x", 4)
    assert specialize(e2, [Fraction(2), Fraction(3)], []) == 6
    hs1 = hook_schur(Partition((1,)), 2)
    val = specialize(hs1, x_vars(1), [], one=LaurentPoly.const(1))
    assert val == LaurentPoly.var(1, 0, 2)
    assert specialize(hs1, [], []) == 0
    assert specialize(SymFunc.const(3, 7), [], []) == 7


def test_coefficient_examples():
    h2 = _unit("h", 2, "x", 4)
    assert h2.coefficient(x={1: 2}) == 1
    assert h2.coefficient(x={2: 1}) == -1
    assert SymFunc.zero(4).coefficient(x={1: 1}) == 0


def test_weight_expansion_and_q_series():
    hs1 = hook_schur(Partition((1,)), 4)
    exp = weight_expansion(hs1, 2)
    assert exp == {
        (((1, 1),), ()): 1,  # x_1
        ((), ((1, 1),)): 1,  # y_{1/2}
    }
    qs = q_series(hs1, 4)
    assert qs == {1: 1, 2: 1, 3: 1, 4: 1}


def test_weight_expansion_values_are_int_when_integral():
    # the expansion keeps the coefficient normal form of the ring: int when
    # integral (so_schur's halves included), Fraction only otherwise
    from superchar.superschur import so_hook, sp_hook

    for f in (sp_hook(Partition((1, 0)), 4), so_hook(Partition((1, 0)), 2, 4), so_hook(Partition((1, 1, 0)), 3, 4)):
        exp = weight_expansion(f, 4)
        assert exp and {type(c) for c in exp.values()} == {int}
        assert {type(c) for c in q_series(f, 4).values()} == {int}
    half = weight_expansion(_unit("e", 1, "x", 2) * Fraction(1, 2), 2)
    assert half == {(((1, 1),), ()): Fraction(1, 2)} and type(half[(((1, 1),), ())]) is Fraction


UNIT_FAMILIES = [("e", "x"), ("h", "x"), ("e", "y"), ("h", "y"), ("e", "xy"), ("hs", "xy")]


@st.composite
def _sums_of_unit_products(draw):
    """(f, cap2): a sum of products of units at a cap 0..8 with int and Fraction coefficients, and cap2 <= cap."""
    cap = draw(st.integers(0, 8))
    f = SymFunc.zero(cap)
    for _ in range(draw(st.integers(1, 3))):
        term = SymFunc.const(cap, draw(st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))))
        for _ in range(draw(st.integers(0, 3))):
            base, alphabet = draw(st.sampled_from(UNIT_FAMILIES))
            term = term * _unit(base, draw(st.integers(0, cap)), alphabet, cap)
        f = f + term
    return f, draw(st.integers(0, cap))


def _typed(expansion):
    return {key: (c, type(c)) for key, c in expansion.items()}


@settings(max_examples=150, deadline=None)
@given(case=_sums_of_unit_products())
@example(case=(_unit("e", 3, "x", 4) + _unit("e", 1, "x", 4) + _unit("h", 2, "y", 4) * Fraction(1, 2), 2))
def test_weight_expansion_is_the_subset_expansion(case):
    # the ring map onto the weight variables against the sum over subsets of
    # variables, in keys, values and value types; e_k with k > cap2 come in
    # whenever cap2 < cap (e_3(x) in the example), and map to zero
    f, cap2 = case
    assert _typed(weight_expansion(f, cap2)) == _typed(weight_expansion_by_subsets(f, cap2))


def test_rendering():
    h2 = _unit("h", 2, "x", 4)
    assert str(h2) == "e1(x)^2 - e2(x)"


def test_hook_schur_of_a_column():
    # sigma applied to e_d of the combined alphabet turns the y-side
    # elementary pieces into complete ones
    for d in (1, 2, 3):
        want = SymFunc.zero(4)
        for i in range(0, d + 1):
            want = want + _unit("e", i, "x", 4) * _unit("h", d - i, "y", 4)
        assert hook_schur(Partition((1,) * d), 4) == want


# -- the packed key of SymFunc -----------------------------------------------------

def _monomials(cap):
    """Every monomial of degree <= cap: a pair of multiplicity tuples over e_1..e_cap."""
    def parts(budget, k=1):
        if k > budget:
            yield ()
            return
        for m in range(budget // k + 1):
            for rest in parts(budget - k * m, k + 1):
                yield (((k, m),) if m else ()) + rest
    return [(xs, ys) for xs in parts(cap) for ys in parts(cap - _degree((xs, ())))]


@pytest.mark.parametrize("cap", range(9))
def test_codec_round_trips_every_monomial(cap):
    codec, monos = _codec(cap), _monomials(cap)
    keys = [codec.encode(mono) for mono in monos]
    assert len(set(keys)) == len(monos) and all(key & 3 == 0 for key in keys)
    assert [codec.decode(key) for key in keys] == monos
    # key order refines degree order, and the degree digit reads the degree back
    assert all(key // codec.top == _degree(mono) for key, mono in zip(keys, monos))
    assert max(keys) < codec.limit
    assert SymFunc(cap, dict.fromkeys(monos, 1)).terms == dict.fromkeys(monos, 1)


@pytest.mark.parametrize("cap", range(9))
def test_codec_keys_add_without_carry_below_the_cap(cap):
    codec, monos = _codec(cap), _monomials(cap)
    for a in monos:
        for b in monos:
            key = codec.encode(a) + codec.encode(b)
            if _degree(a) + _degree(b) <= cap:
                assert key == codec.encode(tuple(_merge(pa, pb) for pa, pb in zip(a, b))) < codec.limit
            else:
                assert key >= codec.limit


def _merge(pa, pb):
    acc = dict(pa)
    for k, m in pb:
        acc[k] = acc.get(k, 0) + m
    return tuple(sorted(acc.items()))


def test_codec_key_sums_hash_to_themselves_at_the_largest_cap():
    # deg is capped at 12; below 2^61 - 1 an int hashes to itself, so distinct keys never share a hash
    keys = [_codec(12).encode(mono) for mono in _monomials(12)]
    assert 2 * max(keys) < 2**61 - 1 and hash(2 * max(keys)) == 2 * max(keys)


def test_constructor_truncates_and_rejects_what_is_not_a_monomial():
    assert SymFunc(2, {(((1, 3),), ()): 1, (((3, 1),), ()): 1, ((), ((1, 2),)): 5}).terms == {((), ((1, 2),)): 5}
    assert SymFunc(0, {((), ()): 4, (((1, 1),), ()): 1}).terms == {((), ()): 4}
    # a repeated k, k out of order, e_0 and a zero multiplicity
    for bad in ((((1, 1), (1, 1)), ()), (((2, 1), (1, 1)), ()), (((0, 1),), ()), (((1, 0),), ())):
        with pytest.raises(ValueError, match="not a monomial"):
            SymFunc(3, {bad: 1})

"""Property tests of the sparse exact-coefficient arithmetic shared by
LaurentPoly, SymFunc, FockVector and SuperMatrix, including the one stored
coefficient normal form that every result must keep: int when integral,
Fraction otherwise."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superchar.fock import GAM_P, PSI_P, FockVector, Space, enumerate_basis
from superchar.infmat import SuperMatrix
from superchar.laurentchars import LaurentPoly
from superchar.sparse import _add_into
from superchar.symring import SymFunc

from oracles import symfunc_product

COEFFS = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
SPACE = Space("A", 1)
SYM_MONOS = [
    ((), ()), (((1, 1),), ()), ((), ((1, 1),)), (((1, 2),), ()),
    (((2, 1),), ((1, 1),)), (((3, 1),), ()), ((), ((1, 3),)),
]


def _terms(keys):
    return st.dictionaries(keys, COEFFS, max_size=5)


ELEMENTS = {
    "LaurentPoly": _terms(st.tuples(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.integers(0, 1))).map(
        lambda t: LaurentPoly(2, t)
    ),
    "SymFunc": _terms(st.sampled_from(SYM_MONOS)).map(lambda t: SymFunc(3, t)),
    "FockVector": _terms(st.sampled_from(enumerate_basis(SPACE, 3))).map(lambda t: FockVector(SPACE, t)),
    "SuperMatrix": _terms(st.tuples(st.integers(-3, 3), st.integers(-3, 3))).map(SuperMatrix),
}


def _normal(x):
    """x after checking it stores no zero and every coefficient in normal form: int, or a non-integral Fraction."""
    values = list(x.terms.values())
    assert all(values), x.terms
    assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in values), x.terms
    return x


@pytest.mark.parametrize("kind", list(ELEMENTS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sums_differences_and_scalar_multiples(kind, data):
    a, b = data.draw(ELEMENTS[kind]), data.draw(ELEMENTS[kind])
    k = data.draw(COEFFS)
    total = _normal(a + b)
    assert _normal(total - b) == a
    assert total == b + a and hash(total) == hash(b + a)
    assert not (a - a).terms and a - a == 0
    assert not (a * 0).terms and not (0 * a).terms
    assert _normal(-a) + a == 0
    assert _normal(a * k) == _normal(k * a)
    if k:
        assert _normal(a * k * (Fraction(1) / k)) == a


@pytest.mark.parametrize("kind", ["LaurentPoly", "SymFunc"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ring_products_distribute(kind, data):
    a, b, c = (data.draw(ELEMENTS[kind]) for _ in range(3))
    k = data.draw(COEFFS)
    assert _normal(a * (b + c)) == _normal(a * b) + _normal(a * c)
    assert _normal(a + k) - k == a
    assert _normal(k - a) == -(a - k)


@pytest.mark.parametrize("kind", ["LaurentPoly", "SymFunc"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_halved_is_the_exact_half(kind, data):
    # orthogonal_det halves its doubled sums this way: an even int stays an int, the rest go to Fraction
    a = data.draw(ELEMENTS[kind])
    assert _normal(a._halved()) == a * Fraction(1, 2)
    assert _normal((a + a)._halved()) == a


def test_operands_must_share_context():
    with pytest.raises(ValueError):
        LaurentPoly.const(2) + LaurentPoly.const(3)
    with pytest.raises(ValueError):
        SymFunc.const(2) * SymFunc.const(3)
    with pytest.raises(ValueError):
        FockVector.vacuum(Space("A", 1)) - FockVector.vacuum(Space("A", 2))


def test_cancelling_products_store_no_zero():
    x, y = LaurentPoly.var(2, 0), LaurentPoly.var(2, 1)
    assert _normal((x + y) * (x - y)) == x * x - y * y
    ex, ey = SymFunc(3, {(((1, 1),), ()): 1}), SymFunc(3, {((), ((1, 1),)): 1})
    assert _normal((ex + ey) * (ex - ey)) == ex * ex - ey * ey


@pytest.mark.parametrize("kind", ["LaurentPoly", "SymFunc", "FockVector", "SuperMatrix"])
def test_two_halves_sum_to_an_int(kind):
    # each operand is a non-integral Fraction, so only the fold in the result's _new makes the sum an int
    make, keys = PRINTED[kind][:2]
    half = make({keys[1]: Fraction(1, 2), keys[2]: Fraction(-3, 2)})
    total = _normal(half + half)
    assert total == make({keys[1]: 1, keys[2]: -3}) and type(total.terms[keys[1]]) is int
    assert _normal(half * 2) == total and _normal(make({keys[1]: Fraction(4, 2)})).terms[keys[1]] == 2


@pytest.mark.parametrize("kind", ["LaurentPoly", "SymFunc", "FockVector", "SuperMatrix"])
def test_float_and_bool_coefficients_are_read_exactly(kind):
    make, keys = PRINTED[kind][:2]
    f = _normal(make({keys[1]: 0.5, keys[2]: -2.0, keys[3]: True}))
    assert f == make({keys[1]: Fraction(1, 2), keys[2]: -2, keys[3]: 1})


@pytest.mark.parametrize("kind", ["LaurentPoly", "SymFunc", "FockVector", "SuperMatrix"])
def test_a_number_operand_is_read_exactly_and_any_other_is_a_type_error(kind):
    # the operand rule of sparse: an int, bool, Fraction or float is read
    # exactly; anything else, a string that spells a number included, is a
    # TypeError, and so is a number added to a class with no constants
    make, keys = PRINTED[kind][:2]
    a = make({keys[1]: 3, keys[2]: Fraction(1, 2)})
    ring = kind in ("LaurentPoly", "SymFunc")
    for number, exact in ((0.5, Fraction(1, 2)), (-2.0, -2), (True, 1), (Fraction(3, 2), Fraction(3, 2))):
        assert _normal(a * number) == a * exact == _normal(number * a)
        if ring:
            assert _normal(a + number) == a + exact == _normal(number + a)
            assert _normal(a - number) == a - exact and _normal(number - a) == exact - a
    sums = [lambda u, v: u + v, lambda u, v: u - v]
    refused = [(other, op) for other in ("3", "a", None, 1j, [1]) for op in [lambda u, v: u * v] + sums]
    if not ring:
        refused += [(number, op) for number in (1, 0.5) for op in sums]
    for other, op in refused:
        with pytest.raises(TypeError):
            op(a, other)
        with pytest.raises(TypeError):
            op(other, a)
    with pytest.raises(TypeError):
        SymFunc.const(2) * LaurentPoly.const(2)


def test_symfunc_stores_integral_coefficients_as_int():
    mono = (((1, 1),), ())
    f = SymFunc(3, {mono: Fraction(4, 2)})
    assert f.terms == {mono: 2} and type(f.terms[mono]) is int
    assert _normal(f * Fraction(1, 2)).terms == {mono: 1}
    assert _normal(SymFunc.const(3, Fraction(3, 3))) == SymFunc.const(3)
    assert f.coefficient({1: 1}) == 2 and type(f.coefficient({2: 1})) is int


# -- the truncated SymFunc product against a naive all-pairs oracle ----------

# monomials of degree 0..6, so that products of drawn operands pass every cap drawn
ORACLE_MONOS = SYM_MONOS + [
    (((1, 1), (2, 1)), ((1, 1),)), (((4, 1),), ()), ((), ((2, 2),)), (((1, 3),), ((2, 1),)),
    (((2, 1),), ((2, 1),)), (((1, 1),), ((1, 1), (3, 1))), (((5, 1),), ((1, 1),)),
]


def _naive_product(cap, a, b):
    """All pairs, each kept when the degree of its product is at most cap."""
    out = Counter()
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            xs = Counter(dict(m1[0])) + Counter(dict(m2[0]))
            ys = Counter(dict(m1[1])) + Counter(dict(m2[1]))
            if sum(k * m for k, m in xs.items()) + sum(k * m for k, m in ys.items()) <= cap:
                out[(tuple(sorted(xs.items())), tuple(sorted(ys.items())))] += c1 * c2
    return {mono: c for mono, c in out.items() if c}


@settings(max_examples=200, deadline=None)
@given(
    cap=st.integers(0, 6),
    a=st.dictionaries(st.sampled_from(ORACLE_MONOS), COEFFS, max_size=8),
    b=st.dictionaries(st.sampled_from(ORACLE_MONOS), COEFFS, max_size=8),
)
def test_symfunc_product_matches_naive_truncated_product(cap, a, b):
    fa, fb = SymFunc(cap, a), SymFunc(cap, b)
    assert _normal(fa * fb).terms == _naive_product(cap, fa.terms, fb.terms)


# -- the packed SymFunc product against the tuple-keyed one, at every admitted cap ----

@st.composite
def _capped_monomials(draw, cap):
    """A monomial of degree <= cap: drawn (alphabet, k) factors, kept while they fit."""
    count, degree = Counter(), 0
    for which, k in draw(st.lists(st.tuples(st.integers(0, 1), st.integers(1, 12)), max_size=8)):
        if degree + k <= cap:
            count[which, k] += 1
            degree += k
    return tuple(tuple(sorted((k, m) for (w, k), m in count.items() if w == which)) for which in (0, 1))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), cap=st.integers(0, 12))
def test_packed_symfunc_product_matches_tuple_oracle(data, cap):
    a, b = (data.draw(st.dictionaries(_capped_monomials(cap), COEFFS, max_size=10)) for _ in range(2))
    fa, fb = SymFunc(cap, a), SymFunc(cap, b)
    assert _normal(fa * fb).terms == symfunc_product(cap, a, b)
    assert _normal(fa * fa).terms == symfunc_product(cap, a, a)


# -- the read-only tuple-keyed view of both rings ------------------------------------

VIEW_CASES = [
    (LaurentPoly(2, {((2, -1), 0): 3, ((0, 0), 1): Fraction(1, 2), ((-4, 5), 1): -1}),
     [((2, -1), 1), ((2, -1),), ((2, -1, 0), 0), ((2, -1), 2), ((1 << 21, 0), 0), "x", None]),
    (SymFunc(4, {((), ()): 2, (((1, 2),), ((2, 1),)): -1, ((), ((1, 3),)): Fraction(3, 2)}),
     [(((1, 2),), ()), (((1, 2), (1, 1)), ()), (((2, 1), (1, 2)), ()), (((1, 0),), ()), (((1, 5),), ()),
      (((5, 1),), ()), (((0, 1),), ()), ((), (), ()), "xy", None]),
]


@pytest.mark.parametrize("f, absent", VIEW_CASES, ids=["LaurentPoly", "SymFunc"])
def test_terms_view_is_a_tuple_keyed_mapping(f, absent):
    plain = dict(f.terms.items())
    assert f.terms == plain and len(f.terms) == len(plain) == 3
    assert set(f.terms) == set(plain) and sorted(f.terms.values()) == sorted(plain.values())
    for key, c in plain.items():
        assert key in f.terms and f.terms[key] == c and f.terms.get(key) == c
    for key in absent:
        assert key not in f.terms and f.terms.get(key, 0) == 0
        with pytest.raises(KeyError):
            f.terms[key]
    assert type(f)(f._context(), f.terms) == f  # the view is accepted where a dict is
    with pytest.raises(AttributeError):
        f.terms = plain


def test_add_into_reads_a_terms_view():
    f = SymFunc(3, {(((1, 1),), ()): 2, ((), ((3, 1),)): 1})
    assert _add_into({(((1, 1),), ()): -2}, f.terms) == {((), ((3, 1),)): 1}



# Each class, five keys (a constant, or the vacuum, or e(0,0) for SuperMatrix,
# then four monomials) and its printed forms: each key alone with the
# coefficients 3, 1, -1, 2, -1/2, all five together, and -1 on the constant
# plus the first monomial.
PRINTED = {
    "LaurentPoly": (
        lambda t: LaurentPoly(2, t),
        [((0, 0), 0), ((2, 0), 0), ((0, -2), 0), ((1, 4), 1), ((-3, 0), 0)],
        ["3", "z1", "-z2^-1", "2*z1^(1/2)*z2^2*eps", "-1/2*z1^(-3/2)"],
        "z1 + 2*z1^(1/2)*z2^2*eps + 3 - z2^-1 - 1/2*z1^(-3/2)",
        "z1 - 1",
    ),
    "SymFunc": (
        lambda t: SymFunc(3, t),
        [((), ()), (((1, 1),), ()), ((), ((1, 1),)), (((1, 2),), ()), (((2, 1),), ((1, 1),))],
        ["3", "e1(x)", "-e1(y)", "2*e1(x)^2", "-1/2*e2(x)*e1(y)"],
        "3 - e1(y) + e1(x) + 2*e1(x)^2 - 1/2*e2(x)*e1(y)",
        "-1 + e1(x)",
    ),
    "FockVector": (
        lambda t: FockVector(SPACE, t),
        [(), ((GAM_P, 1, -1),), ((PSI_P, 1, -2),), ((GAM_P, 1, -1), (GAM_P, 1, -1)), ((GAM_P, 1, -3),)],
        ["(3)*|0>", "g+[1,-1/2] |0>", "-p+[1,-1] |0>", "(2)*g+[1,-1/2] g+[1,-1/2] |0>", "(-1/2)*g+[1,-3/2] |0>"],
        "(3)*|0> + g+[1,-1/2] |0> - p+[1,-1] |0> + (2)*g+[1,-1/2] g+[1,-1/2] |0> + (-1/2)*g+[1,-3/2] |0>",
        "-|0> + g+[1,-1/2] |0>",
    ),
    "SuperMatrix": (
        SuperMatrix,
        [(0, 0), (1, 2), (-1, 3), (2, -4), (4, 4)],
        ["3*e(0,0)", "e(1/2,1)", "-e(-1/2,3/2)", "2*e(1,-2)", "-1/2*e(2,2)"],
        "-e(-1/2,3/2) + 3*e(0,0) + e(1/2,1) + 2*e(1,-2) - 1/2*e(2,2)",
        "-e(0,0) + e(1/2,1)",
    ),
}


@pytest.mark.parametrize("kind", list(PRINTED))
def test_printed_form(kind):
    make, keys, singles, whole, negated = PRINTED[kind]
    coeffs = (3, 1, -1, 2, Fraction(-1, 2))
    assert str(make({})) == "0"
    assert [str(make({key: c})) for key, c in zip(keys, coeffs)] == singles
    assert str(make(dict(zip(keys, coeffs)))) == whole
    assert str(make({keys[0]: -1, keys[1]: 1})) == negated

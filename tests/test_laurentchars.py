import gc
import itertools
import os
import re
import signal
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from superchar.laurentchars import (
    DecompositionError,
    GroupTag,
    LaurentPoly,
    _HALF,
    _dominant_part,
    _dominant_terms,
    _dominant_weight,
    _freudenthal,
    _is_dominant,
    _orbit,
    _orbit_size,
    char_group,
    decompose_character,
    decompose_graded,
    elementary_laurent,
)
import superchar
from superchar import cli, laurentchars
from superchar.partitions import GeneralizedPartition, Partition, _column_lengths, bar_conjugate, o_label, transpose
from superchar.ringdet import ring_det

from oracles import (
    classical_char_so_even,
    dim_so_even,
    dim_so_odd,
    dim_sp,
    dimension,
    divexact,
    embed,
    freudenthal_by_roots,
    is_weyl_symmetric,
    klimyk_tensor_sp,
    laurent_product,
    moved,
    o2_tensor,
    o3_tensor,
    schur_monomials,
    sl2_tensor,
    so3_char_exponents,
    tensor_multiplicity,
    weyl_char_alternant,
)


def zpow(m, i, k):
    return LaurentPoly.var(m, i, 2 * k)


def _weyl(group):
    """The Weyl type of the group's characters in z: A for GL; C for Sp and for O, bar-merged when n is even."""
    return "A" if group.kind == "GL" else "C"


def test_elementary_laurent_examples():
    assert elementary_laurent(1, 1) == zpow(1, 0, 1) + zpow(1, 0, -1)
    assert elementary_laurent(2, 1) == LaurentPoly.const(1)
    assert elementary_laurent(-1, 1) == 0
    assert elementary_laurent(0, 2) == LaurentPoly.const(2)
    assert elementary_laurent(5, 2) == 0


def test_sp_characters_small():
    sp2 = GroupTag("Sp", 1)
    assert char_group(sp2, Partition((1,))) == zpow(1, 0, 1) + zpow(1, 0, -1)
    assert char_group(sp2, Partition((2,))) == zpow(1, 0, 2) + 1 + zpow(1, 0, -2)
    assert char_group(sp2, Partition((0,))) == LaurentPoly.const(1)


def test_sp_characters_vs_alternant_and_dims():
    for m in (1, 2):
        for parts in itertools.product(range(3, -1, -1), repeat=m):
            if any(parts[i] < parts[i + 1] for i in range(m - 1)):
                continue
            lam = Partition(parts)
            chi = char_group(GroupTag("Sp", m), lam)
            alt = weyl_char_alternant("C", tuple(2 * p for p in parts), m)
            assert chi == alt, parts
            assert chi.eval_ones() == dim_sp(parts, m)
    # dimension-only checks at higher rank
    for m in (3, 4):
        for parts in [(1,), (2,), (1, 1), (2, 1)]:
            lam = Partition(parts + (0,) * (m - len(parts)))
            assert char_group(GroupTag("Sp", m), lam).eval_ones() == dim_sp(lam.parts, m)


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


def _so_even_weights(m: int, top2: int):
    """The dominant doubled so(2m) weights with entries from -top2 to top2, integral and half-integral."""
    for nu2 in itertools.product(range(-top2, top2 + 1), repeat=m):
        if len({e & 1 for e in nu2}) > 1 or any(nu2[i] < nu2[i + 1] for i in range(m - 2)):
            continue
        if m == 1 or nu2[m - 2] >= abs(nu2[m - 1]):
            yield nu2


def test_so_even_characters_vs_d_alternant():
    # the O formula of ringdet.orthogonal_det, shared with so_schur, against
    # the type-D Weyl alternant: integral and half-integral weights with
    # |nu_i| <= 3, both signs of nu_m
    for m in (1, 2, 3):
        for nu2 in _so_even_weights(m, 6):
            assert classical_char_so_even(nu2, m) == weyl_char_alternant("D", nu2, m), nu2


def test_so_even_character_at_inverted_variables_is_the_minus_w0_weight():
    # chi_nu(z^{-1}) is the character of -w0 nu: nu itself for even m, nu with
    # nu_m negated for odd m; the O Laurent identities read their duals so
    for m in (1, 2, 3, 4):
        for nu2 in _so_even_weights(m, 4):
            want = nu2[:-1] + (-nu2[-1],) if m % 2 else nu2
            inverted = moved(classical_char_so_even(nu2, m), lambda e: tuple(-v for v in e))
            assert inverted == classical_char_so_even(want, m), nu2


def test_divexact_errors():
    one = LaurentPoly.const(1)
    z = LaurentPoly.var(1, 0, 2)
    assert divexact(z * z - one, z - one) == z + one
    with pytest.raises(ArithmeticError):
        divexact(z + one + one, z - one)


def test_odd_orthogonal_characters_vs_alternant():
    # the E-form determinant in the E's of {z, z^-1, 1} against the Weyl
    # alternant quotient, with eps marking the labels of odd size
    for n in (1, 3, 5, 7):
        d = n // 2
        group = GroupTag("O", n)
        for parts in itertools.product(range(3, -1, -1), repeat=n):
            if any(parts[i] < parts[i + 1] for i in range(n - 1)) or sum(parts) > 6:
                continue
            lam = Partition(parts)
            try:
                nu = o_label(lam, n)[0].parts[:d]
            except ValueError:
                continue
            want = weyl_char_alternant("B", tuple(2 * v for v in nu), d)
            if sum(parts) % 2:
                want = want * LaurentPoly.eps(d)
            assert char_group(group, lam) == want, (n, parts)


def test_ring_det_leaves_no_reference_cycles():
    mat = [[LaurentPoly.var(2, (i + j) % 2, 2 * (i - j)) + i for j in range(4)] for i in range(4)]
    gc.collect()
    gc.disable()
    try:
        det = ring_det(mat, LaurentPoly.const(2))
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert det


def test_monomial_checks_its_exponent_count():
    assert LaurentPoly.monomial(2, (2, 4)).terms == {((2, 4), 0): 1}
    with pytest.raises(ValueError, match="2 exponents, got 3"):
        LaurentPoly.monomial(2, (2, 4, 6))


def test_monomial_check_survives_optimized_mode():
    src = os.path.dirname(os.path.dirname(superchar.__file__))
    code = (
        "from superchar.laurentchars import LaurentPoly\n"
        "try:\n"
        "    LaurentPoly.monomial(2, (2, 4, 6))\n"
        "except ValueError:\n"
        "    raise SystemExit(7)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, timeout=60)
    assert proc.returncode == 7, proc.stderr


def test_constructor_and_embed_check_their_shapes():
    with pytest.raises(ValueError, match="not \\(2 exponents"):
        LaurentPoly(2, {((1, 2, 3), 0): 1})
    with pytest.raises(ValueError, match="eps 0 or 1"):
        LaurentPoly(2, {((1, 2), 2): 1})
    with pytest.raises(ValueError, match="eps 0 or 1"):
        LaurentPoly(0, {((), -1): 1})
    f = LaurentPoly.monomial(2, (2, 4))
    with pytest.raises(ValueError, match="do not fit"):
        embed(f, 2, 1)
    with pytest.raises(ValueError, match="do not fit"):
        embed(f, 3, -1)
    assert embed(f, 3, 1).terms == {((0, 2, 4), 0): 1}
    assert embed(f, 2, 0) == f


def test_shape_checks_survive_optimized_mode():
    src = os.path.dirname(os.path.dirname(superchar.__file__))
    code = (
        "from superchar.laurentchars import LaurentPoly\n"
        "from oracles import embed\n"
        "for make in (lambda: LaurentPoly(2, {((1, 2, 3), 0): 1}),\n"
        "             lambda: LaurentPoly(2, {((1, 2), 2): 1}),\n"
        "             lambda: embed(LaurentPoly.monomial(2, (2, 4)), 2, 1)):\n"
        "    try:\n"
        "        make()\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(3)\n"
        "raise SystemExit(7)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, timeout=60)
    assert proc.returncode == 7, proc.stderr


def test_packed_width_bound():
    # doubled exponents must stay below _HALF = 2^21 in absolute value
    edge = LaurentPoly.monomial(3, (0, _HALF - 1, 1 - _HALF), eps=1)
    assert edge.terms == {((0, _HALF - 1, 1 - _HALF), 1): 1}
    for e in (_HALF, -_HALF):
        with pytest.raises(OverflowError):
            LaurentPoly.monomial(3, (0, e, 0))
    with pytest.raises(OverflowError):
        edge * LaurentPoly.var(3, 1, 1)
    below = LaurentPoly.monomial(3, (0, _HALF - 2, 2 - _HALF), eps=1)
    assert (below * LaurentPoly.var(3, 1, 1)).terms == {((0, _HALF - 1, 2 - _HALF), 1): 1}
    # the largest keys: the product loop's limit lies above every key sum
    top = LaurentPoly.monomial(3, (1 - _HALF // 2, 0, _HALF // 2 - 1), eps=1)
    assert (top * top).terms == {((2 - _HALF, 0, _HALF - 2), 0): 1}


# -- packed keys against tuple-level oracles --------------------------------------

COEFFS = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))


def _terms(nvars: int, limit: int):
    """Term dicts whose doubled exponents reach +-limit, with random eps bits."""
    exp = st.one_of(st.integers(-3, 3), st.integers(-limit, limit), st.sampled_from([limit, -limit]))
    return st.dictionaries(st.tuples(st.tuples(*[exp] * nvars), st.integers(0, 1)), COEFFS, max_size=6)


def _sum(a, b, sign: int) -> dict:
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + sign * c
    return {key: c for key, c in out.items() if c}


def _consistent(p: LaurentPoly, want: dict) -> None:
    """p.terms equals want, and its packed storage round-trips through tuple keys."""
    assert p.terms == want and dict(p.terms) == p.terms
    assert len(p.terms) == len(set(p.terms)) == len(want)
    assert LaurentPoly(p.nvars, p.terms) == p


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_packed_ring_operations_match_tuple_oracle(data):
    n = data.draw(st.integers(0, 8))
    # each operand's exponents stay below a third of the width, so a * b * b stays below it
    ta, tb = (data.draw(_terms(n, (_HALF - 1) // 3)) for _ in range(2))
    a, b = LaurentPoly(n, ta), LaurentPoly(n, tb)
    _consistent(a, {key: c for key, c in ta.items() if c})
    _consistent(a * b, laurent_product(ta, tb))
    _consistent(a * b * b, laurent_product(laurent_product(ta, tb), tb))
    _consistent(a + b, _sum(ta, tb, 1))
    _consistent(a - b, _sum(ta, tb, -1))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_packed_variable_moves_match_tuple_oracle(data):
    n = data.draw(st.integers(0, 8))
    terms = {key: c for key, c in data.draw(_terms(n, _HALF - 1)).items() if c}
    p = LaurentPoly(n, terms)
    extra = data.draw(st.integers(0, 3))
    offset = data.draw(st.integers(0, extra))
    pad = lambda e: (0,) * offset + e + (0,) * (extra - offset)
    _consistent(embed(p, n + extra, offset), {(pad(e), q): c for (e, q), c in terms.items()})
    perm = data.draw(st.permutations(range(n)))

    def permuted(e):
        new = [0] * n
        for i, v in enumerate(e):
            new[perm[i]] = v
        return tuple(new)

    _consistent(moved(p, permuted), {(permuted(e), q): c for (e, q), c in terms.items()})
    for i in range(n):
        flip = lambda e: e[:i] + (-e[i],) + e[i + 1 :]
        _consistent(moved(p, flip), {(flip(e), q): c for (e, q), c in terms.items()})
    reverse = lambda e: tuple(-v for v in reversed(e))
    _consistent(moved(p, reverse), {(reverse(e), q): c for (e, q), c in terms.items()})
    for (e, q), c in terms.items():
        assert p.coefficient(e, q) == c and p.terms[(e, q)] == c
    assert p.coefficient((0,) * (n + 1)) == 0 and ((0,) * (n + 1), 0) not in p.terms
    assert p.terms.get("junk") is None and ((0,) * n,) not in p.terms
    if n:
        assert p.coefficient((_HALF,) * n, 1) == 0 and ((_HALF,) * n, 1) not in p.terms
    assert p.eval_ones() == sum(terms.values())


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
        assert is_weyl_symmetric(char_group(group, lam), _weyl(group))


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


def test_a_weight_of_the_wrong_length_is_refused():
    # a key that is not of the group's rank never cancels against a character's terms, so
    # the peel would take it as the largest weight again and again
    for f, group in [(LaurentPoly.const(2), GroupTag("Sp", 1)), (LaurentPoly.const(1), GroupTag("GL", 2)),
                     (LaurentPoly.const(3), GroupTag("O", 4))]:
        with pytest.raises(DecompositionError, match=f"has {f.nvars} entries, not the rank {group.rank} of") as info:
            decompose_character(f, group)
        assert info.value.key == ((0,) * f.nvars, 0)
    with pytest.raises(DecompositionError) as info:
        decompose_graded({((2, 1, 0), 0): {(): 1}}, GroupTag("GL", 2))
    assert info.value.key == ((2, 1, 0), 0)


# one group of each kind; a lex-smallest key is never dominant
BROKEN_ORBIT_CASES = [
    (GroupTag("GL", 3), GeneralizedPartition((2, 1, 0))),
    (GroupTag("Sp", 2), Partition((2, 1))),
    (GroupTag("O", 4), Partition((2, 1, 0, 0))),
    (GroupTag("O", 5), Partition((1, 1, 0, 0, 0))),
]


@pytest.mark.parametrize("how", ["drop", "bump", "add"])
@pytest.mark.parametrize("group, lam", BROKEN_ORBIT_CASES, ids=lambda x: str(x))
def test_decompose_names_the_broken_orbit(group, lam, how):
    chi = char_group(group, lam)
    terms = dict(chi.terms.items())
    z, eps = key = min(terms)
    if how == "drop":
        del terms[key]
    elif how == "bump":
        terms[key] += 1
    else:  # a weight two steps above the highest one: its whole orbit is missing
        z = (2 * lam.parts[0] + 4,) + (0,) * (chi.nvars - 1)
        terms[(z, eps)] = 1
    halves = [e // 2 for e in z]
    want = tuple(sorted(halves if group.kind == "GL" else map(abs, halves), reverse=True))
    with pytest.raises(DecompositionError) as exc:
        decompose_character(LaurentPoly(chi.nvars, terms), group)
    assert exc.value.key == (want, eps)


GROUP_LABELS = {
    GroupTag("GL", 1): [GeneralizedPartition((a,)) for a in range(-2, 3)],
    GroupTag("GL", 2): [GeneralizedPartition((a, b)) for a in range(-1, 3) for b in range(-2, a + 1)],
    GroupTag("GL", 3): [GeneralizedPartition(p) for p in [(0, 0, 0), (1, 0, 0), (1, 1, -1), (2, 1, 0), (1, 0, -2)]],
    GroupTag("Sp", 1): [Partition((a,)) for a in range(4)],
    GroupTag("Sp", 2): [Partition(p) for p in [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (3, 1)]],
    GroupTag("O", 2): [Partition(p) for p in [(0, 0), (1, 0), (1, 1), (2, 0), (3, 0)]],
    GroupTag("O", 3): [Partition(p) for p in [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0), (1, 1, 1)]],
    GroupTag("O", 4): [Partition(p) for p in [(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (2, 1, 0, 0), (1, 1, 1, 0)]],
    GroupTag("O", 5): [Partition(p) for p in [(0,) * 5, (1, 0, 0, 0, 0), (1, 1, 0, 0, 0), (2, 1, 1, 0, 0)]],
}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_dominant_part_accepts_exactly_the_weyl_symmetric(data):
    group = data.draw(st.sampled_from(sorted(GROUP_LABELS, key=str)))
    chi = char_group(group, data.draw(st.sampled_from(GROUP_LABELS[group])))
    terms = dict(chi.terms.items())
    how = data.draw(st.sampled_from(["none", "drop", "bump", "add"]))
    key = data.draw(st.sampled_from(sorted(terms)))
    if how == "drop":
        del terms[key]
    elif how == "bump":
        terms[key] += data.draw(st.sampled_from([-1, 1, 2]))
    elif how == "add":
        z = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=chi.nvars, max_size=chi.nvars)))
        terms.setdefault((tuple(2 * e for e in z), data.draw(st.integers(0, 1))), 1)
    f = LaurentPoly(chi.nvars, terms)
    try:
        dominant = _dominant_part(f.terms.items(), _weyl(group))
    except DecompositionError:
        dominant = None
    assert (dominant is not None) == is_weyl_symmetric(f, _weyl(group))
    if dominant is not None:
        assert dominant == {(z, eps): c for (z, eps), c in f.terms.items()
                            if z == tuple(sorted(z if group.kind == "GL" else map(abs, z), reverse=True))}


def test_dominant_terms_are_cached_as_tuples_and_characters_are_not():
    assert not hasattr(char_group, "cache_info")
    group, lam = GroupTag("Sp", 2), Partition((2, 1))
    terms = _dominant_terms(group, lam)
    assert _dominant_terms(group, lam) is terms
    assert isinstance(terms, tuple) and all(type(t) is tuple and type(t[0]) is tuple for t in terms)
    assert dict(terms) == {(tuple(e // 2 for e in z), eps): c for (z, eps), c in char_group(group, lam).terms.items()
                           if z[0] >= z[1] >= 0}


# -- the Freudenthal engine against the determinants ---------------------------

def _determinant_dominant_part(group, lam) -> dict:
    """The dominant part of char_group's determinant, with plain exponents, as `_dominant_terms` gives it."""
    chi = char_group(group, lam)
    return _dominant_part((((tuple(e // 2 for e in z), eps), c) for (z, eps), c in chi.terms.items()), _weyl(group))


def _label_of_columns(group, cols) -> Partition:
    """The Sp or O label with columns cols, of declared length rank (Sp) or n (O)."""
    length = group.size
    rows = _column_lengths(cols)
    return Partition(rows + (0,) * (length - len(rows)))


def _engine_labels(group, width: int):
    """Every label with at most `width` columns; for GL, every weight with parts from -width to width.

    The O(n) labels run over all first columns up to n, so they hold the
    non-canonical ones (lambda'_1 > n/2), both parities of |lam| and, for
    even n, both lambda'_1 = n/2 and lambda'_1 < n/2.
    """
    d = group.rank
    if group.kind == "GL":
        for parts in itertools.combinations_with_replacement(range(width, -width - 1, -1), d):
            yield GeneralizedPartition(parts)
        return
    first = range(d + 1) if group.kind == "Sp" else range(group.size + 1)
    for c1 in first:
        second = min(c1, d if group.kind == "Sp" else group.size - c1)
        for rest in itertools.combinations_with_replacement(range(second, -1, -1), width - 1):
            yield _label_of_columns(group, tuple(c for c in (c1,) + rest if c))


# every group kind with rank <= 4, with fewer columns as the rank grows
ENGINE_SWEEP = [
    (group, 3 if group.rank <= 2 else 2 if group.rank == 3 else 1)
    for group in [GroupTag("GL", d) for d in range(1, 5)] + [GroupTag("Sp", d) for d in range(1, 5)]
    + [GroupTag("O", n) for n in range(1, 10)]
]


@pytest.mark.parametrize("group, width", ENGINE_SWEEP, ids=lambda x: str(x))
def test_freudenthal_is_the_dominant_part_of_the_determinant(group, width):
    labels = list(_engine_labels(group, width))
    assert labels
    for lam in labels:
        terms = _dominant_terms(group, lam)
        assert dict(terms) == _determinant_dominant_part(group, lam), lam
        # each dominant weight stands for its Weyl orbit
        assert sum(c * _orbit_size(z, _weyl(group)) for (z, _eps), c in terms) == dimension(group, lam), lam


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_freudenthal_is_the_dominant_part_of_the_determinant_on_random_labels(data):
    kind = data.draw(st.sampled_from(["GL", "Sp", "O"]))
    size = data.draw(st.integers(1, 9 if kind == "O" else 4))
    group = GroupTag(kind, size)
    if kind == "GL":
        parts = sorted(data.draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size)), reverse=True)
        lam = GeneralizedPartition(tuple(parts))
    else:
        d, n = group.rank, group.size
        c1 = data.draw(st.integers(0, d if kind == "Sp" else n))
        c2 = data.draw(st.integers(0, min(c1, d if kind == "Sp" else n - c1)))
        c3 = data.draw(st.integers(0, min(c2, 1 if d > 3 else 2)))
        lam = _label_of_columns(group, tuple(c for c in (c1, c2, c3) if c))
    assert dict(_dominant_terms(group, lam)) == _determinant_dominant_part(group, lam)


def test_freudenthal_type_d_matches_the_so_even_characters():
    # spin and integral so(2m) weights with both signs of nu_m, against the
    # determinant of ringdet.orthogonal_det; doubled exponents on both sides
    for m, top2 in ((1, 6), (2, 6), (3, 5), (4, 3)):
        for nu2 in _so_even_weights(m, top2):
            chi = classical_char_so_even(nu2, m)
            want = {z: c for (z, _eps), c in chi.terms.items() if _dominant_weight("D", z) == z}
            assert _freudenthal("D", nu2) == want, nu2


# plain entries up to this bound at each rank keep a module of rank 5 small
_TOP_BOUND = {1: 8, 2: 6, 3: 4, 4: 3, 5: 2}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_freudenthal_by_stabilizer_orbits_equals_the_sum_over_every_positive_root(data):
    # types A-D at ranks 1-5: A tops shifted below zero, the odd (spin) B
    # and D tops, and D tops with a negative last entry
    kind = data.draw(st.sampled_from("ABCD"))
    rank = data.draw(st.integers(1, 5))
    parts = data.draw(st.lists(st.integers(0, _TOP_BOUND[rank]), min_size=rank, max_size=rank))
    top = [2 * p for p in sorted(parts, reverse=True)]
    if kind == "A":
        top = [e - 2 * data.draw(st.integers(0, 3)) for e in top]
    if kind in "BD" and data.draw(st.booleans()):
        top = [e + 1 for e in top]
    if kind == "D" and data.draw(st.booleans()):
        top[-1] = -top[-1]
    top = tuple(top)
    assert _freudenthal(kind, top) == freudenthal_by_roots(kind, top), (kind, top)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_is_dominant_tells_a_weight_that_is_its_own_dominant_weight(data):
    # ranks 0-5, with D at rank 1 (every weight dominant, negative ones too);
    # half the draws start from a dominant weight, so both answers come up
    kind = data.draw(st.sampled_from("ABCD"))
    w = tuple(data.draw(st.lists(st.integers(-4, 4), max_size=5)))
    if data.draw(st.booleans()):
        w = _dominant_weight(kind, w)
        if w and data.draw(st.booleans()):
            i = data.draw(st.integers(0, len(w) - 1))
            w = w[:i] + (w[i] + data.draw(st.sampled_from([-1, 1])),) + w[i + 1:]
    assert _is_dominant(kind, w) == (_dominant_weight(kind, w) == w), (kind, w)


def test_is_dominant_edge_cases():
    assert _is_dominant("D", (-3,)) and _is_dominant("D", (2, -2)) and not _is_dominant("D", (1, -2))
    assert not _is_dominant("C", (2, -1)) and not _is_dominant("B", (-1,)) and _is_dominant("A", (1, -1))
    assert all(_is_dominant(kind, ()) for kind in "ABCD")


def _wd_orbit(mu):
    """The W(D) orbit of mu: its entries permuted, with an even number of their signs flipped."""
    return {w for signs in itertools.product((1, -1), repeat=len(mu)) if signs.count(-1) % 2 == 0
            for w in itertools.permutations([s * e for s, e in zip(signs, mu)])}


def test_type_d_orbit_sizes_add_up_to_the_so_even_dimension():
    # each D-dominant weight stands for its W(D) orbit, counted weight by
    # weight: spin and integral weights, both signs of nu_m
    for m, top2 in ((1, 6), (2, 6), (3, 5), (4, 3)):
        for nu2 in _so_even_weights(m, top2):
            total = sum(c * len(_wd_orbit(mu)) for mu, c in _freudenthal("D", nu2).items())
            assert total == classical_char_so_even(nu2, m).eval_ones(), nu2


def test_orbit_lists_the_w_c_orbit_of_a_dominant_weight():
    # rank 0 to 4, with repeated and zero entries
    for rank in range(5):
        for rep in itertools.combinations_with_replacement(range(3, -1, -1), rank):
            orbit = _orbit(rep)
            assert len(orbit) == _orbit_size(rep, "C"), rep
            assert all(_dominant_weight("C", w) == rep for w in orbit), rep


@pytest.fixture
def rho_off_by_one_in_c(monkeypatch):
    """Type C's doubled rho one too large in every entry, with no engine cache outliving the patch."""
    monkeypatch.setitem(laurentchars._RHO_SHIFT, "C", -1)
    laurentchars._root_system.cache_clear()
    laurentchars._dominant_terms.cache_clear()
    yield
    laurentchars._root_system.cache_clear()
    laurentchars._dominant_terms.cache_clear()


def test_inexact_freudenthal_quotient_raises_arithmetic_error(rho_off_by_one_in_c):
    # Sp(2) at (2): the weight 0 gets (2 * 16) / 40 with rho = 3/2 in place of 1
    with pytest.raises(ArithmeticError) as exc:
        _dominant_terms(GroupTag("Sp", 1), Partition((2,)))
    assert not isinstance(exc.value, ValueError)
    assert "Sp(2)" in str(exc.value) and "[2]" in str(exc.value) and "(0,)" in str(exc.value)


def test_both_character_routes_name_the_group_of_a_too_deep_label():
    for route in (char_group, _dominant_terms):
        with pytest.raises(ValueError, match=r"^Sp\(2\) labels have at most 1 rows$"):
            route(GroupTag("Sp", 1), Partition((1, 1)))


def test_cli_lets_an_inexact_quotient_propagate(rho_off_by_one_in_c):
    # an internal fault is not a usage error: no exit code 2 and no message swallowed
    with pytest.raises(ArithmeticError):
        cli.main(["verify", "--identity", "HS", "--d", "1", "--deg", "3"])


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
    chi = char_group(GroupTag("Sp", 1), Partition((2,)))
    assert str(chi) == "z1^2 + 1 + z1^-2"
    blob = chi.to_json()
    assert blob["doubled"] is True and len(blob["terms"]) == 3
    half = classical_char_so_even((3,), 1)
    assert "3/2" in str(half)


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


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda d: st.lists(st.integers(min_value=-3, max_value=4), min_size=d, max_size=d)))
def test_gl_characters_vs_semistandard_tableaux(parts):
    # Jacobi-Trudi against s_core(z) by SSYT enumeration, shifted by det^shift
    parts = sorted(parts, reverse=True)
    d, shift = len(parts), parts[-1]
    want = {
        (tuple(2 * (e + shift) for e in exps), 0): c
        for exps, c in schur_monomials(tuple(p - shift for p in parts), d).items()
    }
    assert char_group(GroupTag("GL", d), GeneralizedPartition(tuple(parts))).terms == want


def test_group_and_decomposition_rejections():
    for call, error, message in [
        (lambda: GroupTag("SO", 2), ValueError, "unknown group kind 'SO'"),
        (lambda: GroupTag("GL", 0), ValueError, "size must be >= 1"),
        (lambda: char_group(GroupTag("GL", 2), GeneralizedPartition((1,))), ValueError, "GL(2) weights have length 2"),
        # doubled exponent 1: z^(1/2), which no group character holds
        (lambda: decompose_character(LaurentPoly.monomial(1, (1,)), GroupTag("GL", 1)), DecompositionError,
         "half-integer exponent in input: (1,)"),
    ]:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()

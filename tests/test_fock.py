import itertools
import math
import re
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superchar.fock import (
    CHI,
    GAM_M,
    GAM_P,
    PHI,
    PSI_M,
    PSI_P,
    DUAL_PAIRS,
    FockVector,
    RealizedOp,
    Space,
    _apply_word,
    _character_sweep,
    _dual_pair,
    _hwv_factors,
    apply_mode,
    character_product_formula,
    diagonal_weight,
    duality_decompose,
    enumerate_basis,
    fmt_state,
    fock_character,
    gram_matrix,
    mono_energy2,
    group_raising_check,
    hwv_candidate,
    inner_product,
    omega_mode,
    raising_generators,
    realize_algebra,
    realize_group,
    realize_matrix,
    singularity_check,
)
from superchar.infmat import SuperMatrix, cocycle_alpha, super_bracket, te_generator
from superchar.partitions import GeneralizedPartition, Partition, _column_lengths
from superchar.ringdet import ring_det
from superchar.hwclassify import weight_from_partition
from superchar.laurentchars import DecompositionError, _dominant_part, _dominant_weight, _orbit

from oracles import (
    dense_gram,
    dimension,
    duality_decompose_by_walk,
    fock_basis_by_monomial,
    fock_character_by_monomial,
    hwv_by_state_products,
    singularity_check_full,
)


def vec_of(space, *modes):
    return _apply_word(space, modes, FockVector.vacuum(space))


def test_enumerate_basis_counts():
    sp = Space("A", 1)
    b = enumerate_basis(sp, 1)
    assert len(b) == 3 and b[0] == ()
    assert len(enumerate_basis(sp, 0)) == 1
    assert len(enumerate_basis(sp, 2)) == 8
    # gl space has the psi^-_0 zero mode
    glsp = Space("gl", 1)
    assert len(enumerate_basis(glsp, 0)) == 2


def test_realize_examples():
    sp = Space("A", 1)
    op = realize_algebra(sp, "A", 1, 1)  # e_{1/2,1/2} = -:gam+_{-1/2} gam-_{1/2}:
    assert op.terms == [(Fraction(-1), ((GAM_P, 1, -1), (GAM_M, 1, 1)))]
    assert Space("Dodd", 1).level == Fraction(3, 2)
    e11 = realize_group(sp, "E", (1, 1), 2)
    assert len(e11.terms) == 4  # psi+-_{-1},psi_1 and gam_{+-1/2} pairs


def test_realize_matrix_of_halves_stores_int_sums():
    # (e(1/2,1/2) + e(1,1)) / 2 counts psi+_{-1} and gam+_{-1/2}, a half each: on a state
    # holding both the halves meet, and the coefficient they sum to is stored as an int
    sp = Space("A", 1)
    op = realize_matrix(sp, SuperMatrix({(1, 1): Fraction(1, 2), (2, 2): Fraction(1, 2)}))
    assert sorted(c for c, _ in op.terms) == [Fraction(-1, 2), Fraction(1, 2)]
    vec = vec_of(sp, (PSI_P, 1, -2), (GAM_P, 1, -1))
    out = op.apply(vec)
    assert out == vec and [type(c) for c in out.terms.values()] == [int]
    assert [type(c) for c in op.apply(vec * 2).terms.values()] == [int]


@pytest.mark.parametrize("kind, d, algebra", [("A", 2, "C"), ("A", 2, "Deven"), ("Dodd", 1, "Dodd"), ("A", 2, "A")])
def test_dual_pair_coefficients_are_stored_as_int(kind, d, algebra):
    # the highest weight vectors, the realized generators and the signed and naive norms
    # all have integer coefficients, so every one of them is stored as an int
    space = Space(kind, d)
    labels = duality_decompose(space, algebra, 6)
    for lam in labels:
        vec = hwv_candidate(space, algebra, lam)
        assert vec and {type(c) for c in vec.terms.values()} == {int}, lam
    assert len(labels) > 3
    indices = [i2 for i2 in range(-4, 5) if i2]
    for p2 in indices:
        for q2 in indices:
            assert {type(c) for c, _ in realize_algebra(space, algebra, p2, q2).terms} <= {int}, (p2, q2)
    for e2 in range(5):
        for conjugation in ("signed", "naive"):
            _, mat = gram_matrix(space, e2, conjugation)
            assert {type(v) for row in mat for v in row} == {int}, (e2, conjugation)


def test_realize_algebra_builds_each_operator_once():
    sp = Space("A", 2)
    op = realize_algebra(sp, "C", -1, 3)
    assert realize_algebra(Space("A", 2), "C", -1, 3) is op
    assert realize_algebra(sp, "C", 1, 3) is not op
    with pytest.raises(AttributeError):
        op.terms = []


def test_realized_ops_add_only_on_one_space():
    a, b = realize_algebra(Space("A", 1), "A", 1, 1), realize_algebra(Space("A", 2), "A", 1, 1)
    assert (a + a).terms == a.terms + a.terms
    with pytest.raises(ValueError, match="different spaces"):
        a + b


def test_realized_op_reads_a_number_exactly_and_refuses_any_other_operand():
    # the operand rule of the sparse classes: an int, bool, Fraction or float
    # is read exactly; anything else, a string that spells a number included,
    # is a TypeError
    op = realize_algebra(Space("A", 2), "C", -1, 3)
    for number, exact in ((0.5, Fraction(1, 2)), (-2.0, -2), (True, 1), (Fraction(3, 2), Fraction(3, 2))):
        scaled = op * number
        assert scaled.space == op.space and scaled.terms == [(c * exact, ms) for c, ms in op.terms]
        assert all(type(c) is (int if c.denominator == 1 else Fraction) for c, _ in scaled.terms), number
    for other in ("3", "a", None, 1j, [1]):
        with pytest.raises(TypeError):
            op * other


def test_apply_examples():
    sp = Space("A", 1)
    gm = vec_of(sp, (GAM_M, 1, -1))
    assert realize_algebra(sp, "A", 1, 1).apply(gm) == 0
    assert realize_algebra(sp, "A", -1, -1).apply(gm) == gm * -1
    ann = apply_mode(sp, (GAM_P, 1, 1), FockVector.vacuum(sp))
    assert ann == 0


def test_gl_zero_modes():
    glsp = Space("gl", 1)
    v0 = vec_of(glsp, (PSI_M, 1, 0))
    assert v0
    e00 = realize_algebra(glsp, "gl", 0, 0)
    assert e00.apply(v0) == v0 * -1
    assert e00.apply(FockVector.vacuum(glsp)) == 0


def test_reduced_space_has_no_index_0():
    # only the gl space has the psi zero modes
    with pytest.raises(ValueError, match="index 0 is outside the reduced space"):
        realize_algebra(Space("A", 1), "A", 0, 1)
    with pytest.raises(ValueError, match="index 0 is outside the reduced space"):
        realize_matrix(Space("A", 1), SuperMatrix({(2, 0): 1}))
    assert realize_algebra(Space("gl", 1), "gl", 2, 0).terms


def test_grassmann_det_basics():
    sp = Space("A", 2)
    (block,) = _hwv_factors(sp, "C", Partition((1, 0)), "X")
    assert block == [[(GAM_P, 1, -1)]]
    vacuum = FockVector.vacuum(sp)
    # a mode on the left of a state applies it, a scalar scales it
    assert (GAM_P, 1, -1) * vacuum == vec_of(sp, (GAM_P, 1, -1))
    assert 3 * vacuum == vacuum * 3 == FockVector(sp, {(): 3})
    d1 = ring_det(block, vacuum)
    assert d1 == vec_of(sp, (GAM_P, 1, -1))
    # repeated fermionic rows double rather than cancel
    d2 = ring_det([[(PSI_P, 1, -2), (PSI_P, 2, -2)], [(PSI_P, 1, -2), (PSI_P, 2, -2)]], vacuum)
    assert d2 == vec_of(sp, (PSI_P, 1, -2), (PSI_P, 2, -2)) * 2
    # identical fermionic entries in one product vanish
    d0 = ring_det([[(PSI_P, 1, -2), (PSI_P, 1, -2)], [(PSI_P, 1, -2), (PSI_P, 1, -2)]], vacuum)
    assert d0 == 0
    assert ring_det([], vacuum) == vacuum


def test_grassmann_matrix_layouts():
    # rows i <= j take the gamma modes at -(2i-1), later rows the psi modes at -2j
    assert _hwv_factors(Space("A", 2), "Deven", Partition((1, 1, 0, 0)), "Xt") == [[
        [(GAM_P, 1, -1), (GAM_M, 2, -1)],
        [(PSI_P, 1, -2), (PSI_M, 2, -2)],
    ]]
    psi_row = [(PSI_P, 1, -2), (PHI, 0, -2), (PSI_M, 1, -2)]
    assert _hwv_factors(Space("Dodd", 1), "Dodd", Partition((1, 1, 1)), "X") == [
        [[(GAM_P, 1, -1), (CHI, 0, -1), (GAM_M, 1, -1)], psi_row, psi_row]]


def test_hwv_candidate_refuses_every_dodd_non_label():
    # an O(2d+1) label has lambda'_1 + lambda'_2 <= 2d+1; every other partition of
    # length 2d+1 is refused by `o_label` before any minor is built
    refused = []
    for d in (1, 2, 3):
        n = 2 * d + 1
        top = 3 if n <= 4 else 2
        for parts in itertools.product(range(top, -1, -1), repeat=n):
            if list(parts) != sorted(parts, reverse=True):
                continue
            excess = sum(_column_lengths(parts)[:2])
            if excess <= n:
                continue
            with pytest.raises(ValueError, match=rf"^lambda'_1 \+ lambda'_2 = {excess} > n = {n}$"):
                hwv_candidate(Space("Dodd", d), "Dodd", Partition(parts))
            refused.append(parts)
    assert len(refused) == 37 and (2, 1, 1) in refused and (3, 1, 1) in refused and (2, 2, 0) in refused


def test_homomorphism_with_central_term():
    rng = random.Random(20260809)

    def random_homog():
        deg2 = rng.randint(-5, 5)
        entries = {}
        for _ in range(rng.randint(1, 3)):
            q2 = rng.randint(-5, 5)
            entries[(q2 - deg2, q2)] = Fraction(rng.randint(-2, 2))
        return SuperMatrix(entries)

    for d in (1, 2):
        sp = Space("gl", d)
        basis = enumerate_basis(sp, 4)
        trials = 0
        while trials < 6:
            a, b = random_homog(), random_homog()
            if not (a and b):
                continue
            trials += 1
            sign = -1 if (a.entry_parity() and b.entry_parity()) else 1
            ra, rb = realize_matrix(sp, a), realize_matrix(sp, b)
            rbr = realize_matrix(sp, super_bracket(a, b))
            alpha = cocycle_alpha(a, b)
            sample = basis if d == 1 else basis[:: max(1, len(basis) // 150)]
            for mono in sample:
                v = FockVector(sp, {mono: Fraction(1)})
                lhs = ra.apply(rb.apply(v)) - sign * rb.apply(ra.apply(v))
                rhs = rbr.apply(v) + v * (alpha * sp.level)
                assert lhs == rhs, (a.terms, b.terms, fmt_state(mono))


def test_dhalf_homomorphism_with_central_term():
    from superchar.infmat import te_generator

    sp = Space("Dodd", 1)
    basis = enumerate_basis(sp, 3)
    idxs = [-3, -2, -1, 1, 2, 3]
    rng = random.Random(3)
    tes = [(p2, q2) for p2 in idxs for q2 in idxs if te_generator("D", p2, q2)]
    for p2, q2 in rng.sample(tes, 8):
        for r2, s2 in rng.sample(tes, 6):
            x, y = te_generator("D", p2, q2), te_generator("D", r2, s2)
            sign = -1 if (x.entry_parity() and y.entry_parity()) else 1
            rx, ry = realize_algebra(sp, "Dodd", p2, q2), realize_algebra(sp, "Dodd", r2, s2)
            br = super_bracket(x, y)
            # expand the bracket in the spanning elements: M = (1/2) sum M_pq te(p,q)
            rbr = RealizedOp(sp, [])
            for (a2, b2), c in br.terms.items():
                rbr = rbr + realize_algebra(sp, "Dodd", a2, b2) * (Fraction(c) / 2)
            alpha = cocycle_alpha(x, y) * sp.level
            for mono in basis[:25]:
                v = FockVector(sp, {mono: Fraction(1)})
                lhs = rx.apply(ry.apply(v)) - sign * ry.apply(rx.apply(v))
                rhs = rbr.apply(v) + v * alpha
                assert lhs == rhs, ((p2, q2), (r2, s2), fmt_state(mono))


def test_dhalf_mixed_parity_terms_carry_the_gauge():
    # the colourless phi-chi term of te(p,q) at one (int, half) and one (half, int)
    # pair: its sign is the phi -> -phi gauge in which the Grassmann minors are singular
    sp = Space("Dodd", 1)
    assert sorted(realize_algebra(sp, "Dodd", 2, 1).terms) == sorted([  # te(1, 1/2)
        (Fraction(1), ((PSI_P, 1, -2), (GAM_M, 1, 1))),
        (Fraction(-1), ((PSI_M, 1, -2), (GAM_P, 1, 1))),
        (Fraction(-1), ((PHI, 0, -2), (CHI, 0, 1))),
    ])
    assert sorted(realize_algebra(sp, "Dodd", -1, 2).terms) == sorted([  # te(-1/2, 1)
        (Fraction(-1), ((GAM_P, 1, 1), (PSI_M, 1, 2))),
        (Fraction(1), ((PSI_P, 1, 2), (GAM_M, 1, 1))),
        (Fraction(-1), ((CHI, 0, 1), (PHI, 0, 2))),
    ])


def test_hwv_examples():
    sp = Space("A", 1)
    assert hwv_candidate(sp, "C", Partition((0,))) == FockVector.vacuum(sp)
    h = hwv_candidate(sp, "C", Partition((1,)))
    assert h == vec_of(sp, (GAM_P, 1, -1))
    coeffs, group = diagonal_weight(sp, "C", h)
    assert coeffs == {1: 1} and group == (1,)
    ha = hwv_candidate(sp, "A", GeneralizedPartition((-1,)))
    assert ha == vec_of(sp, (GAM_M, 1, -1))
    assert diagonal_weight(sp, "A", ha) == ({-1: -1}, (-1,))


def test_singularity_examples():
    sp = Space("A", 1)
    assert singularity_check(sp, "C", FockVector.vacuum(sp))[0]
    ok, _ = singularity_check(sp, "C", hwv_candidate(sp, "C", Partition((2,))))
    assert ok
    # gamma+gamma-|0> is genuinely C-singular (it spans the E=0 weight line of
    # the lambda=(2) component); the witnessed non-singular state needs a
    # higher mode
    gg = vec_of(sp, (GAM_P, 1, -1), (GAM_M, 1, -1))
    assert singularity_check(sp, "C", gg)[0]
    bad = vec_of(sp, (GAM_P, 1, -3))
    # the witness is the first generator that fails, te(1, 3/2); the first
    # raising element to fail is te(-3/2, -1)
    assert singularity_check(sp, "C", bad) == (False, (2, 3))
    assert singularity_check_full(sp, "C", bad) == (False, (-3, -2))
    sp2 = Space("A", 2)
    h = hwv_candidate(sp2, "C", Partition((2, 1)))
    assert singularity_check(sp2, "C", h)[0]


def _element(family, p2, q2) -> SuperMatrix:
    return te_generator(family, p2, q2) if family else SuperMatrix.unit(p2, q2)


def _reduce_into(basis: dict, terms) -> bool:
    """Row-reduce terms against the echelon basis {pivot: row with 1 at its
    largest key, the pivot}; add the remainder and return True if it is not 0."""
    row = dict(terms)
    while row:
        pivot = max(row)
        if pivot not in basis:
            lead = row[pivot]
            basis[pivot] = {key: c / lead for key, c in row.items()}
            return True
        factor = row[pivot]
        for key, c in basis[pivot].items():
            c = row.get(key, 0) - factor * c
            if c:
                row[key] = c
            else:
                row.pop(key, None)
    return False


def _missing_raising(family, zero_mode: bool, pairs, top2: int) -> list[tuple[int, int]]:
    """The raising elements of the window |p2|, |q2| <= top2 outside the Lie
    superalgebra generated by the elements of `pairs`, by exact span closure."""
    gens = [_element(family, p2, q2) for p2, q2 in pairs]
    basis: dict = {}
    frontier = [g for g in gens if _reduce_into(basis, g.terms)]
    while frontier:
        # right-normed brackets of generators span the generated algebra
        x = frontier.pop()
        for g in gens:
            y = super_bracket(g, x)
            if _reduce_into(basis, y.terms):
                frontier.append(y)
    index_set = [i for i in range(-top2, top2 + 1) if i or zero_mode]
    return [
        (p2, q2)
        for p2 in index_set
        for q2 in index_set
        if p2 < q2 and _reduce_into(dict(basis), _element(family, p2, q2).terms)
    ]


@pytest.mark.parametrize("kind, algebra", [("gl", "gl"), ("A", "A"), ("A", "C"), ("A", "Deven"), ("Dodd", "Dodd")])
def test_raising_generators_generate_every_raising_element(kind, algebra):
    space = Space(kind, 1)
    for top2 in range(1, 9):
        pairs = raising_generators(space, algebra, top2)
        assert all(0 < q2 - p2 and max(-p2, q2) <= top2 for p2, q2 in pairs), pairs
        assert _missing_raising(DUAL_PAIRS[algebra][0], kind == "gl", pairs, top2) == [], top2


def test_c_and_d_need_different_centre_generators():
    space = Space("A", 1)
    c_pairs = [(-1, 1) if pair == (-1, 2) else pair for pair in raising_generators(space, "C", 6)]
    assert (-1, 1) in c_pairs  # te(-1/2, 1/2) = 0 in C
    assert len(_missing_raising("C", False, c_pairs, 6)) == 33
    d_pairs = [(-1, 2) if pair == (-1, 1) else pair for pair in raising_generators(space, "Deven", 6)]
    assert (-1, 2) in d_pairs
    assert _missing_raising("D", False, d_pairs, 6) == [(-1, 1)]


# the four spaces of the fock-duality benchmark workload
DUALITY_SPACES = [("A", 3, "C"), ("Dodd", 2, "Dodd"), ("A", 2, "A"), ("A", 2, "Deven")]


@pytest.mark.parametrize("kind, d, algebra", DUALITY_SPACES)
def test_singularity_check_agrees_with_every_raising_element(kind, d, algebra):
    # every highest weight vector candidate at doubled cutoff 10, and every
    # one-monomial state up to doubled energy 4, singular or not
    space = Space(kind, d)
    vectors = [hwv_candidate(space, algebra, lam) for lam in duality_decompose(space, algebra, 10)]
    vectors += [FockVector(space, {mono: Fraction(1)}) for mono in enumerate_basis(space, 4)]
    verdicts = Counter()
    for vec in vectors:
        ok, witness = singularity_check(space, algebra, vec)
        assert ok == singularity_check_full(space, algebra, vec)[0], str(vec)
        if vec and not ok:
            assert witness in raising_generators(space, algebra, max(vec.energies2())), (str(vec), witness)
        verdicts[ok] += 1
    assert verdicts[True] and verdicts[False], verdicts


@pytest.mark.parametrize("kind, d, algebra", [
    ("A", 1, "C"), ("A", 2, "C"), ("A", 3, "C"), ("A", 1, "A"), ("A", 2, "A"), ("A", 3, "A"),
    ("A", 1, "Deven"), ("A", 2, "Deven"), ("A", 3, "Deven"),
    ("Dodd", 1, "Dodd"), ("Dodd", 2, "Dodd"), ("Dodd", 3, "Dodd"),
])
def test_hwv_candidate_agrees_with_minor_state_products(kind, d, algebra):
    # the minors applied as operators, the last first, against the minor states multiplied
    # in product order, on every label of the decomposition at doubled cutoff 8, and on
    # the one-column labels whose spinorial minor is 6 x 6 (D on d = 3) or 7 x 7 (Dodd on d = 3)
    space = Space(kind, d)
    compared = Counter()
    long_column = {("A", 3, "Deven"): [(1,) * 6], ("Dodd", 3, "Dodd"): [(1,) * 7]}.get((kind, d, algebra), [])
    for lam in [*duality_decompose(space, algebra, 8), *map(GeneralizedPartition, long_column)]:
        for variant in ("X", "Xt") if algebra == "Deven" else ("X",):
            try:
                vec = hwv_candidate(space, algebra, lam, variant)
            except ValueError as exc:  # Xt exists only when lambda'_1 = d
                assert variant == "Xt" and "lambda'_1 = d" in str(exc)
                continue
            assert vec and vec == hwv_by_state_products(space, algebra, lam, variant), (lam, variant)
            compared[variant] += 1
    assert compared["X"] > 3 and (compared["Xt"] > 1 or algebra != "Deven"), compared


def test_hwv_candidate_agrees_with_minor_state_products_at_the_hw_cap():
    # D [1^8] on d = 4, the largest label `cli.SIZE_CAPS["hw"]` admits: one 8 x 8 spinorial
    # minor, whose 8! signed words the oracle builds one by one
    space, lam = Space("A", 4), GeneralizedPartition((1,) * 8)
    vec = hwv_candidate(space, "Deven", lam)
    assert vec and vec == hwv_by_state_products(space, "Deven", lam)


def test_hwv_candidate_keeps_the_order_of_two_odd_minors():
    # C [2,2,2,1] at d = 4: both columns' minors hold an odd number of fermionic
    # modes, so the vector changes sign if they are applied in the other order
    space = Space("A", 4)
    vec = hwv_candidate(space, "C", Partition((2, 2, 2, 1)))
    assert vec and vec == hwv_by_state_products(space, "C", Partition((2, 2, 2, 1)))
    assert singularity_check(space, "C", vec)[0]


def test_hwv_sweep_weights_and_singularity():
    # d <= 2, |lam| <= 3, all four families, with the expected group weights
    from superchar.partitions import bar_conjugate, transpose
    import itertools

    def gps(maxabs, length):
        for parts in itertools.product(range(maxabs, -maxabs - 1, -1), repeat=length):
            if all(parts[i] >= parts[i + 1] for i in range(length - 1)):
                if sum(abs(p) for p in parts) <= maxabs:
                    yield parts

    def partitions(maxsize, length):
        seen = {(0,) * length}
        def rec(prefix, rem, mx):
            if len(prefix) <= length:
                seen.add(tuple(prefix + [0] * (length - len(prefix))))
            if len(prefix) == length:
                return
            for p in range(min(mx, rem), 0, -1):
                rec(prefix + [p], rem - p, p)
        rec([], maxsize, maxsize)
        return sorted(seen)

    for d in (1, 2):
        sp = Space("A", d)
        for parts in gps(3, d):
            lam = GeneralizedPartition(parts)
            v = hwv_candidate(sp, "A", lam)
            assert v, parts
            assert singularity_check(sp, "A", v)[0], parts
            assert group_raising_check(sp, "A", v)[0], parts
            coeffs, group = diagonal_weight(sp, "A", v)
            assert coeffs == weight_from_partition("A", lam).as_dict()
            assert group == parts
        for parts in partitions(3, d):
            lam = Partition(parts)
            v = hwv_candidate(sp, "C", lam)
            assert v and singularity_check(sp, "C", v)[0], parts
            assert group_raising_check(sp, "C", v)[0], parts
            coeffs, group = diagonal_weight(sp, "C", v)
            assert coeffs == weight_from_partition("C", lam).as_dict() and group == parts

    for d in (1, 2):
        n = 2 * d
        sp = Space("A", d)
        for parts in partitions(3, n):
            lam = Partition(parts)
            cols = () if lam.is_zero() else transpose(lam).parts
            c1 = cols[0] if cols else 0
            c2 = cols[1] if len(cols) > 1 else 0
            if c1 + c2 > n:
                continue
            for variant in ["X"] + (["Xt"] if c1 == d else []):
                v = hwv_candidate(sp, "Deven", lam, variant=variant)
                assert v and singularity_check(sp, "Deven", v)[0], (parts, variant)
                assert group_raising_check(sp, "Deven", v)[0], (parts, variant)
                coeffs, group = diagonal_weight(sp, "Deven", v)
                assert coeffs == weight_from_partition("D", lam).as_dict()
                if c1 <= d:
                    want = tuple(parts[:d]) if variant == "X" else tuple(parts[: d - 1]) + (-parts[d - 1],)
                else:
                    want = tuple(bar_conjugate(lam, n).parts[:d])
                assert group == want, (parts, variant, group, want)

    for d in (0, 1, 2):
        n = 2 * d + 1
        sp = Space("Dodd", d)
        for parts in partitions(3, n):
            lam = Partition(parts)
            cols = () if lam.is_zero() else transpose(lam).parts
            c1 = cols[0] if cols else 0
            c2 = cols[1] if len(cols) > 1 else 0
            if c1 + c2 > n:
                continue
            v = hwv_candidate(sp, "Dodd", lam)
            assert v and singularity_check(sp, "Dodd", v)[0], parts
            assert group_raising_check(sp, "Dodd", v)[0], parts
            coeffs, group = diagonal_weight(sp, "Dodd", v)
            assert coeffs == weight_from_partition("D", lam).as_dict()
            base = lam if 2 * c1 <= n else bar_conjugate(lam, n)
            assert group == tuple(base.parts[:d]), parts


def test_gl_diagonal_weight_reads_the_zero_mode():
    # on the gl space the gl diagonal also reads e(0,0); the A vector of a
    # non-negative label carries the gl weight of that label
    labels = {1: [(0,), (1,), (2,)], 2: [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]}
    for d, parts_list in labels.items():
        sp = Space("gl", d)
        for parts in parts_list:
            lam = GeneralizedPartition(parts)
            v = hwv_candidate(sp, "A", lam)
            assert diagonal_weight(sp, "gl", v) == (weight_from_partition("gl", lam).as_dict(), parts), parts
        # the psi zero modes p-[d,0] and p-[1,0] ... p-[d,0] give the gl-singular vectors of
        # (0,..,0,-1) and (-1,..,-1), whose e(0,0) eigenvalues -1 and -d no other term carries
        for parts, modes in [((0,) * (d - 1) + (-1,), [(PSI_M, d, 0)]),
                             ((-1,) * d, [(PSI_M, c, 0) for c in range(1, d + 1)])]:
            v = vec_of(sp, *modes)
            assert singularity_check(sp, "gl", v) == (True, None), parts
            weight = weight_from_partition("gl", GeneralizedPartition(parts)).as_dict()
            assert weight == {0: -len(modes)}
            assert diagonal_weight(sp, "gl", v) == (weight, parts), parts


def test_gram_examples():
    sp = Space("A", 1)
    basis, mat = gram_matrix(sp, 1, "signed")
    assert mat == [[1, 0], [0, 1]]
    _, naive = gram_matrix(sp, 1, "naive")
    norms = [row[i] for i, row in enumerate(naive)]
    assert sorted(norms) == [-1, 1]
    assert any(norm < 0 for norm in norms)
    _, zero = gram_matrix(sp, 0, "signed")
    assert zero == [[1]]


def test_omega_mode_on_every_field():
    # (mode, signed, naive): the conjugate field at -index; only a gamma pair
    # whose gamma- member annihilates carries a sign, and only when signed
    cases = [
        ((PSI_P, 1, -2), (1, (PSI_M, 1, 2)), (1, (PSI_M, 1, 2))),
        ((PSI_P, 1, 2), (1, (PSI_M, 1, -2)), (1, (PSI_M, 1, -2))),
        ((PSI_M, 1, -2), (1, (PSI_P, 1, 2)), (1, (PSI_P, 1, 2))),
        ((PSI_M, 1, 2), (1, (PSI_P, 1, -2)), (1, (PSI_P, 1, -2))),
        ((GAM_P, 1, -1), (-1, (GAM_M, 1, 1)), (1, (GAM_M, 1, 1))),
        ((GAM_P, 1, 1), (1, (GAM_M, 1, -1)), (1, (GAM_M, 1, -1))),
        ((GAM_M, 1, -1), (1, (GAM_P, 1, 1)), (1, (GAM_P, 1, 1))),
        ((GAM_M, 1, 1), (-1, (GAM_P, 1, -1)), (1, (GAM_P, 1, -1))),
        ((PHI, 0, -2), (1, (PHI, 0, 2)), (1, (PHI, 0, 2))),
        ((PHI, 0, 2), (1, (PHI, 0, -2)), (1, (PHI, 0, -2))),
        ((CHI, 0, -1), (1, (CHI, 0, 1)), (1, (CHI, 0, 1))),
        ((CHI, 0, 1), (1, (CHI, 0, -1)), (1, (CHI, 0, -1))),
    ]
    for mode, signed, naive in cases:
        assert omega_mode(mode) == signed, mode
        assert omega_mode(mode, naive=True) == naive, mode


def test_creation_modes_literal():
    assert Space("gl", 1).creation_modes(2) == [
        (PSI_P, 1, -2), (PSI_M, 1, -2), (PSI_M, 1, 0), (GAM_P, 1, -1), (GAM_M, 1, -1),
    ]
    assert Space("Dodd", 1).creation_modes(3) == [
        (PSI_P, 1, -2), (PSI_M, 1, -2), (GAM_P, 1, -3), (GAM_P, 1, -1), (GAM_M, 1, -3),
        (GAM_M, 1, -1), (PHI, 0, -2), (CHI, 0, -3), (CHI, 0, -1),
    ]


def test_one_mode_norms():
    # the signed conjugation gives every one-mode state norm 1; the naive one
    # leaves the gamma+ contraction sign in place
    for space in (Space("gl", 2), Space("A", 2), Space("Dodd", 1)):
        for m in space.creation_modes(4):
            state = vec_of(space, m)
            assert inner_product(space, (m,), state, "signed") == 1, (space, m)
            assert inner_product(space, (m,), state, "naive") == (-1 if m[0] == GAM_P else 1), (space, m)


def test_gram_matrix_matches_dense_oracle_and_closed_form_norms():
    # the library computes only the diagonal; the oracle pairs every bra with every ket
    cases = [(Space("gl", 1), 4), (Space("gl", 2), 3), (Space("A", 1), 4), (Space("A", 2), 3), (Space("Dodd", 1), 4)]
    for space, top2 in cases:
        for e2 in range(top2 + 1):
            for conjugation in ("signed", "naive"):
                basis, mat = gram_matrix(space, e2, conjugation)
                assert (basis, mat) == dense_gram(space, e2, conjugation), (space, e2, conjugation)
                for i, mono in enumerate(basis):
                    # a mode met k times gives k!, and naive leaves a -1 on every gamma+ mode
                    norm = math.prod(math.factorial(k) for k in Counter(mono).values())
                    if conjugation == "naive":
                        norm *= (-1) ** sum(1 for mode in mono if mode[0] == GAM_P)
                    assert mat[i][i] == norm, (space, mono, conjugation)


def test_gram_positive_definite_up_to_energy_2():
    for d in (1, 2):
        sp = Space("gl", d)
        for e2 in (1, 2, 3, 4):
            basis, mat = gram_matrix(sp, e2, "signed")
            assert all(row[i] > 0 for i, row in enumerate(mat)), (d, e2)
            for i, row in enumerate(mat):
                for j, v in enumerate(row):
                    if i != j:
                        assert v == 0


def test_contravariance_of_realization():
    # <x u | v> = <u | omega(x) v> with omega(e_pq) = (-1)^{[p]+[q]} e_qp
    sp = Space("gl", 1)
    basis = enumerate_basis(sp, 3)

    def br(p2):
        return 1 if (p2 < 0 and p2 % 2) else 0

    rng = random.Random(6)
    pairs = [(p2, q2) for p2 in range(-3, 4) for q2 in range(-3, 4)]
    for p2, q2 in rng.sample(pairs, 12):
        op = realize_algebra(sp, "gl", p2, q2)
        opw = realize_algebra(sp, "gl", q2, p2) * ((-1) ** (br(p2) + br(q2)))
        for u in basis[::3]:
            xu = op.apply(FockVector(sp, {u: Fraction(1)}))
            for v in basis[::3]:
                vv = FockVector(sp, {v: Fraction(1)})
                lhs = sum(inner_product(sp, m, vv) * c for m, c in xu.terms.items())
                rhs = inner_product(sp, u, opw.apply(vv))
                assert lhs == rhs


def test_character_matches_product_formula():
    for sp in (Space("A", 1), Space("A", 2), Space("Dodd", 1)):
        cutoff2 = 4 if sp.d == 1 else 3
        assert fock_character(sp, cutoff2) == character_product_formula(sp, cutoff2)


@pytest.mark.parametrize("kind,d", [("A", 0), ("A", 1), ("A", 2), ("A", 3), ("Dodd", 0), ("Dodd", 1), ("Dodd", 2)])
def test_character_walk_matches_oracle_and_product_formula(kind, d):
    # doubled cutoff 0 packs in base 1, cutoff 1 has no x slots, d = 0 no z slots
    sp = Space(kind, d)
    for cutoff2 in range(9):
        ch = fock_character(sp, cutoff2)
        assert ch == fock_character_by_monomial(sp, cutoff2) == character_product_formula(sp, cutoff2), cutoff2
        assert all(type(c) is int for slot in ch.values() for c in slot.values())


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["A", "Dodd"]), d=st.integers(0, 2), cutoff2=st.integers(0, 8))
def test_character_routes_agree_on_drawn_spaces(kind, d, cutoff2):
    sp = Space(kind, d)
    walked = fock_character(sp, cutoff2)
    formula = character_product_formula(sp, cutoff2)
    assert walked == formula == fock_character_by_monomial(sp, cutoff2)
    for ch in (walked, formula):
        assert all(type(c) is int for slot in ch.values() for c in slot.values())


@pytest.mark.parametrize("kind,d", [("A", 2), ("Dodd", 1)])
def test_character_walk_matches_product_formula_at_cutoff_5(kind, d):
    # the doubled cutoff of the fock-duality benchmark; the oracle is too slow here
    sp = Space(kind, d)
    assert fock_character(sp, 10) == character_product_formula(sp, 10)


def test_product_formula_shares_nothing_with_the_walk():
    # a fault in shared code would make both routes wrong together
    import superchar.fock as fock

    def names(code):
        yield from code.co_names + code.co_varnames + code.co_freevars + code.co_cellvars
        for const in code.co_consts:
            if hasattr(const, "co_names"):
                yield from names(const)

    shared = {"_walk", "creation_modes", "Counter", "unit", "step", "decode"}
    assert not shared & set(names(character_product_formula.__code__))
    assert not hasattr(fock, "_bump")


@pytest.mark.parametrize("kind,d", [("gl", 0), ("gl", 1), ("gl", 2), ("A", 1), ("A", 2), ("Dodd", 0), ("Dodd", 1)])
def test_enumerate_basis_matches_oracle_in_order(kind, d):
    sp = Space(kind, d)
    for cutoff2 in range(9):
        assert enumerate_basis(sp, cutoff2) == fock_basis_by_monomial(sp, cutoff2), cutoff2


def test_character_example():
    sp = Space("A", 1)
    ch = fock_character(sp, 1)
    assert ch == {
        ((0,), 0): {((), ()): 1},
        ((1,), 0): {((), ((1, 1),)): 1},
        ((-1,), 0): {((), ((1, 1),)): 1},
    }


def test_dodd_eps_grading():
    sp = Space("Dodd", 1)
    ch = fock_character(sp, 2)
    for (z, eps), wmonos in ch.items():
        for (xs, ys), c in wmonos.items():
            nmodes = sum(m for _, m in xs) + sum(m for _, m in ys)
            # eps tracks total mode count mod 2, and x/y bookkeeping absorbs
            # psi/gamma counts; fermionic z-charge keeps them consistent
            assert eps == nmodes % 2


# every dual pair at d = 0..3, doubled cutoffs 0..8, and 10 for d <= 2
DUAL_PAIR_GRID = [(kind, d, algebra) for kind, algebra in [("A", "C"), ("A", "A"), ("A", "Deven"), ("Dodd", "Dodd")]
                  for d in range(4)]


def _grid_cutoffs(d):
    return list(range(9)) + ([10] if d <= 2 else [])


def _weyl(algebra):
    return "A" if _dual_pair(algebra)[1] == "GL" else "C"


@pytest.mark.parametrize("kind, d, algebra", DUAL_PAIR_GRID)
def test_dominant_character_is_the_dominant_part_of_the_walk(kind, d, algebra):
    # the sweep's W(C)-dominant keys, and for GL the W(A)-dominant members of their orbits, as
    # `duality_decompose` peels them; x_n is e_{2n}(x) there
    space, weyl = Space(kind, d), _weyl(algebra)
    for cutoff2 in _grid_cutoffs(d):
        walked = _dominant_part(fock_character(space, cutoff2).items(), weyl)
        swept = {key: {(tuple((n // 2, m) for n, m in xs), ys): c for (xs, ys), c in f.terms.items()}
                 for key, f in _character_sweep(space, cutoff2).items()}
        if weyl == "A":
            swept = {(w, eps): g for (z, eps), g in swept.items() for w in _orbit(z) if _dominant_weight("A", w) == w}
        assert swept == walked, cutoff2


@pytest.mark.parametrize("kind, d, algebra", [(kind, d, algebra) for kind, d, algebra in DUAL_PAIR_GRID
                                              if d or kind == "Dodd"])  # GL(0), Sp(0) and O(0) are no groups
def test_duality_decompose_matches_the_walked_route(kind, d, algebra):
    space = Space(kind, d)
    for cutoff2 in _grid_cutoffs(d):
        assert duality_decompose(space, algebra, cutoff2) == duality_decompose_by_walk(space, algebra, cutoff2), cutoff2


def test_duality_decompose_walks_no_basis(monkeypatch):
    # ch F comes from the one-colour product formula on dominant keys: no walk of
    # the basis, no walked character and no orbit check
    import superchar.fock as fock
    import superchar.laurentchars as laurentchars

    spaces = DUALITY_SPACES + [("A", 1, "C"), ("Dodd", 0, "Dodd")]
    want = {row: duality_decompose_by_walk(Space(row[0], row[1]), row[2], 6) for row in spaces}

    def forbidden(*args, **kwargs):
        raise AssertionError("duality_decompose walked the basis")

    for module, name in [(fock, "_walk"), (fock, "fock_character"), (laurentchars, "_dominant_part")]:
        monkeypatch.setattr(module, name, forbidden)
    for row in spaces:
        assert duality_decompose(Space(row[0], row[1]), row[2], 6) == want[row], row


def test_an_asymmetric_one_colour_series_names_its_key(monkeypatch):
    # the + sign of the y series of energy 1/2 loses its top power, the state g+[1/2]^6 at z^6
    import superchar.superschur as superschur

    real = superschur._geom_factor

    def one_sign_short(sign, units, with_eps):
        terms = real(sign, units, with_eps)
        return terms[:-1] if sign == 1 and len(units) == 7 else terms  # at doubled cutoff 6: 1, y, ..., y^6

    monkeypatch.setattr(superschur, "_geom_factor", one_sign_short)
    for algebra in ("A", "C", "Deven"):
        with pytest.raises(DecompositionError, match=r"differs at z\^-?6 and z\^-?6") as info:
            duality_decompose(Space("A", 2), algebra, 6)
        assert info.value.key in (((6,), 0), ((-6,), 0)), algebra
    for call in (lambda: duality_decompose(Space("Dodd", 1), "Dodd", 6),
                 lambda: character_product_formula(Space("A", 2), 6)):
        with pytest.raises(DecompositionError) as info:
            call()
        assert info.value.key in (((6,), 0), ((-6,), 0))


def test_duality_decompose_examples():
    sp = Space("A", 1)
    dec = duality_decompose(sp, "C", 1)
    lam0, lam1 = Partition((0,)), Partition((1,))
    assert dec[lam0] == {((), ()): 1}
    assert dec[lam1] == {((), ((1, 1),)): 1}
    dec0 = duality_decompose(sp, "C", 0)
    assert dec0 == {lam0: {((), ()): 1}}


def test_duality_decompose_matches_hook_schur():
    from superchar.superschur import so_hook, sp_hook
    from superchar.symring import weight_expansion
    from superchar.partitions import bar_conjugate

    def check(space, algebra, cutoff2, hook_of):
        for lam, wm in duality_decompose(space, algebra, cutoff2).items():
            expect = {k: int(v) for k, v in weight_expansion(hook_of(lam), cutoff2).items() if v}
            assert expect == {k: v for k, v in wm.items() if v}, (algebra, cutoff2, lam)

    def even_hook(n, cutoff2):
        def hook(lam):
            bar = bar_conjugate(lam, n)
            want = so_hook(lam, n, cutoff2)
            return want if bar.parts == lam.parts else want + so_hook(bar, n, cutoff2)
        return hook

    # doubled cutoff 5 tops the grading with a layer of y modes only; A/C d=2
    # at 6 is the size of the benchmark's cross-check
    for d, cutoff2 in ((1, 4), (2, 4), (2, 5), (2, 6)):
        check(Space("A", d), "C", cutoff2, lambda lam: sp_hook(lam, cutoff2))
    for d, cutoff2 in ((1, 4), (2, 4), (2, 5)):
        check(Space("A", d), "Deven", cutoff2, even_hook(2 * d, cutoff2))
    for cutoff2 in (4, 5):
        check(Space("Dodd", 1), "Dodd", cutoff2, lambda lam: so_hook(lam, 3, cutoff2))


def test_decomposed_weights_are_unitarizable():
    from superchar.hwclassify import is_unitarizable

    for space, algebra, alg in [
        (Space("A", 1), "C", "C"),
        (Space("A", 2), "C", "C"),
        (Space("A", 1), "Deven", "D"),
        (Space("Dodd", 1), "Dodd", "D"),
    ]:
        for lam in duality_decompose(space, algebra, 4):
            assert is_unitarizable(weight_from_partition(alg, lam)).ok, (algebra, lam)


def test_state_rendering():
    sp = Space("A", 1)
    v = vec_of(sp, (GAM_P, 1, -1), (GAM_M, 1, -3))
    assert str(v) == "g+[1,-1/2] g-[1,-3/2] |0>"


def test_duality_decompose_gl_side():
    from superchar.symring import wmono_energy2
    from superchar.laurentchars import GroupTag
    from superchar.hwclassify import is_unitarizable

    for d in (1, 2):
        sp = Space("A", d)
        dec = duality_decompose(sp, "A", 4)
        counts: dict = {}
        for lam, wm in dec.items():
            assert is_unitarizable(weight_from_partition("A", lam)).ok
            low = min(wmono_energy2(k) for k in wm)
            assert sum(c for k, c in wm.items() if wmono_energy2(k) == low) == 1
            dim = dimension(GroupTag("GL", d), lam)
            for wmono, c in wm.items():
                e2 = wmono_energy2(wmono)
                counts[e2] = counts.get(e2, 0) + c * dim
        basis_counts: dict = {}
        for m in enumerate_basis(sp, 4):
            e2 = mono_energy2(m)
            basis_counts[e2] = basis_counts.get(e2, 0) + 1
        assert counts == basis_counts


def _mat_comm(a, b, n):
    out = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            if j == k:
                out[(i, l)] = out.get((i, l), 0) + x * y
            if l == i:
                out[(k, j)] = out.get((k, j), 0) - x * y
    return {k: v for k, v in out.items() if v}


def _sp_basis_matrix(d, desc):
    kind, i, j = desc
    i -= 1
    j -= 1
    if kind == "E":
        return {(i, j): 1, (d + j, d + i): -1}
    out = {}
    pairs = [(i, d + j), (j, d + i)] if kind == "sp+" else [(d + i, j), (d + j, i)]
    for key in pairs:
        out[key] = out.get(key, 0) + 1
    return out


def _sp_decompose(m, d):
    out = []
    for i in range(d):
        for j in range(d):
            c = m.get((i, j), 0)
            if c:
                out.append((c, ("E", i + 1, j + 1)))
    for i in range(d):
        c = m.get((i, d + i), 0)
        if c:
            assert c % 2 == 0
            out.append((c // 2, ("sp+", i + 1, i + 1)))
        c = m.get((d + i, i), 0)
        if c:
            assert c % 2 == 0
            out.append((c // 2, ("sp-", i + 1, i + 1)))
        for j in range(i + 1, d):
            c = m.get((i, d + j), 0)
            if c:
                out.append((c, ("sp+", i + 1, j + 1)))
            c = m.get((d + i, j), 0)
            if c:
                out.append((c, ("sp-", i + 1, j + 1)))
    return out


def _so_basis_matrix(d, desc, odd):
    kind, i, j = desc
    mid = d  # 0-based index of the middle basis vector when odd
    off = d + 1 if odd else d
    i -= 1
    j = j - 1 if j is not None else j
    if kind == "E":
        return {(i, j): 1, (off + j, off + i): -1}
    if kind == "so+":
        return {(i, off + j): 1, (j, off + i): -1}
    if kind == "so-":
        return {(off + i, j): 1, (off + j, i): -1}
    if kind == "so+vec":
        return {(i, mid): 1, (mid, off + i): -1}
    return {(mid, i): 1, (off + i, mid): -1}  # so-vec


def _so_decompose(m, d, odd):
    off = d + 1 if odd else d
    out = []
    for i in range(d):
        for j in range(d):
            c = m.get((i, j), 0)
            if c:
                out.append((c, ("E", i + 1, j + 1)))
    for i in range(d):
        for j in range(i + 1, d):
            c = m.get((i, off + j), 0)
            if c:
                out.append((c, ("so+", i + 1, j + 1)))
            c = m.get((off + i, j), 0)
            if c:
                out.append((c, ("so-", i + 1, j + 1)))
    if odd:
        for i in range(d):
            c = m.get((i, d), 0)
            if c:
                out.append((c, ("so+vec", i + 1, None)))
            c = m.get((d, i), 0)
            if c:
                out.append((c, ("so-vec", i + 1, None)))
    return out


def _realize_desc(space, desc, cutoff2):
    kind, i, j = desc
    if kind in ("so+vec", "so-vec"):
        return realize_group(space, kind, (i,), cutoff2)
    return realize_group(space, kind, (i, j), cutoff2)


def test_group_algebra_closure_on_states():
    # the quadratic group generators represent the finite algebra exactly
    # (no central term): checked against abstract matrix commutators
    import itertools as it

    for d, odd in [(1, False), (2, False), (1, True)]:
        space = Space("Dodd" if odd else "A", d)
        n = 2 * d + 1 if odd else 2 * d
        cutoff2 = 3
        basis = enumerate_basis(space, cutoff2)
        if odd:
            descs = [("E", i, j) for i in range(1, d + 1) for j in range(1, d + 1)]
            descs += [("so+", i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
            descs += [("so-", i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
            descs += [("so+vec", i, None) for i in range(1, d + 1)]
            descs += [("so-vec", i, None) for i in range(1, d + 1)]
            to_matrix = lambda desc: _so_basis_matrix(d, desc, True)
            decompose = lambda m: _so_decompose(m, d, True)
        else:
            descs = [("E", i, j) for i in range(1, d + 1) for j in range(1, d + 1)]
            descs += [("sp+", i, j) for i in range(1, d + 1) for j in range(i, d + 1)]
            descs += [("sp-", i, j) for i in range(1, d + 1) for j in range(i, d + 1)]
            to_matrix = lambda desc: _sp_basis_matrix(d, desc)
            decompose = lambda m: _sp_decompose(m, d)
        big2 = cutoff2 + 4  # operators must stay exact above the state cutoff
        for da, db in it.product(descs, repeat=2):
            ra = _realize_desc(space, da, big2)
            rb = _realize_desc(space, db, big2)
            br = _mat_comm(to_matrix(da), to_matrix(db), n)
            rbr = RealizedOp(space, [])
            for coeff, desc in decompose(br):
                rbr = rbr + _realize_desc(space, desc, big2) * coeff
            for mono in basis[:: max(1, len(basis) // 12)]:
                v = FockVector(space, {mono: Fraction(1)})
                lhs = ra.apply(rb.apply(v)) - rb.apply(ra.apply(v))
                assert lhs == rbr.apply(v), (da, db, fmt_state(mono))
            # leftover entries outside the recognised basis pattern mean the
            # decomposition missed something
            rebuilt = {}
            for coeff, desc in decompose(br):
                for key, val in to_matrix(desc).items():
                    rebuilt[key] = rebuilt.get(key, 0) + coeff * val
            assert {k: v for k, v in rebuilt.items() if v} == br, (da, db)


def test_adjointness_of_group_generators():
    # <X u | v> = <u | X^dagger v> for the sp/so generator pairs
    space = Space("Dodd", 1)
    basis = enumerate_basis(space, 2)
    ops = [
        (realize_group(space, "so+vec", (1,), 4), realize_group(space, "so-vec", (1,), 4)),
        (realize_group(space, "E", (1, 1), 4), realize_group(space, "E", (1, 1), 4)),
    ]
    for op, adj in ops:
        for u in basis:
            xu = op.apply(FockVector(space, {u: Fraction(1)}))
            for v in basis:
                vv = FockVector(space, {v: Fraction(1)})
                lhs = sum(inner_product(space, m, vv) * c for m, c in xu.terms.items())
                rhs = inner_product(space, u, adj.apply(vv))
                assert lhs == rhs


def test_group_generator_examples():
    # one literal per descriptor at cutoff 1: the fermionic pair at n = 1, the
    # bosonic pair at n = 1/2, and the psi zero mode of E on the gl space
    a2, gl2, d1 = Space("A", 2), Space("gl", 2), Space("Dodd", 1)
    e12 = [
        (Fraction(1), ((PSI_P, 1, -2), (PSI_M, 2, 2))),
        (Fraction(-1), ((PSI_M, 2, -2), (PSI_P, 1, 2))),
        (Fraction(-1), ((GAM_P, 1, -1), (GAM_M, 2, 1))),
        (Fraction(-1), ((GAM_M, 2, -1), (GAM_P, 1, 1))),
    ]
    assert realize_group(a2, "E", (1, 2), 2).terms == e12
    assert realize_group(gl2, "E", (1, 2), 2).terms == e12 + [(Fraction(-1), ((PSI_M, 2, 0), (PSI_P, 1, 0)))]
    assert realize_group(a2, "sp+", (1, 2), 2).terms == [
        (Fraction(1), ((PSI_P, 1, -2), (PSI_P, 2, 2))),
        (Fraction(1), ((PSI_P, 2, -2), (PSI_P, 1, 2))),
        (Fraction(1), ((GAM_P, 1, -1), (GAM_P, 2, 1))),
        (Fraction(1), ((GAM_P, 2, -1), (GAM_P, 1, 1))),
    ]
    assert realize_group(a2, "sp-", (1, 2), 2).terms == [
        (Fraction(1), ((PSI_M, 1, -2), (PSI_M, 2, 2))),
        (Fraction(1), ((PSI_M, 2, -2), (PSI_M, 1, 2))),
        (Fraction(-1), ((GAM_M, 1, -1), (GAM_M, 2, 1))),
        (Fraction(-1), ((GAM_M, 2, -1), (GAM_M, 1, 1))),
    ]
    assert realize_group(a2, "so+", (1, 2), 2).terms == [
        (Fraction(1), ((PSI_P, 1, -2), (PSI_P, 2, 2))),
        (Fraction(-1), ((PSI_P, 2, -2), (PSI_P, 1, 2))),
        (Fraction(1), ((GAM_P, 1, -1), (GAM_P, 2, 1))),
        (Fraction(-1), ((GAM_P, 2, -1), (GAM_P, 1, 1))),
    ]
    assert realize_group(a2, "so-", (1, 2), 2).terms == [
        (Fraction(1), ((PSI_M, 1, -2), (PSI_M, 2, 2))),
        (Fraction(-1), ((PSI_M, 2, -2), (PSI_M, 1, 2))),
        (Fraction(-1), ((GAM_M, 1, -1), (GAM_M, 2, 1))),
        (Fraction(1), ((GAM_M, 2, -1), (GAM_M, 1, 1))),
    ]
    assert realize_group(d1, "so+vec", (1,), 2).terms == [
        (Fraction(1), ((PHI, 0, -2), (PSI_P, 1, 2))),
        (Fraction(-1), ((PSI_P, 1, -2), (PHI, 0, 2))),
        (Fraction(1), ((CHI, 0, -1), (GAM_P, 1, 1))),
        (Fraction(-1), ((GAM_P, 1, -1), (CHI, 0, 1))),
    ]
    assert realize_group(d1, "so-vec", (1,), 2).terms == [
        (Fraction(1), ((PSI_M, 1, -2), (PHI, 0, 2))),
        (Fraction(-1), ((PHI, 0, -2), (PSI_M, 1, 2))),
        (Fraction(1), ((GAM_M, 1, -1), (CHI, 0, 1))),
        (Fraction(1), ((CHI, 0, -1), (GAM_M, 1, 1))),
    ]
    with pytest.raises(ValueError, match="unknown descriptor"):
        realize_group(a2, "sp", (1, 2), 2)


def test_lowering_then_raising_scales_a_highest_weight_vector():
    # on a highest weight vector v the raising generator kills v, so raise(j, i) lower(i, j) v
    # is the bracket's Cartan element on v: c v with c = lam_i + lam_j for so and for sp at
    # i < j, 4 lam_i for sp at (i, i), and lam_i for so+vec after so-vec at colour i.  A
    # lowering generator of the opposite sign flips c, which no closure or adjointness
    # relation sees
    cases = [("A", 1, "C", (2,)), ("A", 2, "C", (2, 1)), ("A", 2, "C", (1, 1)),
             ("A", 2, "Deven", (2, 1, 0, 0)), ("A", 3, "Deven", (2, 1, 1, 0, 0, 0)),
             ("Dodd", 1, "Dodd", (2, 0, 0)), ("Dodd", 2, "Dodd", (2, 1, 0, 0, 0))]
    seen = {}
    for kind, d, algebra, lam in cases:
        space = Space(kind, d)
        v = hwv_candidate(space, algebra, Partition(lam))
        top2 = max(v.energies2())
        pair = "sp" if algebra == "C" else "so"
        checks = [((i, j), lam[i - 1] + lam[j - 1] if i < j else 4 * lam[i - 1])
                  for i in range(1, d + 1) for j in range(i, d + 1) if i < j or pair == "sp"]
        checks += [((i,), lam[i - 1]) for i in range(1, d + 1) if algebra == "Dodd"]
        for colours, c in checks:
            vec = "vec" if len(colours) == 1 else ""
            lowered = realize_group(space, f"{pair}-{vec}", colours, top2).apply(v)
            assert realize_group(space, f"{pair}+{vec}", colours[::-1], top2).apply(lowered) == v * c
            seen[algebra, lam, colours] = c
    assert len(seen) == 15
    assert seen["Deven", (2, 1, 1, 0, 0, 0), (1, 3)] == 3 and seen["C", (2, 1), (1, 1)] == 8


def test_group_raising_check_names_its_witness():
    # a one-mode state off the top of its colour is not highest: the witness is
    # the first raising operator that does not kill it
    # the first raising operator that does not kill it, as a realize_group descriptor
    a2, d1 = Space("A", 2), Space("Dodd", 1)
    assert group_raising_check(a2, "C", vec_of(a2, (GAM_P, 1, -1))) == (True, None)
    assert group_raising_check(a2, "C", vec_of(a2, (PSI_P, 2, -2))) == (False, ("E", 1, 2))
    assert group_raising_check(a2, "A", vec_of(a2, (PSI_P, 2, -2))) == (False, ("E", 1, 2))
    assert group_raising_check(a2, "C", vec_of(a2, (GAM_M, 2, -1))) == (False, ("sp+", 1, 2))
    assert group_raising_check(a2, "Deven", vec_of(a2, (GAM_M, 2, -1))) == (False, ("so+", 1, 2))
    assert group_raising_check(d1, "Dodd", vec_of(d1, (PHI, 0, -2))) == (False, ("so+vec", 1))
    # GL(2) has no sp/so part: gamma-[2,-1/2]|0>, of GL weight (0, -1), is highest for it
    assert group_raising_check(a2, "A", vec_of(a2, (GAM_M, 2, -1))) == (True, None)
    for algebra, message in [("SO", "unknown algebra 'SO'"), ("gl", "no dual group for algebra 'gl'")]:
        with pytest.raises(ValueError, match=message):
            group_raising_check(Space("Dodd", 0), algebra, FockVector.vacuum(Space("Dodd", 0)))


def test_the_dual_pair_must_fit_the_space():
    # the O group's size is 2 level, so Dodd on a d space or Deven on a d+1/2 space would
    # read as the other pair
    a1, d1 = Space("A", 1), Space("Dodd", 1)
    for space, algebra, lam in [(a1, "Dodd", Partition((1, 0))), (d1, "Deven", Partition((1, 0, 0))),
                                (d1, "C", Partition((1,)))]:
        for call in (lambda: duality_decompose(space, algebra, 4), lambda: hwv_candidate(space, algebra, lam),
                     lambda: group_raising_check(space, algebra, FockVector.vacuum(space))):
            with pytest.raises(ValueError, match=f"the {space.kind} space has no {algebra} dual pair"):
                call()


def test_realized_algebra_must_fit_the_space():
    # the same rule as the dual pair's: Deven on the d+1/2 space would build the Dodd operator
    a1, d1 = Space("A", 1), Space("Dodd", 1)
    vec = vec_of(d1, (PHI, 0, -2))
    for space, algebra in [(d1, "Deven"), (d1, "C"), (d1, "A"), (a1, "Dodd")]:
        with pytest.raises(ValueError, match=f"the {space.kind} space does not realize the {algebra} algebra"):
            realize_algebra(space, algebra, 1, 2)
    with pytest.raises(ValueError, match="the Dodd space does not realize the Deven algebra"):
        singularity_check(d1, "Deven", vec)
    assert singularity_check(d1, "Dodd", FockVector.vacuum(d1)) == (True, None)


def test_gl_space_levels_decompose_over_gl_d():
    # the full space (with fermionic zero modes) is a sum of finite-dim
    # GL_d representations level by level; labels are generalized partitions
    # whose weights classify as unitarizable
    from superchar.laurentchars import GroupTag, LaurentPoly, decompose_character
    from superchar.hwclassify import is_unitarizable

    for d in (1, 2):
        sp = Space("gl", d)
        group = GroupTag("GL", d)
        levels: dict = {}
        for mono in enumerate_basis(sp, 4):
            z = [0] * d
            for field, color, _idx2 in mono:
                if field in (PSI_P, GAM_P):
                    z[color - 1] += 1
                elif field in (PSI_M, GAM_M):
                    z[color - 1] -= 1
            levels.setdefault(mono_energy2(mono), {}).setdefault(tuple(z), 0)
            levels[mono_energy2(mono)][tuple(z)] += 1
        for e2, counts in sorted(levels.items()):
            poly = LaurentPoly(d, {(tuple(2 * v for v in z), 0): c for z, c in counts.items()})
            dec = decompose_character(poly, group)
            total = 0
            for lam, mult in dec.items():
                assert mult > 0
                assert is_unitarizable(weight_from_partition("gl", lam)).ok
                total += mult * dimension(group, lam)
            assert total == sum(counts.values()), (d, e2)
        # the negative one-row label enters at energy zero through a zero mode
        if d == 1:
            e0 = levels[0]
            poly0 = LaurentPoly(1, {((2 * v,), 0): c for (v,), c in e0.items()})
            dec0 = decompose_character(poly0, group)
            from superchar.partitions import GeneralizedPartition as GP
            assert dec0 == {GP((0,)): 1, GP((-1,)): 1}


def test_gram_positive_definite_dodd_space():
    # the phi/chi conjugation keeps the odd space unitarizable too
    sp = Space("Dodd", 1)
    for e2 in (1, 2, 3, 4):
        _, mat = gram_matrix(sp, e2, "signed")
        assert all(row[i] > 0 for i, row in enumerate(mat)), e2


def test_fock_rejections():
    a1, a2, d1, gl1 = Space("A", 1), Space("A", 2), Space("Dodd", 1), Space("gl", 1)
    vacuum = FockVector.vacuum(a1)
    mixed = vacuum + vec_of(a1, (GAM_P, 1, -1))  # energies 0 and 1/2: no eigenvector of e(1/2,1/2)
    for call, message in [
        (lambda: Space("B", 1), "unknown space kind 'B'"),
        (lambda: Space("A", -1), "d must be >= 0"),
        (lambda: apply_mode(a1, (PSI_P, 1, 0), vacuum), "mode p+[1,0] not admissible on Space(kind='A', d=1)"),
        (lambda: realize_group(a2, "E", (1, 1), 2).apply(vacuum), "operator and vector live on different spaces"),
        (lambda: realize_matrix(d1, SuperMatrix.unit(2, 2)), "the d+1/2 space realizes only the D-type te(p,q)"),
        (lambda: diagonal_weight(a1, "A", mixed), "not an eigenvector of the A element (1/2,1/2)"),
        (lambda: inner_product(a1, (), vacuum, "plain"), "unknown conjugation 'plain'"),
        (lambda: fock_character(gl1, 2), "character bookkeeping is for the reduced spaces"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

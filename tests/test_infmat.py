import random
from fractions import Fraction

import pytest

from superchar.infmat import (
    SuperMatrix,
    cocycle_alpha,
    fmt_half,
    parse_half,
    preserves_form,
    super_bracket,
    supertrace,
    te_generator,
)


def e(p2, q2, c=1):
    return SuperMatrix.unit(p2, q2, c)


def test_bracket_examples():
    # even matrix units: [e_{0,1}, e_{1,0}] = e_{0,0} - e_{1,1}
    assert super_bracket(e(0, 2), e(2, 0)) == e(0, 0) - e(2, 2)
    # both odd: anticommutator [e_{1/2,1}, e_{1,1/2}] = e_{1/2,1/2} + e_{1,1}
    assert super_bracket(e(1, 2), e(2, 1)) == e(1, 1) + e(2, 2)
    a = e(0, 2) + e(4, 0, 3)
    assert super_bracket(a, a) == SuperMatrix()


def test_supertrace_examples():
    assert supertrace(e(0, 0)) == 1
    assert supertrace(e(1, 1)) == -1
    assert supertrace(e(0, 2)) == 0


def test_cocycle_examples():
    assert cocycle_alpha(e(0, 2), e(2, 0)) == 1
    assert cocycle_alpha(e(2, 0), e(0, 2)) == -1
    assert cocycle_alpha(e(1, 2), e(2, 1)) == 0  # both indices positive


def test_integral_sums_of_halves_come_back_as_int():
    # the two halves on the diagonal meet in the supertrace; the half at (1, -1) meets a 2 in alpha
    half = SuperMatrix({(0, 0): Fraction(1, 2), (-1, -1): Fraction(-1, 2), (2, -2): Fraction(1, 2)})
    assert supertrace(half) == 1 and type(supertrace(half)) is int
    assert cocycle_alpha(half, SuperMatrix({(-2, 2): 3})) == Fraction(-3, 2)
    alpha = cocycle_alpha(half, SuperMatrix({(-2, 2): 2}))
    assert alpha == -1 and type(alpha) is int


def _random_homog(rng, max_idx2=6, deg_bound2=6, max_support=3):
    deg2 = rng.randint(-deg_bound2, deg_bound2)
    entries = {}
    for _ in range(rng.randint(1, max_support)):
        q2 = rng.randint(-max_idx2, max_idx2)
        entries[(q2 - deg2, q2)] = Fraction(rng.randint(-3, 3))
    return SuperMatrix(entries)


def test_super_jacobi_and_cocycle_random():
    rng = random.Random(90125)
    checked = 0
    while checked < 120:
        a, b, c = (_random_homog(rng) for _ in range(3))
        if not (a and b and c):
            continue
        pa, pb, pc = a.entry_parity(), b.entry_parity(), c.entry_parity()
        checked += 1

        # super Jacobi: (-1)^{|a||c|}[[a,b],c] + cyclic = 0
        def sgn(x, y):
            return -1 if (x and y) else 1

        total = (
            sgn(pa, pc) * super_bracket(super_bracket(a, b), c)
            + sgn(pb, pa) * super_bracket(super_bracket(b, c), a)
            + sgn(pc, pb) * super_bracket(super_bracket(c, a), b)
        )
        assert total == SuperMatrix()
        # 2-cocycle identity with matching signs
        coc = (
            sgn(pa, pc) * cocycle_alpha(super_bracket(a, b), c)
            + sgn(pb, pa) * cocycle_alpha(super_bracket(b, c), a)
            + sgn(pc, pb) * cocycle_alpha(super_bracket(c, a), b)
        )
        assert coc == 0


def test_cocycle_vanishes_without_boundary_crossing():
    rng = random.Random(4)
    for _ in range(40):
        deg2 = rng.randint(-4, 4)
        entries_a, entries_b = {}, {}
        for _ in range(3):
            q2 = rng.randint(1, 8)
            entries_a[(q2 - deg2, q2)] = 1
            entries_b[(q2 + deg2, q2)] = 1
        a = SuperMatrix({k: v for k, v in entries_a.items() if k[0] > 0})
        b = SuperMatrix({k: v for k, v in entries_b.items() if k[0] > 0})
        assert cocycle_alpha(a, b) == 0


def test_te_generator_examples():
    # one literal per sign case: (int, int), (half, half), (int, half),
    # (half, int), each split by the sign the case depends on
    assert te_generator("C", 2, 4) == e(2, 4) - e(-4, -2)
    assert te_generator("C", 2, -4) == e(2, -4) + e(4, -2)
    assert te_generator("C", 1, 3) == e(1, 3) - e(-3, -1)
    assert te_generator("C", 2, 3) == e(2, 3) + e(-3, -2)
    assert te_generator("C", -2, 3) == e(-2, 3) - e(-3, 2)
    assert te_generator("C", 1, 4) == e(1, 4) - e(-4, -1)
    assert te_generator("C", 1, -4) == e(1, -4) + e(4, -1)
    assert te_generator("D", 2, 4) == e(2, 4) - e(-4, -2)
    assert te_generator("D", 1, 3) == e(1, 3) - e(-3, -1)
    assert te_generator("D", 1, -3) == e(1, -3) + e(3, -1)
    assert te_generator("D", 2, 1) == e(2, 1) + e(-1, -2)
    assert te_generator("D", 2, -1) == e(2, -1) - e(1, -2)
    assert te_generator("D", 1, 2) == e(1, 2) - e(-2, -1)
    assert te_generator("D", -1, 2) == e(-1, 2) + e(-2, 1)
    for family, p2, q2 in (("C", 0, 1), ("D", 2, 0), ("B", 1, 2)):
        with pytest.raises(ValueError):
            te_generator(family, p2, q2)


def test_te_generators_preserve_form_and_close():
    idxs = [-4, -3, -2, -1, 1, 2, 3, 4]
    for family in ("C", "D"):
        gens = []
        for p2 in idxs:
            for q2 in idxs:
                g = te_generator(family, p2, q2)
                if g:
                    assert preserves_form(g, family), (family, p2, q2)
                    gens.append(g)
        rng = random.Random(11)
        for _ in range(60):
            x = rng.choice(gens)
            y = rng.choice(gens)
            br = super_bracket(x, y)
            if br:
                for h in br.homogeneous_components():
                    assert preserves_form(h, family)


def test_preserves_form_negative():
    assert not preserves_form(e(2, 4), "C")
    assert not preserves_form(e(2, 4), "D")
    assert preserves_form(SuperMatrix(), "C")
    # e(1,1) is even and e(1/2,1) odd: their sum has no parity
    with pytest.raises(ValueError, match="^preserves_form needs a parity-homogeneous element$"):
        preserves_form(e(2, 2) + e(1, 2), "C")


def test_half_index_formatting():
    assert fmt_half(3) == "3/2" and fmt_half(-4) == "-2"
    assert parse_half("3/2") == 3 and parse_half("-2") == -4
    with pytest.raises(ValueError):
        parse_half("1/3")


def test_json_shape():
    m = te_generator("C", 1, 3)
    rows = m.to_json()
    assert {"p", "q", "coeff"} <= set(rows[0])

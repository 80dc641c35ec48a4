import itertools
from fractions import Fraction

import pytest

from superchar.hwclassify import (
    Weight,
    is_quasifinite,
    is_unitarizable,
    parse_weight,
    partition_from_weight,
    weight_from_partition,
)
from superchar.partitions import GeneralizedPartition, Partition, transpose

from oracles import graded_dimension


def gen_partitions(maxsize, length):
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


def gen_generalized(maxabs, length):
    for parts in itertools.product(range(maxabs, -maxabs - 1, -1), repeat=length):
        if all(parts[i] >= parts[i + 1] for i in range(length - 1)):
            if sum(abs(p) for p in parts) <= maxabs:
                yield parts


def admissible_d(parts, n):
    lam = Partition(parts)
    cols = () if lam.is_zero() else transpose(lam).parts
    c1 = cols[0] if cols else 0
    c2 = cols[1] if len(cols) > 1 else 0
    return c1 + c2 <= n


def test_weight_examples():
    w = weight_from_partition("C", Partition((1,)))
    assert w.as_dict() == {1: 1} and w.level == 1
    w = weight_from_partition("gl", GeneralizedPartition((0, 0, 0)))
    assert w.as_dict() == {} and w.level == 3
    w = weight_from_partition("D", Partition((1, 0, 0)))
    assert w.as_dict() == {1: 1} and w.level == Fraction(3, 2)


def test_partition_from_weight_examples():
    # (2,1|2,0) needs level >= 3 (min{xi_1/2,1}+xi_1 = 3)
    w = Weight.make("C", {1: 2, 3: 1, 2: 2}, 3)
    assert partition_from_weight(w) == Partition((2, 2, 1))
    with pytest.raises(ValueError):
        partition_from_weight(Weight.make("C", {1: 2, 3: 1, 2: 2}, 2))
    with pytest.raises(ValueError):
        partition_from_weight(Weight.make("C", {1: 1, 3: 1}, 3))  # xi_1/2 = xi_3/2


def test_roundtrips():
    for d in (1, 2, 3):
        for parts in gen_generalized(3, d):
            lam = GeneralizedPartition(parts)
            for alg in ("gl", "A"):
                assert partition_from_weight(weight_from_partition(alg, lam)) == lam
        for parts in gen_partitions(4, d):
            lam = Partition(parts)
            assert partition_from_weight(weight_from_partition("C", lam)) == lam
    for n in (2, 3, 4):
        for parts in gen_partitions(4, n):
            if admissible_d(parts, n):
                lam = Partition(parts)
                assert partition_from_weight(weight_from_partition("D", lam)) == lam


def test_injectivity():
    for alg, gen in (("gl", gen_generalized(2, 2)), ("A", gen_generalized(2, 2))):
        seen = {}
        for parts in gen:
            w = weight_from_partition(alg, GeneralizedPartition(parts))
            key = (w.coeffs, w.level)
            assert key not in seen, (alg, parts, seen[key])
            seen[key] = parts


def test_quasifinite():
    w = weight_from_partition("C", Partition((3, 1)))
    ok, cert = is_quasifinite(w)
    assert ok and cert == max((abs(i) + 1) // 2 for i, _ in w.coeffs)
    assert is_quasifinite(Weight.make("C", {}, 0)) == (True, 0)


def test_unitarizable_examples():
    assert is_unitarizable(weight_from_partition("C", Partition((1,)))).ok
    rep = is_unitarizable(Weight.make("C", {1: 2, 2: 1}, 1))
    assert not rep.ok and rep.violated == "level-bound"
    rep = is_unitarizable(Weight.make("D", {1: 2, 2: 1}, Fraction(3, 2)))
    assert rep.ok  # xi_1 + xi_2 + l12(2) + min(xi_3/2,1) = 1+0+2+0 = 3 <= 2k
    rep = is_unitarizable(Weight.make("D", {1: 2, 2: 1}, Fraction(1, 2)))
    assert not rep.ok and rep.violated == "level-bound"
    # glone
    assert is_unitarizable(Weight.make("glone", {2: 2, 0: -1}, 3)).ok
    assert is_unitarizable(Weight.make("glone", {2: 2, 0: -2}, 3)).violated == "level-bound"
    # broken chain
    rep = is_unitarizable(Weight.make("C", {1: 1, 3: 1}, 5))
    assert rep.violated == "chains-positive"


def test_if_direction_all_small_partitions():
    for d in (1, 2, 3):
        for parts in gen_generalized(4, d):
            for alg in ("gl", "A"):
                assert is_unitarizable(weight_from_partition(alg, GeneralizedPartition(parts))).ok
        for parts in gen_partitions(4, d):
            assert is_unitarizable(weight_from_partition("C", Partition(parts))).ok
    for n in (2, 3, 4):
        for parts in gen_partitions(4, n):
            if admissible_d(parts, n):
                assert is_unitarizable(weight_from_partition("D", Partition(parts))).ok


def test_boundary_sharpness():
    # weights with the level bound tight: one more unit on the bound-carrying
    # coefficient breaks only the bound
    cases = [
        ("C", {1: 1, 2: 1}, 2, 2),   # min(1,1)+xi_1: bump xi_1
        ("gl", {1: 1, 2: 1}, 2, 2),
        ("A", {1: 1, 2: 1}, 2, 2),
        ("D", {1: 1, 2: 1}, 1, 2),   # l12(1)+xi_1 = 2 tight at 2k=2: bump xi_1
    ]
    for alg, coeffs, lvl, bumped_idx in cases:
        base = Weight.make(alg, coeffs, lvl if alg != "D" else Fraction(lvl))
        assert is_unitarizable(base).ok, (alg, coeffs)
        bump = dict(coeffs)
        bump[bumped_idx] = bump.get(bumped_idx, 0) + 1
        rep = is_unitarizable(Weight.make(alg, bump, base.level))
        assert not rep.ok and rep.violated == "level-bound", (alg, bump, rep)


def test_parse_and_render():
    w = parse_weight("D", "1/2:2,1:1,2:0; level=3/2")
    assert w.as_dict() == {1: 2, 2: 1} and w.level == Fraction(3, 2)
    assert "level=3/2" in str(w)
    blob = w.to_json()
    assert blob["algebra"] == "D" and blob["level"] == "3/2"


def test_parse_weight_rejects_a_repeated_index():
    # "1" and "2/2" name one index: the later value must not silently replace the earlier
    for text, idx in [("1:1,1:2; level=3", "1"), ("1:1,2/2:2; level=3", "1"), ("-1/2:1,0:0,-1/2:2; level=1", "-1/2")]:
        with pytest.raises(ValueError, match=f"index {idx} repeats"):
            parse_weight("gl", text)


def test_graded_dimension_character_and_fock_agree():
    w = weight_from_partition("C", Partition((1,)))
    ch = graded_dimension(w, 4, source="character")
    fk = graded_dimension(w, 4, source="fock")
    assert ch == fk
    assert ch[0] == 1
    w0 = weight_from_partition("C", Partition((0,)))
    ch0 = graded_dimension(w0, 4, source="character")
    assert ch0[0] == 1
    assert ch0 == graded_dimension(w0, 4, source="fock")
    # odd orthogonal agreement
    wd = weight_from_partition("D", Partition((1, 0, 0)))
    assert graded_dimension(wd, 4, "character") == graded_dimension(wd, 4, "fock")
    # all graded dimensions are non-negative integers by construction (fock
    # counts states); the character source must agree, hence integral
    assert all(v >= 0 for v in ch.values())


def test_graded_dimension_even_level_pair_totals():
    # even-level D weights label one member of a bar pair, but only the pair
    # total is determined; both sources must return the same merged series,
    # including for the non-canonical member
    for parts, n in (((1, 1), 2), ((0, 0), 2), ((2, 0, 0, 0), 4)):
        w = weight_from_partition("D", Partition(parts))
        ch = graded_dimension(w, 4, "character")
        fk = graded_dimension(w, 4, "fock")
        assert ch == fk, (parts, ch, fk)
    # the two members of a pair share the merged series
    a = graded_dimension(weight_from_partition("D", Partition((1, 1))), 4, "fock")
    b = graded_dimension(weight_from_partition("D", Partition((0, 0))), 4, "fock")
    assert a == b


def _labelled_weights():
    """(algebra, coeffs, level) of every weight_from_partition label with parts in [-6, 6]
    and level at most 3."""
    out = set()
    for d in range(4):
        for parts in itertools.combinations_with_replacement(range(6, -7, -1), d):
            for alg in ("gl", "A"):
                w = weight_from_partition(alg, GeneralizedPartition(parts))
                out.add((alg, w.coeffs, w.level))
            if all(p >= 0 for p in parts):
                w = weight_from_partition("C", Partition(parts))
                out.add(("C", w.coeffs, w.level))
    for n in range(7):
        for parts in itertools.combinations_with_replacement(range(6, -1, -1), n):
            if admissible_d(parts, n):
                w = weight_from_partition("D", Partition(parts))
                out.add(("D", w.coeffs, w.level))
    return out


def test_unitarizable_iff_labelled():
    # the classification theorem on a grid: support <= 3, values +-1, +-2,
    # doubled indices -3..3 (gl), the same without 0 (A), 1..4 (C, D), levels
    # 0..3 (in halves for D); unitarizable exactly when the weight has a label
    labelled = _labelled_weights()
    grid = {
        "gl": (range(-3, 4), range(4)),
        "A": ((-3, -2, -1, 1, 2, 3), range(4)),
        "C": (range(1, 5), range(4)),
        "D": (range(1, 5), [Fraction(k, 2) for k in range(7)]),
    }
    count = 0
    for alg, (idxs, levels) in grid.items():
        for size in range(4):
            for support in itertools.combinations(idxs, size):
                for vals in itertools.product((1, -1, 2, -2), repeat=size):
                    for lvl in levels:
                        w = Weight.make(alg, dict(zip(support, vals)), lvl)
                        key = (alg, w.coeffs, w.level)
                        assert is_unitarizable(w).ok == (key in labelled), key
                        count += 1
    assert count == 20659


def test_clause_order():
    # the first violated clause is reported, in the order chains-positive,
    # level-integral, chains-negative, level-bound
    cases = [
        ("C", "1/2:1,3/2:1; level=1/2", "chains-positive"),
        ("gl", "0:1; level=1/2", "level-integral"),
        ("gl", "0:1; level=3", "chains-negative"),
        ("A", "-1:1; level=2", "chains-negative"),
    ]
    for alg, text, clause in cases:
        assert is_unitarizable(parse_weight(alg, text)).violated == clause, (alg, text)


# (id, algebra, weight literal, violated clause, its detail); the glone literals
# take integer indices, and each chain is printed in display order
REJECTIONS = [
    ("glone-level-half", "glone", "0:1; level=1/2", "level-integral", "d = 1/2 not a non-negative integer"),
    ("glone-level-negative", "glone", "1:1; level=-1", "level-integral", "d = -1 not a non-negative integer"),
    ("glone-positive-rising", "glone", "1:1,2:2; level=3", "chains-positive", "not strictly decreasing: [1, 2]"),
    ("glone-positive-gap", "glone", "2:1; level=3", "chains-positive", "not strictly decreasing: [0, 1]"),
    ("glone-positive-negative-tail", "glone", "1:1,2:-1; level=3", "chains-positive", "negative entry: [1, -1]"),
    ("glone-positive-negative", "glone", "1:-1; level=3", "chains-positive", "negative entry: [-1]"),
    ("glone-negative-top-at-0", "glone", "0:1; level=3", "chains-negative", "xi_s > 0: [1]"),
    ("glone-negative-top", "glone", "-1:1,0:-1; level=3", "chains-negative", "xi_s > 0: [1, -1]"),
    ("glone-negative-gap", "glone", "-2:-1; level=3", "chains-negative", "not strictly decreasing: [-1, 0, 0]"),
    ("glone-negative-flat", "glone", "-1:-1,0:-1,1:1; level=3", "chains-negative",
     "not strictly decreasing: [-1, -1]"),
    ("glone-level-bound", "glone", "1:2,0:-2; level=3", "level-bound", "xi_1 - xi_0 = 4 > d = 3"),
    ("D-level-third", "D", "1/2:2,1:1; level=1/3", "level-integral", "k = 1/3 not in (1/2)Z_+"),
    ("D-level-negative", "D", "1/2:2,1:1; level=-1/2", "level-integral", "k = -1/2 not in (1/2)Z_+"),
]


@pytest.mark.parametrize("alg, text, clause, detail", [pytest.param(*row[1:], id=row[0]) for row in REJECTIONS])
def test_rejection_clause_and_detail(alg, text, clause, detail):
    rep = is_unitarizable(parse_weight(alg, text))
    assert (rep.ok, rep.violated, rep.detail) == (False, clause, detail)


def test_mixed_sign_label_weights():
    cases = [
        ((2, 0, -1), "0:-1,1/2:2; level=3", "-1/2:-1,1/2:2; level=3"),
        ((2, 0, -2, -3), "-1:-1,-1/2:-2,0:-2,1/2:2; level=4", "-3/2:-1,-1:-1,-1/2:-3,1/2:2; level=4"),
    ]
    for parts, gl_text, a_text in cases:
        lam = GeneralizedPartition(parts)
        for alg, text in (("gl", gl_text), ("A", a_text)):
            assert weight_from_partition(alg, lam) == parse_weight(alg, text), (alg, parts)
            assert partition_from_weight(parse_weight(alg, text)) == lam

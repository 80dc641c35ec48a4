"""Acceptance battery: one test per criterion, exact arithmetic throughout.

Every check is an exact equality of integers, rationals, or coefficient
tensors; there are no numerical tolerances to tune.  Each test prints one
PASS line on success (visible under pytest -s).
"""

import itertools
import random
from fractions import Fraction

from superchar import superschur
from superchar.fock import (
    FockVector,
    Space,
    duality_decompose,
    enumerate_basis,
    gram_matrix,
    group_raising_check,
    hwv_candidate,
    diagonal_weight,
    realize_matrix,
    singularity_check,
)
from superchar.hwclassify import is_unitarizable, weight_from_partition
from superchar.infmat import SuperMatrix, cocycle_alpha, super_bracket
from superchar.laurentchars import GroupTag
from superchar.partitions import (
    GeneralizedPartition,
    Partition,
    bar_conjugate,
    from_frobenius,
    rank,
    to_frobenius,
    transpose,
)
from superchar.superschur import so_hook, sp_hook, sp_schur, verify_identity
from superchar.symring import weight_expansion
from superchar.laurentchars import LaurentPoly, char_group

from oracles import (
    klimyk_tensor_sp,
    moved,
    o2_tensor,
    o3_tensor,
    primed_minus_two,
    sl2_tensor,
    specialize,
    tensor_multiplicity,
)


def _report(criterion: int, text: str):
    print(f"ACCEPTANCE {criterion}: PASS  ({text})")


def _partitions(maxsize, length):
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


def _gen_partitions(maxabs, length):
    for parts in itertools.product(range(maxabs, -maxabs - 1, -1), repeat=length):
        if all(parts[i] >= parts[i + 1] for i in range(length - 1)):
            yield parts


def test_criterion_1_frobenius_bijection():
    count = 0
    for d in range(1, 5):
        for parts in _gen_partitions(3, d):
            lam = GeneralizedPartition(parts)
            data = to_frobenius(lam)
            data.validate()
            assert from_frobenius(data) == lam
            count += 1
    lam = Partition((4, 3, 1, 0, 0))
    assert transpose(lam) == Partition((3, 2, 2, 1))
    assert rank(lam) == 2
    data = to_frobenius(lam)
    assert data.pos_half == (4, 2) and data.pos_int == (2, 0)
    _report(1, f"{count} exhaustive roundtrips, zero failures")


def test_criterion_2_cocycle_and_homomorphism():
    rng = random.Random(17041)

    def random_homog(max_support=3):
        deg2 = rng.randint(-6, 6)
        entries = {}
        for _ in range(rng.randint(1, max_support)):
            q2 = rng.randint(-6, 6)
            entries[(q2 - deg2, q2)] = Fraction(rng.randint(-3, 3))
        return SuperMatrix(entries)

    def sgn(x, y):
        return -1 if (x and y) else 1

    triples = 0
    while triples < 110:
        a, b, c = random_homog(), random_homog(), random_homog()
        if not (a and b and c):
            continue
        triples += 1
        pa, pb, pc = a.entry_parity(), b.entry_parity(), c.entry_parity()
        jac = (
            sgn(pa, pc) * super_bracket(super_bracket(a, b), c)
            + sgn(pb, pa) * super_bracket(super_bracket(b, c), a)
            + sgn(pc, pb) * super_bracket(super_bracket(c, a), b)
        )
        assert jac == SuperMatrix()
        coc = (
            sgn(pa, pc) * cocycle_alpha(super_bracket(a, b), c)
            + sgn(pb, pa) * cocycle_alpha(super_bracket(b, c), a)
            + sgn(pc, pb) * cocycle_alpha(super_bracket(c, a), b)
        )
        assert coc == 0

    checked = 0
    for d in (1, 2):
        sp = Space("gl", d)
        basis = enumerate_basis(sp, 4)
        pairs = 0
        while pairs < 5:
            a, b = random_homog(), random_homog()
            if not (a and b):
                continue
            pairs += 1
            sign = sgn(a.entry_parity(), b.entry_parity())
            ra, rb = realize_matrix(sp, a), realize_matrix(sp, b)
            rbr = realize_matrix(sp, super_bracket(a, b))
            alpha = cocycle_alpha(a, b)
            for mono in basis:
                v = FockVector(sp, {mono: Fraction(1)})
                lhs = ra.apply(rb.apply(v)) - sign * rb.apply(ra.apply(v))
                assert lhs == rbr.apply(v) + v * (alpha * sp.level)
                checked += 1
    _report(2, f"{triples} Jacobi/cocycle triples; {checked} realization identities")


def test_criterion_3_cauchy_identities():
    cases = []
    for d in (1, 2):
        for m in (1, 2, 3):
            cases.append(("combin-Sp", dict(d=d, m=m)))
    for d in (1, 2):
        cases.append(("combin1-i", dict(d=d, D=5)))
        cases.append(("combin1-ii", dict(d=d, D=5)))
        cases.append(("HS", dict(d=d, D=4)))
    for n in (1, 2, 3, 4):
        for m in (n, n + 1):
            cases.append(("even-char" if n % 2 == 0 else "odd-char", dict(n=n, m=m)))
    for n in (1, 2, 3):
        cases.append(("combin1-evenodd-S", dict(n=n, D=4)))
        cases.append(("combin1-evenodd-D", dict(n=n, D=4)))
        cases.append(("HS-O", dict(n=n, D=4)))
    for tag, params in cases:
        report = verify_identity(tag, **params)
        assert report["status"] == "pass", report
    _report(3, f"{len(cases)} identities, full coefficient tensors")


def test_criterion_4_character_theorems():
    checked = 0
    for d in (1, 2):
        dec = duality_decompose(Space("A", d), "C", 4)
        assert dec
        for lam, wm in dec.items():
            expect = {k: int(v) for k, v in weight_expansion(sp_hook(lam, 4), 4).items() if v}
            assert expect == {k: v for k, v in wm.items() if v}, lam
            checked += 1
    dec = duality_decompose(Space("A", 1), "Deven", 4)
    for lam, wm in dec.items():
        bar = bar_conjugate(lam, 2)
        want = so_hook(lam, 2, 4)
        if bar.parts != lam.parts:
            want = want + so_hook(bar, 2, 4)
        expect = {k: int(v) for k, v in weight_expansion(want, 4).items() if v}
        assert expect == {k: v for k, v in wm.items() if v}, lam
        checked += 1
    dec = duality_decompose(Space("Dodd", 1), "Dodd", 4)
    for lam, wm in dec.items():
        expect = {k: int(v) for k, v in weight_expansion(so_hook(lam, 3, 4), 4).items() if v}
        assert expect == {k: v for k, v in wm.items() if v}, lam
        checked += 1
    _report(4, f"{checked} lambda-components match the hook Schur truncations")


def test_criterion_5_highest_weight_vectors():
    cases = 0
    for d in (1, 2):
        sp = Space("A", d)
        for parts in _gen_partitions(3, d):
            lam = GeneralizedPartition(parts)
            v = hwv_candidate(sp, "A", lam)
            assert v and singularity_check(sp, "A", v)[0]
            assert group_raising_check(sp, "A", v)[0]
            coeffs, group = diagonal_weight(sp, "A", v)
            assert coeffs == weight_from_partition("A", lam).as_dict() and group == parts
            cases += 1
        for parts in _partitions(3, d):
            lam = Partition(parts)
            v = hwv_candidate(sp, "C", lam)
            assert v and singularity_check(sp, "C", v)[0]
            assert group_raising_check(sp, "C", v)[0]
            coeffs, group = diagonal_weight(sp, "C", v)
            assert coeffs == weight_from_partition("C", lam).as_dict() and group == parts
            cases += 1
    for d in (1, 2):
        n = 2 * d
        sp = Space("A", d)
        for parts in _partitions(3, n):
            lam = Partition(parts)
            cols = () if lam.is_zero() else transpose(lam).parts
            c1 = cols[0] if cols else 0
            c2 = cols[1] if len(cols) > 1 else 0
            if c1 + c2 > n:
                continue
            for variant in ["X"] + (["Xt"] if c1 == d else []):
                v = hwv_candidate(sp, "Deven", lam, variant=variant)
                assert v and singularity_check(sp, "Deven", v)[0]
                assert group_raising_check(sp, "Deven", v)[0]
                coeffs, group = diagonal_weight(sp, "Deven", v)
                assert coeffs == weight_from_partition("D", lam).as_dict()
                if c1 <= d:
                    want = tuple(parts[:d]) if variant == "X" else tuple(parts[: d - 1]) + (-parts[d - 1],)
                else:
                    want = tuple(bar_conjugate(lam, n).parts[:d])
                assert group == want
                cases += 1
    for d in (0, 1, 2):
        n = 2 * d + 1
        sp = Space("Dodd", d)
        for parts in _partitions(3, n):
            lam = Partition(parts)
            cols = () if lam.is_zero() else transpose(lam).parts
            c1 = cols[0] if cols else 0
            c2 = cols[1] if len(cols) > 1 else 0
            if c1 + c2 > n:
                continue
            v = hwv_candidate(sp, "Dodd", lam)
            assert v and singularity_check(sp, "Dodd", v)[0]
            assert group_raising_check(sp, "Dodd", v)[0]
            coeffs, group = diagonal_weight(sp, "Dodd", v)
            assert coeffs == weight_from_partition("D", lam).as_dict()
            base = lam if 2 * c1 <= n else bar_conjugate(lam, n)
            assert group == tuple(base.parts[:d])
            cases += 1
    _report(5, f"{cases} joint highest weight vectors verified to the letter")


def test_criterion_6_unitarity():
    # the monomial basis is orthogonal, so the form is positive definite iff every norm is positive
    norms_checked = 0
    for d in (1, 2):
        sp = Space("gl", d)
        for e2 in (1, 2, 3, 4):
            _, mat = gram_matrix(sp, e2, "signed")
            assert all(not v for i, row in enumerate(mat) for j, v in enumerate(row) if i != j)
            assert all(row[i] > 0 for i, row in enumerate(mat))
            norms_checked += len(mat)
    _, naive = gram_matrix(Space("gl", 1), 1, "naive")
    assert any(row[i] < 0 for i, row in enumerate(naive))
    for space, algebra, alg in [
        (Space("A", 1), "C", "C"),
        (Space("A", 2), "C", "C"),
        (Space("A", 1), "Deven", "D"),
        (Space("Dodd", 1), "Dodd", "D"),
    ]:
        for lam in duality_decompose(space, algebra, 4):
            assert is_unitarizable(weight_from_partition(alg, lam)).ok
    _report(6, f"{norms_checked} norms positive on diagonal Gram matrices; naive rule indefinite")


def test_criterion_7_tensor_multiplicities():
    sp2, sp4 = GroupTag("Sp", 1), GroupTag("Sp", 2)
    for a in [(0,), (1,), (2,)]:
        for b in [(0,), (1,), (2,)]:
            got = tensor_multiplicity(sp2, Partition(a), Partition(b))
            assert got == {Partition((c,)): m for c, m in sl2_tensor(a[0], b[0]).items()}
    for a in [(0, 0), (1, 0), (1, 1), (2, 0)]:
        for b in [(0, 0), (1, 0), (1, 1), (2, 0)]:
            got = tensor_multiplicity(sp4, Partition(a), Partition(b))
            assert got == {Partition(k): v for k, v in klimyk_tensor_sp(2, a, b).items()}
    o2 = GroupTag("O", 2)
    for a in [(0, 0), (1, 0), (1, 1), (2, 0)]:
        for b in [(0, 0), (1, 0), (1, 1), (2, 0)]:
            got = tensor_multiplicity(o2, Partition(a), Partition(b))
            merged: dict = {}
            for lam, c in o2_tensor(a, b).items():
                p = Partition(lam)
                c1 = transpose(p).parts[0] if sum(lam) else 0
                canon = p if 2 * c1 <= 2 else bar_conjugate(p, 2)
                merged[canon] = merged.get(canon, 0) + c
            assert got == merged
    o3 = GroupTag("O", 3)
    for a in [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 0, 0), (1, 1, 1)]:
        for b in [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 0, 0), (1, 1, 1)]:
            got = tensor_multiplicity(o3, Partition(a), Partition(b))
            assert got == {Partition(k): v for k, v in o3_tensor(a, b).items()}
    for tag, params in [
        ("tensor-sp", dict(d=1, D=3)),
        ("tensor-o", dict(n=2, D=3)),
        ("tensor-o", dict(n=3, D=3)),
    ]:
        assert verify_identity(tag, **params)["status"] == "pass"
    _report(7, "Sp(2)/Sp(4)/O(2)/O(3) oracles and tensor expansions agree")


def test_criterion_8_convention_fix_regression(monkeypatch):
    checked = 0
    for d in (1, 2):
        for parts in _partitions(4, d):
            lam = Partition(parts)
            for m in (lam.parts[0] + d, lam.parts[0] + d + 1):
                cap = 2 * d * m
                xs = [LaurentPoly.var(m, i, 2) for i in range(m)]
                got = specialize(sp_schur(lam, cap), xs, [], one=LaurentPoly.const(m))
                lamT = transpose(lam)
                cols = [
                    lamT.parts[j] if (not lam.is_zero() and j < len(lamT.parts)) else 0
                    for j in range(m)
                ]
                nu_star = tuple(d - cols[m - 1 - i] for i in range(m))
                chi = char_group(GroupTag("Sp", m), Partition(nu_star))
                chi = moved(chi, lambda e: tuple(-v for v in reversed(e)))
                assert got == chi * LaurentPoly.monomial(m, (2 * d,) * m), (d, parts, m)
                checked += 1
    # documented negative control: the literal r-2 reading kills S^{sp,1}_{(1)}
    monkeypatch.setattr(superschur, "etilde_primed", primed_minus_two)
    assert sp_schur(Partition((1,)), 6) == 0
    bad = specialize(
        sp_schur(Partition((1,)), 4),
        [LaurentPoly.var(1, 0, 2)],
        [],
        one=LaurentPoly.const(1),
    )
    assert bad != LaurentPoly.var(1, 0, 2)
    _report(8, f"{checked} finite-variable stability checks; literal reading fails")

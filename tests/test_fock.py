import random
from fractions import Fraction

import pytest

from superchar.fock import (
    GAM_M,
    GAM_P,
    PSI_M,
    PSI_P,
    FockVector,
    RealizedOp,
    Space,
    apply_mode,
    character_product_formula,
    creation_product,
    diagonal_weight,
    duality_decompose,
    enumerate_basis,
    fmt_state,
    fock_character,
    gram_matrix,
    grassmann_det,
    mono_energy2,
    group_raising_check,
    hwv_candidate,
    inner_product,
    leading_principal_minors,
    realize_E,
    realize_e,
    realize_generator,
    realize_matrix,
    realize_te_dhalf,
    singularity_check,
    x_matrix,
)
from superchar.infmat import SuperMatrix, cocycle_alpha, super_bracket
from superchar.partitions import GeneralizedPartition, Partition
from superchar.hwclassify import weight_from_partition


def vec_of(space, *modes):
    return creation_product(space, list(modes))


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
    op = realize_e(sp, 1, 1)  # e_{1/2,1/2} = -:gam+_{-1/2} gam-_{1/2}:
    assert op.terms == [(Fraction(-1), ((GAM_P, 1, -1), (GAM_M, 1, 1)))]
    c = realize_generator(sp, "C")
    assert c.scalar == 1 and not c.terms
    assert Space("Dodd", 1).level == Fraction(3, 2)
    e11 = realize_E(sp, 1, 1, 2)
    assert len(e11.terms) == 4  # psi+-_{-1},psi_1 and gam_{+-1/2} pairs


def test_apply_examples():
    sp = Space("A", 1)
    gm = vec_of(sp, (GAM_M, 1, -1))
    assert realize_e(sp, 1, 1).apply(gm) == 0
    assert realize_e(sp, -1, -1).apply(gm) == gm * -1
    ann = apply_mode(sp, (GAM_P, 1, 1), FockVector.vacuum(sp))
    assert ann == 0


def test_gl_zero_modes():
    glsp = Space("gl", 1)
    v0 = vec_of(glsp, (PSI_M, 1, 0))
    assert v0
    e00 = realize_e(glsp, 0, 0)
    assert e00.apply(v0) == v0 * -1
    assert e00.apply(FockVector.vacuum(glsp)) == 0


def test_grassmann_det_basics():
    sp = Space("A", 2)
    m = x_matrix(sp, 1)
    d1 = grassmann_det(sp, m, 1)
    assert d1 == vec_of(sp, (GAM_P, 1, -1))
    # repeated fermionic rows double rather than cancel
    d2 = grassmann_det(sp, [[(PSI_P, 1, -2), (PSI_P, 2, -2)], [(PSI_P, 1, -2), (PSI_P, 2, -2)]], 2)
    assert d2 == vec_of(sp, (PSI_P, 1, -2), (PSI_P, 2, -2)) * 2
    # identical fermionic entries in one product vanish
    d0 = grassmann_det(sp, [[(PSI_P, 1, -2), (PSI_P, 1, -2)], [(PSI_P, 1, -2), (PSI_P, 1, -2)]], 2)
    assert d0 == 0
    assert grassmann_det(sp, m, 0) == FockVector.vacuum(sp)


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
                assert lhs == rhs, (a.entries, b.entries, fmt_state(mono))


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
            rx, ry = realize_te_dhalf(sp, p2, q2), realize_te_dhalf(sp, r2, s2)
            br = super_bracket(x, y)
            # expand the bracket in the spanning elements: M = (1/2) sum M_pq te(p,q)
            rbr = RealizedOp(sp, [])
            for (a2, b2), c in br.entries.items():
                rbr = rbr + realize_te_dhalf(sp, a2, b2) * (Fraction(c) / 2)
            alpha = cocycle_alpha(x, y) * sp.level
            for mono in basis[:25]:
                v = FockVector(sp, {mono: Fraction(1)})
                lhs = rx.apply(ry.apply(v)) - sign * ry.apply(rx.apply(v))
                rhs = rbr.apply(v) + v * alpha
                assert lhs == rhs, ((p2, q2), (r2, s2), fmt_state(mono))


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
    ok, witness = singularity_check(sp, "C", bad)
    assert not ok and witness is not None
    sp2 = Space("A", 2)
    h = hwv_candidate(sp2, "C", Partition((2, 1)))
    assert singularity_check(sp2, "C", h)[0]


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
            coeffs, group = diagonal_weight(sp, "A", v)
            assert coeffs == weight_from_partition("A", lam).as_dict()
            assert group == parts
        for parts in partitions(3, d):
            lam = Partition(parts)
            v = hwv_candidate(sp, "C", lam)
            assert v and singularity_check(sp, "C", v)[0], parts
            assert group_raising_check(sp, "Sp", v)[0], parts
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
                assert group_raising_check(sp, "SOeven", v)[0], (parts, variant)
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
            assert group_raising_check(sp, "SOodd", v)[0], parts
            coeffs, group = diagonal_weight(sp, "Dodd", v)
            assert coeffs == weight_from_partition("D", lam).as_dict()
            base = lam if 2 * c1 <= n else bar_conjugate(lam, n)
            assert group == tuple(base.parts[:d]), parts


def test_gram_examples():
    sp = Space("A", 1)
    basis, mat = gram_matrix(sp, 1, "signed")
    assert mat == [[1, 0], [0, 1]]
    _, naive = gram_matrix(sp, 1, "naive")
    diag = sorted(naive[i][i] for i in range(2))
    assert diag == [-1, 1]
    assert any(m < 0 for m in leading_principal_minors(naive))
    _, zero = gram_matrix(sp, 0, "signed")
    assert zero == [[1]]


def test_leading_principal_minors_after_zero_pivot():
    # from the first zero pivot on, each minor is the determinant of its own block
    assert leading_principal_minors([[0, 1, 0], [1, 0, 0], [0, 0, 2]]) == [0, -1, -2]
    assert leading_principal_minors([[1, 1, 1], [1, 1, 2], [1, 2, 3]]) == [1, 0, -1]


def test_gram_positive_definite_up_to_energy_2():
    for d in (1, 2):
        sp = Space("gl", d)
        for e2 in (1, 2, 3, 4):
            basis, mat = gram_matrix(sp, e2, "signed")
            minors = leading_principal_minors(mat)
            assert all(m > 0 for m in minors), (d, e2)
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
        op = realize_e(sp, p2, q2)
        opw = realize_e(sp, q2, p2) * ((-1) ** (br(p2) + br(q2)))
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

    for d in (1, 2):
        sp = Space("A", d)
        dec = duality_decompose(sp, "C", 4)
        for lam, wm in dec.items():
            expect = {k: int(v) for k, v in weight_expansion(sp_hook(lam, 4), 4).items() if v}
            assert expect == {k: v for k, v in wm.items() if v}, lam
    for d in (1, 2):
        n = 2 * d
        sp = Space("A", d)
        for lam, wm in duality_decompose(sp, "Deven", 4).items():
            bar = bar_conjugate(lam, n)
            want = so_hook(lam, n, 4)
            if bar.parts != lam.parts:
                want = want + so_hook(bar, n, 4)
            expect = {k: int(v) for k, v in weight_expansion(want, 4).items() if v}
            assert expect == {k: v for k, v in wm.items() if v}, lam
    spo = Space("Dodd", 1)
    for lam, wm in duality_decompose(spo, "Dodd", 4).items():
        expect = {k: int(v) for k, v in weight_expansion(so_hook(lam, 3, 4), 4).items() if v}
        assert expect == {k: v for k, v in wm.items() if v}, lam


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
    from superchar.fock import wmono_energy2
    from superchar.laurentchars import GroupTag, dimension
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
        return realize_generator(space, kind, i, cutoff2=cutoff2)
    return realize_generator(space, kind, i, j, cutoff2=cutoff2)


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
        (realize_generator(space, "so+vec", 1, cutoff2=4), realize_generator(space, "so-vec", 1, cutoff2=4)),
        (realize_E(space, 1, 1, 4), realize_E(space, 1, 1, 4)),
    ]
    for op, adj in ops:
        for u in basis:
            xu = op.apply(FockVector(space, {u: Fraction(1)}))
            for v in basis:
                vv = FockVector(space, {v: Fraction(1)})
                lhs = sum(inner_product(space, m, vv) * c for m, c in xu.terms.items())
                rhs = inner_product(space, u, adj.apply(vv))
                assert lhs == rhs


def test_gl_space_levels_decompose_over_gl_d():
    # the full space (with fermionic zero modes) is a sum of finite-dim
    # GL_d representations level by level; labels are generalized partitions
    # whose weights classify as unitarizable
    from superchar.laurentchars import GroupTag, LaurentPoly, decompose_character, dimension
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
        assert all(m > 0 for m in leading_principal_minors(mat)), e2

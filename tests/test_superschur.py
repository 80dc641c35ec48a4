import itertools

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    classical_char_so_even,
    laurent_identity_full,
    moved,
    omega,
    primed_minus_two,
    series_product_full,
    so_by_omega,
    sp_by_omega,
    specialize,
    tensor_identity_by_labels,
)
from superchar import cli
from superchar.laurentchars import GroupTag, LaurentPoly, char_group
from superchar.partitions import Partition, _column_lengths, transpose
from superchar import superschur as ss
from superchar.superschur import (
    _HOOK,
    _labels,
    _laurent_lhs,
    _series_lhs,
    _unit,
    etilde_series,
    o_labels,
    so_hook,
    so_schur,
    so_skew,
    sp_hook,
    sp_schur,
    sp_skew,
    verify_identity,
)
from superchar.symring import SymFunc


def xs(m):
    return [LaurentPoly.var(m, i, 2) for i in range(m)]


def spec_x(f, m):
    return specialize(f, xs(m), [], one=LaurentPoly.const(m))


def test_etilde_examples():
    e1x = _unit("e", 1, "x", 2)
    assert etilde_series(0, "e", 2) == SymFunc.const(2) + e1x * e1x
    assert etilde_series(1, "e", 1) == _unit("e", 1, "x", 1)
    assert etilde_series(0, "e", 0) == SymFunc.const(0)
    assert etilde_series(3, "e", 0) == SymFunc.zero(0)


def test_etilde_reflection():
    for r in range(-6, 7):
        for cap in (3, 6):
            assert etilde_series(r, "e", cap) == etilde_series(-r, "e", cap)


def test_sp_schur_basic_specializations():
    z = LaurentPoly.var(1, 0, 2)
    assert spec_x(sp_schur(Partition((0,)), 4), 1) == LaurentPoly.const(1) + z * z
    assert spec_x(sp_schur(Partition((1,)), 4), 1) == z
    assert sp_schur(Partition(()), 0) == SymFunc.const(0)


def test_literal_convention_degenerates(monkeypatch):
    # the r-2 reading kills the weight-1 single-box function identically
    assert sp_schur(Partition((1,)), 6) != 0
    monkeypatch.setattr(ss, "etilde_primed", primed_minus_two)
    assert sp_schur(Partition((1,)), 6) == 0


def test_skew_is_omega_of_plain():
    for parts in [(0,), (1,), (2,), (1, 1), (2, 1), (2, 2)]:
        lam = Partition(parts)
        assert omega(sp_schur(lam, 4), "x") == sp_skew(lam, 4)
    # the right side of tensor-o: the skew function in y is omega in y of the plain one in y
    for lam, n in [((0,), 1), ((1,), 1), ((0, 0), 2), ((1, 1), 2), ((2, 0), 2), ((1, 0, 0), 3), ((1, 1, 0), 3)]:
        lam = Partition(lam)
        f = so_skew(lam, n, 4, alphabet="y")
        assert f == so_by_omega("skew", lam, n, 4, alphabet="y")
        assert f == SymFunc(4, {((), xs): c for (xs, _), c in so_skew(lam, n, 4).terms.items()})
    lam = Partition((0,))
    f = sp_skew(lam, 2)
    assert f.coefficient() == 1 and f.coefficient(x={2: 1}) == 1  # 1 + e2 = 1 + h1^2 - h2


def test_hook_equals_hook_unit_determinant():
    # the determinant over the hook units is omega in y of the one over e_k(x, y)
    for parts in [(0,), (1,), (2,), (1, 1), (2, 1)]:
        lam = Partition(parts)
        assert sp_hook(lam, 4) == sp_by_omega("hook", lam, 4)
    for parts, n in [((0,), 1), ((1,), 1), ((0, 0), 2), ((1, 1), 2), ((1, 0, 0), 3), ((1, 1, 0, 0), 4)]:
        lam = Partition(parts)
        assert so_hook(lam, n, 4) == so_by_omega("hook", lam, n, 4)


@pytest.mark.parametrize("kind, size", [("Sp", d) for d in (1, 2, 3)] + [("O", n) for n in range(1, 6)])
def test_schur_functions_equal_the_omega_routes(kind, size):
    # every public sp/so function, over its own unit family, against omega
    # applied after the determinant of another family, bit for bit
    for cap in range(5):
        if kind == "Sp":
            for lam in _labels(GroupTag("Sp", size), cap):
                for variant, f in (("plain", sp_schur), ("skew", sp_skew), ("hook", sp_hook)):
                    got, want = f(lam, cap), sp_by_omega(variant, lam, cap)
                    assert got == want and str(got) == str(want), (variant, lam, cap)
        else:
            for lam in o_labels(size, cap):
                for variant, f in (("plain", so_schur), ("skew", so_skew), ("hook", so_hook)):
                    got, want = f(lam, size, cap), so_by_omega(variant, lam, size, cap)
                    assert got == want and str(got) == str(want), (variant, lam, cap)


def test_sp_hook_reduces_to_plain_without_y():
    lam = Partition((1,))
    h = sp_hook(lam, 3)
    pure_x = SymFunc(3, {m: c for m, c in h.terms.items() if not m[1]})
    assert pure_x == sp_schur(lam, 3)


def test_sp_stability_oracle():
    # specialize(S, m vars) = (x_1..x_m)^d * the sp(2m) character of the
    # complementary weight (d - lam'_m, ..., d - lam'_1), with no variable
    # inverted, on every label combin-Sp sums over: every m >= lam_1 up to 6
    # for d <= 2, up to 3 for d = 3
    for d, top in ((1, 6), (2, 6), (3, 3)):
        for m in range(1, top + 1):
            for lam in _labels(GroupTag("Sp", d), d * m):
                if lam.parts[0] > m:
                    continue
                cols = _column_lengths(lam.parts) + (0,) * m
                nu = tuple(d - c for c in reversed(cols[:m]))
                want = char_group(GroupTag("Sp", m), Partition(nu)) * LaurentPoly.monomial(m, (2 * d,) * m)
                assert spec_x(sp_schur(lam, 2 * d * m), m) == want, (d, lam, m)


def test_so_schur_small_values():
    # refined odd case: S_(0) and S_(1) at weight 1/2
    s0 = so_schur(Partition((0,)), 1, 4)
    s1 = so_schur(Partition((1,)), 1, 4)
    evens = SymFunc.const(4) + _unit("e", 2, "x", 4) + _unit("e", 4, "x", 4)
    odds = _unit("e", 1, "x", 4) + _unit("e", 3, "x", 4)
    assert s0 == evens and s1 == odds
    # merged pair reproduces the naive 1 + x1 at one variable
    z = LaurentPoly.var(1, 0, 2)
    assert spec_x(s0 + s1, 1) == LaurentPoly.const(1) + z

    # n=2: trivial label specialises to 1
    assert spec_x(so_schur(Partition((0, 0)), 2, 4), 1) == LaurentPoly.const(1)
    # bar pair sums are pinned even though the split is a convention
    pair = so_schur(Partition((0, 0)), 2, 4) + so_schur(Partition((1, 1)), 2, 4)
    assert pair == etilde_series(0, "e", 4)


def test_so_skew_and_hook():
    for (lam, n) in [((0,), 1), ((1,), 1), ((0, 0), 2), ((1, 1), 2), ((1, 0, 0), 3)]:
        lam = Partition(lam)
        assert omega(so_skew(lam, n, 3), "x") == so_schur(lam, n, 3)
        h = so_hook(lam, n, 3)
        pure_x = SymFunc(3, {m: c for m, c in h.terms.items() if not m[1]})
        assert pure_x == so_schur(lam, n, 3)
    s = so_skew(Partition((0,)), 1, 1)
    assert s.coefficient() == 1 and s.coefficient(x={1: 1}) == 0  # sigma of 1 (+e2+...) at D=1


def test_so_stability_oracle():
    # the n=4 width-3 labels push m to 8 and add little discrimination, so the
    # grid narrows as n grows; every piecewise branch still appears twice
    for n, max_size in ((1, 3), (2, 3), (3, 2), (4, 2)):
        for lam in o_labels(n, max_size):
            for m in (n + lam.parts[0], n + lam.parts[0] + 1):
                cap = n * m  # the normalised character has degree <= n per variable
                got = spec_x(so_schur(lam, n, cap), m)
                lamT = transpose(lam)
                cols = [lamT.parts[j] if (not lam.is_zero() and j < len(lamT.parts)) else 0 for j in range(m)]
                nu_star2 = tuple(n - 2 * cols[m - 1 - i] for i in range(m))
                chi = moved(classical_char_so_even(nu_star2, m), lambda e: tuple(-v for v in reversed(e)))
                want = chi * LaurentPoly.monomial(m, (n,) * m)
                assert got == want, (n, lam, m)


def test_verify_identity_examples():
    assert verify_identity("combin1-i", d=1, D=2)["status"] == "pass"
    assert verify_identity("HS", d=1, D=2)["status"] == "pass"
    assert verify_identity("combin-Sp", d=1, m=1)["status"] == "pass"
    assert verify_identity("odd-char", n=1, m=1)["status"] == "pass"
    assert verify_identity("even-char", n=2, m=2)["status"] == "pass"


@pytest.mark.parametrize("tag, params", [pytest.param(tag, p, id=tag + "".join(f"-{k}{v}" for k, v in p.items()))
                                         for tag, p in [("tensor-sp", dict(d=d, D=4)) for d in (1, 2, 3)]
                                         + [("tensor-o", dict(n=n, D=4)) for n in range(1, 6)]])
@pytest.mark.parametrize("bump", [False, True], ids=["exact", "bumped"])
def test_tensor_identity_agrees_with_the_label_by_label_route(monkeypatch, tag, params, bump):
    # both routes pass, and both fail with every hook function's lowest term
    # one too high; O(1) has rank 0, with the empty z key only
    if bump:
        name = "sp_hook" if tag == "tensor-sp" else "so_hook"
        real = getattr(ss, name)

        def off_by_one(*args):
            f = real(*args)
            return f + SymFunc(f.cap, {min(f.terms): 1})

        monkeypatch.setattr(ss, name, off_by_one)
    want = "fail" if bump else "pass"
    report = verify_identity(tag, **params)
    assert report["status"] == want
    if bump:
        assert set(report["first_mismatch"]) == {"z_exponent", "eps", "sym_monomial", "lhs", "rhs"}
    monkeypatch.setattr(ss, "_tensor_identity", lambda *args: (tensor_identity_by_labels(*args), 0, 0, 0))
    assert verify_identity(tag, **params)["status"] == want


def test_verify_identity_reports_mismatch_as_data(monkeypatch):
    # sabotage check: the literal E~' convention must FAIL combin1-i, with the
    # failure reported in the payload rather than raised
    assert verify_identity("combin1-i", d=1, D=2)["status"] == "pass"
    monkeypatch.setattr(ss, "etilde_primed", primed_minus_two)
    report = verify_identity("combin1-i", d=1, D=2)
    assert report["status"] == "fail"
    assert report["first_mismatch"]


def test_laurent_mismatch_names_its_monomial_in_x(monkeypatch):
    # the O dual with its first so(2m) weight entry one too high: the first
    # mismatch is a dominant monomial in x, printed x1..xm, not in
    # LaurentPoly's z names
    real = ss._freudenthal
    monkeypatch.setattr(ss, "_freudenthal", lambda kind, nu: real(kind, (nu[0] + 2,) + tuple(nu[1:])))
    report = verify_identity("odd-char", n=3, m=3)
    assert report["status"] == "fail"
    assert report["first_mismatch"]["z_exponent"] == [0]
    assert report["first_mismatch"]["sym_monomial"] == "x1^(1/2)*x2^(1/2)*x3^(-1/2)"


@pytest.mark.parametrize("tag, params, rank", [
    pytest.param("combin-Sp", {"d": 1, "m": 2}, 1, id="combin-Sp-d1-m2"),
    pytest.param("even-char", {"n": 2, "m": 2}, 1, id="even-char-n2-m2"),
    pytest.param("even-char", {"n": 4, "m": 3}, 2, id="even-char-n4-m3"),
    pytest.param("odd-char", {"n": 3, "m": 3}, 1, id="odd-char-n3-m3"),
])
def test_laurent_left_side_not_invariant_in_x_is_a_broken_orbit(monkeypatch, tag, params, rank):
    # the x units e_k(x) with x1 added to e_1: the left side is still
    # Weyl-invariant in z, but not in x, and the x restriction must report
    # that as a broken orbit, never as a pass or a plain coefficient mismatch
    real = ss._elem_of_values

    def lopsided(values, maxk, one):
        units = real(values, maxk, one)
        units[1] = units[1] + values[0]
        return units

    assert verify_identity(tag, **params)["status"] == "pass"
    monkeypatch.setattr(ss, "_elem_of_values", lopsided)
    report = verify_identity(tag, **params)
    assert report["status"] == "fail"
    mismatch = report["first_mismatch"]
    assert mismatch["label"] == "the left-hand series" and "not Weyl-symmetric" in mismatch["detail"]
    # the (z, eps) key of the coefficient under z_exponent, the x weight apart
    z = mismatch["z_exponent"]
    assert len(z) == rank and z == sorted(z, reverse=True) and min(z) >= 0 and mismatch["eps"] in (0, 1)
    assert mismatch["x_monomial"].startswith("x1") or mismatch["x_monomial"] == "1"


@pytest.mark.parametrize("n", [1, 3])
def test_odd_laurent_series_without_its_eps_is_a_broken_orbit(monkeypatch, n):
    # the x series of odd O with the eps of every value dropped: Q[b] = e_k of
    # the values, no longer eps^k e_k, so Q[-b] is Q[b] where it must be eps
    # times Q[b].  The check of Q reports it at its power of x1; it is never
    # a pass
    real = ss._elem_of_values

    def without_eps(values, maxk, one):
        return real([LaurentPoly(v.nvars, {(e, 0): c for (e, _eps), c in v.terms.items()}) for v in values], maxk, one)

    monkeypatch.setattr(ss, "_elem_of_values", without_eps)
    report = verify_identity("odd-char", n=n, m=2)
    assert report["status"] == "fail"
    mismatch = report["first_mismatch"]
    assert mismatch["label"] == "the left-hand series" and "differs at doubled x^" in mismatch["detail"]
    assert mismatch["z_exponent"] == [0] * (n // 2) and mismatch["eps"] == 1
    assert mismatch["x_monomial"] == f"x1^(-{n}/2)"


def test_unknown_tag():
    with pytest.raises(ValueError):
        verify_identity("nonsense", d=1)


def test_verify_identity_rejects_parameters_the_tag_cannot_use():
    with pytest.raises(ValueError, match="m is not read by HS"):
        verify_identity("HS", d=1, D=2, m=7)
    with pytest.raises(ValueError, match="D is required"):
        verify_identity("HS", d=1)
    with pytest.raises(ValueError, match="n must be even"):
        verify_identity("even-char", n=3, m=2)
    with pytest.raises(ValueError, match="n must be odd"):
        verify_identity("odd-char", n=2, m=2)


def by_z(f, m):
    """{(plain z exponents, eps): LaurentPoly in x} of a LaurentPoly in x_1..x_m, z_1..z_d."""
    out = {}
    for (exps, eps), c in f.terms.items():
        out.setdefault((tuple(e // 2 for e in exps[m:]), eps), {})[(exps[:m], 0)] = c
    return {key: LaurentPoly(m, terms) for key, terms in out.items()}


# HS d = 1..3 and HS-O n = 2..5 (m None): the rank-1 and rank-2 series of both
# parities.  Then the Laurent identity in m variables x of each Laurent case of
# the verify grid, against the full (x, z) route of the oracle.
DOMINANT_CASES = [pytest.param(kind, size, None, id=f"{kind}-{size}")
                  for kind, size in [("Sp", 1), ("Sp", 2), ("Sp", 3), ("O", 2), ("O", 3), ("O", 4), ("O", 5)]]
DOMINANT_CASES += [pytest.param("Sp" if tag == "combin-Sp" else "O", p.get("d", p.get("n")), p["m"],
                                id=tag + "".join(f"-{k}{v}" for k, v in p.items()))
                   for tag, p in cli.IDENTITY_GRID if "m" in p]


@pytest.mark.parametrize("kind, size, m", DOMINANT_CASES)
def test_dominant_series_lhs_is_the_full_product_on_dominant_keys(kind, size, m):
    group = GroupTag(kind, size)
    if m is None:
        cap = 4
        full = series_product_full(kind, size, cap, _HOOK)
        one = SymFunc.const(cap)
        series = [[_unit(base, k, alph, cap) for k in range(cap + 1)] for base, alph in _HOOK]
    else:
        lhs, rhs = laurent_identity_full(group, m)
        assert lhs == rhs
        full = by_z(lhs, m)
    d = group.rank
    # the reference is Weyl-invariant: every signed permutation of a key carries its coefficient
    for (z, eps), f in full.items():
        for perm in itertools.permutations(range(d)):
            for signs in itertools.product((1, -1), repeat=d):
                assert full.get((tuple(s * z[i] for i, s in zip(perm, signs)), eps)) == f, (z, perm, signs)
    if m is None:
        odd = kind == "O" and size % 2 == 1
        assert _series_lhs(d, odd, one, series) == {key: f for key, f in full.items() if dominant(key[0], "C")}
    else:
        assert _laurent_lhs(group, m) == doubly_dominant(full, kind, m)


def dominant(w, kind):
    """w_1 >= ... >= w_r, and w_r >= 0 for type C, w_{r-1} >= |w_r| for D (every w of rank 1 for D)."""
    if kind == "D":
        w = w[:-1] + tuple(abs(e) for e in w[-1:])
    return all(a >= b for a, b in zip(w, w[1:])) and (kind == "D" or not w or w[-1] >= 0)


def doubly_dominant(full, kind, m):
    """full, {(z, eps): LaurentPoly in x}, on dominant z keys and on dominant x keys of type C (Sp) or D (O)."""
    out = {}
    for (z, eps), f in full.items():
        terms = {key: c for key, c in f.terms.items() if dominant(key[0], "C" if kind == "Sp" else "D")}
        if dominant(z, "C") and terms:
            out[(z, eps)] = LaurentPoly(m, terms)
    return out


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([("Sp", d) for d in (1, 2)] + [("O", n) for n in range(1, 6)]), st.integers(1, 3))
def test_laurent_lhs_is_the_full_product_on_doubly_dominant_keys(group, m):
    # the x sweep's left side against the oracle's product over every (x, z)
    # term, whose x coefficients are invariant under W(C) (Sp) or W(D) (O)
    kind, size = group
    full = by_z(laurent_identity_full(GroupTag(kind, size), m)[0], m)
    for f in full.values():
        for (b, eps), c in f.terms.items():
            for perm in itertools.permutations(range(m)):
                for signs in itertools.product((1, -1), repeat=m):
                    if kind == "Sp" or signs.count(-1) % 2 == 0:
                        assert f.terms.get((tuple(s * b[i] for i, s in zip(perm, signs)), eps)) == c
    assert _laurent_lhs(GroupTag(kind, size), m) == doubly_dominant(full, kind, m)


@pytest.mark.parametrize("tag, params", [
    ("HS", dict(d=2, D=3)), ("HS-O", dict(n=3, D=3)), ("combin-Sp", dict(d=1, m=2)), ("tensor-sp", dict(d=1, D=3)),
])
def test_verify_identity_reports_time_and_sizes(tag, params):
    report = verify_identity(tag, **params)
    assert report["status"] == "pass"
    assert isinstance(report["seconds"], float) and report["seconds"] >= 0
    assert report["labels"] > 0 and report["lhs_terms"] > 0 and report["rhs_terms"] > 0
    # every identity compares dominant keys, and both sides of a passing one have the same keys
    assert report["lhs_terms"] == report["rhs_terms"]

"""Symplectic and orthogonal Schur functions and the Cauchy-identity verifier.

The building block is the folded series T_r = sum_{i>=0} g_i g_{r+i} taken
over a unit family g, truncated at total degree D.  There are three
families, one per variant of each Schur function:

    plain  e_k(x)
    skew   h_k(x), or h_k(y) for the right side of a tensor identity
    hook   HS_{(1^k)}(x,y) = sum_j e_j(x) h_{k-j}(y)

The units are `symring._unit(base, k, alphabet, cap)`.  Each group has one
builder, a determinant in the T_r of a family: `_sp`, and `_so`, which
hands its T_r, T'_r and factors to `ringdet.orthogonal_det`, the one caller
of that formula in the library.  The skew and hook functions
are the plain one with omega (in x, resp. in y) applied to every unit, so
no omega follows the determinant.
T_r = T_{-r} by reindexing.  The primed series is T'_r = T_r - T_{r+2}:
with the r-2 reading the antisymmetrised determinant degenerates (the
weight-1 function of the single-box partition would vanish identically),
and only the r+2 reading matches the finite-variable classical characters.

Identity checks compare coefficient tensors {(z exponents, eps): coefficient},
the coefficients truncated symmetric functions in a series or tensor identity
and Laurent polynomials in finitely many x variables in a Laurent (Howe
duality) identity.  Both sides of each are Weyl-invariant in z, so one engine
compares them on dominant z weights only, which is exact (see
`_series_identity`); `_series_lhs` builds a series identity's left side, and
`fock`'s ch F, there.  The left side of a tensor identity is the product of
two character sums (`_tensor_identity`), so no product of characters is
peeled.  The coefficients of a Laurent identity are invariant in x as well,
under W(C_m) or W(D_m), and are compared on dominant x weights too: the left
side's built directly by sweeping x (`_laurent_lhs`), the sp(2m) and so(2m)
duals as the dominant multiplicities of `_freudenthal`, so no character is
built as a determinant.  Failures, a broken Weyl orbit included, are
reported as data, not exceptions.
"""

from __future__ import annotations

import time
from functools import lru_cache
from itertools import combinations_with_replacement
from operator import add

from .partitions import Partition, _column_lengths, o_label
# ring_det stays bound here: perfbench's tracer test wraps it in every module that builds determinants
from .ringdet import orthogonal_det, pair_det, ring_det  # noqa: F401
from .laurentchars import (DecompositionError, GroupTag, LaurentPoly, _dominant_part, _dominant_terms,
                           _freudenthal, _is_dominant, _orbit)
from .sparse import _add_term
from .symring import SymFunc, _elem_of_values, _unit


@lru_cache(maxsize=None)
def etilde_series(r: int, base: str, cap: int, alphabet: str = "x") -> SymFunc:
    """T_r = sum_{i>=0} g_i g_{r+i} over the units of `_unit(base, ., alphabet, cap)`, truncated at degree cap."""
    acc = SymFunc.zero(cap)
    i = max(0, -r)
    while 2 * i + r <= cap:
        acc = acc + _unit(base, i, alphabet, cap) * _unit(base, r + i, alphabet, cap)
        i += 1
    return acc


@lru_cache(maxsize=None)
def etilde_primed(r: int, base: str, cap: int, alphabet: str = "x") -> SymFunc:
    return etilde_series(r, base, cap, alphabet) - etilde_series(r + 2, base, cap, alphabet)


def _centres(lam: Partition, size: int) -> list[int]:
    """Row centres lam_{size-i+1} + i - 1 for i = 1..size, missing parts read as 0."""
    parts = (lam.parts + (0,) * size)[:size]
    return [a + i for i, a in enumerate(reversed(parts))]


# The skew function is omega in x of the plain one, and the hook function is
# omega in y of the plain one in the combined alphabet (x, y).  omega is a
# ring map, so it commutes with the determinant and with the unit sums: each
# builder takes the family whose units are omega of e_k (h_k for skew, the
# hook units for hook) and applies nothing after the determinant.


def _sp(lam: Partition, cap: int, base: str, alphabet: str) -> SymFunc:
    """Symplectic Schur function of weight d = declared length of lam over the family (base, alphabet)."""
    term = lambda r: etilde_primed(r, base, cap, alphabet)
    return pair_det(_centres(lam, lam.length), term, SymFunc.const(cap))


@lru_cache(maxsize=None)
def _unit_sum(base: str, alphabet: str, cap: int, alternating: bool) -> SymFunc:
    """sum_i g_i, or sum_i (-1)^i g_i when alternating, over the units of degree <= cap."""
    acc = SymFunc.zero(cap)
    for i in range(0, cap + 1):
        sign = -1 if (alternating and i % 2) else 1
        acc = acc + sign * _unit(base, i, alphabet, cap)
    return acc


def _so(lam: Partition, n: int, cap: int, base: str, alphabet: str) -> SymFunc:
    """Orthogonal Schur function of weight n/2 over the family (base, alphabet).

    `ringdet.orthogonal_det` over the T_r, with the factors sum_i g_i and
    sum_i (-1)^i g_i; odd n = 2d+1 takes its spin determinants.
    """
    label, sign = o_label(lam, n)
    return orthogonal_det(_centres(label, n // 2), lambda r: etilde_series(r, base, cap, alphabet),
                          lambda r: etilde_primed(r, base, cap, alphabet),
                          lambda s: _unit_sum(base, alphabet, cap, s < 0), sign, n % 2, SymFunc.const(cap))


def sp_schur(lam: Partition, cap: int) -> SymFunc:
    """Symplectic Schur function of weight d = declared length of lam."""
    return _sp(lam, cap, "e", "x")


def sp_skew(lam: Partition, cap: int, alphabet: str = "x") -> SymFunc:
    """Skew symplectic Schur function, over h_k(alphabet)."""
    return _sp(lam, cap, "h", alphabet)


def sp_hook(lam: Partition, cap: int) -> SymFunc:
    """Hook symplectic Schur function, over the hook units in x and y."""
    return _sp(lam, cap, "hs", "xy")


def so_schur(lam: Partition, n: int, cap: int) -> SymFunc:
    """Orthogonal Schur function of weight n/2."""
    return _so(lam, n, cap, "e", "x")


def so_skew(lam: Partition, n: int, cap: int, alphabet: str = "x") -> SymFunc:
    """Skew orthogonal Schur function, over h_k(alphabet)."""
    return _so(lam, n, cap, "h", alphabet)


def so_hook(lam: Partition, n: int, cap: int) -> SymFunc:
    """Hook orthogonal Schur function, over the hook units in x and y."""
    return _so(lam, n, cap, "hs", "xy")


# -- identity verification -----------------------------------------------------
#
# Every identity goes through one engine (`_series_identity`) and compares
# {(dominant plain z exponents, eps bit): coefficient} tensors: the
# coefficients are SymFunc in a series or tensor identity and LaurentPoly in
# the x variables in a Laurent identity.


def _zs_mul_factor(acc: dict, factor: list[tuple[tuple[int, ...], int, object]], dominant: bool = False) -> dict:
    """acc times factor, {(z, eps): coefficient} by (z, eps, coefficient) terms; only dominant z when dominant."""
    out: dict = {}
    for (exps, eps), f in acc.items():
        for dexps, deps, g in factor:
            z = tuple(map(add, exps, dexps))
            if not dominant or _is_dominant("C", z):
                _add_term(out, (z, eps ^ deps), f * g)
    return out


def _geom_factor(sign: int | None, units, with_eps: bool):
    """Series sum_k units[k] z^{sign k} in one variable z (eps^k when with_eps); sign None for no z."""
    return [(() if sign is None else (sign * k,), (k & 1) if with_eps else 0, g) for k, g in enumerate(units) if g]


def _lambda_box(max_size: int, max_len: int, max_part: int | None = None):
    """All partitions with at most max_len rows, size <= max_size and, if given, parts <= max_part (padded)."""
    out = []

    def rec(prefix, remaining, max_part):
        out.append(Partition(tuple(prefix) + (0,) * (max_len - len(prefix))))
        if len(prefix) == max_len:
            return
        for p in range(min(max_part, remaining), 0, -1):
            rec(prefix + [p], remaining - p, p)

    rec([], max_size, max_size if max_part is None else max_part)
    return out


def o_labels(n: int, max_size: int, max_part: int | None = None):
    """Partitions of declared length n with lambda'_1 + lambda'_2 <= n, |lam| <= max_size and parts <= max_part."""
    return [core for core in _lambda_box(max_size, n, max_part) if sum(_column_lengths(core.parts)[:2]) <= n]


def _labels(group: GroupTag, max_size: int, max_part: int | None = None):
    """The labels an identity sums over: padded partitions for Sp, o_labels for O (parts <= max_part if given)."""
    if group.kind == "Sp":
        return _lambda_box(max_size, group.size, max_part)
    return o_labels(group.size, max_size, max_part)


def _broken_orbit(group: GroupTag, exc: DecompositionError) -> dict:
    """The mismatch for a left-hand series that is not Weyl-symmetric: the group and where the orbit breaks.

    The orbit is named by its dominant (z, eps) weight, the key of `exc`, and
    by the power of x1 of a Laurent series in x, its `x_monomial` if it has one.
    """
    out = {"group": str(group), "label": "the left-hand series"}
    if exc.key is not None:
        out["z_exponent"], out["eps"] = list(exc.key[0]), exc.key[1]
    out["detail"] = str(exc)
    if hasattr(exc, "x_monomial"):
        out["x_monomial"] = exc.x_monomial
    return out


def _dominant_sweep(acc: dict, steps, length: int) -> dict:
    """acc extended `length` times: (z, eps): f by each step (a, deps, g), a <= z[-1], to (z + (a,), eps ^ deps): fg."""
    for _ in range(length):
        out: dict = {}
        for (z, eps), f in acc.items():
            for a, deps, g in steps:
                if not z or a <= z[-1]:
                    _add_term(out, (z + (a,), eps ^ deps), f * g)
        acc = out
    return acc


def _series_lhs(rank: int, odd: bool, one, series) -> dict:
    """Dominant part of prod_i P(z_i), i = 1..rank (times each sum_k g_k eps^k when odd), plain exponents.

    `series` lists the units g_0..g_K of each generating series, SymFunc
    whose one is `one`.  P(z) is the product over series and signs of
    sum_k g_k z^{+-k} (eps^k when odd), built once in one variable.  The
    coefficient of z^a in prod_i P(z_i) is prod_i P[a_i], so the dominant
    keys a_1 >= ... >= a_rank >= 0 are built directly, one variable at a time.
    """
    # Exactness: the product is symmetric in the z_i, and P[a] = P[-a],
    # checked here, makes it invariant under each z_i -> 1/z_i: it is
    # W(C)-invariant, so fixed by its coefficients at the dominant keys.
    p = {((0,), 0): one}
    for units in series:
        for sign in (+1, -1):
            p = _zs_mul_factor(p, _geom_factor(sign, units, odd))
    for ((a,), eps), f in p.items():
        if p.get(((-a,), eps)) != f:
            raise DecompositionError(f"the one-variable series differs at z^{a} and z^{-a}", ((a,), eps))
    lhs = {((), 0): one}
    if odd:
        for units in series:
            lhs = _zs_mul_factor(lhs, _geom_factor(None, units, True))
    return _dominant_sweep(lhs, [(a, eps, f) for ((a,), eps), f in p.items() if a >= 0], rank)


def _series_identity(group: GroupTag, one, lhs_of, labels, dual):
    """lhs_of() = sum_lam chi_lam(z) dual(lam), compared as {(dominant plain z exponents, eps bit): coefficient}.

    The coefficients are SymFunc, or LaurentPoly in x on dominant x weights;
    a DecompositionError of lhs_of is a broken orbit.  The mismatch is the
    first differing coefficient, at its first differing monomial.
    """
    # Exactness in z: both sides are Weyl-invariant, the left as lhs_of
    # checks, the right as a sum of characters, each given by its dominant
    # weight multiplicities (_dominant_terms).  A Weyl-invariant tensor is
    # fixed by its dominant coefficients, so the sides agree on dominant z
    # keys if and only if they agree everywhere.  In x see `_laurent_lhs`.
    try:
        lhs = lhs_of()
    except DecompositionError as exc:
        return _broken_orbit(group, exc), 0, 0, len(labels)
    rhs: dict = {}
    for lam in labels:
        terms, f = _dominant_terms(group, lam), dual(lam)
        for key, c in terms:
            _add_term(rhs, key, f * c)
    zero = one - one
    for key in sorted(set(lhs) | set(rhs)):
        fl, fr = lhs.get(key, zero), rhs.get(key, zero)
        if fl == fr:
            continue
        monos = sorted(set(fl.terms) | set(fr.terms))
        mono = next(m for m in monos if fl.terms.get(m, 0) != fr.terms.get(m, 0))
        z, eps = key
        # a Laurent identity's coefficients are polynomials in x, which str() would name z
        sym = type(one)(one._context(), {mono: 1})
        mismatch = {
            "z_exponent": list(z),
            "eps": eps,
            "sym_monomial": sym._render("x") if isinstance(sym, LaurentPoly) else str(sym),
            "lhs": str(fl.terms.get(mono, 0)),
            "rhs": str(fr.terms.get(mono, 0)),
        }
        return mismatch, len(lhs), len(rhs), len(labels)
    return None, len(lhs), len(rhs), len(labels)


def _cauchy_identity(group: GroupTag, cap: int, bases, sym_of):
    """The series identity truncated at degree cap, one series per (generator family, alphabet) in bases."""
    one = SymFunc.const(cap)
    series = [[_unit(base, k, alph, cap) for k in range(cap + 1)] for base, alph in bases]
    odd = group.kind == "O" and group.size % 2 == 1
    return _series_identity(group, one, lambda: _series_lhs(group.rank, odd, one, series), _labels(group, cap), sym_of)


def _laurent_lhs(group: GroupTag, m: int) -> dict:
    """The left side of `_laurent_identity`, {(dominant plain z, eps): LaurentPoly in x on dominant x weights}.

    It is prod_j Q(x_j), Q(w) = w^{-N/2} prod_v (1 + w v) over the N values
    z_i^{+-1} (and 1 for odd O), each times eps for odd O.  Q[b] at the
    doubled power b = 2k - N is e_k of the values (`_elem_of_values`, by
    module global), a LaurentPoly in z with plain exponents, and x^b has the
    coefficient prod_j Q[b_j].  A failed check of Q[b] names x1^b.
    """
    # Exactness in x: each Q[b] is checked W(C)-invariant in z, and Q[-b] to
    # be Q[b] times eps^odd.  So the left side is W(C)-invariant in z and
    # symmetric in the x_j, and x_j -> x_j^{-1} multiplies it by eps^odd: it
    # is W(C)-invariant in x for Sp and W(D)-invariant for O, as are the
    # duals.  So the sides agree on the doubly dominant keys swept below (for
    # O, b_m < 0 mirrors -b_m) if and only if they agree everywhere.
    rank, odd = group.rank, int(group.kind == "O" and group.size % 2 == 1)
    one = LaurentPoly.const(rank)
    mark = LaurentPoly.eps(rank) if odd else one
    values = [mark * LaurentPoly.var(rank, i, s) for i in range(rank) for s in (1, -1)] + [mark] * odd
    dim = len(values)
    q = _elem_of_values(values, dim, one)
    for k, f in enumerate(q):
        try:
            _dominant_part(f.terms.items(), "C")
            diff = _dominant_part((q[dim - k] - mark * f).terms.items(), "C")
            if diff:
                raise DecompositionError(f"the x series differs at doubled x^{2 * k - dim}, x^{dim - 2 * k}", max(diff))
        except DecompositionError as exc:
            exc.x_monomial = LaurentPoly.monomial(m, (2 * k - dim,) + (0,) * (m - 1))._render("x")
            raise
    sweep = _dominant_sweep({((), 0): one}, [(2 * k - dim, 0, f) for k, f in enumerate(q) if 2 * k >= dim], m)
    if group.kind == "O":
        sweep.update({(b[:-1] + (-b[-1],), 0): mark * f for (b, _), f in sweep.items() if b[-1] > 0})
    zkeys = [(z, eps) for z in combinations_with_replacement(range(m, -1, -1), rank) for eps in range(1 + odd)]
    lhs: dict = {}
    for (b, _), f in sweep.items():
        for key, c in zip(zkeys, map(f.terms.get, zkeys)):
            if c:
                lhs.setdefault(key, {})[(b, 0)] = c
    return {key: LaurentPoly(m, terms) for key, terms in lhs.items()}


def _laurent_identity(group: GroupTag, m: int):
    """Skew Howe duality on Lambda(V (x) C^m), V of dimension N: the series identity over LaurentPoly in x.

    N = 2d for Sp(2d) and n for O(n).  The normalised x^{-N/2} prod (1 +
    x_j z_i^{+-1} eps)(1 + x_j eps)^{odd n} (`_laurent_lhs`) is sum_lam
    chi_lam(z) times the sp(2m) or so(2m) character, at x^{-1}, of the
    doubled weight nu = (N - 2 lam'_m, ..., N - 2 lam'_1).  That is the
    character of -w0 nu: of nu itself for sp(2m) (the partition nu/2) and
    for so(2m) with m even, of nu with nu_m negated for so(2m) with m odd.
    Each dual is the LaurentPoly of its dominant terms, read from
    `_freudenthal` of type C or D.
    """
    dim = 2 * group.size if group.kind == "Sp" else group.size
    kind = "C" if group.kind == "Sp" else "D"
    labels = _labels(group, group.size * m, m)

    def dual(lam):
        cols = _column_lengths(lam.parts) + (0,) * m
        nu = [dim - 2 * c for c in reversed(cols[:m])]
        if kind == "D" and m % 2:
            nu[-1] = -nu[-1]
        return LaurentPoly(m, {(mu, 0): c for mu, c in _freudenthal(kind, tuple(nu)).items()})

    return _series_identity(group, LaurentPoly.const(m), lambda: _laurent_lhs(group, m), labels, dual)


def _tensor_identity(group: GroupTag, cap: int, schur_of, skew_of, hook_of):
    """Hook function = sum over mu, nu of the tensor multiplicity times schur_of(mu) skew_of(nu), for every label.

    As a series identity, sum_lam chi_lam hook_of(lam) = (sum_mu chi_mu schur_of(mu)) (sum_nu chi_nu skew_of(nu)),
    whose right side is sum_lam chi_lam times the multiplicity sum of lam.  The chi_lam are linearly independent,
    so it holds exactly when every hook function equals its sum.  For even O, chi_lam = chi_{bar lam} on the
    torus, so bar-merged totals are compared; for odd O, eps keeps lam and bar lam apart.  Each character sum runs
    over the W(C) orbits of `_dominant_terms` (by module global); only the dominant keys of the product are built.
    """
    labels = _labels(group, cap)

    def full_sum(coeff_of):
        out: dict = {}
        for lam in labels:
            f = coeff_of(lam)
            for (z, eps), c in _dominant_terms(group, lam):
                for w in _orbit(z):
                    _add_term(out, (w, eps), f * c)
        return out

    def lhs():
        right = [(b, eps, g) for (b, eps), g in full_sum(skew_of).items()]
        return _zs_mul_factor(full_sum(schur_of), right, dominant=True)

    return _series_identity(group, SymFunc.const(cap), lhs, labels, hook_of)


_E, _H, _HOOK = (("e", "x"),), (("h", "x"),), (("e", "x"), ("h", "y"))

# tag -> (the parameters it reads, in order; the parity n must have, or None;
# a check on them that returns the first mismatch or None, then the numbers
# of left- and right-hand keys compared and of labels summed over).  D is the
# truncation degree.  The checks name the Schur functions and the Laurent
# duals by module global at call time, so monkeypatched or traced bindings
# see every call.
IDENTITIES = {
    "combin-Sp": (("d", "m"), None, lambda d, m: _laurent_identity(GroupTag("Sp", d), m)),
    "combin1-i": (("d", "D"), None, lambda d, D: _cauchy_identity(
        GroupTag("Sp", d), D, _E, lambda lam: sp_schur(lam, D))),
    "combin1-ii": (("d", "D"), None, lambda d, D: _cauchy_identity(
        GroupTag("Sp", d), D, _H, lambda lam: sp_skew(lam, D))),
    "HS": (("d", "D"), None, lambda d, D: _cauchy_identity(GroupTag("Sp", d), D, _HOOK, lambda lam: sp_hook(lam, D))),
    "odd-char": (("n", "m"), 1, lambda n, m: _laurent_identity(GroupTag("O", n), m)),
    "even-char": (("n", "m"), 0, lambda n, m: _laurent_identity(GroupTag("O", n), m)),
    "combin1-evenodd-S": (("n", "D"), None, lambda n, D: _cauchy_identity(
        GroupTag("O", n), D, _E, lambda lam: so_schur(lam, n, D))),
    "combin1-evenodd-D": (("n", "D"), None, lambda n, D: _cauchy_identity(
        GroupTag("O", n), D, _H, lambda lam: so_skew(lam, n, D))),
    "HS-O": (("n", "D"), None, lambda n, D: _cauchy_identity(
        GroupTag("O", n), D, _HOOK, lambda lam: so_hook(lam, n, D))),
    "tensor-sp": (("d", "D"), None, lambda d, D: _tensor_identity(
        GroupTag("Sp", d), D, lambda lam: sp_schur(lam, D), lambda lam: sp_skew(lam, D, alphabet="y"),
        lambda lam: sp_hook(lam, D))),
    "tensor-o": (("n", "D"), None, lambda n, D: _tensor_identity(
        GroupTag("O", n), D, lambda lam: so_schur(lam, n, D), lambda lam: so_skew(lam, n, D, alphabet="y"),
        lambda lam: so_hook(lam, n, D))),
}


def param_faults(tag: str, params: dict) -> list[tuple[str, str]]:
    """(parameter, what is wrong) for each parameter of `params` the identity `tag` cannot use."""
    names, parity, _ = IDENTITIES[tag]
    faults = [(p, "is required") for p in names if p not in params]
    faults += [(p, f"is not read by {tag}") for p in params if p not in names]
    if parity is not None and "n" in params and params["n"] % 2 != parity:
        faults.append(("n", "must be " + ("odd" if parity else "even")))
    return faults


def verify_identity(tag: str, **params) -> dict:
    """Check one of the Cauchy-type identities; returns a pass/fail report."""
    if tag not in IDENTITIES:
        raise ValueError(f"unknown identity tag {tag!r}")
    faults = param_faults(tag, params)
    if faults:
        raise ValueError(f"{tag}: " + "; ".join(f"{p} {why}" for p, why in faults))
    names, _, check = IDENTITIES[tag]
    start = time.perf_counter()
    mismatch, lhs_terms, rhs_terms, labels = check(*(params[p] for p in names))
    report = {"identity": tag, "params": params, "status": "pass" if mismatch is None else "fail"}
    if mismatch is not None:
        report["first_mismatch"] = mismatch
    report.update(seconds=round(time.perf_counter() - start, 6), lhs_terms=lhs_terms, rhs_terms=rhs_terms,
                  labels=labels)
    return report

"""Independent brute-force oracles for the test suite.

Everything here is deliberately written against the definitions rather than
the library's own formulas: tableau enumeration for Schur polynomials, hand
weight tables plus the alternating Kostant/Klimyk sum for small symplectic
tensor products, explicit two- and three-dimensional orthogonal group rules,
the Weyl dimension formulas, Weyl symmetry by generating reflections, the Weyl
character formula as an alternant quotient with its own exact Laurent
division, the Laurent and SymFunc products pair by pair on tuple keys, the
weight expansion by enumerating subsets of weight variables, column
lengths by counting parts, the sp/so Schur functions by omega after a
determinant, the degenerate r-2 reading of the primed folded series,
embedding in more variables and moving variables through the tuple-keyed
constructor, the Cauchy series product on every z key, the so(2m)
characters as determinants (the reference for the duals the library reads
from Freudenthal's formula), the Laurent Howe-duality identities on every
(x, z) term with the duals of the older route (sp_schur specialised to x,
the so(2m) determinant at x^{-1}), the tensor identities label by label
with every product of two characters peeled, the Fock basis and character
built one monomial at a time, the duality decomposition by peeling the
character walked over the whole basis, the highest weight vectors as
products of minor states (each minor a signed sum of creation products, the
states multiplied monomial by monomial), singularity by every raising
element, the Gram matrix from every pair of basis states, and leading
principal minors as Leibniz sums.

It also holds the helpers that only tests call: tensor multiplicities and
dimensions read off the characters, omega, specialisation to finite
alphabets, q-series, and graded dimensions from the hook Schur functions or
from the Fock decomposition.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from superchar import fock
from superchar.fock import FERMIONIC, GAM_M, GAM_P, PHI, PSI_M, PSI_P, FockVector, inner_product, realize_algebra
from superchar.hwclassify import Weight, partition_from_weight
from superchar.laurentchars import (GroupTag, LaurentPoly, _centres, _dominant_part, _eprime, char_group,
                                   decompose_character, decompose_graded, elementary_laurent)
from superchar.partitions import GeneralizedPartition, Partition, _column_lengths, bar_conjugate, o_label
from superchar.ringdet import orthogonal_det
from superchar.sparse import _Sparse, _add_into, _add_term, _folded
from superchar.superschur import _labels, _lambda_box, _so, _sp, etilde_series, o_labels, so_hook, sp_hook, sp_schur
from superchar.symring import Mono, SymFunc, _elem_of_values, _unit, energy_series, wmono_energy2


# -- Schur polynomials by semistandard tableaux --------------------------------

def schur_monomials(lam: tuple[int, ...], nvars: int) -> dict[tuple[int, ...], int]:
    """Monomial expansion of s_lam(x_1..x_nvars) by SSYT enumeration."""
    rows = [p for p in lam if p > 0]
    if not rows:
        return {(0,) * nvars: 1}
    out: dict[tuple[int, ...], int] = {}

    def rec(r: int, c: int, filling):
        if r == len(rows):
            key = [0] * nvars
            for row in filling:
                for v in row:
                    key[v - 1] += 1
            out[tuple(key)] = out.get(tuple(key), 0) + 1
            return
        lo = 1
        if c > 0:
            lo = max(lo, filling[r][c - 1])  # weak increase along rows
        if r > 0:
            lo = max(lo, filling[r - 1][c] + 1)  # strict increase down columns
        for v in range(lo, nvars + 1):
            filling[r].append(v)
            if c + 1 < rows[r]:
                rec(r, c + 1, filling)
            else:
                rec(r + 1, 0, filling)
            filling[r].pop()

    rec(0, 0, [[] for _ in rows])
    return out


# -- small classical groups -----------------------------------------------------

def sl2_tensor(a: int, b: int) -> dict[int, int]:
    """Clebsch-Gordan: V_a x V_b = sum V_c, c = |a-b|, |a-b|+2, ..., a+b."""
    return {c: 1 for c in range(abs(a - b), a + b + 1, 2)}


SP4_WEIGHTS = {
    (0, 0): {(0, 0): 1},
    (1, 0): {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1},
    (1, 1): {(1, 1): 1, (1, -1): 1, (-1, 1): 1, (-1, -1): 1, (0, 0): 1},
    (2, 0): {
        (2, 0): 1, (-2, 0): 1, (0, 2): 1, (0, -2): 1,
        (1, 1): 1, (1, -1): 1, (-1, 1): 1, (-1, -1): 1,
        (0, 0): 2,
    },
}


def _signed_perms(d: int):
    for perm in itertools.permutations(range(d)):
        psign = _perm_parity(perm)
        for flips in itertools.product((1, -1), repeat=d):
            fsign = 1
            for f in flips:
                if f < 0:
                    fsign = -fsign
            yield perm, flips, psign * fsign


def _perm_parity(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, ln = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        if ln % 2 == 0:
            sign = -sign
    return sign


def klimyk_tensor_sp(d: int, mu: tuple[int, ...], nu: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Tensor multiplicities for Sp(2d), d <= 2, via the alternating weight sum."""
    if d == 1:
        out = {}
        for c, m in sl2_tensor(mu[0], nu[0]).items():
            out[(c,)] = m
        return out
    assert d == 2 and nu in SP4_WEIGHTS, "hand table covers |nu| <= 2"
    rho = (2, 1)
    out: dict[tuple[int, ...], int] = {}
    for beta, mult in SP4_WEIGHTS[nu].items():
        v = tuple(mu[i] + rho[i] + beta[i] for i in range(2))
        if 0 in v or abs(v[0]) == abs(v[1]):
            continue
        for perm, flips, sign in _signed_perms(2):
            w = tuple(flips[i] * v[perm[i]] for i in range(2))
            if w[0] > w[1] > 0:
                lam = (w[0] - rho[0], w[1] - rho[1])
                out[lam] = out.get(lam, 0) + sign * mult
                break
    return {k: v for k, v in out.items() if v}


def o2_tensor(mu: tuple[int, int], nu: tuple[int, int]) -> dict[tuple[int, int], int]:
    """Hand rules for O(2); labels are length-2 partitions with col condition."""
    def kind(lam):
        if lam == (0, 0):
            return ("triv",)
        if lam == (1, 1):
            return ("det",)
        return ("vec", lam[0])

    def add(out, lam, c=1):
        out[lam] = out.get(lam, 0) + c

    a, b = kind(mu), kind(nu)
    out: dict[tuple[int, int], int] = {}
    if a[0] == "triv":
        add(out, nu)
    elif b[0] == "triv":
        add(out, mu)
    elif a[0] == "det" and b[0] == "det":
        add(out, (0, 0))
    elif a[0] == "det":
        add(out, nu if b[0] != "det" else (0, 0))
    elif b[0] == "det":
        add(out, mu)
    else:
        k, l = a[1], b[1]
        add(out, (k + l, 0))
        if k == l:
            add(out, (0, 0))
            add(out, (1, 1))
        else:
            add(out, (abs(k - l), 0))
    return out


def o3_label(ell: int, sign: int) -> tuple[int, int, int]:
    """Partition of length 3 for the O(3) irrep (spin ell, -I eigenvalue sign)."""
    lam = (ell, 0, 0)
    if (-1) ** ell == sign:
        return lam
    if ell == 0:
        return (1, 1, 1)
    return (ell, 1, 0)


def o3_from_label(lam: tuple[int, int, int]) -> tuple[int, int]:
    size = sum(lam)
    if lam[1:] == (0, 0):
        return lam[0], (-1) ** size
    if lam == (1, 1, 1):
        return 0, -1
    assert lam[1] == 1 and lam[2] == 0
    return lam[0], (-1) ** size


def o3_tensor(mu, nu) -> dict[tuple[int, int, int], int]:
    l1, s1 = o3_from_label(tuple(mu))
    l2, s2 = o3_from_label(tuple(nu))
    out = {}
    for L in range(abs(l1 - l2), l1 + l2 + 1):
        out[o3_label(L, s1 * s2)] = 1
    return out


# -- tensor products and dimensions from the characters -----------------------------

def tensor_multiplicity(group: GroupTag, mu: GeneralizedPartition, nu: GeneralizedPartition) -> dict:
    """Multiplicities in the tensor product of the mu and nu irreducibles: the product of characters, peeled."""
    return decompose_character(char_group(group, mu) * char_group(group, nu), group)


def dimension(group: GroupTag, lam: GeneralizedPartition) -> int:
    """The character at z = 1."""
    return char_group(group, lam).eval_ones()


# -- Weyl symmetry by generating reflections ------------------------------------

def moved(f: LaurentPoly, move) -> LaurentPoly:
    """f with each exponent tuple e replaced by move(e), built through the tuple-keyed constructor."""
    return LaurentPoly(f.nvars, {(tuple(move(exps)), eps): c for (exps, eps), c in f.terms.items()})


def is_weyl_symmetric(f: LaurentPoly, kind: str) -> bool:
    """f is fixed by the generators of W(kind), kind A, C or D, acting on z.

    They are the adjacent transpositions, and z_d -> 1/z_d for C or
    (z_{d-1}, z_d) -> (1/z_d, 1/z_{d-1}) for D of rank >= 2.
    """
    d = f.nvars
    for i in range(d - 1):
        if moved(f, lambda e: e[:i] + (e[i + 1], e[i]) + e[i + 2:]) != f:
            return False
    if kind == "C" and d > 0:
        if moved(f, lambda e: e[:-1] + (-e[-1],)) != f:
            return False
    if kind == "D" and d > 1:
        if moved(f, lambda e: e[:-2] + (-e[-1], -e[-2])) != f:
            return False
    return True


# -- so(2m) characters as determinants ---------------------------------------------

@lru_cache(maxsize=None)
def _prod_factor(m: int, s: int) -> LaurentPoly:
    """prod_i (z_i^{1/2} + s z_i^{-1/2}) for s = +1 or -1."""
    acc = LaurentPoly.const(m)
    for i in range(m):
        acc = acc * (LaurentPoly.var(m, i, 1) + s * LaurentPoly.var(m, i, -1))
    return acc


def classical_char_so_even(nu2: tuple[int, ...], m: int) -> LaurentPoly:
    """Character of the irreducible so(2m)-module with highest weight nu, as a full LaurentPoly.

    `nu2` holds doubled entries; dominance means nu_1 >= ... >= nu_{m-1} >= |nu_m|
    with all entries integral or all half-integral.  The determinant of
    `ringdet.orthogonal_det` over E_{m-r}: the reference route for the
    so(2m) duals, which the library reads from Freudenthal's formula.
    """
    if len(nu2) != m:
        raise ValueError("weight length must equal the rank")
    parities = {e & 1 for e in nu2}
    if len(parities) > 1:
        raise ValueError(f"mixed integral/half-integral weight: {nu2}")
    for i in range(m - 2):
        if nu2[i] < nu2[i + 1]:
            raise ValueError(f"not dominant: {nu2}")
    if m > 1 and (nu2[m - 2] < abs(nu2[m - 1])):
        raise ValueError(f"not dominant: {nu2}")
    sign = -1 if nu2[m - 1] < 0 else 1
    # integral nu, or nu = mu + (1/2, ..., 1/2) with mu a partition; the
    # series E_{m-r} = E_{m+r} is centred at 0 like the T_r of superschur
    spin = parities == {1}
    mu = tuple((abs(e) - spin) // 2 for e in nu2)
    centres = [m - k for k in _centres(_column_lengths(mu))]
    return orthogonal_det(centres, lambda r: elementary_laurent(m - r, m), lambda r: _eprime(m - r, m),
                          lambda s: _prod_factor(m, s), sign, spin, LaurentPoly.const(m))


# -- Weyl dimension formulas ------------------------------------------------------

def dim_sp(lam: tuple[int, ...], m: int) -> int:
    """dim of the irreducible sp(2m)-module with highest weight lam."""
    lam = tuple(lam) + (0,) * (m - len(lam))
    l = [Fraction(lam[i] + (m - i)) for i in range(m)]  # rho_i = m - i + 1 (1-based)
    rho = [Fraction(m - i) for i in range(m)]
    num = den = Fraction(1)
    for i in range(m):
        num *= l[i]
        den *= rho[i]
        for j in range(i + 1, m):
            num *= (l[i] - l[j]) * (l[i] + l[j])
            den *= (rho[i] - rho[j]) * (rho[i] + rho[j])
    val = num / den
    assert val.denominator == 1
    return int(val)


def dim_so_even(nu, m: int) -> int:
    """dim of the irreducible so(2m)-module; nu may be half-integral/negative last."""
    nu = [Fraction(v) for v in nu]
    l = [nu[i] + (m - 1 - i) for i in range(m)]
    rho = [Fraction(m - 1 - i) for i in range(m)]
    num = den = Fraction(1)
    for i in range(m):
        for j in range(i + 1, m):
            num *= l[i] ** 2 - l[j] ** 2
            den *= rho[i] ** 2 - rho[j] ** 2
    val = num / den
    assert val.denominator == 1
    return int(val)


def dim_so_odd(nu, d: int) -> int:
    """dim of the irreducible so(2d+1)-module with highest weight nu."""
    nu = [Fraction(v) for v in list(nu) + [0] * (d - len(nu))]
    l = [nu[i] + Fraction(2 * (d - i) - 1, 2) for i in range(d)]
    rho = [Fraction(2 * (d - i) - 1, 2) for i in range(d)]
    num = den = Fraction(1)
    for i in range(d):
        num *= l[i]
        den *= rho[i]
        for j in range(i + 1, d):
            num *= l[i] ** 2 - l[j] ** 2
            den *= rho[i] ** 2 - rho[j] ** 2
    val = num / den
    assert val.denominator == 1
    return int(val)


def so3_char_exponents(ell2: int) -> dict[int, int]:
    """Doubled-exponent character of SO(3) with doubled highest weight ell2."""
    return {k2: 1 for k2 in range(-ell2, ell2 + 1, 2)}


# -- the Laurent product on tuple keys --------------------------------------------

def laurent_product(a, b) -> dict:
    """Product of two {(doubled exponents, eps): coefficient} mappings, pair by pair.

    Exponents add componentwise and eps bits add mod 2; zero sums are dropped.
    This is the product loop of LaurentPoly before its keys were packed.
    """
    out: dict = {}
    for (e1, p1), c1 in a.items():
        for (e2, p2), c2 in b.items():
            key = (tuple(x + y for x, y in zip(e1, e2, strict=True)), p1 ^ p2)
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


# -- the SymFunc product on tuple keys ---------------------------------------------

def _part_mul(a, b):
    acc = dict(a)
    for k, m in b:
        acc[k] = acc.get(k, 0) + m
    return tuple(sorted(acc.items()))


def symfunc_product(cap: int, a, b) -> dict:
    """Truncated product of two {monomial: coefficient} mappings, pair by pair.

    Each pair's (k, multiplicity) tuples merge per alphabet, and the pair is
    kept when its degree is at most cap; zero sums are dropped.  This is the
    product loop of SymFunc before its keys were packed.
    """
    degree = lambda mono: sum(k * m for part in mono for k, m in part)
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            if degree(m1) + degree(m2) <= cap:
                mono = (_part_mul(m1[0], m2[0]), _part_mul(m1[1], m2[1]))
                out[mono] = out.get(mono, 0) + c1 * c2
    return {mono: c for mono, c in out.items() if c}


# -- column lengths by counting parts -------------------------------------------------

def column_lengths(parts) -> tuple[int, ...]:
    """Column lengths of a partition by counting, for each j, the parts >= j."""
    return tuple(sum(1 for p in parts if p >= j) for j in range(1, max(parts, default=0) + 1))


# -- omega, specialisation and graded dimensions of symmetric functions -------------

def omega(f: SymFunc, alphabet: str) -> SymFunc:
    """Ring involution sending e_k(alphabet) -> h_k(alphabet), other alphabet fixed."""
    which = 0 if alphabet == "x" else 1
    out: dict[Mono, Fraction] = {}
    for mono, coeff in f.terms.items():
        kept: Mono = ((), mono[1]) if which == 0 else (mono[0], ())
        term = SymFunc(f.cap, {kept: coeff})
        for k, mult in mono[which]:
            hk = _unit("h", k, alphabet, f.cap)
            for _ in range(mult):
                term = term * hk
        _add_into(out, term.terms)
    return SymFunc(f.cap, out)


def specialize(f: SymFunc, x_values: list, y_values: list, one=Fraction(1)):
    """Substitute finite alphabets; values may be scalars, or elements of the ring whose one is `one`."""
    maxk = 0
    for mono in f.terms:
        for part in mono:
            for k, _ in part:
                maxk = max(maxk, k)
    elems = (
        _elem_of_values(list(x_values), maxk, one),
        _elem_of_values(list(y_values), maxk, one),
    )
    pow_cache: dict[tuple[int, int, int], object] = {}

    def power(which, k, mult):
        key = (which, k, mult)
        if key not in pow_cache:
            if mult == 1:
                pow_cache[key] = elems[which][k]
            else:
                pow_cache[key] = power(which, k, mult - 1) * elems[which][k]
        return pow_cache[key]

    # accumulate mutably when the target ring is a sparse element such as a LaurentPoly
    sparse = isinstance(one, _Sparse)
    acc_terms: dict = {}
    widest = one
    total_scalar = one * 0
    for mono, coeff in f.terms.items():
        term = one * coeff
        for which in (0, 1):
            for k, mult in mono[which]:
                term = term * power(which, k, mult)
        if sparse:
            _add_into(acc_terms, term._store)
            widest = widest._wider(term)
        else:
            total_scalar = total_scalar + term
    return widest._new(acc_terms) if sparse else total_scalar


# -- weight monomials by enumerating variable subsets -------------------------------

@lru_cache(maxsize=None)
def _subsets_with_energy(kind: str, k: int, cap2: int, min_var: int) -> tuple:
    """All k-subsets (as sorted tuples) of the alphabet with total energy <= cap2.

    x_n has doubled energy 2n, n = 1, 2, ...; y_r has doubled energy r2 for
    odd r2 = 1, 3, 5, ...
    """
    if k == 0:
        return ((),)
    out = []
    var = min_var
    while True:
        energy2 = 2 * var if kind == "x" else var
        if energy2 > cap2:
            break
        step = 1 if kind == "x" else 2
        for rest in _subsets_with_energy(kind, k - 1, cap2 - energy2, var + step):
            out.append((var,) + rest)
        var += step
    return tuple(out)


def weight_expansion_by_subsets(f: SymFunc, cap2: int) -> dict:
    """`symring.weight_expansion` without the ring: e_k of an alphabet is the
    sum of its k-subsets of variables, and the products of a monomial are
    convolved on tuple keys, dropping whatever is over the energy cap2."""
    total: dict = {}
    for mono, coeff in f.terms.items():
        partial = {((), ()): 1}
        for which, kind in ((0, "x"), (1, "y")):
            for k, mult in mono[which]:
                for _ in range(mult):
                    nxt: dict = {}
                    for wm, c in partial.items():
                        for sub in _subsets_with_energy(kind, k, cap2 - wmono_energy2(wm), 1):
                            merged = dict(wm[which])
                            for v in sub:
                                merged[v] = merged.get(v, 0) + 1
                            key = list(wm)
                            key[which] = tuple(sorted(merged.items()))
                            _add_term(nxt, tuple(key), c)
                    partial = nxt
        _add_into(total, partial, coeff)
    return {key: _folded(c) for key, c in total.items()}


def q_series(f: SymFunc, cap2: int) -> dict[int, Fraction]:
    """Graded dimension series of f up to q^{cap2/2}."""
    return energy_series(weight_expansion_by_subsets(f, cap2))


def graded_dimension(w: Weight, cutoff2: int, source: str = "character") -> dict[int, int]:
    """Graded dimensions of L(w) up to doubled energy cutoff2, normalised to
    start at the highest weight (exponent 0).

    source "character" reads the sp or so hook Schur function, "fock" the
    Fock-space duality decomposition.  Exact for C and odd-level D; for
    integral-level D the result is the bar-merged pair total (the refined
    split is not determined by the paired character formula).
    """
    lam = partition_from_weight(w)
    if source == "character":
        if w.algebra == "C":
            f = sp_hook(Partition(lam.parts), cutoff2)
        elif w.algebra == "D":
            n = int(2 * w.level)
            f = so_hook(Partition(lam.parts), n, cutoff2)
            if n % 2 == 0:
                bar = bar_conjugate(Partition(lam.parts), n)
                if bar.parts != lam.parts:
                    f = f + so_hook(bar, n, cutoff2)
        else:
            raise ValueError(f"no closed character for algebra {w.algebra!r}")
        series = q_series(f, cutoff2)
    elif source == "fock":
        key = Partition(lam.parts)
        if w.algebra == "C":
            dec = fock.duality_decompose(fock.Space("A", int(w.level)), "C", cutoff2)
        elif w.algebra == "D":
            n = int(2 * w.level)
            if n % 2:
                dec = fock.duality_decompose(fock.Space("Dodd", n // 2), "Dodd", cutoff2)
            else:
                # the even decomposition is keyed by canonical labels
                dec = fock.duality_decompose(fock.Space("A", n // 2), "Deven", cutoff2)
                key = o_label(key, n)[0]
        else:
            raise ValueError(f"no Fock source for algebra {w.algebra!r}")
        series = energy_series(dec.get(key, {}))
    else:
        raise ValueError(f"unknown source {source!r}")
    if not series:
        return {}
    base = min(series)
    out = {}
    for e2, coeff in sorted(series.items()):
        val = int(coeff)
        if val != coeff or val < 0:
            raise ValueError(f"non-integral graded dimension at q^{e2}/2: {coeff}")
        if val:
            out[e2 - base] = val
    return out


# -- sp/so Schur functions by omega after the determinant -------------------------

def _by_omega(build, variant: str, alphabet: str) -> SymFunc:
    """omega applied to the determinant `build(base, alphabet)` of another unit family.

    plain: omega in x of the determinant over h_k(x).  skew: omega in the
    alphabet of the one over e_k(alphabet).  hook: omega in y of the one over
    e_k(x, y), the combined alphabet.
    """
    if variant == "plain":
        return omega(build("h", "x"), "x")
    if variant == "skew":
        return omega(build("e", alphabet), alphabet)
    return omega(build("e", "xy"), "y")


def sp_by_omega(variant: str, lam, cap: int, alphabet: str = "x") -> SymFunc:
    """sp_schur, sp_skew or sp_hook (variant plain, skew, hook) with omega after the determinant."""
    return _by_omega(lambda base, alph: _sp(lam, cap, base, alph), variant, alphabet)


def so_by_omega(variant: str, lam, n: int, cap: int, alphabet: str = "x") -> SymFunc:
    """so_schur, so_skew or so_hook (variant plain, skew, hook) with omega after the determinant."""
    return _by_omega(lambda base, alph: _so(lam, n, cap, base, alph), variant, alphabet)


def primed_minus_two(r: int, base: str, cap: int, alphabet: str = "x") -> SymFunc:
    """The degenerate reading T_r - T_{r-2} of the primed folded series, a negative control."""
    return etilde_series(r, base, cap, alphabet) - etilde_series(r - 2, base, cap, alphabet)


# -- the left side of a Cauchy identity on every z key ------------------------------

def embed(f: LaurentPoly, nvars: int, offset: int) -> LaurentPoly:
    """f inside a list of nvars variables, its own variables shifted by offset."""
    if offset < 0 or offset + f.nvars > nvars:
        raise ValueError(f"{f.nvars} variables at offset {offset} do not fit in {nvars}")
    pad = (0,) * offset, (0,) * (nvars - offset - f.nvars)
    return LaurentPoly(nvars, {(pad[0] + exps + pad[1], eps): c for (exps, eps), c in f.terms.items()})


def series_product_full(kind: str, size: int, cap: int, bases) -> dict:
    """prod_i prod_{(g, alphabet) in bases} (sum_k g_k z_i^k)(sum_k g_k z_i^{-k}) on every z key.

    For odd O(n) each power k carries eps^k and one series sum_k g_k eps^k per
    base multiplies in.  Returns {(plain z exponents, eps): SymFunc}, built one
    factor at a time over full exponent vectors.
    """
    d = size if kind == "Sp" else size // 2
    odd = kind == "O" and size % 2 == 1
    factors = []
    for i in range(d):
        for base, alphabet in bases:
            for sign in (1, -1):
                factors.append([(tuple(sign * k if j == i else 0 for j in range(d)), k % 2 if odd else 0,
                                 _unit(base, k, alphabet, cap)) for k in range(cap + 1)])
    if odd:
        for base, alphabet in bases:
            factors.append([((0,) * d, k % 2, _unit(base, k, alphabet, cap)) for k in range(cap + 1)])
    acc = {((0,) * d, 0): SymFunc.const(cap)}
    for factor in factors:
        out = {}
        for (z, eps), f in acc.items():
            for dz, deps, g in factor:
                key = (tuple(a + b for a, b in zip(z, dz)), eps ^ deps)
                out[key] = out[key] + f * g if key in out else f * g
        acc = {key: f for key, f in out.items() if f}
    return acc


# -- a Laurent Howe-duality identity on every (x, z) term ----------------------------

def laurent_identity_full(group: GroupTag, m: int) -> tuple[LaurentPoly, LaurentPoly]:
    """(left, right) of the Laurent identity of group in m variables x, in x_1..x_m, z_1..z_d.

    The left side is x^{-N/2} (N = 2d for Sp(2d), n for O(n)) times one factor
    (1 + x_j z_i^{+-1} eps) at a time, then (1 + x_j eps) for each j when n is
    odd; eps enters only for odd O.  The right side is
    sum_lam chi_lam(z) dual(lam)(x), each character and dual embedded whole:
    x^{-d} sp_lam(x) for Sp(2d), the so(2m) character of the dual weight with
    every x_j inverted for O(n).  Every term is kept; nothing is read off
    dominant weights.
    """
    n, d = group.size, group.rank
    nv = m + d
    odd = group.kind == "O" and n % 2 == 1
    if group.kind == "Sp":
        dim = 2 * d
        labels = [lam for lam in _lambda_box(d * m, d) if lam.parts[0] <= m]
        xs = [LaurentPoly.var(m, j, 2) for j in range(m)]
        shift = LaurentPoly.monomial(m, (-dim,) * m)
        dual = lambda lam: shift * specialize(sp_schur(lam, 2 * d * m), xs, [], one=LaurentPoly.const(m))
    else:
        dim = n
        labels = [lam for lam in o_labels(n, n * m) if lam.parts[0] <= m]

        def dual(lam):
            cols = _column_lengths(lam.parts) + (0,) * m
            chi = classical_char_so_even(tuple(n - 2 * cols[m - 1 - i] for i in range(m)), m)
            return moved(chi, lambda e: [-v for v in reversed(e)])

    lhs = LaurentPoly.monomial(nv, (-dim,) * m + (0,) * d)
    one = LaurentPoly.const(nv)
    zgroups = [[tuple(s if k == i else 0 for k in range(d)) for s in (2, -2)] for i in range(d)]
    if odd:
        zgroups.append([(0,) * d])
    for zs in zgroups:
        for j in range(m):
            x = tuple(2 if k == j else 0 for k in range(m))
            for z in zs:
                lhs = lhs * (one + LaurentPoly.monomial(nv, x + z, eps=int(odd)))
    rhs = LaurentPoly.zero(nv)
    for lam in labels:
        rhs = rhs + embed(char_group(group, lam), nv, m) * embed(dual(lam), nv, 0)
    return lhs, rhs


# -- a tensor identity label by label -----------------------------------------------

def tensor_identity_by_labels(group: GroupTag, cap: int, schur_of, skew_of, hook_of):
    """The first label whose hook function is not its tensor-multiplicity sum, or None.

    Every ordered pair of labels mu, nu is peeled (`tensor_multiplicity`),
    and hook_of(lam) is compared with sum_{mu, nu} c^lam_{mu nu} schur_of(mu)
    skew_of(nu), truncated at degree cap.  For even O only the totals of lam
    and bar lam are determined, so those are compared, on the canonical label.
    """
    labels = _labels(group, cap)
    tensor: dict = {}
    for mu in labels:
        f = schur_of(mu)
        for nu in labels:
            prod = f * skew_of(nu)
            for lam, c in tensor_multiplicity(group, mu, nu).items():
                _add_term(tensor, lam.parts, prod * c)
    n = group.size
    for lam in labels:
        want, key = hook_of(lam), lam
        if group.kind == "O" and n % 2 == 0:
            bar = bar_conjugate(lam, n)
            if bar.parts != lam.parts:
                want = want + hook_of(bar)
            key = o_label(lam, n)[0]
        if want != tensor.get(key.parts, SymFunc.zero(cap)):
            return lam
    return None


# -- Weyl character formula as an alternant quotient ------------------------------

def divexact(num, den):
    """Exact division of Laurent polynomials (raises if not divisible).

    The long division runs on tuple-keyed dicts with `laurent_product`, so it
    shares no arithmetic with LaurentPoly.
    """
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    if not num:
        return LaurentPoly.zero(num.nvars)
    rem, den = dict(num.terms), dict(den.terms)
    # any exact quotient has exponents inside this box, which bounds the
    # number of division steps (Laurent leads can otherwise descend forever)
    spread = 1
    for i in range(num.nvars):
        nvals = [e[i] for (e, _) in rem]
        dvals = [e[i] for (e, _) in den]
        spread *= (max(nvals) - min(nvals)) + (max(dvals) - min(dvals)) + 1
    max_steps = 2 * spread + 1
    quot = {}
    lead_d = max(den)
    cd = den[lead_d]
    steps = 0
    while rem:
        steps += 1
        if steps > max_steps:
            raise ArithmeticError("not exactly divisible")
        lead_n = max(rem)
        exps = tuple(a - b for a, b in zip(lead_n[0], lead_d[0]))
        eps = lead_n[1] ^ lead_d[1]
        coeff = Fraction(rem[lead_n]) / Fraction(cd)
        if coeff.denominator == 1:
            coeff = coeff.numerator  # keeps the remainder in int arithmetic
        quot[(exps, eps)] = coeff
        for key, c in laurent_product({(exps, eps): coeff}, den).items():
            rem[key] = rem.get(key, 0) - c
            if not rem[key]:
                del rem[key]
        if rem and max(rem) >= lead_n:
            raise ArithmeticError("not exactly divisible")
    return LaurentPoly(num.nvars, quot)


def weyl_char_alternant(kind: str, weights2: tuple[int, ...], d: int):
    """Weyl character formula as an alternant quotient; exact division.

    kind "B": SO(2d+1); kind "C": Sp(2d); kind "D": SO(2d), whose Weyl group
    changes an even number of signs, so its alternant is half the sum of
    det(z_j^{a_i} + z_j^{-a_i}) and det(z_j^{a_i} - z_j^{-a_i}).  The
    alternants are Leibniz sums over permutations, so this route shares no
    determinant code with the library.
    """
    if len(weights2) != d:
        raise ValueError("weight length must equal the rank")

    def alt_det(a2: list[int], s: int = -1):
        total = LaurentPoly.zero(d)
        for perm in itertools.permutations(range(d)):
            term = LaurentPoly.const(d, _perm_parity(perm))
            for i, ai in enumerate(a2):
                term = term * (LaurentPoly.var(d, perm[i], ai) + s * LaurentPoly.var(d, perm[i], -ai))
            total = total + term
        return total

    if kind == "C":
        rho = [2 * (d - i) for i in range(d)]
    elif kind == "B":
        rho = [2 * (d - 1 - i) + 1 for i in range(d)]
    elif kind == "D":
        rho = [2 * (d - 1 - i) for i in range(d)]
    else:
        raise ValueError(f"unknown kind {kind!r}")
    a2 = [w + r for w, r in zip(weights2, rho)]
    if kind == "D":
        half = Fraction(1, 2)
        return divexact(half * (alt_det(a2, 1) + alt_det(a2)), half * (alt_det(rho, 1) + alt_det(rho)))
    return divexact(alt_det(a2), alt_det(rho))


# -- Fock spaces one monomial at a time --------------------------------------------

def fock_basis_by_monomial(space, cutoff2: int) -> list[tuple]:
    """Canonical creation monomials of energy <= cutoff2, sorted by (energy, modes).

    Grows one list of modes and copies out each monomial; a fermionic mode may
    not follow itself.
    """
    modes = space.creation_modes(cutoff2)
    out = []

    def rec(start: int, current: list, left2: int):
        out.append(tuple(current))
        for k in range(start, len(modes)):
            m = modes[k]
            e2 = abs(m[2])
            if e2 > left2:
                continue
            if FERMIONIC[m[0]] and current and current[-1] == m:
                continue
            current.append(m)
            rec(k, current, left2 - e2)
            current.pop()

    rec(0, [], cutoff2)
    return sorted(out, key=lambda mono: (sum(abs(m[2]) for m in mono), mono))


def fock_character_by_monomial(space, cutoff2: int) -> dict:
    """ch F counted state by state, each state's z, eps and occupations from scratch."""
    out: dict = {}
    for mono in fock_basis_by_monomial(space, cutoff2):
        xcount: dict[int, int] = {}
        ycount: dict[int, int] = {}
        z = [0] * space.d
        for field, color, idx2 in mono:
            e2 = abs(idx2)
            if field in (PSI_P, PSI_M, PHI):
                xcount[e2 // 2] = xcount.get(e2 // 2, 0) + 1
            else:
                ycount[e2] = ycount.get(e2, 0) + 1
            if field in (PSI_P, GAM_P):
                z[color - 1] += 1
            elif field in (PSI_M, GAM_M):
                z[color - 1] -= 1
        eps = len(mono) & 1 if space.kind == "Dodd" else 0
        wmono = (tuple(sorted(xcount.items())), tuple(sorted(ycount.items())))
        slot = out.setdefault((tuple(z), eps), {})
        slot[wmono] = slot.get(wmono, 0) + 1
    return out


def duality_decompose_by_walk(space, algebra: str, cutoff2: int) -> dict:
    """`fock.duality_decompose` by walking the basis: the walked character
    `fock.fock_character`, checked Weyl-invariant orbit by orbit and cut to
    its dominant keys by `_dominant_part`, then peeled."""
    group = GroupTag(*fock._dual_group(space, algebra))
    dominant = _dominant_part(fock.fock_character(space, cutoff2).items(), "A" if group.kind == "GL" else "C")
    return decompose_graded(dominant, group)


def hwv_by_state_products(space, algebra: str, lam, variant: str = "X") -> FockVector:
    """`fock.hwv_candidate` with each Grassmann minor built as a state, the signed
    sum of the creation products of its permutations (each applied to the
    vacuum mode by mode, the last row first), and the minor states
    multiplied in product order: each monomial of the earlier factor is applied,
    mode by mode, on top of each monomial of the later one."""
    vec = FockVector.vacuum(space)
    for mat, size in fock._hwv_factors(space, algebra, lam, variant):
        det = FockVector(space)
        for perm in itertools.permutations(range(size)):
            state = FockVector.vacuum(space)
            for i in reversed(range(size)):
                state = fock.apply_mode(space, mat[i][perm[i]], state)
            det = det + state * _perm_parity(perm)
        out = FockVector(space)
        for m1, c1 in vec.terms.items():
            for m2, c2 in det.terms.items():
                state = FockVector(space, {m2: c1 * c2})
                for mode in reversed(m1):
                    state = fock.apply_mode(space, mode, state)
                out = out + state
        vec = out
    return vec


def singularity_check_full(space, algebra: str, vec: FockVector):
    """Singularity by every raising element: e(p,q), or te(p,q) for C/Deven/Dodd,
    for each p < q of the index set with |p|, |q|, q - p <= the top doubled
    energy of vec (the index set holds 0 only for gl/A on the gl space).
    Returns (True, None) or (False, the first (p2, q2) that does not kill vec).
    """
    if not vec:
        return False, "zero vector"
    top2 = max(vec.energies2())
    zero_mode = algebra in ("A", "gl") and space.kind == "gl"
    index_set = [i for i in range(-top2, top2 + 1) if i != 0 or zero_mode]
    for p2 in index_set:
        for q2 in index_set:
            if 0 < q2 - p2 <= top2 and realize_algebra(space, algebra, p2, q2).apply(vec):
                return False, (p2, q2)
    return True, None


def dense_gram(space, energy2: int, conjugation: str = "signed"):
    """(basis, matrix) of the inner products of every pair of basis states at exact energy2."""
    basis = [mono for mono in fock_basis_by_monomial(space, energy2) if sum(abs(m[2]) for m in mono) == energy2]
    mat = []
    for bra in basis:
        row = []
        for ket in basis:
            row.append(inner_product(space, bra, FockVector(space, {ket: Fraction(1)}), conjugation))
        mat.append(row)
    return basis, mat


# -- determinants as permutation sums ------------------------------------------------

def leibniz_minors(mat) -> list[int]:
    """Leading principal minors, each the signed sum over the permutations of its block."""
    minors = []
    for k in range(1, len(mat) + 1):
        total = 0
        for perm in itertools.permutations(range(k)):
            term = _perm_parity(perm)
            for i in range(k):
                term *= mat[i][perm[i]]
            total += term
        minors.append(total)
    return minors

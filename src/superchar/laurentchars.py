"""Classical finite-dimensional characters as exact Laurent polynomials.

All exponents are stored doubled so that the half-integer weights of the
orthogonal spin representations stay integral; the optional eps marker (the
eigenvalue of -I in O(n), eps^2 = 1) is a mod-2 bit on each term.

Every character is a classical determinant over LaurentPoly: Jacobi-Trudi
in the complete symmetric polynomials h_r(z_1..z_d) for GL(d), and for
Sp(2d) and O(n) the determinants in the elementary symmetric polynomials E_r
of the eigenvalues {z_i, z_i^{-1}} (with the eigenvalue 1 added for odd n).
Decomposition into irreducible characters peels the lex-largest
dominant exponent, which is valid because every character is unitriangular
with leading term z^lambda; one peeler serves both plain characters and
graded ones such as the Fock space character.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

from .partitions import GeneralizedPartition, Partition, _column_lengths, bar_conjugate, o_label
from .ringdet import pair_det, ring_det, spin_det
from .sparse import _Sparse, _add_into, _drop_zeros, _fold_integral


class DecompositionError(ValueError):
    pass


class LaurentPoly(_Sparse):
    """Sparse Laurent polynomial in z_1..z_n with doubled exponents and eps bit.

    Integral coefficients are stored as int, the others as Fraction.
    """

    __slots__ = ("nvars",)

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms: dict[tuple[tuple[int, ...], int], object] = (
            _fold_integral({key: val for key, val in terms.items() if val}) if terms else {}
        )

    def _context(self):
        return self.nvars

    def _new(self, terms: dict) -> "LaurentPoly":
        out = object.__new__(LaurentPoly)
        out.nvars = self.nvars
        out.terms = _fold_integral(terms)
        return out

    # -- constructors --------------------------------------------------
    @staticmethod
    def zero(nvars: int) -> "LaurentPoly":
        return LaurentPoly(nvars)

    @staticmethod
    def const(nvars: int, value=1) -> "LaurentPoly":
        return LaurentPoly(nvars, {((0,) * nvars, 0): value})

    @staticmethod
    def monomial(nvars: int, exps2, eps: int = 0, coeff=1) -> "LaurentPoly":
        exps2 = tuple(exps2)
        if len(exps2) != nvars:
            raise ValueError(f"monomial needs {nvars} exponents, got {len(exps2)}")
        return LaurentPoly(nvars, {(exps2, eps & 1): coeff})

    @staticmethod
    def var(nvars: int, i: int, power2: int = 2) -> "LaurentPoly":
        exps = [0] * nvars
        exps[i] = power2
        return LaurentPoly.monomial(nvars, exps)

    @staticmethod
    def eps(nvars: int) -> "LaurentPoly":
        return LaurentPoly(nvars, {((0,) * nvars, 1): 1})

    def ring_one(self) -> "LaurentPoly":
        return LaurentPoly.const(self.nvars)

    # -- arithmetic ------------------------------------------------------
    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        self._check(other)
        out: dict[tuple[tuple[int, ...], int], object] = {}
        get = out.get
        for (e1, p1), c1 in self.terms.items():
            for (e2, p2), c2 in other.terms.items():
                key = (tuple(a + b for a, b in zip(e1, e2)), p1 ^ p2)
                out[key] = get(key, 0) + c1 * c2
        return self._new(_drop_zeros(out))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("use explicit inverse monomials")
        out = LaurentPoly.const(self.nvars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- queries ----------------------------------------------------------
    def coefficient(self, exps2, eps: int = 0):
        return self.terms.get((tuple(exps2), eps & 1), 0)

    def eval_ones(self, eps_value: int = 1):
        total = 0
        for (_, p), c in self.terms.items():
            total += c * (eps_value ** p)
        return total

    # -- variable moves ----------------------------------------------------
    def permute(self, perm: tuple[int, ...]) -> "LaurentPoly":
        """Apply z_i -> z_{perm[i]}."""
        out = {}
        for (exps, p), c in self.terms.items():
            new = [0] * self.nvars
            for i, e in enumerate(exps):
                new[perm[i]] = e
            out[(tuple(new), p)] = c
        return LaurentPoly(self.nvars, out)

    def invert_var(self, i: int) -> "LaurentPoly":
        out = {}
        for (exps, p), c in self.terms.items():
            new = list(exps)
            new[i] = -new[i]
            out[(tuple(new), p)] = c
        return LaurentPoly(self.nvars, out)

    def invert_reverse(self) -> "LaurentPoly":
        """The substitution z_i -> z_{n-i+1}^{-1} (the x/z dictionary)."""
        out = {}
        for (exps, p), c in self.terms.items():
            out[(tuple(-e for e in reversed(exps)), p)] = c
        return LaurentPoly(self.nvars, out)

    def embed(self, nvars: int, offset: int) -> "LaurentPoly":
        """View inside a larger variable list, own variables shifted by offset."""
        out = {}
        for (exps, p), c in self.terms.items():
            new = [0] * nvars
            new[offset : offset + self.nvars] = exps
            out[(tuple(new), p)] = c
        return LaurentPoly(nvars, out)

    def __str__(self):
        if not self.terms:
            return "0"
        def mono_str(exps, p):
            bits = []
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                if e % 2 == 0:
                    ex = str(e // 2)
                else:
                    ex = f"({e}/2)"
                bits.append(f"z{i+1}" + ("" if ex == "1" else f"^{ex}"))
            if p:
                bits.append("eps")
            return "*".join(bits) if bits else "1"
        keys = sorted(self.terms, key=lambda k: (k[0], k[1]), reverse=True)
        bits = []
        for exps, p in keys:
            c = self.terms[(exps, p)]
            ms = mono_str(exps, p)
            if ms == "1":
                bits.append(str(c))
            elif c == 1:
                bits.append(ms)
            elif c == -1:
                bits.append(f"-{ms}")
            else:
                bits.append(f"{c}*{ms}")
        return " + ".join(bits).replace("+ -", "- ")

    def to_json(self) -> dict:
        return {
            "nvars": self.nvars,
            "doubled": True,
            "terms": [
                {"exps": list(exps), "eps": p, "coeff": str(c)}
                for (exps, p), c in sorted(self.terms.items())
            ],
        }


# -- elementary symmetric polynomials of {z_i, z_i^{-1}} ---------------------

@lru_cache(maxsize=None)
def _e_table_inv(m: int) -> tuple[LaurentPoly, ...]:
    """E_0..E_{2m} of the 2m-element multiset {z_i, z_i^{-1}}."""
    elems = [LaurentPoly.const(m)] + [LaurentPoly.zero(m) for _ in range(2 * m)]
    values = []
    for i in range(m):
        values.append(LaurentPoly.var(m, i, 2))
        values.append(LaurentPoly.var(m, i, -2))
    for v in values:
        for j in range(2 * m, 0, -1):
            elems[j] = elems[j] + elems[j - 1] * v
    return tuple(elems)


def elementary_laurent(r: int, m: int) -> LaurentPoly:
    """E_r(z_1..z_m, z_1^{-1}..z_m^{-1}); zero outside 0 <= r <= 2m."""
    if r < 0 or r > 2 * m:
        return LaurentPoly.zero(m)
    return _e_table_inv(m)[r]


@lru_cache(maxsize=None)
def _complete(r: int, d: int) -> LaurentPoly:
    """h_r(z_1..z_d), the sum of all degree-r monomials; zero for r < 0."""
    if r < 0:
        return LaurentPoly.zero(d)
    terms = {}
    for idx in combinations_with_replacement(range(d), r):
        exps = [0] * d
        for i in idx:
            exps[i] += 2
        terms[(tuple(exps), 0)] = 1
    return LaurentPoly(d, terms)


def _eprime(r: int, m: int) -> LaurentPoly:
    return elementary_laurent(r, m) - elementary_laurent(r - 2, m)


def _centres(mu: tuple[int, ...]) -> list[int]:
    """Row centres mu_i - i + 1 of the classical determinants."""
    return [p - i for i, p in enumerate(mu)]


def det_e(mu: tuple[int, ...], m: int) -> LaurentPoly:
    """|E_mu|: rows E_{mu_i-i+1}, E_{mu_i-i+2}+E_{mu_i-i}, ..."""
    return pair_det(_centres(mu), lambda r: elementary_laurent(r, m), LaurentPoly.const(m))


def det_eprime(mu: tuple[int, ...], m: int) -> LaurentPoly:
    """|E'_mu| with E'_r = E_r - E_{r-2}."""
    return pair_det(_centres(mu), lambda r: _eprime(r, m), LaurentPoly.const(m))


def _det_m(mu: tuple[int, ...], m: int, sign: int) -> LaurentPoly:
    """Spin-type determinant with rows E_{mu_i-i+c} + sign * E_{mu_i-i-c+1} (mirrored spin_det)."""
    centres = [-k for k in _centres(mu)]
    return spin_det(centres, lambda r: elementary_laurent(-r, m), sign, LaurentPoly.const(m))


def _prod_factor(m: int, plus: bool, half: bool) -> LaurentPoly:
    """prod_i (z_i^{1/2} +/- z_i^{-1/2}) or prod_i (z_i +/- z_i^{-1})."""
    step = 1 if half else 2
    acc = LaurentPoly.const(m)
    for i in range(m):
        acc = acc * (LaurentPoly.var(m, i, step) + (1 if plus else -1) * LaurentPoly.var(m, i, -step))
    return acc


def classical_char_sp(lam: Partition, m: int) -> LaurentPoly:
    """Character of the irreducible sp(2m)-module with highest weight lam."""
    if lam.depth > m:
        raise ValueError(f"sp(2{m}) weight too deep: {lam}")
    return det_eprime(_column_lengths(lam.parts), m)


def classical_char_so_even(nu2: tuple[int, ...], m: int) -> LaurentPoly:
    """Character of the irreducible so(2m)-module with highest weight nu.

    `nu2` holds doubled entries; dominance means nu_1 >= ... >= nu_{m-1} >= |nu_m|
    with all entries integral or all half-integral.
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
    abs2 = nu2[:-1] + (abs(nu2[-1]),)
    if parities == {0} or not parities:
        nu = tuple(e // 2 for e in abs2)
        if nu[-1] == 0:
            return det_e(_column_lengths(nu), m)
        half = Fraction(1, 2)
        base = det_e(_column_lengths(nu), m) * half
        shifted = tuple(v - 1 for v in nu)
        extra = _prod_factor(m, plus=False, half=False) * det_eprime(_column_lengths(shifted), m) * half
        return base + sign * extra
    # half-integral: nu = mu + (1/2,...,1/2) with mu a partition
    mu = tuple((e - 1) // 2 for e in abs2)
    half = Fraction(1, 2)
    # pairing fixed by the so(2) weight-3/2 and so(4) weight-(3/2,1/2) checks:
    # the "+" product goes with the minus-entry determinant
    term_plus = _prod_factor(m, plus=True, half=True) * _det_m(_column_lengths(mu), m, -1) * half
    term_minus = _prod_factor(m, plus=False, half=True) * _det_m(_column_lengths(mu), m, +1) * half
    return term_plus + sign * term_minus


# -- groups -------------------------------------------------------------------

@dataclass(frozen=True)
class GroupTag:
    kind: str  # "GL", "Sp", "O"
    size: int  # d for GL and Sp(2d); n for O(n)

    def __post_init__(self):
        if self.kind not in ("GL", "Sp", "O"):
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.size < 1:
            raise ValueError("size must be >= 1")

    @property
    def rank(self) -> int:
        return self.size if self.kind in ("GL", "Sp") else self.size // 2

    def __str__(self):
        if self.kind == "GL":
            return f"GL({self.size})"
        if self.kind == "Sp":
            return f"Sp({2*self.size})"
        return f"O({self.size})"


def char_group(group: GroupTag, lam: GeneralizedPartition) -> LaurentPoly:
    """Irreducible character of the group, in z_1..z_rank (eps-graded for odd O)."""
    if group.kind == "GL":
        d = group.size
        if lam.length != d:
            raise ValueError(f"GL({d}) weights have length {d}")
        shift = lam.parts[-1]
        core = [p - shift for p in lam.parts if p > shift]
        n = len(core)
        jacobi_trudi = ring_det([[_complete(p - i + j, d) for j in range(n)] for i, p in enumerate(core)],
                                LaurentPoly.const(d))
        return jacobi_trudi * LaurentPoly.monomial(d, (2 * shift,) * d)
    if group.kind == "Sp":
        d = group.size
        if not isinstance(lam, Partition):
            lam = Partition(lam.parts)
        if lam.depth > d:
            raise ValueError(f"Sp(2{d}) labels have at most {d} rows")
        return classical_char_sp(lam, d)
    # O(n)
    n, d = group.size, group.rank
    if not isinstance(lam, Partition):
        lam = Partition(lam.parts)
    cols = _column_lengths(o_label(lam, n)[0].parts[:d])
    if n % 2 == 0:
        return det_e(cols, d)
    # the E's of {z_i, z_i^{-1}, 1} are E_r + E_{r-1}
    chi = pair_det(_centres(cols), lambda r: elementary_laurent(r, d) + elementary_laurent(r - 1, d),
                   LaurentPoly.const(d))
    if lam.size % 2:
        chi = chi * LaurentPoly.eps(d)
    return chi


def dimension(group: GroupTag, lam: GeneralizedPartition) -> int:
    return char_group(group, lam).eval_ones()


# -- symmetry and decomposition ----------------------------------------------

def is_weyl_symmetric(f: LaurentPoly, group: GroupTag) -> bool:
    d = f.nvars
    for i in range(d - 1):
        perm = list(range(d))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        if f.permute(tuple(perm)) != f:
            return False
    if group.kind in ("Sp", "O") and d > 0:
        if f.invert_var(d - 1) != f:
            return False
    return True


def _label(group: GroupTag, z: tuple[int, ...]) -> GeneralizedPartition:
    if group.kind == "GL":
        return GeneralizedPartition(z)
    if group.kind == "Sp":
        return Partition(z)
    return Partition(z + (0,) * (group.size - len(z)))


def decompose_graded(graded: dict, group: GroupTag) -> dict:
    """Graded multiplicities of irreducible characters (greedy dominant peeling).

    `graded` maps (z exponents, eps bit) to a graded coefficient {grade: int};
    the exponents are plain, not doubled.  Each step takes the lex-largest
    dominant z present and subtracts the irreducible characters sitting there,
    times their coefficients, from the remainder in place.  Returns
    {label: {grade: multiplicity}}.  For even O(n) the labels are the
    canonical ones with lambda'_1 <= n/2 and the totals are bar-merged; for odd
    O(n) the eps bit picks lambda or bar-lambda.
    """
    odd_o = group.kind == "O" and group.size % 2 == 1
    rem = {key: dict(coeff) for key, coeff in graded.items() if coeff}
    out: dict[GeneralizedPartition, dict] = {}
    while rem:
        best = None
        for z, _eps in rem:
            if any(z[i] < z[i + 1] for i in range(len(z) - 1)):
                continue
            if group.kind != "GL" and z and z[-1] < 0:
                continue
            if best is None or z > best:
                best = z
        if best is None:
            raise DecompositionError(f"no dominant weight left in nonzero remainder over {group}")
        lam = _label(group, best)
        for eps in (0, 1) if odd_o else (0,):
            coeff = rem.get((best, eps))
            if coeff is None:
                if odd_o:
                    continue
                raise DecompositionError(f"nothing at the dominant weight {best} with eps = 0: not a character")
            coeff = dict(coeff)
            use = lam if not odd_o or lam.size % 2 == eps else bar_conjugate(lam, group.size)
            if any(v < 0 or v % 1 for v in coeff.values()):
                raise DecompositionError(f"negative or fractional multiplicity {coeff} at {use}: duality violated")
            for (exps, p), c in char_group(group, use).terms.items():
                key = (tuple(e // 2 for e in exps), p)
                if not _add_into(rem.setdefault(key, {}), coeff, -c):
                    del rem[key]
            _add_into(out.setdefault(use, {}), coeff)
    return out


def decompose_character(f: LaurentPoly, group: GroupTag) -> dict:
    """Multiplicities of irreducible characters in f: `decompose_graded` with one grade."""
    if not is_weyl_symmetric(f, group):
        raise DecompositionError("input is not Weyl-symmetric for " + str(group))
    graded = {}
    for (exps, p), c in f.terms.items():
        if any(e & 1 for e in exps):
            raise DecompositionError(f"half-integer exponent in input: {exps}")
        graded[(tuple(e // 2 for e in exps), p)] = {(): c}
    return {lam: mults[()] for lam, mults in decompose_graded(graded, group).items()}


def tensor_multiplicity(group: GroupTag, mu: GeneralizedPartition, nu: GeneralizedPartition) -> dict:
    """Multiplicities in the tensor product of the mu and nu irreducibles."""
    return decompose_character(char_group(group, mu) * char_group(group, nu), group)

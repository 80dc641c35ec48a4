"""Classical finite-dimensional characters as exact Laurent polynomials.

All exponents are stored doubled so that the half-integer weights of the
orthogonal spin representations stay integral; the optional eps marker (the
eigenvalue of -I in O(n), eps^2 = 1) is a mod-2 bit on each term.

A full character is a classical determinant over LaurentPoly: Jacobi-Trudi
in the complete symmetric polynomials h_r(z_1..z_d) for GL(d), and for
Sp(2d) and O(n) the determinants in the elementary symmetric polynomials E_r
of the eigenvalues {z_i, z_i^{-1}} (with the eigenvalue 1 added for odd n).
A Weyl-invariant function is fixed by its coefficients at dominant weights,
and those of an irreducible character are its dominant weight
multiplicities: `_dominant_terms` reads them off Freudenthal's formula on
the group's root system (A, B, C or D), with no determinant, and the
determinants are the route the tests compare it with.  Both routes read the
label through one rule, `_top` (its length or depth check, the canonical O
label and the odd-O eps), so the tests check that rule against independent
references (the Weyl alternants and dimension formulas of tests/oracles.py).
The sp(2m) and so(2m) duals of the Laurent identities in `superschur` are
`_freudenthal`'s multiplicities too (types C and D).  It tests dominance
directly (`_is_dominant`) and walks one root string per orbit of roots under
the stabilizer of each dominant weight (Moody and Patera).
Decomposition into irreducible characters peels the lex-largest dominant
exponent, which is valid because every character is unitriangular with
leading term z^lambda; one peeler, `decompose_graded`, serves both plain
characters and graded ones such as the Fock space character.  It takes and
subtracts dominant weights only: a Weyl-invariant function is fixed by them,
so whoever builds its input checks that the input is invariant.
`decompose_character` checks it orbit by orbit (`_dominant_part`, of Weyl
type A or C, which also checks the one-variable series in z of the Laurent
identities), and `fock.duality_decompose` builds it with
`superschur._series_lhs`, which checks the symmetry of its one-variable
series.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product
from math import factorial
from operator import ge

from .partitions import GeneralizedPartition, Partition, _column_lengths, bar_conjugate, o_label
from .ringdet import pair_det, ring_det
from .sparse import _PackedTerms, _Sparse, _add_into, _fold_integral, _product, _printed
from .symring import _elem_of_values


class DecompositionError(ValueError):
    """The input is not a (graded) sum of irreducible characters.

    `key` is the dominant (plain exponents, eps) weight where that showed, and
    `grades` the graded coefficient that a peel found broken there.
    """

    def __init__(self, message: str, key: tuple | None = None, grades: dict | None = None):
        super().__init__(message)
        self.key = key
        self.grades = grades


# Packed keys (Kronecker substitution).  A term z^e eps^p is stored under the
# int 4 * sum_i e_i * B^i + p with B = 2^_W and balanced digits |e_i| < B/2.
# Each LaurentPoly carries a bound on |e_i| over its terms: a product's bound
# is the sum of its operands' bounds, every other operation keeps the larger
# one, and construction and __mul__ raise OverflowError once the bound reaches
# B/2 = 2^21.  So no digit ever carries into its neighbour.  Bit 1 is free: in
# a product k1 + k2 the eps bits add to 0, 1 or 2 there, and `k -= k & 2` in
# `sparse._product` folds 2 back to 0 (k & 3 is that sum for negative k too).
# The width is also a hash choice: Python hashes an int modulo 2^61 - 1,
# which moves digit i to bit (2 + _W * i) mod 61.  With _W = 22 these bits
# lie at least 5 apart, and at least 5 below bit 61 (which wraps onto the eps
# bit), for up to 11 variables, so keys whose doubled exponents differ by
# less than 32 never share a hash.  _W = 20 would put digit 3 one bit from
# digit 0 and digit 6 on the eps bit, so nearby keys would collide.
_W = 22
_MASK = (1 << _W) - 1
_HALF = 1 << (_W - 1)


def _pack(exps, eps: int) -> int:
    k = 0
    for e in reversed(exps):
        k = (k << _W) + e
    return (k << 2) + eps


def _unpack(k: int, nvars: int) -> tuple[tuple[int, ...], int]:
    """(exponents, eps) of a packed key."""
    eps = k & 1
    k >>= 2
    exps = []
    for _ in range(nvars):
        e = ((k + _HALF) & _MASK) - _HALF
        exps.append(e)
        k = (k - e) >> _W
    return tuple(exps), eps


def _check_bound(bound: int) -> int:
    if bound >= _HALF:
        raise OverflowError(f"doubled exponents up to {bound} do not fit the packed width, |e| < {_HALF}")
    return bound


class LaurentPoly(_Sparse):
    """Sparse Laurent polynomial in z_1..z_n with doubled exponents and eps bit.

    Integral coefficients are stored as int, the others as Fraction.  `terms`
    is a read-only view keyed by (doubled exponents, eps) (`sparse._PackedTerms`);
    the terms are stored under packed int keys (see `_pack`).
    """

    __slots__ = ("nvars", "_bound")

    def __init__(self, nvars: int, terms: Mapping | None = None):
        self.nvars = nvars
        store, bound = {}, 0
        for (exps, eps), c in (terms or {}).items():
            if len(exps) != nvars or eps not in (0, 1):
                raise ValueError(f"key {(exps, eps)!r} is not ({nvars} exponents, eps 0 or 1)")
            if c:
                bound = max(bound, max(map(abs, exps), default=0))
                store[_pack(exps, eps)] = c
        self._store = _fold_integral(store)
        self._bound = _check_bound(bound)

    @property
    def terms(self) -> _PackedTerms:
        """Read-only {(doubled exponents, eps): coefficient} view."""
        return _PackedTerms(self._store, self._decode, self._encode)

    def _decode(self, k: int) -> tuple[tuple[int, ...], int]:
        return _unpack(k, self.nvars)

    def _encode(self, key) -> int | None:
        """The packed key of (doubled exponents, eps), or None when key is not one of this polynomial's."""
        try:
            exps, eps = key
            if len(exps) == self.nvars and eps in (0, 1) and all(-_HALF < e < _HALF for e in exps):
                return _pack(exps, eps)
        except (TypeError, ValueError):
            pass  # not an (exponents, eps) pair
        return None

    def _context(self):
        return self.nvars

    def _new(self, terms: dict, bound: int | None = None) -> "LaurentPoly":
        """Wrap packed terms; the bound is self's unless given."""
        out = object.__new__(LaurentPoly)
        out.nvars = self.nvars
        out._store = _fold_integral(terms)
        out._bound = self._bound if bound is None else bound
        return out

    def _wider(self, other):
        return self if self._bound >= other._bound else other

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

    # -- arithmetic ------------------------------------------------------
    def __mul__(self, other):
        if type(other) is LaurentPoly:  # the ring product first: it is the hot path
            self._check(other)
            bound = _check_bound(self._bound + other._bound)
            # every key is below 2^(2 + _W * nvars) in absolute value, so no key sum reaches this limit
            return self._new(_product(self._store, other._store, 1 << (3 + _W * self.nvars)), bound)
        return _Sparse.__mul__(self, other)  # a number, or NotImplemented

    __rmul__ = __mul__

    # -- queries ----------------------------------------------------------
    def coefficient(self, exps2, eps: int = 0):
        return self.terms.get((tuple(exps2), eps & 1), 0)

    def eval_ones(self):
        return sum(self._store.values())

    def __str__(self):
        return self._render("z")

    def _render(self, var: str) -> str:
        """The polynomial printed in the variables var1, var2, ...; str() uses z."""
        def mono_str(exps, p):
            bits = []
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                if e % 2 == 0:
                    ex = str(e // 2)
                else:
                    ex = f"({e}/2)"
                bits.append(f"{var}{i+1}" + ("" if ex == "1" else f"^{ex}"))
            if p:
                bits.append("eps")
            return "*".join(bits) if bits else "1"
        return _printed((mono_str(exps, p), c) for (exps, p), c in sorted(self.terms.items(), reverse=True))

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
    values = [LaurentPoly.var(m, i, s) for i in range(m) for s in (2, -2)]
    return tuple(_elem_of_values(values, 2 * m, LaurentPoly.const(m)))


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


def _top(group: GroupTag, lam: GeneralizedPartition) -> tuple[str, tuple[int, ...], int]:
    """(root type, highest weight padded to the rank, eps) of the group's
    irreducible lam, after checking that lam labels one.

    GL(d) is A at lam, of length d with parts of any sign.  Sp(2d) is C at
    lam, of depth at most d.  O(2d+1) is B and O(2d) is D, each at the first
    d rows of the canonical label (`o_label`), and odd O has eps = |lam| mod 2.
    """
    d = group.rank
    if group.kind == "GL":
        if lam.length != d:
            raise ValueError(f"{group} weights have length {d}")
        return "A", lam.parts, 0
    if not isinstance(lam, Partition):
        lam = Partition(lam.parts)
    if group.kind == "Sp":
        if lam.depth > d:
            raise ValueError(f"{group} labels have at most {d} rows")
        kind, top, eps = "C", lam.parts[:d], 0
    else:
        top = o_label(lam, group.size)[0].parts[:d]
        kind, eps = ("B", lam.size % 2) if group.size % 2 else ("D", 0)
    return kind, top + (0,) * (d - len(top)), eps


def char_group(group: GroupTag, lam: GeneralizedPartition) -> LaurentPoly:
    """Irreducible character of the group, in z_1..z_rank (eps-graded for odd O)."""
    kind, top, eps = _top(group, lam)
    d = group.rank
    if kind == "A":
        shift = top[-1]
        core = [p - shift for p in top if p > shift]
        n = len(core)
        jacobi_trudi = ring_det([[_complete(p - i + j, d) for j in range(n)] for i, p in enumerate(core)],
                                LaurentPoly.const(d))
        return jacobi_trudi * LaurentPoly.monomial(d, (2 * shift,) * d)
    centres = _centres(_column_lengths(top))
    if kind == "C":
        # |E'_{lam'}| with E'_r = E_r - E_{r-2}
        return pair_det(centres, lambda r: _eprime(r, d), LaurentPoly.const(d))
    if kind == "D":
        return pair_det(centres, lambda r: elementary_laurent(r, d), LaurentPoly.const(d))
    # the E's of {z_i, z_i^{-1}, 1} are E_r + E_{r-1}
    chi = pair_det(centres, lambda r: elementary_laurent(r, d) + elementary_laurent(r - 1, d),
                   LaurentPoly.const(d))
    return chi * LaurentPoly.eps(d) if eps else chi


# -- symmetry and decomposition ----------------------------------------------

def _dominant_weight(kind: str, w: tuple[int, ...]) -> tuple[int, ...]:
    """The dominant weight in the W(kind) orbit of w, for the root system kind A, B, C or D.

    W(A) permutes the entries, so they are sorted descending; W(B) = W(C)
    also flips signs, so their absolute values are.  W(D) flips an even
    number of signs: the last entry stays negative when an odd number of
    entries are negative and none is zero.
    """
    if kind == "A":
        return tuple(sorted(w, reverse=True))
    rep = tuple(sorted(map(abs, w), reverse=True))
    if kind == "D" and rep and rep[-1] and sum(e < 0 for e in w) % 2:
        return rep[:-1] + (-rep[-1],)
    return rep


def _is_dominant(kind: str, w: tuple[int, ...]) -> bool:
    """Whether w is its own `_dominant_weight`: non-increasing, and then
    w[-1] >= 0 for B and C, or w[-2] >= |w[-1]| for D of rank >= 2 (W(D_1) is trivial)."""
    if not all(map(ge, w, w[1:])):
        return False
    if kind in ("B", "C"):
        return not w or w[-1] >= 0
    return kind == "A" or len(w) < 2 or w[-2] >= abs(w[-1])


def _orbit_size(rep: tuple[int, ...], kind: str) -> int:
    """The number of weights in the W(kind) orbit of the dominant weight rep, for kind A or C.

    The permutations of the entries, times a sign per nonzero entry unless kind is A.
    """
    size = factorial(len(rep))
    for mult in Counter(rep).values():
        size //= factorial(mult)
    if kind != "A":
        size <<= sum(1 for e in rep if e)
    return size


def _orbit(rep: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """The W(C) orbit of the dominant weight rep: its entries permuted, with any of their signs flipped."""
    return frozenset(w for signed in product(*({e, -e} for e in rep)) for w in permutations(signed))


def _dominant_part(items, kind: str) -> dict:
    """{dominant (z, eps): coefficient} of a W(kind)-invariant function, for kind A or C.

    `items` are the function's ((z exponents, eps), coefficient) pairs, plain
    or doubled exponents alike.  The Weyl group acts on z as in
    `_dominant_weight` and leaves eps alone.  Every orbit must be complete,
    each of its weights present with one and the same coefficient; otherwise
    DecompositionError names the orbit's dominant weight.
    """
    orbits: dict = {}  # dominant key -> [coefficient, weights seen]
    for (z, eps), c in items:
        key = (_dominant_weight(kind, z), eps)
        seen = orbits.get(key)
        if seen is None:
            orbits[key] = [c, 1]
            continue
        if seen[0] != c:
            raise DecompositionError(
                f"the W({kind}) orbit of {key[0]} (eps = {eps}) carries both {seen[0]} and {c}: "
                "not Weyl-symmetric", key)
        seen[1] += 1
    for key, (c, count) in orbits.items():
        size = _orbit_size(key[0], kind)
        if count != size:
            raise DecompositionError(
                f"the W({kind}) orbit of {key[0]} (eps = {key[1]}) has {count} of its {size} weights: "
                "not Weyl-symmetric", key)
    return {key: c for key, (c, _count) in orbits.items()}


# -- dominant multiplicities by Freudenthal's formula -------------------------

# 2 rho_i = 2 (rank - i) - shift for i = 0 .. rank - 1.  A takes the rho of D:
# on gl(rank) it differs from (rank - 1, ..., 1 - rank) / 2 by a multiple of
# (1, ..., 1), which is orthogonal to every root and to every difference of
# weights of one module, so Freudenthal's formula does not see it.
_RHO_SHIFT = {"A": 2, "B": 1, "C": 0, "D": 2}


@lru_cache(maxsize=None)
def _root_system(kind: str, rank: int) -> tuple[tuple, tuple[int, ...]]:
    """(positive roots, rho) of type kind A, B, C or D in the standard basis e_1..e_rank, doubled.

    A root is the tuple of its nonzero (index, doubled coefficient) pairs:
    e_i - e_j (i < j) in every type, with A read as gl(rank); e_i + e_j in B,
    C and D; e_i in B and 2 e_i in C.
    """
    pairs = [(i, j) for i in range(rank) for j in range(i + 1, rank)]
    roots = [((i, 2), (j, -2)) for i, j in pairs]
    if kind != "A":
        roots += [((i, 2), (j, 2)) for i, j in pairs]
    if kind == "B":
        roots += [((i, 2),) for i in range(rank)]
    if kind == "C":
        roots += [((i, 4),) for i in range(rank)]
    rho = tuple(2 * (rank - i) - _RHO_SHIFT[kind] for i in range(rank))
    return tuple(roots), rho


@lru_cache(maxsize=None)
def _root_orbits(kind: str, rank: int, gens: tuple[int, ...]) -> tuple:
    """(a positive root, twice the number of positive roots in its orbit O) per orbit of the roots under the
    simple reflections gens: 2|O|, or |O| when O holds both signs.  Reflection i < rank - 1 swaps entries i
    and i + 1, and rank - 1 negates the last entry (B, C) or swaps and negates the last two (D)."""
    def reflect(u, g):
        if g < rank - 1:
            return u[:g] + (u[g + 1], u[g]) + u[g + 2:]
        return u[:-2] + (-u[-1], -u[-2]) if kind == "D" else u[:-1] + (-u[-1],)

    positive = {tuple(dict(root).get(i, 0) for i in range(rank)): root for root in _root_system(kind, rank)[0]}
    seen, out = set(), []
    for v, root in positive.items():
        if v not in seen:
            orbit, new = set(), {v}
            while new:
                orbit |= new
                new = {reflect(u, g) for u in new for g in gens} - orbit
            seen |= orbit
            out.append((root, 2 * sum(u in positive for u in orbit)))
    return tuple(out)


def _freudenthal(kind: str, top: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """{dominant weight: multiplicity} of the irreducible module of highest weight top, type kind.

    Weights are doubled and in the standard basis, and dominance is that of
    `_dominant_weight`, tested by `_is_dominant`.  The dominant weights of
    the module are those below top, and each of them is reached from top by
    subtracting positive roots while staying dominant (J. R. Stembridge, "The
    partial order of dominant weights", Adv. Math., 1998).  Freudenthal's
    formula (J. E. Humphreys, *Introduction to Lie Algebras and
    Representation Theory*, §22.3)

        (|top + rho|^2 - |mu + rho|^2) m(mu)
            = 2 sum_{alpha > 0} sum_{k >= 1} m(mu + k alpha) (mu + k alpha, alpha)

    then gives their multiplicities in order of decreasing |mu + rho|^2.  The
    dominant representative of a weight mu + k alpha lies above mu, so its
    |. + rho|^2 is larger and its multiplicity is already known.  An alpha-
    string of weights is unbroken, so each inner sum stops at the first k
    whose representative is not a weight.  The inner sum T(alpha) is
    invariant under the stabilizer W_mu of mu, which the simple reflections
    fixing mu generate (Humphreys §10.3), so the sum runs over the W_mu-orbits
    O of roots (`_root_orbits`), one string per orbit (R. V. Moody and
    J. Patera, "Fast recursion formula for weight multiplicities", Bull. AMS
    7, 1982): 2|O| T(alpha) when O holds only positive roots, and |O|
    T(alpha) when it holds both signs (then (mu, alpha) = 0 and O = -O).
    The formula is homogeneous, so it holds as it stands on doubled weights,
    roots and rho.  A quotient that is not an integer raises ArithmeticError.
    """
    roots, rho = _root_system(kind, len(top))
    dominant = {top}
    stack = [top]
    while stack:
        mu = stack.pop()
        for root in roots:
            nu = list(mu)
            for i, a in root:
                nu[i] -= a
            nu = tuple(nu)
            if nu not in dominant and _is_dominant(kind, nu):
                dominant.add(nu)
                stack.append(nu)

    def norm(w):
        return sum((e + r) ** 2 for e, r in zip(w, rho))

    rank, top_norm = len(top), norm(top)
    mult = {top: 1}
    for mu in sorted(dominant - {top}, key=lambda w: (norm(w), w), reverse=True):
        gens = tuple(i for i in range(rank - 1) if mu[i] == mu[i + 1])
        if kind in ("B", "C") and not mu[-1] or kind == "D" and rank > 1 and mu[-2] == -mu[-1]:
            gens += (rank - 1,)
        total = 0
        for root, weight in _root_orbits(kind, rank, gens):
            w = list(mu)
            while True:
                for i, a in root:
                    w[i] += a
                rep = _dominant_weight(kind, w)
                if rep not in dominant:
                    break
                total += weight * mult[rep] * sum(w[i] * a for i, a in root)
        m, rest = divmod(total, top_norm - norm(mu))
        if rest:
            raise ArithmeticError(f"type {kind} highest weight {top} (doubled) at {mu}: "
                                  f"Freudenthal quotient {total}/{top_norm - norm(mu)} is not an integer")
        mult[mu] = m
    return mult


@lru_cache(maxsize=None)
def _dominant_terms(group: GroupTag, lam: GeneralizedPartition) -> tuple:
    """The dominant ((plain z exponents, eps), coefficient) terms of char_group(group, lam).

    The multiplicities come from `_freudenthal` at the root type and highest
    weight of `_top`, and the full character is never built.  O(2d) is D at
    the canonical label nu.  Its Weyl group is that of C, one sign flip more
    than D's: when nu_d > 0 its character is that of so(2d) at nu plus that at nu with
    nu_d negated, so a D-dominant weight mu counts at mu with |mu_d|, and
    twice when mu_d = 0.  When nu_d = 0 the so(2d)-module is stable under
    the flip, and its weights with mu_d < 0 only mirror those with mu_d > 0.
    Cached per label.
    """
    kind, top, eps = _top(group, lam)
    try:
        mults = _freudenthal(kind, tuple(2 * p for p in top))
    except ArithmeticError as exc:
        raise ArithmeticError(f"{group} label {lam}: {exc}") from exc
    terms: dict = {}
    for mu, c in mults.items():
        z = tuple(e // 2 for e in mu)
        if kind == "D":
            if z[-1] < 0:
                if not top[-1]:
                    continue
                z = z[:-1] + (-z[-1],)
            elif not z[-1] and top[-1]:
                c *= 2
        terms[(z, eps)] = terms.get((z, eps), 0) + c
    return tuple(terms.items())


def _label(group: GroupTag, z: tuple[int, ...]) -> GeneralizedPartition:
    if group.kind == "GL":
        return GeneralizedPartition(z)
    if group.kind == "Sp":
        return Partition(z)
    return Partition(z + (0,) * (group.size - len(z)))


def decompose_graded(dominant: dict, group: GroupTag) -> dict:
    """Graded multiplicities of irreducible characters (greedy dominant peeling).

    `dominant` maps the dominant (z exponents, eps bit) keys of a
    Weyl-invariant function to their graded coefficients {grade: int}; the
    exponents are plain, not doubled.  The caller checks the invariance, and
    builds or keeps the dominant keys only.  Each step takes the lex-largest
    z left and subtracts the dominant terms of the irreducible characters
    sitting there, times their coefficients, from the remainder in place.  A
    Weyl-invariant remainder is zero when its dominant part is, so this is
    the full subtraction.  A key whose length is not the group's rank (it
    would never cancel), nothing at eps = 0 where a label must sit, or a
    negative or fractional multiplicity is a DecompositionError.  Returns
    {label: {grade: multiplicity}}.  For even O(n) the labels are the
    canonical ones with lambda'_1 <= n/2 and the totals are bar-merged; for
    odd O(n) the eps bit picks lambda or bar-lambda.
    """
    odd_o = group.kind == "O" and group.size % 2 == 1
    rem = {key: dict(coeff) for key, coeff in dominant.items() if coeff}
    for key in rem:
        if len(key[0]) != group.rank:
            raise DecompositionError(f"the weight {key[0]} has {len(key[0])} entries, not the rank {group.rank} "
                                     f"of {group}", key)
    out: dict[GeneralizedPartition, dict] = {}
    while rem:
        best = max(z for z, _eps in rem)
        lam = _label(group, best)
        for eps in (0, 1) if odd_o else (0,):
            coeff = rem.get((best, eps))
            if coeff is None:
                if odd_o:
                    continue
                raise DecompositionError(
                    f"nothing at the dominant weight {best} with eps = 0: not a character", (best, 1))
            coeff = dict(coeff)
            use = lam if not odd_o or lam.size % 2 == eps else bar_conjugate(lam, group.size)
            if any(v < 0 or v % 1 for v in coeff.values()):
                raise DecompositionError(
                    f"negative or fractional multiplicity {coeff} at {use}: duality violated", (best, eps), coeff)
            for key, c in _dominant_terms(group, use):
                if not _add_into(rem.setdefault(key, {}), coeff, -c):
                    del rem[key]
            _add_into(out.setdefault(use, {}), coeff)
    return out


def decompose_character(f: LaurentPoly, group: GroupTag) -> dict:
    """Multiplicities of irreducible characters in f: its dominant part, checked
    Weyl-invariant by `_dominant_part`, peeled by `decompose_graded` with one grade."""
    items = []
    for (exps, p), c in f.terms.items():
        if any(e & 1 for e in exps):
            raise DecompositionError(f"half-integer exponent in input: {exps}")
        items.append(((tuple(e // 2 for e in exps), p), c))
    weyl = "A" if group.kind == "GL" else "C"
    dominant = {key: {(): c} for key, c in _dominant_part(items, weyl).items()}
    return {lam: mults[()] for lam, mults in decompose_graded(dominant, group).items()}

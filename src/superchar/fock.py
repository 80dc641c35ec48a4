"""Exact free-field engine: fermions, symplectic bosons, and the extra
(phi, chi) pair; realized quadratic operators; highest weight vectors from
Grassmann minors of modes (`ringdet.ring_det` on a vector); Gram matrices;
characters (walked, and by `superschur._series_lhs`) and duality decompositions.

Mode indices are doubled integers (negative = creation, with the one
exception that psi^-_0 is a creation operator on the full space).  A state is
a rational combination of canonical monomials: tuples of creation modes
sorted by (field, color, index), fermionic modes at most once.  All signs are
defined relative to that order.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .infmat import SuperMatrix, fmt_half, parity, te_generator
from .partitions import GeneralizedPartition, Partition, _column_lengths, o_label, split_signs
from .laurentchars import DecompositionError, GroupTag, _is_dominant, _orbit, decompose_graded
from .ringdet import ring_det
from .sparse import _NUMBERS, _Sparse, _add_into, _add_term, _fold_integral, _folded, _printed
from .superschur import _series_lhs
from .symring import SymFunc, WeightMono, _weight_of, _weight_var

PSI_P, PSI_M, GAM_P, GAM_M, PHI, CHI = range(6)

# One row per field: (name, fermionic, conjugate field, contraction sign when
# this field annihilates its conjugate, colour charge).  A fermionic field has
# integer indices and a bosonic one half-integer indices; a charged field
# carries a colour 1..d, and the colourless phi and chi live on the Dodd space.
FIELDS = (
    ("p+", True, PSI_M, 1, 1),
    ("p-", True, PSI_P, 1, -1),
    ("g+", False, GAM_M, 1, 1),
    ("g-", False, GAM_P, -1, -1),
    ("phi", True, PHI, 1, 0),
    ("chi", False, CHI, 1, 0),
)
FIELD_NAMES, FERMIONIC, CONJUGATE, CONTRACTION, CHARGE = zip(*FIELDS)

Mode = tuple[int, int, int]  # (field, color, doubled index)


@dataclass(frozen=True)
class Space:
    """kind "gl" (psi modes over Z), "A" (over Z*), or "Dodd" (A plus phi/chi)."""

    kind: str
    d: int

    def __post_init__(self):
        if self.kind not in ("gl", "A", "Dodd"):
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.d < 0:
            raise ValueError("d must be >= 0")

    @property
    def level(self) -> Fraction:
        return Fraction(self.d) + (Fraction(1, 2) if self.kind == "Dodd" else 0)

    def mode_ok(self, mode: Mode) -> bool:
        field, color, idx2 = mode
        coloured = 1 <= color <= self.d if CHARGE[field] else self.kind == "Dodd" and color == 0
        zero_ok = idx2 != 0 or (self.kind == "gl" and field in (PSI_P, PSI_M))
        return coloured and (idx2 % 2 == 0) == FERMIONIC[field] and zero_ok

    def is_creation(self, mode: Mode) -> bool:
        field, _color, idx2 = mode
        return idx2 < 0 or (idx2 == 0 and field == PSI_M)  # psi-_0: the gl zero mode

    def creation_modes(self, max_energy2: int) -> list[Mode]:
        """The admissible creation modes of doubled energy <= max_energy2, sorted."""
        grid = itertools.product(range(len(FIELDS)), range(self.d + 1), range(-max_energy2, 1))
        return [mode for mode in grid if self.mode_ok(mode) and self.is_creation(mode)]


def mono_energy2(mono: tuple[Mode, ...]) -> int:
    return sum(abs(m[2]) for m in mono)


def fmt_mode(mode: Mode) -> str:
    field, color, idx2 = mode
    tag = FIELD_NAMES[field]
    if CHARGE[field]:
        return f"{tag}[{color},{fmt_half(idx2)}]"
    return f"{tag}[{fmt_half(idx2)}]"


def fmt_state(mono: tuple[Mode, ...]) -> str:
    return " ".join(fmt_mode(m) for m in mono) + (" " if mono else "") + "|0>"


class FockVector(_Sparse):
    """Rational linear combination of canonical creation monomials."""

    __slots__ = ("space",)

    def __init__(self, space: Space, terms: dict[tuple[Mode, ...], int | Fraction] | None = None):
        self.space = space
        self.terms = _fold_integral({key: c for key, c in (terms or {}).items() if c})

    def _context(self):
        return self.space

    def _new(self, terms: dict) -> "FockVector":
        out = object.__new__(FockVector)
        out.space = self.space
        out.terms = _fold_integral(terms)
        return out

    @staticmethod
    def vacuum(space: Space) -> "FockVector":
        return FockVector(space, {(): 1})

    def energies2(self) -> set[int]:
        return {mono_energy2(m) for m in self.terms}

    def vacuum_coeff(self) -> int | Fraction:
        return self.terms.get((), 0)

    def __rmul__(self, other):
        """A mode on the left applies that mode (so `ring_det` can expand a minor of modes); a number scales."""
        if isinstance(other, tuple):
            return apply_mode(self.space, other, self)
        return self.__mul__(other)

    def __str__(self):
        monos = sorted(self.terms, key=lambda m: (mono_energy2(m), m))
        return _printed(((fmt_state(m), self.terms[m]) for m in monos), parens=True)


def _insert_creation(space: Space, mode: Mode, mono: tuple[Mode, ...]):
    """Prepend the creation operator `mode` and re-canonicalise.

    Returns (sign, new monomial) or None when a fermionic mode repeats.
    """
    fermi = FERMIONIC[mode[0]]
    pos = 0
    sign = 1
    for m in mono:
        if m < mode:
            if fermi and FERMIONIC[m[0]]:
                sign = -sign
            pos += 1
        else:
            break
    if fermi and pos < len(mono) and mono[pos] == mode:
        return None
    return sign, mono[:pos] + (mode,) + mono[pos:]


def apply_mode(space: Space, mode: Mode, vec: FockVector) -> FockVector:
    if not space.mode_ok(mode):
        raise ValueError(f"mode {fmt_mode(mode)} not admissible on {space}")
    out: dict[tuple[Mode, ...], int | Fraction] = {}
    if space.is_creation(mode):
        for mono, coeff in vec.terms.items():
            ins = _insert_creation(space, mode, mono)
            if ins is None:
                continue
            sign, new = ins
            _add_term(out, new, sign * coeff)
        return vec._new(out)
    # the annihilator contracts with its conjugate partner and passes the rest
    field, color, idx2 = mode
    partner = (CONJUGATE[field], color, -idx2)
    fermi = FERMIONIC[field]
    for mono, coeff in vec.terms.items():
        sign = CONTRACTION[field]
        for i, m in enumerate(mono):
            if m == partner:
                _add_term(out, mono[:i] + mono[i + 1 :], coeff * sign)
            if fermi and FERMIONIC[m[0]]:
                sign = -sign
        # the annihilator then hits the vacuum: contributes nothing
    return vec._new(out)


def _apply_word(space: Space, modes: tuple[Mode, ...] | list[Mode], vec: FockVector) -> FockVector:
    """The product of `modes` applied to vec, rightmost mode first."""
    for mode in reversed(modes):
        vec = apply_mode(space, mode, vec)
        if not vec:
            break
    return vec


@dataclass(frozen=True)
class RealizedOp:
    """Finite list of (coefficient, ordered mode products)."""

    space: Space
    terms: list[tuple[int | Fraction, tuple[Mode, ...]]]

    def apply(self, vec: FockVector) -> FockVector:
        if vec.space != self.space:
            raise ValueError("operator and vector live on different spaces")
        out: dict[tuple[Mode, ...], int | Fraction] = {}
        for coeff, modes in self.terms:
            _add_into(out, _apply_word(self.space, modes, vec).terms, coeff)
        return vec._new(out)

    def __add__(self, other: "RealizedOp") -> "RealizedOp":
        if self.space != other.space:
            raise ValueError("operators live on different spaces")
        return RealizedOp(self.space, self.terms + other.terms)

    def __mul__(self, scalar) -> "RealizedOp":
        if not isinstance(scalar, _NUMBERS):
            return NotImplemented
        scalar = _folded(scalar)
        return RealizedOp(self.space, [(_folded(c * scalar), ms) for c, ms in self.terms])


def _normal_pair(space: Space, a: Mode, b: Mode) -> tuple[int, tuple[Mode, Mode]]:
    """:ab: as a signed ordered product (annihilators act first)."""
    if not space.is_creation(b):
        return 1, (a, b)
    sign = -1 if (FERMIONIC[a[0]] and FERMIONIC[b[0]]) else 1
    return sign, (b, a)


def _op(space: Space, entries: list[tuple[int | Fraction, Mode, Mode]]) -> RealizedOp:
    terms = []
    for coeff, a, b in entries:
        sign, modes = _normal_pair(space, a, b)
        terms.append((_folded(coeff * sign), modes))
    return RealizedOp(space, terms)


# e(p,q) is sign * sum over colours c of :a^c_{-p} b^c_q:, keyed by the parities
# of (p, q).  On the Dodd space te(p,q) adds one colourless c :F_{-p} F_q:, with
# F = phi at an integer index and chi at a half-integer one (COLOURLESS), and c
# given for q > 0 and for q < 0.  The mixed rows carry the opposite c to the
# printed list: the two choices are conjugate under phi -> -phi, and only this
# gauge makes the displayed Grassmann-minor vectors singular.
BILINEARS = {
    (0, 0): (1, PSI_P, PSI_M, (1, 1)),
    (1, 1): (-1, GAM_P, GAM_M, (1, -1)),
    (0, 1): (1, PSI_P, GAM_M, (-1, 1)),
    (1, 0): (-1, GAM_P, PSI_M, (-1, -1)),
}
COLOURLESS = (PHI, CHI)
# Each dual algebra's (te(p,q) family, dual group kind).  gl and A take e(p,q)
# itself, and gl has no dual group.  A is dual to GL(d), C to Sp(2d), and
# Deven and Dodd to O(2 level): O(2d) and O(2d+1).
DUAL_PAIRS = {
    "gl": (None, None), "A": (None, "GL"), "C": ("C", "Sp"), "Deven": ("D", "O"), "Dodd": ("D", "O"),
}


def _dual_pair(algebra: str) -> tuple[str | None, str | None]:
    if algebra not in DUAL_PAIRS:
        raise ValueError(f"unknown algebra {algebra!r}")
    return DUAL_PAIRS[algebra]


def _fits(space: Space, algebra: str) -> bool:
    """Dodd lives only on the d+1/2 space, and every other algebra only on the others."""
    return (space.kind == "Dodd") == (algebra == "Dodd")


def _dual_group(space: Space, algebra: str) -> tuple[str, int]:
    """(kind, size) of the dual group, as `laurentchars.GroupTag` takes them; the
    size is also the length of its labels: d for GL(d) and Sp(2d), 2 level for O.
    The algebra must fit the space (`_fits`)."""
    kind = _dual_pair(algebra)[1]
    if kind is None:
        dual = ", ".join(name for name, (_family, group) in DUAL_PAIRS.items() if group)
        raise ValueError(f"no dual group for algebra {algebra!r}; one of {dual}")
    if not _fits(space, algebra):
        raise ValueError(f"the {space.kind} space has no {algebra} dual pair")
    return kind, int(2 * space.level) if kind == "O" else space.d


def _e_entries(space: Space, m: SuperMatrix) -> list:
    """The coloured bilinear entries of a finite sum m of coeff * e(p,q)."""
    entries = []
    for (p2, q2), coeff in m.terms.items():
        if space.kind == "A" and (p2 == 0 or q2 == 0):
            raise ValueError("index 0 is outside the reduced space")
        sign, a, b, _ = BILINEARS[parity(p2), parity(q2)]
        entries += [(coeff * sign, (a, c, -p2), (b, c, q2)) for c in range(1, space.d + 1)]
    return entries


def realize_matrix(space: Space, a: SuperMatrix) -> RealizedOp:
    """A finite sum of coeff * e(p,q) on the gl or A space."""
    if space.kind == "Dodd":
        raise ValueError("the d+1/2 space realizes only the D-type te(p,q)")
    return _op(space, _e_entries(space, a))


@functools.lru_cache(maxsize=None)
def realize_algebra(space: Space, algebra: str, p2: int, q2: int) -> RealizedOp:
    """Generator of the dual algebra: e(p,q) for gl/A, `infmat.te_generator`'s
    te(p,q) = e(p,q) + s e(-q,-p) of the C- or D-type subalgebra for C/Deven/Dodd.

    The algebra must fit the space (`_fits`): the d+1/2 space realizes only
    Dodd, the D type at central charge d + 1/2, with the colourless term of
    BILINEARS.  Cached: singularity checks ask for the same raising
    operators many times.
    """
    family = _dual_pair(algebra)[0]
    if not _fits(space, algebra):
        raise ValueError(f"the {space.kind} space does not realize the {algebra} algebra")
    entries = _e_entries(space, te_generator(family, p2, q2) if family else SuperMatrix.unit(p2, q2))
    if space.kind == "Dodd":
        c = BILINEARS[parity(p2), parity(q2)][3][q2 < 0]
        entries.append((c, (COLOURLESS[parity(p2)], 0, -p2), (COLOURLESS[parity(q2)], 0, q2)))
    return _op(space, entries)


# -- group generators ---------------------------------------------------------

# Bilinear group generators: sum over n > 0 of s_lo :a_{-n} b_n: + s_hi :a_n b_{-n}:,
# once for a fermionic field pair (n integral) and once for a bosonic one (n
# half-integral).  Rows are ((a, b, s_lo, s_hi) fermionic, (a, b, s_lo, s_hi) bosonic).
# "E" also takes the psi zero mode on the gl space.
# "so+vec", the extra so(2d+1) raising generator on the d+1/2 space, pairs the
# colourless phi/chi with colour i; it is written in the same phi -> -phi gauge
# as the te realization, so its chi-gamma terms carry the opposite sign to the
# printed form.
PAIR_GENERATORS = {
    "E": ((PSI_P, PSI_M, 1, 1), (GAM_P, GAM_M, -1, -1)),
    "sp+": ((PSI_P, PSI_P, 1, -1), (GAM_P, GAM_P, 1, 1)),
    "so+": ((PSI_P, PSI_P, 1, 1), (GAM_P, GAM_P, 1, -1)),
    "so+vec": ((PHI, PSI_P, 1, 1), (CHI, GAM_P, 1, -1)),
}
# The *-structure fixes the lowering generators: each is the adjoint of its
# raising one at the transposed colours.
LOWERING = {"sp-": "sp+", "so-": "so+", "so-vec": "so+vec"}


def realize_group(space: Space, descriptor: str, colours: tuple[int, ...], cutoff2: int) -> RealizedOp:
    """Generator of the dual group, truncated to annihilator energies <= cutoff2.

    E/sp+/sp-/so+/so- take colours (i, j); so+vec and so-vec take (i,).
    sp-(i, j) is op_adjoint(sp+(j, i)), and likewise so- and so-vec.
    """
    if descriptor in LOWERING:
        return op_adjoint(realize_group(space, LOWERING[descriptor], colours[::-1], cutoff2))
    if descriptor not in PAIR_GENERATORS:
        raise ValueError(f"unknown descriptor {descriptor!r}")
    ca, cb = (0, *colours) if descriptor == "so+vec" else colours
    entries = []
    for (fa, fb, s_lo, s_hi), start in zip(PAIR_GENERATORS[descriptor], (2, 1)):
        for n2 in range(start, cutoff2 + 1, 2):
            entries.append((s_lo, (fa, ca, -n2), (fb, cb, n2)))
            entries.append((s_hi, (fa, ca, n2), (fb, cb, -n2)))
    if descriptor == "E" and space.kind == "gl":
        entries.append((1, (PSI_P, ca, 0), (PSI_M, cb, 0)))
    return _op(space, entries)


def _adjoint_word(modes: tuple[Mode, ...], naive: bool = False) -> tuple[int, tuple[Mode, ...]]:
    """(sign, word) of a mode product's adjoint: the word reversed, each mode through `omega_mode`."""
    sign, word = 1, []
    for mode in reversed(modes):
        s, conj = omega_mode(mode, naive)
        sign *= s
        word.append(conj)
    return sign, tuple(word)


def op_adjoint(op: RealizedOp) -> RealizedOp:
    """Formal adjoint under the signed conjugation rule: reverse products, conjugate modes."""
    terms = []
    for coeff, modes in op.terms:
        sign, word = _adjoint_word(modes)
        terms.append((coeff * sign, word))
    return RealizedOp(op.space, terms)


# -- basis enumeration ---------------------------------------------------------

def _walk(space: Space, cutoff2: int, step, root) -> list:
    """Every canonical creation monomial of energy <= cutoff2, depth first.

    A monomial takes its modes in the order of `space.creation_modes`; after a
    fermionic mode the walk continues from the next mode, after a bosonic one
    from the same mode.  The state of m_1 ... m_j is root + step(m_1) + ... +
    step(m_j), built by one addition per node.
    """
    modes = space.creation_modes(cutoff2)
    moves = [(abs(m[2]), step(m), k + FERMIONIC[m[0]]) for k, m in enumerate(modes)]
    out = []

    def rec(start: int, state, left2: int):
        out.append(state)
        for e2, delta, nxt in moves[start:]:
            if e2 <= left2:
                rec(nxt, state + delta, left2 - e2)

    rec(0, root, cutoff2)
    return out


def enumerate_basis(space: Space, cutoff2: int) -> list[tuple[Mode, ...]]:
    """All canonical creation monomials with energy <= cutoff2, ordered."""
    return sorted(_walk(space, cutoff2, lambda m: (m,), ()), key=lambda m: (mono_energy2(m), m))


# -- Grassmann determinants and highest weight vectors --------------------------

def hwv_candidate(space: Space, algebra: str, lam: GeneralizedPartition, variant: str = "X") -> FockVector:
    """Joint highest weight vector of the lam-component of the dual-pair decomposition.

    lam has the declared length of the dual group's labels: d for A and C,
    2d for Deven and 2d+1 for Dodd; any other length, and an O label with
    lambda'_1 + lambda'_2 > 2d or 2d+1, is a ValueError.  For a Deven label
    with lambda'_1 = d, variant "X" gives the vector with group weight
    (lam_1..lam_d) and variant "Xt" the one with the sign-flipped last entry;
    "Xt" for any other label is a ValueError.  The vector is
    det_1 ... det_k |0>, a product of Grassmann minors applied to the vacuum
    (`ring_det`, the last row's mode acting first), the last minor first.
    """
    vec = FockVector.vacuum(space)
    for block in reversed(_hwv_factors(space, algebra, lam, variant)):
        vec = ring_det(block, vec)
    return vec


def _hwv_factors(space: Space, algebra: str, lam: GeneralizedPartition, variant: str) -> list[list[list[Mode]]]:
    """The r x r mode block of each Grassmann minor of `hwv_candidate`, in product order.

    Column j of length r of the label gives the block over the first r
    entries of a list of (gamma field, psi field, colour) columns: row i <= j
    takes each column's gamma mode at -(2i - 1), every later row its psi mode
    at -2j.  X^j lists the + fields over colours 1..d, X^{-j} the - fields
    over d..1, X-tilde^j the + fields with the last colour's swapped for the
    - fields, and the spinorial Gamma (j = 1) the + fields, the chi/phi
    middle column on the Dodd space, then the - fields.
    """
    d = space.d
    group, n = _dual_group(space, algebra)
    if lam.length != n:
        raise ValueError(f"{group}({2 * n if group == 'Sp' else n}) labels have length {n}, not {lam.length}")
    if variant == "Xt" and (algebra != "Deven" or _column_lengths(lam.parts)[:1] != (d,)):
        raise ValueError(f"the sign-flipped vector exists only for O(2d) = O({2 * d}) labels with lambda'_1 = d")
    plus = [(GAM_P, PSI_P, c) for c in range(1, d + 1)]
    minus = [(GAM_M, PSI_M, c) for c in range(d, 0, -1)]
    if group == "GL":
        pos, neg = split_signs(lam)
        mu_cols = _column_lengths(neg.star().parts)
        factors = [(minus, j, mu_cols[j - 1]) for j in range(len(mu_cols), 0, -1)]
        factors += [(plus, j, r) for j, r in enumerate(_column_lengths(pos.parts), start=1)]
    else:
        lam = Partition(lam.parts)
        # the first column is spinorial for every odd O label and for the even
        # O labels with lambda'_1 > d; an O non-label is refused here
        spinorial = group == "O" and (o_label(lam, n)[1] < 0 or algebra == "Dodd")
        gamma = plus + ([(CHI, PHI, 0)] if space.kind == "Dodd" else []) + minus
        x_cols = plus[:-1] + [(GAM_M, PSI_M, d)] if variant == "Xt" else plus
        factors = [(gamma if spinorial and j == 1 else x_cols, j, r)
                   for j, r in enumerate(_column_lengths(lam.parts), start=1)]
    return [
        [[(gam, c, -(2 * i - 1)) if i <= j else (psi, c, -2 * j) for gam, psi, c in cols[:r]] for i in range(1, r + 1)]
        for cols, j, r in factors
    ]


# -- singularity and weights ----------------------------------------------------

# The centre generators of the C and D positive parts, beside te(p, p+1) for
# p > 0.  te(-1/2, 1/2) is zero in C (with it in place of te(-1/2, 1), 33
# raising te(p, q) with |p|, |q| <= 3 are not generated); D needs te(-1/2, 1/2)
# itself, which te(-1/2, 1) does not generate.  tests/test_fock.py checks by
# exact span closure that these lists generate every raising element.
CENTRES = {"C": [(-1, 2)], "D": [(-1, 1)]}


def raising_generators(space: Space, algebra: str, top2: int) -> list[tuple[int, int]]:
    """Index pairs (p2, q2) of generators of the raising part of the dual
    algebra inside the window |p2|, |q2| <= top2, in the order they are checked.

    gl and A take the adjacent pairs of the index set, which holds 0 on the gl
    space only, so on the A space the step across 0 is (-1/2, 1/2).  C and D
    take te(p, p+1) for p > 0, then their centre generator.
    """
    family = _dual_pair(algebra)[0]
    if family is None:
        index_set = [i for i in range(-top2, top2 + 1) if i or space.kind == "gl"]
        return list(zip(index_set, index_set[1:]))
    adjacent = [(p2, p2 + 1) for p2 in range(1, top2)]
    return adjacent + [(p2, q2) for p2, q2 in CENTRES[family] if q2 <= top2]


def singularity_check(space: Space, algebra: str, vec: FockVector):
    """True when every raising element kills vec; otherwise the first generator
    of `raising_generators` that does not.

    A vector killed by two operators is killed by their bracket, and a bracket
    of raising elements carries no central term (the cocycle pairs e(p,q) only
    with e(q,p)), so the generators stand for the raising part they generate.
    The window is enough: an element with an index beyond the top doubled
    energy top2 contracts a mode that no monomial of vec holds.
    """
    if not vec:
        return False, "zero vector"
    top2 = max(vec.energies2())
    for p2, q2 in raising_generators(space, algebra, top2):
        if realize_algebra(space, algebra, p2, q2).apply(vec):
            return False, (p2, q2)
    return True, None


def group_raising_check(space: Space, algebra: str, vec: FockVector):
    """Annihilation by the Borel raising operators of the algebra's dual group:
    the E_ij (i < j) of its gl part, then its sp/so part (none for GL).  True,
    or the first that does not kill vec as (`realize_group` descriptor, *colours)."""
    pair = {"GL": None, "Sp": "sp+", "O": "so+"}[_dual_group(space, algebra)[0]]
    top2 = max(vec.energies2(), default=0)
    colours = range(1, space.d + 1)
    raising = [("E", (i, j)) for i in colours for j in colours if i < j]
    # sp+(j, i) = sp+(i, j) and so+(j, i) = -so+(i, j), whose (i, i) terms cancel in pairs
    raising += [(pair, (i, j)) for i in colours for j in colours
                if pair and (i < j or i == j and pair == "sp+")]
    raising += [("so+vec", (i,)) for i in colours if algebra == "Dodd"]
    for descriptor, cols in raising:
        if realize_group(space, descriptor, cols, top2).apply(vec):
            return False, (descriptor, *cols)
    return True, None


def diagonal_weight(space: Space, algebra: str, vec: FockVector):
    """(ghat diagonal weight dict, group weight tuple) of a joint eigen-vector."""
    top2 = max(vec.energies2())
    mono0, c0 = next(iter(vec.terms.items()))

    def eigenvalue(op: RealizedOp, name: str) -> int:
        out = op.apply(vec)
        ratio = Fraction(out.terms.get(mono0, 0)) / c0
        if out != vec * ratio:
            raise ValueError(f"not an eigenvector of {name}")
        return int(ratio)

    # gl/A read e(s,s) at s and -s, the te families te(s,s) at s > 0; gl also e(0,0)
    signs = (1,) if _dual_pair(algebra)[0] else (1, -1)
    diagonal = [sign * s2 for s2 in range(1, top2 + 1) for sign in signs]
    if algebra == "gl" and space.kind == "gl":
        diagonal.append(0)
    coeffs: dict[int, int] = {}
    for s2 in diagonal:
        name = f"the {algebra} element ({fmt_half(s2)},{fmt_half(s2)})"
        value = eigenvalue(realize_algebra(space, algebra, s2, s2), name)
        if value:
            coeffs[s2] = value
    group = tuple(eigenvalue(realize_group(space, "E", (i, i), top2), f"E_{i}{i}") for i in range(1, space.d + 1))
    return coeffs, group


# -- conjugation and Gram matrices ----------------------------------------------

CONJUGATIONS = ("signed", "naive")


def omega_mode(mode: Mode, naive: bool = False) -> tuple[int, Mode]:
    """(sign, conjugate mode).  The signed rule takes the contraction sign of
    whichever mode of the pair annihilates, so every one-mode norm is +1."""
    field, color, idx2 = mode
    conj = CONJUGATE[field]
    sign = 1 if naive else CONTRACTION[field if idx2 > 0 else conj]
    return sign, (conj, color, -idx2)


def inner_product(space: Space, bra: tuple[Mode, ...], ket: FockVector, conjugation="signed") -> int | Fraction:
    if conjugation not in CONJUGATIONS:
        raise ValueError(f"unknown conjugation {conjugation!r}")
    sign, word = _adjoint_word(bra, conjugation == "naive")
    return _apply_word(space, word, ket).vacuum_coeff() * sign


def gram_matrix(space: Space, energy2: int, conjugation: str = "signed"):
    """(basis, matrix) of inner products at exact energy level energy2.

    The monomial basis is orthogonal, so the matrix is diagonal and the form
    is positive definite exactly when every norm on the diagonal is positive.
    "signed" is the unitarizable gamma-conjugation (sign flips on the
    negative modes); "naive" drops the signs and loses positivity.
    """
    basis = sorted(m for m in _walk(space, energy2, lambda m: (m,), ()) if mono_energy2(m) == energy2)
    mat = []
    for i, bra in enumerate(basis):
        # omega turns each creation mode of the bra into an annihilator that removes one matching
        # mode or gives 0, so only the ket with the bra's own monomial reaches the vacuum
        row = [0] * len(basis)
        row[i] = inner_product(space, bra, FockVector(space, {bra: 1}), conjugation)
        mat.append(row)
    return basis, mat


# -- characters and duality decomposition ----------------------------------------

def fock_character(space: Space, cutoff2: int):
    """ch F as {(z exponents, eps): {weight monomial: count}} up to the cutoff.

    Each state is packed into one int with one digit per slot: the d z
    exponents, the x occupation of each energy, the y occupation of each
    doubled energy, and the mode count, whose parity is eps.  A key splits
    into its z digits and its weight digits; far fewer weight parts than keys
    are distinct, so each part is decoded once.
    """
    if space.kind == "gl":
        raise ValueError("character bookkeeping is for the reduced spaces")
    d = space.d
    xs = range(1, cutoff2 // 2 + 1)  # x energies of the psi and phi modes
    ys = range(1, cutoff2 + 1, 2)  # doubled y energies of the gamma and chi modes
    nslots = d + len(xs) + len(ys) + 1
    # every mode has doubled energy >= 1, so no slot counts more than cutoff2
    # modes: each digit lies in [-cutoff2, cutoff2] and never carries
    base = 2 * cutoff2 + 1
    unit = [base**i for i in range(nslots)]
    odd = space.kind == "Dodd"

    def step(mode: Mode) -> int:
        field, color, idx2 = mode
        slot = d + abs(idx2) // 2 - 1 if FERMIONIC[field] else d + len(xs) + abs(idx2) // 2
        return unit[-1] + unit[slot] + CHARGE[field] * unit[color - 1]

    def decode(part: int, n: int) -> list[int]:
        digits = []
        for _ in range(n):
            part, digit = divmod(part, base)
            digits.append(digit - cutoff2)
        return digits

    zparts: dict[int, tuple[int, ...]] = {}
    wparts: dict[int, tuple[int, WeightMono]] = {}
    out: dict[tuple[tuple[int, ...], int], dict[WeightMono, int]] = {}
    for key, count in Counter(_walk(space, cutoff2, step, cutoff2 * sum(unit))).items():
        wpart, zpart = divmod(key, unit[d])
        z = zparts.get(zpart)
        if z is None:
            z = zparts[zpart] = tuple(decode(zpart, d))
        weight = wparts.get(wpart)
        if weight is None:
            digits = decode(wpart, nslots - d)
            wmono = (
                tuple((n, c) for n, c in zip(xs, digits) if c),
                tuple((r2, c) for r2, c in zip(ys, digits[len(xs) : -1]) if c),
            )
            weight = wparts[wpart] = (digits[-1] & 1 if odd else 0, wmono)
        out.setdefault((z, weight[0]), {})[weight[1]] = count
    return out


def _character_sweep(space: Space, cutoff2: int) -> dict:
    """ch F on its W(C)-dominant keys, {(z, eps): SymFunc}, by `superschur._series_lhs`.

    ch F is prod_i Phi(z_i), times the colourless phi/chi factor on the
    d+1/2 space (where each mode also flips eps: the engine's odd case),
    and Phi has one series per mode energy over its weight variable v
    (`symring._weight_var`): [1, v] for the fermionic mode of an integer
    energy, [1, v, v^2, ...] up to the cap for the bosonic one of a
    half-integer energy.  Highest energy first keeps the products small
    until the last few.
    """
    one = SymFunc.const(cutoff2)
    series = []
    for e2 in range(cutoff2, 0, -1):
        units = [one, _weight_var(e2, cutoff2)]
        if e2 % 2:  # a bosonic mode: every power up to the cap
            while len(units) * e2 <= cutoff2:
                units.append(units[-1] * units[1])
        series.append(units)
    return _series_lhs(space.d, space.kind == "Dodd", one, series)


def character_product_formula(space: Space, cutoff2: int):
    """ch F as `fock_character` gives it, from the product formula: each key of
    the W(C) orbit of a key of `_character_sweep` gets its own copy of that
    key's coefficient.  It shares no code with the walk, so a fault in
    either shows as a mismatch.
    """
    weight = _weight_of(cutoff2)
    out: dict[tuple[tuple[int, ...], int], dict[WeightMono, int]] = {}
    for (z, eps), f in _character_sweep(space, cutoff2).items():
        grades = {weight(k): c for k, c in f._store.items()}
        for w in _orbit(z):
            out[(w, eps)] = dict(grades)
    return out


def duality_decompose(space: Space, algebra: str, cutoff2: int):
    """Graded branching of ch F over the dual group, by dominant peeling.

    `decompose_graded` peels the packed stores of the keys of
    `_character_sweep` (for GL, of the W(A)-dominant members of their
    orbits), with no walk of the basis.  Returns {partition label: {weight
    monomial: multiplicity}}; for the even orthogonal case labels are
    canonical and totals are bar-merged.
    """
    group = GroupTag(*_dual_group(space, algebra))
    dominant = {key: f._store for key, f in _character_sweep(space, cutoff2).items()}
    if group.kind == "GL":
        dominant = {(w, eps): g for (z, eps), g in dominant.items() for w in _orbit(z) if _is_dominant("A", w)}
    weight = _weight_of(cutoff2)
    try:
        peeled = decompose_graded(dominant, group)
    except DecompositionError as exc:  # the peel saw packed keys: name their weight monomials
        grades = exc.grades and {weight(k): c for k, c in exc.grades.items()}
        raise DecompositionError(str(exc).replace(str(exc.grades), str(grades)), exc.key, grades) from None
    return {lam: {weight(k): c for k, c in grades.items()} for lam, grades in peeled.items()}

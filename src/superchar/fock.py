"""Exact free-field engine: fermions, symplectic bosons, and the extra
(phi, chi) pair; realized quadratic operators; Grassmann-determinant highest
weight vectors; Gram matrices; characters and duality decompositions.

Mode indices are doubled integers (negative = creation, with the one
exception that psi^-_0 is a creation operator on the full space).  A state is
a rational combination of canonical monomials: tuples of creation modes
sorted by (field, color, index), fermionic modes at most once.  All signs are
defined relative to that order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .infmat import SuperMatrix, fmt_half, parity
from .partitions import GeneralizedPartition, Partition, split_signs, transpose
from .laurentchars import GroupTag, decompose_graded
from .symring import WeightMono, wmono_energy2  # noqa: F401  (wmono_energy2 re-exported)

PSI_P, PSI_M, GAM_P, GAM_M, PHI, CHI = range(6)
FIELD_NAMES = ("p+", "p-", "g+", "g-", "phi", "chi")
FERMIONIC = (True, True, False, False, True, False)

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
        if field in (PSI_P, PSI_M, GAM_P, GAM_M):
            if not (1 <= color <= self.d):
                return False
        else:
            if self.kind != "Dodd" or color != 0:
                return False
        if field in (PSI_P, PSI_M, PHI):
            if idx2 % 2:
                return False
            if idx2 == 0 and not (self.kind == "gl" and field in (PSI_P, PSI_M)):
                return False
        else:
            if idx2 % 2 == 0:
                return False
        return True

    def is_creation(self, mode: Mode) -> bool:
        field, _color, idx2 = mode
        if idx2 < 0:
            return True
        return idx2 == 0 and field == PSI_M  # gl zero mode

    def creation_modes(self, max_energy2: int) -> list[Mode]:
        out = []
        for field in range(6):
            colors = range(1, self.d + 1) if field < 4 else ((0,) if self.kind == "Dodd" else ())
            for color in colors:
                if field in (PSI_P, PSI_M, PHI):
                    idxs = list(range(-2, -max_energy2 - 1, -2))
                    if field == PSI_M and self.kind == "gl":
                        idxs = [0] + idxs
                else:
                    idxs = list(range(-1, -max_energy2 - 1, -2))
                for idx2 in idxs:
                    mode = (field, color, idx2)
                    if self.mode_ok(mode):
                        out.append(mode)
        return sorted(out)


def mode_energy2(mode: Mode) -> int:
    return abs(mode[2])


def mono_energy2(mono: tuple[Mode, ...]) -> int:
    return sum(abs(m[2]) for m in mono)


def fmt_mode(mode: Mode) -> str:
    field, color, idx2 = mode
    tag = FIELD_NAMES[field]
    if field < 4:
        return f"{tag}[{color},{fmt_half(idx2)}]"
    return f"{tag}[{fmt_half(idx2)}]"


def fmt_state(mono: tuple[Mode, ...]) -> str:
    return " ".join(fmt_mode(m) for m in mono) + (" " if mono else "") + "|0>"


class FockVector:
    """Rational linear combination of canonical creation monomials."""

    __slots__ = ("space", "terms")

    def __init__(self, space: Space, terms: dict[tuple[Mode, ...], Fraction] | None = None):
        self.space = space
        self.terms: dict[tuple[Mode, ...], Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff:
                    self.terms[mono] = coeff

    @staticmethod
    def vacuum(space: Space) -> "FockVector":
        return FockVector(space, {(): Fraction(1)})

    @staticmethod
    def zero(space: Space) -> "FockVector":
        return FockVector(space)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, FockVector):
            return self.space == other.space and self.terms == other.terms
        if other == 0:
            return not self.terms
        return NotImplemented

    def __add__(self, other: "FockVector") -> "FockVector":
        assert self.space == other.space
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            new = out.get(mono, 0) + coeff
            if new:
                out[mono] = new
            else:
                out.pop(mono, None)
        return FockVector(self.space, out)

    def __sub__(self, other):
        return self + (other * -1)

    def __mul__(self, scalar) -> "FockVector":
        scalar = Fraction(scalar)
        if not scalar:
            return FockVector(self.space)
        return FockVector(self.space, {m: c * scalar for m, c in self.terms.items()})

    __rmul__ = __mul__

    def energies2(self) -> set[int]:
        return {mono_energy2(m) for m in self.terms}

    def vacuum_coeff(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms, key=lambda m: (mono_energy2(m), m)):
            c = self.terms[mono]
            prefix = "" if c == 1 else ("-" if c == -1 else f"({c})*")
            bits.append(prefix + fmt_state(mono))
        return " + ".join(bits).replace("+ -", "- ")


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


def _contraction(ann: Mode, cre: Mode) -> int:
    """Scalar left over when the annihilator passes the creation operator."""
    fa, ca, ia = ann
    fc, cc, ic = cre
    if ca != cc or ia + ic != 0:
        return 0
    if fa == PSI_P and fc == PSI_M:
        return 1
    if fa == PSI_M and fc == PSI_P:
        return 1
    if fa == GAM_P and fc == GAM_M:
        return 1
    if fa == GAM_M and fc == GAM_P:
        return -1
    if fa == PHI and fc == PHI:
        return 1
    if fa == CHI and fc == CHI:
        return 1
    return 0


def apply_mode(space: Space, mode: Mode, vec: FockVector) -> FockVector:
    if not space.mode_ok(mode):
        raise ValueError(f"mode {fmt_mode(mode)} not admissible on {space}")
    out: dict[tuple[Mode, ...], Fraction] = {}

    def add(mono, coeff):
        new = out.get(mono, 0) + coeff
        if new:
            out[mono] = new
        else:
            out.pop(mono, None)

    if space.is_creation(mode):
        for mono, coeff in vec.terms.items():
            ins = _insert_creation(space, mode, mono)
            if ins is None:
                continue
            sign, new = ins
            add(new, sign * coeff)
        return FockVector(space, out)
    fermi = FERMIONIC[mode[0]]
    for mono, coeff in vec.terms.items():
        sign = 1
        for i, m in enumerate(mono):
            k = _contraction(mode, m)
            if k:
                add(mono[:i] + mono[i + 1 :], coeff * sign * k)
            if fermi and FERMIONIC[m[0]]:
                sign = -sign
        # the annihilator then hits the vacuum: contributes nothing
    return FockVector(space, out)


@dataclass
class RealizedOp:
    """Finite list of (coefficient, ordered mode products) plus a scalar part."""

    space: Space
    terms: list[tuple[Fraction, tuple[Mode, ...]]]
    scalar: Fraction = Fraction(0)

    def apply(self, vec: FockVector) -> FockVector:
        if vec.space != self.space:
            raise ValueError("operator and vector live on different spaces")
        out = vec * self.scalar
        for coeff, modes in self.terms:
            cur = vec
            for mode in reversed(modes):
                cur = apply_mode(self.space, mode, cur)
                if not cur:
                    break
            out = out + cur * coeff
        return out

    def __add__(self, other: "RealizedOp") -> "RealizedOp":
        assert self.space == other.space
        return RealizedOp(self.space, self.terms + other.terms, self.scalar + other.scalar)

    def __mul__(self, scalar) -> "RealizedOp":
        scalar = Fraction(scalar)
        return RealizedOp(
            self.space, [(c * scalar, ms) for c, ms in self.terms], self.scalar * scalar
        )

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + other * -1


def _normal_pair(space: Space, a: Mode, b: Mode) -> tuple[int, tuple[Mode, Mode]]:
    """:ab: as a signed ordered product (annihilators act first)."""
    if not space.is_creation(b):
        return 1, (a, b)
    sign = -1 if (FERMIONIC[a[0]] and FERMIONIC[b[0]]) else 1
    return sign, (b, a)


def _op(space: Space, entries: list[tuple[Fraction, Mode, Mode]]) -> RealizedOp:
    terms = []
    for coeff, a, b in entries:
        sign, modes = _normal_pair(space, a, b)
        terms.append((Fraction(coeff) * sign, modes))
    return RealizedOp(space, terms)


def realize_e(space: Space, p2: int, q2: int) -> RealizedOp:
    """The matrix unit e(p,q) acting through the free-field bilinears."""
    if space.kind == "Dodd":
        raise ValueError("use realize_te_dhalf on the d+1/2 space")
    if space.kind == "A" and (p2 == 0 or q2 == 0):
        raise ValueError("index 0 is outside the reduced space")
    entries: list[tuple[Fraction, Mode, Mode]] = []
    one = Fraction(1)
    if parity(p2) == 0 and parity(q2) == 0:
        for p in range(1, space.d + 1):
            entries.append((one, (PSI_P, p, -p2), (PSI_M, p, q2)))
    elif parity(p2) == 1 and parity(q2) == 1:
        for p in range(1, space.d + 1):
            entries.append((-one, (GAM_P, p, -p2), (GAM_M, p, q2)))
    elif parity(p2) == 0 and parity(q2) == 1:
        for p in range(1, space.d + 1):
            entries.append((one, (PSI_P, p, -p2), (GAM_M, p, q2)))
    else:
        for p in range(1, space.d + 1):
            entries.append((-one, (GAM_P, p, -p2), (PSI_M, p, q2)))
    return _op(space, entries)


def realize_matrix(space: Space, a: SuperMatrix) -> RealizedOp:
    out = RealizedOp(space, [])
    for (p2, q2), coeff in a.entries.items():
        out = out + realize_e(space, p2, q2) * coeff
    return out


def realize_te(space: Space, family: str, p2: int, q2: int) -> RealizedOp:
    """te(p,q) of the C- or D-type subalgebra, realized on the reduced space."""
    from .infmat import te_generator

    return realize_matrix(space, te_generator(family, p2, q2))


def realize_te_dhalf(space: Space, p2: int, q2: int) -> RealizedOp:
    """te(p,q) of the D-type subalgebra at central charge d + 1/2."""
    if space.kind != "Dodd":
        raise ValueError("the d+1/2 realization lives on the Dodd space")
    one = Fraction(1)
    d = space.d

    def f_ij(i2, j2):
        entries = []
        for p in range(1, d + 1):
            entries.append((one, (PSI_P, p, -i2), (PSI_M, p, j2)))
            entries.append((-one, (PSI_P, p, j2), (PSI_M, p, -i2)))
        entries.append((one, (PHI, 0, -i2), (PHI, 0, j2)))
        return entries

    def f_rs_pp(r2, s2):  # rs > 0, representative r, s > 0
        entries = []
        for p in range(1, d + 1):
            entries.append((-one, (GAM_P, p, -r2), (GAM_M, p, s2)))
            entries.append((one, (GAM_P, p, s2), (GAM_M, p, -r2)))
        entries.append((one, (CHI, 0, -r2), (CHI, 0, s2)))
        return entries

    def f_rs_mixed(r2, s2, chi_sign):
        entries = []
        for p in range(1, d + 1):
            entries.append((-one, (GAM_P, p, -r2), (GAM_M, p, s2)))
            entries.append((-one, (GAM_P, p, s2), (GAM_M, p, -r2)))
        entries.append((chi_sign * one, (CHI, 0, -r2), (CHI, 0, s2)))
        return entries

    def f_is(i2, s2, plus: bool):
        # The phi-chi correction carries the opposite sign to the printed
        # list: the two choices are conjugate under phi -> -phi, and only
        # this gauge makes the displayed Grassmann-minor vectors singular.
        entries = []
        sgn = one if plus else -one
        for p in range(1, d + 1):
            entries.append((one, (PSI_P, p, -i2), (GAM_M, p, s2)))
            entries.append((-sgn, (GAM_P, p, s2), (PSI_M, p, -i2)))
        entries.append((-sgn, (PHI, 0, -i2), (CHI, 0, s2)))
        return entries

    pint, qint = parity(p2) == 0, parity(q2) == 0
    if pint and qint:
        return _op(space, f_ij(p2, q2))
    if not pint and not qint:
        if p2 * q2 > 0:
            if p2 > 0:
                return _op(space, f_rs_pp(p2, q2))
            return _op(space, f_rs_pp(-q2, -p2)) * -1
        if p2 < 0 < q2:
            return _op(space, f_rs_mixed(p2, q2, +1))
        return _op(space, f_rs_mixed(p2, q2, -1))
    if pint:
        return _op(space, f_is(p2, q2, q2 > 0))
    # (half, int): resolve through the aliases te(i,s) = +/- te(-s,-i)
    if p2 < 0:
        return _op(space, f_is(-q2, -p2, True))
    return _op(space, f_is(-q2, -p2, False)) * -1


def realize_diagonal(space: Space, algebra: str, s2: int) -> RealizedOp:
    """Diagonal Cartan element: e(s,s) for gl/A, te(s,s) for C/D/Dodd."""
    if algebra in ("gl", "A"):
        return realize_e(space, s2, s2)
    if algebra == "C":
        return realize_te(space, "C", s2, s2)
    if algebra == "Deven":
        return realize_te(space, "D", s2, s2)
    if algebra == "Dodd":
        return realize_te_dhalf(space, s2, s2)
    raise ValueError(algebra)


# -- group generators ---------------------------------------------------------

def realize_E(space: Space, i: int, j: int, cutoff2: int) -> RealizedOp:
    """gl_d generator E_ij, truncated to annihilator energies <= cutoff2."""
    one = Fraction(1)
    entries = []
    include_zero = space.kind == "gl"
    nmax2 = cutoff2 - (cutoff2 % 2)
    for n2 in range(-nmax2, nmax2 + 1, 2):
        if n2 == 0 and not include_zero:
            continue
        entries.append((one, (PSI_P, i, -n2), (PSI_M, j, n2)))
    rmax2 = cutoff2 if cutoff2 % 2 else cutoff2 - 1
    for r2 in range(-rmax2, rmax2 + 1, 2):
        entries.append((-one, (GAM_P, i, -r2), (GAM_M, j, r2)))
    return _op(space, entries)


# Bilinear group generators: sum over n > 0 of s_lo :a_{-n} b_n: + s_hi :a_n b_{-n}:,
# once for a fermionic field pair (n integral) and once for a bosonic one (n
# half-integral).  Rows are ((a, b, s_lo, s_hi) fermionic, (a, b, s_lo, s_hi) bosonic).
# "so+vec", the extra so(2d+1) raising generator on the d+1/2 space, pairs the
# colourless phi/chi with colour i; it is written in the same phi -> -phi gauge
# as the te realization, so its chi-gamma terms carry the opposite sign to the
# printed form.
PAIR_GENERATORS = {
    "sp+": ((PSI_P, PSI_P, 1, -1), (GAM_P, GAM_P, 1, 1)),
    "sp-": ((PSI_M, PSI_M, 1, -1), (GAM_M, GAM_M, -1, -1)),
    "so+": ((PSI_P, PSI_P, 1, 1), (GAM_P, GAM_P, 1, -1)),
    "so-": ((PSI_M, PSI_M, 1, 1), (GAM_M, GAM_M, -1, 1)),
    "so+vec": ((PHI, PSI_P, 1, 1), (CHI, GAM_P, 1, -1)),
}


def _pair_generator(space: Space, descriptor: str, colors: tuple[int, ...], cutoff2: int) -> RealizedOp:
    """sp+/sp-/so+/so- take colours (i, j); so+vec takes (i,)."""
    ca, cb = (0, *colors) if descriptor == "so+vec" else colors
    entries = []
    for (fa, fb, s_lo, s_hi), start in zip(PAIR_GENERATORS[descriptor], (2, 1)):
        for n2 in range(start, cutoff2 + 1, 2):
            entries.append((s_lo, (fa, ca, -n2), (fb, cb, n2)))
            entries.append((s_hi, (fa, ca, n2), (fb, cb, -n2)))
    return _op(space, entries)


def op_adjoint(op: RealizedOp, naive: bool = False) -> RealizedOp:
    """Formal adjoint under the conjugation rule: reverse products, conjugate modes."""
    terms = []
    for coeff, modes in op.terms:
        sign = 1
        conj = []
        for mode in modes:
            s, w = omega_mode(mode, naive)
            sign *= s
            conj.append(w)
        terms.append((coeff * sign, tuple(reversed(conj))))
    return RealizedOp(op.space, terms, op.scalar)


def realize_generator(space: Space, descriptor: str, *args, cutoff2: int = 8) -> RealizedOp:
    """Named generators: "e", "te-C", "te-D", "te-dhalf", "E", "sp+-", "so+-", "so+-vec", "C".

    "so-vec" is the adjoint of "so+vec", in the same gauge.
    """
    if descriptor in PAIR_GENERATORS:
        return _pair_generator(space, descriptor, args, cutoff2)
    table = {
        "e": lambda: realize_e(space, *args),
        "te-C": lambda: realize_te(space, "C", *args),
        "te-D": lambda: realize_te(space, "D", *args),
        "te-dhalf": lambda: realize_te_dhalf(space, *args),
        "E": lambda: realize_E(space, *args, cutoff2=cutoff2),
        "so-vec": lambda: op_adjoint(_pair_generator(space, "so+vec", args, cutoff2)),
        "C": lambda: RealizedOp(space, [], scalar=space.level),
    }
    if descriptor not in table:
        raise ValueError(f"unknown descriptor {descriptor!r}")
    return table[descriptor]()


# -- basis enumeration ---------------------------------------------------------

def enumerate_basis(space: Space, cutoff2: int) -> list[tuple[Mode, ...]]:
    """All canonical creation monomials with energy <= cutoff2, ordered."""
    modes = space.creation_modes(cutoff2)
    out: list[tuple[Mode, ...]] = []

    def rec(start: int, current: list[Mode], left2: int):
        out.append(tuple(current))
        for k in range(start, len(modes)):
            m = modes[k]
            e2 = mode_energy2(m)
            if e2 > left2:
                continue
            if FERMIONIC[m[0]] and current and current[-1] == m:
                continue
            current.append(m)
            rec(k, current, left2 - e2)
            current.pop()

    rec(0, [], cutoff2)
    return sorted(out, key=lambda m: (mono_energy2(m), m))


# -- Grassmann determinants and highest weight vectors --------------------------

def creation_product(space: Space, modes: list[Mode]) -> FockVector:
    vec = FockVector.vacuum(space)
    for mode in reversed(modes):
        vec = apply_mode(space, mode, vec)
        if not vec:
            break
    return vec


def grassmann_det(space: Space, matrix: list[list[Mode]], r: int) -> FockVector:
    """First r x r minor, rows multiplied in row order with permutation signs."""
    if r > len(matrix) or (matrix and r > len(matrix[0])):
        raise ValueError(f"minor size {r} out of range")
    total = FockVector.zero(space)
    for perm in itertools.permutations(range(r)):
        sign = _perm_sign(perm)
        modes = [matrix[i][perm[i]] for i in range(r)]
        total = total + creation_product(space, modes) * sign
    return total


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def x_matrix(space: Space, j: int, sign: int = +1) -> list[list[Mode]]:
    """The d x d matrix X^j (sign +1) or X^{-j} (sign -1), j >= 1."""
    d = space.d
    j = min(j, d)
    rows = []
    for i in range(1, d + 1):
        row = []
        for c in range(1, d + 1):
            color = c if sign > 0 else d - c + 1
            if i <= j:
                field = GAM_P if sign > 0 else GAM_M
                row.append((field, color, -(2 * i - 1)))
            else:
                field = PSI_P if sign > 0 else PSI_M
                row.append((field, color, -2 * j))
        rows.append(row)
    return rows


def xt_matrix(space: Space, j: int) -> list[list[Mode]]:
    """X-tilde: X^j with the last column replaced by the conjugate modes."""
    rows = x_matrix(space, j)
    j = min(j, space.d)
    for i, row in enumerate(rows, start=1):
        if i <= j:
            row[-1] = (GAM_M, space.d, -(2 * i - 1))
        else:
            row[-1] = (PSI_M, space.d, -2 * j)
    return rows


def gamma_matrix(space: Space) -> list[list[Mode]]:
    """One gamma row, then repeated psi_{-1} rows: 2d x 2d, or (2d+1) x (2d+1)
    with the chi/phi middle column on the Dodd space."""
    mid = int(space.kind == "Dodd")
    up, down = range(1, space.d + 1), range(space.d, 0, -1)
    top = [(GAM_P, c, -1) for c in up] + [(CHI, 0, -1)] * mid + [(GAM_M, c, -1) for c in down]
    psi = [(PSI_P, c, -2) for c in up] + [(PHI, 0, -2)] * mid + [(PSI_M, c, -2) for c in down]
    return [top] + [list(psi) for _ in range(len(psi) - 1)]


def _vec_product(v1: FockVector, v2: FockVector) -> FockVector:
    """State of the operator product: apply v1's creation monomials on top of v2."""
    out = FockVector.zero(v1.space)
    for m1, c1 in v1.terms.items():
        for m2, c2 in v2.terms.items():
            partial = FockVector(v1.space, {m2: c1 * c2})
            for mode in reversed(m1):
                partial = apply_mode(v1.space, mode, partial)
                if not partial:
                    break
            out = out + partial
    return out


def _column_counts(lam: Partition) -> list[int]:
    return [] if lam.is_zero() else list(transpose(lam).parts)


def hwv_candidate(space: Space, algebra: str, lam: GeneralizedPartition, variant: str = "X") -> FockVector:
    """Joint highest weight vector of the lam-component of the dual-pair decomposition.

    For the even orthogonal case with lambda'_1 = d, variant "X" gives the
    vector with group weight (lam_1..lam_d) and variant "Xt" the one with the
    sign-flipped last entry.
    """
    d = space.d
    if algebra == "A":
        plus, minus = split_signs(lam)
        mu = Partition(minus.star().parts)
        factors = []
        mu_cols = _column_counts(mu)
        for j in range(len(mu_cols), 0, -1):
            factors.append((x_matrix(space, j, sign=-1), mu_cols[j - 1]))
        plus_cols = _column_counts(Partition(plus.parts))
        for j in range(1, len(plus_cols) + 1):
            factors.append((x_matrix(space, j, sign=+1), plus_cols[j - 1]))
    elif algebra == "C":
        cols = _column_counts(Partition(lam.parts))
        factors = [(x_matrix(space, j), cols[j - 1]) for j in range(1, len(cols) + 1)]
    elif algebra == "Deven":
        lam = Partition(lam.parts)
        if lam.length != 2 * d:
            raise ValueError(f"even orthogonal labels have length {2*d}")
        cols = _column_counts(lam)
        c1 = cols[0] if cols else 0
        if c1 + (cols[1] if len(cols) > 1 else 0) > 2 * d:
            raise ValueError("lambda'_1 + lambda'_2 too large")
        if c1 <= d:
            if variant == "Xt":
                if c1 != d:
                    raise ValueError("the sign-flipped vector exists only when lambda'_1 = d")
                factors = [(xt_matrix(space, j), cols[j - 1]) for j in range(1, len(cols) + 1)]
            else:
                factors = [(x_matrix(space, j), cols[j - 1]) for j in range(1, len(cols) + 1)]
        else:
            factors = [(gamma_matrix(space), c1)]
            for j in range(2, len(cols) + 1):
                factors.append((x_matrix(space, j), cols[j - 1]))
    elif algebra == "Dodd":
        lam = Partition(lam.parts)
        if lam.length != 2 * d + 1:
            raise ValueError(f"odd orthogonal labels have length {2*d+1}")
        cols = _column_counts(lam)
        factors = []
        if cols:
            factors.append((gamma_matrix(space), cols[0]))
        for j in range(2, len(cols) + 1):
            factors.append((x_matrix(space, j), cols[j - 1]))
    else:
        raise ValueError(f"unknown algebra {algebra!r}")
    vec = FockVector.vacuum(space)
    for mat, size in factors:
        det = grassmann_det(space, mat, size)
        vec = _vec_product(vec, det)
        if not vec:
            break
    return vec


# -- singularity and weights ----------------------------------------------------

def raising_elements(space: Space, algebra: str, max_idx2: int, max_deg2: int):
    """All positive-degree generators that can act non-trivially below max_idx2."""
    if algebra in ("A", "gl"):
        index_set = [i for i in range(-max_idx2, max_idx2 + 1) if i != 0 or space.kind == "gl"]
        make = lambda p2, q2: realize_e(space, p2, q2)
    elif algebra in ("C", "Deven"):
        fam = "C" if algebra == "C" else "D"
        index_set = [i for i in range(-max_idx2, max_idx2 + 1) if i != 0]
        make = lambda p2, q2, f=fam: realize_te(space, f, p2, q2)
    elif algebra == "Dodd":
        index_set = [i for i in range(-max_idx2, max_idx2 + 1) if i != 0]
        make = lambda p2, q2: realize_te_dhalf(space, p2, q2)
    else:
        raise ValueError(algebra)
    for p2 in index_set:
        for q2 in index_set:
            if 0 < q2 - p2 <= max_deg2:
                yield (p2, q2), make(p2, q2)


def singularity_check(space: Space, algebra: str, vec: FockVector, max_deg2: int | None = None):
    """True when every raising generator kills vec; otherwise a witness index pair."""
    if not vec:
        return False, "zero vector"
    top2 = max(vec.energies2())
    max_deg2 = top2 if max_deg2 is None else max_deg2
    for (p2, q2), op in raising_elements(space, algebra, top2, max_deg2):
        if op.apply(vec):
            return False, (p2, q2)
    return True, None


def group_raising_check(space: Space, group_kind: str, vec: FockVector):
    """Annihilation by the group Borel raising operators (gl part + sp/so part)."""
    top2 = max(vec.energies2(), default=0)
    d = space.d
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            if realize_E(space, i, j, top2).apply(vec):
                return False, ("E", i, j)
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            if group_kind == "Sp":
                op = _pair_generator(space, "sp+", (i, j), top2)
            elif group_kind in ("SOeven", "SOodd"):
                if i == j:
                    continue
                op = _pair_generator(space, "so+", (i, j), top2)
            else:
                raise ValueError(group_kind)
            if op.apply(vec):
                return False, (group_kind, i, j)
    if group_kind == "SOodd":
        for i in range(1, d + 1):
            if _pair_generator(space, "so+vec", (i,), top2).apply(vec):
                return False, ("so+vec", i)
    return True, None


def diagonal_weight(space: Space, algebra: str, vec: FockVector):
    """(ghat diagonal weight dict, group weight tuple) of a joint eigen-vector."""
    top2 = max(vec.energies2())
    coeffs: dict[int, int] = {}
    mono0, c0 = next(iter(vec.terms.items()))
    for s2 in range(1, top2 + 1):
        if algebra in ("A", "gl"):
            for s in (s2, -s2):
                out = realize_e(space, s, s).apply(vec)
                if out:
                    ratio = out.terms.get(mono0, Fraction(0)) / c0
                    if out != vec * ratio:
                        raise ValueError(f"not an e({fmt_half(s)},{fmt_half(s)}) eigenvector")
                    if ratio:
                        coeffs[s] = int(ratio)
        else:
            op = realize_diagonal(space, algebra, s2)
            out = op.apply(vec)
            if out:
                ratio = out.terms.get(mono0, Fraction(0)) / c0
                if out != vec * ratio:
                    raise ValueError(f"not a te({fmt_half(s2)},{fmt_half(s2)}) eigenvector")
                if ratio:
                    coeffs[s2] = int(ratio)
    if algebra == "gl" and space.kind == "gl":
        out = realize_e(space, 0, 0).apply(vec)
        if out:
            ratio = out.terms.get(mono0, Fraction(0)) / c0
            if ratio:
                coeffs[0] = int(ratio)
    group = []
    for i in range(1, space.d + 1):
        out = realize_E(space, i, i, top2).apply(vec)
        ratio = out.terms.get(mono0, Fraction(0)) / c0 if out else Fraction(0)
        if out != vec * ratio:
            raise ValueError(f"not an E_{i}{i} eigenvector")
        group.append(int(ratio))
    return coeffs, tuple(group)


# -- conjugation and Gram matrices ----------------------------------------------

CONJUGATIONS = ("signed", "naive", "paper")  # "paper" is an alias of "signed"


def omega_mode(mode: Mode, naive: bool = False) -> tuple[int, Mode]:
    field, color, idx2 = mode
    if field == PSI_P:
        return 1, (PSI_M, color, -idx2)
    if field == PSI_M:
        return 1, (PSI_P, color, -idx2)
    if field == GAM_P:
        sign = 1 if (idx2 > 0 or naive) else -1
        return sign, (GAM_M, color, -idx2)
    if field == GAM_M:
        sign = -1 if (idx2 > 0 and not naive) else 1
        return sign, (GAM_P, color, -idx2)
    if field == PHI:
        return 1, (PHI, color, -idx2)
    return 1, (CHI, color, -idx2)


def inner_product(space: Space, bra: tuple[Mode, ...], ket: FockVector, conjugation: str = "signed") -> Fraction:
    if conjugation not in CONJUGATIONS:
        raise ValueError(f"unknown conjugation {conjugation!r}")
    naive = conjugation == "naive"
    cur = ket
    total_sign = 1
    for mode in bra:
        sign, conj = omega_mode(mode, naive)
        total_sign *= sign
        cur = apply_mode(space, conj, cur)
        if not cur:
            return Fraction(0)
    return cur.vacuum_coeff() * total_sign


def gram_matrix(space: Space, energy2: int, conjugation: str = "signed"):
    """(basis, matrix) of inner products at exact energy level energy2.

    "signed" is the unitarizable gamma-conjugation (sign flips on the
    negative modes); "naive" drops the signs and loses positivity.
    """
    basis = [m for m in enumerate_basis(space, energy2) if mono_energy2(m) == energy2]
    mat = []
    for bra in basis:
        row = []
        for ket in basis:
            row.append(inner_product(space, bra, FockVector(space, {ket: Fraction(1)}), conjugation))
        mat.append(row)
    return basis, mat


def leading_principal_minors(mat: list[list[Fraction]]) -> list[Fraction]:
    """Exact leading principal minors by fraction-free Gaussian elimination."""
    n = len(mat)
    work = [[Fraction(v) for v in row] for row in mat]
    minors = []
    det = Fraction(1)
    for k in range(n):
        # pivoting inside the leading block would change the minors, so from
        # the first zero pivot on each minor is the determinant of its original block
        pivot = work[k][k]
        if pivot == 0:
            for j in range(k, n):
                minors.append(_dense_det([[Fraction(v) for v in row[: j + 1]] for row in mat[: j + 1]]))
            break
        det = det * pivot
        minors.append(det)
        for i in range(k + 1, n):
            factor = work[i][k] / pivot
            if factor:
                for j in range(k, n):
                    work[i][j] -= factor * work[k][j]
    return minors


def _dense_det(mat) -> Fraction:
    n = len(mat)
    work = [row[:] for row in mat]
    det = Fraction(1)
    for k in range(n):
        pivot_row = None
        for i in range(k, n):
            if work[i][k]:
                pivot_row = i
                break
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            work[k], work[pivot_row] = work[pivot_row], work[k]
            det = -det
        det *= work[k][k]
        for i in range(k + 1, n):
            factor = work[i][k] / work[k][k]
            for j in range(k, n):
                work[i][j] -= factor * work[k][j]
    return det


# -- characters and duality decomposition ----------------------------------------

def _mono_weight(space: Space, mono: tuple[Mode, ...]):
    """(z exponents, eps bit, weight monomial) of a basis state."""
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
    return tuple(z), eps, wmono


def fock_character(space: Space, cutoff2: int):
    """ch F as {(z exponents, eps): {weight monomial: count}} up to the cutoff."""
    if space.kind == "gl":
        raise ValueError("character bookkeeping is for the reduced spaces")
    out: dict[tuple[tuple[int, ...], int], dict[WeightMono, int]] = {}
    for mono in enumerate_basis(space, cutoff2):
        z, eps, wmono = _mono_weight(space, mono)
        slot = out.setdefault((z, eps), {})
        slot[wmono] = slot.get(wmono, 0) + 1
    return out


def character_product_formula(space: Space, cutoff2: int):
    """Expansion of the product formula for ch F, truncated by energy."""
    d = space.d
    odd = space.kind == "Dodd"
    # keys carry the doubled energy of their weight monomial alongside it
    acc: dict[tuple[tuple[int, ...], int, WeightMono, int], int] = {(tuple([0] * d), 0, ((), ()), 0): 1}

    def mul_series(acc, zdelta_sign, var_index, kind, energy2, fermionic, eps_marked):
        out = {}
        for (z, eps, wm, e2), c in acc.items():
            budget = cutoff2 - e2
            kmax = 1 if fermionic else (budget // energy2 if energy2 else 0)
            for k in range(0, kmax + 1):
                if k * energy2 > budget:
                    break
                nz = list(z)
                if var_index is not None:
                    nz[var_index] += zdelta_sign * k
                xs, ys = wm
                if kind == "x":
                    nxs = _bump(xs, energy2 // 2, k)
                    nwm = (nxs, ys)
                else:
                    nys = _bump(ys, energy2, k)
                    nwm = (xs, nys)
                key = (tuple(nz), eps ^ ((k & 1) if eps_marked else 0), nwm, e2 + k * energy2)
                out[key] = out.get(key, 0) + c
        return out

    for n2 in range(2, cutoff2 + 1, 2):
        for i in range(d):
            for sgn in (+1, -1):
                acc = mul_series(acc, sgn, i, "x", n2, True, odd)
        if odd:
            acc = mul_series(acc, 0, None, "x", n2, True, True)
    for r2 in range(1, cutoff2 + 1, 2):
        for i in range(d):
            for sgn in (+1, -1):
                acc = mul_series(acc, sgn, i, "y", r2, False, odd)
        if odd:
            acc = mul_series(acc, 0, None, "y", r2, False, True)
    out: dict[tuple[tuple[int, ...], int], dict[WeightMono, int]] = {}
    for (z, eps, wm, _e2), c in acc.items():
        out.setdefault((z, eps), {})[wm] = c
    return out


def _bump(part: tuple[tuple[int, int], ...], key: int, mult: int):
    if mult == 0:
        return part
    d = dict(part)
    d[key] = d.get(key, 0) + mult
    return tuple(sorted(d.items()))


def duality_decompose(space: Space, algebra: str, cutoff2: int):
    """Graded branching of ch F over the dual group, by dominant peeling.

    Returns {partition label: {weight monomial: multiplicity}}; for the even
    orthogonal case labels are canonical and totals are bar-merged.
    """
    d = space.d
    groups = {"A": ("GL", d), "C": ("Sp", d), "Deven": ("O", 2 * d), "Dodd": ("O", 2 * d + 1)}
    if algebra not in groups:
        raise ValueError(algebra)
    return decompose_graded(fock_character(space, cutoff2), GroupTag(*groups[algebra]))

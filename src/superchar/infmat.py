"""Finitely supported matrices over the half-integer index lattice.

Every index is stored doubled, so the half-integer r lives as the odd integer
2r and the integer i as the even integer 2i.  The basis element e(p,q) is odd
exactly when p and q have different doubled parities; its degree is q - p.

Implements the super-bracket, the supertrace, the central-extension cocycle
alpha(A,B) = Str([J,A]B) with J = sum_{r<=0} e(r,r), the spanning elements of
the two osp-type subalgebras, and the bilinear-form preservation test that
characterises them.
"""

from __future__ import annotations

from fractions import Fraction

from .sparse import _Sparse, _add_term, _fold_integral, _folded, _printed


def parity(p2: int) -> int:
    """1 for a half-integer (odd doubled) index, 0 for an integer one."""
    return p2 & 1


def fmt_half(p2: int) -> str:
    return str(p2 // 2) if p2 % 2 == 0 else f"{p2}/2"


def parse_half(text: str) -> int:
    """Parse "3/2" or "-2" into a doubled index."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        num, den = int(num), int(den)
        if den == 2:
            return num
        if den == 1:
            return 2 * num
        raise ValueError(f"index denominator must be 1 or 2: {text!r}")
    return 2 * int(text)


class SuperMatrix(_Sparse):
    """Sparse finitely-supported element of gl_{inf|inf}^f, exact coefficients."""

    __slots__ = ()

    def __init__(self, terms: dict[tuple[int, int], int | Fraction] | None = None):
        self.terms = _fold_integral({key: c for key, c in (terms or {}).items() if c})

    def _new(self, terms: dict) -> "SuperMatrix":
        out = object.__new__(SuperMatrix)
        out.terms = _fold_integral(terms)
        return out

    @staticmethod
    def unit(p2: int, q2: int, coeff=1) -> "SuperMatrix":
        return SuperMatrix({(p2, q2): coeff})

    def __matmul__(self, other: "SuperMatrix") -> "SuperMatrix":
        """Associative product e(p,q) e(q',s) = delta_{q,q'} e(p,s)."""
        by_row: dict[int, list[tuple[int, int | Fraction]]] = {}
        for (q2, s2), val in other.terms.items():
            by_row.setdefault(q2, []).append((s2, val))
        out: dict[tuple[int, int], int | Fraction] = {}
        for (p2, q2), a in self.terms.items():
            for s2, b in by_row.get(q2, ()):
                _add_term(out, (p2, s2), a * b)
        return self._new(out)

    def entry_parity(self) -> int | None:
        """Common Z2-parity of the support, or None if mixed."""
        parities = {(parity(p) + parity(q)) & 1 for p, q in self.terms}
        if not parities:
            return 0
        if len(parities) > 1:
            return None
        return parities.pop()

    def homogeneous_components(self) -> list["SuperMatrix"]:
        even, odd = {}, {}
        for (p2, q2), val in self.terms.items():
            ((odd if (parity(p2) + parity(q2)) & 1 else even))[(p2, q2)] = val
        return [SuperMatrix(m) for m in (even, odd) if m]

    def support_indices(self) -> set[int]:
        out = set()
        for p2, q2 in self.terms:
            out.add(p2)
            out.add(q2)
        return out

    def __str__(self) -> str:
        return _printed((f"e({fmt_half(p2)},{fmt_half(q2)})", val) for (p2, q2), val in sorted(self.terms.items()))

    def to_json(self) -> list[dict]:
        return [
            {"p": fmt_half(p2), "q": fmt_half(q2), "coeff": str(val)}
            for (p2, q2), val in sorted(self.terms.items())
        ]


def super_bracket(a: SuperMatrix, b: SuperMatrix) -> SuperMatrix:
    """[A,B] = AB - (-1)^{|A||B|} BA, extended bilinearly over parities."""
    out = SuperMatrix()
    for ah in a.homogeneous_components() or [SuperMatrix()]:
        for bh in b.homogeneous_components() or [SuperMatrix()]:
            sign = -1 if (ah.entry_parity() and bh.entry_parity()) else 1
            out = out + (ah @ bh) - sign * (bh @ ah)
    return out


def supertrace(a: SuperMatrix) -> int | Fraction:
    """Str(A) = sum (-1)^{2r} A_rr; the sign is -1 on half-integer indices."""
    total = 0
    for (p2, q2), val in a.terms.items():
        if p2 == q2:
            total += -val if parity(p2) else val
    return _folded(total)


def cocycle_alpha(a: SuperMatrix, b: SuperMatrix) -> int | Fraction:
    """alpha(A,B) = Str([J,A]B) with J = sum_{r<=0} e(r,r), computed entrywise."""
    total = 0
    for (p2, q2), av in a.terms.items():
        jfactor = (1 if p2 <= 0 else 0) - (1 if q2 <= 0 else 0)
        if not jfactor:
            continue
        bv = b.terms.get((q2, p2))
        if bv is None:
            continue
        sign = -1 if parity(p2) else 1
        total += sign * jfactor * av * bv
    return _folded(total)


def _te_sign(family: str, p2: int, q2: int) -> int:
    """Sign s in te(p,q) = e(p,q) + s e(-q,-p), the one that preserves the C or D
    form: s = -(-1)^{|e(p,q)| |q|} (e_p|e_-p)(e_q|e_-q)."""
    if p2 == 0 or q2 == 0:
        raise ValueError("indices of the osp-type subalgebras exclude 0")
    if family not in ("C", "D"):
        raise ValueError(f"unknown family {family!r}")
    sign = -1 if (parity(p2) ^ parity(q2)) & parity(q2) else 1
    return -sign * form_value(family, p2, -p2) * form_value(family, q2, -q2)


def te_generator(family: str, p2: int, q2: int) -> SuperMatrix:
    """Spanning element te(p,q) of the C- or D-type subalgebra of A."""
    s = _te_sign(family, p2, q2)
    return SuperMatrix.unit(p2, q2) + s * SuperMatrix.unit(-q2, -p2)


def form_value(family: str, a2: int, b2: int) -> int:
    """Bilinear form (e_a | e_b): skew-supersymmetric for C, supersymmetric for D."""
    if a2 + b2 != 0 or a2 == 0:
        return 0
    if parity(a2) == 0:
        # even basis vectors
        return (1 if a2 > 0 else -1) if family == "C" else 1
    return 1 if family == "C" else (1 if a2 > 0 else -1)


def preserves_form(a: SuperMatrix, family: str) -> bool:
    """(Av|w) = -(-1)^{eps |v|} (v|Aw) over the support's index hull."""
    eps = a.entry_parity()
    if eps is None:
        raise ValueError("preserves_form needs a parity-homogeneous element")
    hull = set()
    for idx in a.support_indices():
        hull.add(idx)
        hull.add(-idx)
    if 0 in hull:
        return False  # index 0 is outside the subalgebra's space
    for v2 in hull:
        for w2 in hull:
            lhs = rhs = 0
            for (p2, q2), coeff in a.terms.items():
                if q2 == v2:
                    lhs += coeff * form_value(family, p2, w2)
                if q2 == w2:
                    rhs += coeff * form_value(family, v2, p2)
            sign = -1 if (eps and parity(v2)) else 1
            if lhs != -sign * rhs:
                return False
    return True

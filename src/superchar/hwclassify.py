"""Highest-weight bookkeeping and the unitarizability classifiers.

A weight is a finitely supported assignment of integers to the diagonal
fundamental weights (indices doubled, as everywhere) plus a rational level,
tagged by the algebra it belongs to.  Finite support is quasi-finiteness; the
unitarizability predicates evaluate the classification conditions clause by
clause and report the first violated clause, in their stated order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .infmat import fmt_half, parse_half
from .partitions import (
    FrobeniusData,
    FrobeniusError,
    GeneralizedPartition,
    Partition,
    _mirror,
    _partition_from_pos,
    _validate_positive_pair,
    from_frobenius,
    o_label,
    to_frobenius,
)

ALGEBRAS = ("gl", "glone", "A", "C", "D")


def _index_ok(algebra: str, idx2: int) -> bool:
    if algebra == "gl":
        return True
    if algebra == "glone":
        return idx2 % 2 == 0
    if algebra == "A":
        return idx2 != 0
    return idx2 > 0  # C, D


@dataclass(frozen=True)
class Weight:
    algebra: str
    coeffs: tuple[tuple[int, int], ...]  # sorted (doubled index, value), values nonzero
    level: Fraction

    def __post_init__(self):
        if self.algebra not in ALGEBRAS:
            raise ValueError(f"unknown algebra {self.algebra!r}")
        clean = tuple(sorted((i, v) for i, v in dict(self.coeffs).items() if v))
        for i, _ in clean:
            if not _index_ok(self.algebra, i):
                raise ValueError(f"index {fmt_half(i)} not in the {self.algebra} index set")
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "level", Fraction(self.level))

    @staticmethod
    def make(algebra: str, coeffs: dict[int, int], level) -> "Weight":
        return Weight(algebra, tuple(coeffs.items()), level)

    def as_dict(self) -> dict[int, int]:
        return dict(self.coeffs)

    def __str__(self) -> str:
        body = ",".join(f"{fmt_half(i)}:{v}" for i, v in self.coeffs)
        return f"{self.algebra}: {body or '0'}; level={self.level}"

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra,
            "coeffs": [{"index": fmt_half(i), "value": v} for i, v in self.coeffs],
            "level": str(self.level),
        }


def parse_weight(algebra: str, text: str) -> Weight:
    """Parse "1/2:2,1:1; level=2"; an index given twice is a ValueError."""
    body = text.strip()
    level = None
    if ";" in body:
        body, tail = body.split(";", 1)
        tail = tail.strip()
        if not tail.startswith("level="):
            raise ValueError(f"expected level=... after ';' in {text!r}")
        try:
            level = Fraction(tail[len("level="):].strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in the level of {text!r}") from None
    coeffs: dict[int, int] = {}
    body = body.strip()
    if body and body != "0":
        for item in body.split(","):
            idx, val = item.split(":")
            idx2 = parse_half(idx)
            if idx2 in coeffs:
                raise ValueError(f"index {fmt_half(idx2)} repeats in the weight literal {text!r}")
            coeffs[idx2] = int(val)
    if level is None:
        raise ValueError(f"missing level in weight literal {text!r}")
    return Weight.make(algebra, coeffs, level)


# -- weights and their chains -------------------------------------------------

# Where entry k = 1, 2, ... of one side's (half-integer | integer) chains sits
# in a weight: (its doubled half-integer index, its doubled integer index, the
# sign of its value, whether the chains are displayed in reverse).  The gl
# negative side is displayed most negative index first and ends at index 0.
SIDES = {
    "+": (lambda k: 2 * k - 1, lambda k: 2 * k, 1, False),
    "A-": (lambda k: 1 - 2 * k, lambda k: -2 * k, -1, False),
    "gl-": (lambda k: 1 - 2 * k, lambda k: 2 - 2 * k, 1, True),
}


def _chains(coeffs: dict[int, int], side: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Read one side's (half | integer) chains, as long as its last nonzero entry."""
    half_at, int_at, sign, rev = SIDES[side]
    top = max((abs(i) for i in coeffs), default=0) // 2 + 1
    r = max((k for k in range(1, top + 1) if half_at(k) in coeffs or int_at(k) in coeffs), default=0)
    order = range(r, 0, -1) if rev else range(1, r + 1)
    return tuple(tuple(sign * coeffs.get(at(k), 0) for k in order) for at in (half_at, int_at))


def _coeffs(half: tuple[int, ...], intg: tuple[int, ...], side: str) -> dict[int, int]:
    """Write one side's chains as weight coefficients (the inverse of `_chains`)."""
    half_at, int_at, sign, rev = SIDES[side]
    pairs = ((half_at, half[::-1] if rev else half), (int_at, intg[::-1] if rev else intg))
    return {at(k): sign * v for at, seq in pairs for k, v in enumerate(seq, start=1)}


def weight_from_partition(algebra: str, lam: GeneralizedPartition) -> Weight:
    """The highest weight attached to a (generalized) partition label.

    gl and A take generalized partitions of length d and level d; C takes a
    partition of length d, level d; D takes a partition of length n with
    lambda'_1 + lambda'_2 <= n and level n/2.
    """
    if algebra in ("gl", "A"):
        data = to_frobenius(lam)
        neg = (data.neg_half, data.neg_int)
        if algebra == "A":
            neg = _mirror(*neg)  # A reads the chains of mu = (lambda^-)* with values negated
        coeffs = {**_coeffs(data.pos_half, data.pos_int, "+"), **_coeffs(*neg, algebra + "-")}
        return Weight.make(algebra, coeffs, lam.length)
    if algebra in ("C", "D"):
        lam = Partition(lam.parts)
        if algebra == "D":
            o_label(lam, lam.length)  # raises unless lambda'_1 + lambda'_2 <= n
        data = to_frobenius(lam)
        level = lam.length if algebra == "C" else Fraction(lam.length, 2)
        return Weight.make(algebra, _coeffs(data.pos_half, data.pos_int, "+"), level)
    raise ValueError(f"no partition dictionary for algebra {algebra!r}")


@dataclass(frozen=True)
class UnitarityReport:
    ok: bool
    violated: str | None = None
    detail: str = ""

    def __bool__(self):
        return self.ok


# the classifier clause each quartet constraint of `partitions` checks
CLAUSES = {
    "xipos": "chains-positive", "xigeq": "chains-positive",
    "xineggeq": "chains-negative", "length": "level-bound",
}


def _l12(x: int) -> int:
    return 0 if x == 0 else (1 if x == 1 else 2)


def is_quasifinite(w: Weight) -> tuple[bool, int]:
    """Always true for stored weights; the certificate is the support radius N."""
    n2 = max((abs(i) for i, _ in w.coeffs), default=0)
    return True, (n2 + 1) // 2


def is_unitarizable(w: Weight) -> UnitarityReport:
    """Evaluate the classification conditions for w's algebra, clause by clause.

    The chain conditions and the gl/C level bound are the quartet constraints of
    `partitions`, checked on the chains read off the weight, not on a label.
    """
    c = w.as_dict()
    lvl = w.level

    def bad(name, detail):
        return UnitarityReport(False, name, detail)

    if w.algebra == "glone":
        if lvl.denominator != 1 or lvl < 0:
            return bad("level-integral", f"d = {lvl} not a non-negative integer")
        chain = list(_chains(c, "+")[1])
        for a, b in zip(chain, chain[1:]):
            if a <= b:
                return bad("chains-positive", f"not strictly decreasing: {chain}")
        if chain and chain[-1] < 0:
            return bad("chains-positive", f"negative entry: {chain}")
        nchain = list(_chains(c, "gl-")[1])  # xi_s .. xi_0
        if nchain and nchain[0] > 0:
            return bad("chains-negative", f"xi_s > 0: {nchain}")
        for a, b in zip(nchain, nchain[1:]):
            if a <= b:
                return bad("chains-negative", f"not strictly decreasing: {nchain}")
        xi_1 = c.get(2, 0)
        xi_0 = c.get(0, 0)
        if xi_1 - xi_0 > lvl:
            return bad("level-bound", f"xi_1 - xi_0 = {xi_1-xi_0} > d = {lvl}")
        return UnitarityReport(True)
    half, intg = _chains(c, "+")
    try:
        _validate_positive_pair(half, intg)
    except FrobeniusError as exc:
        return bad("chains-positive", str(exc))
    if w.algebra == "D":
        if (2 * lvl).denominator != 1 or lvl < 0:
            return bad("level-integral", f"k = {lvl} not in (1/2)Z_+")
    elif lvl.denominator != 1 or lvl < 0:
        return bad("level-integral", f"d = {lvl} not a non-negative integer")
    if w.algebra in ("gl", "C"):
        # the quartet's length bound min(xi_1/2,1)+xi_1-xi_0 <= d is C's with xi_0 = 0
        neg = _chains(c, "gl-") if w.algebra == "gl" else ((), ())
        try:
            FrobeniusData(*neg, half, intg, int(lvl)).validate()
        except FrobeniusError as exc:
            return bad(CLAUSES[exc.constraint], str(exc))
        return UnitarityReport(True)
    xi_h = half[0] if half else 0
    xi_1 = intg[0] if intg else 0
    if w.algebra == "A":
        mhalf, mintg = _chains(c, "A-")
        try:
            _validate_positive_pair(mhalf, mintg)
        except FrobeniusError as exc:
            return bad("chains-negative", str(exc))
        xim_h = mhalf[0] if mhalf else 0
        xim_1 = mintg[0] if mintg else 0
        bound = min(xi_h, 1) + min(xim_h, 1) + xi_1 + xim_1
        if bound > lvl:
            return bad("level-bound", f"min(xi+_1/2,1)+min(xi-_1/2,1)+xi+_1+xi-_1 = {bound} > d = {lvl}")
        return UnitarityReport(True)
    xi_32 = c.get(3, 0)
    xi_2 = c.get(4, 0)
    bound = xi_1 + xi_2 + _l12(xi_h) + min(xi_32, 1)
    if bound > 2 * lvl:
        return bad("level-bound", f"xi_1+xi_2+l12(xi_1/2)+min(xi_3/2,1) = {bound} > 2k = {2*lvl}")
    return UnitarityReport(True)


def partition_from_weight(w: Weight) -> GeneralizedPartition:
    """Inverse of weight_from_partition on unitarizable weights."""
    rep = is_unitarizable(w)
    if not rep:
        raise ValueError(f"weight not of partition type ({rep.violated}: {rep.detail})")
    c = w.as_dict()
    half, intg = _chains(c, "+")
    d = int(2 * w.level) if w.algebra == "D" else int(w.level)
    if w.algebra == "gl":
        return from_frobenius(FrobeniusData(*_chains(c, "gl-"), half, intg, d))
    if w.algebra == "A":
        plus = _partition_from_pos(half, intg, d)
        mu = _partition_from_pos(*_chains(c, "A-"), d)
        return GeneralizedPartition(tuple(a - b for a, b in zip(plus, reversed(mu))))
    if w.algebra in ("C", "D"):
        return Partition(_partition_from_pos(half, intg, d))
    raise ValueError(f"no partition dictionary for algebra {w.algebra!r}")

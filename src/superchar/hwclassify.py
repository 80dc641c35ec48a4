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
from .symring import energy_series, q_series
from .partitions import (
    FrobeniusData,
    GeneralizedPartition,
    Partition,
    _partition_from_pos,
    bar_conjugate,
    from_frobenius,
    o_label,
    split_signs,
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

    def coeff(self, idx2: int) -> int:
        for i, v in self.coeffs:
            if i == idx2:
                return v
        return 0

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
    """Parse "1/2:2,1:1; level=2"."""
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
            coeffs[parse_half(idx)] = int(val)
    if level is None:
        raise ValueError(f"missing level in weight literal {text!r}")
    return Weight.make(algebra, coeffs, level)


# -- weights from partitions ---------------------------------------------------

def _pos_side_coeffs(data: FrobeniusData) -> dict[int, int]:
    out = {}
    for k, v in enumerate(data.pos_half, start=1):
        if v:
            out[2 * k - 1] = v
    for k, v in enumerate(data.pos_int, start=1):
        if v:
            out[2 * k] = v
    return out


def weight_from_partition(algebra: str, lam: GeneralizedPartition, level_param=None) -> Weight:
    """The highest weight attached to a (generalized) partition label.

    gl and A take generalized partitions of length d and level d; C takes a
    partition of length d, level d; D takes a partition of length n with
    lambda'_1 + lambda'_2 <= n and level n/2.
    """
    if algebra == "gl":
        data = to_frobenius(lam)
        coeffs = _pos_side_coeffs(data)
        nh = len(data.neg_half)
        for t in range(1, nh + 1):  # position nh - t holds the index -(2t-1)/2
            v = data.neg_half[nh - t]
            if v:
                coeffs[-(2 * t - 1)] = v
        ni = len(data.neg_int)
        for t in range(1, ni + 1):  # neg_int ends at index 0
            v = data.neg_int[ni - t]
            if v:
                coeffs[-2 * (t - 1)] = v
        return Weight.make("gl", coeffs, lam.length)
    if algebra == "A":
        plus, minus = split_signs(lam)
        dplus = to_frobenius(Partition(plus.parts))
        dminus = to_frobenius(Partition(minus.star().parts))
        coeffs = _pos_side_coeffs(dplus)
        for k, v in enumerate(dminus.pos_half, start=1):
            if v:
                coeffs[-(2 * k - 1)] = -v
        for k, v in enumerate(dminus.pos_int, start=1):
            if v:
                coeffs[-2 * k] = -v
        return Weight.make("A", coeffs, lam.length)
    if algebra == "C":
        if not isinstance(lam, Partition):
            lam = Partition(lam.parts)
        data = to_frobenius(lam)
        return Weight.make("C", _pos_side_coeffs(data), lam.length)
    if algebra == "D":
        if not isinstance(lam, Partition):
            lam = Partition(lam.parts)
        n = lam.length
        o_label(lam, n)  # raises unless lambda'_1 + lambda'_2 <= n
        data = to_frobenius(lam)
        return Weight.make("D", _pos_side_coeffs(data), Fraction(n, 2))
    raise ValueError(f"no partition dictionary for algebra {algebra!r}")


@dataclass(frozen=True)
class UnitarityReport:
    ok: bool
    violated: str | None = None
    detail: str = ""

    def __bool__(self):
        return self.ok


def _extract_chain(coeffs: dict[int, int], negate: bool = False) -> tuple[tuple, tuple]:
    """Read the (xi_{1/2}, ..., xi_{r-1/2} | xi_1, ..., xi_r) chains from one side.

    With negate=True reads the negative indices and flips signs (the A case).
    Returns (half, intg).
    """
    sign = -1 if negate else 1
    half_support = [i for i in coeffs if (sign * i) > 0 and i % 2]
    int_support = [i for i in coeffs if (sign * i) > 0 and i % 2 == 0]
    r_half = max((abs(i) + 1) // 2 for i in half_support) if half_support else 0
    r_int = max(abs(i) // 2 for i in int_support) if int_support else 0
    r = max(r_half, r_int)
    half = tuple(sign * coeffs.get(sign * (2 * k - 1), 0) for k in range(1, r + 1))
    intg = tuple(sign * coeffs.get(sign * 2 * k, 0) for k in range(1, r + 1))
    return half, intg


def _gl_negative_chain(coeffs: dict[int, int]) -> tuple[tuple, tuple]:
    """The gl negative side (xi_{-s+1/2}, ..., xi_{-1/2} | xi_{-s+1}, ..., xi_0).

    s is the longer of the two chains; index 0 belongs to the integer chain.
    """
    s1 = max(((abs(i) + 1) // 2 for i in coeffs if i < 0 and i % 2), default=0)
    s2 = max((abs(i) // 2 + 1 for i in coeffs if i <= 0 and i % 2 == 0), default=0)
    s = max(s1, s2)
    neg_half = tuple(coeffs.get(-(2 * t - 1), 0) for t in range(s, 0, -1))
    neg_int = tuple(coeffs.get(-2 * (t - 1), 0) for t in range(s, 0, -1))
    return neg_half, neg_int


def _partition_chain_ok(half: tuple, intg: tuple) -> str | None:
    """Condition (i): strict chains, non-negativity, and the degenerate-zero rule."""
    for seq, name in ((half, "half-integer"), (intg, "integer")):
        for a, b in zip(seq, seq[1:]):
            if a <= b:
                return f"{name} chain not strictly decreasing: {seq}"
        if seq and seq[-1] < 0:
            return f"{name} chain goes negative: {seq}"
    if half and half[-1] == 0:
        return f"xi_(r-1/2) = 0 with r = {len(half)} (only the zero weight may do this)"
    if len(half) != len(intg):
        # cannot happen by construction of _extract_chain; kept for safety
        return "chain lengths differ"
    return None


def _l12(x: int) -> int:
    return 0 if x == 0 else (1 if x == 1 else 2)


def is_quasifinite(w: Weight) -> tuple[bool, int]:
    """Always true for stored weights; the certificate is the support radius N."""
    n2 = max((abs(i) for i, _ in w.coeffs), default=0)
    return True, (n2 + 1) // 2


def is_unitarizable(w: Weight) -> UnitarityReport:
    """Evaluate the classification conditions for w's algebra, clause by clause."""
    c = w.as_dict()
    lvl = w.level

    def bad(name, detail):
        return UnitarityReport(False, name, detail)

    if w.algebra in ("gl", "A", "C", "D"):
        half, intg = _extract_chain(c)
        problem = _partition_chain_ok(half, intg)
        if problem:
            return bad("chains-positive", problem)
        xi_h = half[0] if half else 0
        xi_1 = intg[0] if intg else 0
    if w.algebra == "gl":
        if lvl.denominator != 1 or lvl < 0:
            return bad("level-integral", f"d = {lvl} not a non-negative integer")
        # mirror the negative side through mu = (lambda^-)* and validate there
        neg_half, neg_int = _gl_negative_chain(c)
        mu_half = tuple(1 - v for v in reversed(neg_half))
        mu_int = tuple(-1 - v for v in reversed(neg_int))
        problem = _partition_chain_ok(mu_half, mu_int)
        if problem:
            return bad("chains-negative", f"(mirrored) {problem}")
        xi_0 = neg_int[-1] if neg_int else 0
        if min(xi_h, 1) + xi_1 - xi_0 > lvl:
            return bad("level-bound", f"min(xi_1/2,1)+xi_1-xi_0 = {min(xi_h,1)+xi_1-xi_0} > d = {lvl}")
        return UnitarityReport(True)
    if w.algebra == "glone":
        if lvl.denominator != 1 or lvl < 0:
            return bad("level-integral", f"d = {lvl} not a non-negative integer")
        pos = sorted([i for i in c if i > 0])
        r = max((i // 2 for i in pos), default=0)
        chain = [c.get(2 * k, 0) for k in range(1, r + 1)]
        for a, b in zip(chain, chain[1:]):
            if a <= b:
                return bad("chains-positive", f"not strictly decreasing: {chain}")
        if chain and chain[-1] < 0:
            return bad("chains-positive", f"negative entry: {chain}")
        negs = sorted([i for i in c if i <= 0])
        s = min((i // 2 for i in negs), default=0)
        nchain = [c.get(2 * k, 0) for k in range(s, 1)]  # xi_s .. xi_0
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
    if w.algebra == "A":
        if lvl.denominator != 1 or lvl < 0:
            return bad("level-integral", f"d = {lvl} not a non-negative integer")
        mhalf, mintg = _extract_chain(c, negate=True)
        problem = _partition_chain_ok(mhalf, mintg)
        if problem:
            return bad("chains-negative", problem)
        xim_h = mhalf[0] if mhalf else 0
        xim_1 = mintg[0] if mintg else 0
        bound = min(xi_h, 1) + min(xim_h, 1) + xi_1 + xim_1
        if bound > lvl:
            return bad("level-bound", f"min(xi+_1/2,1)+min(xi-_1/2,1)+xi+_1+xi-_1 = {bound} > d = {lvl}")
        return UnitarityReport(True)
    if w.algebra == "C":
        if lvl.denominator != 1 or lvl < 0:
            return bad("level-integral", f"d = {lvl} not a non-negative integer")
        if min(xi_h, 1) + xi_1 > lvl:
            return bad("level-bound", f"min(xi_1/2,1)+xi_1 = {min(xi_h,1)+xi_1} > d = {lvl}")
        return UnitarityReport(True)
    if w.algebra == "D":
        if (2 * lvl).denominator != 1 or lvl < 0:
            return bad("level-integral", f"k = {lvl} not in (1/2)Z_+")
        xi_32 = c.get(3, 0)
        xi_2 = c.get(4, 0)
        bound = xi_1 + xi_2 + _l12(xi_h) + min(xi_32, 1)
        if bound > 2 * lvl:
            return bad("level-bound", f"xi_1+xi_2+l12(xi_1/2)+min(xi_3/2,1) = {bound} > 2k = {2*lvl}")
        return UnitarityReport(True)
    raise ValueError(f"no classifier for algebra {w.algebra!r}")


def partition_from_weight(w: Weight) -> GeneralizedPartition:
    """Inverse of weight_from_partition on unitarizable weights."""
    rep = is_unitarizable(w)
    if not rep:
        raise ValueError(f"weight not of partition type ({rep.violated}: {rep.detail})")
    c = w.as_dict()
    half, intg = _extract_chain(c)
    if w.algebra == "gl":
        d = int(w.level)
        neg_half, neg_int = _gl_negative_chain(c)
        return from_frobenius(FrobeniusData(neg_half, neg_int, half, intg, d))
    if w.algebra == "A":
        d = int(w.level)
        plus = _partition_from_pos(half, intg, d)
        mhalf, mintg = _extract_chain(c, negate=True)
        mu = _partition_from_pos(mhalf, mintg, d)
        parts = tuple(a - b for a, b in zip(plus, reversed(mu)))
        return GeneralizedPartition(parts)
    if w.algebra == "C":
        d = int(w.level)
        return Partition(_partition_from_pos(half, intg, d))
    if w.algebra == "D":
        n = int(2 * w.level)
        return Partition(_partition_from_pos(half, intg, n))
    raise ValueError(f"no partition dictionary for algebra {w.algebra!r}")


def graded_dimension(w: Weight, cutoff2: int, source: str = "character") -> dict[int, int]:
    """Graded dimensions of L(w) up to doubled energy cutoff2, normalised to
    start at the highest weight (exponent 0).

    Exact for C and odd-level D; for integral-level D the result is the
    bar-merged pair total (the refined split is not determined by the paired
    character formula).
    """
    lam = partition_from_weight(w)
    if source == "character":
        from .superschur import sp_hook, so_hook

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
        from . import fock

        key = Partition(lam.parts)
        if w.algebra == "C":
            d = int(w.level)
            dec = fock.duality_decompose(fock.Space("A", d), "C", cutoff2)
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

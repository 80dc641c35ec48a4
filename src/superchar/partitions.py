"""Generalized partitions and their shifted Frobenius coordinates.

Partitions carry an explicit declared length: trailing zeros are significant,
so (2,0,0) != (2,0).  A generalized partition may have negative parts; it
splits uniquely into a non-negative part and a non-positive part, and the
Frobenius coordinates of the two halves are packaged as a quartet of strictly
decreasing integer sequences.  The quartet is the data that labels highest
weights downstream, so the bijection here is load-bearing: `to_frobenius` and
`from_frobenius` must be mutually inverse on their whole domain.
"""

from __future__ import annotations

from dataclasses import dataclass


class FrobeniusError(ValueError):
    """Quartet constraint violation; `constraint` names the failed condition."""

    def __init__(self, constraint: str, message: str):
        super().__init__(f"{constraint}: {message}")
        self.constraint = constraint


@dataclass(frozen=True)
class GeneralizedPartition:
    """Non-increasing finite integer sequence; len(parts) is the declared length."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        self._validate()

    def _validate(self):
        for a, b in zip(self.parts, self.parts[1:]):
            if a < b:
                raise ValueError(f"parts not non-increasing: {self.parts}")

    # Equality ignores the Partition/GeneralizedPartition distinction: a
    # partition and a generalized partition with the same parts are the same
    # combinatorial object.
    def __eq__(self, other):
        if isinstance(other, GeneralizedPartition):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.parts) + "]"

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def is_zero(self) -> bool:
        return all(p == 0 for p in self.parts)

    def star(self) -> "GeneralizedPartition":
        """lambda* = (-lambda_d, ..., -lambda_1)."""
        return GeneralizedPartition(tuple(-p for p in reversed(self.parts)))

    def to_json(self) -> dict:
        return {"parts": list(self.parts), "length": self.length}


class Partition(GeneralizedPartition):
    """Generalized partition with all parts non-negative."""

    def _validate(self):
        super()._validate()
        if self.parts and self.parts[-1] < 0:
            raise ValueError(f"negative part in partition: {self.parts}")

    @property
    def depth(self) -> int:
        """Number of positive parts (= first column length)."""
        return sum(1 for p in self.parts if p > 0)


@dataclass(frozen=True)
class FrobeniusData:
    """Shifted Frobenius quartet (neg_half | neg_int | pos_half | pos_int).

    Positional storage: pos_half[k-1] is the coordinate at half-integer index
    k - 1/2 and pos_int[k-1] the one at integer index k; the negative
    sequences are stored in display order, i.e. neg_half[0] is the coordinate
    at the most negative half-integer index and neg_half[-1] the one at -1/2
    (similarly neg_int ends at index 0).
    """

    neg_half: tuple[int, ...]
    neg_int: tuple[int, ...]
    pos_half: tuple[int, ...]
    pos_int: tuple[int, ...]
    length_bound: int

    def __post_init__(self):
        for name in ("neg_half", "neg_int", "pos_half", "pos_int"):
            object.__setattr__(self, name, tuple(int(v) for v in getattr(self, name)))

    def is_zero(self) -> bool:
        return not (self.neg_half or self.neg_int or self.pos_half or self.pos_int)

    def validate(self):
        """Raise FrobeniusError naming the first violated quartet constraint."""
        _validate_positive_pair(self.pos_half, self.pos_int)
        _validate_negative_pair(self.neg_half, self.neg_int)
        d = self.length_bound
        if d < 0 or (not self.is_zero() and d == 0):
            raise FrobeniusError("length", f"length bound {d} too small")
        xi_half = self.pos_half[0] if self.pos_half else 0
        xi_one = self.pos_int[0] if self.pos_int else 0
        xi_zero = self.neg_int[-1] if self.neg_int else 0
        if min(xi_half, 1) + xi_one - xi_zero > d:
            raise FrobeniusError(
                "length",
                f"min(xi_1/2,1)+xi_1-xi_0 = {min(xi_half,1)+xi_one-xi_zero} > d = {d}",
            )

    def __str__(self) -> str:
        if self.is_zero():
            return "(0,0)"
        fmt = lambda seq: ",".join(str(v) for v in seq)
        if not self.neg_half:
            return f"({fmt(self.pos_half)}|{fmt(self.pos_int)})"
        return (
            f"({fmt(self.neg_half)}|{fmt(self.neg_int)}"
            f"|{fmt(self.pos_half)}|{fmt(self.pos_int)})"
        )

    def to_json(self) -> dict:
        return {
            "neg_half": list(self.neg_half),
            "neg_int": list(self.neg_int),
            "pos_half": list(self.pos_half),
            "pos_int": list(self.pos_int),
            "length": self.length_bound,
        }


def _validate_positive_pair(half: tuple[int, ...], intg: tuple[int, ...]):
    if len(half) != len(intg):
        raise FrobeniusError("xipos", f"arm/leg length mismatch: {half} | {intg}")
    for a, b in zip(half, half[1:]):
        if a <= b:
            raise FrobeniusError("xipos", f"half-integer chain not strictly decreasing: {half}")
    for a, b in zip(intg, intg[1:]):
        if a <= b:
            raise FrobeniusError("xipos", f"integer chain not strictly decreasing: {intg}")
    if intg and intg[-1] < 0:
        raise FrobeniusError("xipos", f"integer chain must stay >= 0: {intg}")
    if half:
        # xi_{r-1/2} = 0 only encodes the zero partition, which we store as
        # the empty quartet.
        if half[-1] <= 0:
            raise FrobeniusError("xigeq", f"xi_{{r-1/2}} must be positive: {half}")


def _mirror(half: tuple[int, ...], intg: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Negative half of a quartet <-> coordinates of mu = (lambda^-)*; its own inverse."""
    return tuple(1 - v for v in reversed(half)), tuple(-1 - v for v in reversed(intg))


def _validate_negative_pair(half: tuple[int, ...], intg: tuple[int, ...]):
    try:
        _validate_positive_pair(*_mirror(half, intg))
    except FrobeniusError as exc:
        raise FrobeniusError("xineggeq", f"negative quartet invalid: ({half}|{intg})") from exc


def _column_lengths(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Column lengths lambda'_1 >= lambda'_2 >= ... of a partition; () for the zero one.

    With the positive parts sorted as rows r_1 >= ... >= r_l >= r_{l+1} = 0,
    the columns r_{i+1} + 1 .. r_i have length i: O(lambda_1 + l), read off
    the differences of consecutive rows.  Parts in any order are accepted.
    """
    rows = sorted((p for p in parts if p > 0), reverse=True) + [0]
    cols = []
    for i in range(len(rows) - 1, 0, -1):
        cols += [i] * (rows[i - 1] - rows[i])
    return tuple(cols)


def transpose(lam: Partition) -> Partition:
    """Conjugate partition; declared length of the result is lambda_1 (1 if zero)."""
    return Partition(_column_lengths(lam.parts) or (0,))


def rank(lam: GeneralizedPartition) -> int:
    """Durfee rank; for non-positive generalized partitions, -rank(lambda*)."""
    if all(p >= 0 for p in lam.parts):
        r = 0
        for i, p in enumerate(lam.parts, start=1):
            if p >= i:
                r = i
        return r
    if all(p <= 0 for p in lam.parts):
        return -rank(lam.star())
    raise ValueError(f"rank undefined for mixed-sign {lam}; split first")


def split_signs(lam: GeneralizedPartition) -> tuple[Partition, GeneralizedPartition]:
    """lambda = lambda^+ + lambda^- with componentwise max/min against 0."""
    plus = Partition(tuple(max(p, 0) for p in lam.parts))
    minus = GeneralizedPartition(tuple(min(p, 0) for p in lam.parts))
    return plus, minus


def _pos_coordinates(parts: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Frobenius coordinates of a non-negative non-increasing sequence, with no transpose built."""
    lam = Partition(parts)
    r = rank(lam)
    half = tuple(lam.parts[k - 1] - k + 1 for k in range(1, r + 1))
    intg = tuple(sum(p >= k for p in lam.parts) - k for k in range(1, r + 1))
    return half, intg


def _partition_from_pos(half: tuple[int, ...], intg: tuple[int, ...], d: int) -> tuple[int, ...]:
    """Inverse of `_pos_coordinates` at declared length d."""
    r = len(half)
    if r == 0:
        return (0,) * d
    rows = [half[k - 1] + k - 1 for k in range(1, r + 1)]
    cols = [intg[k - 1] + k for k in range(1, r + 1)]
    if cols[0] > d:
        raise FrobeniusError("length", f"first column {cols[0]} exceeds declared length {d}")
    below = [sum(1 for c in cols if c >= k) for k in range(r + 1, d + 1)]
    return tuple(rows + below)


def to_frobenius(lam: GeneralizedPartition) -> FrobeniusData:
    """Shifted Frobenius quartet of a generalized partition of declared length d."""
    plus, minus = split_signs(lam)
    pos_half, pos_int = _pos_coordinates(plus.parts)
    neg_half, neg_int = _mirror(*_pos_coordinates(minus.star().parts))
    data = FrobeniusData(neg_half, neg_int, pos_half, pos_int, lam.length)
    data.validate()
    return data


def from_frobenius(data: FrobeniusData) -> GeneralizedPartition:
    """The unique generalized partition with the given quartet; validates first."""
    data.validate()
    d = data.length_bound
    plus = _partition_from_pos(data.pos_half, data.pos_int, d)
    mu = _partition_from_pos(*_mirror(data.neg_half, data.neg_int), d)
    minus = tuple(-p for p in reversed(mu))
    parts = tuple(a + b for a, b in zip(plus, minus))
    return GeneralizedPartition(parts)


def _o_columns(lam: Partition, n: int) -> tuple[int, ...]:
    """Columns of lam after checking that it labels an O(n) module.

    A label has declared length n and lambda'_1 + lambda'_2 <= n; anything
    else raises ValueError.
    """
    if lam.length != n:
        raise ValueError(f"O({n}) labels have declared length {n}: got {lam}")
    cols = _column_lengths(lam.parts)
    if sum(cols[:2]) > n:
        raise ValueError(f"lambda'_1 + lambda'_2 = {sum(cols[:2])} > n = {n}")
    return cols


def bar_conjugate(lam: Partition, n: int) -> Partition:
    """Replace the first column of lambda by one of length n - lambda'_1.

    Labels the det-twisted O(n) module; an involution on partitions of
    declared length n with lambda'_1 + lambda'_2 <= n.
    """
    cols = _o_columns(lam, n)
    # n - lambda'_1 >= lambda'_2 by the label condition, so the columns stay non-increasing
    rows = _column_lengths((n - (cols[0] if cols else 0),) + cols[1:])
    return Partition(rows + (0,) * (n - len(rows)))


def o_label(lam: Partition, n: int) -> tuple[Partition, int]:
    """Canonical O(n) label of lam and its branch: (lam, +1) when lambda'_1 <= n/2,
    else (bar lam, -1).  Raises ValueError unless lam labels an O(n) module."""
    cols = _o_columns(lam, n)
    if 2 * (cols[0] if cols else 0) <= n:
        return lam, 1
    return bar_conjugate(lam, n), -1


# -- literals ---------------------------------------------------------------

def parse_partition(text: str, generalized: bool = False) -> GeneralizedPartition:
    """Parse "[4,3,1,0,0]" (brackets optional)."""
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    parts = tuple(int(tok) for tok in body.split(",") if tok.strip()) if body.strip() else ()
    return GeneralizedPartition(parts) if generalized else Partition(parts)


def parse_frobenius(text: str, length: int) -> FrobeniusData:
    """Parse "(a,b|c,d)" or the 4-block "(nh|ni|ph|pi)" quartet literal."""
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"frobenius literal must be parenthesised: {text!r}")
    body = body[1:-1]
    if body.replace(" ", "") == "0,0":
        return FrobeniusData((), (), (), (), length)
    blocks = body.split("|")
    if len(blocks) not in (2, 4):
        raise ValueError(f"expected 2 or 4 blocks in {text!r}")
    seqs = [
        tuple(int(tok) for tok in blk.split(",") if tok.strip()) for blk in blocks
    ]
    if len(seqs) == 2:
        seqs = [(), ()] + seqs
    return FrobeniusData(seqs[0], seqs[1], seqs[2], seqs[3], length)

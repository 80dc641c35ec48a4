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

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def __iter__(self):
        return iter(self.parts)

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

    @property
    def r(self) -> int:
        return len(self.pos_half)

    @property
    def s(self) -> int:
        return -len(self.neg_half)

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


def _validate_negative_pair(half: tuple[int, ...], intg: tuple[int, ...]):
    # Mirror of the positive constraints through mu = (lambda^-)*.
    try:
        _validate_positive_pair(
            tuple(1 - v for v in reversed(half)),
            tuple(-1 - v for v in reversed(intg)),
        )
    except FrobeniusError as exc:
        raise FrobeniusError("xineggeq", f"negative quartet invalid: ({half}|{intg})") from exc


def transpose(lam: Partition) -> Partition:
    """Conjugate partition; declared length of the result is lambda_1 (1 if zero)."""
    if lam.is_zero():
        return Partition((0,))
    width = lam.parts[0]
    cols = [sum(1 for p in lam.parts if p >= j) for j in range(1, width + 1)]
    return Partition(tuple(cols))


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
    """Frobenius coordinates of a non-negative non-increasing sequence."""
    lam = Partition(parts)
    r = rank(lam)
    half = tuple(lam.parts[k - 1] - k + 1 for k in range(1, r + 1))
    lamT = transpose(lam)
    intg = tuple(lamT.parts[k - 1] - k for k in range(1, r + 1))
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
    mu_half, mu_int = _pos_coordinates(minus.star().parts)
    neg_half = tuple(1 - v for v in reversed(mu_half))
    neg_int = tuple(-1 - v for v in reversed(mu_int))
    data = FrobeniusData(neg_half, neg_int, pos_half, pos_int, lam.length)
    data.validate()
    return data


def from_frobenius(data: FrobeniusData) -> GeneralizedPartition:
    """The unique generalized partition with the given quartet; validates first."""
    data.validate()
    d = data.length_bound
    plus = _partition_from_pos(data.pos_half, data.pos_int, d)
    mu_half = tuple(1 - v for v in reversed(data.neg_half))
    mu_int = tuple(-1 - v for v in reversed(data.neg_int))
    mu = _partition_from_pos(mu_half, mu_int, d)
    minus = tuple(-p for p in reversed(mu))
    parts = tuple(a + b for a, b in zip(plus, minus))
    return GeneralizedPartition(parts)


def bar_conjugate(lam: Partition, n: int) -> Partition:
    """Replace the first column of lambda by one of length n - lambda'_1.

    Labels the det-twisted O(n) module; an involution on partitions of
    declared length n with lambda'_1 + lambda'_2 <= n.
    """
    if lam.length != n:
        raise ValueError(f"bar conjugate needs declared length {n}, got {lam.length}")
    cols = [] if lam.is_zero() else list(transpose(lam).parts)
    first = cols[0] if cols else 0
    second = cols[1] if len(cols) > 1 else 0
    if first + second > n:
        raise ValueError(f"lambda'_1 + lambda'_2 = {first+second} > n = {n}")
    new_cols = [n - first] + cols[1:]
    if new_cols[0] == 0:
        new_cols = new_cols[1:]
    if not new_cols:
        return Partition((0,) * n)
    if new_cols[0] < (new_cols[1] if len(new_cols) > 1 else 0):
        raise ValueError(f"bar conjugate not a partition: columns {new_cols}")
    bar = transpose(Partition(tuple(new_cols)))
    parts = bar.parts + (0,) * (n - len(bar.parts))
    return Partition(parts[:n])


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

"""Two-alphabet symmetric functions, truncated at a fixed total degree.

Elements live in the free polynomial ring on the elementary symmetric
functions e_k(x) and e_k(y) (degree of e_k is k), modulo everything of degree
greater than the truncation cap D.  The cap is part of the value; arithmetic
between different caps is an error so that identity checks stay honest.

A monomial is a pair (xpart, ypart), each a sorted tuple of (k, multiplicity)
pairs recording the exponent of e_k in that alphabet.  That tuple is the key
of the read-only `terms` view; the terms are stored under packed int keys
(see `_Codec`), which the product loop of `sparse` adds.

The same ring carries the energy grading of the Fock modes.  The weight
variable of doubled energy e2 (`_weight_var`) is stored as e_e2(x) for even
e2, where it is the fermionic x_{e2/2}, and as e_e2(y) for odd e2, where it
is the bosonic y_{e2/2}.  So a degree is a doubled energy, the cap is the
energy cutoff, and `_weight_of` reads a packed key back as a weight monomial.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .partitions import Partition, transpose
from .ringdet import ring_det
from .sparse import _PackedTerms, _Sparse, _add_into, _fold_integral, _product, _printed

Mono = tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]

EMPTY_MONO: Mono = ((), ())


def _degree(mono: Mono) -> int:
    return sum(k * m for part in mono for k, m in part)


def _part_mul(a, b):
    if not a:
        return b
    acc = dict(a)
    for k, m in b:
        acc[k] = acc.get(k, 0) + m
    return tuple(sorted(acc.items()))


class _Codec:
    """Packed keys of the monomials of degree <= cap.

    A monomial is stored under the mixed-radix int with one digit per e_k(x)
    and per e_k(y), k = 1..cap, each of radix cap // k + 1, and a top digit
    that holds the total degree; the whole key is shifted left by 2.  A
    monomial of degree at most cap has k * m_k <= cap, so its digits fit, and
    the key of a product is the sum of its factors' keys whenever the product
    is of degree at most cap: no digit carries.  The top digit makes key order
    refine degree order, so a product is over the cap exactly when its key
    sum reaches `limit`, the key of degree cap + 1.  The two low bits stay 0,
    which `sparse._product`'s eps fold leaves alone.  At cap 12 every key sum
    is below 2^47, under 2^61 - 1, so Python hashes each key to itself and
    distinct keys never share a hash.
    """

    __slots__ = ("cap", "places", "digits", "top", "limit")

    def __init__(self, cap: int):
        self.cap = cap
        self.places: tuple[list[int], list[int]] = ([0], [0])  # per alphabet, indexed by k
        self.digits: list[tuple[int, int, int]] = []  # (alphabet, k, radix), low digit first
        place = 4
        for which in (0, 1):
            for k in range(1, cap + 1):
                radix = cap // k + 1
                self.places[which].append(place)
                self.digits.append((which, k, radix))
                place *= radix
        self.top = place
        self.limit = (cap + 1) * place

    def encode(self, mono) -> int | None:
        """The key of a monomial of degree <= cap, or None when mono is not one."""
        key = deg = 0
        try:
            for place, part in zip(self.places, mono, strict=True):
                last = 0
                for k, m in part:
                    if not last < k <= self.cap or m < 1:
                        return None
                    key += m * place[k]
                    deg += k * m
                    last = k
        except (TypeError, ValueError):
            return None  # not a pair of (k, multiplicity) tuples
        return key + deg * self.top if deg <= self.cap else None

    def decode(self, key: int) -> Mono:
        key >>= 2
        parts: tuple[list, list] = ([], [])
        for which, k, radix in self.digits:
            key, m = divmod(key, radix)
            if m:
                parts[which].append((k, m))
        return tuple(parts[0]), tuple(parts[1])


_codec = lru_cache(maxsize=None)(_Codec)


class SymFunc(_Sparse):
    """Truncated two-alphabet symmetric function with exact coefficients.

    Integral coefficients are stored as int, the others as Fraction.  `terms`
    is a read-only view keyed by monomials (`sparse._PackedTerms`); the terms
    are stored under packed int keys (see `_Codec`).
    """

    __slots__ = ("cap",)

    def __init__(self, cap: int, terms: dict[Mono, object] | None = None):
        self.cap = cap
        encode = _codec(cap).encode
        store = {}
        for mono, c in (terms or {}).items():
            if c and _degree(mono) <= cap:
                key = encode(mono)
                if key is None:
                    raise ValueError(f"{mono!r} is not a monomial: (k, multiplicity) pairs with k increasing")
                store[key] = c
        self._store = _fold_integral(store)

    @property
    def terms(self) -> _PackedTerms:
        """Read-only {monomial: coefficient} view."""
        codec = _codec(self.cap)
        return _PackedTerms(self._store, codec.decode, codec.encode)

    def _context(self):
        return self.cap

    def _new(self, terms: dict) -> "SymFunc":
        """Wrap packed terms."""
        out = object.__new__(SymFunc)
        out.cap = self.cap
        out._store = _fold_integral(terms)
        return out

    @staticmethod
    def zero(cap: int) -> "SymFunc":
        return SymFunc(cap)

    @staticmethod
    def const(cap: int, value=1) -> "SymFunc":
        return SymFunc(cap, {EMPTY_MONO: value})

    def __mul__(self, other):
        if type(other) is SymFunc:  # the ring product first: it is the hot path
            self._check(other)
            return self._new(_product(self._store, other._store, _codec(self.cap).limit))
        return _Sparse.__mul__(self, other)  # a number, or NotImplemented

    __rmul__ = __mul__

    def coefficient(self, x: dict[int, int] | None = None, y: dict[int, int] | None = None):
        mono = (
            tuple(sorted((x or {}).items())),
            tuple(sorted((y or {}).items())),
        )
        return self.terms.get(mono, 0)

    def _by_degree(self) -> list[tuple[Mono, object]]:
        """The terms ordered by degree, then monomial."""
        return sorted(self.terms.items(), key=lambda t: (_degree(t[0]), t[0]))

    def __str__(self) -> str:
        def mono_str(mono: Mono) -> str:
            bits = []
            for alph, part in zip("xy", mono):
                for k, m in part:
                    bits.append(f"e{k}({alph})" + (f"^{m}" if m > 1 else ""))
            return "*".join(bits) if bits else "1"
        return _printed((mono_str(mono), coeff) for mono, coeff in self._by_degree())

    def to_json(self) -> list[dict]:
        return [
            {"x": [[k, m] for k, m in mono[0]], "y": [[k, m] for k, m in mono[1]], "coeff": str(coeff)}
            for mono, coeff in self._by_degree()
        ]


@lru_cache(maxsize=None)
def _h_in_e(k: int) -> tuple[tuple[tuple[tuple[int, int], ...], int], ...]:
    """Complete symmetric h_k as a polynomial in e_1..e_k (alphabet-free)."""
    if k == 0:
        return (((), 1),)
    acc: dict[tuple[tuple[int, int], ...], int] = {}
    for i in range(1, k + 1):
        sign = 1 if (i - 1) % 2 == 0 else -1
        for part, coeff in _h_in_e(k - i):
            mono = _part_mul(part, ((i, 1),))
            acc[mono] = acc.get(mono, 0) + sign * coeff
    return tuple(sorted((m, c) for m, c in acc.items() if c))


# the unit bases over each alphabet; over "xy", "e" is e_k(x, y) and "hs" the
# hook unit HS_{(1^k)}(x, y), each a sum over j of e_j(x) g_{k-j}(y)
_UNIT_BASES = {"x": ("e", "h"), "y": ("e", "h"), "xy": ("e", "hs")}


@lru_cache(maxsize=None)
def _unit(base: str, k: int, alphabet: str, cap: int) -> SymFunc:
    """g_k of the unit family (base, alphabet): e_k or h_k of "x" or "y", e_k(x, y) or the hook unit over "xy"."""
    if base not in _UNIT_BASES.get(alphabet, ()):
        raise ValueError(f"no unit base {base!r} over the alphabet {alphabet!r}")
    if k < 0 or k > cap:
        return SymFunc.zero(cap)
    if alphabet == "xy":
        y_base = "h" if base == "hs" else "e"
        acc = SymFunc.zero(cap)
        for j in range(k + 1):
            acc = acc + _unit("e", j, "x", cap) * _unit(y_base, k - j, "y", cap)
        return acc
    parts = [(((k, 1),) if k else (), 1)] if base == "e" else _h_in_e(k)
    return SymFunc(cap, {(part, ()) if alphabet == "x" else ((), part): c for part, c in parts})


def _jacobi_trudi(lam: Partition, base: str, alphabet: str, cap: int) -> SymFunc:
    """Dual Jacobi-Trudi determinant det(g_{lam'_i - i + j}) over the unit family (base, alphabet)."""
    cols = transpose(lam).parts
    n = len(cols)
    mat = [[_unit(base, cols[i] - i + j, alphabet, cap) for j in range(n)] for i in range(n)]
    return ring_det(mat, SymFunc.const(cap))


def schur(lam: Partition, alphabet: str, cap: int) -> SymFunc:
    """Schur function of "x", "y" or the combined alphabet "xy": the determinant over e_k."""
    return _jacobi_trudi(lam, "e", alphabet, cap)


def hook_schur(lam: Partition, cap: int) -> SymFunc:
    """Super (hook) Schur function HS_lam(x,y): the determinant over the hook units, omega in y of the combined Schur."""
    return _jacobi_trudi(lam, "hs", "xy", cap)


def _elem_of_values(values: list, maxk: int, one):
    """e_0..e_maxk of an explicit finite value list, via prod (1 + v_i t)."""
    elems = [one] + [one * 0] * maxk
    for v in values:
        for j in range(maxk, 0, -1):  # downward, so elems[j - 1] is still the previous value
            elems[j] = elems[j] + elems[j - 1] * v
    return elems


# -- the weight variables (see the module docstring) --------------------------

WeightMono = tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]


def _weight_var(e2: int, cap2: int) -> SymFunc:
    """The weight variable of doubled energy e2 at cap cap2, encoded as the module docstring says."""
    return _unit("e", e2, "y" if e2 & 1 else "x", cap2)


def _weight_of(cap2: int):
    """The weight monomial of a packed key at cap2, the x index halved; each distinct key is decoded once."""
    codec = _codec(cap2)

    @lru_cache(maxsize=None)
    def weight(k: int) -> WeightMono:
        xs, ys = codec.decode(k)
        return tuple((n // 2, m) for n, m in xs), ys

    return weight


@lru_cache(maxsize=None)
def _weight_elems(cap2: int) -> tuple[list[SymFunc], list[SymFunc]]:
    """e_0..e_cap2 of the x weight variables and of the y ones, at cap cap2."""
    one = SymFunc.const(cap2)
    xs = [_weight_var(e2, cap2) for e2 in range(2, cap2 + 1, 2)]
    ys = [_weight_var(e2, cap2) for e2 in range(1, cap2 + 1, 2)]
    return _elem_of_values(xs, cap2, one), _elem_of_values(ys, cap2, one)


def wmono_energy2(wmono: WeightMono) -> int:
    """Doubled energy of a weight monomial (x_n counts 2n, y_r counts r2)."""
    xs, ys = wmono
    return sum(2 * n * m for n, m in xs) + sum(r2 * m for r2, m in ys)


def weight_expansion(f: SymFunc, cap2: int) -> dict[WeightMono, int | Fraction]:
    """Expand into monomials in x_1..x_*, y_{1/2}.., keeping energy <= cap2.

    Keys are ((n, mult), ...) for x and ((r2, mult), ...) for y with r2 the
    doubled half-integer index.  Faithful below the cap provided f carries all
    symmetric degrees <= cap2 (i.e. f.cap >= cap2).  Values are int when
    integral, like the coefficients of f.  The ring map sends e_k(x) to e_k of
    the x weight variables and e_k(y) to e_k of the y ones; the product at cap
    cap2 drops what is over the cutoff.
    """
    elems = _weight_elems(cap2)
    total: dict[int, int | Fraction] = {}
    for mono, coeff in f.terms.items():
        if any(k > cap2 for part in mono for k, _ in part):
            continue  # e_k of the weight variables has energy >= k, so it is zero past the cap
        term = SymFunc.const(cap2, coeff)
        for part, table in zip(mono, elems):
            for k, mult in part:
                for _ in range(mult):
                    term = term * table[k]
        _add_into(total, term._store)
    weight = _weight_of(cap2)
    return {weight(key): c for key, c in _fold_integral(total).items()}


def energy_series(wmonos: dict[WeightMono, Fraction]) -> dict[int, Fraction]:
    """Collect coefficients by doubled energy: x_n -> q^n, y_r -> q^r."""
    return _add_into({}, [(wmono_energy2(wmono), coeff) for wmono, coeff in wmonos.items()])

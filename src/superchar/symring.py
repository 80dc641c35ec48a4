"""Two-alphabet symmetric functions, truncated at a fixed total degree.

Elements live in the free polynomial ring on the elementary symmetric
functions e_k(x) and e_k(y) (degree of e_k is k), modulo everything of degree
greater than the truncation cap D.  The cap is part of the value; arithmetic
between different caps is an error so that identity checks stay honest.

A monomial is a pair (xpart, ypart), each a sorted tuple of (k, multiplicity)
pairs recording the exponent of e_k in that alphabet.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .partitions import Partition, transpose
from .ringdet import ring_det

Mono = tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]

EMPTY_MONO: Mono = ((), ())


def _part_degree(part: tuple[tuple[int, int], ...]) -> int:
    return sum(k * m for k, m in part)


def mono_degree(mono: Mono) -> int:
    return _part_degree(mono[0]) + _part_degree(mono[1])


def _part_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    acc = dict(a)
    for k, m in b:
        acc[k] = acc.get(k, 0) + m
    return tuple(sorted(acc.items()))


def mono_mul(a: Mono, b: Mono) -> Mono:
    return (_part_mul(a[0], b[0]), _part_mul(a[1], b[1]))


class SymFunc:
    """Truncated two-alphabet symmetric function with exact coefficients."""

    __slots__ = ("cap", "terms")

    def __init__(self, cap: int, terms: dict[Mono, Fraction] | None = None):
        self.cap = cap
        self.terms: dict[Mono, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff and mono_degree(mono) <= cap:
                    self.terms[mono] = coeff

    @staticmethod
    def zero(cap: int) -> "SymFunc":
        return SymFunc(cap)

    @staticmethod
    def const(cap: int, value=1) -> "SymFunc":
        return SymFunc(cap, {EMPTY_MONO: Fraction(value)})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, SymFunc):
            return self.cap == other.cap and self.terms == other.terms
        if other == 0:
            return not self.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.cap, frozenset(self.terms.items())))

    def _check(self, other: "SymFunc"):
        if self.cap != other.cap:
            raise ValueError(f"truncation caps differ: {self.cap} vs {other.cap}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SymFunc.const(self.cap, other)
        self._check(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            new = out.get(mono, 0) + coeff
            if new:
                out[mono] = new
            else:
                out.pop(mono, None)
        return SymFunc(self.cap, out)

    __radd__ = __add__

    def __neg__(self):
        return SymFunc(self.cap, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SymFunc.const(self.cap, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return SymFunc(self.cap)
            return SymFunc(self.cap, {m: c * other for m, c in self.terms.items()})
        self._check(other)
        cap = self.cap
        out: dict[Mono, Fraction] = {}
        for m1, c1 in self.terms.items():
            d1 = mono_degree(m1)
            for m2, c2 in other.terms.items():
                if d1 + mono_degree(m2) > cap:
                    continue
                mono = mono_mul(m1, m2)
                new = out.get(mono, 0) + c1 * c2
                if new:
                    out[mono] = new
                else:
                    out.pop(mono, None)
        return SymFunc(cap, out)

    __rmul__ = __mul__

    def reduce(self, cap: int) -> "SymFunc":
        """Image in the smaller quotient (cap <= current cap)."""
        if cap > self.cap:
            raise ValueError("cannot extend a truncated element")
        return SymFunc(cap, self.terms)

    def coefficient(self, x: dict[int, int] | None = None, y: dict[int, int] | None = None):
        mono = (
            tuple(sorted((x or {}).items())),
            tuple(sorted((y or {}).items())),
        )
        return self.terms.get(mono, Fraction(0))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        def mono_str(mono: Mono) -> str:
            bits = []
            for alph, part in zip("xy", mono):
                for k, m in part:
                    bits.append(f"e{k}({alph})" + (f"^{m}" if m > 1 else ""))
            return "*".join(bits) if bits else "1"
        bits = []
        for mono in sorted(self.terms, key=lambda m: (mono_degree(m), m)):
            coeff = self.terms[mono]
            ms = mono_str(mono)
            if ms == "1":
                bits.append(str(coeff))
            elif coeff == 1:
                bits.append(ms)
            elif coeff == -1:
                bits.append(f"-{ms}")
            else:
                bits.append(f"{coeff}*{ms}")
        return " + ".join(bits).replace("+ -", "- ")

    def to_json(self) -> list[dict]:
        out = []
        for mono in sorted(self.terms, key=lambda m: (mono_degree(m), m)):
            out.append(
                {
                    "x": [[k, m] for k, m in mono[0]],
                    "y": [[k, m] for k, m in mono[1]],
                    "coeff": str(self.terms[mono]),
                }
            )
        return out


def _e_mono(alphabet: str, k: int) -> Mono:
    if k == 0:
        return EMPTY_MONO
    part = ((k, 1),)
    return (part, ()) if alphabet == "x" else ((), part)


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


def generator(kind: str, k: int, alphabet: str, cap: int) -> SymFunc:
    """e_k or h_k of one alphabet, truncated at cap."""
    if k < 0:
        return SymFunc.zero(cap)
    if k > cap:
        return SymFunc.zero(cap)
    if kind == "elementary":
        return SymFunc(cap, {_e_mono(alphabet, k): Fraction(1)})
    if kind == "complete":
        terms: dict[Mono, Fraction] = {}
        for part, coeff in _h_in_e(k):
            mono = (part, ()) if alphabet == "x" else ((), part)
            terms[mono] = Fraction(coeff)
        return SymFunc(cap, terms)
    raise ValueError(f"unknown generator kind {kind!r}")


def elementary(k: int, alphabet: str, cap: int) -> SymFunc:
    """e_k of "x", "y", or the combined alphabet "xy"."""
    if alphabet in ("x", "y"):
        return generator("elementary", k, alphabet, cap)
    if alphabet == "xy":
        if k < 0 or k > cap:
            return SymFunc.zero(cap)
        acc = SymFunc.zero(cap)
        for i in range(0, k + 1):
            acc = acc + generator("elementary", i, "x", cap) * generator(
                "elementary", k - i, "y", cap
            )
        return acc
    raise ValueError(f"unknown alphabet {alphabet!r}")


def multiply(a: SymFunc, b: SymFunc) -> SymFunc:
    return a * b


def schur(lam: Partition, alphabet: str, cap: int) -> SymFunc:
    """Schur function via the dual Jacobi-Trudi determinant det(e_{lam'_i - i + j})."""
    if lam.is_zero():
        return SymFunc.const(cap)
    cols = transpose(lam).parts
    n = len(cols)
    mat = [
        [elementary(cols[i] - (i + 1) + (j + 1), alphabet, cap) for j in range(n)]
        for i in range(n)
    ]
    return ring_det(mat, SymFunc.const(cap))


def omega(f: SymFunc, alphabet: str) -> SymFunc:
    """Ring involution sending e_k(alphabet) -> h_k(alphabet), other alphabet fixed."""
    which = 0 if alphabet == "x" else 1
    out = SymFunc.zero(f.cap)
    for mono, coeff in f.terms.items():
        kept: Mono = ((), mono[1]) if which == 0 else (mono[0], ())
        term = SymFunc(f.cap, {kept: coeff})
        for k, mult in mono[which]:
            hk = generator("complete", k, alphabet, f.cap)
            for _ in range(mult):
                term = term * hk
        out = out + term
    return out


def omega_y(f: SymFunc) -> SymFunc:
    return omega(f, "y")


def omega_x(f: SymFunc) -> SymFunc:
    return omega(f, "x")


def hook_schur(lam: Partition, cap: int) -> SymFunc:
    """Super (hook) Schur function HS_lam(x,y) = omega_y of the combined Schur."""
    return omega_y(schur(lam, "xy", cap))


def _elem_of_values(values: list, maxk: int, one):
    """e_0..e_maxk of an explicit finite value list, via prod (1 + v_i t)."""
    elems = [one] + [None] * maxk
    zero = one * 0
    for j in range(1, maxk + 1):
        elems[j] = zero
    for v in values:
        prev = list(elems)
        for j in range(maxk, 0, -1):
            elems[j] = prev[j] + prev[j - 1] * v
    return elems


def specialize(f: SymFunc, x_values: list, y_values: list, one=None):
    """Substitute finite alphabets; values may be scalars or ring elements."""
    if one is None:
        for v in list(x_values) + list(y_values):
            maybe = getattr(v, "ring_one", None)
            if maybe is not None:
                one = maybe()
                break
        if one is None:
            one = Fraction(1)
    maxk = 0
    for mono in f.terms:
        for part in mono:
            for k, _ in part:
                maxk = max(maxk, k)
    elems = (
        _elem_of_values(list(x_values), maxk, one),
        _elem_of_values(list(y_values), maxk, one),
    )
    pow_cache: dict[tuple[int, int, int], object] = {}

    def power(which, k, mult):
        key = (which, k, mult)
        if key not in pow_cache:
            if mult == 1:
                pow_cache[key] = elems[which][k]
            else:
                pow_cache[key] = power(which, k, mult - 1) * elems[which][k]
        return pow_cache[key]

    # accumulate mutably when the target ring is a LaurentPoly
    laurent = hasattr(one, "terms")
    acc_terms: dict = {}
    total_scalar = one * 0
    for mono, coeff in f.terms.items():
        term = one * coeff
        for which in (0, 1):
            for k, mult in mono[which]:
                term = term * power(which, k, mult)
        if laurent:
            for key, val in term.terms.items():
                new = acc_terms.get(key, 0) + val
                if new:
                    acc_terms[key] = new
                else:
                    acc_terms.pop(key, None)
        else:
            total_scalar = total_scalar + term
    if laurent:
        return type(one)(one.nvars, acc_terms)
    return total_scalar


# -- expansion into weight monomials ----------------------------------------
#
# The x alphabet is graded with x_n of (doubled) energy 2n, n = 1, 2, ...; the
# y alphabet has y_r of doubled energy r2 for odd r2 = 1, 3, 5, ...  These
# expansions tie symmetric functions to Fock-space gradings.

WeightMono = tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]


@lru_cache(maxsize=None)
def _subsets_with_energy(kind: str, k: int, cap2: int, min_var: int) -> tuple:
    """All k-subsets (as sorted tuples) of the alphabet with total energy <= cap2."""
    if k == 0:
        return ((),)
    out = []
    var = min_var
    while True:
        energy2 = 2 * var if kind == "x" else var
        if energy2 > cap2:
            break
        step = 1 if kind == "x" else 2
        for rest in _subsets_with_energy(kind, k - 1, cap2 - energy2, var + step):
            out.append((var,) + rest)
        var += step
    return tuple(out)


def _expand_e(kind: str, k: int, cap2: int) -> dict[tuple[tuple[int, int], ...], int]:
    out: dict[tuple[tuple[int, int], ...], int] = {}
    start = 1
    for subset in _subsets_with_energy(kind, k, cap2, start):
        out[tuple((v, 1) for v in subset)] = 1
    return out


def wmono_energy2(wmono: WeightMono) -> int:
    """Doubled energy of a weight monomial (x_n counts 2n, y_r counts r2)."""
    xs, ys = wmono
    return sum(2 * n * m for n, m in xs) + sum(r2 * m for r2, m in ys)


def weight_expansion(f: SymFunc, cap2: int) -> dict[WeightMono, Fraction]:
    """Expand into monomials in x_1..x_*, y_{1/2}.., keeping energy <= cap2.

    Keys are ((n, mult), ...) for x and ((r2, mult), ...) for y with r2 the
    doubled half-integer index.  Faithful below the cap provided f carries all
    symmetric degrees <= cap2 (i.e. f.cap >= cap2).
    """
    total: dict[WeightMono, Fraction] = {}
    for mono, coeff in f.terms.items():
        partial: dict[WeightMono, Fraction] = {((), ()): Fraction(1)}
        for which, kind in ((0, "x"), (1, "y")):
            for k, mult in mono[which]:
                ek = _expand_e(kind, k, cap2)
                for _ in range(mult):
                    nxt: dict[WeightMono, Fraction] = {}
                    for wm, c in partial.items():
                        left = cap2 - wmono_energy2(wm)
                        for sub, _one in ek.items():
                            energy = sum((2 * v if kind == "x" else v) * m for v, m in sub)
                            if energy > left:
                                continue
                            merged = list(wm)
                            merged[which] = _part_mul(wm[which], sub)
                            key = (merged[0], merged[1])
                            nxt[key] = nxt.get(key, 0) + c
                    partial = nxt
        for wm, c in partial.items():
            new = total.get(wm, 0) + c * coeff
            if new:
                total[wm] = new
            else:
                total.pop(wm, None)
    return total


def energy_series(wmonos: dict[WeightMono, Fraction]) -> dict[int, Fraction]:
    """Collect coefficients by doubled energy: x_n -> q^n, y_r -> q^r."""
    out: dict[int, Fraction] = {}
    for wmono, coeff in wmonos.items():
        e2 = wmono_energy2(wmono)
        new = out.get(e2, 0) + coeff
        if new:
            out[e2] = new
        else:
            out.pop(e2, None)
    return out


def q_series(f: SymFunc, cap2: int) -> dict[int, Fraction]:
    """Graded dimension series of f up to q^{cap2/2}."""
    return energy_series(weight_expansion(f, cap2))

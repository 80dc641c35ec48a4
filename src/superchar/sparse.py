"""Sparse exact-coefficient arithmetic shared by the algebra classes.

`LaurentPoly`, `SymFunc`, `FockVector` and `SuperMatrix` are all a stored dict
of nonzero exact coefficients plus a context that every operand must share:
the variable count, the truncation cap, the Fock space, or nothing for
supermatrices.  `_Sparse` holds what they have in common; each class supplies
`_context()`, a trusted `_new(terms)` that wraps an internal result without
copying it, and its own product.  The stored dict is the `terms` slot, which
the generic operations reach as `_store`.  It is the public `terms` of
`FockVector` and `SuperMatrix`.  The two rings (`LaurentPoly`, `SymFunc`)
store packed int keys there instead, and show them as `terms` through one
read-only tuple-keyed view, `_PackedTerms`, given the class's decode and
encode.  Both rings multiply through one loop, `_product`, on those keys.
The helpers below add in place and drop the zeros, so no other module
hand-writes that loop; `_fold_integral` gives all four classes their one
coefficient normal form, applied by each constructor and each `_new`: `int`
when integral, `Fraction` otherwise.  All four print through `_printed`, each
class giving only its monomial text and its term order.  All four take one
kind of operand besides their own class, a number (`_NUMBERS`), read exactly.

Every name here is private: a tracer that wraps each public function and
method of the package charges this code to the layer that calls it.
"""

from collections.abc import ItemsView as _ItemsView, Mapping as _Mapping
from fractions import Fraction as _Fraction
from operator import itemgetter as _itemgetter


def _add_term(out, key, c):
    """out[key] += c in place, dropping the key when the sum is zero.

    c may be a number or a ring element (a missing key is not read as 0).
    """
    cur = out.get(key)
    new = c if cur is None else cur + c
    if new:
        out[key] = new
    else:
        out.pop(key, None)


def _add_into(out, terms, scale=1):
    """out += scale * terms in place, dropping zeros; returns out.

    `terms` is a mapping (a dict or a ring's `terms` view) or an iterable of
    (key, coefficient) pairs.
    """
    items = terms.items() if isinstance(terms, (dict, _Mapping)) else terms
    if scale != 1:
        items = [(key, c * scale) for key, c in items]
    get, pop = out.get, out.pop
    for key, c in items:
        new = get(key, 0) + c
        if new:
            out[key] = new
        else:
            pop(key, None)
    return out


# the operands read as numbers: an int (a bool is one), a Fraction, or a float,
# read exactly; an operation with anything else that is not of the class
# returns NotImplemented, so Python raises TypeError
_NUMBERS = (int, _Fraction, float)


def _folded(c):
    """The number c in normal form: int when integral, Fraction otherwise (a float is read exactly)."""
    if type(c) is int:
        return c
    c = _Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _fold_integral(terms):
    """Store each coefficient of terms in normal form (`_folded`), in place; returns terms.

    `type(c) is int` rather than `isinstance`, which goes through ABCMeta and
    would pass a bool through; the set of types is built in C, so all-int terms
    cost no Python loop.
    """
    if set(map(type, terms.values())) - {int}:
        for key, c in terms.items():
            terms[key] = _folded(c)
    return terms


def _printed(pairs, parens=False):
    """The printed form of (monomial text, coefficient) pairs, in their order.

    A bare "1" monomial prints as its coefficient; a coefficient of 1 or -1
    prints as the monomial or its negation, any other c as "c*" before the
    monomial, or "(c)*" with parens; no pairs print as "0".
    """
    bits = []
    for text, c in pairs:
        if text == "1":
            bits.append(str(c))
        elif c == 1 or c == -1:
            bits.append(text if c == 1 else "-" + text)
        else:
            bits.append(f"({c})*{text}" if parens else f"{c}*{text}")
    return " + ".join(bits).replace("+ -", "- ") if bits else "0"


def _drop_zeros(out):
    """Delete the zero coefficients of a dict summed without pruning; returns out."""
    for key in [key for key, c in out.items() if not c]:
        del out[key]
    return out


def _product(left, right, limit):
    """The product of two packed stores, {key: coefficient}, with the zeros dropped.

    A product term's key is the sum of its factors' keys, less the carry into
    bit 1: `LaurentPoly` keeps its eps bit in bit 0, so two eps bits add to 2
    there, and `k -= k & 2` folds that back to 0 (`SymFunc` keys have both low
    bits 0, so the fold does nothing to them).  The right factor runs in key
    order, and each left term stops at the first pair whose key sum reaches
    `limit`: the key sum that means "over the truncation degree" for
    `SymFunc`, a bound above every key sum for `LaurentPoly`.
    """
    out = {}
    get = out.get
    right = sorted(right.items(), key=_itemgetter(0))
    for k1, c1 in left.items():
        room = limit - k1
        for k2, c2 in right:
            if k2 >= room:
                break
            k = k1 + k2
            k -= k & 2
            out[k] = get(k, 0) + c1 * c2
    return _drop_zeros(out)


class _PackedTerms(_Mapping):
    """Read-only tuple-keyed view of a packed store.

    `decode(k)` is the tuple key of the packed key k, and `encode(key)` the
    packed key of a tuple key, or None when key names no term of the ring.
    Its length is the stored dict's; keys are decoded only when iterated or
    looked up.
    """

    __slots__ = ("_store", "_decode", "_encode")

    def __init__(self, store, decode, encode):
        self._store = store
        self._decode = decode
        self._encode = encode

    def __len__(self):
        return len(self._store)

    def __iter__(self):
        return map(self._decode, self._store)

    def __getitem__(self, key):
        c = self._store.get(self._encode(key))  # None is never a stored key
        if c is None:
            raise KeyError(key)
        return c

    def items(self):
        return _PackedItems(self)

    def values(self):
        return self._store.values()

    def __repr__(self):
        return repr(dict(self.items()))


class _PackedItems(_ItemsView):
    __slots__ = ()

    def __iter__(self):
        decode = self._mapping._decode
        return ((decode(k), c) for k, c in self._mapping._store.items())


class _Sparse:
    """Comparison, sums, negation and scalar multiples of {key: coefficient} elements."""

    __slots__ = ("terms",)

    def _context(self):
        return None

    def _wider(self, other):
        """Whichever of self and other has the bookkeeping that covers both.

        `_new` on it wraps a sum of the two.  Only `LaurentPoly` keeps any
        (its exponent bound); every other class returns self.
        """
        return self

    def _check(self, other):
        if self._context() != other._context():
            raise ValueError(f"{type(self).__name__} operands do not match: {self._context()} vs {other._context()}")

    def _operand(self, other):
        """A same-context operand; a number is a constant where the class has `const`."""
        if isinstance(other, type(self)):
            self._check(other)
            return other
        const = getattr(type(self), "const", None)
        if const is not None and isinstance(other, _NUMBERS):
            return const(self._context(), _folded(other))
        return None

    def _scaled(self, s):
        if not s:
            return self._new({})
        return self._new({key: c * s for key, c in self._store.items()})

    def _halved(self):
        """self / 2 exactly: an even int coefficient halves to an int, any other to a Fraction."""
        return self._new({key: c // 2 if type(c) is int and not c & 1 else _Fraction(c, 2)
                          for key, c in self._store.items()})

    def __bool__(self):
        return bool(self._store)

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self._context() == other._context() and self._store == other._store
        if other == 0:
            return not self._store
        return NotImplemented

    def __hash__(self):
        return hash((self._context(), frozenset(self._store.items())))

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self._wider(other)._new(_add_into(dict(self._store), other._store))

    __radd__ = __add__

    def __neg__(self):
        return self._new({key: -c for key, c in self._store.items()})

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self._wider(other)._new(_add_into(dict(self._store), other._store, -1))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        """A number multiple, the number read exactly; the rings try their product first."""
        if isinstance(other, _NUMBERS):
            return self._scaled(_folded(other))
        return NotImplemented

    __rmul__ = __mul__


# the stored dict under a second name, so that a class can show another `terms`
_Sparse._store = _Sparse.terms

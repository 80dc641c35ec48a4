"""Symplectic and orthogonal Schur functions and the Cauchy-identity verifier.

The building block is the folded series T_r = sum_{i>=0} g_i g_{r+i} taken
over a generator family g (elementary, complete, or the hook units

    HS_{(1^k)}(x,y) = sum_j e_j(x) h_{k-j}(y)),

truncated at total degree D.  T_r = T_{-r} by reindexing.  The primed series
is T'_r = T_r - T_{r+2}: with the r-2 reading the antisymmetrised determinant
degenerates (the weight-1 function of the single-box partition would vanish
identically), and only the r+2 reading matches the finite-variable classical
characters; `literal_minus_two=True` keeps the degenerate reading available
as a negative control.

Identity checks compare full coefficient tensors in (truncated symmetric
functions) x (Laurent polynomials in z and eps); failures are reported as
data, not exceptions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .partitions import Partition, bar_conjugate, o_label, transpose
# ring_det stays bound here: perfbench's tracer test wraps it in every module that builds determinants
from .ringdet import pair_det, ring_det, spin_det  # noqa: F401
from .laurentchars import GroupTag, LaurentPoly, char_group, classical_char_so_even, tensor_multiplicity
from .sparse import _add_term
from .symring import SymFunc, elementary, generator, omega_x, omega_y, specialize


BASE_ALIASES = {"elementary": "e", "complete": "h", "hook-unit": "hs"}


@lru_cache(maxsize=None)
def _unit(base: str, k: int, alphabet: str, cap: int) -> SymFunc:
    base = BASE_ALIASES.get(base, base)
    if base == "e":
        return elementary(k, alphabet, cap)
    if base == "h":
        return generator("complete", k, alphabet, cap)
    if base == "hs":
        if k < 0 or k > cap:
            return SymFunc.zero(cap)
        acc = SymFunc.zero(cap)
        for j in range(0, k + 1):
            acc = acc + generator("elementary", j, "x", cap) * generator("complete", k - j, "y", cap)
        return acc
    raise ValueError(f"unknown base {base!r}")


@lru_cache(maxsize=None)
def etilde_series(r: int, base: str, cap: int, alphabet: str = "x") -> SymFunc:
    """T_r = sum_{i>=0} g_i g_{r+i}, truncated at degree cap.

    base is "e"/"elementary", "h"/"complete", or "hs"/"hook-unit".
    """
    base = BASE_ALIASES.get(base, base)
    acc = SymFunc.zero(cap)
    i = max(0, -r)
    while 2 * i + r <= cap:
        acc = acc + _unit(base, i, alphabet, cap) * _unit(base, r + i, alphabet, cap)
        i += 1
    return acc


@lru_cache(maxsize=None)
def etilde_primed(r: int, base: str, cap: int, alphabet: str = "x", literal_minus_two: bool = False) -> SymFunc:
    if literal_minus_two:
        return etilde_series(r, base, cap, alphabet) - etilde_series(r - 2, base, cap, alphabet)
    return etilde_series(r, base, cap, alphabet) - etilde_series(r + 2, base, cap, alphabet)


def _centres(lam: Partition, size: int) -> list[int]:
    """Row centres lam_{size-i+1} + i - 1 for i = 1..size, missing parts read as 0."""
    parts = (lam.parts + (0,) * size)[:size]
    return [a + i for i, a in enumerate(reversed(parts))]


def sp_schur(lam: Partition, cap: int, alphabet: str = "x", literal_minus_two: bool = False) -> SymFunc:
    """Symplectic Schur function of weight d = declared length of lam."""
    d = lam.length
    term = lambda r: etilde_primed(r, "e", cap, alphabet, literal_minus_two)
    return pair_det(_centres(lam, d), term, SymFunc.const(cap))


def sp_skew(lam: Partition, cap: int, alphabet: str = "x") -> SymFunc:
    """Skew symplectic Schur function (complete-symmetric folded series)."""
    d = lam.length
    term = lambda r: etilde_primed(r, "h", cap, alphabet)
    return pair_det(_centres(lam, d), term, SymFunc.const(cap))


def sp_hook(lam: Partition, cap: int) -> SymFunc:
    """Hook symplectic Schur function: omega_y of the combined-alphabet function."""
    return omega_y(sp_schur(lam, cap, alphabet="xy"))


def sp_hook_det(lam: Partition, cap: int) -> SymFunc:
    """The same function from the hook-unit folded series (cross-check route)."""
    d = lam.length
    term = lambda r: etilde_primed(r, "hs", cap, "xy")
    return pair_det(_centres(lam, d), term, SymFunc.const(cap))


def _sum_e(cap: int, alphabet: str, alternating: bool) -> SymFunc:
    acc = SymFunc.zero(cap)
    for i in range(0, cap + 1):
        sign = -1 if (alternating and i % 2) else 1
        acc = acc + sign * elementary(i, alphabet, cap)
    return acc


def so_schur(lam: Partition, n: int, cap: int, alphabet: str = "x") -> SymFunc:
    """Orthogonal Schur function of weight n/2.

    Even n = 2d splits by the first-column length against d; the boundary
    case lambda'_1 = d is the single unprimed determinant.  Odd n = 2d+1 uses
    the spin determinants, paired so that sum_i e_i multiplies the minus-type
    determinant (pinned by the finite-variable classical characters).
    """
    term = lambda r: etilde_series(r, "e", cap, alphabet)
    termp = lambda r: etilde_primed(r, "e", cap, alphabet)
    half = Fraction(1, 2)
    one = SymFunc.const(cap)
    base, sign = o_label(lam, n)
    d = n // 2
    if n % 2 == 0:
        main = pair_det(_centres(base, d), term, one)
        if base.depth == d:
            return main
        extra = _sum_e(cap, alphabet, False) * _sum_e(cap, alphabet, True)
        extra = extra * pair_det(_centres(base, d - 1), termp, one)
        return half * main + (sign * half) * extra
    minus_det = spin_det(_centres(base, d), term, -1, one)
    plus_det = spin_det(_centres(base, d), term, +1, one)
    return half * (_sum_e(cap, alphabet, False) * minus_det) + (sign * half) * (
        _sum_e(cap, alphabet, True) * plus_det
    )


def so_skew(lam: Partition, n: int, cap: int) -> SymFunc:
    return omega_x(so_schur(lam, n, cap, alphabet="x"))


def so_hook(lam: Partition, n: int, cap: int) -> SymFunc:
    return omega_y(so_schur(lam, n, cap, alphabet="xy"))


# -- identity verification -----------------------------------------------------
#
# Tensor elements are dicts {(doubled z exponents, eps bit): SymFunc}.


def _zs_mul_factor(acc: dict, factor: list[tuple[tuple[int, ...], int, SymFunc]]) -> dict:
    out: dict = {}
    for (exps, eps), f in acc.items():
        for dexps, deps, g in factor:
            key = (tuple(a + b for a, b in zip(exps, dexps)), eps ^ deps)
            _add_term(out, key, f * g)
    return out


def _geom_factor(nz: int, var: int, sign2: int, base: str, alphabet: str, cap: int, with_eps: bool):
    """Series sum_k g_k(alphabet) z_var^{sign k} (eps^k when with_eps)."""
    out = []
    for k in range(0, cap + 1):
        g = _unit(base, k, alphabet, cap)
        if not g:
            continue
        dexps = [0] * nz
        dexps[var] = sign2 * k
        out.append((tuple(dexps), (k & 1) if with_eps else 0, g))
    return out


def _lambda_box(max_size: int, max_len: int):
    """All partitions with at most max_len rows and size <= max_size (padded)."""
    out = []

    def rec(prefix, remaining, max_part):
        out.append(Partition(tuple(prefix) + (0,) * (max_len - len(prefix))))
        if len(prefix) == max_len:
            return
        for p in range(min(max_part, remaining), 0, -1):
            rec(prefix + [p], remaining - p, p)

    rec([], max_size, max_size)
    seen, uniq = set(), []
    for lam in out:
        if lam.parts not in seen:
            seen.add(lam.parts)
            uniq.append(lam)
    return uniq


def o_labels(n: int, max_size: int, max_width: int | None = None):
    """Partitions of declared length n with lambda'_1 + lambda'_2 <= n, |lam| <= max_size."""
    out = []
    for core in _lambda_box(max_size, n):
        cols = () if core.is_zero() else transpose(core).parts
        c1 = cols[0] if cols else 0
        c2 = cols[1] if len(cols) > 1 else 0
        if c1 + c2 <= n and (max_width is None or core.parts[0] <= max_width):
            out.append(core)
    return out


def _compare(tag: str, params: dict, lhs: dict, rhs: dict) -> dict:
    keys = sorted(set(lhs) | set(rhs))
    for key in keys:
        fl = lhs.get(key)
        fr = rhs.get(key)
        if fl == fr:
            continue
        zero = fl if fl is not None else fr
        zero = SymFunc.zero(zero.cap)
        fl = fl if fl is not None else zero
        fr = fr if fr is not None else zero
        monos = sorted(set(fl.terms) | set(fr.terms))
        for mono in monos:
            cl = fl.terms.get(mono, 0)
            cr = fr.terms.get(mono, 0)
            if cl != cr:
                exps, eps = key
                return {
                    "identity": tag,
                    "params": params,
                    "status": "fail",
                    "first_mismatch": {
                        "z_exponent": [e / 2 for e in exps],
                        "eps": eps,
                        "sym_monomial": str(SymFunc(fl.cap, {mono: Fraction(1)})),
                        "lhs": str(cl),
                        "rhs": str(cr),
                    },
                }
    return {"identity": tag, "params": params, "status": "pass"}


def _rhs_sum(nz: int, pairs) -> dict:
    """Assemble sum over lambda of chi(z) tensor f(x,y)."""
    acc: dict = {}
    for chi, f in pairs:
        for key, c in chi.terms.items():
            _add_term(acc, key, f * c)
    return acc


# the parameters verify_identity reads for each tag; D is the truncation degree
IDENTITY_PARAMS = {
    **dict.fromkeys(("combin1-i", "combin1-ii", "HS", "tensor-sp"), ("d", "D")),
    **dict.fromkeys(("combin1-evenodd-S", "combin1-evenodd-D", "HS-O", "tensor-o"), ("n", "D")),
    **dict.fromkeys(("combin-Sp", "spchar"), ("d", "m")),
    **dict.fromkeys(("even-char", "odd-char"), ("n", "m")),
}


def verify_identity(tag: str, **params) -> dict:
    """Check one of the Cauchy-type identities; returns a pass/fail report."""
    if tag in ("combin1-i", "combin1-ii", "HS"):
        d, cap = params["d"], params["D"]
        nz = d
        acc = {(((0,) * nz), 0): SymFunc.const(cap)}
        bases = {"combin1-i": [("e", "x")], "combin1-ii": [("h", "x")], "HS": [("e", "x"), ("h", "y")]}[tag]
        for i in range(d):
            for base, alph in bases:
                for sign in (+2, -2):
                    acc = _zs_mul_factor(acc, _geom_factor(nz, i, sign, base, alph, cap, False))
        group = GroupTag("Sp", d)
        sym_of = {
            "combin1-i": lambda lam: sp_schur(lam, cap),
            "combin1-ii": lambda lam: sp_skew(lam, cap),
            "HS": lambda lam: sp_hook(lam, cap),
        }[tag]
        pairs = [
            (char_group(group, lam), sym_of(lam))
            for lam in _lambda_box(cap, d)
        ]
        return _compare(tag, params, acc, _rhs_sum(nz, pairs))

    if tag in ("combin1-evenodd-S", "combin1-evenodd-D", "HS-O"):
        n, cap = params["n"], params["D"]
        d = n // 2
        odd = n % 2 == 1
        nz = d
        acc = {(((0,) * nz), 0): SymFunc.const(cap)}
        bases = {"combin1-evenodd-S": [("e", "x")], "combin1-evenodd-D": [("h", "x")], "HS-O": [("e", "x"), ("h", "y")]}[tag]
        for i in range(d):
            for base, alph in bases:
                for sign in (+2, -2):
                    acc = _zs_mul_factor(acc, _geom_factor(nz, i, sign, base, alph, cap, odd))
        if odd:
            for base, alph in bases:
                acc = _zs_mul_factor(acc, _geom_factor(nz, 0, 0, base, alph, cap, True) if nz else
                                     [(tuple(), k & 1, _unit(base, k, alph, cap)) for k in range(cap + 1)])
        group = GroupTag("O", n)
        sym_of = {
            "combin1-evenodd-S": lambda lam: so_schur(lam, n, cap),
            "combin1-evenodd-D": lambda lam: so_skew(lam, n, cap),
            "HS-O": lambda lam: so_hook(lam, n, cap),
        }[tag]
        pairs = [(char_group(group, lam), sym_of(lam)) for lam in o_labels(n, cap)]
        return _compare(tag, params, acc, _rhs_sum(nz, pairs))

    if tag in ("combin-Sp", "spchar"):
        d, m = params["d"], params["m"]
        nv = m + d
        lhs = LaurentPoly.const(nv)
        for i in range(d):
            for j in range(m):
                for zsign in (2, -2):
                    exps = [0] * nv
                    exps[j] = 2
                    exps[m + i] = zsign
                    lhs = lhs * (LaurentPoly.const(nv) + LaurentPoly.monomial(nv, exps))
        cap = 2 * d * m
        rhs = LaurentPoly.zero(nv)
        xs = [LaurentPoly.var(m, j, 2) for j in range(m)]
        for lam in _lambda_box(d * m, d):
            if lam.parts and lam.parts[0] > m:
                continue
            chi = char_group(GroupTag("Sp", d), lam).embed(nv, m)
            s = specialize(sp_schur(lam, cap), xs, [], one=LaurentPoly.const(m)).embed(nv, 0)
            rhs = rhs + chi * s
        return _laurent_report(tag, params, lhs, rhs)

    if tag in ("even-char", "odd-char"):
        n, m = params["n"], params["m"]
        d = n // 2
        odd = n % 2 == 1
        nv = m + d
        lhs = LaurentPoly.monomial(nv, tuple(-n if k < m else 0 for k in range(nv)))
        for i in range(d):
            for j in range(m):
                for zsign in (2, -2):
                    exps = [0] * nv
                    exps[j] = 2
                    exps[m + i] = zsign
                    lhs = lhs * (LaurentPoly.const(nv) + LaurentPoly.monomial(nv, exps, eps=1 if odd else 0))
        if odd:
            for j in range(m):
                exps = [0] * nv
                exps[j] = 2
                lhs = lhs * (LaurentPoly.const(nv) + LaurentPoly.monomial(nv, exps, eps=1))
        rhs = LaurentPoly.zero(nv)
        for lam in o_labels(n, n * m, max_width=m):
            chi = char_group(GroupTag("O", n), lam).embed(nv, m)
            cols = [0] * m
            lamT = transpose(lam)
            for j in range(m):
                cols[j] = lamT.parts[j] if (not lam.is_zero() and j < len(lamT.parts)) else 0
            nu_star2 = tuple(n - 2 * cols[m - 1 - i] for i in range(m))
            tilde = classical_char_so_even(nu_star2, m).invert_reverse()
            rhs = rhs + chi * tilde.embed(nv, 0)
        return _laurent_report(tag, params, lhs, rhs)

    if tag == "tensor-sp":
        d, cap = params["d"], params["D"]
        lmax = params.get("lmax", cap)
        group = GroupTag("Sp", d)
        smalls = _lambda_box(cap, d)
        tensor: dict = {}
        for mu in smalls:
            for nu in smalls:
                mults = tensor_multiplicity(group, mu, nu)
                prod = sp_schur(mu, cap) * sp_skew(nu, cap, alphabet="y")
                for lam, c in mults.items():
                    _add_term(tensor, lam.parts, c * prod)
        for lam in _lambda_box(min(lmax, cap), d):
            want = sp_hook(lam, cap)
            got = tensor.get(lam.parts, SymFunc.zero(cap))
            if want != got:
                return {
                    "identity": tag,
                    "params": params,
                    "status": "fail",
                    "first_mismatch": {"lambda": str(lam), "lhs": str(want), "rhs": str(got)},
                }
        return {"identity": tag, "params": params, "status": "pass"}

    if tag == "tensor-o":
        n, cap = params["n"], params["D"]
        lmax = params.get("lmax", cap)
        group = GroupTag("O", n)
        labels = o_labels(n, cap)
        tensor: dict = {}
        for mu in labels:
            for nu in labels:
                mults = tensor_multiplicity(group, mu, nu)
                prod = so_schur(mu, n, cap) * _swap_to_y(so_skew(nu, n, cap))
                for lam, c in mults.items():
                    _add_term(tensor, lam.parts, c * prod)
        for lam in o_labels(n, min(lmax, cap)):
            if n % 2 == 1:
                want = so_hook(lam, n, cap)
                got = tensor.get(lam.parts, SymFunc.zero(cap))
            else:
                # even case: only the bar-merged totals are determined
                bar = bar_conjugate(lam, n)
                want = so_hook(lam, n, cap) + so_hook(bar, n, cap)
                got = tensor.get(o_label(lam, n)[0].parts, SymFunc.zero(cap))
                if bar.parts == lam.parts:
                    want = so_hook(lam, n, cap)
            if want != got:
                return {
                    "identity": tag,
                    "params": params,
                    "status": "fail",
                    "first_mismatch": {"lambda": str(lam), "lhs": str(want), "rhs": str(got)},
                }
        return {"identity": tag, "params": params, "status": "pass"}

    raise ValueError(f"unknown identity tag {tag!r}")


def _laurent_report(tag: str, params: dict, lhs: LaurentPoly, rhs: LaurentPoly) -> dict:
    if lhs == rhs:
        return {"identity": tag, "params": params, "status": "pass"}
    diff = lhs - rhs
    key = max(diff.terms)
    return {
        "identity": tag,
        "params": params,
        "status": "fail",
        "first_mismatch": {
            "z_exponent": [e / 2 for e in key[0]],
            "eps": key[1],
            "sym_monomial": "1",
            "lhs": str(lhs.terms.get(key, 0)),
            "rhs": str(rhs.terms.get(key, 0)),
        },
    }


def _swap_to_y(f: SymFunc) -> SymFunc:
    """Move a pure-x symmetric function onto the y alphabet."""
    out = {}
    for (xs, ys), c in f.terms.items():
        if ys:
            raise ValueError("not a pure-x function")
        out[((), xs)] = c
    return SymFunc(f.cap, out)

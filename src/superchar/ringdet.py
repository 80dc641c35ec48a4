"""Exact determinant over any commutative ring with +, unary -, * and a one."""

from __future__ import annotations


def ring_det(mat, one):
    """Determinant by first-row expansion with memoised minors.

    `mat` is a square list of lists of ring elements; the empty matrix has
    determinant `one`.  Complexity O(2^n n), fine for the small determinants
    used throughout (n <= ~8).
    """
    n = len(mat)
    if n == 0:
        return one
    memo: dict[tuple[int, tuple[int, ...]], object] = {}

    def minor(row: int, cols: tuple[int, ...]):
        if row == n:
            return one
        key = (row, cols)
        if key in memo:
            return memo[key]
        acc = None
        for pos, col in enumerate(cols):
            entry = mat[row][col]
            rest = minor(row + 1, cols[:pos] + cols[pos + 1 :])
            term = entry * rest
            if pos % 2:
                term = -term
            acc = term if acc is None else acc + term
        memo[key] = acc
        return acc

    return minor(0, tuple(range(n)))


def pair_det(centres, term, one):
    """det of the rows (T_k, T_{k-1} + T_{k+1}, ..., T_{k-n+1} + T_{k+n-1}), one per centre k."""
    n = len(centres)
    return ring_det([[term(k)] + [term(k - c) + term(k + c) for c in range(1, n)] for k in centres], one)


def spin_det(centres, term, sign, one):
    """det of the rows (T_{k-c+1} + sign * T_{k+c})_{c=1..n}, one per centre k."""
    n = len(centres)
    return ring_det([[term(k - c + 1) + sign * term(k + c) for c in range(1, n + 1)] for k in centres], one)

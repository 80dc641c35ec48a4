"""Exact determinant over any commutative ring with +, unary -, * and a one,
or over operators acting on the one from the left, in row order (the Grassmann
minors of `fock.hwv_candidate`).

`orthogonal_det`, the O(n) formula of `superschur._so` (its one caller in the
library), also halves its result, through the ring element's exact `_halved`
(see sparse.py).
"""

from __future__ import annotations

from itertools import combinations


def ring_det(mat, one):
    """Determinant by Laplace expansion, minors built bottom-up.

    `mat` is a square list of lists of ring elements; the empty matrix has
    determinant `one`.  The minors on the last k rows are kept in a table
    keyed by their column subset, and each row's table is built from the one
    below it, so only two tables are alive at a time.  Complexity O(2^n n),
    fine for the small determinants used throughout (n <= ~10).  Zero
    entries and zero minors are skipped; a minor with no nonzero term is
    `one - one`, a zero that carries the ring's context (variable count, cap).
    Each product is `entry * minor`: an operator entry acts on the rows below.
    """
    n = len(mat)
    zero = one - one
    minors = {(): one}
    for row in range(n - 1, -1, -1):
        above = {}
        for cols in combinations(range(n), n - row):
            acc = None
            for pos, col in enumerate(cols):
                entry = mat[row][col]
                minor = minors[cols[:pos] + cols[pos + 1 :]]
                if not entry or not minor:
                    continue
                term = entry * minor
                if pos % 2:
                    term = -term
                acc = term if acc is None else acc + term
            above[cols] = zero if acc is None else acc
        minors = above
    return minors[tuple(range(n))]


def pair_det(centres, term, one):
    """det of the rows (T_k, T_{k-1} + T_{k+1}, ..., T_{k-n+1} + T_{k+n-1}), one per centre k."""
    n = len(centres)
    return ring_det([[term(k)] + [term(k - c) + term(k + c) for c in range(1, n)] for k in centres], one)


def spin_det(centres, term, sign, one):
    """det of the rows (T_{k-c+1} + sign * T_{k+c})_{c=1..n}, one per centre k."""
    n = len(centres)
    return ring_det([[term(k - c + 1) + sign * term(k + c) for c in range(1, n + 1)] for k in centres], one)


def orthogonal_det(centres, term, termp, factor, sign, spin, one):
    """The O(n) (and so(2m)) combination of the determinants above, over a series T_r = T_{-r}.

    `termp(r)` is T_r - T_{r+2}, `factor(s)` is the product P_s for s = +1
    or -1 (called only where the formula uses it) and `sign` is the sign of
    the label.  Even (spin false): the main determinant
    M = pair_det(centres, T) stands alone when there is no first centre or
    it is not 0 (the boundary case), else the result is
    (M + sign * P_+ P_- * pair_det(centres[1:] - 1, T')) / 2.  Spin:
    (P_+ * spin_det(centres, T, -1) + sign * P_- * spin_det(centres, T, +1)) / 2,
    the + factor with the minus-type determinant.  The sum is built first and
    halved once, exactly (`_halved` of the ring element).
    """
    if spin:
        doubled = factor(+1) * spin_det(centres, term, -1, one) + sign * (
            factor(-1) * spin_det(centres, term, +1, one))
        return doubled._halved()
    main = pair_det(centres, term, one)
    if not centres or centres[0]:
        return main
    extra = factor(+1) * factor(-1) * pair_det([c - 1 for c in centres[1:]], termp, one)
    return (main + sign * extra)._halved()

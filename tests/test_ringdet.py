import itertools

from hypothesis import given, settings, strategies as st

from superchar.laurentchars import LaurentPoly
from superchar.ringdet import ring_det

NVARS = 2


def _leibniz(mat, one):
    """det as the signed sum over permutations, inversions counted by hand."""
    n = len(mat)
    total = one - one
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = one if inversions % 2 == 0 else -one
        for i in range(n):
            term = term * mat[i][perm[i]]
        total = total + term
    return total


def _sparse_matrices(entry, zero):
    """Square matrices up to 5x5, mostly zero, with a random set of rows zeroed out."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=5))
        mat = [[draw(st.one_of(st.just(zero), st.just(zero), entry)) for _ in range(n)] for _ in range(n)]
        zero_rows = draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=2)) if n else set()
        for i in zero_rows:
            mat[i] = [zero] * n
        return mat

    return build()


_monomial = st.builds(
    lambda exps, eps, c: LaurentPoly.monomial(NVARS, exps, eps, c),
    st.tuples(*[st.integers(min_value=-2, max_value=2)] * NVARS),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=-2, max_value=2).filter(bool),
)
_laurent = st.lists(_monomial, min_size=1, max_size=2).map(lambda ms: sum(ms[1:], ms[0]))


@settings(max_examples=150, deadline=None)
@given(_sparse_matrices(st.integers(min_value=-3, max_value=3), 0))
def test_ring_det_int_matches_leibniz(mat):
    assert ring_det(mat, 1) == _leibniz(mat, 1)


@settings(max_examples=100, deadline=None)
@given(_sparse_matrices(_laurent, LaurentPoly.zero(NVARS)))
def test_ring_det_laurent_matches_leibniz(mat):
    one = LaurentPoly.const(NVARS)
    det = ring_det(mat, one)
    assert isinstance(det, LaurentPoly) and det.nvars == NVARS
    assert det == _leibniz(mat, one)
    if any(not any(row) for row in mat):
        assert det == 0


def test_ring_det_zero_row_keeps_the_ring():
    one = LaurentPoly.const(3)
    mat = [[LaurentPoly.var(3, 0), one], [LaurentPoly.zero(3), LaurentPoly.zero(3)]]
    det = ring_det(mat, one)
    assert isinstance(det, LaurentPoly) and det.nvars == 3 and det == 0
    assert ring_det([], one) is one

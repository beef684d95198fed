"""The integer elimination kernel against the Fraction / mod-p reference loop.

Every kernel routine takes and returns integer forms.  Read back with
``entries``, what it returns must be what Gauss-Jordan on scalars returns,
value for value and in the same scalar types: Fractions over Q, ints in
[0, p) over F_p; and every form it returns must be canonical, the form that
``form`` builds from those entries.  Inputs cover rectangular,
rank-deficient, all-zero and row-less matrices, rational entries up to
1e30 and primes up to 2^31 - 1.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from bcinv import _exactla as xla
from helpers import (
    ref_inverse,
    ref_left_inverse,
    ref_null_space,
    ref_rank_factorization,
    ref_rref,
    ref_right_inverse,
    ref_solve,
)

BIG = 10 ** 30
PRIMES = (2, 3, 5, 65521, 2147483629, 2147483647)

# 30 examples per property in tier-1; a hypothesis profile that asks for
# more than the library default (the ci profile in conftest.py) gets them.
_PROFILE_EXAMPLES = settings.default.max_examples
KERNEL = settings(deadline=None,
                  max_examples=_PROFILE_EXAMPLES if _PROFILE_EXAMPLES > 100 else 30)


def _entries(p):
    """Scalars of the field p (0 for Q), half of them from the edges of the range."""
    if p:
        return st.integers(0, p - 1) | st.integers(max(0, p - 3), p - 1) | st.just(0)
    size = st.integers(1, 9) | st.integers(1, BIG) | st.integers(BIG - 3, BIG)
    return st.builds(lambda sign, num, den: Fraction(sign * num, den),
                     st.sampled_from([-1, 1]), size | st.just(0), size)


def _mul(A, B, p):
    out = [[sum((a * b for a, b in zip(row, col)), Fraction(0) if not p else 0)
            for col in zip(*B)] for row in A]
    return [[v % p for v in row] for row in out] if p else out


@st.composite
def fields_and_matrices(draw, max_rows=5, max_cols=5, rows=None, cols=None, min_rows=0):
    """(p, M): M is m x n of rank at most r, possibly with zero rows."""
    p = draw(st.sampled_from((0,) + PRIMES))
    m = draw(st.integers(min_rows, max_rows)) if rows is None else rows
    n = draw(st.integers(0, max_cols)) if cols is None else cols
    r = draw(st.integers(0, min(m, n)))
    entry = _entries(p)
    left = [[draw(entry) for _ in range(r)] for _ in range(m)]
    right = [[draw(entry) for _ in range(n)] for _ in range(r)]
    M = _mul(left, right, p) if r else [[Fraction(0) if not p else 0] * n for _ in range(m)]
    zero_rows = draw(st.sets(st.integers(0, max(m - 1, 0)), max_size=m))
    for i in zero_rows:
        M[i] = [Fraction(0) if not p else 0] * n
    return p, M


def _same(got, want, p):
    """got, a form or None, is canonical and holds want's values in the field's scalar type."""
    if got is None or want is None:
        return got is None and want is None
    rows = xla.entries(got, p)
    kind = int if p else Fraction
    return (rows == want and all(type(v) is kind for row in rows for v in row)
            and (not rows or got == xla.form(rows, p)))


@KERNEL
@given(fields_and_matrices())
def test_rref_rank_and_null_space_match_reference(case):
    p, M = case
    F = xla.form(M, p)
    n = len(M[0]) if M else 0
    # The pivot rows of [R | E], each divided by its pivot entry: the
    # reduced rows of M and of the transform E with E*M equal to them.
    rows, pivots, width = xla._reduce(F, p, with_E=True)
    RE = xla._pivot_rows(rows, pivots, 0, p)
    R_ref, pivots_ref, E_ref = ref_rref(M, p)
    r = len(pivots_ref)
    assert pivots == pivots_ref and width == n
    assert _same(RE, [R_row + E_row for R_row, E_row in zip(R_ref[:r], E_ref[:r])], p)
    assert all(not any(row) for row in R_ref[r:])
    assert xla.rank(F, p) == r
    vecs = ref_null_space(M, p)
    want = [list(row) for row in zip(*vecs)] if vecs else [[] for _ in range(n)]
    assert _same(xla.null_space(F, n, p), want, p)
    if not M:
        # A form without rows has lost its column count; null_space takes it.
        one = 1 if p else Fraction(1)
        assert xla.entries(xla.null_space(F, 3, p), p) == [
            [one if i == j else 0 * one for j in range(3)] for i in range(3)]


@KERNEL
@given(fields_and_matrices(min_rows=1), st.data())
def test_solve_matches_reference(case, data):
    p, A = case
    w = data.draw(st.integers(0, 3))
    entry = _entries(p)
    if data.draw(st.booleans()) and A[0]:
        # a consistent right-hand side A X
        X = [[data.draw(entry) for _ in range(w)] for _ in range(len(A[0]))]
        B = _mul(A, X, p) if w else [[] for _ in A]
    else:
        B = [[data.draw(entry) for _ in range(w)] for _ in A]
    got = xla.solve(xla.form(A, p), xla.form(B, p), p)
    assert _same(got, ref_solve(A, B, p), p)


@KERNEL
@given(st.integers(0, 5).flatmap(lambda k: fields_and_matrices(rows=k, cols=k)))
def test_inverse_matches_reference(case):
    p, A = case
    assert _same(xla.form_inverse(xla.form(A, p), p), ref_inverse(A, p), p)


@KERNEL
@given(fields_and_matrices())
def test_rank_factorization_and_one_sided_inverses_match_reference(case):
    p, A = case
    B, C = xla.form_rank_factorization(xla.form(A, p), p)
    B_ref, C_ref = ref_rank_factorization(A, p)
    assert xla.entries(B, p) == B_ref and _same(C, C_ref, p)
    if C_ref:
        assert _same(B, B_ref, p)
        assert _same(xla.form_left_inverse(B, p), ref_left_inverse(B_ref, p), p)
        assert _same(xla.form_right_inverse(C, p), ref_right_inverse(C_ref, p), p)


@KERNEL
@given(st.sampled_from((0,) + PRIMES).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(1, 5), st.integers(1, 5),
                        st.integers(1, 5), st.data())))
def test_products_match_scalar_sums(case):
    p, m, t, n, data = case
    entry = _entries(p)
    A = [[data.draw(entry) for _ in range(t)] for _ in range(m)]
    B = [[data.draw(entry) for _ in range(n)] for _ in range(t)]
    FA, FB = xla.form(A, p), xla.form(B, p)
    assert _same(xla.form_mul(FA, FB, p), _mul(A, B, p), p)
    kron = [[x * y % p if p else x * y for x in ra for y in rb] for ra in A for rb in B]
    assert _same(xla.form_kron(FA, FB, p), kron, p)
    below = [[data.draw(entry) for _ in range(t)] for _ in range(n)]
    assert _same(xla.form_vstack(FA, xla.form(below, p)), A + below, p)
    beside = [[data.draw(entry) for _ in range(n)] for _ in range(m)]
    assert _same(xla.form_hstack(FA, xla.form(beside, p)), [x + y for x, y in zip(A, beside)], p)
    flat = [v for row in A for v in row]
    assert _same(xla.form_reshape(FA, 1), [[v] for v in flat], p)
    assert xla.form_reshape(xla.form_reshape(FA, 1), t) == FA

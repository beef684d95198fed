"""Exact routes on MFp and Q against the defining equations and the reference kernels.

Instances are drawn on Q:k and MFp:p:k (k = 2-5, p in 2, 3, 65521 and
2^31 - 1).  b and c are products of k x r and r x k factors, so their ranks
are at most r and often equal.  Every bc_inverse method must give the same
answer (the exhaustive scan only on rings of at most 256 elements), and that
answer, the group, hybrid, annihilator and pql outer inverses, invert,
unit_consistency and the four ideal sides are checked against their
definitions, with ranks and inverses from the Fraction / mod-p Gauss-Jordan
loop in helpers.py.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bcinv import (
    CornerFrame,
    InverseAbsent,
    RingDescriptor,
    annihilator_inverse,
    bc_inverse,
    group_inverse,
    hybrid_inverse,
    ideal,
    invert,
    is_unit,
    outer_inverse_pql,
    unit_consistency,
)
from helpers import ref_inverse, ref_rref

PRIMES = (2, 3, 65521, 2147483647)
SIDES = ("image-right", "image-left", "kernel-right", "kernel-left")
EXHAUSTIVE_SIZE = 256

# 30 examples in tier-1; a hypothesis profile that asks for more than the
# library default (the ci profile in conftest.py) gets them.
_PROFILE_EXAMPLES = settings.default.max_examples
ROUTES = settings(deadline=None, derandomize=True,
                  max_examples=_PROFILE_EXAMPLES if _PROFILE_EXAMPLES > 100 else 30)


def _scalar(p):
    return int if p else Fraction


def _mul(p, *ms):
    out = ms[0]
    for m in ms[1:]:
        out = [[sum(x * y for x, y in zip(row, col)) for col in zip(*m)] for row in out]
        out = [[_scalar(p)(v % p if p else v) for v in row] for row in out]
    return out


def _rank(p, m):
    return len(ref_rref(m, p)[1])


def _hstack(*ms):
    return [sum((list(m[i]) for m in ms), []) for i in range(len(ms[0]))]


def _vstack(*ms):
    return [list(row) for m in ms for row in m]


def _identity(p, k):
    return [[_scalar(p)(int(i == j)) for j in range(k)] for i in range(k)]


def _sub(p, x, y):
    return [[(u - v) % p if p else u - v for u, v in zip(rx, ry)] for rx, ry in zip(x, y)]


def _same_columns(p, x, y):
    """Whether x and y have the same column space."""
    return _rank(p, _hstack(x, y)) == _rank(p, x) == _rank(p, y)


def _same_rows(p, x, y):
    """Whether x and y have the same row space."""
    return _rank(p, _vstack(x, y)) == _rank(p, x) == _rank(p, y)


def _rows(value):
    return value.payload.tolist()


def _or_none(fn, *args):
    try:
        return fn(*args)
    except InverseAbsent:
        return None


@st.composite
def instances(draw):
    """(ring, p, a, b, c): entry rows, with b and c of rank at most r."""
    p = draw(st.sampled_from((0,) + PRIMES))
    k = draw(st.integers(2, 5))
    r = draw(st.integers(0, k))
    if p:
        entry = st.integers(0, min(p - 1, 3)) | st.integers(0, p - 1)
    else:
        entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    ring = RingDescriptor.matrices_over_prime(p, k) if p else RingDescriptor.rational_matrices(k)

    def matrix(rows, cols):
        return [[_scalar(p)(draw(entry)) for _ in range(cols)] for _ in range(rows)]

    def product():
        if r == 0:
            return [[_scalar(p)(0)] * k for _ in range(k)]
        return _mul(p, matrix(k, r), matrix(r, k))

    return ring, p, matrix(k, k), product(), product()


def _check_outer(p, a, y, image, kernel):
    """y is an outer inverse of a whose column space is image's and whose
    null space is the column space of kernel."""
    assert _mul(p, y, a, y) == y
    assert _same_columns(p, y, image)
    k = len(a)
    assert _mul(p, y, kernel) == [[_scalar(p)(0)] * len(kernel[0]) for _ in range(k)]
    assert _rank(p, y) + _rank(p, kernel) == k


@ROUTES
@given(instances())
def test_exact_routes_agree_with_the_definitions(case):
    ring, p, a, b, c = case
    A, B, C = (ring.element(m) for m in (a, b, c))
    frame = CornerFrame.make(B, C)

    # The (b,c)-inverse: every method, against the rank criterion and the
    # defining equations (y in bRy and yRc: y's column space is b's, its
    # row space c's).
    methods = ["factor", "group", "corner"]
    if ring.kind == "MFp" and ring.size <= EXHAUSTIVE_SIZE:
        methods.append("exhaustive")
    answers = [_or_none(bc_inverse, A, frame, m) for m in methods]
    assert all(ans == answers[0] for ans in answers[1:]), methods
    y = answers[0]
    rb, rc = _rank(p, b), _rank(p, c)
    assert (y is not None) == (rb == rc == _rank(p, _mul(p, c, a, b)))
    if y is not None:
        yr = _rows(y)
        assert _mul(p, yr, a, b) == b and _mul(p, c, a, yr) == c
        assert _same_columns(p, yr, b) and _same_rows(p, yr, c)
        # Over a field b and c are regular, so both equal the (b,c)-inverse.
        assert hybrid_inverse(A, B, C) == y and annihilator_inverse(A, B, C) == y
        assert unit_consistency(A, frame) == (rb == rc == ring.k)
    else:
        for route in (hybrid_inverse, annihilator_inverse):
            with pytest.raises(InverseAbsent):
                route(A, B, C)

    # Group inverses of a and of a*b.
    for x in (a, _mul(p, a, b)):
        g = _or_none(group_inverse, ring.element(x))
        assert (g is not None) == (_rank(p, _mul(p, x, x)) == _rank(p, x))
        if g is not None:
            gr = _rows(g)
            assert _mul(p, x, gr, x) == x and _mul(p, gr, x, gr) == gr
            assert _mul(p, x, gr) == _mul(p, gr, x)

    # The outer inverse with image pR and right kernel qR.
    P, Q = frame.p, frame.q
    pr, qr = _rows(P), _rows(Q)
    one_minus_q = _sub(p, _identity(p, ring.k), qr)
    z = _or_none(outer_inverse_pql, A, P, Q)
    exists = _rank(p, pr) == _rank(p, one_minus_q) == _rank(p, _mul(p, one_minus_q, a, pr))
    assert (z is not None) == exists
    if z is not None:
        _check_outer(p, a, _rows(z), pr, qr)

    # Units.
    inv = ref_inverse(a, p)
    assert is_unit(A) == (inv is not None)
    if inv is not None:
        assert _rows(invert(A)) == inv

    # Ideals: image-right and kernel-left ideals are equal iff the column
    # spaces are, image-left and kernel-right ones iff the row spaces are.
    for x, w in ((b, c), (a, b), (b, b)):
        X, W = ring.element(x), ring.element(w)
        for side in SIDES:
            by_columns = side in ("image-right", "kernel-left")
            same = (_same_columns if by_columns else _same_rows)(p, x, w)
            assert (ideal(X, side) == ideal(W, side)) == same, side


# A Q:6 instance with b and c of rank 2 (the job of
# test_exact_job_eliminates_b_and_c_once) and an MFp:65521:4 one of rank 2.
Q6_INSTANCE = (
    [[-3, 2, 0, -2, 3, 1], [0, -2, 3, 1, -1, -3], [3, 1, -1, -3, 2, 0],
     [-1, -3, 2, 0, -2, 3], [2, 0, -2, 3, 1, -1], [-2, 3, 1, -1, -3, 2]],
    [[1, 0, 2, 0, -1, 1], [0, 1, 1, -1, 0, 2], [1, 1, 3, -1, -1, 3],
     [0, 0, 0, 0, 0, 0], [1, -1, 1, 1, -1, -1], [0, 2, 2, -2, 0, 4]],
    [[2, 1, 0, 0, 1, -1], [0, 0, 0, 0, 0, 0], [0, 0, 1, 1, -1, 1],
     [2, 1, 1, 1, 0, 0], [2, 1, -2, -2, 3, -3], [0, 0, 1, 1, -1, 1]],
)
MFP4_INSTANCE = (
    [[1, 2, 65518, 2], [0, 0, 1, 65520], [3, 65518, 65519, 65520], [0, 65520, 65518, 65518]],
    [[12, 65512, 0, 65506], [65519, 9, 10, 0], [2, 3, 6, 65517], [0, 65515, 65513, 2]],
    [[65513, 65518, 65514, 9], [3, 0, 3, 65519], [2, 3, 1, 65516], [6, 65512, 9, 7]],
)


@pytest.mark.parametrize("ring, rows", [
    (RingDescriptor.rational_matrices(6), Q6_INSTANCE),
    (RingDescriptor.matrices_over_prime(65521, 4), MFP4_INSTANCE),
], ids=["Q:6", "MFp:65521:4"])
def test_exact_routes_build_no_fractions(monkeypatch, ring, rows):
    # Fractions are built only where a payload is read: every route below,
    # and the constructors they call, run on integer forms.
    a, b, c = (ring.element(m) for m in rows)
    frame = CornerFrame.make(b, c)
    made = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *args, **kw: made.append(1) or new(cls, *args, **kw))
    p, one_minus_p = frame.p, ring.one() - frame.p
    ys = [bc_inverse(a, frame, method) for method in ("factor", "group", "corner")]
    others = [group_inverse(a), group_inverse(a * b), hybrid_inverse(a, b, c),
              annihilator_inverse(a, b, c), outer_inverse_pql(a, p, one_minus_p), invert(a)]
    consistent = unit_consistency(a, frame)
    ideals_equal = [ideal(x, side) == ideal(w, side)
                    for x, w in ((b, c), (ys[0], b)) for side in SIDES]
    count = len(made)
    monkeypatch.undo()
    assert count == 0
    assert ys[1] == ys[0] and ys[2] == ys[0] and others[2] == ys[0] and others[3] == ys[0]
    assert not consistent and ideals_equal[4] and others[5] * a == ring.one()

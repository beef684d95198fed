"""Ring backends: arithmetic, units, inner inverses, ideals, factorizations."""

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from bcinv import (
    CornerFrame,
    DimensionMismatch,
    NotInvertible,
    NotRegular,
    RingDescriptor,
    RingMismatch,
    bc_inverse,
    canonical_inner_inverse,
    ideal,
    inner_inverses,
    invert,
    is_idempotent,
    is_unit,
    normalized_inner_inverse,
    rank_factorization,
    values_equal,
)
from helpers import zn_inner_inverses

Z6 = RingDescriptor.modular(6)
Z12 = RingDescriptor.modular(12)
R2 = RingDescriptor.float_matrices(2, tol=1e-12)
Q2 = RingDescriptor.rational_matrices(2)
M2F2 = RingDescriptor.matrices_over_prime(2, 2)
Q6 = RingDescriptor.rational_matrices(6)

# a, b (rank 5) and c with entries in [-3, 3]; with int64 numerators the
# corner route overflowed and reported no inverse.
Q6_INT64_INSTANCE = (
    [[3, 1, -1, -2, -3, -1], [-1, 2, -1, 0, -3, -1], [1, 2, -2, 3, 2, 0],
     [0, 0, -3, 2, 0, -3], [0, -1, 2, 1, -1, 3], [-2, 1, -1, 1, 2, 3]],
    [[0, -1, 3, 1, -1, 0], [-1, 0, 0, 0, 0, 3], [-3, 0, 1, -1, 0, -3],
     [-1, -2, -1, -3, -2, 0], [3, -1, -3, 2, -1, 2], [0, 0, 1, -1, 0, 2]],
    [[-1, 3, 2, 1, 3, 2], [-3, -3, -2, 3, -3, -2], [0, 1, 0, 1, 3, -2],
     [1, -2, 0, 2, 2, 3], [0, -1, 0, -3, -2, 2], [-3, 0, 0, 1, 1, 0]],
)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        RingDescriptor.modular(1)
    with pytest.raises(ValueError):
        RingDescriptor.matrices_over_prime(4, 2)
    with pytest.raises(ValueError):
        RingDescriptor.float_matrices(2, tol=0.0)


def test_modular_arithmetic_examples():
    five = Z6.element(5)
    assert five * five == Z6.element(1)                     # 25 mod 6
    assert Z6.element(4) + Z6.element(3) == Z6.element(1)
    assert (five == five) is True


def test_float_equality_tolerance():
    a = R2.element(np.eye(2))
    b = R2.element(np.eye(2) + 1e-20 * np.ones((2, 2)))
    assert (a == b) is True
    assert not values_equal(a, R2.element(2 * np.eye(2)))


def test_ring_mismatch_and_shape_errors():
    with pytest.raises(RingMismatch):
        Z6.element(1) + Z12.element(1)
    with pytest.raises(DimensionMismatch):
        R2.element(np.eye(3))


def test_ring_mismatch_names_tolerances_when_names_agree():
    fine = RingDescriptor.float_matrices(2, tol=1e-9)
    coarse = RingDescriptor.float_matrices(2, tol=1e-7)
    assert fine.name == coarse.name == "R:2"
    with pytest.raises(RingMismatch, match=r"R:2 \(tol 1e-09.*R:2 \(tol 1e-07"):
        fine.one() + coarse.one()
    with pytest.raises(RingMismatch, match=r"R:2 \(tol 1e-09.*R:2 \(tol 1e-07"):
        coarse.element(fine.one())
    with pytest.raises(RingMismatch, match=r"R:2 \(tol 1e-09.*R:2 \(tol 1e-07"):
        values_equal(fine.one(), coarse.one())
    with pytest.raises(RingMismatch, match=r"^mixed rings Zn:6 and Zn:12$"):
        Z6.element(1) + Z12.element(1)


def test_idempotents_and_units():
    # 4*4 = 16 = 4 mod 6
    assert is_idempotent(Z6.element(4))
    assert is_idempotent(Z6.element(1))
    assert not is_idempotent(Z6.element(2))
    # 5*5 = 25 = 1 mod 6
    assert invert(Z6.element(5)) == Z6.element(5)
    assert is_unit(Z6.element(5))
    with pytest.raises(NotInvertible):
        invert(Z6.element(2))
    with pytest.raises(NotInvertible):
        invert(R2.element([[1.0, 0.0], [0.0, 0.0]]))


def test_inner_inverses_z6():
    expected = zn_inner_inverses(6, 2)
    assert expected == [2, 5]
    got = sorted(v.payload for v in inner_inverses(Z6.element(2)))
    assert got == expected
    assert Z6.element(1) in inner_inverses(Z6.element(1))
    assert len(inner_inverses(Z6.element(0))) == 6      # 0*g*0 = 0 always
    with pytest.raises(NotRegular):
        inner_inverses(Z12.element(2))


def test_canonical_inner_inverse():
    g = canonical_inner_inverse(Z6.element(2))
    assert g.payload == 2                                # first hit in order
    b = R2.element([[1.0, 1.0], [1.0, 1.0]])
    g = canonical_inner_inverse(b)
    assert np.allclose((b * g * b).payload, b.payload)
    bq = Q2.element([[1, 1], [1, 1]])
    gq = canonical_inner_inverse(bq)
    assert bq * gq * bq == bq


def test_normalized_inner_inverse():
    # 5*2*5 = 50 = 2 mod 6
    assert normalized_inner_inverse(Z6.element(2), Z6.element(5)) == Z6.element(2)
    b = Z6.element(5)
    assert normalized_inner_inverse(b, invert(b)) == invert(b)
    assert normalized_inner_inverse(Z6.element(0), Z6.element(3)) == Z6.element(0)
    with pytest.raises(Exception):
        normalized_inner_inverse(Z6.element(2), Z6.element(1))
    w = normalized_inner_inverse(Z6.element(2), Z6.element(5))
    assert Z6.element(2) * w * Z6.element(2) == Z6.element(2)
    assert w * Z6.element(2) * w == w


def test_ideals_finite():
    img = ideal(Z6.element(2), "image-right")
    assert img.elements == frozenset({0, 2, 4})
    assert ideal(Z6.element(1), "image-right").elements == frozenset(range(6))
    assert ideal(Z6.element(0), "kernel-right").elements == frozenset(range(6))
    assert img.contains(Z6.element(4))
    assert not img.contains(Z6.element(3))


def test_ideals_matrix_membership_matches_definition():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = R2.element(rng.standard_normal((2, 2)) * rng.integers(0, 2, (2, 2)))
        img = ideal(x, "image-right")
        member = x * R2.element(rng.standard_normal((2, 2)))
        assert img.contains(member)
        # definitional check: m in xR iff x t = m is solvable
        probe = R2.element(rng.standard_normal((2, 2)))
        t, *_ = np.linalg.lstsq(x.payload, probe.payload, rcond=None)
        solvable = np.linalg.norm(x.payload @ t - probe.payload) < 1e-9
        assert img.contains(probe) == solvable
    xq = Q2.element([[1, 0], [1, 0]])
    img = ideal(xq, "image-right")
    assert img.contains(Q2.element([[2, 3], [2, 3]]))
    assert not img.contains(Q2.element([[1, 0], [0, 1]]))
    ker = ideal(xq, "kernel-right")
    assert ker.contains(Q2.element([[0, 0], [0, 1]]))    # x @ e22 = 0


def test_ideal_comparisons():
    a = ideal(Z6.element(2), "image-right")
    b = ideal(Z6.element(4), "image-right")
    assert a == b                                        # 2Z6 = 4Z6 = {0,2,4}
    assert a.issubset(ideal(Z6.element(1), "image-right"))
    with pytest.raises(ValueError):
        a == ideal(Z6.element(2), "image-left")


def test_rank_factorization_examples():
    B, C = rank_factorization(R2.element(np.diag([2.0, 0.0])))
    assert B.shape[1] == 1 and C.shape[0] == 1
    assert np.allclose(B @ C, np.diag([2.0, 0.0]))
    B, C = rank_factorization(R2.element(np.zeros((2, 2))))
    assert B.shape[1] == 0
    assert np.allclose(B @ C, np.zeros((2, 2)))
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    B, C = rank_factorization(R2.element(a))
    assert B.shape[1] == 1
    assert np.linalg.norm(B @ C - a) <= 1e-12
    Bq, Cq = rank_factorization(Q2.element([[1, 1], [1, 1]]))
    assert Bq.shape == (2, 1)
    assert np.all(Bq @ Cq == Q2.element([[1, 1], [1, 1]]).payload)


def test_rank_factorization_full_column_row_rank():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n, r = 5, int(rng.integers(1, 5))
        x = RingDescriptor.float_matrices(5).element(
            rng.standard_normal((5, r)) @ rng.standard_normal((r, 5)))
        B, C = rank_factorization(x)
        assert np.linalg.matrix_rank(B) == B.shape[1]
        assert np.linalg.matrix_rank(C) == C.shape[0]
        assert np.linalg.norm(B @ C - x.payload) <= 1e-10 * (1 + np.linalg.norm(x.payload))


@pytest.mark.parametrize("ring", [RingDescriptor.modular(4), Z6, M2F2])
def test_ring_axioms_exhaustive_small(ring):
    elems = list(ring.elements())
    one, zero = ring.one(), ring.zero()
    for x in elems:
        assert x * one == x and one * x == x
        assert x + zero == x
        assert x + (-x) == zero
    for x in elems:
        for y in elems:
            for z in elems:
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z
                assert (x + y) * z == x * z + y * z


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 40), st.data())
def test_ring_axioms_modular_random(n, data):
    ring = RingDescriptor.modular(n)
    x = ring.element(data.draw(st.integers(0, n - 1)))
    y = ring.element(data.draw(st.integers(0, n - 1)))
    z = ring.element(data.draw(st.integers(0, n - 1)))
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x


def test_float_axioms_at_tolerance():
    rng = np.random.default_rng(11)
    ring = RingDescriptor.float_matrices(4)
    for _ in range(25):
        x = ring.element(rng.standard_normal((4, 4)))
        y = ring.element(rng.standard_normal((4, 4)))
        z = ring.element(rng.standard_normal((4, 4)))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_inner_inverse_residuals():
    for b in Z6.elements():
        for g in inner_inverses(b):
            assert b * g * b == b
    rng = np.random.default_rng(5)
    ring = RingDescriptor.float_matrices(4)
    for _ in range(10):
        r = int(rng.integers(0, 5))
        b = ring.element(rng.standard_normal((4, r)) @ rng.standard_normal((r, 4))
                         if r else np.zeros((4, 4)))
        (g,) = inner_inverses(b)
        resid = np.linalg.norm((b * g * b).payload - b.payload)
        assert resid <= 1e-9 * (1 + np.linalg.norm(b.payload))


def test_enumeration_order_is_stable():
    first = [v.key() for v in M2F2.elements()]
    second = [v.key() for v in M2F2.elements()]
    assert first == second
    assert first[0] == (0, 0, 0, 0)
    assert len(set(first)) == 16


def test_rational_entries_are_python_ints():
    # A numpy int64 inside a Fraction overflows silently in elimination.
    a, b, c = (Q6.element(np.array(m, dtype=np.int64)) for m in Q6_INT64_INSTANCE)
    for x in (a, b, c):
        assert all(type(f.numerator) is int and type(f.denominator) is int
                   for f in x.payload.reshape(-1))
    frame = CornerFrame.make(b, c)
    assert bc_inverse(a, frame, "corner") == bc_inverse(a, frame, "factor")


def test_scalar_embedding_and_transpose():
    two = Q2.scalar(Fraction(1, 2))
    assert two.payload[0, 0] == Fraction(1, 2)
    assert two.payload[0, 1] == Fraction(0)
    m = R2.element([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(m.transpose().payload, [[1.0, 3.0], [2.0, 4.0]])
    assert (1 - R2.unit_matrix(0, 0)) == R2.element([[0.0, 0.0], [0.0, 1.0]])

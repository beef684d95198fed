"""Ring backends: arithmetic, units, inner inverses, ideals, factorizations."""

import math

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import assume, given, settings, strategies as st

from bcinv import (
    CornerFrame,
    DimensionMismatch,
    InverseAbsent,
    NotInvertible,
    PreconditionFailed,
    RingDescriptor,
    RingMismatch,
    RingValue,
    bc_inverse,
    canonical_inner_inverse,
    ideal,
    invert,
    is_idempotent,
    is_unit,
    normalized_inner_inverse,
    rank_factorization,
    values_equal,
    verify_bc_inverse,
)
from bcinv.rings import _is_prime, _spectral_norm, _wrap
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


def test_primality_matches_trial_division():
    for p in range(10 ** 4):
        trial = p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))
        assert _is_prime(p) == trial, p


def test_primality_rejects_pseudoprimes_and_refuses_large_p():
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to the
    # bases 2, 3, 5, 7 and 3825123056546413051 to every prime base up to 31.
    for composite in (561, 3215031751, 3825123056546413051):
        assert not _is_prime(composite)
    assert _is_prime(2 ** 31 - 1) and _is_prime(2 ** 61 - 1)
    assert RingDescriptor.matrices_over_prime(2 ** 31 - 1, 4).p == 2 ** 31 - 1
    with pytest.raises(ValueError, match="too large"):
        RingDescriptor.matrices_over_prime(2 ** 89 - 1, 2)


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
    def members(ideal_):
        return {m for m in range(6) if ideal_.contains(Z6.element(m))}

    img = ideal(Z6.element(2), "image-right")
    assert members(img) == {0, 2, 4}
    assert members(ideal(Z6.element(1), "image-right")) == set(range(6))
    assert members(ideal(Z6.element(0), "kernel-right")) == set(range(6))
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


def test_spectral_norm_is_numpys_2_norm_bit_for_bit():
    from bcinv.analytic import _spectral_norm
    rng = np.random.default_rng(7)
    shapes = [(1, 1), (2, 2), (3, 5), (5, 3), (4, 4), (7, 2), (16, 16), (32, 32)]
    arrays = [np.zeros((4, 4))] + [rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7)
                                   for shape in shapes for _ in range(5)]
    for x in arrays:
        want = float(np.linalg.norm(x, 2)).hex()
        assert _spectral_norm(x).hex() == want
        if x.shape[0] == x.shape[1]:
            assert RingDescriptor.float_matrices(x.shape[0]).element(x).norm().hex() == want
    for ring in (M2F2, Q2):
        x = ring.element([[1, 1], [0, 1]])
        assert x.norm() == float(np.linalg.norm(np.asarray(x.payload, dtype=float), 2))


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


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 251, 65521, 2147483629, 2147483647]),
       st.integers(1, 4), st.data())
def test_prime_matrix_arithmetic_matches_plain_ints(p, k, data):
    # Entries near p overflow int64 in a product once k p^2 passes 2^63, so
    # half the draws come from the top of the range.
    entry = st.integers(0, p - 1) | st.integers(max(0, p - 3), p - 1)
    entries = st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k)
    xs, ys = data.draw(entries), data.draw(entries)
    ring = RingDescriptor.matrices_over_prime(p, k)
    x, y = ring.element(xs), ring.element(ys)

    def plain(value):
        return [[int(v) for v in row] for row in value.payload]

    assert plain(x * y) == [[sum(xs[i][t] * ys[t][j] for t in range(k)) % p
                             for j in range(k)] for i in range(k)]
    assert plain(x + y) == [[(xs[i][j] + ys[i][j]) % p for j in range(k)]
                            for i in range(k)]
    assert plain(-x) == [[-xs[i][j] % p for j in range(k)] for i in range(k)]


def test_prime_matrix_product_of_large_entries_is_exact():
    ring = RingDescriptor.matrices_over_prime(2147483647, 4)
    x = ring.element(np.full((4, 4), 2147483646))
    assert x * x == ring.element(np.full((4, 4), 4))      # (-1)(-1) summed 4 times


BIG = 10 ** 30


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.data())
def test_rational_matrices_with_large_entries_are_exact(k, data):
    # Numerators and denominators up to 1e30, half of them from the top of
    # the range: far past int64 and float precision.
    size = st.integers(1, BIG) | st.integers(BIG - 3, BIG)
    entry = st.builds(lambda sign, num, den: Fraction(sign * num, den),
                      st.sampled_from([-1, 1]), size | st.just(0), size)
    entries = st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k)
    xs, ys = data.draw(entries), data.draw(entries)
    ring = RingDescriptor.rational_matrices(k)
    x, y = ring.element(xs), ring.element(ys)
    assert (x * y).payload.tolist() == [[sum(xs[i][t] * ys[t][j] for t in range(k))
                                         for j in range(k)] for i in range(k)]
    assert (x + y).payload.tolist() == [[xs[i][j] + ys[i][j] for j in range(k)]
                                        for i in range(k)]
    # a (b,c)-inverse on a frame of rank r built from the same entries
    r = data.draw(st.integers(1, k))
    b = ring.element(np.array(xs, dtype=object)[:, :r] @ np.array(ys, dtype=object)[:r, :])
    c = ring.element(np.array(ys, dtype=object)[:, :r] @ np.array(xs, dtype=object)[:r, :])
    a = ring.element(data.draw(entries))
    frame = CornerFrame.make(b, c)
    try:
        inverse = bc_inverse(a, frame)
    except InverseAbsent:
        assume(False)
    assert verify_bc_inverse(a, frame, inverse).verdict is True


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
        inner = zn_inner_inverses(6, b.payload)
        for g in inner:
            assert b * Z6.element(g) * b == b
        assert canonical_inner_inverse(b).payload in inner
    rng = np.random.default_rng(5)
    ring = RingDescriptor.float_matrices(4)
    for _ in range(10):
        r = int(rng.integers(0, 5))
        b = ring.element(rng.standard_normal((4, r)) @ rng.standard_normal((r, 4))
                         if r else np.zeros((4, 4)))
        g = canonical_inner_inverse(b)
        resid = np.linalg.norm((b * g * b).payload - b.payload)
        assert resid <= 1e-9 * (1 + np.linalg.norm(b.payload))


def test_enumeration_order_is_stable():
    first = [v.key() for v in M2F2.elements()]
    second = [v.key() for v in M2F2.elements()]
    assert first == second
    assert first[0] == (0, 0, 0, 0)
    assert len(set(first)) == 16


def test_float_backend_rejects_non_finite_entries():
    with pytest.raises(PreconditionFailed, match=r"entry \(1, 2\) is nan"):
        R2.element([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(PreconditionFailed, match=r"entry \(2, 1\) is -inf"):
        R2.element(np.array([[1.0, 0.0], [-np.inf, 1.0]]))
    with pytest.raises(PreconditionFailed, match=r"entry \(1, 1\) is inf"):
        R2.scalar(np.inf)


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


R5 = RingDescriptor.float_matrices(5)


def _float_values():
    """One float value from each construction path, paired with its name."""
    rng = np.random.default_rng(71)
    x = R5.element(rng.standard_normal((5, 5)))
    y = R5.element(rng.standard_normal((5, 5)))
    return {"element": x, "scalar": R5.scalar(2.5), "zero": R5.zero(), "one": R5.one(),
            "sum": x + y, "difference": x - y, "negation": -x, "product": x * y,
            "scalar sum": x + 1.5, "transpose": x.transpose(),
            "wrap": _wrap(R5, rng.standard_normal((5, 5)))}


def test_float_values_are_read_only():
    # The kept SVD is derived from the payload, so no path may leave it writable.
    for name, x in _float_values().items():
        assert not x.payload.flags.writeable, name
        with pytest.raises(ValueError):
            x.payload[0, 0] = 1.0


def test_norm_is_the_spectral_norm_bit_for_bit(monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    for name, x in _float_values().items():
        # whether or not a factorization kept the full SVD first
        if name in ("sum", "product"):
            rank_factorization(x)
        want = float(svd(x.payload, compute_uv=False)[0])
        del calls[:]
        assert x.norm() == want, name
        assert x.norm() == want, name
        assert len(calls) == 1, name
        assert x.norm() == _spectral_norm(x.payload), name


def test_float_factorizations_share_one_svd_and_hand_out_fresh_arrays(monkeypatch):
    rng = np.random.default_rng(72)
    x = R5.element(rng.standard_normal((5, 3)) @ rng.standard_normal((3, 5)))
    B, C = rank_factorization(x)
    g = canonical_inner_inverse(x).payload.copy()
    want_B, want_C = B.copy(), C.copy()
    B[:] = 7.0
    C[:] = 7.0
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    B2, C2 = rank_factorization(x)
    assert np.array_equal(B2, want_B) and np.array_equal(C2, want_C)
    assert B2.shape == (5, 3)
    assert np.array_equal(canonical_inner_inverse(x).payload, g)
    assert calls == []              # both read the SVD kept since the first call
    assert np.allclose(B2 @ C2, x.payload)


# -- the integer form of exact values against entrywise Fraction / mod-p arithmetic

EXACT_PRIMES = (2, 3, 65521, 2147483647)
BIG = 10 ** 30

# 60 examples in tier-1; a hypothesis profile that asks for more than the
# library default (the ci profile in conftest.py) gets them.
_PROFILE_EXAMPLES = settings.default.max_examples
EXACT_FORM = settings(deadline=None,
                      max_examples=_PROFILE_EXAMPLES if _PROFILE_EXAMPLES > 100 else 60)


def _rationals():
    size = st.integers(0, 9) | st.integers(0, BIG)
    return st.builds(lambda sign, num, den: Fraction(sign * num, den),
                     st.sampled_from([-1, 1]), size, st.integers(1, 9) | st.integers(1, BIG))


@st.composite
def exact_operands(draw):
    """(ring, p, [A, B]): entry rows of Q:k (p = 0) or MFp:p:k, k = 1..4, some all zero."""
    p = draw(st.sampled_from((0,) + EXACT_PRIMES))
    k = draw(st.integers(1, 4))
    ring = RingDescriptor.matrices_over_prime(p, k) if p else RingDescriptor.rational_matrices(k)
    entry = st.integers(0, p - 1) if p else _rationals()
    scalar = int if p else Fraction
    matrices = []
    for _ in range(2):
        if draw(st.integers(0, 3)) == 0:
            matrices.append([[scalar(0)] * k for _ in range(k)])
        else:
            matrices.append([[draw(entry) for _ in range(k)] for _ in range(k)])
    return ring, p, matrices


def _has_payload(value) -> bool:
    """Whether the payload slot is filled, read without building it."""
    try:
        RingValue.payload.__get__(value)
    except AttributeError:
        return False
    return True


def _check_value(value, want, p):
    """value holds the entry rows want, with a read-only payload of reduced
    Fractions (p = 0) or ints in [0, p), and the key, hash, zero test and
    norm that those entries give."""
    arr = value.payload
    assert arr.dtype == object and arr.shape == (len(want), len(want))
    with pytest.raises(ValueError):
        arr[0, 0] = arr[0, 0]
    for v in arr.flat:
        if p:
            assert type(v) is int and 0 <= v < p
        else:
            assert type(v) is Fraction
            assert type(v.numerator) is int and type(v.denominator) is int
    assert arr.tolist() == want
    flat = [v for row in want for v in row]
    key = tuple(flat) if p else tuple((v.numerator, v.denominator) for v in flat)
    assert value.key() == key and hash(value) == hash(key)
    assert value.is_zero() == (not any(flat))
    assert value.norm() == _spectral_norm(np.array([[float(v) for v in row] for row in want]))


@EXACT_FORM
@given(exact_operands(), st.lists(st.booleans(), min_size=2, max_size=2))
def test_exact_arithmetic_matches_entrywise_fractions(case, payload_read):
    ring, p, (A, B) = case
    k = ring.k
    red = (lambda v: v % p) if p else (lambda v: v)

    def mul(X, Y):
        return [[red(sum(x * y for x, y in zip(row, col))) for col in zip(*Y)] for row in X]

    def add(X, Y, sign=1):
        return [[red(x + sign * y) for x, y in zip(rx, ry)] for rx, ry in zip(X, Y)]

    one = [[(int if p else Fraction)(1 if i == j else 0) for j in range(k)] for i in range(k)]
    # Products hold only the integer form until their payload is read.
    x, y = (ring.element(M) * ring.one() for M in (A, B))
    for value, M, read in zip((x, y), (A, B), payload_read):
        assert not _has_payload(value)
        if read:
            assert value.payload.tolist() == M
    assert not _has_payload(x * y)
    cases = {
        "x": (x, A), "x*y": (x * y, mul(A, B)), "y*x": (y * x, mul(B, A)),
        "x+y": (x + y, add(A, B)), "x-y": (x - y, add(A, B, -1)), "-x": (-x, add(A, A, -2)),
        "2*x": (2 * x, add(A, A)), "x*2": (x * 2, add(A, A)), "1-x": (1 - x, add(one, A, -1)),
        "x-1": (x - 1, add(A, one, -1)), "x.T": (x.transpose(), [list(c) for c in zip(*A)]),
        "x*y*x-x": (x * y * x - x, add(mul(mul(A, B), A), A, -1)),
    }
    for name, (value, want) in cases.items():
        assert value.ring == ring, name
        _check_value(value, want, p)
    assert (x == y) == (A == B) == (y == x)
    assert x == ring.element(A) and ring.element(A) == x
    assert (x - x).is_zero() and x - x == ring.zero()
    assert (x + y) - y == x

"""Generalized inverses: worked instances, method agreement, invariants."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bcinv import (
        CornerFrame,
    InverseAbsent,
    PreconditionFailed,
    RingDescriptor,
    SingularCorner,
    annihilator_inverse,
    ats_outer_inverse,
    bc_inverse,
    bott_duffin_inverse,
    bott_duffin_split_inverse,
    build_v,
    corner_ring_inverse,
    corner_unit_membership,
    decompose_bc_invertible,
    group_inverse,
    hybrid_inverse,
    ideal,
    inverse_of_inverse,
    invert,
    outer_inverse_pql,
    perturb_invariant,
    reverse_order_law_check,
    scale_corner,
    unit_consistency,
    verify_bc_inverse,
)
from bcinv import _exactla, inverses
from helpers import (
    m2f2_bc_inverse,
    m2f2_elements,
    random_frame_instance,
    random_instance,
    rel_err,
    zn_bc_inverse,
    zn_group_inverse,
)

Z6 = RingDescriptor.modular(6)
Z12 = RingDescriptor.modular(12)
R2 = RingDescriptor.float_matrices(2)
R4 = RingDescriptor.float_matrices(4)
Q2 = RingDescriptor.rational_matrices(2)
M2F2 = RingDescriptor.matrices_over_prime(2, 2)

E11 = R2.unit_matrix(0, 0)
E22 = R2.unit_matrix(1, 1)
DIAG23 = R2.element(np.diag([2.0, 3.0]))
FRAME_E11 = CornerFrame.from_idempotents(E11, E11)

FOUR_FRAME = CornerFrame(Z6.element(4), Z6.element(4), Z6.element(4), Z6.element(4))


def test_frame_validation():
    with pytest.raises(PreconditionFailed):
        CornerFrame(Z6.element(2), Z6.element(2), Z6.element(1), Z6.element(2))
    frame = FOUR_FRAME
    assert frame.p == Z6.element(4) and frame.q == Z6.element(4)
    assert frame.p * frame.p == frame.p


def test_verify_bc_inverse_examples():
    # 2*5*4 = 40 = 4 mod 6 on both defining products
    cert = verify_bc_inverse(Z6.element(5), FOUR_FRAME, Z6.element(2))
    assert cert.verdict
    a = Z6.element(5)
    one_frame = CornerFrame(Z6.element(1), Z6.element(1), Z6.element(1), Z6.element(1))
    assert verify_bc_inverse(a, one_frame, invert(a)).verdict
    assert not verify_bc_inverse(a, FOUR_FRAME, Z6.element(0)).verdict


def test_bc_inverse_worked_instances():
    y = bc_inverse(R2.element(np.diag([2.0, 3.0])), FRAME_E11)
    assert np.allclose(y.payload, [[0.5, 0.0], [0.0, 0.0]])
    assert zn_bc_inverse(6, 5, 4, 4) == 2
    assert bc_inverse(Z6.element(5), FOUR_FRAME) == Z6.element(2)
    with pytest.raises(InverseAbsent):
        bc_inverse(R2.element([[0.0, 1.0], [1.0, 0.0]]), FRAME_E11)


def test_bc_inverse_matches_oracle_exhaustively_z6():
    for b in range(6):
        for c in range(6):
            try:
                frame = CornerFrame.make(Z6.element(b), Z6.element(c))
            except Exception:
                continue
            for a in range(6):
                expected = zn_bc_inverse(6, a, b, c)
                if expected is None:
                    with pytest.raises(InverseAbsent):
                        bc_inverse(Z6.element(a), frame)
                else:
                    for method in ("exhaustive", "corner"):
                        got = bc_inverse(Z6.element(a), frame, method)
                        assert got.payload == expected


def test_bc_inverse_matches_oracle_m2f2():
    elems = m2f2_elements()
    rng = np.random.default_rng(0)
    picks = rng.integers(0, 16, size=(30, 3))
    for ia, ib, ic in picks:
        a, b, c = elems[ia], elems[ib], elems[ic]
        expected = m2f2_bc_inverse(a, b, c)
        frame = CornerFrame.make(M2F2.element(b), M2F2.element(c))
        if expected is None:
            with pytest.raises(InverseAbsent):
                bc_inverse(M2F2.element(a), frame)
        else:
            for method in ("exhaustive", "corner", "factor", "group"):
                assert bc_inverse(M2F2.element(a), frame, method).payload.tolist() \
                    == expected.tolist()


def test_degenerate_zero_frames():
    zero = R2.zero()
    frame = CornerFrame(zero, zero, zero, zero)
    y = bc_inverse(R2.element(np.diag([2.0, 3.0])), frame)
    assert np.allclose(y.payload, 0.0)
    # one-sided zero frame admits no inverse
    mixed = CornerFrame(zero, E11, zero, E11)
    with pytest.raises(InverseAbsent):
        bc_inverse(DIAG23, mixed)


def test_build_v_examples():
    assert np.allclose(build_v(FRAME_E11).payload, E11.payload)
    b = Q2.element([[1, 0], [1, 0]])
    c = Q2.element([[1, 1], [0, 0]])
    v = build_v(CornerFrame.make(b, c))
    assert v == Q2.element([[1, 1], [1, 1]])
    ones = CornerFrame.make(R2.one(), R2.one())
    assert np.allclose(build_v(ones).payload, np.eye(2))
    # float variant keeps the span conditions even if the factors differ
    bf = R2.element([[1.0, 0.0], [1.0, 0.0]])
    cf = R2.element([[1.0, 1.0], [0.0, 0.0]])
    vf = build_v(CornerFrame.make(bf, cf))
    assert ideal(vf, "image-right") == ideal(bf, "image-right")
    assert ideal(vf, "kernel-right") == ideal(cf, "kernel-right")
    with pytest.raises(InverseAbsent):
        build_v(CornerFrame.make(E11, R2.one()))


def test_group_inverse_examples():
    g = group_inverse(R2.element(np.diag([2.0, 0.0])))
    assert np.allclose(g.payload, np.diag([0.5, 0.0]))
    a = R2.element([[1.0, 2.0], [0.0, 1.0]])
    assert np.allclose(group_inverse(a).payload, np.linalg.inv(a.payload))
    with pytest.raises(InverseAbsent):
        group_inverse(R2.element([[0.0, 1.0], [0.0, 0.0]]))
    for x in range(6):
        expected = zn_group_inverse(6, x)
        if expected is None:
            with pytest.raises(InverseAbsent):
                group_inverse(Z6.element(x))
        else:
            assert group_inverse(Z6.element(x)).payload == expected


def test_group_inverse_defining_equations_random():
    rng = np.random.default_rng(21)
    ring = RingDescriptor.float_matrices(5)
    hits = 0
    while hits < 10:
        r = int(rng.integers(1, 5))
        x = ring.element(rng.standard_normal((5, r)) @ rng.standard_normal((r, 5)))
        try:
            s = group_inverse(x)
        except InverseAbsent:
            continue
        hits += 1
        assert rel_err((x * s * x).payload, x.payload) < 1e-9
        assert rel_err((s * x * s).payload, s.payload) < 1e-9
        assert rel_err((x * s).payload, (s * x).payload) < 1e-9


def test_bott_duffin_examples():
    a = Z6.element(5)
    assert bott_duffin_inverse(a, Z6.element(1), Z6.element(1)) == invert(a)
    assert bott_duffin_inverse(a, Z6.element(4), Z6.element(4)) == Z6.element(2)
    with pytest.raises(InverseAbsent):
        bott_duffin_inverse(R2.element([[0.0, 1.0], [1.0, 0.0]]), E11, E11)
    with pytest.raises(PreconditionFailed):
        bott_duffin_inverse(a, Z6.element(2), Z6.element(4))


def test_hybrid_and_annihilator_examples():
    for fn in (hybrid_inverse, annihilator_inverse):
        y = fn(DIAG23, E11, E11)
        assert np.allclose(y.payload, 0.5 * E11.payload)
        a = R2.element([[1.0, 2.0], [1.0, 3.0]])
        assert np.allclose(fn(a, R2.one(), R2.one()).payload, np.linalg.inv(a.payload))
        assert np.allclose(fn(DIAG23, R2.zero(), R2.zero()).payload, 0.0)
    # exact backends: c = 1 has no right kernel, so the prescribed kernel is {0}
    for ring in (Q2, RingDescriptor.matrices_over_prime(5, 2)):
        a = ring.element([[1, 2], [1, 3]])
        for fn in (hybrid_inverse, annihilator_inverse):
            assert fn(a, ring.one(), ring.one()) == ring.element([[3, -2], [-1, 1]])
    # finite backend route
    assert hybrid_inverse(Z6.element(5), Z6.element(4), Z6.element(4)) == Z6.element(2)
    assert annihilator_inverse(Z6.element(5), Z6.element(4), Z6.element(4)) == Z6.element(2)


def test_outer_inverse_pql_examples():
    y = outer_inverse_pql(DIAG23, E11, E22)
    assert np.allclose(y.payload, 0.5 * E11.payload)
    a = R2.element([[2.0, 1.0], [1.0, 1.0]])
    assert np.allclose(outer_inverse_pql(a, R2.one(), R2.zero()).payload,
                       np.linalg.inv(a.payload))
    assert np.allclose(outer_inverse_pql(DIAG23, R2.zero(), R2.one()).payload, 0.0)
    with pytest.raises(PreconditionFailed):
        outer_inverse_pql(DIAG23, R2.element([[1.0, 1.0], [0.0, 0.0]]) * 2, E11)


def test_ats_outer_inverse_examples():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    y = ats_outer_inverse(DIAG23, e1, e2)
    assert np.allclose(y.payload, 0.5 * E11.payload)
    a = R2.element([[3.0, 1.0], [1.0, 1.0]])
    full = np.eye(2)
    none = np.zeros((2, 0))
    assert np.allclose(ats_outer_inverse(a, full, none).payload, np.linalg.inv(a.payload))
    with pytest.raises(InverseAbsent):
        ats_outer_inverse(R2.element([[0.0, 1.0], [0.0, 0.0]]), e1, e1)
    with pytest.raises(Exception):
        ats_outer_inverse(DIAG23, np.hstack([e1, e2]), e2)   # dim T + dim S > n


def test_ats_outer_inverse_prescribes_spaces():
    rng = np.random.default_rng(17)
    ring = RingDescriptor.float_matrices(5)
    done = 0
    while done < 10:
        t = int(rng.integers(1, 5))
        T = rng.standard_normal((5, t))
        S = rng.standard_normal((5, 5 - t))
        A = ring.element(rng.standard_normal((5, 5)))
        try:
            y = ats_outer_inverse(A, T, S)
        except InverseAbsent:
            continue
        done += 1
        assert rel_err((y * A * y).payload, y.payload) < 1e-9
        # range and kernel agree with the prescribed bases
        assert np.linalg.matrix_rank(np.hstack([y.payload, T]), tol=1e-8) == t
        assert np.linalg.norm(y.payload @ S) <= 1e-8 * (1 + np.linalg.norm(y.payload))


def test_unit_consistency_examples():
    one_frame = CornerFrame(Z6.element(1), Z6.element(1), Z6.element(1), Z6.element(1))
    assert unit_consistency(Z6.element(5), one_frame) is True
    # documented counterexample: a is a unit (5*5 = 1) yet the condition
    # fails because 4 has no right inverse mod 6
    assert unit_consistency(Z6.element(5), FOUR_FRAME) is False
    assert invert(Z6.element(5)) == Z6.element(5)
    assert unit_consistency(DIAG23, FRAME_E11) is False


def test_corner_unit_membership_examples():
    unit = corner_unit_membership(R2.element(2.0 * E11.payload), FRAME_E11)
    assert unit is not None
    assert np.allclose(unit.witness.payload, 0.5 * E11.payload)
    assert corner_unit_membership(R2.zero(), FRAME_E11) is None
    unit = corner_unit_membership(Z6.element(2), FOUR_FRAME)
    assert unit is not None and unit.witness == Z6.element(2)
    assert unit.witness * unit.element == FOUR_FRAME.p
    assert unit.element * unit.witness == FOUR_FRAME.q


def test_decompose_examples():
    unit, m = decompose_bc_invertible(Z6.element(5), FOUR_FRAME)
    assert unit.element == Z6.element(2) and m == Z6.element(3)
    assert Z6.element(4) * m * Z6.element(4) == Z6.element(0)
    unit, m = decompose_bc_invertible(Z6.element(2), FOUR_FRAME)
    assert m == Z6.element(0)
    unit, m = decompose_bc_invertible(DIAG23, FRAME_E11)
    assert np.allclose(unit.element.payload, 2.0 * E11.payload)
    assert np.allclose(m.payload, 3.0 * E22.payload)
    with pytest.raises(PreconditionFailed):
        decompose_bc_invertible(R2.element([[0.0, 1.0], [1.0, 0.0]]), FRAME_E11)


def test_perturb_invariant_examples():
    m = R2.element([[0.0, 5.0], [7.0, 9.0]])
    y = perturb_invariant(DIAG23, FRAME_E11, m)
    assert np.allclose(y.payload, 0.5 * E11.payload)
    assert perturb_invariant(DIAG23, FRAME_E11, R2.zero()) == bc_inverse(DIAG23, FRAME_E11)
    assert perturb_invariant(Z6.element(5), FOUR_FRAME, Z6.element(3)) == Z6.element(2)
    with pytest.raises(PreconditionFailed):
        perturb_invariant(DIAG23, FRAME_E11, R2.one())


def test_scale_corner_examples():
    unit = corner_unit_membership(R2.element(2.0 * E11.payload), FRAME_E11)
    u = R2.element(3.0 * E11.payload)
    v = R2.element(5.0 * E11.payload)
    y = scale_corner(unit, u, v, FRAME_E11, R2.zero())
    assert np.allclose(y.payload, (1.0 / 30.0) * E11.payload)
    y = scale_corner(unit, E11, E11, FRAME_E11, R2.zero())
    assert np.allclose(y.payload, unit.witness.payload)
    y = scale_corner(unit, u, v, FRAME_E11, E22)
    assert np.allclose(y.payload, (1.0 / 30.0) * E11.payload)
    with pytest.raises(SingularCorner):
        scale_corner(unit, R2.zero(), v, FRAME_E11, R2.zero())
    with pytest.raises(SingularCorner):
        scale_corner(unit, R2.one(), v, FRAME_E11, R2.zero())


def test_corner_ring_inverse():
    u = corner_ring_inverse(R2.element(3.0 * E11.payload), E11)
    assert np.allclose(u.payload, E11.payload / 3.0)
    assert corner_ring_inverse(Z6.element(2), Z6.element(4)) * Z6.element(2) == Z6.element(4)


def test_inverse_of_inverse_examples():
    y = inverse_of_inverse(DIAG23, FRAME_E11, R2.zero())
    assert np.allclose(y.payload, 2.0 * E11.payload)
    assert inverse_of_inverse(Z6.element(5), FOUR_FRAME, Z6.element(0)) == Z6.element(2)
    m = (1 - E11) * R2.one()
    assert np.allclose(inverse_of_inverse(DIAG23, FRAME_E11, m).payload,
                       2.0 * E11.payload)
    with pytest.raises(PreconditionFailed):
        inverse_of_inverse(DIAG23, FRAME_E11, E11)


def test_bott_duffin_split_examples():
    s = bott_duffin_split_inverse(DIAG23, E11, E11)
    assert np.allclose(s.payload, np.diag([0.5, 1.0 / 3.0]))
    a = R2.element([[1.5, 0.5], [0.5, 1.5]])
    assert np.allclose(bott_duffin_split_inverse(a, R2.one(), R2.one()).payload,
                       np.linalg.inv(a.payload))
    swap = R2.element([[0.0, 1.0], [1.0, 0.0]])
    s = bott_duffin_split_inverse(swap, E11, E22)
    assert np.allclose(s.payload, swap.payload)           # swap is its own inverse
    assert bott_duffin_split_inverse(Z6.element(5), Z6.element(4), Z6.element(4)) \
        == Z6.element(5)
    singular = R2.element(np.diag([2.0, 0.0]))
    with pytest.raises(InverseAbsent):
        bott_duffin_split_inverse(singular, E11, E11)
    with pytest.raises(PreconditionFailed):
        bott_duffin_split_inverse(swap, E11, E11)          # a*p != q*a


def test_reverse_order_examples():
    ring = R2
    one_frame = CornerFrame.make(ring.one(), ring.one())
    a1 = ring.element([[2.0, 1.0], [0.0, 1.0]])
    a2 = ring.element([[1.0, 0.0], [1.0, 3.0]])
    res = reverse_order_law_check(a1, one_frame, a2, one_frame)
    assert res.condition and res.law_holds
    assert np.allclose(res.product_inverse.payload,
                       np.linalg.inv(a2.payload) @ np.linalg.inv(a1.payload))
    a1 = ring.element([[1.0, 1.0], [0.0, 1.0]])
    a2 = ring.element([[1.0, 0.0], [1.0, 1.0]])
    res = reverse_order_law_check(a1, FRAME_E11, a2, FRAME_E11)
    assert not res.condition and not res.law_holds
    assert np.allclose(res.obstruction.payload, E11.payload)
    assert np.allclose(res.product_inverse.payload, 0.5 * E11.payload)
    res = reverse_order_law_check(DIAG23, FRAME_E11, DIAG23, FRAME_E11)
    assert res.condition and res.law_holds
    assert np.allclose(res.product_inverse.payload, 0.25 * E11.payload)
    with pytest.raises(PreconditionFailed):
        frame2 = CornerFrame.from_idempotents(E22, E22)
        reverse_order_law_check(a1, FRAME_E11, a2, frame2)


# ---------------------------------------------------------------------------
# Invariants on random float instances.
# ---------------------------------------------------------------------------


def test_methods_agree_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, n))
        a, frame = random_frame_instance(rng, n, r)
        ys = [bc_inverse(a, frame, m) for m in ("factor", "corner", "group")]
        for i in range(len(ys)):
            for j in range(i + 1, len(ys)):
                assert rel_err(ys[i].payload, ys[j].payload) <= 1e-8


def test_outer_law_and_ideal_equalities():
    rng = np.random.default_rng(43)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, n))
        a, frame = random_frame_instance(rng, n, r)
        y = bc_inverse(a, frame)
        assert rel_err((y * a * y).payload, y.payload) <= 1e-9
        assert ideal(y, "image-right") == ideal(frame.b, "image-right")
        assert ideal(y, "image-left") == ideal(frame.c, "image-left")
        assert ideal(y, "kernel-right") == ideal(frame.c, "kernel-right")
        assert ideal(y, "kernel-left") == ideal(frame.b, "kernel-left")


def test_frame_independence_floats():
    rng = np.random.default_rng(44)
    for _ in range(10):
        n, r = 5, int(rng.integers(1, 5))
        a, frame = random_frame_instance(rng, n, r)
        ring = a.ring
        M = ring.element(rng.standard_normal((n, n)) + 3.0 * np.eye(n))
        N = ring.element(rng.standard_normal((n, n)) + 3.0 * np.eye(n))
        frame2 = CornerFrame.make(frame.b * M, N * frame.c)
        assert rel_err(bc_inverse(a, frame).payload,
                       bc_inverse(a, frame2).payload) <= 1e-8


def test_frame_independence_exhaustive_z6():
    maps = {}
    for b in range(6):
        for c in range(6):
            maps[(b, c)] = {a: zn_bc_inverse(6, a, b, c) for a in range(6)}
    for b in range(6):
        for b2 in range(6):
            if set((b * m) % 6 for m in range(6)) != set((b2 * m) % 6 for m in range(6)):
                continue
            for c in range(6):
                assert maps[(b, c)] == maps[(b2, c)]


def test_coincidence_on_random_instances():
    rng = np.random.default_rng(45)
    for _ in range(10):
        n, r = 4, int(rng.integers(1, 4))
        a, b, c = random_instance(rng, n, r)
        frame = CornerFrame.make(b, c)
        y = bc_inverse(a, frame)
        assert rel_err(hybrid_inverse(a, b, c).payload, y.payload) <= 1e-8
        assert rel_err(annihilator_inverse(a, b, c).payload, y.payload) <= 1e-8


def test_kernel_characterization_gives_verdict():
    # an outer inverse whose kernels match those of (b, c) is the inverse
    rng = np.random.default_rng(46)
    ring = RingDescriptor.float_matrices(4)
    done = 0
    while done < 10:
        t = int(rng.integers(1, 4))
        T = rng.standard_normal((4, t))
        S = rng.standard_normal((4, 4 - t))
        a = ring.element(rng.standard_normal((4, 4)))
        try:
            y = ats_outer_inverse(a, T, S)
        except InverseAbsent:
            continue
        done += 1
        frame = CornerFrame.make(y, y)
        assert verify_bc_inverse(a, frame, y).verdict


def test_compression_invariance():
    rng = np.random.default_rng(47)
    for _ in range(10):
        n, r = 5, int(rng.integers(1, 5))
        a, frame = random_frame_instance(rng, n, r)
        y = bc_inverse(a, frame)
        for variant in (frame.q * a, a * frame.p, frame.q * a * frame.p):
            assert rel_err(bc_inverse(variant, frame).payload, y.payload) <= 1e-8


def test_transpose_duality():
    rng = np.random.default_rng(48)
    for _ in range(10):
        n, r = 5, int(rng.integers(1, 5))
        a, frame = random_frame_instance(rng, n, r)
        y = bc_inverse(a, frame)
        yt = bc_inverse(a.transpose(), frame.transposed())
        assert rel_err(yt.transpose().payload, y.payload) <= 1e-8


def test_regularity_necessity_z12():
    # whenever an inverse exists, b and c must have inner inverses
    for b in range(12):
        for c in range(12):
            for a in range(12):
                if zn_bc_inverse(12, a, b, c) is not None:
                    assert [g for g in range(12) if (b * g * b) % 12 == b % 12]
                    assert [h for h in range(12) if (c * h * c) % 12 == c % 12]
                    break


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.data())
def test_uniqueness_and_outer_property(n, data):
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, n - 1))
    y = zn_bc_inverse(n, a, b, c)       # oracle asserts uniqueness internally
    if y is not None:
        assert (y * a * y) % n == y % n


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 10), st.data())
def test_perturbation_invariance_modular(n, data):
    ring = RingDescriptor.modular(n)
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, n - 1))
    try:
        frame = CornerFrame.make(ring.element(b), ring.element(c))
    except Exception:
        return
    if zn_bc_inverse(n, a, b, c) is None:
        return
    p, q = frame.p.payload, frame.q.payload
    for m in range(n):
        if (q * m * p) % n == 0:
            assert perturb_invariant(ring.element(a), frame, ring.element(m)) \
                == ring.element(zn_bc_inverse(n, a, b, c))


# A Q:6 job with b and c of rank 2, and the values of g, h, p, q and y that
# elimination on Fractions gives for it (rows of space-separated entries).
Q6 = RingDescriptor.rational_matrices(6)
Q6_JOB = (
    [[-3, 2, 0, -2, 3, 1], [0, -2, 3, 1, -1, -3], [3, 1, -1, -3, 2, 0],
     [-1, -3, 2, 0, -2, 3], [2, 0, -2, 3, 1, -1], [-2, 3, 1, -1, -3, 2]],
    [[1, 0, 2, 0, -1, 1], [0, 1, 1, -1, 0, 2], [1, 1, 3, -1, -1, 3],
     [0, 0, 0, 0, 0, 0], [1, -1, 1, 1, -1, -1], [0, 2, 2, -2, 0, 4]],
    [[2, 1, 0, 0, 1, -1], [0, 0, 0, 0, 0, 0], [0, 0, 1, 1, -1, 1],
     [2, 1, 1, 1, 0, 0], [2, 1, -2, -2, 3, -3], [0, 0, 1, 1, -1, 1]],
)
_ZERO_ROW = "0 0 0 0 0 0"
Q6_JOB_VALUES = {
    "g": ["1 0 0 0 0 0", "0 1 0 0 0 0"] + [_ZERO_ROW] * 4,
    "h": ["1/2 0 0 0 0 0", _ZERO_ROW, "0 0 1 0 0 0"] + [_ZERO_ROW] * 3,
    "p": ["1 0 0 0 0 0", "0 1 0 0 0 0", "1 1 0 0 0 0", _ZERO_ROW, "1 -1 0 0 0 0",
          "0 2 0 0 0 0"],
    "q": ["1 1/2 0 0 1/2 -1/2", _ZERO_ROW, "0 0 1 1 -1 1"] + [_ZERO_ROW] * 3,
    "y": ["14/37 7/37 6/37 6/37 1/37 -1/37", "4/111 2/111 7/111 7/111 -5/111 5/111",
          "46/111 23/111 25/111 25/111 -2/111 2/111", _ZERO_ROW,
          "38/111 19/111 11/111 11/111 8/111 -8/111", "8/111 4/111 14/111 14/111 -10/111 10/111"],
}


def test_exact_job_eliminates_b_and_c_once(monkeypatch):
    # b and c keep their rank factorizations, so the factor route reuses the
    # ones the frame's inner inverses took: for each of b and c one
    # factorization and two one-sided inverses, plus one inverse of the core
    # Cr*a*B.
    calls = []
    eliminate = _exactla._eliminate
    monkeypatch.setattr(_exactla, "_eliminate",
                        lambda *args: calls.append(1) or eliminate(*args))
    a, b, c = (Q6.element(m) for m in Q6_JOB)
    frame = CornerFrame.make(b, c)
    y = bc_inverse(a, frame)
    assert verify_bc_inverse(a, frame, y).verdict
    assert len(calls) <= 7
    got = {"g": frame.g, "h": frame.h, "p": frame.p, "q": frame.q, "y": y}
    for name, rows in Q6_JOB_VALUES.items():
        assert got[name] == Q6.element([[Fraction(v) for v in row.split()] for row in rows]), name


def _count_routes(monkeypatch) -> Counter:
    calls = Counter()
    for name in ("_bc_factor", "_bc_group", "_bc_corner", "_bc_exhaustive"):
        route = getattr(inverses, name)
        monkeypatch.setattr(inverses, name,
                            lambda *args, route=route, name=name: calls.update([name])
                            or route(*args))
    return calls


def test_default_route_keeps_its_inverse_per_frame(monkeypatch):
    calls = _count_routes(monkeypatch)
    a = R2.element(np.diag([2.0, 4.0]))
    first = CornerFrame.from_idempotents(R2.unit_matrix(0, 0), R2.unit_matrix(0, 0))
    second = CornerFrame.from_idempotents(R2.unit_matrix(1, 1), R2.unit_matrix(1, 1))
    y = bc_inverse(a, first)
    assert bc_inverse(a, first) is y and calls["_bc_factor"] == 1
    # the same a in a second frame solves again, and gets that frame's inverse
    assert bc_inverse(a, second) == R2.element(np.diag([0.0, 0.25]))
    assert calls["_bc_factor"] == 2
    assert bc_inverse(a, first) == R2.element(np.diag([0.5, 0.0]))
    # an equal frame that is another object is another key
    bc_inverse(a, CornerFrame(first.b, first.c, first.g, first.h))
    assert calls["_bc_factor"] == 4


@pytest.mark.parametrize("ring", [R2, Z6, M2F2], ids=lambda r: r.name)
def test_explicit_methods_run_their_own_route_beside_a_kept_inverse(monkeypatch, ring):
    if ring.kind == "R":
        a = ring.element(np.diag([2.0, 4.0]))
        frame = CornerFrame.from_idempotents(ring.unit_matrix(0, 0), ring.unit_matrix(0, 0))
        methods = ("factor", "group", "corner")
    elif ring.kind == "Zn":
        a, frame = ring.element(5), FOUR_FRAME
        methods = ("group", "corner", "exhaustive")
    else:
        a = ring.element([[1, 1], [0, 1]])
        frame = CornerFrame.make(ring.unit_matrix(0, 0), ring.unit_matrix(0, 0))
        methods = ("factor", "group", "corner", "exhaustive")
    calls = _count_routes(monkeypatch)
    y = bc_inverse(a, frame)
    default = dict(calls)
    for method in methods:
        assert bc_inverse(a, frame, method) == y
        assert calls[f"_bc_{method}"] == default.get(f"_bc_{method}", 0) + 1, method
    # an explicit call neither reads nor replaces the kept inverse
    assert bc_inverse(a, frame) is y
    assert sum(calls.values()) == sum(default.values()) + len(methods)

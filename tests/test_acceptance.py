"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All tolerances are fixed here, not configurable.
"""

import time

import numpy as np
import pytest

from bcinv import (
    CornerFrame,
        PreconditionFailed,
    RingDescriptor,
    RingTable,
    SequenceSpec,
    SpectralPreconditionFailed,
    bc_inverse,
        build_v,
    choose_beta,
    continuity_experiment,
    corner_ring_inverse,
    corner_unit_membership,
    decompose_bc_invertible,
    difference_identity,
    group_inverse,
    integral_representation,
    inverse_of_inverse,
    limit_representation,
    perturb_invariant,
    perturbation_bound,
    reverse_order_law_check,
    scale_corner,
    series_representation,
)
from bcinv.errors import ConvergenceFailure
from bcinv.lab import (
    DEFAULT_RINGS,
    verify_bott_duffin_section,
    verify_equivalence_suite,
    verify_reverse_order,
    verify_set_decomposition,
)
from helpers import random_frame_instance, random_rank_deficient, rel_err, zn_bc_inverse

M2F2 = RingDescriptor.matrices_over_prime(2, 2)
Z6 = RingDescriptor.modular(6)

SUITES = {
    "equivalences": verify_equivalence_suite,
    "sets": verify_set_decomposition,
    "bottduffin": verify_bott_duffin_section,
    "rol": verify_reverse_order,
}


def _criterion(name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def suite_reports():
    out = {}
    for ring in DEFAULT_RINGS:
        for name, fn in SUITES.items():
            start = time.perf_counter()
            report = fn(ring)
            out[(ring.name, name)] = (report, time.perf_counter() - start)
    return out


@pytest.fixture(scope="module")
def float_instances():
    rng = np.random.default_rng(20250808)
    out = []
    while len(out) < 200:
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, n))
        out.append(random_frame_instance(rng, n, r))
    return out


def test_criterion_1_exhaustive_certification(suite_reports):
    worst = 0.0
    for (ring_name, suite_name), (report, elapsed) in suite_reports.items():
        budget = 300.0 if ring_name == "MFp:2:2" else 60.0
        ok = report.certified and elapsed < budget
        if not ok:
            _criterion("1-exhaustive-certification", False,
                       f"{ring_name}/{suite_name}: certified={report.certified} "
                       f"elapsed={elapsed:.1f}s "
                       f"counterexamples={report.counterexamples[:3]}")
        worst = max(worst, elapsed)
    _criterion("1-exhaustive-certification", True,
               f"(24 reports, 0 counterexamples, slowest sweep {worst:.2f}s)")


def test_criterion_2_worked_exact_instance():
    a, b = Z6.element(5), Z6.element(4)
    frame = CornerFrame(b, b, b, b)
    assert zn_bc_inverse(6, 5, 4, 4) == 2
    values = {method: bc_inverse(a, frame, method)
              for method in ("exhaustive", "corner")}
    ok = all(v == Z6.element(2) for v in values.values())
    unit, m = decompose_bc_invertible(a, frame)
    ok = ok and unit.element == Z6.element(2) and m == Z6.element(3)
    ok = ok and (Z6.element(4) * m * Z6.element(4)) == Z6.element(0)
    ok = ok and unit.element + m == a
    _criterion("2-worked-exact-instance", ok,
               f"(5^(-(4,4)) = 2 by {sorted(values)}, 5 = 2 + 3, 4*3*4 = 0)")


def test_criterion_3_cross_method_agreement(float_instances):
    worst_pair = 0.0
    worst_repr = 0.0
    n_series = n_integral = n_limit = 0
    for a, frame in float_instances:
        ys = {m: bc_inverse(a, frame, m) for m in ("corner", "factor", "group")}
        vals = list(ys.values())
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                worst_pair = max(worst_pair, rel_err(vals[i].payload, vals[j].payload))
        direct = ys["factor"]
        v = build_v(frame)
        lim = limit_representation(a, v)
        worst_repr = max(worst_repr, rel_err(lim.payload, direct.payload))
        n_limit += 1
        try:
            beta = choose_beta(a, v)
            ser = series_representation(a, v, beta)
            worst_repr = max(worst_repr, rel_err(ser.payload, direct.payload))
            n_series += 1
        except PreconditionFailed:
            pass
        try:
            intg = integral_representation(a, v, tol=1e-9)
            worst_repr = max(worst_repr, rel_err(intg.payload, direct.payload))
            n_integral += 1
        except SpectralPreconditionFailed:
            pass
    ok = worst_pair <= 1e-8 and worst_repr <= 1e-6 and n_series >= 20 and n_integral >= 20
    _criterion("3-cross-method-agreement", ok,
               f"(200 instances: method spread {worst_pair:.2e} <= 1e-8, "
               f"representation spread {worst_repr:.2e} <= 1e-6; "
               f"limit {n_limit}, series {n_series}, integral {n_integral})")


def test_limit_extrapolation_matches_factor_route(float_instances):
    # Sampling the resolvent alone stalls near 1e-7 at its conditioning
    # floor on these instances; extrapolating to lambda = 0 must go further.
    worst = max(rel_err(limit_representation(a, build_v(frame)).payload,
                        bc_inverse(a, frame).payload)
                for a, frame in float_instances)
    assert worst <= 1e-9


def test_criterion_4_bound_suite(float_instances):
    worst_ratio = 0.0
    checked = 0
    for a, frame in float_instances:
        v = build_v(frame)
        y = bc_inverse(a, frame)
        from bcinv import build_H
        _, nH = build_H(a, v, frame)
        if a.norm() * y.norm() * nH == 0.0:
            continue
        radius = 1.0 / (a.norm() * y.norm() ** 2 * nH)
        eigs = np.linalg.eigvals(a.payload @ v.payload)
        for frac in np.linspace(0.04, 0.8, 20):
            lam = float(frac * radius)
            while not np.all(np.abs(lam + eigs) > 1e-12 * (1.0 + np.abs(eigs))):
                lam *= 1.0000001
            rep = perturbation_bound(a, v, frame, lam)
            ratio = rep.measured / rep.bound if rep.bound > 0 else 0.0
            worst_ratio = max(worst_ratio, ratio)
            checked += 1
    # hand-computed family: a = diag(2,3), v = E11, lambda = 0.1
    R2 = RingDescriptor.float_matrices(2)
    e11 = R2.unit_matrix(0, 0)
    frame = CornerFrame.from_idempotents(e11, e11)
    rep = perturbation_bound(R2.element(np.diag([2.0, 3.0])), build_v(frame), frame, 0.1)
    hand_measured = 1.0 / 2.0 - 1.0 / 2.1
    hand_bound = 0.0375 / 0.925
    hand_ok = (abs(rep.measured - hand_measured) <= 1e-6
               and abs(rep.bound - hand_bound) <= 1e-6)
    ok = worst_ratio <= 1.0 and checked >= 3000 and hand_ok
    _criterion("4-bound-suite", ok,
               f"({checked} admissible points, worst measured/bound {worst_ratio:.4f}, "
               f"hand pair ({rep.measured:.6f}, {rep.bound:.6f}))")


def test_criterion_5_identity_suite(float_instances):
    rng = np.random.default_rng(5)
    worst_diff = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        a1, frame1 = random_frame_instance(rng, n, int(rng.integers(1, n)))
        a2, frame2 = random_frame_instance(rng, n, int(rng.integers(1, n)))
        res = difference_identity(a1, frame1, a2, frame2, tol=1e-10)
        y1, y2 = bc_inverse(a1, frame1), bc_inverse(a2, frame2)
        scale = ((1.0 + y1.norm()) * (1.0 + y2.norm())
                 * (1.0 + max(a1.norm(), a2.norm())))
        worst_diff = max(worst_diff, res / scale)
    worst_ann = 0.0
    for a, frame in float_instances[:100]:
        v = build_v(frame)
        va = v.payload @ a.payload
        av = a.payload @ v.payload
        ring = a.ring
        p_va = va @ group_inverse(ring.element(va)).payload
        p_av = av @ group_inverse(ring.element(av)).payload
        one = np.eye(ring.k)
        scale = 1.0 + np.linalg.norm(v.payload, 2)
        worst_ann = max(worst_ann,
                        np.linalg.norm((one - p_va) @ v.payload, 2) / scale,
                        np.linalg.norm(v.payload @ (one - p_av), 2) / scale)
    ok = worst_diff <= 1e-10 and worst_ann <= 1e-10
    _criterion("5-identity-suite", ok,
               f"(difference residual {worst_diff:.2e} <= 1e-10, "
               f"annihilation residual {worst_ann:.2e} <= 1e-10)")


def test_criterion_6_reverse_order_iff(suite_reports):
    report, _ = suite_reports[("MFp:2:2", "rol")]
    ok = report.certified and report.statements["failures_witnessed"] > 0
    # canonical float failure witness
    R2 = RingDescriptor.float_matrices(2)
    e11 = R2.unit_matrix(0, 0)
    frame = CornerFrame.from_idempotents(e11, e11)
    res = reverse_order_law_check(R2.element([[1.0, 1.0], [0.0, 1.0]]), frame,
                                  R2.element([[1.0, 0.0], [1.0, 1.0]]), frame)
    ok = ok and not res.condition and not res.law_holds
    ok = ok and res.obstruction.norm() > 0.5
    ok = ok and np.allclose(res.product_inverse.payload, 0.5 * e11.payload)
    # 100 random float instances: half built to satisfy the condition,
    # half generic (the obstruction then almost surely fails); the
    # equivalence itself is asserted inside the check call
    rng = np.random.default_rng(6)
    holds = fails = 0
    for k in range(100):
        n = int(rng.integers(2, 6))
        r = int(rng.integers(1, n))
        a2, frame2 = random_frame_instance(rng, n, r)
        q2 = frame2.q
        while True:
            c1 = a2.ring.element(random_rank_deficient(rng, n, r))
            frame1 = CornerFrame.make(q2, c1, g=q2)
            raw = rng.standard_normal((n, n))
            # even draws force a1*(1-p1) = 0, making the obstruction vanish
            a1 = a2.ring.element(raw @ frame1.p.payload if k % 2 == 0 else raw)
            try:
                res = reverse_order_law_check(a1, frame1, a2, frame2)
            except PreconditionFailed:
                continue
            break
        if res.law_holds:
            holds += 1
        else:
            fails += 1
    ok = ok and fails >= 1 and holds >= 1 and holds + fails == 100
    _criterion("6-reverse-order-iff", ok,
               f"(M2F2 exhaustive certified with "
               f"{report.statements['failures_witnessed']} failure witnesses; "
               f"floats: {holds} hold / {fails} fail, 0 equivalence violations)")


def test_criterion_7_continuity():
    R2 = RingDescriptor.float_matrices(2)
    e11 = R2.unit_matrix(0, 0)
    frame = CornerFrame.from_idempotents(e11, e11)
    ns = list(range(1, 1001))
    bounded = continuity_experiment(SequenceSpec(
        terms=lambda n: (R2.element(np.diag([2.0 + 1.0 / n, 3.0])), frame),
        limit=(R2.element(np.diag([2.0, 3.0])), frame),
        indices=ns,
    ), tol=1e-3)
    scale = 1.0 + 0.5
    ok = (bounded.classification == "convergent"
          and max(bounded.norms) <= 0.5 + 1e-12
          and all(d2 <= d1 + 1e-15 for d1, d2 in zip(bounded.deviations,
                                                     bounded.deviations[1:]))
          and bounded.deviations[-1] <= 1e-3 * scale)
    # deviations follow 1/(4n+2) exactly, which is below 1e-6 from n = 250000 on
    ok = ok and all(abs(d - 1.0 / (4.0 * n + 2.0)) <= 1e-12
                    for n, d in zip(ns, bounded.deviations))
    ok = ok and 1.0 / (4.0 * 1e6 + 2.0) < 1e-6
    divergent = continuity_experiment(SequenceSpec(
        terms=lambda n: (R2.element(np.diag([1.0 / n, 3.0])), frame),
        limit=(R2.element(np.diag([0.0, 3.0])), frame),
        indices=[1, 2, 5, 10, 20, 50, 100, 200, 500, 1000],
    ))
    ok = (ok and divergent.classification == "divergent"
          and abs(divergent.growth_exponent - 1.0) <= 0.05
          and all(abs(v - n) <= 1e-9 * n for n, v in
                  zip(divergent.indices, divergent.norms)))
    _criterion("7-continuity", ok,
               f"(bounded: monotone to {bounded.deviations[-1]:.2e} at n=1000; "
               f"divergent growth exponent {divergent.growth_exponent:.3f})")


def _exhaustive_frame_replacement(ring) -> int:
    t = RingTable(ring)
    maps = {}
    for b in range(t.n):
        for c in range(t.n):
            if t.inner[b] and t.inner[c]:
                maps[(b, c)] = t.bc_inverse_map(b, c)
    checked = 0
    keys = sorted(maps)
    for b, c in keys:
        for b2, c2 in keys:
            if t.right_image[b] == t.right_image[b2] and t.left_image[c] == t.left_image[c2]:
                assert maps[(b, c)] == maps[(b2, c2)], (ring.name, b, c, b2, c2)
                checked += 1
    return checked


def _exhaustive_transpose_duality(ring) -> int:
    t = RingTable(ring)
    elems = t.elems
    if ring.is_matrix:
        tr = [t.index[e.transpose().key()] for e in elems]
    else:
        tr = list(range(t.n))      # commutative: transpose is the identity
    checked = 0
    for b in range(t.n):
        for c in range(t.n):
            if not (t.inner[b] and t.inner[c]):
                continue
            forward = t.bc_inverse_map(b, c)
            backward = t.bc_inverse_map(tr[c], tr[b])
            for a in range(t.n):
                lhs = forward.get(a)
                rhs = backward.get(tr[a])
                assert (lhs is None) == (rhs is None), (ring.name, a, b, c)
                if lhs is not None:
                    assert tr[lhs] == rhs, (ring.name, a, b, c)
                checked += 1
    return checked


def test_criterion_8_invariance_suite(suite_reports, float_instances):
    checked_exact = 0
    for ring in DEFAULT_RINGS:
        report, _ = suite_reports[(ring.name, "sets")]
        assert report.certified        # perturbation / scaling / inverse-swap
        checked_exact += _exhaustive_frame_replacement(ring)
        checked_exact += _exhaustive_transpose_duality(ring)
    rng = np.random.default_rng(8)
    worst = 0.0
    for a, frame in float_instances[:100]:
        ring = a.ring
        n = ring.k
        y = bc_inverse(a, frame)
        # frame replacement: b' = b*M, c' = N*c with invertible M, N
        M = ring.element(rng.standard_normal((n, n)) + 4.0 * np.eye(n))
        N = ring.element(rng.standard_normal((n, n)) + 4.0 * np.eye(n))
        y2 = bc_inverse(a, CornerFrame.make(frame.b * M, N * frame.c))
        worst = max(worst, rel_err(y.payload, y2.payload))
        # perturbation inside the invariant complement
        m = (frame.q * ring.element(rng.standard_normal((n, n))) * (1 - frame.p)
             + (1 - frame.q) * ring.element(rng.standard_normal((n, n))))
        y3 = perturb_invariant(a, frame, m)
        worst = max(worst, rel_err(y.payload, y3.payload))
        # corner scaling by corner units
        unit = corner_unit_membership(frame.q * a * frame.p, frame)
        assert unit is not None
        u = frame.p * ring.element(np.eye(n) * 3.0 + 0.2 * rng.standard_normal((n, n))) * frame.p
        w = frame.q * ring.element(np.eye(n) * 3.0 + 0.2 * rng.standard_normal((n, n))) * frame.q
        ys = scale_corner(unit, u, w, frame, m)
        expected = (corner_ring_inverse(u, frame.p) * unit.witness
                    * corner_ring_inverse(w, frame.q))
        worst = max(worst, rel_err(ys.payload, expected.payload))
        # inverse of the inverse, perturbed in the swapped complement
        m2 = (frame.p * ring.element(rng.standard_normal((n, n))) * (1 - frame.q)
              + (1 - frame.p) * ring.element(rng.standard_normal((n, n))))
        y4 = inverse_of_inverse(a, frame, m2)
        worst = max(worst, rel_err(y4.payload, (frame.q * a * frame.p).payload))
        # transpose duality
        y5 = bc_inverse(a.transpose(), frame.transposed()).transpose()
        worst = max(worst, rel_err(y.payload, y5.payload))
    ok = worst <= 1e-8
    _criterion("8-invariance-suite", ok,
               f"({checked_exact} exhaustive exact checks; "
               f"float worst relative error {worst:.2e} <= 1e-8)")

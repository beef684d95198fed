"""Analytic representations, the auxiliary multiplier, bounds, continuity."""


import dataclasses
import json
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from bcinv import (
    ConvergenceFailure,
    CornerFrame,
    PreconditionFailed,
    RingDescriptor,
    SequenceSpec,
    SpectralPreconditionFailed,
    bc_inverse,
    build_H,
    build_H_right,
    build_v,
    choose_beta,
    continuity_experiment,
    difference_identity,
    group_inverse,
    integral_representation,
    limit_representation,
    perturbation_bound,
    series_representation,
    spectrum,
    verify_bc_inverse,
)
from bcinv import inverses
from bcinv.analytic import _expm
from bcinv.cli import main
from bcinv.rings import _kept_products
from helpers import hard_instances, random_frame_instance, rel_err

R2 = RingDescriptor.float_matrices(2)
E11 = R2.unit_matrix(0, 0)
DIAG23 = R2.element(np.diag([2.0, 3.0]))
FRAME_E11 = CornerFrame.from_idempotents(E11, E11)


def test_spectrum_examples():
    rep = spectrum(DIAG23)
    assert np.allclose(sorted(rep.eigenvalues.real), [2.0, 3.0])
    assert rep.spectral_radius == pytest.approx(3.0)
    assert rep.min_real_nonzero == pytest.approx(2.0)
    assert rep.group_projection is not None
    nil = spectrum(R2.element([[0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(nil.eigenvalues, 0.0)
    assert nil.group_projection is None
    rot = spectrum(R2.element([[0.0, -1.0], [1.0, 0.0]]))
    assert np.allclose(sorted(rot.eigenvalues.imag), [-1.0, 1.0])


def test_integral_examples():
    v = build_v(FRAME_E11)
    y = integral_representation(DIAG23, v)
    # closed form: integral of e^{-2t} over [0, inf) in the corner slot
    assert rel_err(y.payload, 0.5 * E11.payload) <= 1e-8
    a = R2.element([[3.0, 1.0], [0.0, 2.0]])
    y = integral_representation(a, R2.one())
    assert rel_err(y.payload, np.linalg.inv(a.payload)) <= 1e-8
    with pytest.raises(SpectralPreconditionFailed):
        integral_representation(R2.element([[0.0, -1.0], [1.0, 0.0]]), R2.one())


@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
def test_integral_small_spectral_abscissa(eps):
    # The truncation point grows like log(1/eps)/eps; the whole [0, T] must
    # still be resolved.
    r3 = RingDescriptor.float_matrices(3)
    a = r3.element(np.diag([eps, 1.0, 5.0]))
    one = r3.one()
    direct = bc_inverse(a, CornerFrame.from_idempotents(one, one))
    assert rel_err(integral_representation(a, one).payload, direct.payload) <= 1e-6


@pytest.mark.parametrize("matrix", [[[0.01, -20.0], [20.0, 0.01]],     # fast rotation
                                    [[1e-3, 1e3], [0.0, 1.0]]])         # non-normal
def test_integral_hard_instances_agree_with_bc_inverse(matrix):
    a = R2.element(matrix)
    one = R2.one()
    direct = bc_inverse(a, CornerFrame.from_idempotents(one, one))
    assert rel_err(integral_representation(a, one).payload, direct.payload) <= 1e-6


def test_integral_cli_small_abscissa_agrees(capsys):
    rc = main(["banach", "--ring", "R:3", "--a", "[[0.001,0,0],[0,1,0],[0,0,5]]",
               "--b", "I", "--c", "I", "--method", "integral"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["verdicts"]["agrees"] is True


def test_expm_matches_scipy():
    # scipy's expm is only an oracle here.
    expm = pytest.importorskip("scipy.linalg").expm
    rng = np.random.default_rng(68)
    for _ in range(2000):
        k = int(rng.integers(1, 17))
        x = rng.standard_normal((k, k)) * 10.0 ** rng.uniform(-4.0, 1.0)
        want = expm(x)
        assert np.linalg.norm(_expm(x) - want, 1) <= 1e-11 * np.linalg.norm(want, 1)


def test_expm_of_zero_is_identity():
    for k in (1, 2, 6):
        assert np.array_equal(_expm(np.zeros((k, k))), np.eye(k))


def test_series_examples():
    v = build_v(FRAME_E11)
    y = series_representation(DIAG23, v, 0.5)
    assert rel_err(y.payload, 0.5 * E11.payload) <= 1e-10
    one = R2.one()
    assert rel_err(series_representation(one, one, 1.0).payload, np.eye(2)) <= 1e-10
    with pytest.raises(PreconditionFailed):
        series_representation(DIAG23, v, 2.0)   # |p - 2 v a| = 3


@pytest.mark.parametrize("ring,matrix", [
    ("R:3", "[[0.0001,0,0],[0,1,0],[0,0,5]]"),
    ("R:3", "[[0.00001,0,0],[0,1,0],[0,0,5]]"),
    ("R:2", "[[0.1,-20],[20,0.1]]"),           # real beta leaves r = 1 - 1e-4
])
def test_series_cli_contraction_near_one_agrees(capsys, ring, matrix):
    rc = main(["banach", "--ring", ring, "--a", matrix, "--b", "I", "--c", "I",
               "--method", "series"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["verdicts"]["agrees"] is True


def _contraction_exists(a, v) -> bool:
    """Whether a real beta makes |p - beta v a| < 1, on a grid over [-8, 8] / |v a|
    and over choose_beta's range, the beta strictly between 0 and 2 Re mu / |mu|^2
    for every nonzero eigenvalue mu of v a; the grid is also fine near 0 and
    near each 1 / Re mu."""
    va = (v * a).payload
    p = va @ group_inverse(v * a).payload
    s = np.linalg.norm(va, 2)
    eigs = np.linalg.eigvals(va)
    mu = eigs[np.argsort(-np.abs(eigs))[:round(float(np.trace(p)))]]
    ends = 2.0 * mu.real / np.abs(mu) ** 2
    steps = np.logspace(-9.0, 0.0, 201)
    grids = [np.linspace(-8.0, 8.0, 1601) / s, 8.0 * steps / s, -8.0 * steps / s]
    if np.all(ends > 0.0) or np.all(ends < 0.0):
        grids.append(np.linspace(0.0, 1.0, 1601) * ends[np.argmin(np.abs(ends))])
        for centre in 1.0 / mu.real:
            grids += [centre * (1.0 + steps), centre * (1.0 - steps)]
    betas = np.concatenate(grids)
    norms = np.linalg.svd(p[None] - betas[:, None, None] * va[None], compute_uv=False)
    return bool(norms[:, 0].min() < 1.0)


def _integral_hypothesis(a, v) -> bool:
    """Every nonzero eigenvalue of a*v has a strictly positive real part."""
    eigs = np.linalg.eigvals((a * v).payload)
    nz = eigs[np.abs(eigs) > 1e-10 * max(1.0, np.abs(eigs).max())]
    return bool(nz.size) and bool(np.all(nz.real > 0.0))


def test_representations_on_hard_instances_agree_or_refuse():
    # Each representation either agrees with the certified inverse or raises
    # the error its own hypothesis predicts; a silent disagreement fails.
    failures = []
    for label, a, frame in hard_instances():
        direct = bc_inverse(a, frame).payload
        v = build_v(frame)

        def check(name, compute, refusal, hypothesis):
            try:
                err = rel_err(compute().payload, direct)
            except refusal:
                if hypothesis():
                    failures.append(f"{label}: {name} refused although its hypothesis holds")
                return
            if err > 1e-6:
                failures.append(f"{label}: {name} deviates by {err:.2e}")

        check("limit", lambda: limit_representation(a, v), (), None)
        check("series", lambda: series_representation(a, v, choose_beta(a, v)),
              PreconditionFailed, lambda: _contraction_exists(a, v))
        check("integral", lambda: integral_representation(a, v),
              SpectralPreconditionFailed, lambda: _integral_hypothesis(a, v))
    assert not failures, "\n".join(failures)


def test_choose_beta():
    v = build_v(FRAME_E11)
    beta = choose_beta(DIAG23, v)
    # v a = 2 E11, projection E11: |E11 - 2 beta E11| minimized at beta = 1/2
    assert beta == pytest.approx(0.5, abs=1e-6)
    y = series_representation(DIAG23, v, beta)
    assert rel_err(y.payload, 0.5 * E11.payload) <= 1e-10
    rot = R2.element([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(PreconditionFailed):
        choose_beta(rot, R2.one())              # spectrum {i, -i}: no real contraction


def test_choose_beta_finds_a_contraction_far_outside_the_norm_scale():
    # v a = x y^T has the single nonzero eigenvalue mu = y^T x = 0.01 while
    # |v a| is about 100; beta = 1 / mu makes p - beta v a vanish, although
    # it is about 1e4 times 1 / |v a|, far outside [-8, 8] / |v a|.
    x = np.array([[1.0], [10.0]])
    y = np.array([[0.01 - 10.0], [1.0]])
    a = R2.element(x @ y.T)
    beta = choose_beta(a, R2.one())
    assert beta == pytest.approx(100.0, rel=1e-9)
    assert beta > 1e3 * 8.0 / np.linalg.norm(a.payload, 2)
    p = a.payload @ group_inverse(a).payload
    assert np.linalg.norm(p - beta * a.payload, 2) <= 1e-6


def _grid_minimum(p: np.ndarray, va: np.ndarray, lo: float, hi: float) -> float:
    """min |p - beta va| on 4001 points of [lo, hi], then on 4001 points
    around the best of them; each grid takes one stacked SVD."""
    for _ in range(2):
        grid = np.linspace(lo, hi, 4001)
        norms = np.linalg.svd(p[None] - grid[:, None, None] * va[None],
                              compute_uv=False)[:, 0]
        i = int(np.argmin(norms))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    return float(norms.min())


def _positive_instance(rng: np.random.Generator, k: int) -> tuple[np.ndarray, CornerFrame]:
    """a near a multiple of 1 with b = c symmetric of rank k // 2 and g = b^+.

    Every nonzero eigenvalue of a*v then has a positive real part, so the
    limit, series and integral all apply and choose_beta works in rank >= 2
    when k >= 4.
    """
    ring = RingDescriptor.float_matrices(k)
    X = np.linalg.qr(rng.standard_normal((k, k // 2)))[0]
    b = ring.element(X @ np.diag(rng.uniform(1.0, 2.0, k // 2)) @ X.T)
    g = ring.element(np.linalg.pinv(b.payload))
    a = rng.uniform(0.5, 2.0) * (np.eye(k) + 0.2 * rng.standard_normal((k, k)) / np.sqrt(k))
    return ring.element(a), CornerFrame.make(b, b, g, g)


def test_choose_beta_reaches_the_grid_minimum():
    # The oracle needs no scipy: a grid search on choose_beta's padded
    # bracket, the intersection of the intervals (0, 2 Re mu / |mu|^2),
    # refined once around its best point.  Every contracting beta lies in
    # that bracket.  The random frames that contract do so in rank 1; the
    # positive instances add ranks 2 to 4.
    rng = np.random.default_rng(67)
    instances = [random_frame_instance(rng, n, int(rng.integers(1, n)))
                 for n in rng.integers(2, 7, size=40)]
    instances += [_positive_instance(rng, k) for k in (4, 5, 6, 7, 8) * 4]
    chosen = set()
    for a, frame in instances:
        v = build_v(frame)
        va = v.payload @ a.payload
        p = va @ group_inverse(v * a).payload
        r = round(float(np.trace(p)))
        eigs = np.linalg.eigvals(va)
        mu = eigs[np.argsort(-np.abs(eigs))[:r]]
        ends = 2.0 * mu.real / np.abs(mu) ** 2
        lo, hi = np.minimum(ends, 0.0).max(), np.maximum(ends, 0.0).min()
        pad = 1e-3 * max(hi - lo, 0.0)
        floor = _grid_minimum(p, va, lo - pad, hi + pad)
        try:
            beta = choose_beta(a, v)
        except PreconditionFailed:
            assert floor >= 1.0 - 1e-12
            continue
        assert np.linalg.norm(p - beta * va, 2) <= floor + 1e-12
        chosen.add(r)
    assert chosen == {1, 2, 3, 4}


def test_choose_beta_is_no_worse_than_scipy():
    # scipy's bounded Brent search on [-8, 8] / |v a| with the same xatol is
    # only an oracle here: the library's slope search, whose range holds
    # every contracting beta, must do as well.  The random frames that
    # contract do so in rank 1; the positive instances add ranks 2 to 4.
    minimize_scalar = pytest.importorskip("scipy.optimize").minimize_scalar
    rng = np.random.default_rng(67)
    instances = []
    for _ in range(40):
        n = int(rng.integers(2, 7))
        instances.append(random_frame_instance(rng, n, int(rng.integers(1, n))))
    instances += [_positive_instance(rng, k) for k in (4, 5, 6, 7, 8) * 4]
    chosen = []
    for a, frame in instances:
        v = build_v(frame)
        va = v.payload @ a.payload
        p = va @ group_inverse(v * a).payload
        scale = np.linalg.norm(va, 2)

        def objective(beta):
            return np.linalg.norm(p - beta * va, 2)

        oracle = minimize_scalar(objective, bounds=(-8.0 / scale, 8.0 / scale),
                                 method="bounded", options={"xatol": 1e-12 / scale})
        try:
            beta = choose_beta(a, v)
        except PreconditionFailed:
            assert objective(oracle.x) >= 1.0 - 1e-12
            continue
        assert objective(beta) <= objective(oracle.x) + 1e-12
        chosen.append(round(float(np.trace(p))))
    assert chosen.count(1) >= 10
    assert {2, 3, 4} <= set(chosen)


def test_limit_examples():
    v = build_v(FRAME_E11)
    y = limit_representation(DIAG23, v)
    assert rel_err(y.payload, 0.5 * E11.payload) <= 1e-8
    a = R2.element([[2.0, 1.0], [1.0, 3.0]])
    y = limit_representation(a, R2.one())
    assert rel_err(y.payload, np.linalg.inv(a.payload)) <= 1e-8
    with pytest.raises(ConvergenceFailure):
        limit_representation(R2.element([[0.0, 1.0], [1.0, 0.0]]), E11)


def test_build_H_examples():
    v = build_v(FRAME_E11)
    w, norm = build_H(DIAG23, v, FRAME_E11)
    assert np.allclose(w.payload, E11.payload)
    assert norm == pytest.approx(1.0)
    sharp = group_inverse(DIAG23 * v)
    assert np.allclose((w * bc_inverse(DIAG23, FRAME_E11)).payload, sharp.payload)
    one_frame = CornerFrame.from_idempotents(R2.one(), R2.one())
    w, norm = build_H(R2.one(), R2.one(), one_frame)
    assert np.allclose(w.payload, np.eye(2)) and norm == pytest.approx(1.0)
    a45 = R2.element(np.diag([4.0, 5.0]))
    w, norm = build_H(a45, build_v(FRAME_E11), FRAME_E11)
    assert np.allclose(w.payload, E11.payload) and norm == pytest.approx(1.0)
    wr, norm_r = build_H_right(DIAG23, v, FRAME_E11)
    assert np.allclose(wr.payload, E11.payload) and norm_r == pytest.approx(1.0)


def test_build_H_certification_random():
    rng = np.random.default_rng(61)
    for _ in range(10):
        n, r = 5, int(rng.integers(1, 5))
        a, frame = random_frame_instance(rng, n, r)
        v = build_v(frame)
        w, norm = build_H(a, v, frame)
        one = np.eye(n)
        assert np.linalg.norm(w.payload @ (one - frame.p.payload)) <= 1e-8 * (1 + norm)
        # the induced norm of left multiplication equals |w|: attained at the
        # top singular pair, never exceeded on random unit-norm arguments
        U, s, Vh = np.linalg.svd(w.payload)
        attained = np.linalg.norm(w.payload @ (Vh[0:1, :].T @ U[0:1, :]), 2)
        assert attained == pytest.approx(norm, rel=1e-9)
        for _ in range(5):
            z = rng.standard_normal((n, n))
            z /= np.linalg.norm(z, 2)
            assert np.linalg.norm(w.payload @ z, 2) <= norm * (1 + 1e-9)


def test_perturbation_bound_hand_values():
    v = build_v(FRAME_E11)
    rep = perturbation_bound(DIAG23, v, FRAME_E11, 0.1)
    assert rep.measured == pytest.approx(1.0 / 2.0 - 1.0 / 2.1, abs=1e-12)
    assert rep.bound == pytest.approx(0.0375 / 0.925, abs=1e-12)
    assert rep.measured <= rep.bound
    assert rep.norm_a == pytest.approx(3.0)
    assert rep.norm_inverse == pytest.approx(0.5)
    assert rep.norm_h == pytest.approx(1.0)
    assert rep.measured_right == pytest.approx(rep.measured, abs=1e-12)


def test_perturbation_bound_lambda_zero_and_radius():
    a = R2.element([[2.0, 1.0], [0.0, 3.0]])
    one_frame = CornerFrame.from_idempotents(R2.one(), R2.one())
    rep = perturbation_bound(a, R2.one(), one_frame, 0.0)
    assert rep.measured <= 1e-12 and rep.bound == 0.0
    v = build_v(FRAME_E11)
    with pytest.raises(PreconditionFailed):
        perturbation_bound(DIAG23, v, FRAME_E11, 2.0)   # radius is 4/3


def test_perturbation_bound_random_admissible():
    rng = np.random.default_rng(62)
    for _ in range(10):
        n, r = 4, int(rng.integers(1, 4))
        a, frame = random_frame_instance(rng, n, r)
        v = build_v(frame)
        y = bc_inverse(a, frame)
        _, nH = build_H(a, v, frame)
        radius = 1.0 / (a.norm() * y.norm() ** 2 * nH)
        bounds = []
        for lam in np.linspace(0.05, 0.9, 5) * radius:
            rep = perturbation_bound(a, v, frame, float(lam))
            assert rep.measured <= rep.bound * (1 + 1e-9) + 1e-15
            bounds.append(rep.bound)
        # the bound shrinks to zero with lambda
        assert bounds == sorted(bounds)
        tiny = perturbation_bound(a, v, frame, 1e-9 * radius)
        assert tiny.bound <= 1e-7 * bounds[0]


def test_difference_identity_mixed_frames_hand_case():
    # frames E11 vs E22 on diagonals: y1 = E11/2, y2 = E22/5, and the middle
    # term contributes exactly -(1/2)E11, which pins the sign of the identity
    frame2 = CornerFrame.from_idempotents(R2.unit_matrix(1, 1), R2.unit_matrix(1, 1))
    a2 = R2.element(np.diag([4.0, 5.0]))
    y1 = bc_inverse(DIAG23, FRAME_E11).payload
    y2 = bc_inverse(a2, frame2).payload
    one = np.eye(2)
    middle = (one - y2 @ a2.payload) @ (frame2.p.payload - FRAME_E11.p.payload) @ y1
    assert np.allclose(middle, -0.5 * E11.payload)
    assert np.allclose(y2 - y1, np.diag([-0.5, 0.2]))
    assert difference_identity(DIAG23, FRAME_E11, a2, frame2) <= 1e-14


def test_difference_identity_examples():
    assert difference_identity(DIAG23, FRAME_E11, DIAG23, FRAME_E11) <= 1e-14
    a2 = R2.element(np.diag([4.0, 5.0]))
    res = difference_identity(DIAG23, FRAME_E11, a2, FRAME_E11)
    assert res <= 1e-12 * (1 + 3.0)
    rng = np.random.default_rng(63)
    for _ in range(5):
        r = int(rng.integers(1, 5))
        a1, frame1 = random_frame_instance(rng, 5, r)
        a2, frame2 = random_frame_instance(rng, 5, r)
        res = difference_identity(a1, frame1, a2, frame2, tol=1e-10)
        # independent re-evaluation of both sides
        y1 = bc_inverse(a1, frame1).payload
        y2 = bc_inverse(a2, frame2).payload
        one = np.eye(5)
        lhs = y2 - y1
        rhs = (y2 @ (frame2.q.payload - frame1.q.payload) @ (one - a1.payload @ y1)
               + (one - y2 @ a2.payload) @ (frame2.p.payload - frame1.p.payload) @ y1
               + y2 @ (a1.payload - a2.payload) @ y1)
        assert res == pytest.approx(np.linalg.norm(lhs - rhs, 2), abs=1e-12)


def test_annihilation_and_spectral_symmetry():
    rng = np.random.default_rng(64)
    for _ in range(10):
        n, r = 5, int(rng.integers(1, 5))
        a, frame = random_frame_instance(rng, n, r)
        v = build_v(frame)
        va = v.payload @ a.payload
        av = a.payload @ v.payload
        p_va = va @ group_inverse(a.ring.element(va)).payload
        p_av = av @ group_inverse(a.ring.element(av)).payload
        scale = 1 + np.linalg.norm(v.payload)
        assert np.linalg.norm((np.eye(n) - p_va) @ v.payload) <= 1e-10 * scale
        assert np.linalg.norm(v.payload @ (np.eye(n) - p_av)) <= 1e-10 * scale
        # nonzero spectra of a v and v a coincide as multisets
        e1 = np.sort_complex(np.linalg.eigvals(av))
        e2 = np.sort_complex(np.linalg.eigvals(va))
        big1 = np.sort_complex([z for z in e1 if abs(z) > 1e-8])
        big2 = np.sort_complex([z for z in e2 if abs(z) > 1e-8])
        assert len(big1) == len(big2)
        assert np.allclose(big1, big2, atol=1e-6)


def test_group_route_identity():
    rng = np.random.default_rng(65)
    for _ in range(10):
        n, r = 4, int(rng.integers(1, 4))
        a, frame = random_frame_instance(rng, n, r)
        v = build_v(frame)
        left = group_inverse(a.ring.element(v.payload @ a.payload)).payload @ v.payload
        right = v.payload @ group_inverse(a.ring.element(a.payload @ v.payload)).payload
        assert rel_err(left, right) <= 1e-9
        assert rel_err(left, bc_inverse(a, frame).payload) <= 1e-8


def test_continuity_bounded_family():
    ns = list(range(1, 200))
    spec = SequenceSpec(
        terms=lambda n: (R2.element(np.diag([2.0 + 1.0 / n, 3.0])), FRAME_E11),
        limit=(DIAG23, FRAME_E11),
        indices=ns,
    )
    rep = continuity_experiment(spec, tol=1e-2)
    assert rep.classification == "convergent"
    assert rep.bounded and rep.converged and rep.limit_exists
    assert max(rep.norms) <= 0.5 + 1e-12
    diffs = np.diff(rep.deviations)
    assert np.all(diffs <= 1e-15)            # monotone decreasing
    # closed form: deviation(n) = 1/(4n + 2)
    for n, d in zip(rep.indices, rep.deviations):
        assert d == pytest.approx(1.0 / (4.0 * n + 2.0), rel=1e-9)


def test_continuity_unbounded_family():
    ns = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000]
    spec = SequenceSpec(
        terms=lambda n: (R2.element(np.diag([1.0 / n, 3.0])), FRAME_E11),
        limit=(R2.element(np.diag([0.0, 3.0])), FRAME_E11),
        indices=ns,
    )
    rep = continuity_experiment(spec)
    assert rep.classification == "divergent"
    assert not rep.limit_exists
    assert rep.growth_exponent == pytest.approx(1.0, abs=0.05)
    for n, v in zip(ns, rep.norms):
        assert v == pytest.approx(float(n), rel=1e-9)


def test_continuity_constant_family():
    spec = SequenceSpec(
        terms=lambda n: (DIAG23, FRAME_E11),
        limit=(DIAG23, FRAME_E11),
        indices=[1, 2, 3, 4, 5],
    )
    rep = continuity_experiment(spec)
    assert rep.classification == "convergent"
    assert all(d == 0.0 for d in rep.deviations)


def test_cross_route_agreement_smoke():
    rng = np.random.default_rng(66)
    checked_series = checked_integral = 0
    for _ in range(12):
        n, r = 4, int(rng.integers(1, 4))
        a, frame = random_frame_instance(rng, n, r)
        v = build_v(frame)
        direct = bc_inverse(a, frame)
        lim = limit_representation(a, v)
        assert rel_err(lim.payload, direct.payload) <= 1e-6
        try:
            beta = choose_beta(a, v)
            ser = series_representation(a, v, beta)
            assert rel_err(ser.payload, direct.payload) <= 1e-6
            checked_series += 1
        except PreconditionFailed:
            pass
        try:
            intg = integral_representation(a, v)
            assert rel_err(intg.payload, direct.payload) <= 1e-6
            checked_integral += 1
        except SpectralPreconditionFailed:
            pass
    assert checked_series >= 1
    assert checked_integral >= 1


def _fresh(a, v, frame):
    """Copies of (a, v, frame) with new identities, so no kept data applies."""
    ring = a.ring
    return (ring.element(a.payload), ring.element(v.payload),
            CornerFrame(frame.b, frame.c, frame.g, frame.h))


def _bits(report):
    return [None if x is None else float(x).hex() for x in dataclasses.astuple(report)]


def _assert_reuse_matches_fresh(a, v, frame, lams):
    # Reused: one call prepares (a, v, frame), the rest read the kept data.  Each
    # fresh call runs on new copies and prepares anew.
    reused = [_bits(perturbation_bound(a, v, frame, lam)) for lam in lams]
    assert reused == [_bits(perturbation_bound(*_fresh(a, v, frame), lam)) for lam in lams]


def test_perturbation_bound_interleaved_instances_match_fresh_copies():
    rng = np.random.default_rng(68)
    first = random_frame_instance(rng, 4, 2)
    second = random_frame_instance(rng, 5, 3)
    instances = [(a, build_v(frame), frame) for a, frame in (first, second)]
    for a, v, frame in (instances[0], instances[1], instances[0], instances[1]):
        _, nH = build_H(a, v, frame)
        radius = 1.0 / (a.norm() * bc_inverse(a, frame).norm() ** 2 * nH)
        _assert_reuse_matches_fresh(a, v, frame, [0.1 * radius, -0.3 * radius, 0.7 * radius])


def test_perturbation_bound_reuse_is_bitwise_on_the_criterion_4_grid():
    # The instance generator and the lambda grid of acceptance criterion 4,
    # on its first 25 instances.
    rng = np.random.default_rng(20250808)
    checked = 0
    for _ in range(25):
        n = int(rng.integers(2, 9))
        a, frame = random_frame_instance(rng, n, int(rng.integers(1, n)))
        v = build_v(frame)
        y = bc_inverse(a, frame)
        _, nH = build_H(a, v, frame)
        if a.norm() * y.norm() * nH == 0.0:
            continue
        radius = 1.0 / (a.norm() * y.norm() ** 2 * nH)
        eigs = np.linalg.eigvals(a.payload @ v.payload)
        lams = []
        for frac in np.linspace(0.04, 0.8, 20):
            lam = float(frac * radius)
            while not np.all(np.abs(lam + eigs) > 1e-12 * (1.0 + np.abs(eigs))):
                lam *= 1.0000001
            lams.append(lam)
        _assert_reuse_matches_fresh(a, v, frame, lams)
        checked += len(lams)
    assert checked >= 400


def test_perturbation_bound_preconditions_hold_on_every_call():
    v = build_v(FRAME_E11)
    perturbation_bound(DIAG23, v, FRAME_E11, 0.1)       # radius 4/3
    for _ in range(3):
        with pytest.raises(PreconditionFailed, match="admissible radius"):
            perturbation_bound(DIAG23, v, FRAME_E11, 2.0)
        assert perturbation_bound(DIAG23, v, FRAME_E11, 0.1).measured > 0.0
    one_frame = CornerFrame.from_idempotents(R2.one(), R2.one())
    nilpotent = R2.element([[0.0, 1.0], [0.0, 0.0]])
    for _ in range(3):
        with pytest.raises(PreconditionFailed, match="a\\*v is not group invertible"):
            perturbation_bound(R2.one(), nilpotent, one_frame, 0.1)


def test_corner_frame_is_frozen():
    for name in ("b", "p"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(FRAME_E11, name, R2.one())


# np.linalg.svd calls of the pipeline below: 34 measured, 11 of them
# choose_beta's slope search; the headroom allows for a few more search
# steps under other rounding.  A golden-section choose_beta with spectral
# stop tests in the loops, and no SVD kept on a value, took 159.
SVD_BUDGET = 64


def _float_pipeline_counts(monkeypatch) -> Counter:
    """Calls one job of the float benchmark's shape makes, on an R:8 instance
    where the limit, series and integral all apply: SVDs, eigvals, factor
    route solves, certificates inside the library, and core inverses."""
    x, frame = _positive_instance(np.random.default_rng(73), 8)
    a, b, g = x.payload, frame.b.payload, frame.g.payload

    def values():
        ring = x.ring
        bb, gg = ring.element(b), ring.element(g)
        return ring.element(a), CornerFrame.make(bb, bb, gg, gg)

    x, frame = values()
    y = bc_inverse(x, frame)
    _, nH = build_H(x, build_v(frame), frame)
    radius = 1.0 / (x.norm() * y.norm() ** 2 * nH)
    lams = [f * radius for f in (0.05, 0.25, 0.5, 0.75, 0.95)]

    counts = Counter()
    for module, name, key in ((np.linalg, "svd", "svd"), (np.linalg, "eigvals", "eigvals"),
                              (inverses, "_bc_factor", "factor"),
                              (inverses, "verify_bc_inverse", "certificate"),
                              (inverses, "mat_inv", "core")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, fn=fn, key=key, **kw: counts.update([key]) or fn(*a, **kw))
    x, frame = values()
    y = bc_inverse(x, frame)
    assert verify_bc_inverse(x, frame, y).verdict      # the caller's own certificate
    v = build_v(frame)
    for lam in lams:
        perturbation_bound(x, v, frame, lam)
    outputs = [limit_representation(x, v),
               series_representation(x, v, choose_beta(x, v)),
               integral_representation(x, v)]
    monkeypatch.undo()
    assert all(rel_err(out.payload, y.payload) <= 1e-6 for out in outputs)
    return counts


def test_float_pipeline_svd_budget(monkeypatch):
    assert _float_pipeline_counts(monkeypatch)["svd"] <= SVD_BUDGET


def test_float_pipeline_solves_once(monkeypatch):
    # The bound, the multipliers and the representations read the inverse,
    # the products a*v and v*a, their group inverses and their eigenvalues
    # that the job's values keep.
    counts = _float_pipeline_counts(monkeypatch)
    assert counts["factor"] == 1 and counts["certificate"] == 1
    assert counts["eigvals"] <= 2
    assert counts["core"] - counts["factor"] <= 2       # the group inverses of a*v, v*a


def test_one_v_with_two_elements_gets_the_right_products():
    a1, frame = _positive_instance(np.random.default_rng(74), 5)
    a2 = 2.0 * a1
    v = build_v(frame)
    y1 = bc_inverse(a1, frame)
    for a, want in ((a1, y1), (a2, 0.5 * y1), (a1, y1), (a2, 0.5 * y1)):
        av, va = _kept_products(a, v)
        assert np.array_equal(av.payload, a.payload @ v.payload)
        assert np.array_equal(va.payload, v.payload @ a.payload)
        assert rel_err(limit_representation(a, v).payload, want.payload) <= 1e-6
        assert rel_err(integral_representation(a, v).payload, want.payload) <= 1e-6
        _, nH = build_H(a, v, frame)
        radius = 1.0 / (a.norm() * want.norm() ** 2 * nH)
        _assert_reuse_matches_fresh(a, v, frame, [0.2 * radius, -0.6 * radius])


def test_kept_state_is_consistent_across_threads():
    # Threads share one a in two frames and one v with two elements, so
    # the keyed entries on a and v change hands all the time; each call
    # must still see the inverse and the products of its own key.
    a1 = R2.element(np.diag([2.0, 4.0]))
    a2 = 2.0 * a1
    frames = [CornerFrame.from_idempotents(R2.unit_matrix(i, i), R2.unit_matrix(i, i))
              for i in (0, 1)]
    want = [np.diag([0.5, 0.0]), np.diag([0.0, 0.25])]
    v = R2.element([[1.0, 2.0], [0.0, 1.0]])
    errors = []

    def work(seed):
        for i in range(100):
            j = (i + seed) % 2
            a = (a1, a2)[j]
            y = bc_inverse(a1, frames[j])
            av, va = _kept_products(a, v)
            if not (np.allclose(y.payload, want[j], rtol=0.0, atol=1e-15)
                    and np.array_equal(av.payload, a.payload @ v.payload)
                    and np.array_equal(va.payload, v.payload @ a.payload)):
                errors.append((seed, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors

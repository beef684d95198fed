"""Analytic machinery on the float matrix backend.

Spectral data, the integral / series / limit representations of the
(b,c)-inverse, the multiplier realization of the auxiliary operator used in
the resolvent perturbation bound, the three-term difference identity, and a
sequence-continuity experiment.

Everything here takes float-backend ring values; internal numerics run on
the raw arrays with the spectral norm, which makes one-sided multiplication
operators carry exactly the norm of their multiplier.

What a job derives from (a, frame, v) is computed once and kept on the
immutable values (see rings.RingValue): the certified inverse on a, the
products a*v and v*a on v, their group inverses and eigenvalues on the
products, and the bound's lambda-independent data on a*v.  A tolerance
test takes the Frobenius norm first, with |x|_F / sqrt(k) <= |x| <= |x|_F
in the direction that keeps the decision that of the spectral test, and an
SVD only when that does not settle it; every reported norm is spectral.

Only numpy is used: the matrix exponential behind the integral
representation is a scaling-and-squaring Pade approximant written here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BcinvError,
    ConvergenceFailure,
    InverseAbsent,
    PreconditionFailed,
    SpectralPreconditionFailed,
)
from .inverses import VERDICT_TOL, CornerFrame, bc_inverse, group_inverse
from .rings import (
    FLOAT_MATRIX,
    RingValue,
    _kept_eigvals,
    _kept_products,
    _kept_svd,
    _spectral_norm,
)

AGREE_TOL = 1e-8

# The series stops once its tail bound is below _SERIES_TOL and gives up
# after _SERIES_DOUBLINGS doublings.  The limit stops once successive
# extrapolated values differ below _LIMIT_TOL, settles for _LIMIT_FLOOR_TOL
# when rounding stalls it, and fails after _LIMIT_STEPS halvings or once the
# resolvent exceeds _LIMIT_BLOWUP * (1 + |v|).
_SERIES_TOL = 1e-12
_SERIES_DOUBLINGS = 64
_LIMIT_TOL = 1e-10
_LIMIT_FLOOR_TOL = 1e-5
_LIMIT_STEPS = 80
_LIMIT_BLOWUP = 1e14

# choose_beta stops once its best value is within _BETA_GAP of a certified
# lower bound on the minimum, and after _BETA_EVALS evaluations at most.
_BETA_GAP = 1e-13
_BETA_EVALS = 64


def _require_float(*values: RingValue) -> None:
    for v in values:
        if v.ring.kind != FLOAT_MATRIX:
            raise PreconditionFailed("analytic operations need the float backend")


def _within(x: np.ndarray, floor: float, limit: Callable[[], float]) -> bool:
    """Whether |x| <= limit() in the spectral norm, for a floor <= limit().

    |x| <= |x|_F, so |x|_F <= floor settles it without an SVD; otherwise
    the spectral norm decides, and limit() is evaluated only then.
    """
    return float(np.linalg.norm(x)) <= floor or _spectral_norm(x) <= limit()


def _agree(left: np.ndarray, right: np.ndarray) -> bool:
    """The two-sided check |left - right| <= AGREE_TOL (1 + |left|), spectral."""
    floor = AGREE_TOL * (1.0 + np.linalg.norm(left) / math.sqrt(min(left.shape)))
    return _within(left - right, floor, lambda: AGREE_TOL * (1.0 + _spectral_norm(left)))


def _nonzero_eigs(ring, eigs: np.ndarray) -> np.ndarray:
    if eigs.size == 0:
        return eigs
    threshold = ring.rank_tol * max(1.0, float(np.max(np.abs(eigs))))
    return eigs[np.abs(eigs) > threshold]


@dataclass
class SpectralReport:
    eigenvalues: np.ndarray
    spectral_radius: float
    group_projection: RingValue | None
    min_real_nonzero: float | None


def spectrum(x: RingValue) -> SpectralReport:
    """Eigenvalue data plus the group projection x*x^# when it exists."""
    _require_float(x)
    eigs = _kept_eigvals(x)
    order = np.lexsort((eigs.imag, eigs.real))
    eigs = eigs[order]
    radius = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    try:
        proj = x.ring.element(_group_projection(x))
    except InverseAbsent:
        proj = None
    nz = _nonzero_eigs(x.ring, eigs)
    min_real = float(np.min(nz.real)) if nz.size else None
    return SpectralReport(eigs, radius, proj, min_real)


# Higham's Pade-13 numerator coefficients b_0..b_13 and the 1-norm up to
# which the unscaled approximant is accurate to double precision (N. Higham,
# "The scaling and squaring method for the matrix exponential revisited",
# SIAM J. Matrix Anal. Appl. 26(4), 2005).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(x: np.ndarray) -> np.ndarray:
    """exp(x) by scaling and squaring around the [13/13] Pade approximant."""
    norm = float(np.linalg.norm(x, 1))
    if norm == 0.0:
        return np.eye(x.shape[0])
    squarings = max(0, math.ceil(math.log2(norm / _THETA13)))
    x = x / 2.0 ** squarings
    b = _PADE13
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    eye = np.eye(x.shape[0])
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
             + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye)
    w = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
         + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * eye)
    result = np.linalg.solve(w - u, w + u)
    for _ in range(squarings):
        result = result @ result
    return result


def _truncated_integral(x: np.ndarray, T: float) -> np.ndarray:
    """Integral of exp(-x s) over [0, T]: the (1,2) block of exp(T [[-x, 1], [0, 0]]).

    C. Van Loan, "Computing integrals involving the matrix exponential",
    IEEE Trans. Automat. Control 23(3), 1978.
    """
    k = x.shape[0]
    block = np.block([[-T * x, T * np.eye(k)], [np.zeros((k, 2 * k))]])
    return _expm(block)[:k, k:]


def integral_representation(a: RingValue, v: RingValue, tol: float = 1e-10) -> RingValue:
    """Inverse as the integral of v*exp(-(a v)t) over the positive half-line.

    Requires every nonzero eigenvalue of a*v to have strictly positive real
    part; a purely imaginary or negative point makes the integral diverge,
    so the nominally admissible boundary Re = 0 is rejected.  The integral
    is truncated where the exponential tail falls below tol and evaluated
    as one block exponential.  The mirrored integrand exp(-(v a)t)*v is
    evaluated the same way and must agree.
    """
    _require_float(a, v)
    ring = a.ring
    vP = v.payload
    nv = v.norm()
    if nv == 0.0:
        return ring.zero()
    av_value, va_value = _kept_products(a, v)
    av, va = av_value.payload, va_value.payload
    nz = _nonzero_eigs(ring, _kept_eigvals(av_value))
    if nz.size == 0:
        raise SpectralPreconditionFailed(
            "a*v has no nonzero spectrum but v is nonzero: the integrand cannot decay")
    rho = float(np.min(nz.real))
    if rho <= 0.0:
        raise SpectralPreconditionFailed(
            f"nonzero spectrum of a*v reaches Re = {rho:.3e} <= 0; the integral "
            "needs strictly positive real parts (Re = 0 is excluded here because "
            "the integrand does not decay at a purely imaginary eigenvalue)")
    # Truncation point from the exponential tail estimate |v| e^{-rho T}/rho.
    T = math.log(10.0 * max(nv, 1.0) / (tol * rho)) / rho
    T = max(T, 1.0 / rho)
    result = vP @ _truncated_integral(av, T)
    mirrored = _truncated_integral(va, T) @ vP
    if not _agree(result, mirrored):
        raise ConvergenceFailure("left and right integral forms disagree")
    return ring.element(result)


def _group_projection(x: RingValue) -> np.ndarray:
    """x x^#; raises InverseAbsent when x has no group inverse."""
    return x.payload @ group_inverse(x).payload


def _doubling_sum(M: np.ndarray, v: np.ndarray, scale: float) -> np.ndarray:
    """sum_{n >= 0} M^n v by doubling: S_2N = S_N + M^N S_N, M^2N = (M^N)^2.

    Stops at the first N = 2^m where the tail bound scale * |M^N v| reaches
    _SERIES_TOL; the caller passes scale = |beta| / (1 - |M|).  The test
    takes the Frobenius norm, an upper bound on the spectral one, so it
    stops only where the spectral rule would.
    """
    total, power = v, M
    for _ in range(_SERIES_DOUBLINGS):
        if scale * np.linalg.norm(power @ v) <= _SERIES_TOL:
            return total
        total = total + power @ total
        power = power @ power
    raise ConvergenceFailure("series tail bound did not reach tolerance")


def series_representation(a: RingValue, v: RingValue, beta: float) -> RingValue:
    """Inverse as beta * sum of (1 - beta v a)^n v.

    Convergence needs r = |p - beta v a| < 1 where p is the group projection
    of v*a.  The sum runs over (p - beta v a)^n v, which equals
    (1 - beta v a)^n v because the complement of p annihilates v; that keeps
    the iteration a strict contraction.  Partial sums are doubled until the
    tail bound |beta| |(p - beta v a)^N v| / (1 - r) falls below tolerance;
    that test takes |(p - beta v a)^N v| as its Frobenius norm, an upper
    bound on the spectral one, so the sum stops only where the spectral
    rule would.  r stays spectral.
    The mirrored form sum v (p' - beta a v)^n, with p' the group projection
    of a*v, is summed the same way on transposes, with the same tail bound
    because v (p' - beta a v)^n = (p - beta v a)^n v, and must agree.
    """
    _require_float(a, v)
    ring = a.ring
    vP = v.payload
    av_value, va_value = _kept_products(a, v)
    va, av = va_value.payload, av_value.payload
    try:
        p_va = _group_projection(va_value)
        p_av = _group_projection(av_value)
    except InverseAbsent as exc:
        raise PreconditionFailed(f"one-sided product is not group invertible: {exc}")
    M = p_va - beta * va
    ratio = _spectral_norm(M)
    if ratio >= 1.0:
        raise PreconditionFailed(
            f"|p - beta*v*a| = {ratio:.6f} >= 1: the series cannot converge")
    scale = abs(beta) / (1.0 - ratio)
    left = beta * _doubling_sum(M, vP, scale)
    right = beta * _doubling_sum((p_av - beta * av).T, vP.T, scale).T
    if not _agree(left, right):
        raise ConvergenceFailure("left and right series forms disagree")
    return ring.element(left)


def choose_beta(a: RingValue, v: RingValue) -> float:
    """Real coefficient minimizing |p - beta v a|; fails if the minimum is >= 1.

    Every beta with |p - beta v a| < 1 has |1 - beta mu| < 1 for each
    nonzero eigenvalue mu of v a, so it lies strictly between 0 and
    2 Re mu / |mu|^2 for every mu.  The search runs on the intersection of
    those intervals, padded by 1e-3 of its width against eigenvalue
    rounding; when the intersection is empty or {0}, beta = 0 is taken.

    With v a = U diag(s) W^T and r = trace p, the projection
    p = (v a)(v a)^# = (v a)^# (v a) has the column space of U_r and the
    row space of W_r^T, so |p - beta v a| = |C(beta)| for the r x r core
    C(beta) = U_r^T p W_r - beta diag(s_r): a convex function of beta.
    One SVD of the core gives its value sigma_1 and, from the top singular
    pair, the subgradient -u_1^T diag(s_r) w_1.  A non-negative slope at
    the lower end of the bracket returns that end, a non-positive slope at
    the upper end returns that one; otherwise regula falsi on the slope,
    with the Illinois halving, shrinks the bracket.  The supporting lines
    at its two ends cross at a certified lower bound on the minimum
    (Kelley's cutting plane), and the search stops once the best value
    found is within _BETA_GAP of that bound, once the bracket is four ulps
    wide, or after _BETA_EVALS evaluations, and returns the best point.
    The norm of the full k x k matrix p - beta v a at that point decides
    the refusal; its Frobenius norm below 1 already excludes it.
    """
    _require_float(a, v)
    va_value = _kept_products(a, v)[1]
    va = va_value.payload
    u, s, vh = _kept_svd(va_value)
    if s[0] == 0.0:
        return 1.0
    try:
        p_va = _group_projection(va_value)      # reads the kept SVD
    except InverseAbsent as exc:
        raise PreconditionFailed(f"v*a is not group invertible: {exc}")
    # the nonzero eigenvalues are the rank(p) = trace(p) largest in modulus
    r = round(float(np.trace(p_va)))
    eigs = sorted(_kept_eigvals(va_value).tolist(), key=abs, reverse=True)
    ends = [2.0 * mu.real / abs(mu) ** 2 for mu in eigs[:r]]
    lo = max((min(e, 0.0) for e in ends), default=0.0)
    hi = min((max(e, 0.0) for e in ends), default=0.0)
    best = 0.0
    if hi > lo:
        pad = 1e-3 * (hi - lo)
        best = _slope_search(u[:, :r].T @ p_va @ vh[:r].T, s[:r], lo - pad, hi + pad)
    residual = p_va - best * va
    if np.linalg.norm(residual) >= 1.0 and _spectral_norm(residual) >= 1.0:
        raise PreconditionFailed("no real coefficient makes the series contract")
    return best


def _slope_search(core: np.ndarray, d: np.ndarray, lo: float, hi: float) -> float:
    """The best point of [lo, hi] for |core - beta diag(d)|, as in choose_beta."""

    def objective(beta: float) -> tuple[float, float]:
        u, sigma, wh = np.linalg.svd(core - beta * np.diag(d))
        return float(sigma[0]), -float(u[:, 0] @ (d * wh[0]))

    f_lo, g_lo = objective(lo)
    if g_lo >= 0.0:
        return lo
    f_hi, g_hi = objective(hi)
    if g_hi <= 0.0:
        return hi
    best, f_best = (lo, f_lo) if f_lo <= f_hi else (hi, f_hi)
    w_lo, w_hi = g_lo, g_hi         # the slopes regula falsi weighs, halved by Illinois
    side = 0
    for _ in range(_BETA_EVALS - 2):
        # the supporting lines at lo and hi cross at a lower bound on the minimum
        cross = (f_hi - f_lo + g_lo * lo - g_hi * hi) / (g_lo - g_hi)
        if (f_best - (f_lo + g_lo * (cross - lo)) <= _BETA_GAP
                or hi - lo <= 4.0 * math.ulp(max(-lo, hi))):
            break
        beta = (lo * w_hi - hi * w_lo) / (w_hi - w_lo)
        if not lo < beta < hi:
            beta = 0.5 * (lo + hi)
        f, g = objective(beta)
        if f < f_best:
            best, f_best = beta, f
        if g == 0.0:
            break
        if g < 0.0:
            lo, f_lo, g_lo, w_lo = beta, f, g, g
            if side < 0:
                w_hi *= 0.5
            side = -1
        else:
            hi, f_hi, g_hi, w_hi = beta, f, g, g
            if side > 0:
                w_lo *= 0.5
            side = 1
    return best


def limit_representation(a: RingValue, v: RingValue,
                         lambda0: float | None = None) -> RingValue:
    """Inverse as the limit of v (lambda + a v)^{-1} as lambda -> 0.

    The resolvent is sampled along a geometric schedule that starts at
    lambda0, by default min(1, rho/2) with rho the isolation radius of 0 in
    the spectrum of a*v, halves each step, and skips points that collide
    with the spectrum of -(a*v).  Near 0 the samples are analytic in lambda,
    so Neville's table extrapolates them to lambda = 0 (Richardson
    extrapolation); iteration stops when successive extrapolated values
    differ below tolerance.  Once the resolvent conditioning floor makes the
    differences turn upward, the best value so far is accepted provided it
    already reached _LIMIT_FLOOR_TOL.  Divergent resolvent growth is a
    failure.

    The per-step tests take Frobenius norms, with |x|_F / sqrt(k) <= |x| <=
    |x|_F, each in the direction that keeps the decision sound: the
    relative difference is bounded from above by
    |difference|_F / (1 + |estimate|_F / sqrt(k)), so both stop rules stop
    only where the spectral rule would, and the blow-up test fires on
    |resolvent|_F / sqrt(k), so only on a spectral norm above its limit.
    The first step's two-sided agreement check decides as the spectral one.
    """
    _require_float(a, v)
    ring = a.ring
    vP = v.payload
    av_value, va_value = _kept_products(a, v)
    av, va = av_value.payload, va_value.payload
    eye = np.eye(ring.k)
    root_k = math.sqrt(ring.k)
    nv = v.norm()
    eigs = _kept_eigvals(av_value)
    nz = _nonzero_eigs(ring, eigs)
    if lambda0 is None:
        iso = float(np.min(np.abs(nz))) if nz.size else 1.0
        lam = min(1.0, iso / 2.0)
    else:
        lam = float(lambda0)

    def admissible(l: float) -> bool:
        return bool(np.all(np.abs(l + eigs) > 1e-12 * (1.0 + np.abs(eigs))))

    lams: list[float] = []
    row: list[np.ndarray] = []      # Neville's table row of the latest sample
    best = None
    best_diff = math.inf
    for _ in range(_LIMIT_STEPS):
        if not admissible(lam):
            lam *= 0.5
            continue
        current = np.linalg.solve((lam * eye + av).T, vP.T).T
        if not lams:
            # The two-sided identity holds at every admissible lambda; assert
            # it here where the resolvent is still well conditioned.
            if not _agree(current, np.linalg.solve(lam * eye + va, vP)):
                raise ConvergenceFailure("left and right limit forms disagree")
        if np.linalg.norm(current) / root_k > _LIMIT_BLOWUP * (1.0 + nv):
            raise ConvergenceFailure("resolvent iterates diverge as lambda -> 0")
        lams.append(lam)
        new_row = [current]
        for j, below in enumerate(row, start=1):
            far = lams[-1 - j]
            new_row.append((far * new_row[-1] - lam * below) / (far - lam))
        if row:
            estimate = new_row[-1]
            diff = (np.linalg.norm(estimate - row[-1])
                    / (1.0 + np.linalg.norm(estimate) / root_k))
            if diff <= _LIMIT_TOL:
                return ring.element(estimate)
            if diff < best_diff:
                best_diff = diff
                best = estimate
            elif diff > 4.0 * best_diff and best_diff <= _LIMIT_FLOOR_TOL:
                return ring.element(best)
        row = new_row
        lam *= 0.5
    if best is not None and best_diff <= _LIMIT_FLOOR_TOL:
        return ring.element(best)
    raise ConvergenceFailure("limit iterates did not stabilize")


def _multiplier(a: RingValue, v: RingValue, frame: CornerFrame,
                inverse: Callable[[], np.ndarray], side: str) -> tuple[np.ndarray, float]:
    """The certified multiplier of one side, and its spectral norm.

    side "left": w = (a v)^# a p.  w annihilates the complement range
    (1-p), and w y recovers the group inverse of a*v.
    side "right", by the transpose duality: w = q a (v a)^#, with
    (1-q) w = 0 and y w = (v a)^#.
    inverse() gives y, the certified (b,c)-inverse of a in frame.  It is
    called once the group inverse exists, so a missing group inverse is
    reported before a missing (b,c)-inverse.  Both certificate tests hold
    a residual to VERDICT_TOL (1 + |w| + |sharp|), Frobenius norms first.
    """
    left = side == "left"
    av, va = _kept_products(a, v)
    try:
        sharp_value = group_inverse(av if left else va)
    except InverseAbsent as exc:
        name = "a*v" if left else "v*a"
        raise PreconditionFailed(f"{name} is not group invertible: {exc}")
    sharp = sharp_value.payload
    one = np.eye(a.ring.k)
    y = inverse()
    if left:
        w = sharp @ a.payload @ frame.p.payload
        escape, recovery = w @ (one - frame.p.payload), w @ y - sharp
        messages = ("multiplier fails to annihilate the complement",
                    "multiplier does not map the inverse to the group inverse")
    else:
        w = frame.q.payload @ a.payload @ sharp
        escape, recovery = (one - frame.q.payload) @ w, y @ w - sharp
        messages = ("right multiplier escapes the corner column space",
                    "right multiplier does not recover the group inverse")
    norm = _spectral_norm(w)
    floor = VERDICT_TOL * (1.0 + norm + np.linalg.norm(sharp) / math.sqrt(a.ring.k))
    for residual, message in zip((escape, recovery), messages):
        if not _within(residual, floor, lambda: VERDICT_TOL * (1.0 + norm + sharp_value.norm())):
            raise PreconditionFailed(message)
    return w, norm


def build_H(a: RingValue, v: RingValue, frame: CornerFrame) -> tuple[RingValue, float]:
    """Left-multiplier w = (a v)^# a p realizing the auxiliary operator.

    Certified properties: w annihilates the complement range (1-p), and
    w applied to the inverse recovers the group inverse of a*v.  The
    returned norm is the spectral norm of w, which equals the induced norm
    of left multiplication by w.
    """
    _require_float(a, v)
    w, norm = _multiplier(a, v, frame, lambda: bc_inverse(a, frame).payload, "left")
    return a.ring.element(w), norm


def build_H_right(a: RingValue, v: RingValue, frame: CornerFrame) -> tuple[RingValue, float]:
    """Right-multiplier counterpart q a (v a)^#, by the transpose duality."""
    _require_float(a, v)
    w, norm = _multiplier(a, v, frame, lambda: bc_inverse(a, frame).payload, "right")
    return a.ring.element(w), norm


@dataclass
class BoundReport:
    lam: float
    measured: float
    bound: float
    margin: float
    norm_a: float
    norm_v: float
    norm_inverse: float
    norm_h: float
    measured_right: float | None = None
    bound_right: float | None = None
    margin_right: float | None = None
    norm_h_right: float | None = None


@dataclass(frozen=True)
class _BoundData:
    """The lambda-independent part of perturbation_bound for one (a, v, frame).

    It is kept on the product a*v, keyed by the identity of frame (see
    _kept_bound_data).  norm_h is 0.0 for degenerate data (|a| |y| |H| = 0),
    and then nothing after it is computed.  right_error is the message of
    the PreconditionFailed that building the right multiplier raised; it is
    raised again only once the left side of a bound has passed.
    """

    y: np.ndarray
    norm_a: float
    norm_v: float
    norm_y: float
    norm_h: float
    norm_av: float = 0.0
    norm_h_right: float | None = None
    right_error: str | None = None


def _bound_data(a: RingValue, v: RingValue, frame: CornerFrame, av: RingValue) -> _BoundData:
    y_value = bc_inverse(a, frame)
    y = y_value.payload
    na, nv, ny = a.norm(), v.norm(), y_value.norm()
    if na * ny == 0.0:
        return _BoundData(y, na, nv, ny, 0.0)
    _, nH = _multiplier(a, v, frame, lambda: y, "left")
    if nH == 0.0:
        return _BoundData(y, na, nv, ny, 0.0)
    try:
        _, nHr = _multiplier(a, v, frame, lambda: y, "right")
        right_error = None
    except PreconditionFailed as exc:
        nHr, right_error = None, str(exc)
    # |a v| from the SVD that the group inverse of a*v keeps
    return _BoundData(y, na, nv, ny, nH, norm_av=float(_kept_svd(av)[1][0]),
                      norm_h_right=nHr, right_error=right_error)


def _kept_bound_data(a: RingValue, v: RingValue,
                     frame: CornerFrame) -> tuple[RingValue, RingValue, _BoundData]:
    """a*v, v*a and the bound data, which a*v keeps, keyed by the identity of frame."""
    av, va = _kept_products(a, v)
    kept = getattr(av, "_bound", None)
    if kept is None or kept[0] is not frame:
        kept = av._bound = (frame, _bound_data(a, v, frame, av))
    return av, va, kept[1]


def perturbation_bound(a: RingValue, v: RingValue, frame: CornerFrame,
                       lam: float) -> BoundReport:
    """Resolvent deviation |y - v(lam + a v)^{-1}| against its a-priori bound.

    Admissible: lam outside the spectrum of -(a v) with
    |lam| < 1 / (|a| |y|^2 |H|).  Degenerate data (|a| |y| |H| = 0) means
    the deviation is identically zero and no bound is needed.  The
    lambda-independent data (the inverse, the norms, both multiplier norms
    and the spectrum of a v) is kept on the values a job shares: the
    inverse on a, the rest on the product a*v that v keeps for a.  A
    lambda grid over the same a, v and frame objects, and the
    representations on the same a and v, compute it once; each further
    lambda costs one solve and one spectral norm per side.
    """
    _require_float(a, v)
    av, va, d = _kept_bound_data(a, v, frame)
    na, nv, ny, nH = d.norm_a, d.norm_v, d.norm_y, d.norm_h
    if nH == 0.0:
        return BoundReport(lam, 0.0, 0.0, math.inf, na, nv, ny, 0.0,
                           0.0, 0.0, math.inf, 0.0)
    eigs = _kept_eigvals(av)
    if not np.all(np.abs(lam + eigs) > 1e-12 * (1.0 + np.abs(eigs))):
        raise PreconditionFailed(f"lambda = {lam} lies in the spectrum of -(a v)")
    radius = 1.0 / (na * ny * ny * nH)
    margin = radius - abs(lam)
    if margin <= 0.0:
        raise PreconditionFailed(
            f"|lambda| = {abs(lam):.6g} is not below the admissible radius {radius:.6g}")

    def side_bound(norm_h: float) -> float:
        return ((abs(lam) * nv * na * ny ** 3 * norm_h ** 2)
                / (1.0 - abs(lam) * na * ny * ny * norm_h))

    eye = np.eye(a.ring.k)
    resolvent = np.linalg.solve((lam * eye + av.payload).T, v.payload.T).T
    measured = _spectral_norm(d.y - resolvent)
    bound = side_bound(nH)
    # The resolvent solve carries backward error ~ eps |av| / |lambda|, which
    # dominates the true deviation once lambda is tiny; allow for it.
    conditioning = 1.0 + (d.norm_av / abs(lam) if lam != 0.0 else 0.0)
    noise = 1e-13 * (1.0 + nv) * conditioning
    if measured > bound * (1.0 + 1e-9) + noise:
        raise BcinvError(
            f"measured deviation {measured:.3e} exceeds the bound {bound:.3e}")
    report = BoundReport(lam, measured, bound, margin, na, nv, ny, nH)
    if d.right_error is not None:
        raise PreconditionFailed(d.right_error)
    nHr = d.norm_h_right
    radius_r = math.inf if nHr == 0.0 else 1.0 / (na * ny * ny * nHr)
    if abs(lam) < radius_r:
        resolvent_r = np.linalg.solve(lam * eye + va.payload, v.payload)
        measured_r = _spectral_norm(d.y - resolvent_r)
        bound_r = 0.0 if nHr == 0.0 else side_bound(nHr)
        if measured_r > bound_r * (1.0 + 1e-9) + noise:
            raise BcinvError("right-sided deviation exceeds its bound")
        report.measured_right = measured_r
        report.bound_right = bound_r
        report.margin_right = radius_r - abs(lam)
        report.norm_h_right = nHr
    return report


def difference_identity(a1: RingValue, frame1: CornerFrame,
                        a2: RingValue, frame2: CornerFrame,
                        tol: float = 1e-8) -> float:
    """Residual of the three-term identity for the difference of two inverses.

    y2 - y1 = y2 (q2 - q1)(1 - a1 y1) + (1 - y2 a2)(p2 - p1) y1
              + y2 (a1 - a2) y1

    The middle term enters with a plus: its building block is
    y2 a2 y1 - y1 = (1 - y2 a2)(p2 - p1) y1, which follows from
    y1 = p1 y1 and (1 - y2 a2) p2 = 0.
    """
    _require_float(a1, a2)
    try:
        y1 = bc_inverse(a1, frame1)
        y2 = bc_inverse(a2, frame2)
    except InverseAbsent as exc:
        raise PreconditionFailed(f"a constituent inverse is missing: {exc}")
    one = np.eye(a1.ring.k)
    y1P, y2P = y1.payload, y2.payload
    p1, q1 = frame1.p.payload, frame1.q.payload
    p2, q2 = frame2.p.payload, frame2.q.payload
    lhs = y2P - y1P
    rhs = (y2P @ (q2 - q1) @ (one - a1.payload @ y1P)
           + (one - y2P @ a2.payload) @ (p2 - p1) @ y1P
           + y2P @ (a1.payload - a2.payload) @ y1P)
    residual = _spectral_norm(lhs - rhs)
    scale = ((1.0 + _spectral_norm(y1P)) * (1.0 + _spectral_norm(y2P))
             * (1.0 + max(a1.norm(), a2.norm())))
    if residual > tol * scale:
        raise BcinvError(f"difference identity residual {residual:.3e} beyond tolerance")
    return residual


@dataclass
class SequenceSpec:
    """Sequence of (element, frame) pairs converging to a limit pair."""

    terms: Callable[[int], tuple[RingValue, CornerFrame]]
    limit: tuple[RingValue, CornerFrame]
    indices: Sequence[int]


@dataclass
class ContinuityReport:
    indices: list[int]
    norms: list[float]
    deviations: list[float] | None
    limit_exists: bool
    bounded: bool
    converged: bool
    growth_exponent: float
    classification: str


def continuity_experiment(seq: SequenceSpec, tol: float = 1e-6) -> ContinuityReport:
    """Inverse norms and deviations along the sequence, with a verdict.

    Bounded inverse norms and convergence of the inverses are equivalent
    (the forward direction by the difference identity, the converse because
    convergent sequences are bounded); a violation of either direction is
    an error, divergence itself is just a reported outcome.
    """
    a_lim, frame_lim = seq.limit
    _require_float(a_lim)
    try:
        y_lim = bc_inverse(a_lim, frame_lim)
    except InverseAbsent:
        y_lim = None
    indices = list(seq.indices)
    norms: list[float] = []
    deviations: list[float] | None = [] if y_lim is not None else None
    absent = 0
    for n in indices:
        a_n, frame_n = seq.terms(n)
        try:
            y_n = bc_inverse(a_n, frame_n)
        except InverseAbsent:
            absent += 1
            norms.append(math.inf)
            if deviations is not None:
                deviations.append(math.inf)
            continue
        norms.append(y_n.norm())
        if deviations is not None:
            deviations.append(_spectral_norm(y_n.payload - y_lim.payload))
    finite = [v for v in norms if math.isfinite(v) and v > 0.0]
    if len(finite) >= 2 and len(finite) == len(norms):
        logs_n = np.log(np.asarray(indices, dtype=float))
        logs_v = np.log(np.asarray(norms))
        growth = float(np.polyfit(logs_n, logs_v, 1)[0]) if len(indices) > 1 else 0.0
    else:
        growth = math.inf if absent or math.inf in norms else 0.0
    bounded = math.isfinite(max(norms)) and growth < 0.25
    scale = 1.0 + (y_lim.norm() if y_lim is not None else 0.0)
    converged = (deviations is not None and len(deviations) > 0
                 and math.isfinite(deviations[-1]) and deviations[-1] <= tol * scale)
    if bounded and y_lim is not None and not converged:
        # Bounded norms force convergence; tolerate sequences sampled too
        # early by accepting a clearly shrinking deviation instead.
        peak = max(deviations) if deviations else 0.0
        if not (deviations and deviations[-1] <= 0.6 * peak + tol * scale):
            raise BcinvError("bounded inverse norms without convergence to the limit inverse")
    if converged and not bounded:
        raise BcinvError("convergent inverses cannot have unbounded norms")
    if converged:
        classification = "convergent"
    elif not bounded:
        classification = "divergent"
    else:
        classification = "inconclusive"
    return ContinuityReport(indices, norms, deviations, y_lim is not None,
                            bounded, converged, growth, classification)

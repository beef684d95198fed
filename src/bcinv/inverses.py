"""Computation and certification of (b,c)-type generalized inverses.

The central object is a corner frame (b, c, g, h) with the idempotents
p = b*g and q = h*c.  Every inverse here is certified against the defining
equations before it is returned, so a successful result always carries an
implicit proof; `verify_bc_inverse` exposes that certificate directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BcinvError,
    CapExceeded,
    DimensionMismatch,
    InverseAbsent,
    NotRegular,
    PreconditionFailed,
    RingMismatch,
    SingularCorner,
)
from .rings import (
    ENUM_CAP,
    FLOAT_MATRIX,
    RingDescriptor,
    RingValue,
    canonical_inner_inverse,
    ideal,
    is_idempotent,
    is_left_invertible,
    is_right_invertible,
    is_unit,
    mat_inv,
    mat_kron,
    mat_mul,
    mat_null_basis,
    mat_rank,
    mat_reshape,
    mat_solve,
    mat_transpose,
    mat_vstack,
    values_equal,
    _as_raw,
    _factors,
    _kept_svd,
    _rank_and_norm,
    _raw,
    _shape,
    _wrap,
)

# Scale-aware residual tolerance for float verdicts.
VERDICT_TOL = 1e-8

# Float verdicts also hold b - y*a*b and c - c*a*y to this share of b and c
# (Frobenius norms), which a y blown up by a rounding-noise core cannot meet.
TARGET_TOL = 1e-4

METHODS = ("corner", "factor", "group", "exhaustive")

_SINGULAR_CORE = "corner-rank deficiency: Cr*a*B is singular"


def _resid_zero(residual: RingValue, scale: float) -> bool:
    if residual.ring.kind != FLOAT_MATRIX:
        return residual.is_zero()
    return float(np.linalg.norm(residual.payload)) <= VERDICT_TOL * scale


@dataclass(eq=False, frozen=True)
class CornerFrame:
    """Ambient data (b, c, g, h) with the derived idempotents p, q.

    Frozen, like its ring values, so a frame can key kept state by identity.
    """

    b: RingValue
    c: RingValue
    g: RingValue
    h: RingValue
    p: RingValue = field(init=False)
    q: RingValue = field(init=False)

    def __post_init__(self):
        ring = self.b.ring
        for v in (self.c, self.g, self.h):
            if v.ring != ring:
                raise RingMismatch("frame members belong to different rings")
        p = self.b * self.g
        if not (p * self.b == self.b):
            raise PreconditionFailed("g is not an inner inverse of b")
        if not (self.c * self.h * self.c == self.c):
            raise PreconditionFailed("h is not an inner inverse of c")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", self.h * self.c)

    @property
    def ring(self) -> RingDescriptor:
        return self.b.ring

    @classmethod
    def make(cls, b: RingValue, c: RingValue,
             g: RingValue | None = None, h: RingValue | None = None) -> "CornerFrame":
        """Frame with canonical inner inverses where g, h are omitted."""
        if g is None:
            g = canonical_inner_inverse(b)
        if h is None:
            h = canonical_inner_inverse(c)
        return cls(b, c, g, h)

    @classmethod
    def from_idempotents(cls, p: RingValue, q: RingValue) -> "CornerFrame":
        """Frame (p, q, p, p and q as their own inner inverses)."""
        if not is_idempotent(p) or not is_idempotent(q):
            raise PreconditionFailed("p and q must be idempotent")
        return cls(p, q, p, q)

    def swapped(self) -> "CornerFrame":
        """The (q, p) idempotent frame with the corner roles exchanged."""
        return CornerFrame.from_idempotents(self.q, self.p)

    def transposed(self) -> "CornerFrame":
        """The (c^T, b^T) frame realizing the opposite-algebra picture."""
        return CornerFrame(self.c.transpose(), self.b.transpose(),
                           self.h.transpose(), self.g.transpose())


@dataclass
class BcCertificate:
    """Residuals of the defining equations for one candidate inverse.

    membership  : p*y*q - y       (y lies in the corner b R c)
    left_eq     : b - y*a*b
    right_eq    : c - c*a*y
    outer       : y - y*a*y
    """

    candidate: RingValue
    membership: RingValue
    left_eq: RingValue
    right_eq: RingValue
    outer: RingValue
    verdict: bool

    def residual_norms(self) -> dict[str, float]:
        return {
            "membership": self.membership.norm(),
            "left_eq": self.left_eq.norm(),
            "right_eq": self.right_eq.norm(),
            "outer": self.outer.norm(),
        }


def verify_bc_inverse(a: RingValue, frame: CornerFrame, y: RingValue) -> BcCertificate:
    """Check the defining equations of the (b,c)-inverse for a candidate y.

    Never raises: the outcome is the certificate's verdict.  Membership in
    the corner set is tested as p*y*q == y, which is equivalent to the
    two-sided absorption p*y == y == y*q together with y in b R c.
    """
    ya = y * a
    membership = frame.p * y * frame.q - y
    left_eq = frame.b - ya * frame.b
    right_eq = frame.c - frame.c * a * y
    outer = y - ya * y
    scale = 1.0
    if a.ring.kind == FLOAT_MATRIX:
        na, ny = a.norm(), y.norm()
        scale = 1.0 + na + frame.b.norm() + frame.c.norm() + ny + ny * na
    verdict = all(_resid_zero(r, scale)
                  for r in (membership, left_eq, right_eq, outer))
    if verdict and a.ring.kind == FLOAT_MATRIX:
        verdict = all(np.linalg.norm(r.payload) <= TARGET_TOL * np.linalg.norm(t.payload)
                      for r, t in ((left_eq, frame.b), (right_eq, frame.c)))
    return BcCertificate(y, membership, left_eq, right_eq, outer, verdict)


def bc_inverse(a: RingValue, frame: CornerFrame, method: str | None = None) -> RingValue:
    """The unique y with verify_bc_inverse(a, frame, y) true.

    method: factor (rank factorizations of b and c with an invertible
    core; the default on matrix backends), group (v times the group
    inverse of a*v; the default on Zn, where v = p), corner (solve the two
    corner equations for z = b*w*c: a linear system on matrix backends,
    one linear congruence on Zn) or exhaustive (a scan of the finite ring,
    the only element scan, capped in ring size).  corner and exhaustive
    are cross-checks.  All methods agree whenever the inverse exists.

    The default route keeps its certified y on a, keyed by the identity of
    frame, so the later calls of a job in the same frame return it without
    solving again.  An explicit method never reads it: it is a cross-check.
    """
    if a.ring != frame.ring:
        raise RingMismatch("element and frame live in different rings")
    if method is None:
        kept = getattr(a, "_bc", None)
        if kept is not None and kept[0] is frame:
            return kept[1]
        y = _certified(a, frame, "factor" if a.ring.is_matrix else "group")
        a._bc = (frame, y)
        return y
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    return _certified(a, frame, method)


def _certified(a: RingValue, frame: CornerFrame, method: str) -> RingValue:
    """The candidate of one method, returned once it passes the certificate."""
    if method == "factor":
        y = _bc_factor(a, frame)
    elif method == "group":
        y = _bc_group(a, frame)
    elif method == "exhaustive":
        return _bc_exhaustive(a, frame)
    else:
        y = _bc_corner(a, frame)
    cert = verify_bc_inverse(a, frame, y)
    if not cert.verdict:
        raise InverseAbsent(
            f"candidate from method {method!r} fails the defining equations "
            f"(residuals {cert.residual_norms()})")
    return y


def _bc_factor(a: RingValue, frame: CornerFrame) -> RingValue:
    ring = a.ring
    if not ring.is_matrix:
        raise PreconditionFailed("factor method needs a matrix backend")
    B, Cr = _frame_factors(frame)
    # On R the core's rank is judged against the scale of the product it
    # comes from: ||Cr|| = 1 (orthonormal rows) and ||B|| = sigma_1(b), so
    # rounding noise in Cr*a*B does not pass for a singular value.
    scale = a.norm() * _kept_svd(frame.b)[1][0] if ring.kind == FLOAT_MATRIX else None
    return _through_core(a, B, Cr, scale, _SINGULAR_CORE)


def _through_core(a: RingValue, L, R, scale: float | None, singular: str) -> RingValue:
    """L*(R*a*L)^{-1}*R for raw L, R; InverseAbsent(singular) when the core R*a*L is.

    Zero when R has no rows.  scale is the float rank threshold's, a bound
    on ||R||*||a||*||L|| (see mat_inv).
    """
    ring = a.ring
    if not _shape(R)[0]:
        return ring.zero()
    core_inv = mat_inv(ring, mat_mul(ring, mat_mul(ring, R, _raw(a)), L), scale)
    if core_inv is None:
        raise InverseAbsent(singular)
    return _wrap(ring, mat_mul(ring, mat_mul(ring, L, core_inv), R))


def _frame_factors(frame: CornerFrame):
    """The left factor of b and the right factor of c (raw), whose ranks must agree."""
    B, _ = _factors(frame.b)
    _, Cr = _factors(frame.c)
    if _shape(B)[1] != _shape(Cr)[0]:
        raise InverseAbsent("rank(b) differs from rank(c)")
    return B, Cr


def _bc_corner(a: RingValue, frame: CornerFrame) -> RingValue:
    ring = a.ring
    p, q = frame.p, frame.q
    if ring.is_matrix:
        # Solve the stacked linear system for W in z = b*W*c:
        #   z*(q*a*p) = p  and  (q*a*p)*z = q,
        # with vec(b*W*N) = kron(b, N^T) vec(W) for row-major vec.
        b, c = frame.b, frame.c
        M = q * a * p
        top = mat_kron(ring, _raw(b), mat_transpose(ring, _raw(c * M)))
        bottom = mat_kron(ring, _raw(M * b), mat_transpose(ring, _raw(c)))
        rhs = mat_vstack(ring, mat_reshape(ring, _raw(p), 1), mat_reshape(ring, _raw(q), 1))
        sol = mat_solve(ring, mat_vstack(ring, top, bottom), rhs)
        if sol is None:
            raise InverseAbsent("corner equations are inconsistent")
        return b * _wrap(ring, mat_reshape(ring, sol, ring.k)) * c
    # Zn: z = b*w*c turns z*M = p into one linear congruence
    # (b*c*M)*w = p (mod n), solvable iff d = gcd(b*c*M, n) divides p; the
    # solutions form one class modulo n/d.  M*z = q is checked afterwards.
    M = q * a * p
    n = ring.n
    coeff = frame.b.payload * frame.c.payload * M.payload % n
    d = math.gcd(coeff, n)
    if p.payload % d:
        raise InverseAbsent("no corner element satisfies z*(q*a*p) = p")
    w = p.payload // d * pow(coeff // d, -1, n // d)
    z = frame.b * ring.element(w) * frame.c
    if not (M * z == q):
        raise InverseAbsent("the corner element fails (q*a*p)*z = q")
    return z


def _bc_group(a: RingValue, frame: CornerFrame) -> RingValue:
    v = build_v(frame)
    return v * group_inverse(a * v)


def _bc_exhaustive(a: RingValue, frame: CornerFrame) -> RingValue:
    ring = a.ring
    if not ring.is_finite:
        raise PreconditionFailed("exhaustive search needs a finite backend")
    if ring.size > ENUM_CAP:
        raise CapExceeded(f"{ring.name} exceeds the enumeration cap")
    for y in ring.elements():
        if verify_bc_inverse(a, frame, y).verdict:
            return y
    raise InverseAbsent("exhausted the ring without a match")


def build_v(frame: CornerFrame) -> RingValue:
    """Carrier v with vR = bR and Rv = Rc, so that y = v*(a*v)^#.

    Matrix backends take v = B @ Cr: the column space of b and the right
    null space of c.  Zn is commutative, so an inverse y gives
    bR = yR = Ry = Rc (y is in bRy and yRc, b = y*a*b, c = c*a*y), hence
    pR = qR for p = b*g and q = h*c.  Idempotents with pR = qR satisfy
    q*p = p and p*q = q, so p = q; then v = p, and frames with p != q
    have no inverse.
    """
    ring = frame.ring
    if not ring.is_matrix:
        if frame.p != frame.q:
            raise InverseAbsent("p differs from q: no carrier exists")
        return frame.p
    B, Cr = _frame_factors(frame)
    if not _shape(Cr)[0]:
        return ring.zero()
    return _wrap(ring, mat_mul(ring, B, Cr))


def group_inverse(x: RingValue) -> RingValue:
    """The commuting inner-outer inverse of x, when it exists.

    On Zn, for any inner inverse g of x, y = x*g*g commutes with x and
    x*y*x = (x*g*x)*g*x = x, y*x*y = (x*x*x*g*g)*g*g = x*g*g = y.  A group
    inverse is an inner inverse, so it exists iff x is regular.

    The group inverse is kept on x once found.
    """
    sharp = getattr(x, "_sharp", None)
    if sharp is None:
        sharp = x._sharp = _group_inverse(x)
    return sharp


def _group_inverse(x: RingValue) -> RingValue:
    ring = x.ring
    if ring.is_matrix:
        # With x = F*G, x^# = F*(G*F)^{-2}*G.  On R the rank of G*F is
        # judged against sigma_1(x), which bounds ||G||*||F|| = 1*sigma_1(x),
        # so rounding noise in G*F does not pass for a singular value.
        F, G = _factors(x)
        if not _shape(G)[0]:
            return ring.zero()
        scale = _kept_svd(x)[1][0] if ring.kind == FLOAT_MATRIX else None
        core_inv = mat_inv(ring, mat_mul(ring, G, F), scale)
        if core_inv is None:
            raise InverseAbsent("rank(x*x) < rank(x): no group inverse")
        out = mat_mul(ring, mat_mul(ring, F, mat_mul(ring, core_inv, core_inv)), G)
        return _wrap(ring, out)
    try:
        g = canonical_inner_inverse(x)
    except NotRegular as exc:
        raise InverseAbsent("no group inverse in the finite ring") from exc
    return x * g * g


def bott_duffin_inverse(a: RingValue, p: RingValue, q: RingValue,
                        method: str | None = None) -> RingValue:
    """The (p,q)-inverse for idempotents p, q (each its own inner inverse)."""
    frame = CornerFrame.from_idempotents(p, q)
    return bc_inverse(a, frame, method)


def hybrid_inverse(a: RingValue, b: RingValue, c: RingValue) -> RingValue:
    """Unique outer inverse y with yR = bR and y^{-1}(0) = c^{-1}(0)."""
    return _outer_inverse_matching(a, b, c, "image-right")


def annihilator_inverse(a: RingValue, b: RingValue, c: RingValue) -> RingValue:
    """Unique outer inverse y with y_{-1}(0) = b_{-1}(0), y^{-1}(0) = c^{-1}(0)."""
    return _outer_inverse_matching(a, b, c, "kernel-left")


def _outer_inverse_matching(a: RingValue, b: RingValue, c: RingValue,
                            b_side: str) -> RingValue:
    """Outer inverse y of a whose b_side ideal is b's and whose right kernel is c's.

    Over a field the image and the left annihilator of b both pin the
    column space of y to that of b, so the prescribed-subspace construction
    applies to either side.

    Zn takes the (b,c)-inverse.  Each ideal of x on Zn fixes gcd(x, n)
    (see `ideal`), so a match has gcd(y, n) = gcd(b, n) = gcd(c, n), that
    is yR = bR = cR.  Writing b = y*r and y = b*s, the outer equation
    y*a*y = y gives b = y*a*b = b*(s*a)*b, so b is regular, and likewise c.
    Commutativity then gives the defining equations: y = (y*a)*y with y*a
    in bR puts y in bRy, y = y*(a*y) with a*y in cR puts y in yRc, and
    b, c in yR give y*a*b = b and c*a*y = c.  Conversely the (b,c)-inverse
    has yR = bR and Ry = Rc, so it matches.  The hybrid and annihilator
    inverses are thus the (b,c)-inverse, and none exists for non-regular
    b or c.
    """
    ring = a.ring
    if b.ring != ring or c.ring != ring:
        raise RingMismatch("operands live in different rings")
    b_ideal = ideal(b, b_side)
    c_kernel = ideal(c, "kernel-right")
    if ring.is_matrix:
        try:
            y = _prescribed_outer_inverse(a, ideal(b, "image-right").basis, c_kernel.basis)
        except DimensionMismatch as exc:
            raise InverseAbsent(str(exc)) from exc
    else:
        try:
            frame = CornerFrame.make(b, c)
        except NotRegular as exc:
            raise InverseAbsent(f"no outer inverse: {exc}") from exc
        y = bc_inverse(a, frame)
    if not (ideal(y, b_side) == b_ideal and ideal(y, "kernel-right") == c_kernel):
        raise InverseAbsent("constructed inverse misses the prescribed ideals")
    return y


def outer_inverse_pql(a: RingValue, p: RingValue, q: RingValue) -> RingValue:
    """Outer inverse with image pR and right kernel qR (p, q idempotent)."""
    if not is_idempotent(p) or not is_idempotent(q):
        raise PreconditionFailed("p and q must be idempotent")
    one = a.ring.one()
    return hybrid_inverse(a, p, one - q)


def ats_outer_inverse(A: RingValue, T, S) -> RingValue:
    """Outer inverse of A with range span(T) and null space span(S).

    T and S are basis matrices (columns span the subspaces).  Exists when
    A maps T injectively and A(T) is complementary to S.
    """
    ring = A.ring
    if not ring.is_matrix:
        raise PreconditionFailed("prescribed-subspace inverses need a matrix backend")
    T = np.asarray(T)
    S = np.asarray(S)
    if T.ndim != 2 or S.ndim != 2 or T.shape[0] != ring.k or S.shape[0] != ring.k:
        raise DimensionMismatch("basis matrices must have k rows")
    return _prescribed_outer_inverse(A, _as_raw(ring, T), _as_raw(ring, S))


def _prescribed_outer_inverse(A: RingValue, T, S) -> RingValue:
    """ats_outer_inverse for raw basis matrices T and S with k rows."""
    ring = A.ring
    t, s = _shape(T)[1], _shape(S)[1]
    rank_t, norm_t = _rank_and_norm(ring, T)
    if rank_t != t or mat_rank(ring, S) != s:
        raise DimensionMismatch("basis matrices must have full column rank")
    if t + s != ring.k:
        raise DimensionMismatch(
            f"dim T + dim S = {t}+{s} != {ring.k}: the direct sum cannot fill the space")
    # Full-row-rank C with null space exactly span(S); on R its rows are
    # orthonormal, so ||C*A*T|| <= ||A||*sigma_1(T).
    C = mat_transpose(ring, mat_null_basis(ring, mat_transpose(ring, S)))
    return _through_core(A, T, C, A.norm() * norm_t if ring.kind == FLOAT_MATRIX else None,
                         "A(T) does not complement S: singular core")


def unit_consistency(a: RingValue, frame: CornerFrame) -> bool:
    """Whether b is right invertible and c is left invertible.

    The condition is equivalent to the computed inverse being invertible
    (and then equal to a^{-1}); a itself may be invertible without it.
    """
    y = bc_inverse(a, frame)
    condition = is_right_invertible(frame.b) and is_left_invertible(frame.c)
    if condition != is_unit(y):
        raise BcinvError("unit-consistency equivalence violated")
    if condition:
        one = a.ring.one()
        if not (y * a == one and a * y == one):
            raise BcinvError("invertible inverse is not the ordinary inverse")
    return condition


@dataclass(eq=False)
class CornerUnit:
    """Element x of q R p together with the witness z in b R c inverting it."""

    element: RingValue
    witness: RingValue


def corner_unit_membership(x: RingValue, frame: CornerFrame) -> CornerUnit | None:
    """Witness z with z*x = p and x*z = q, or None when x is not a corner unit."""
    if not (frame.q * x * frame.p == x):
        return None
    try:
        z = bc_inverse(x, frame)
    except InverseAbsent:
        return None
    if not (z * x == frame.p and x * z == frame.q):
        return None
    return CornerUnit(x, z)


def decompose_bc_invertible(a: RingValue, frame: CornerFrame) -> tuple[CornerUnit, RingValue]:
    """Split a = x + m with x a corner unit and m in the invariant complement."""
    try:
        bc_inverse(a, frame)
    except InverseAbsent as exc:
        raise PreconditionFailed(f"a has no (b,c)-inverse: {exc}") from exc
    x = frame.q * a * frame.p
    unit = corner_unit_membership(x, frame)
    if unit is None:
        raise BcinvError("corner compression of an invertible element is not a corner unit")
    m = a - x
    if not (frame.q * m * frame.p).is_zero():
        raise BcinvError("complement part fails q*m*p = 0")
    return unit, m


def _in_complement(m: RingValue, left: RingValue, right: RingValue) -> bool:
    # Membership in left*R*(1-right) + (1-left)*R is exactly left*m*right = 0.
    return (left * m * right).is_zero()


def perturb_invariant(a: RingValue, frame: CornerFrame, m: RingValue) -> RingValue:
    """Inverse of a + m for m in the complement set; equals the inverse of a."""
    if not _in_complement(m, frame.q, frame.p):
        raise PreconditionFailed("m is outside q*R*(1-p) + (1-q)*R")
    try:
        y = bc_inverse(a, frame)
    except InverseAbsent as exc:
        raise PreconditionFailed(f"a has no (b,c)-inverse: {exc}") from exc
    y2 = bc_inverse(a + m, frame)
    if not values_equal(y2, y):
        raise BcinvError("perturbation changed the inverse")
    return y2


def corner_ring_inverse(u: RingValue, p: RingValue) -> RingValue:
    """Inverse of u inside the corner ring p R p (unit p)."""
    if not is_idempotent(p):
        raise PreconditionFailed("corner rings need an idempotent")
    if not (p * u * p == u):
        raise SingularCorner("element lies outside the corner ring")
    try:
        return bott_duffin_inverse(u, p, p)
    except InverseAbsent as exc:
        raise SingularCorner(f"element is not a unit of the corner ring: {exc}") from exc


def scale_corner(x: CornerUnit, u: RingValue, v: RingValue,
                 frame: CornerFrame, m: RingValue) -> RingValue:
    """Inverse of v*x*u + m via corner inverses of the scaling factors."""
    u_inv = corner_ring_inverse(u, frame.p)
    v_inv = corner_ring_inverse(v, frame.q)
    if not _in_complement(m, frame.q, frame.p):
        raise PreconditionFailed("m is outside q*R*(1-p) + (1-q)*R")
    y = bc_inverse(v * x.element * u + m, frame)
    expected = u_inv * x.witness * v_inv
    if not values_equal(y, expected):
        raise BcinvError("scaled corner inverse differs from the product formula")
    return y


def inverse_of_inverse(a: RingValue, frame: CornerFrame, m: RingValue) -> RingValue:
    """(q,p)-inverse of a^{-(b,c)} + m; equals q*a*p for admissible m."""
    if not _in_complement(m, frame.p, frame.q):
        raise PreconditionFailed("m is outside p*R*(1-q) + (1-p)*R")
    try:
        y = bc_inverse(a, frame)
    except InverseAbsent as exc:
        raise PreconditionFailed(f"a has no (b,c)-inverse: {exc}") from exc
    z = bc_inverse(y + m, frame.swapped())
    expected = frame.q * a * frame.p
    if not values_equal(z, expected):
        raise BcinvError("inverse of the inverse differs from q*a*p")
    return z


def bott_duffin_split_inverse(a: RingValue, p: RingValue, q: RingValue) -> RingValue:
    """a^{-1} as the sum of the (p,q)- and (1-p,1-q)-inverses, given a*p = q*a."""
    if not is_idempotent(p) or not is_idempotent(q):
        raise PreconditionFailed("p and q must be idempotent")
    if not (a * p == q * a):
        raise PreconditionFailed("the intertwining a*p = q*a fails")
    one = a.ring.one()
    try:
        y1 = bott_duffin_inverse(a, p, q)
    except InverseAbsent:
        y1 = None
    try:
        y2 = bott_duffin_inverse(a, one - p, one - q)
    except InverseAbsent:
        y2 = None
    if y1 is None or y2 is None:
        if is_unit(a):
            raise BcinvError("invertible element lost a split constituent")
        raise InverseAbsent(
            "a split constituent is missing, consistently with a not being invertible")
    s = y1 + y2
    if not (s * a == one and a * s == one):
        raise BcinvError("split sum is not a two-sided inverse")
    blocks_hold = (
        s * q == p * s
        and p * s * q * a * p == p
        and (one - p) * s * (one - q) * a * (one - p) == one - p
        and q * a * p * s * q == q
        and (one - q) * a * (one - p) * s * (one - q) == one - q
    )
    if not blocks_hold:
        raise BcinvError("block equations fail for the split inverse")
    return s


@dataclass
class ReverseOrderResult:
    condition: bool
    law_holds: bool
    product_inverse: RingValue | None
    obstruction: RingValue


def reverse_order_law_check(a1: RingValue, frame1: CornerFrame,
                            a2: RingValue, frame2: CornerFrame) -> ReverseOrderResult:
    """Zero obstruction q1*a1*(1-p1)*a2*p2 iff the product inverse reverses.

    Requires the chain condition q2 = p1 and both constituent inverses.
    """
    if not (frame2.q == frame1.p):
        raise PreconditionFailed("chain condition h2*c2 = b1*g1 fails")
    try:
        y1 = bc_inverse(a1, frame1)
        y2 = bc_inverse(a2, frame2)
    except InverseAbsent as exc:
        raise PreconditionFailed(f"a constituent inverse is missing: {exc}") from exc
    one = a1.ring.one()
    obstruction = frame1.q * a1 * (one - frame1.p) * a2 * frame2.p
    condition = obstruction.is_zero()
    product_frame = CornerFrame(frame2.b, frame1.c, frame2.g, frame1.h)
    try:
        product_inverse = bc_inverse(a1 * a2, product_frame)
    except InverseAbsent:
        product_inverse = None
    law_holds = product_inverse is not None and values_equal(product_inverse, y2 * y1)
    if condition != law_holds:
        raise BcinvError("reverse-order equivalence violated")
    return ReverseOrderResult(condition, law_holds, product_inverse, obstruction)

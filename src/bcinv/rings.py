"""Ring descriptors, elements, ideals and backend linear algebra.

Four concrete backends share one element type:

* ``Zn``  -- integers modulo n (exact, finite; answered by gcd closed forms),
* ``MFp`` -- k x k matrices over the prime field F_p (exact, finite),
* ``Q``   -- k x k matrices with rational entries (exact),
* ``R``   -- k x k float matrices with tolerance-based equality.

Every value is immutable after construction and all operations are pure
functions, so anything here is safe to evaluate concurrently.  A matrix
value keeps its spectral norm, and a float value its SVD and eigenvalues,
once computed; a value also keeps its group inverse, its certified
(b,c)-inverse in the last frame, and its products with the last partner a
(see RingValue): derived state of read-only payloads, which never goes
stale.  There is no module-level cache.

Each matrix backend has one raw-matrix format, which its values hold and
the backend linear algebra (``mat_*``) takes and returns: float ndarrays on
R; on MFp and Q the integer form of ``_exactla``, integer rows over one
positive denominator.  Exact values compute on their forms without
Fraction objects and keep their rank factorization once computed, so a
job eliminates b and c once.  Fractions are built only at the public
boundary: a payload (the read-only object array of Fractions, or ints in
[0, p)), built on its first read, and ``rank_factorization``'s arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _exactla as xla
from .errors import (
    CapExceeded,
    DimensionMismatch,
    NotInvertible,
    NotRegular,
    PreconditionFailed,
    RingMismatch,
)

MODULAR = "Zn"
PRIME_MATRIX = "MFp"
RATIONAL_MATRIX = "Q"
FLOAT_MATRIX = "R"

DEFAULT_FLOAT_TOL = 1e-9
DEFAULT_RANK_TOL = 1e-10

# The exhaustive cross-check, the one element scan outside the lab tables,
# is only attempted below this ring size.
ENUM_CAP = 65536

_IDEAL_SIDES = ("image-right", "image-left", "kernel-right", "kernel-left")

# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this bound (Sorenson and Webster, Math. Comp. 86(304), 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test; ValueError at or above _MR_LIMIT."""
    if p >= _MR_LIMIT:
        raise ValueError(f"{p} is too large for the deterministic primality test")
    if p < 2 or any(p % q == 0 for q in _MR_BASES):
        return p in _MR_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1      # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    return all(pow(q, d, p) == 1 or any(pow(q, d << i, p) == p - 1 for i in range(s))
               for q in _MR_BASES)


@dataclass(frozen=True)
class RingDescriptor:
    """Identifies one concrete ring and its equality/rank tolerances."""

    kind: str
    n: int = 0            # modulus for Zn
    p: int = 0            # characteristic for MFp
    k: int = 1            # matrix size for the matrix backends
    tol: float = 0.0      # equality tolerance, 0 for the exact backends
    rank_tol: float = DEFAULT_RANK_TOL

    @staticmethod
    def modular(n: int) -> "RingDescriptor":
        if n < 2:
            raise ValueError("modulus must be at least 2")
        return RingDescriptor(MODULAR, n=n)

    @staticmethod
    def matrices_over_prime(p: int, k: int) -> "RingDescriptor":
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("matrix size must be at least 1")
        return RingDescriptor(PRIME_MATRIX, p=p, k=k)

    @staticmethod
    def rational_matrices(k: int) -> "RingDescriptor":
        if k < 1:
            raise ValueError("matrix size must be at least 1")
        return RingDescriptor(RATIONAL_MATRIX, k=k)

    @staticmethod
    def float_matrices(k: int, tol: float = DEFAULT_FLOAT_TOL,
                       rank_tol: float = DEFAULT_RANK_TOL) -> "RingDescriptor":
        if k < 1:
            raise ValueError("matrix size must be at least 1")
        if tol <= 0:
            raise ValueError("float backend needs a positive tolerance")
        return RingDescriptor(FLOAT_MATRIX, k=k, tol=tol, rank_tol=rank_tol)

    @property
    def is_finite(self) -> bool:
        return self.kind in (MODULAR, PRIME_MATRIX)

    @property
    def is_matrix(self) -> bool:
        return self.kind in (PRIME_MATRIX, RATIONAL_MATRIX, FLOAT_MATRIX)

    @property
    def size(self) -> int:
        if self.kind == MODULAR:
            return self.n
        if self.kind == PRIME_MATRIX:
            return self.p ** (self.k * self.k)
        raise CapExceeded(f"{self.name} is not finite")

    @property
    def name(self) -> str:
        if self.kind == MODULAR:
            return f"Zn:{self.n}"
        if self.kind == PRIME_MATRIX:
            return f"MFp:{self.p}:{self.k}"
        if self.kind == RATIONAL_MATRIX:
            return f"Q:{self.k}"
        return f"R:{self.k}"

    # -- element construction -------------------------------------------

    def element(self, data) -> "RingValue":
        if isinstance(data, RingValue):
            if data.ring != self:
                theirs, ours = _distinct_names(data.ring, self)
                raise RingMismatch(f"value from {theirs} used in {ours}")
            return data
        if self.kind == MODULAR:
            if isinstance(data, (np.ndarray, list, tuple)):
                raise DimensionMismatch("modular backend expects a single residue")
            return RingValue(self, int(data) % self.n)
        if np.isscalar(data):
            return self.scalar(data)
        return self._value(np.asarray(data))

    def scalar(self, value) -> "RingValue":
        """Scalar embedded as value * identity (matrix backends)."""
        if self.kind == MODULAR:
            return self.element(value)
        if self.kind == FLOAT_MATRIX:
            return self._value(np.asarray(
                [[value if i == j else 0 * value for j in range(self.k)] for i in range(self.k)]))
        if self.kind == PRIME_MATRIX:
            value = int(value)
        elif type(value) is not int:
            value = Fraction(value)
        return self._exact([[value if i == j else 0 for j in range(self.k)]
                            for i in range(self.k)])

    def _value(self, arr: np.ndarray) -> "RingValue":
        if arr.shape != (self.k, self.k):
            raise DimensionMismatch(
                f"expected a {self.k}x{self.k} matrix, got shape {arr.shape}")
        # The exact backends hold Python ints (tolist() yields them), so no
        # numpy int64, which overflows silently, ends up in a product.  Only
        # the integer form is built here; ints enter it as they are.
        if self.kind == PRIME_MATRIX:
            return self._exact([[int(v) for v in row] for row in arr.tolist()])
        if self.kind == RATIONAL_MATRIX:
            return self._exact(
                [[v if type(v) is int else Fraction(v) for v in row] for row in arr.tolist()])
        out = np.asarray(arr, dtype=np.float64).copy()
        if not np.isfinite(out).all():
            i, j = np.argwhere(~np.isfinite(out))[0]
            raise PreconditionFailed(
                f"entry ({i + 1}, {j + 1}) is {out[i, j]}: the float backend "
                "needs finite entries")
        out.setflags(write=False)
        return RingValue(self, out)

    def _exact(self, rows) -> "RingValue":
        """MFp or Q value with the given entry rows (ints, or Fractions on Q)."""
        return _ExactValue(self, xla.form(rows, self.p))

    def zero(self) -> "RingValue":
        if self.kind == FLOAT_MATRIX:
            return self.element(np.zeros((self.k, self.k)))
        return RingValue(self, 0) if self.kind == MODULAR else self.scalar(0)

    def one(self) -> "RingValue":
        if self.kind == FLOAT_MATRIX:
            return self.element(np.eye(self.k))
        return RingValue(self, 1 % self.n) if self.kind == MODULAR else self.scalar(1)

    def unit_matrix(self, i: int, j: int) -> "RingValue":
        """Matrix unit with a single 1 in (zero-based) slot (i, j)."""
        if self.kind != FLOAT_MATRIX:
            return self._exact([[int(r == i and s == j) for s in range(self.k)]
                                for r in range(self.k)])
        m = np.zeros((self.k, self.k))
        m[i, j] = 1.0
        return self.element(m)

    def elements(self):
        """All ring elements in a fixed lexicographic order (finite only)."""
        if self.kind == MODULAR:
            for i in range(self.n):
                yield RingValue(self, i)
        elif self.kind == PRIME_MATRIX:
            for digits in itertools.product(range(self.p), repeat=self.k * self.k):
                yield _ExactValue(self, xla.form_reshape(((digits,), 1), self.k))
        else:
            raise CapExceeded(f"{self.name} cannot be enumerated")


def _distinct_names(first: RingDescriptor, second: RingDescriptor) -> tuple[str, str]:
    """Names of two different rings, with tolerances added when the names agree."""
    if first.name != second.name:
        return first.name, second.name
    return tuple(f"{r.name} (tol {r.tol:g}, rank_tol {r.rank_tol:g})" for r in (first, second))


class RingValue:
    """Immutable element of one concrete ring.

    Besides ring and payload, the slots hold derived state, unset until
    first needed, so constructing a value does no extra work:

    * _norm: the spectral norm (norm());
    * _svd: a float value's full SVD (_kept_svd);
    * _eigs: a float value's eigenvalues (_kept_eigvals);
    * _sharp: the group inverse (inverses.group_inverse);
    * _bc: (frame, y), the certified (b,c)-inverse of the default route in
      that frame (inverses.bc_inverse);
    * _products: (a, a*self, self*a) for the last a (_kept_products);
    * _bound: (frame, data), perturbation_bound's lambda-independent data,
      kept on a product a*v.

    A keyed entry holds its key objects, so their ids cannot be reused while
    it lives, and it is read only when its key is the very object asked for.
    Two threads that fill a slot at once store equal values, or entries for
    different keys of which the last one stays, so the race is harmless.

    MFp and Q values are _ExactValues: they keep the integer form of
    _exactla (integer rows over one denominator), on which their arithmetic,
    equality and keys run, and their rank factorization once computed.
    Their payload, the read-only object array of entries, is built from the
    form on its first read.
    """

    __slots__ = ("ring", "payload", "_norm", "_svd", "_eigs", "_sharp", "_bc", "_products",
                 "_bound")

    def __init__(self, ring: RingDescriptor, payload):
        self.ring = ring
        self.payload = payload

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "RingValue":
        if isinstance(other, RingValue):
            if other.ring != self.ring:
                ours, theirs = _distinct_names(self.ring, other.ring)
                raise RingMismatch(f"mixed rings {ours} and {theirs}")
            return other
        if isinstance(other, int) or (
                self.ring.kind == FLOAT_MATRIX and isinstance(other, float)):
            return self.ring.scalar(other)
        return NotImplemented

    def _sum(self, other, sign: int):
        """self + sign * other, for sign 1 or -1."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ring = self.ring
        if ring.kind == MODULAR:
            return RingValue(ring, (self.payload + sign * other.payload) % ring.n)
        if ring.kind != FLOAT_MATRIX:
            return _ExactValue(ring, xla.form_sum(self.form, other.form, ring.p, sign))
        out = self.payload + other.payload if sign > 0 else self.payload - other.payload
        out.setflags(write=False)
        return RingValue(ring, out)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        ring = self.ring
        if ring.kind == MODULAR:
            return RingValue(ring, -self.payload % ring.n)
        if ring.kind != FLOAT_MATRIX:
            return _ExactValue(ring, xla.form_neg(self.form, ring.p))
        out = -self.payload
        out.setflags(write=False)
        return RingValue(ring, out)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.ring.kind == MODULAR:
            return RingValue(self.ring, (self.payload * other.payload) % self.ring.n)
        if self.ring.kind != FLOAT_MATRIX:
            return _ExactValue(self.ring, xla.form_mul(self.form, other.form, self.ring.p))
        out = self.payload @ other.payload
        out.setflags(write=False)
        return RingValue(self.ring, out)

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def __eq__(self, other):
        if not isinstance(other, RingValue):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        elif other.ring != self.ring:
            return False
        return values_equal(self, other)

    def __hash__(self):
        return hash(self.key())

    # -- structure -------------------------------------------------------

    def key(self):
        """Canonical hashable/sortable form (exact backends only)."""
        if self.ring.kind == MODULAR:
            return self.payload
        if self.ring.kind == PRIME_MATRIX:
            return tuple(itertools.chain.from_iterable(self.form[0]))
        if self.ring.kind == RATIONAL_MATRIX:
            rows, den = self.form
            return tuple(_lowest_terms(v, den) for v in itertools.chain.from_iterable(rows))
        raise TypeError("float matrices have no canonical key")

    def is_zero(self) -> bool:
        if self.ring.kind == MODULAR:
            return self.payload == 0
        if self.ring.kind == FLOAT_MATRIX:
            return self == self.ring.zero()
        return not any(map(any, self.form[0]))

    def transpose(self) -> "RingValue":
        if self.ring.kind == MODULAR:
            return self
        if self.ring.kind != FLOAT_MATRIX:
            return _ExactValue(self.ring, xla.form_transpose(self.form))
        out = self.payload.T.copy()
        out.setflags(write=False)
        return RingValue(self.ring, out)

    def norm(self) -> float:
        """Spectral norm (matrix backends), computed once; float value of the residue on Zn.

        It is the first of the singular values alone, so it equals
        _spectral_norm(payload) bit for bit whatever else was asked of the value.
        """
        if self.ring.kind == MODULAR:
            return float(self.payload)
        norm = getattr(self, "_norm", None)
        if norm is None:
            norm = self._norm = _spectral_norm(np.asarray(self.payload, dtype=float))
        return norm

    def __repr__(self):
        if self.ring.kind == MODULAR:
            return f"<{self.payload} in {self.ring.name}>"
        return f"<{self.ring.name} {np.asarray(self.payload).tolist()}>"


class _ExactValue(RingValue):
    """An MFp or Q value, held as its integer form (rows, den).

    payload is built from the form on its first read, and _factors (see
    _kept_factors) once first needed.  The lazy slots and __getattr__ live
    on this class only, so float and Zn values pay nothing for them.
    """

    __slots__ = ("form", "_factors")

    def __init__(self, ring: RingDescriptor, form):
        self.ring = ring
        self.form = form

    def __getattr__(self, name):
        # Called only when a slot is unset: build the payload on its first read.
        if name != "payload":
            raise AttributeError(name)
        out = np.array(xla.entries(self.form, self.ring.p), dtype=object)
        out.setflags(write=False)
        self.payload = out
        return out


def _lowest_terms(num: int, den: int) -> tuple[int, int]:
    g = math.gcd(num, den)
    return num // g, den // g


def values_equal(x: RingValue, y: RingValue, tol: float | None = None) -> bool:
    """Backend equality; normwise relative with an absolute floor on floats."""
    if x.ring != y.ring:
        first, second = _distinct_names(x.ring, y.ring)
        raise RingMismatch(f"cannot compare values from {first} and {second}")
    if x.ring.kind == MODULAR:
        return x.payload == y.payload
    if x.ring.kind in (PRIME_MATRIX, RATIONAL_MATRIX):
        return x.form == y.form
    if tol is None:
        tol = x.ring.tol
    diff = np.linalg.norm(x.payload - y.payload)
    scale = 1.0 + max(np.linalg.norm(x.payload), np.linalg.norm(y.payload))
    return bool(diff <= tol * scale)


def is_idempotent(x: RingValue) -> bool:
    return x * x == x


# ---------------------------------------------------------------------------
# Backend linear algebra on raw rectangular matrices: float ndarrays on R,
# integer forms of _exactla on MFp and Q.
#
# Exact matrix backends use the deterministic elimination kernel; the float
# backend uses SVD with the usual numerical-rank threshold
# sigma < rank_tol * max_dim * sigma_max.
# ---------------------------------------------------------------------------


def _field(ring: RingDescriptor) -> int:
    """The kernel's field argument: p for MFp, 0 for Q."""
    if ring.kind not in (PRIME_MATRIX, RATIONAL_MATRIX):
        raise PreconditionFailed(f"{ring.name} has no exact field")
    return ring.p


def _raw(x: RingValue):
    """The raw matrix a matrix value holds: its payload on R, its form on MFp and Q."""
    return x.payload if x.ring.kind == FLOAT_MATRIX else x.form


def _as_raw(ring: RingDescriptor, arr):
    """The raw matrix holding an array of entries: float on R, its integer form on MFp and Q."""
    arr = np.asarray(arr)
    return arr.astype(float) if ring.kind == FLOAT_MATRIX else xla.form(arr.tolist(), ring.p)


def _shape(A) -> tuple[int, int]:
    """(rows, columns) of a raw matrix; a form without rows reads as 0 x 0."""
    if isinstance(A, np.ndarray):
        return A.shape
    rows = A[0]
    return len(rows), len(rows[0]) if rows else 0


def _wrap(ring: RingDescriptor, A) -> RingValue:
    """Ring value holding a fresh k x k result of the backend linear algebra."""
    if ring.kind == FLOAT_MATRIX:
        return ring.element(A)
    return _ExactValue(ring, A)


def _spectral_norm(arr: np.ndarray) -> float:
    """The value np.linalg.norm(arr, 2) computes, without its dispatch.

    That norm is the largest singular value, and LAPACK returns them in
    descending order, so the first one is the same float bit for bit.
    """
    return float(np.linalg.svd(arr, compute_uv=False)[0]) if arr.size else 0.0


def _kept_svd(x: RingValue) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The full SVD (u, s, vh) of a float value, computed once and kept on it.

    The arrays are read-only; callers hand out slices only as fresh arrays.
    """
    usv = getattr(x, "_svd", None)
    if usv is None:
        usv = tuple(np.linalg.svd(x.payload))
        for part in usv:
            part.setflags(write=False)
        x._svd = usv
    return usv


def _kept_eigvals(x: RingValue) -> np.ndarray:
    """The eigenvalues of a float value, computed once and kept on it (read-only)."""
    eigs = getattr(x, "_eigs", None)
    if eigs is None:
        eigs = np.linalg.eigvals(x.payload)
        eigs.setflags(write=False)
        x._eigs = eigs
    return eigs


def _kept_products(a: RingValue, v: RingValue) -> tuple[RingValue, RingValue]:
    """(a*v, v*a), built once per a and kept on v, keyed by the identity of a."""
    kept = getattr(v, "_products", None)
    if kept is None or kept[0] is not a:
        kept = v._products = (a, a * v, v * a)
    return kept[1], kept[2]


def _float_rank(ring: RingDescriptor, arr: np.ndarray, s: np.ndarray | None = None,
                scale: float | None = None) -> int:
    """Numerical rank of arr; s are its singular values when the caller has them.

    The threshold is relative to scale, by default the largest singular
    value of arr; a caller whose arr is a product passes a bound on the
    norms of its factors instead (Golub and Van Loan, Matrix Computations,
    on numerical rank: rank is decided against the scale of the data).
    """
    if arr.size == 0:
        return 0
    if s is None:
        s = np.linalg.svd(arr, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    threshold = ring.rank_tol * max(arr.shape) * (s[0] if scale is None else scale)
    return int(np.sum(s > threshold))


def _rank_and_norm(ring: RingDescriptor, A) -> tuple[int, float | None]:
    """Rank of a raw matrix and, on R, its spectral norm from the same SVD (None on MFp, Q)."""
    if ring.kind != FLOAT_MATRIX:
        return xla.rank(A, _field(ring)), None
    A = np.asarray(A, dtype=float)
    s = np.linalg.svd(A, compute_uv=False) if A.size else np.zeros(1)
    return _float_rank(ring, A, s), float(s[0])


def mat_rank(ring: RingDescriptor, A) -> int:
    return _rank_and_norm(ring, A)[0]


def mat_mul(ring: RingDescriptor, A, B):
    """A @ B for an inner dimension of at least one."""
    if ring.kind == FLOAT_MATRIX:
        return np.asarray(A) @ np.asarray(B)
    return xla.form_mul(A, B, _field(ring))


def mat_transpose(ring: RingDescriptor, A):
    return np.asarray(A).T if ring.kind == FLOAT_MATRIX else xla.form_transpose(A)


def mat_hstack(ring: RingDescriptor, A, B):
    return np.hstack([A, B]) if ring.kind == FLOAT_MATRIX else xla.form_hstack(A, B)


def mat_vstack(ring: RingDescriptor, A, B):
    return np.vstack([A, B]) if ring.kind == FLOAT_MATRIX else xla.form_vstack(A, B)


def mat_kron(ring: RingDescriptor, A, B):
    return np.kron(A, B) if ring.kind == FLOAT_MATRIX else xla.form_kron(A, B, _field(ring))


def mat_reshape(ring: RingDescriptor, A, ncols: int):
    return A.reshape(-1, ncols) if ring.kind == FLOAT_MATRIX else xla.form_reshape(A, ncols)


def mat_null_basis(ring: RingDescriptor, A):
    """Columns spanning {x : A @ x = 0}, for an A with k columns."""
    if ring.kind == FLOAT_MATRIX:
        arr = np.asarray(A, dtype=float)
        if arr.size == 0:
            return np.eye(arr.shape[1])
        u, s, vh = np.linalg.svd(arr, full_matrices=True)
        r = _float_rank(ring, arr, s)
        return vh[r:].T.copy()
    # A form without rows has lost its column count, which is k here.
    return xla.null_space(A, ring.k, _field(ring))


def mat_col_basis(ring: RingDescriptor, A):
    """Columns spanning the column space of A."""
    if ring.kind == FLOAT_MATRIX:
        arr = np.asarray(A, dtype=float)
        u, s, vh = np.linalg.svd(arr, full_matrices=False)
        r = _float_rank(ring, arr, s)
        return u[:, :r].copy()
    return xla.form_rank_factorization(A, _field(ring))[0]


def mat_solve(ring: RingDescriptor, A, B):
    """Any solution X of A @ X = B, or None when inconsistent."""
    if ring.kind == FLOAT_MATRIX:
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
        X, *_ = np.linalg.lstsq(A, B, rcond=None)
        resid = np.linalg.norm(A @ X - B)
        scale = 1.0 + np.linalg.norm(A) * (1.0 + np.linalg.norm(X)) + np.linalg.norm(B)
        if resid > math.sqrt(ring.rank_tol) * scale:
            return None
        return X
    return xla.solve(A, B, _field(ring))


def mat_inv(ring: RingDescriptor, A, scale: float | None = None):
    """Inverse of a square raw matrix, or None when singular.

    scale is the float rank threshold's scale (see _float_rank).
    """
    if ring.kind != FLOAT_MATRIX:
        return xla.form_inverse(A, _field(ring))
    A = np.asarray(A, dtype=float)
    if _float_rank(ring, A, scale=scale) < A.shape[0]:
        return None
    return np.linalg.inv(A)


# ---------------------------------------------------------------------------
# Units, inner inverses and rank factorizations of ring elements.
# ---------------------------------------------------------------------------


def is_unit(x: RingValue) -> bool:
    try:
        invert(x)
        return True
    except NotInvertible:
        return False


def invert(x: RingValue) -> RingValue:
    """Two-sided inverse; raises NotInvertible when none exists."""
    ring = x.ring
    if ring.kind == MODULAR:
        if math.gcd(x.payload, ring.n) != 1:
            raise NotInvertible(f"{x.payload} is not a unit mod {ring.n}")
        return RingValue(ring, pow(x.payload, -1, ring.n))
    inv = mat_inv(ring, _raw(x))
    if inv is None:
        raise NotInvertible("matrix is singular")
    return _wrap(ring, inv)


def is_right_invertible(x: RingValue) -> bool:
    """Whether x has a right inverse (x * t = 1 for some t)."""
    ring = x.ring
    if ring.kind == MODULAR:
        return math.gcd(x.payload, ring.n) == 1
    return _shape(_factors(x)[1])[0] == ring.k


# Zn is commutative and a square matrix with a right inverse has full rank,
# so one-sided invertibility is two-sided on every backend.
is_left_invertible = is_right_invertible


def rank_factorization(x: RingValue):
    """x = B @ C with B full column rank, C full row rank, as arrays (of Fractions on Q)."""
    ring = x.ring
    if not ring.is_matrix:
        raise PreconditionFailed("rank factorization needs a matrix backend")
    if ring.kind == FLOAT_MATRIX:
        u, s, vh = _kept_svd(x)
        r = _float_rank(ring, x.payload, s)
        return u[:, :r] * s[:r], vh[:r].copy()
    B, C = (np.array(xla.entries(F, ring.p), dtype=object) for F in _kept_factors(x))
    return B.reshape(ring.k, -1), C.reshape(-1, ring.k)


def _kept_factors(x: RingValue) -> tuple[tuple, tuple]:
    """Integer forms of the exact rank factorization (B, C) of x, computed once and kept on it."""
    factors = getattr(x, "_factors", None)
    if factors is None:
        factors = x._factors = xla.form_rank_factorization(x.form, x.ring.p)
    return factors


def _factors(x: RingValue):
    """Raw rank factorization (B, C) of a matrix value: arrays on R, the kept forms on MFp, Q."""
    return rank_factorization(x) if x.ring.kind == FLOAT_MATRIX else _kept_factors(x)


def canonical_inner_inverse(b: RingValue) -> RingValue:
    """Deterministic inner inverse.

    On Zn let d = gcd(b, n).  Since b/d is prime to n/d,

        b*g*b = b (mod n)  iff  n | b*(g*b - 1)  iff  n/d | g*b - 1,

    so b is regular iff gcd(b, n/d) = 1, and its inner inverses are the
    g congruent to b^{-1} modulo n/d.  The least of them, pow(b, -1, n/d),
    is returned.  Matrix backends combine a right inverse of C with a left
    inverse of B from the rank factorization b = B @ C.
    """
    ring = b.ring
    if ring.kind == MODULAR:
        m = ring.n // math.gcd(b.payload, ring.n)
        if math.gcd(b.payload, m) != 1:
            raise NotRegular(f"{b!r} has no inner inverse")
        return RingValue(ring, pow(b.payload, -1, m))
    if ring.kind == FLOAT_MATRIX:
        u, s, vh = _kept_svd(b)
        r = _float_rank(ring, b.payload, s)
        if r == 0:
            return ring.zero()
        g = (vh[:r, :].T / s[:r]) @ u[:, :r].T
        return ring.element(g)
    B, C = _kept_factors(b)
    if not C[0]:
        return ring.zero()
    return _ExactValue(ring, xla.form_mul(xla.form_right_inverse(C, ring.p),
                                          xla.form_left_inverse(B, ring.p), ring.p))


def normalized_inner_inverse(b: RingValue, w: RingValue) -> RingValue:
    """w' = w*b*w, a simultaneous inner and outer inverse of b."""
    if not (b * w * b == b):
        raise PreconditionFailed("w is not an inner inverse of b")
    return w * b * w


# ---------------------------------------------------------------------------
# Ideals: the sets bR, Rb, b^{-1}(0), b_{-1}(0).
# ---------------------------------------------------------------------------


class Ideal:
    """One image or kernel ideal of a fixed element.

    Zn stores the divisor d of n that generates the ideal dR; matrix
    backends store a basis of the subspace that characterizes membership
    (column space, row space, right null space or left null space), as the
    columns of a raw matrix of the backend: a float array on R, an integer
    form of _exactla on MFp and Q.
    """

    def __init__(self, ring: RingDescriptor, side: str,
                 generator: int | None = None, basis=None):
        if side not in _IDEAL_SIDES:
            raise ValueError(f"unknown ideal side {side!r}")
        self.ring = ring
        self.side = side
        self.generator = generator
        self.basis = basis

    def dim(self) -> int:
        if self.basis is None:
            raise PreconditionFailed("Zn ideal has no dimension")
        return _shape(self.basis)[1]

    def contains(self, value: RingValue) -> bool:
        if value.ring != self.ring:
            raise RingMismatch("value belongs to a different ring")
        if self.generator is not None:
            return value.payload % self.generator == 0
        # Membership reduces to containment of the columns of m (right
        # sides) or of m^T (left sides) in the span of the stored basis.
        if self.side.endswith("left"):
            value = value.transpose()
        stacked = mat_hstack(self.ring, self.basis, _raw(value))
        return mat_rank(self.ring, stacked) == mat_rank(self.ring, self.basis)

    def _comparable(self, other: "Ideal") -> None:
        if not isinstance(other, Ideal) or other.ring != self.ring:
            raise RingMismatch("ideals live in different rings")
        if other.side != self.side:
            raise ValueError("ideals of different sides are not comparable")

    def issubset(self, other: "Ideal") -> bool:
        self._comparable(other)
        if self.generator is not None:
            return self.generator % other.generator == 0
        stacked = mat_hstack(self.ring, other.basis, self.basis)
        return mat_rank(self.ring, stacked) == mat_rank(self.ring, other.basis)

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        self._comparable(other)
        if self.generator is not None:
            return self.generator == other.generator
        return self.issubset(other) and other.issubset(self)

    def __repr__(self):
        if self.generator is not None:
            return f"<Ideal {self.side} {self.generator % self.ring.n}R in {self.ring.name}>"
        return f"<Ideal {self.side} dim {self.dim()} in {self.ring.name}>"


def ideal(x: RingValue, side: str) -> Ideal:
    """Image or kernel ideal of x: one of the four _IDEAL_SIDES."""
    ring = x.ring
    if side not in _IDEAL_SIDES:
        raise ValueError(f"unknown ideal side {side!r}")
    if ring.kind == MODULAR:
        # With d = gcd(x, n): d = u*x + v*n (Bezout), so xR = Rx = dR; and
        # x*m = 0 (mod n) iff n/d | (x/d)*m iff n/d | m, so both kernels
        # are (n/d)R.  For divisors d, e of n, dR is inside eR iff e | d.
        d = math.gcd(x.payload, ring.n)
        return Ideal(ring, side, generator=d if side.startswith("image") else ring.n // d)
    arr = _raw(x)
    if side.endswith("left"):
        arr = mat_transpose(ring, arr)
    basis = (mat_col_basis if side.startswith("image") else mat_null_basis)(ring, arr)
    return Ideal(ring, side, basis=basis)

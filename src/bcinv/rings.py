"""Ring descriptors, elements, ideals and backend linear algebra.

Four concrete backends share one element type:

* ``Zn``  -- integers modulo n (exact, finite, enumerable),
* ``MFp`` -- k x k matrices over the prime field F_p (exact, finite),
* ``Q``   -- k x k matrices with rational entries (exact),
* ``R``   -- k x k float matrices with tolerance-based equality.

Every value is immutable after construction and all operations are pure
functions, so anything here is safe to evaluate concurrently.
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

# Full enumeration (inner-inverse sets, exhaustive inverse search) is only
# attempted below this ring size; it also bounds the element sets of Zn ideals.
ENUM_CAP = 65536

_IDEAL_SIDES = ("image-right", "image-left", "kernel-right", "kernel-left")


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for d in range(2, int(math.isqrt(p)) + 1):
        if p % d == 0:
            return False
    return True


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
    def is_exact(self) -> bool:
        return self.kind != FLOAT_MATRIX

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
        return RingValue(self, self._payload(np.asarray(data)))

    def scalar(self, value) -> "RingValue":
        """Scalar embedded as value * identity (matrix backends)."""
        if self.kind == MODULAR:
            return self.element(value)
        if self.kind == RATIONAL_MATRIX:
            value = Fraction(value)
        return RingValue(self, self._payload(np.asarray(
            [[value if i == j else 0 * value for j in range(self.k)] for i in range(self.k)],
            dtype=object if self.kind == RATIONAL_MATRIX else None)))

    def _payload(self, arr: np.ndarray):
        if arr.shape != (self.k, self.k):
            raise DimensionMismatch(
                f"expected a {self.k}x{self.k} matrix, got shape {arr.shape}")
        if self.kind == PRIME_MATRIX:
            out = np.asarray(arr, dtype=np.int64) % self.p
        elif self.kind == RATIONAL_MATRIX:
            # tolist() yields Python ints, so no numpy int64 (which overflows
            # silently in elimination) ends up inside a Fraction.
            out = np.array([[Fraction(v) for v in row] for row in arr.tolist()],
                           dtype=object)
        else:
            out = np.asarray(arr, dtype=np.float64).copy()
        out.setflags(write=False)
        return out

    def zero(self) -> "RingValue":
        if self.kind == MODULAR:
            return RingValue(self, 0)
        return self.element(np.zeros((self.k, self.k)))

    def one(self) -> "RingValue":
        if self.kind == MODULAR:
            return RingValue(self, 1 % self.n)
        return self.element(np.eye(self.k))

    def unit_matrix(self, i: int, j: int) -> "RingValue":
        """Matrix unit with a single 1 in (zero-based) slot (i, j)."""
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
                yield self.element(np.array(digits).reshape(self.k, self.k))
        else:
            raise CapExceeded(f"{self.name} cannot be enumerated")


def _distinct_names(first: RingDescriptor, second: RingDescriptor) -> tuple[str, str]:
    """Names of two different rings, with tolerances added when the names agree."""
    if first.name != second.name:
        return first.name, second.name
    return tuple(f"{r.name} (tol {r.tol:g}, rank_tol {r.rank_tol:g})" for r in (first, second))


class RingValue:
    """Immutable element of one concrete ring."""

    __slots__ = ("ring", "payload")

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

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.ring.kind == MODULAR:
            return RingValue(self.ring, (self.payload + other.payload) % self.ring.n)
        out = self.payload + other.payload
        if self.ring.kind == PRIME_MATRIX:
            out = out % self.ring.p
        out.setflags(write=False)
        return RingValue(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        if self.ring.kind == MODULAR:
            return RingValue(self.ring, (-self.payload) % self.ring.n)
        out = -self.payload
        if self.ring.kind == PRIME_MATRIX:
            out = out % self.ring.p
        out.setflags(write=False)
        return RingValue(self.ring, out)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.ring.kind == MODULAR:
            return RingValue(self.ring, (self.payload * other.payload) % self.ring.n)
        out = self.payload @ other.payload
        if self.ring.kind == PRIME_MATRIX:
            out = out % self.ring.p
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

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self):
        return hash(self.key())

    # -- structure -------------------------------------------------------

    def key(self):
        """Canonical hashable/sortable form (exact backends only)."""
        if self.ring.kind == MODULAR:
            return self.payload
        if self.ring.kind == PRIME_MATRIX:
            return tuple(int(v) for v in self.payload.reshape(-1))
        if self.ring.kind == RATIONAL_MATRIX:
            return tuple((f.numerator, f.denominator) for f in self.payload.reshape(-1))
        raise TypeError("float matrices have no canonical key")

    def is_zero(self) -> bool:
        return self == self.ring.zero()

    def transpose(self) -> "RingValue":
        if self.ring.kind == MODULAR:
            return self
        out = self.payload.T.copy()
        out.setflags(write=False)
        return RingValue(self.ring, out)

    def norm(self) -> float:
        """Spectral norm (float backend); float value of |residue| otherwise."""
        if self.ring.kind == MODULAR:
            return float(self.payload)
        if self.ring.kind == FLOAT_MATRIX:
            return float(np.linalg.norm(self.payload, 2))
        return float(np.linalg.norm(np.asarray(self.payload, dtype=float), 2))

    def __repr__(self):
        if self.ring.kind == MODULAR:
            return f"<{self.payload} in {self.ring.name}>"
        return f"<{self.ring.name} {np.asarray(self.payload).tolist()}>"


def values_equal(x: RingValue, y: RingValue, tol: float | None = None) -> bool:
    """Backend equality; normwise relative with an absolute floor on floats."""
    if x.ring != y.ring:
        first, second = _distinct_names(x.ring, y.ring)
        raise RingMismatch(f"cannot compare values from {first} and {second}")
    if x.ring.kind == MODULAR:
        return x.payload == y.payload
    if x.ring.kind in (PRIME_MATRIX, RATIONAL_MATRIX):
        return bool(np.all(x.payload == y.payload))
    if tol is None:
        tol = x.ring.tol
    diff = np.linalg.norm(x.payload - y.payload)
    scale = 1.0 + max(np.linalg.norm(x.payload), np.linalg.norm(y.payload))
    return bool(diff <= tol * scale)


def is_idempotent(x: RingValue) -> bool:
    return x * x == x


# ---------------------------------------------------------------------------
# Backend linear algebra on raw rectangular arrays.
#
# Exact matrix backends use the deterministic elimination kernel; the float
# backend uses SVD with the usual numerical-rank threshold
# sigma < rank_tol * max_dim * sigma_max.
# ---------------------------------------------------------------------------


def _field(ring: RingDescriptor):
    if ring.kind == PRIME_MATRIX:
        return xla.GFp(ring.p)
    if ring.kind == RATIONAL_MATRIX:
        return xla.QQ()
    raise PreconditionFailed(f"{ring.name} has no exact field")


def _to_lists(arr) -> list:
    # tolist() yields native Python scalars (three-arg pow rejects np.int64).
    out = np.asarray(arr).tolist()
    return [list(row) for row in out]


def _from_lists(ring: RingDescriptor, rows, shape=None) -> np.ndarray:
    if not rows or (rows and not rows[0]):
        m = len(rows)
        n = len(rows[0]) if rows else (shape[1] if shape else 0)
        if shape is not None:
            m, n = shape
        dtype = object if ring.kind == RATIONAL_MATRIX else np.int64
        return np.empty((m, n), dtype=dtype)
    dtype = object if ring.kind == RATIONAL_MATRIX else np.int64
    out = np.empty((len(rows), len(rows[0])), dtype=dtype)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            out[i, j] = v
    return out


def _float_rank(ring: RingDescriptor, arr: np.ndarray) -> int:
    if arr.size == 0:
        return 0
    s = np.linalg.svd(arr, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    threshold = ring.rank_tol * max(arr.shape) * s[0]
    return int(np.sum(s > threshold))


def mat_rank(ring: RingDescriptor, arr: np.ndarray) -> int:
    if ring.kind == FLOAT_MATRIX:
        return _float_rank(ring, np.asarray(arr, dtype=float))
    return xla.rank(_field(ring), _to_lists(arr))


def mat_mul(ring: RingDescriptor, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    out = np.asarray(A) @ np.asarray(B)
    if ring.kind == PRIME_MATRIX:
        out = out % ring.p
    return out


def mat_null_basis(ring: RingDescriptor, arr: np.ndarray) -> np.ndarray:
    """Columns spanning {x : arr @ x = 0}."""
    arr = np.asarray(arr)
    if ring.kind == FLOAT_MATRIX:
        arr = np.asarray(arr, dtype=float)
        if arr.size == 0:
            return np.eye(arr.shape[1])
        u, s, vh = np.linalg.svd(arr, full_matrices=True)
        r = _float_rank(ring, arr)
        return vh[r:].T.copy()
    if arr.shape[0] == 0:
        # No equations: every vector solves them.  (The list kernel cannot
        # see the column count of a matrix without rows.)
        n = arr.shape[1]
        return _from_lists(ring, xla.identity(_field(ring), n), shape=(n, n))
    vecs = xla.null_space(_field(ring), _to_lists(arr))
    if not vecs:
        dtype = object if ring.kind == RATIONAL_MATRIX else np.int64
        return np.empty((arr.shape[1], 0), dtype=dtype)
    return _from_lists(ring, xla.transpose(vecs))


def mat_col_basis(ring: RingDescriptor, arr: np.ndarray) -> np.ndarray:
    """Columns spanning the column space of arr."""
    arr = np.asarray(arr)
    if ring.kind == FLOAT_MATRIX:
        arr = np.asarray(arr, dtype=float)
        if arr.size == 0:
            return np.empty((arr.shape[0], 0))
        u, s, vh = np.linalg.svd(arr, full_matrices=False)
        r = _float_rank(ring, arr)
        return u[:, :r].copy()
    B, _ = xla.rank_factorization(_field(ring), _to_lists(arr))
    return _from_lists(ring, B, shape=(arr.shape[0], 0))


def mat_solve(ring: RingDescriptor, A: np.ndarray, B: np.ndarray):
    """Any solution X of A @ X = B, or None when inconsistent."""
    A = np.asarray(A)
    B = np.asarray(B)
    if ring.kind == FLOAT_MATRIX:
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
        X, *_ = np.linalg.lstsq(A, B, rcond=None)
        resid = np.linalg.norm(A @ X - B)
        scale = 1.0 + np.linalg.norm(A) * (1.0 + np.linalg.norm(X)) + np.linalg.norm(B)
        if resid > math.sqrt(ring.rank_tol) * scale:
            return None
        return X
    return_shape = (A.shape[1], B.shape[1])
    X = xla.solve(_field(ring), _to_lists(A), _to_lists(B))
    if X is None:
        return None
    return _from_lists(ring, X, shape=return_shape)


def mat_inv(ring: RingDescriptor, A: np.ndarray):
    """Inverse of a square raw matrix, or None when singular."""
    A = np.asarray(A)
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch("only square matrices can be inverted")
    if A.shape[0] == 0:
        return A.copy()
    if ring.kind == FLOAT_MATRIX:
        A = np.asarray(A, dtype=float)
        if _float_rank(ring, A) < A.shape[0]:
            return None
        return np.linalg.inv(A)
    inv = xla.inverse(_field(ring), _to_lists(A))
    if inv is None:
        return None
    return _from_lists(ring, inv)


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
    inv = mat_inv(ring, x.payload)
    if inv is None:
        raise NotInvertible("matrix is singular")
    return ring.element(inv)


def is_right_invertible(x: RingValue) -> bool:
    """Whether x has a right inverse (x * t = 1 for some t)."""
    ring = x.ring
    if ring.kind == MODULAR:
        return math.gcd(x.payload, ring.n) == 1
    return mat_rank(ring, x.payload) == ring.k


def is_left_invertible(x: RingValue) -> bool:
    if x.ring.kind == MODULAR:
        return is_right_invertible(x)
    return mat_rank(x.ring, x.payload) == x.ring.k


def rank_factorization(x: RingValue):
    """x = B @ C with B full column rank, C full row rank, as raw arrays."""
    ring = x.ring
    if not ring.is_matrix:
        raise PreconditionFailed("rank factorization needs a matrix backend")
    if ring.kind == FLOAT_MATRIX:
        arr = np.asarray(x.payload, dtype=float)
        u, s, vh = np.linalg.svd(arr)
        r = _float_rank(ring, arr)
        B = u[:, :r] * s[:r]
        C = vh[:r, :].copy()
        return B, C
    B, C = xla.rank_factorization(_field(ring), _to_lists(x.payload))
    return (_from_lists(ring, B, shape=(ring.k, 0)),
            _from_lists(ring, C, shape=(0, ring.k)))


def inner_inverses(b: RingValue, cap: int = ENUM_CAP) -> list[RingValue]:
    """All inner inverses on small finite backends, a canonical choice elsewhere.

    Every returned g satisfies b*g*b == b; raises NotRegular when no inner
    inverse exists (only possible on the finite non-field backends).
    """
    ring = b.ring
    if ring.is_finite and ring.size <= cap:
        found = [g for g in ring.elements() if b * g * b == b]
        if not found:
            raise NotRegular(f"{b!r} has no inner inverse")
        return found
    return [canonical_inner_inverse(b)]


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
        arr = np.asarray(b.payload, dtype=float)
        u, s, vh = np.linalg.svd(arr)
        r = _float_rank(ring, arr)
        if r == 0:
            return ring.zero()
        g = (vh[:r, :].T / s[:r]) @ u[:, :r].T
        return ring.element(g)
    field = _field(ring)
    B, C = xla.rank_factorization(field, _to_lists(b.payload))
    if not B or not B[0]:
        return ring.zero()
    g = xla.matmul(field, xla.right_inverse(field, C), xla.left_inverse(field, B))
    return ring.element(_from_lists(ring, g))


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

    Zn stores the explicit element set; matrix backends store a basis of
    the subspace that characterizes membership (column space, row space,
    right null space or left null space).
    """

    def __init__(self, ring: RingDescriptor, side: str,
                 elements: frozenset | None = None, basis: np.ndarray | None = None):
        if side not in _IDEAL_SIDES:
            raise ValueError(f"unknown ideal side {side!r}")
        self.ring = ring
        self.side = side
        self.elements = elements
        self.basis = basis

    def dim(self) -> int:
        if self.basis is None:
            raise PreconditionFailed("finite-set ideal has no dimension")
        return self.basis.shape[1]

    def _char_columns(self, value: RingValue) -> np.ndarray:
        # Membership of m reduces to containment of these columns in the
        # span of the stored basis.
        if self.side in ("image-right", "kernel-right"):
            return np.asarray(value.payload)
        return np.asarray(value.transpose().payload)

    def contains(self, value: RingValue) -> bool:
        if value.ring != self.ring:
            raise RingMismatch("value belongs to a different ring")
        if self.elements is not None:
            return value.key() in self.elements
        cols = self._char_columns(value)
        stacked = np.hstack([self.basis, cols]) if self.basis.size else cols
        return mat_rank(self.ring, stacked) == mat_rank(self.ring, self.basis)

    def _comparable(self, other: "Ideal") -> None:
        if not isinstance(other, Ideal) or other.ring != self.ring:
            raise RingMismatch("ideals live in different rings")
        if other.side != self.side:
            raise ValueError("ideals of different sides are not comparable")

    def issubset(self, other: "Ideal") -> bool:
        self._comparable(other)
        if self.elements is not None:
            return self.elements <= other.elements
        stacked = np.hstack([other.basis, self.basis])
        return mat_rank(self.ring, stacked) == mat_rank(self.ring, other.basis)

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        self._comparable(other)
        if self.elements is not None:
            return self.elements == other.elements
        return self.issubset(other) and other.issubset(self)

    def __repr__(self):
        if self.elements is not None:
            return f"<Ideal {self.side} |{len(self.elements)}| in {self.ring.name}>"
        return f"<Ideal {self.side} dim {self.dim()} in {self.ring.name}>"


def ideal(x: RingValue, side: str) -> Ideal:
    """Image or kernel ideal of x: one of the four _IDEAL_SIDES."""
    ring = x.ring
    if side not in _IDEAL_SIDES:
        raise ValueError(f"unknown ideal side {side!r}")
    if ring.kind == MODULAR:
        # With d = gcd(x, n): d = u*x + v*n (Bezout), so xR = Rx = dR; and
        # x*m = 0 (mod n) iff n/d | (x/d)*m iff n/d | m, so both kernels
        # are (n/d)R.
        d = math.gcd(x.payload, ring.n)
        step = d if side.startswith("image") else ring.n // d
        if ring.n // step > ENUM_CAP:
            raise CapExceeded(f"{side} ideal of {x!r} has {ring.n // step} elements")
        return Ideal(ring, side, elements=frozenset(range(0, ring.n, step)))
    arr = np.asarray(x.payload)
    if side == "image-right":
        basis = mat_col_basis(ring, arr)
    elif side == "image-left":
        basis = mat_col_basis(ring, arr.T)
    elif side == "kernel-right":
        basis = mat_null_basis(ring, arr)
    else:
        basis = mat_null_basis(ring, arr.T)
    return Ideal(ring, side, basis=basis)

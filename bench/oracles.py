"""Answer checks that use no part of bcinv.

Every check here recomputes what the program claims from the definitions,
in arithmetic done apart from the package:

* ``Zn``: a plain-int search over the defining equations;
* ``MFp`` and ``Q``: exact Gaussian elimination on Python ints modulo p or
  on ``Fraction`` (existence as rank(c a b) = rank(b) = rank(c), then the
  defining equations);
* ``R``: the same equations in numpy at a scale-aware tolerance, plus an
  independent recomputation of the resolvent bound;
* lab suites: the tuple-space size from an independent count of the
  ring's idempotents.

The (b,c)-inverse y of a is characterised (Drazin) by
    y a y = y,   y R = b R,   R y = R c.
On matrices yR = bR is col(y) = col(b) and Ry = Rc is row(y) = row(c);
together with y a b = b and c a y = c (which give the reverse inclusions)
the checks below are exactly the definition.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Agreement tolerances on the float backend, relative to the data's scale.
FLOAT_EQ_TOL = 1e-8
REPRESENTATION_TOL = 1e-6


# ---------------------------------------------------------------------------
# Z_n
# ---------------------------------------------------------------------------


def zn_bc_inverse(n: int, a: int, b: int, c: int) -> int | None:
    """The (b,c)-inverse of a in Z_n by search, or None when it is absent.

    Membership y in bRy is solvability of b*m*y = y, i.e. y lies in the
    ideal generated by b*y, which in Z_n is gcd(b*y, n) Z_n.
    """
    hits = [y for y in range(n)
            if (y * a * b - b) % n == 0 and (c * a * y - c) % n == 0
            and y % math.gcd(b * y, n) == 0 and y % math.gcd(y * c, n) == 0]
    if len(hits) > 1:
        raise AssertionError(f"two (b,c)-inverses in Z_{n} for {(a, b, c)}")
    return hits[0] if hits else None


def zn_idempotent_count(n: int) -> int:
    return sum(1 for x in range(n) if (x * x - x) % n == 0)


# ---------------------------------------------------------------------------
# Exact matrices: lists of lists over F_p (p an int) or Q (p None)
# ---------------------------------------------------------------------------


def to_exact(arr, p: int | None) -> list[list]:
    """Python-int (mod p) or Fraction rows from any array-like of numbers."""
    rows = np.asarray(arr, dtype=object).tolist()
    if p is None:
        return [[Fraction(int(Fraction(v).numerator), int(Fraction(v).denominator))
                 for v in row] for row in rows]
    return [[int(v) % p for v in row] for row in rows]


def _norm(v, p):
    return v % p if p else v


def _inv(v, p):
    return pow(v, -1, p) if p else 1 / v


def mmul(A, B, p=None):
    cols = list(zip(*B))
    return [[_norm(sum(x * y for x, y in zip(row, col)), p) for col in cols] for row in A]


def mmul_all(*ms, p=None):
    out = ms[0]
    for m in ms[1:]:
        out = mmul(out, m, p)
    return out


def madd(A, B, p=None):
    return [[_norm(x + y, p) for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def msub(A, B, p=None):
    return [[_norm(x - y, p) for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def identity(k: int, p=None) -> list[list]:
    one, zero = (1, 0) if p else (Fraction(1), Fraction(0))
    return [[one if i == j else zero for j in range(k)] for i in range(k)]


def rref(M, p=None):
    """(R, pivot columns) of a reduced row echelon form."""
    R = [row[:] for row in M]
    rows = len(R)
    cols = len(R[0]) if rows else 0
    pivots = []
    r = 0
    for col in range(cols):
        pivot = next((i for i in range(r, rows) if R[i][col] != 0), None)
        if pivot is None:
            continue
        R[r], R[pivot] = R[pivot], R[r]
        inv = _inv(R[r][col], p)
        R[r] = [_norm(v * inv, p) for v in R[r]]
        for i in range(rows):
            if i != r and R[i][col] != 0:
                f = R[i][col]
                R[i] = [_norm(v - f * w, p) for v, w in zip(R[i], R[r])]
        pivots.append(col)
        r += 1
        if r == rows:
            break
    return R, pivots


def rank(M, p=None) -> int:
    return len(rref(M, p)[1]) if M and M[0] else 0


def exact_exists(a, b, c, p=None) -> bool:
    """The (b,c)-inverse exists iff rank(c a b) = rank(b) = rank(c)."""
    rb = rank(b, p)
    return rb == rank(c, p) == rank(mmul_all(c, a, b, p=p), p)


def exact_is_bc_inverse(a, b, c, y, p=None) -> bool:
    """y a y = y, y a b = b, c a y = c, col(y) in col(b), row(y) in row(c)."""
    if mmul_all(y, a, y, p=p) != y:
        return False
    if mmul_all(y, a, b, p=p) != b or mmul_all(c, a, y, p=p) != c:
        return False
    side = [rb + ry for rb, ry in zip(b, y)]
    if rank(side, p) != rank(b, p):
        return False
    return rank(c + y, p) == rank(c, p)


def exact_bc_inverse(a, b, c, p=None):
    """y = U (V a U)^{-1} V with U the pivot columns of b and V a row basis of c."""
    if not exact_exists(a, b, c, p):
        return None
    _, piv = rref(b, p)
    U = [[row[j] for j in piv] for row in b]
    Rc, pc = rref(c, p)
    V = Rc[:len(pc)]
    core = mmul_all(V, a, U, p=p)
    r = len(core)
    aug = [row + ident for row, ident in zip(core, identity(r, p))]
    Raug, _ = rref(aug, p)
    core_inv = [row[r:] for row in Raug]
    return mmul_all(U, core_inv, V, p=p)


# ---------------------------------------------------------------------------
# Float matrices
# ---------------------------------------------------------------------------


def _snorm(m) -> float:
    return float(np.linalg.svd(np.asarray(m, dtype=float), compute_uv=False)[0]) if np.size(m) else 0.0


def float_rank(m, rel: float = 1e-9) -> int:
    s = np.linalg.svd(np.asarray(m, dtype=float), compute_uv=False)
    return int(np.sum(s > rel * max(1.0, s[0]))) if s.size else 0


def _col_projector(m) -> np.ndarray:
    u, s, _ = np.linalg.svd(m)
    r = int(np.sum(s > 1e-9 * max(1.0, s[0])))
    return u[:, :r] @ u[:, :r].T


def is_carrier(v, b, c, tol: float = FLOAT_EQ_TOL) -> bool:
    """col(v) = col(b) and row(v) = row(c): what the representations need of v."""
    v = np.asarray(v, dtype=float)
    return (float_rank(v) == float_rank(b) == float_rank(c)
            and _snorm(v - _col_projector(b) @ v) <= tol * (1.0 + _snorm(v))
            and _snorm(v - v @ _col_projector(np.asarray(c).T)) <= tol * (1.0 + _snorm(v)))


def float_exists(a, b, c) -> bool:
    rb = float_rank(b)
    return rb == float_rank(c) == float_rank(c @ a @ b)


def float_is_bc_inverse(a, b, c, y, tol: float = FLOAT_EQ_TOL) -> bool:
    a, b, c, y = (np.asarray(m, dtype=float) for m in (a, b, c, y))
    if not np.all(np.isfinite(y)):
        return False
    na, nb, nc, ny = _snorm(a), _snorm(b), _snorm(c), _snorm(y)
    checks = (
        (y @ a @ y - y, ny * (1.0 + na * ny)),
        (y @ a @ b - b, nb * (1.0 + na * ny)),
        (c @ a @ y - c, nc * (1.0 + na * ny)),
        (y - _col_projector(b) @ y, ny),
        (y - y @ _col_projector(c.T), ny),
    )
    return all(_snorm(resid) <= tol * (1.0 + scale) for resid, scale in checks)


def float_bc_inverse(a, b, c) -> np.ndarray | None:
    """y = U (V a U)^{-1} V with orthonormal bases of col(b) and row(c)."""
    if not float_exists(a, b, c):
        return None
    r = float_rank(b)
    U = np.linalg.svd(b)[0][:, :r]
    V = np.linalg.svd(c)[2][:r, :]
    return U @ np.linalg.inv(V @ a @ U) @ V


def group_inverse(m: np.ndarray) -> np.ndarray:
    """m^# = m (m^3)^+ m, valid when m has index at most one."""
    return m @ np.linalg.pinv(m @ m @ m, rcond=1e-10) @ m


def bound_pair(a, v, p, y, lam: float) -> tuple[float, float]:
    """(measured deviation, a-priori bound) at lam, recomputed from scratch.

    measured = |y - v (lam + a v)^{-1}|, bound = |lam| |v| |a| |y|^3 |H|^2
    / (1 - |lam| |a| |y|^2 |H|) with H = (a v)^# a p, all spectral norms.
    """
    a, v, p, y = (np.asarray(m, dtype=float) for m in (a, v, p, y))
    av = a @ v
    resolvent = v @ np.linalg.inv(lam * np.eye(len(a)) + av)
    measured = _snorm(y - resolvent)
    nH = _snorm(group_inverse(av) @ a @ p)
    na, nv, ny = _snorm(a), _snorm(v), _snorm(y)
    bound = abs(lam) * nv * na * ny ** 3 * nH ** 2 / (1.0 - abs(lam) * na * ny * ny * nH)
    return measured, bound


def admissible_radius(a, v, p, y) -> float:
    """1 / (|a| |y|^2 |H|): the bound holds for |lam| below this radius."""
    a, v, p, y = (np.asarray(m, dtype=float) for m in (a, v, p, y))
    nH = _snorm(group_inverse(a @ v) @ a @ p)
    return 1.0 / (_snorm(a) * _snorm(y) ** 2 * nH)


def bound_holds(measured: float, bound: float, lam: float, a, v) -> bool:
    # The resolvent solve carries a backward error of order eps |a v| / lam.
    noise = 1e-12 * (1.0 + _snorm(v)) * (1.0 + _snorm(np.asarray(a) @ np.asarray(v)) / abs(lam))
    return measured <= bound * (1.0 + 1e-9) + noise


def close(x, y, tol: float) -> bool:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return bool(np.all(np.isfinite(x))) and _snorm(x - y) <= tol * (1.0 + _snorm(y))


def series_contraction(a, v) -> float:
    """min over real beta of |p - beta v a|, p the group projection of v a (grid scan)."""
    va = np.asarray(v, dtype=float) @ np.asarray(a, dtype=float)
    p = va @ group_inverse(va)
    scale = _snorm(va)
    return min(_snorm(p - beta * va) for beta in np.linspace(-4.0 / scale, 4.0 / scale, 801))


def nonzero_spectrum(m: np.ndarray) -> np.ndarray:
    eigs = np.linalg.eigvals(m)
    return eigs[np.abs(eigs) > 1e-8 * max(1.0, float(np.max(np.abs(eigs))))]


# ---------------------------------------------------------------------------
# Lab suites and continuity families
# ---------------------------------------------------------------------------


def m2f2_idempotent_count() -> int:
    count = 0
    for bits in range(16):
        m = [[(bits >> 3) & 1, (bits >> 2) & 1], [(bits >> 1) & 1, bits & 1]]
        if mmul(m, m, 2) == m:
            count += 1
    return count


def ring_size_and_idempotents(ring: str) -> tuple[int, int]:
    """(|R|, #idempotents) for the lab rings Zn:<n> and MFp:2:2."""
    if ring.startswith("Zn:"):
        n = int(ring[3:])
        return n, zn_idempotent_count(n)
    if ring == "MFp:2:2":
        return 16, m2f2_idempotent_count()
    raise ValueError(f"no lab oracle for {ring}")


def lab_space(ring: str, suite: str) -> int:
    """Size of the tuple space each suite sweeps, counted independently."""
    n, idem = ring_size_and_idempotents(ring)
    return {
        "equivalences": n ** 4,
        "sets": n ** 2,
        "bottduffin": idem ** 2 * n + n ** 2,
        "rol": idem ** 3 * n ** 2,
    }[suite]


def lab_report_ok(ring: str, suite: str, report: dict) -> bool:
    expected = lab_space(ring, suite)
    return (report.get("certified") is True
            and report.get("counterexample_count") == 0
            and report.get("examined") == expected
            and report.get("space") == expected)


CONTINUITY_CLASS = {"bounded": "convergent", "constant": "convergent",
                    "unbounded": "divergent"}

"""Shared brute-force oracles and instance generators.

Everything here is deliberately independent of the package internals: the
modular oracles run on plain ints, the matrix oracles on raw numpy arrays,
so they can arbitrate what the library computes.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from bcinv import CornerFrame, RingDescriptor


def zn_inner_inverses(n: int, b: int) -> list[int]:
    return [g for g in range(n) if (b * g * b) % n == b % n]


def zn_bc_inverse(n: int, a: int, b: int, c: int) -> int | None:
    """(b,c)-inverse in Z_n straight from the defining equations."""
    hits = []
    for y in range(n):
        in_bry = any((b * m * y) % n == y % n for m in range(n))
        in_yrc = any((y * m * c) % n == y % n for m in range(n))
        if (in_bry and in_yrc
                and (y * a * b) % n == b % n and (c * a * y) % n == c % n):
            hits.append(y)
    assert len(hits) <= 1, f"uniqueness violated in Z_{n} for {(a, b, c)}"
    return hits[0] if hits else None


def zn_group_inverse(n: int, x: int) -> int | None:
    hits = [y for y in range(n)
            if (x * y * x) % n == x % n and (y * x * y) % n == y % n
            and (x * y) % n == (y * x) % n]
    assert len(hits) <= 1
    return hits[0] if hits else None


def rel_err(x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    scale = 1.0 + max(np.linalg.norm(x), np.linalg.norm(y))
    return float(np.linalg.norm(x - y)) / scale


def random_rank_deficient(rng: np.random.Generator, n: int, r: int,
                          floor: float = 0.3) -> np.ndarray:
    """Random n x n matrix of rank exactly r with a conditioning floor."""
    while True:
        left = rng.standard_normal((n, r))
        right = rng.standard_normal((r, n))
        s_l = np.linalg.svd(left, compute_uv=False)
        s_r = np.linalg.svd(right, compute_uv=False)
        if s_l[-1] >= floor and s_r[-1] >= floor:
            return left @ right


def random_instance(rng: np.random.Generator, n: int, r: int,
                    core_floor: float = 0.05):
    """Float instance (a, b, c) with rank(b) = rank(c) = r and an inverse.

    Regenerates until the compressed core has comfortable conditioning, so
    every computation route stays well inside float accuracy.
    """
    ring = RingDescriptor.float_matrices(n)
    while True:
        b = random_rank_deficient(rng, n, r)
        c = random_rank_deficient(rng, n, r)
        a = rng.standard_normal((n, n))
        ub = np.linalg.svd(b)[0][:, :r]
        vc = np.linalg.svd(c)[2][:r, :]
        core = vc @ a @ ub
        s = np.linalg.svd(core, compute_uv=False)
        if s[-1] >= core_floor * max(s[0], 1.0):
            return ring.element(a), ring.element(b), ring.element(c)


def random_frame_instance(rng: np.random.Generator, n: int, r: int):
    a, b, c = random_instance(rng, n, r)
    return a, CornerFrame.make(b, c)


def m2f2_elements() -> list[np.ndarray]:
    out = []
    for bits in range(16):
        m = np.array([[(bits >> 3) & 1, (bits >> 2) & 1],
                      [(bits >> 1) & 1, bits & 1]], dtype=np.int64)
        out.append(m)
    return out


def m2f2_bc_inverse(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray | None:
    """Defining-equation search over all 16 matrices of M_2(F_2)."""
    elems = m2f2_elements()

    def mm(*ms):
        out = ms[0]
        for m in ms[1:]:
            out = (out @ m) % 2
        return out

    hits = []
    for y in elems:
        in_bry = any((mm(b, m, y) == y).all() for m in elems)
        in_yrc = any((mm(y, m, c) == y).all() for m in elems)
        if (in_bry and in_yrc
                and (mm(y, a, b) == b % 2).all() and (mm(c, a, y) == c % 2).all()):
            hits.append(y)
    assert len(hits) <= 1
    return hits[0] if hits else None


def hard_instances() -> list[tuple[str, object, CornerFrame]]:
    """Deterministic (label, a, frame) cases that strain the representations.

    Small spectral abscissae diag(eps, 1, 5) and [[eps, -20], [20, eps]],
    a non-normal matrix, 200 corners whose compressed core is only kept
    above 1e-4, and idempotent frames with p != q.
    """
    r2, r3 = RingDescriptor.float_matrices(2), RingDescriptor.float_matrices(3)
    eye2 = CornerFrame.from_idempotents(r2.one(), r2.one())
    eye3 = CornerFrame.from_idempotents(r3.one(), r3.one())
    out = []
    for k in range(1, 8):
        eps = 10.0 ** -k
        out.append((f"diag({eps:g}, 1, 5)", r3.element(np.diag([eps, 1.0, 5.0])), eye3))
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        out.append((f"rotation({eps:g})", r2.element([[eps, -20.0], [20.0, eps]]), eye2))
    out.append(("non-normal", r2.element([[1e-3, 1e3], [0.0, 1.0]]), eye2))
    rng = np.random.default_rng(9)
    for i in range(200):
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, n))
        a, b, c = random_instance(rng, n, r, core_floor=1e-4)
        out.append((f"corner {i} (n={n}, r={r})", a, CornerFrame.make(b, c)))
    rng = np.random.default_rng(10)
    while len(out) < 232:
        n = int(rng.integers(2, 6))
        a, frame = random_frame_instance(rng, n, int(rng.integers(1, n)))
        if not frame.p == frame.q:
            out.append((f"p != q {len(out)} (n={n})", a,
                        CornerFrame.from_idempotents(frame.p, frame.q)))
    return out


# ---------------------------------------------------------------------------
# Reference elimination: Gauss-Jordan on Fractions (p = 0) or on residues
# mod a prime p, one scalar operation at a time.  This is the loop the exact
# backends ran before their integer kernel, kept as an oracle for it.
# ---------------------------------------------------------------------------


def _ref_scalar(v, p):
    return v % p if p else Fraction(v)


def _ref_inv(v, p):
    return pow(v, p - 2, p) if p else 1 / v


def ref_rref(M, p=0):
    """(R, pivots, E) with E*M = R and E invertible (m x m)."""
    m = len(M)
    n = len(M[0]) if m else 0
    R = [[_ref_scalar(v, p) for v in row] for row in M]
    E = [[_ref_scalar(int(i == j), p) for j in range(m)] for i in range(m)]

    def combine(v, f, w):
        return (v - f * w) % p if p else v - f * w

    pivots = []
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, m) if R[r][col] != 0), None)
        if pivot is None:
            continue
        R[row], R[pivot] = R[pivot], R[row]
        E[row], E[pivot] = E[pivot], E[row]
        scale = _ref_inv(R[row][col], p)
        R[row] = [_ref_scalar(scale * v, p) for v in R[row]]
        E[row] = [_ref_scalar(scale * v, p) for v in E[row]]
        for r in range(m):
            if r != row and R[r][col] != 0:
                factor = R[r][col]
                R[r] = [combine(v, factor, w) for v, w in zip(R[r], R[row])]
                E[r] = [combine(v, factor, w) for v, w in zip(E[r], E[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    return R, pivots, E


def ref_null_space(M, p=0):
    n = len(M[0]) if M else 0
    R, pivots, _ = ref_rref(M, p)
    basis = []
    for j in (j for j in range(n) if j not in pivots):
        vec = [_ref_scalar(int(i == j), p) for i in range(n)]
        for i, pc in enumerate(pivots):
            vec[pc] = _ref_scalar(-R[i][j], p)
        basis.append(vec)
    return basis


def ref_solve(A, B, p=0):
    n = len(A[0]) if A else 0
    w = len(B[0]) if B else 0
    R, pivots, _ = ref_rref([a + b for a, b in zip(A, B)], p)
    if any(pc >= n for pc in pivots):
        return None
    X = [[_ref_scalar(0, p)] * w for _ in range(n)]
    for i, pc in enumerate(pivots):
        X[pc] = R[i][n:]
    return X


def ref_inverse(A, p=0):
    _, pivots, E = ref_rref(A, p)
    return E if len(pivots) == len(A) else None


def ref_rank_factorization(A, p=0):
    R, pivots, _ = ref_rref(A, p)
    return [[row[pc] for pc in pivots] for row in A], R[:len(pivots)]


def ref_left_inverse(B, p=0):
    """The pivot rows of E for a full-column-rank B."""
    _, pivots, E = ref_rref(B, p)
    assert len(pivots) == len(B[0])
    return E[:len(pivots)]


def ref_right_inverse(C, p=0):
    return [list(col) for col in zip(*ref_left_inverse([list(c) for c in zip(*C)], p))]

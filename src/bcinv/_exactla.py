"""Exact linear algebra over a prime field F_p or the rationals, on Python ints.

Matrices are lists of rows.  ``p`` names the field: a prime for F_p, or 0
for Q, whose entries are ``Fraction``s (ints and floats are read exactly
too).  Results over F_p are ints in [0, p), over Q ``Fraction``s.

All elimination runs through one Gauss-Jordan loop on integer rows,
``_eliminate``.  Pivoting is deterministic (first nonzero entry at or below
the current row, in column order), so every factorization produced here is
reproducible.

* Over F_p the pivot row is scaled to a leading 1 and every other row
  becomes x - f*y reduced mod p.
* Over Q each row is first multiplied by the lcm of its denominators, and
  the loop is fraction-free: with piv the pivot and f the row's entry in
  the pivot column, a row becomes (piv*x - f*y) / c, where c is the gcd of
  the integers piv*x - f*y over the row (piv and f first divided by their
  own gcd).  c divides every entry by definition, so the division is exact,
  and an updated row is the smallest integer multiple of its rational row.
  At the end a pivot row divided by its pivot entry is the reduced row.

Scaling a row by a nonzero factor changes neither which entries are zero
nor the reduced row, so the pivots and the reduced pivot rows (of R and of
the transform E) are exactly those of Gauss-Jordan on fractions.

E. H. Bareiss (Math. Comp. 22(103), 1968) divides instead by the previous
pivot: (piv*x - f*y) // prev is exact because, by Sylvester's identity,
every entry is then a minor of the row-scaled input.  Those minors carry
the product of the row scales, so on rank-deficient systems whose rows
have unrelated large denominators (the corner route's Kronecker systems on
entries near 1e30) they grew to thousands of digits, and elimination ran
up to 16 times slower than on fractions.  Dividing by the row content
keeps the integers as small as the reduced rows allow; on those systems
it runs 1.4 to 2.4 times faster than on fractions.

Products over Q are one integer product: each row of the left factor and
each column of the right factor is put over the lcm of its denominators,
and one Fraction is built per output entry.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul


def _zero(p):
    return 0 if p else Fraction(0)


def _one(p):
    return 1 if p else Fraction(1)


def _integers(rows, p):
    """Integer rows and the factor each row was multiplied by (1 over F_p)."""
    if p:
        return [[v % p for v in row] for row in rows], [1] * len(rows)
    out, dens = [], []
    for row in rows:
        pairs = [v.as_integer_ratio() for v in row]
        den = math.lcm(*[d for _, d in pairs])
        out.append([n * (den // d) for n, d in pairs] if den > 1 else [n for n, _ in pairs])
        dens.append(den)
    return out, dens


def _fraction(num, den):
    # Fraction(int) skips the gcd that Fraction(num, den) takes.
    return Fraction(num) if den == 1 else Fraction(num, den)


def _scalars(xs, piv, p):
    """Entries of an eliminated pivot row divided by its pivot piv."""
    return list(xs) if p else [_fraction(x, piv) for x in xs]


def _eliminate(rows, ncols, p):
    """Gauss-Jordan on integer rows in place, pivoting in the first ncols columns.

    Returns the pivot columns, with pivot row i now at index i.
    """
    m = len(rows)
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == m:
            break
        pivot = next((i for i in range(r, m) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        piv = top[col]
        if p and piv != 1:
            scale = pow(piv, -1, p)
            top = rows[r] = [v * scale % p for v in top]
        for i, row in enumerate(rows):
            f = row[col]
            if i == r or not f:
                continue
            if p:
                rows[i] = [(x - f * y) % p for x, y in zip(row, top)]
            else:
                g = math.gcd(piv, f)
                a, b = piv // g, f // g
                new = [a * x - b * y for x, y in zip(row, top)]
                g = math.gcd(*new)
                rows[i] = [v // g for v in new] if g > 1 else new
        pivots.append(col)
    return pivots


def _reduce(M, p, with_E=False):
    """Eliminate M; with_E appends the transform's columns to every row."""
    m = len(M)
    n = len(M[0]) if m else 0
    rows, dens = _integers(M, p)
    if with_E:
        for i, row in enumerate(rows):
            row.extend(dens[i] if j == i else 0 for j in range(m))
    return rows, _eliminate(rows, n, p), n


def identity(n, p=0):
    return [[_one(p) if i == j else _zero(p) for j in range(n)] for i in range(n)]


def matmul(A, B, p=0):
    """A @ B for an inner dimension of at least one."""
    if p:
        cols = list(zip(*B))
        return [[sum(map(mul, row, col)) % p for col in cols] for row in A]
    left, lden = _integers(A, 0)
    right, rden = _integers(list(zip(*B)), 0)
    return [[_fraction(sum(map(mul, row, col)), dl * dr) for col, dr in zip(right, rden)]
            for row, dl in zip(left, lden)]


def transpose(A):
    return [list(col) for col in zip(*A)] if A else []


def rref(M, p=0):
    """Reduced row echelon form.

    Returns (R, pivots, E): R is m x n, with the rank r = len(pivots)
    pivot rows on top and zero rows below, and E is r x m with E*M equal
    to the top r rows of R.
    """
    rows, pivots, n = _reduce(M, p, with_E=True)
    R = [_scalars(row[:n], row[pc], p) for row, pc in zip(rows, pivots)]
    R += [[_zero(p)] * n for _ in range(len(M) - len(pivots))]
    E = [_scalars(row[n:], row[pc], p) for row, pc in zip(rows, pivots)]
    return R, pivots, E


def rank(M, p=0):
    return len(_reduce(M, p)[1])


def null_space(M, p=0):
    """Basis of {x : M x = 0} as a list of column vectors."""
    rows, pivots, n = _reduce(M, p)
    basis = []
    for j in range(n):
        if j in pivots:
            continue
        vec = [_zero(p)] * n
        vec[j] = _one(p)
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[j] % p if p else _fraction(-row[j], row[pc])
        basis.append(vec)
    return basis


def solve(A, B, p=0):
    """Any exact solution X of A X = B, or None when inconsistent."""
    n = len(A[0]) if A else 0
    rows, pivots, _ = _reduce([a + b for a, b in zip(A, B)], p)
    if pivots and pivots[-1] >= n:
        return None
    w = len(B[0]) if B else 0
    X = [[_zero(p)] * w for _ in range(n)]
    for row, pc in zip(rows, pivots):
        X[pc] = _scalars(row[n:], row[pc], p)
    return X


def inverse(A, p=0):
    """Exact inverse of a square matrix, or None when singular."""
    _, pivots, E = rref(A, p)
    return E if len(pivots) == len(A) else None


def rank_factorization(A, p=0):
    """A = B*C with B full column rank and C full row rank (r = rank A)."""
    rows, pivots, _ = _reduce(A, p)
    B = [[row[pc] for pc in pivots] for row in A]
    C = [_scalars(row, row[pc], p) for row, pc in zip(rows, pivots)]
    return B, C


def left_inverse(B, p=0):
    """L with L*B = I for a full-column-rank B."""
    _, pivots, E = rref(B, p)
    if len(pivots) != (len(B[0]) if B else 0):
        raise ValueError("matrix does not have full column rank")
    return E


def right_inverse(C, p=0):
    """R with C*R = I for a full-row-rank C."""
    return transpose(left_inverse(transpose(C), p))

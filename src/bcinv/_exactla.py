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

Products over Q are one integer product on integer forms.  The integer
form of a matrix is a pair (N, d): integer rows N over one positive
denominator d, the lcm of the entry denominators, so that gcd(d, *N) == 1
and the form is unique (over F_p, d = 1 and N holds the entries).  A
product multiplies the rows, the columns and the denominators, and divides
out their common gcd once; sums put both forms over the lcm of their
denominators.  Elimination starts from a form, each row over the lcm of
its own denominators, and the one-sided inverses and the rank
factorization return forms.  Fractions are built only when entries are
asked for.  ``rings`` keeps the form on every MFp and Q value, with its
rank factorization once computed, and builds a value's Fraction payload
on its first read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import mul


def _zero(p):
    return 0 if p else Fraction(0)


def _one(p):
    return 1 if p else Fraction(1)


def _frozen(rows):
    return tuple(map(tuple, rows))


def form(rows, p=0):
    """Integer form (N, d) of a matrix given by its entry rows; N is a tuple of tuples."""
    if p:
        return _frozen([[v % p for v in row] for row in rows]), 1
    pairs = [[v.as_integer_ratio() for v in row] for row in rows]
    den = math.lcm(*[d for row in pairs for _, d in row])
    return _frozen([[n * (den // d) for n, d in row] for row in pairs]), den


def entries(F, p=0):
    """Entry rows of an integer form: reduced Fractions over Q, ints over F_p."""
    rows, den = F
    if p:
        return [list(row) for row in rows]
    return [[_fraction(v, den) for v in row] for row in rows]


def _canonical(rows, den):
    """The form of the integer rows over den, both divided by their common gcd."""
    g = math.gcd(den, *chain.from_iterable(rows)) if den > 1 else 1
    if g > 1:
        rows, den = [[v // g for v in row] for row in rows], den // g
    return _frozen(rows), den


def form_mul(A, B, p=0):
    """Form of A @ B for forms A, B with an inner dimension of at least one."""
    cols = tuple(zip(*B[0]))
    if p:
        return _frozen([[sum(map(mul, row, col)) % p for col in cols] for row in A[0]]), 1
    return _canonical([[sum(map(mul, row, col)) for col in cols] for row in A[0]], A[1] * B[1])


def form_sum(A, B, p=0, sign=1):
    """Form of A + sign * B (sign is 1 or -1)."""
    (NA, dA), (NB, dB) = A, B
    if p:
        return _frozen([[(x + sign * y) % p for x, y in zip(ra, rb)]
                        for ra, rb in zip(NA, NB)]), 1
    den = math.lcm(dA, dB)
    fa, fb = den // dA, sign * (den // dB)
    return _canonical([[fa * x + fb * y for x, y in zip(ra, rb)] for ra, rb in zip(NA, NB)], den)


def form_neg(A, p=0):
    rows, den = A
    return _frozen([[-v % p if p else -v for v in row] for row in rows]), den


def form_transpose(A):
    return tuple(zip(*A[0])), A[1]


def _integers(F):
    """Integer rows of a form, each over the lcm of its own denominators, and those lcms."""
    rows, den = F
    if den == 1:
        return [list(row) for row in rows], [1] * len(rows)
    out, dens = [], []
    for row in rows:
        g = math.gcd(den, *row)
        out.append([v // g for v in row] if g > 1 else list(row))
        dens.append(den // g)
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


def _reduce(F, p, with_E=False):
    """Eliminate the matrix with form F; with_E appends the transform's columns to every row."""
    m = len(F[0])
    n = len(F[0][0]) if m else 0
    rows, dens = _integers(F)
    if with_E:
        for i, row in enumerate(rows):
            row.extend([0] * m)
            row[n + i] = dens[i]
    return rows, _eliminate(rows, n, p), n


def identity(n, p=0):
    return [[_one(p) if i == j else _zero(p) for j in range(n)] for i in range(n)]


def matmul(A, B, p=0):
    """A @ B for an inner dimension of at least one."""
    return entries(form_mul(form(A, p), form(B, p), p), p)


def transpose(A):
    return [list(col) for col in zip(*A)] if A else []


def rref(M, p=0):
    """Reduced row echelon form.

    Returns (R, pivots, E): R is m x n, with the rank r = len(pivots)
    pivot rows on top and zero rows below, and E is r x m with E*M equal
    to the top r rows of R.
    """
    rows, pivots, n = _reduce(form(M, p), p, with_E=True)
    R = [_scalars(row[:n], row[pc], p) for row, pc in zip(rows, pivots)]
    R += [[_zero(p)] * n for _ in range(len(M) - len(pivots))]
    E = [_scalars(row[n:], row[pc], p) for row, pc in zip(rows, pivots)]
    return R, pivots, E


def rank(M, p=0):
    return len(_reduce(form(M, p), p)[1])


def null_space(M, p=0):
    """Basis of {x : M x = 0} as a list of column vectors."""
    rows, pivots, n = _reduce(form(M, p), p)
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
    rows, pivots, _ = _reduce(form([a + b for a, b in zip(A, B)], p), p)
    if pivots and pivots[-1] >= n:
        return None
    w = len(B[0]) if B else 0
    X = [[_zero(p)] * w for _ in range(n)]
    for row, pc in zip(rows, pivots):
        X[pc] = _scalars(row[n:], row[pc], p)
    return X


def _pivot_rows(rows, pivots, start, p):
    """Form of the pivot rows from column start on, each divided by its pivot entry."""
    if p:
        return _frozen([row[start:] for row in rows[:len(pivots)]]), 1
    reduced = []
    for row, pc in zip(rows, pivots):
        piv = row[pc]
        g = math.gcd(piv, *row[start:])
        g = -g if piv < 0 else g
        reduced.append(([v // g for v in row[start:]], piv // g))
    den = math.lcm(*[d for _, d in reduced])
    return _frozen([[v * (den // d) for v in row] for row, d in reduced]), den


def inverse(A, p=0):
    """Exact inverse of a square matrix, or None when singular."""
    F = form_inverse(form(A, p), p)
    return None if F is None else entries(F, p)


def form_inverse(F, p=0):
    """Form of the inverse of the square matrix with form F, or None when singular."""
    rows, pivots, n = _reduce(F, p, with_E=True)
    return _pivot_rows(rows, pivots, n, p) if len(pivots) == len(F[0]) else None


def rank_factorization(A, p=0):
    """A = B*C with B full column rank and C full row rank (r = rank A)."""
    B, C = form_rank_factorization(form(A, p), p)
    return entries(B, p), entries(C, p)


def form_rank_factorization(F, p=0):
    """rank_factorization of the matrix with form F, as the forms of B and C."""
    rows, pivots, _ = _reduce(F, p)
    B = [[row[pc] for pc in pivots] for row in F[0]]
    return _canonical(B, F[1]), _pivot_rows(rows, pivots, 0, p)


def left_inverse(B, p=0):
    """L with L*B = I for a full-column-rank B."""
    return entries(form_left_inverse(form(B, p), p), p)


def form_left_inverse(F, p=0):
    """Form of left_inverse for the matrix with form F."""
    rows, pivots, n = _reduce(F, p, with_E=True)
    if len(pivots) != n:
        raise ValueError("matrix does not have full column rank")
    return _pivot_rows(rows, pivots, n, p)


def right_inverse(C, p=0):
    """R with C*R = I for a full-row-rank C."""
    return entries(form_right_inverse(form(C, p), p), p)


def form_right_inverse(F, p=0):
    """Form of right_inverse for the matrix with form F."""
    return form_transpose(form_left_inverse(form_transpose(F), p))

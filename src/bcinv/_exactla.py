"""Exact linear algebra over a prime field F_p or the rationals, on Python ints.

A matrix is held as its integer form (N, d): integer rows N, a tuple of
tuples, over one positive denominator d, the lcm of the entry
denominators, so that gcd(d, *N) == 1 and the form is unique.  ``p`` names
the field: a prime for F_p, where d = 1 and N holds the entries in [0, p),
or 0 for Q.  Every routine here takes and returns forms; ``form`` builds
one from entry rows (ints, Fractions and floats are read exactly) and
``entries`` gives the entry rows back, reduced Fractions over Q and ints
over F_p.  A form without rows has lost its column count, so the routines
that need it take it as an argument.

A product multiplies the rows, the columns and the denominators, and
divides out their common gcd once; sums put both forms over the lcm of
their denominators.

All elimination runs through one Gauss-Jordan loop on integer rows,
``_eliminate``.  Pivoting is deterministic (first nonzero entry at or below
the current row, in column order), so every factorization produced here is
reproducible.

* Over F_p the pivot row is scaled to a leading 1 and every other row
  becomes x - f*y reduced mod p.
* Over Q each row starts over the lcm of its own denominators, and the
  loop is fraction-free: with piv the pivot and f the row's entry in the
  pivot column, a row becomes (piv*x - f*y) / c, where c is the gcd of the
  integers piv*x - f*y over the row (piv and f first divided by their own
  gcd).  c divides every entry by definition, so the division is exact,
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
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import mul


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


def _common(A, B):
    """The rows of forms A and B over the lcm of their denominators, and that lcm.

    Both stay in lowest terms together: each prime power in the lcm is all
    of one form's denominator, whose rows are scaled by a factor prime to it.
    """
    (NA, dA), (NB, dB) = A, B
    den = math.lcm(dA, dB)
    scaled = [N if den == d else _frozen([[v * (den // d) for v in row] for row in N])
              for N, d in ((NA, dA), (NB, dB))]
    return scaled[0], scaled[1], den


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


def form_hstack(A, B):
    """Form of [A | B] for forms with the same rows."""
    NA, NB, den = _common(A, B)
    return tuple(ra + rb for ra, rb in zip(NA, NB)), den


def form_vstack(A, B):
    """Form of A over B for forms with the same columns."""
    NA, NB, den = _common(A, B)
    return NA + NB, den


def form_kron(A, B, p=0):
    """Form of the Kronecker product of A and B (numpy.kron's layout)."""
    rows = [[x * y for x in ra for y in rb] for ra in A[0] for rb in B[0]]
    if p:
        return _frozen([[v % p for v in row] for row in rows]), 1
    return _canonical(rows, A[1] * B[1])


def form_reshape(A, ncols):
    """Form of A with its entries, read row by row, regrouped into rows of ncols."""
    flat = tuple(chain.from_iterable(A[0]))
    return tuple(flat[i:i + ncols] for i in range(0, len(flat), ncols)), A[1]


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
    """Eliminate the matrix with form F; with_E appends the transform's columns to every row.

    Returns the eliminated rows, the pivot columns and F's column count n.
    """
    m = len(F[0])
    n = len(F[0][0]) if m else 0
    rows, dens = _integers(F)
    if with_E:
        for i, row in enumerate(rows):
            row.extend([0] * m)
            row[n + i] = dens[i]
    return rows, _eliminate(rows, n, p), n


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


def rank(F, p=0):
    return len(_reduce(F, p)[1])


def null_space(F, n, p=0):
    """Form of an n x (n - rank) matrix whose columns span {x : M x = 0}.

    M is the m x n matrix with form F; n is given because a form without
    rows has lost it.  The column of free column j has a 1 in row j.
    """
    rows, pivots, _ = _reduce(F, p)
    R, den = _pivot_rows(rows, pivots, 0, p)
    free = [j for j in range(n) if j not in pivots]
    pivot_row = dict(zip(pivots, R))
    basis = [[den if j == t else 0 for j in free] if (row := pivot_row.get(t)) is None
             else [-row[j] % p if p else -row[j] for j in free] for t in range(n)]
    return _canonical(basis, den)


def solve(A, B, p=0):
    """Form of any exact solution X of A X = B, or None when inconsistent (A has rows)."""
    n = len(A[0][0])
    rows, pivots, _ = _reduce(form_hstack(A, B), p)
    if pivots and pivots[-1] >= n:
        return None
    X, den = _pivot_rows(rows, pivots, n, p)
    pivot_row = dict(zip(pivots, X))
    zero = (0,) * len(B[0][0])
    return tuple(pivot_row.get(t, zero) for t in range(n)), den


def form_inverse(F, p=0):
    """Form of the inverse of the square matrix with form F, or None when singular."""
    rows, pivots, n = _reduce(F, p, with_E=True)
    return _pivot_rows(rows, pivots, n, p) if len(pivots) == len(F[0]) else None


def form_rank_factorization(F, p=0):
    """Forms of B and C with F = B*C: F's pivot columns and the nonzero rows of its RREF."""
    rows, pivots, _ = _reduce(F, p)
    B = [[row[pc] for pc in pivots] for row in F[0]]
    return _canonical(B, F[1]), _pivot_rows(rows, pivots, 0, p)


def form_left_inverse(F, p=0):
    """Form of L with L*B = I for the full-column-rank matrix B with form F."""
    rows, pivots, n = _reduce(F, p, with_E=True)
    if len(pivots) != n:
        raise ValueError("matrix does not have full column rank")
    return _pivot_rows(rows, pivots, n, p)


def form_right_inverse(F, p=0):
    """Form of R with C*R = I for the full-row-rank matrix C with form F."""
    return form_transpose(form_left_inverse(form_transpose(F), p))

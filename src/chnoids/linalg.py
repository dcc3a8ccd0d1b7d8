"""Exact linear algebra over Q(i) for small dense matrices.

Matrices are tuples of row tuples of GaussianRational.  Everything here
is pure and allocation-light; sizes never exceed a handful of rows.
``scaled`` writes a matrix as M/d with M over the Gaussian integers, and
``char_coefficients`` and ``minors`` decide 3x3 questions on M in Python ints.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from .exactnum import ONE, ZERO, ExactArithmeticError, GaussianRational, UniPoly, dot

Matrix = tuple[tuple[GaussianRational, ...], ...]
Vector = tuple[GaussianRational, ...]
GaussInt = tuple[int, int]  # (re, im), Python ints
GaussMatrix = tuple[tuple[GaussInt, ...], ...]


def mat(rows) -> Matrix:
    return tuple(tuple(x for x in row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    columns = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in columns) for row in a)


def scaled(a: Matrix) -> tuple[GaussMatrix, int]:
    """A as (M, d) with A = M/d: M has Gaussian-integer entries and d > 0 is
    the lcm of the entries' denominators."""
    parts = [[x.parts for x in row] for row in a]
    d = math.lcm(*(e for row in parts for _, _, e in row))
    return tuple(tuple((u * (d // e), v * (d // e)) for u, v, e in row) for row in parts), d


_PAIRS = ((0, 1), (0, 2), (1, 2))  # the row or column pairs of a 2x2 minor


def gmul(x: GaussInt, y: GaussInt) -> GaussInt:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def gsub(x: GaussInt, y: GaussInt) -> GaussInt:
    return x[0] - y[0], x[1] - y[1]


def gsum(xs: Iterable[GaussInt]) -> GaussInt:
    re = im = 0
    for x, y in xs:
        re += x
        im += y
    return re, im


def minor(m: GaussMatrix, i: int, j: int, k: int, l: int) -> GaussInt:  # rows i, j; columns k, l
    return gsub(gmul(m[i][k], m[j][l]), gmul(m[i][l], m[j][k]))


def minors(m: GaussMatrix) -> Iterator[GaussInt]:
    """Every 2x2 minor of a 3x3 matrix, each only when asked for."""
    return (minor(m, *rows, *cols) for rows in _PAIRS for cols in _PAIRS)


def char_coefficients(m: GaussMatrix) -> Iterator[GaussInt]:
    """T, E and D of m's characteristic polynomial w^3 - T w^2 + E w - D, each
    only when asked for: tr m, the sum of its principal 2x2 minors, and det m."""
    yield gsum(m[i][i] for i in range(3))
    yield gsum(minor(m, i, j, i, j) for i, j in _PAIRS)
    yield gsum(gmul(m[0][c], minor(m, 1, 2, k, l))  # along row 0, skipping its zeros
               for c, k, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) if any(m[0][c]))


def mat_pow(a: Matrix, k: int) -> Matrix:
    out = identity(len(a))
    for _ in range(k):
        out = mat_mul(out, a)
    return out


def is_zero_matrix(a: Matrix) -> bool:
    return all(x.is_zero for row in a for x in row)


def conj_transpose(a: Matrix) -> Matrix:
    n, m = len(a), len(a[0])
    return tuple(tuple(a[i][j].conjugate() for i in range(n)) for j in range(m))


def _echelon(
    rows: list[list[GaussianRational]],
) -> tuple[list[list[GaussianRational]], list[int], GaussianRational]:
    """Row-reduce in place; returns (reduced rows, pivot column list, pivot product).

    The pivot product carries the sign of the row swaps, so for a square
    matrix of full rank it is the determinant.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    product = ONE
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if not rows[i][c].is_zero), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            product = -product
        product = product * rows[r][c]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n_rows):
            if i != r and not rows[i][c].is_zero:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots, product


def inverse(a: Matrix) -> Matrix:
    """Exact inverse via Gauss-Jordan on [A | I]; raises on singular input."""
    n = len(a)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(a)]
    rows, pivots, _ = _echelon(aug)
    if pivots != list(range(n)):
        raise ExactArithmeticError("matrix is singular")
    return tuple(tuple(rows[i][n:]) for i in range(n))


def det(a: Matrix) -> GaussianRational:
    _, pivots, product = _echelon([list(row) for row in a])
    return product if len(pivots) == len(a) else ZERO


def charpoly(a: Matrix) -> UniPoly:
    """Characteristic polynomial det(z*I - A), monic, via Faddeev-LeVerrier."""
    n = len(a)
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    m = identity(n)
    c = ONE
    for k in range(1, n + 1):
        m = mat_mul(a, m)
        tr = sum((m[i][i] for i in range(n)), ZERO)
        c = -(tr / GaussianRational.of(k))
        coeffs[n - k] = c
        m = tuple(
            tuple(x + c if i == j else x for j, x in enumerate(row)) for i, row in enumerate(m)
        )
    return UniPoly.of(coeffs)


def minimal_polynomial(a: Matrix) -> UniPoly:
    """Monic minimal polynomial, via the first linear dependence among powers."""
    n = len(a)
    power = identity(n)
    flat = [[x for row in power for x in row]]
    for d in range(1, n + 1):
        # each power only once the lower ones are independent
        power = mat_mul(power, a)
        flat.append([x for row in power for x in row])
        # solve c_0 I + ... + c_{d-1} A^{d-1} = -A^d
        rows = [[flat[k][e] for k in range(d)] + [-flat[d][e]] for e in range(n * n)]
        reduced, pivots, _ = _echelon(rows)
        if d not in pivots:
            sol = [ZERO] * d
            for r, pc in enumerate(pivots):
                sol[pc] = reduced[r][d]
            return UniPoly.of(sol + [1])
    raise AssertionError("no minimal polynomial found")

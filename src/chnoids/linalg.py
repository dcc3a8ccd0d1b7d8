"""Exact linear algebra over Q(i) for small dense matrices.

Matrices are tuples of row tuples of GaussianRational.  Everything here
is pure and allocation-light; sizes never exceed a handful of rows.
``scaled`` writes a matrix as M/d with M over the Gaussian integers, and
``invariants`` and ``rank_at_most_one`` are the one kernel that decides 3x3
questions on M: straight-line products of its 18 int parts, with no call per
product.
"""

from __future__ import annotations

import math

from .exactnum import ONE, ZERO, ExactArithmeticError, GaussianRational, UniPoly, dot

Matrix = tuple[tuple[GaussianRational, ...], ...]
GaussInt = tuple[int, int]  # (re, im), Python ints
GaussMatrix = tuple[tuple[GaussInt, ...], ...]
Scaled = tuple[GaussMatrix, int]  # (M, d) for M/d, as ``scaled`` writes a matrix


def mat(rows) -> Matrix:
    return tuple(tuple(x for x in row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    columns = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in columns) for row in a)


def scaled(a: Matrix) -> Scaled:
    """A as (M, d) with A = M/d: M has Gaussian-integer entries and d > 0 is
    the lcm of the entries' denominators."""
    parts = [[x.parts for x in row] for row in a]
    d = math.lcm(*(e for row in parts for _, _, e in row))
    return tuple(tuple((u * (d // e), v * (d // e)) for u, v, e in row) for row in parts), d


def gmul(x: GaussInt, y: GaussInt) -> GaussInt:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def gsub(x: GaussInt, y: GaussInt) -> GaussInt:
    return x[0] - y[0], x[1] - y[1]


def invariants(m: GaussMatrix) -> tuple[GaussInt, GaussInt, GaussInt]:
    """T, E and D of m's characteristic polynomial w^3 - T w^2 + E w - D: tr m,
    the sum of its principal 2x2 minors, and det m, by straight-line products
    of the 18 int parts of m's entries."""
    ((ar, ai), (br, bi), (cr, ci)), ((dr, di), (er, ei), (fr, fi)), ((gr, gi), (hr, hi), (kr, ki)) = m
    # the 2x2 minors of rows 1, 2 along row 0's cofactors, and the other two principal ones
    xr, xi = er * kr - ei * ki - fr * hr + fi * hi, er * ki + ei * kr - fr * hi - fi * hr
    yr, yi = dr * kr - di * ki - fr * gr + fi * gi, dr * ki + di * kr - fr * gi - fi * gr
    zr, zi = dr * hr - di * hi - er * gr + ei * gi, dr * hi + di * hr - er * gi - ei * gr
    e_r = xr + ar * er - ai * ei - br * dr + bi * di + ar * kr - ai * ki - cr * gr + ci * gi
    e_i = xi + ar * ei + ai * er - br * di - bi * dr + ar * ki + ai * kr - cr * gi - ci * gr
    d_r = ar * xr - ai * xi - br * yr + bi * yi + cr * zr - ci * zi
    d_i = ar * xi + ai * xr - br * yi - bi * yr + cr * zi + ci * zr
    return (ar + er + kr, ai + ei + ki), (e_r, e_i), (d_r, d_i)


def rank_at_most_one(m: GaussMatrix) -> bool:
    """Whether every 2x2 minor of the 3x3 m vanishes, stopping at the first that does not."""
    for i, j in ((0, 1), (0, 2), (1, 2)):
        (ar, ai), (br, bi), (cr, ci) = m[i]
        (dr, di), (er, ei), (fr, fi) = m[j]
        # the minors of rows i, j on columns (0, 1), (0, 2) and (1, 2)
        if (ar * er - ai * ei - br * dr + bi * di or ar * ei + ai * er - br * di - bi * dr
                or ar * fr - ai * fi - cr * dr + ci * di or ar * fi + ai * fr - cr * di - ci * dr
                or br * fr - bi * fi - cr * er + ci * ei or br * fi + bi * fr - cr * ei - ci * er):
            return False
    return True


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

"""The projective model of the complex hyperbolic plane.

Signature-(2,1) Hermitian form, membership and distance, the isometry
trichotomy and unipotent monodromy exponentials.  Points are binary64;
matrices are exact Q(i) wherever the entries are rational and binary64 where
transcendentals enter.  Every binary64 number is a dyadic rational, so both
backings are read as A = M/d with M over the Gaussian integers: one integer
Gram loop checks the form, and A's characteristic polynomial is exact, read
as one depressed cubic.  An exact matrix is classified by exact signs on it,
Goldman's f read from the cubic's discriminant, a float one by the cubic's
roots within a rounding tolerance.  numpy is imported by the array functions
only, so ``ch2 classify`` and ``ch2 distance`` run without it.
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from . import InputError, Value, array, linalg
from .exactnum import GaussianRational, poly_gcd  # ch2.poly_gcd: read by bench/selftest.py
from .linalg import gmul, gsub

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TOL = 1e-9

J_EXACT = linalg.mat(
    [
        [GaussianRational.of(1), GaussianRational.of(0), GaussianRational.of(0)],
        [GaussianRational.of(0), GaussianRational.of(1), GaussianRational.of(0)],
        [GaussianRational.of(0), GaussianRational.of(0), GaussianRational.of(-1)],
    ]
)


_J_SIGNS = (1, 1, -1)  # the diagonal of J_EXACT


class CH2Error(InputError):
    pass


def herm_form(z: Sequence[complex], w: Sequence[complex]) -> complex:
    """Z1 conj(W1) + Z2 conj(W2) - Z3 conj(W3), for float or complex coordinates."""
    return z[0] * w[0].conjugate() + z[1] * w[1].conjugate() - z[2] * w[2].conjugate()


def in_ch2(z: Sequence) -> bool:
    """Whether [Z] is a negative line for the form.

    It is tested on the representative of largest coordinate modulus 1, so
    no scale underflows; a zero or non-finite vector is not in CH^2.
    """
    try:
        z = _unit_representative(z)
    except CH2Error:
        return False
    return herm_form(z, z).real < 0


def _unit_representative(z: Sequence) -> list[complex]:
    """The point [Z] as complex coordinates scaled to largest modulus 1."""
    zc = [complex(x) for x in z]
    try:
        moduli = [abs(x) for x in zc]
    except OverflowError:  # a modulus past the largest float, as hypot's inf
        moduli = [math.inf]
    scale = max(moduli)
    if not (scale > 0.0 and all(map(math.isfinite, moduli))):
        raise CH2Error("a CH^2 point needs a nonzero finite representative")
    return [x / scale for x in zc]


def distance(z: Sequence, w: Sequence) -> float:
    """Bergman distance, cosh^2(d/2) = <Z,W><W,Z> / (<Z,Z><W,W>).

    Projective-representative independent, and computed on the
    representatives of largest coordinate modulus 1 so that no scale
    underflows or overflows; the factor-2 normalization matches
    holomorphic sectional curvature -4.
    """
    z, w = _unit_representative(z), _unit_representative(w)
    zz = herm_form(z, z).real
    ww = herm_form(w, w).real
    if not (zz < 0 and ww < 0):
        raise CH2Error("distance arguments must lie in CH^2")
    zw = herm_form(z, w)
    ratio = (zw * zw.conjugate()).real / (zz * ww)
    # rounding can push the ratio a hair under 1 at coincident points
    ratio = max(ratio, 1.0)
    return 2.0 * math.acosh(math.sqrt(ratio))


def _unit_representatives(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Array form of ``_unit_representative`` over the last axis of f.

    Returns the scaled points and the mask of points with a nonzero finite
    representative; the other points come back as zero vectors.  The
    moduli (hypot) and the division of each part round as the scalar path
    does, so the sign of <Z,Z> is decided on the same numbers.  A NaN or
    infinite modulus carries through the maximum into the scale's test.
    """
    import numpy as np

    with np.errstate(over="ignore"):  # an overflowing modulus is inf, which ok refuses
        m = np.hypot(f.real, f.imag)
    scale = np.maximum(np.maximum(m[..., 0], m[..., 1]), m[..., 2])
    ok = np.isfinite(scale) & (scale > 0.0)
    if not ok.all():
        scale = np.where(ok, scale, 1.0)
        f = np.where(ok[..., None], f, 0.0)
    scale = scale[..., None]
    z = np.empty(f.shape, dtype=complex)
    z.real = f.real / scale
    z.imag = f.imag / scale
    return z, ok


def _herm_forms(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``herm_form`` along the last axes of z and w, broadcast."""
    return z[..., 0] * w[..., 0].conj() + z[..., 1] * w[..., 1].conj() - z[..., 2] * w[..., 2].conj()


def _norms(z: np.ndarray) -> np.ndarray:
    """<Z,Z> along the last axis of z, rounded as ``herm_form(z, z).real`` rounds it.

    That is (|Z1|^2 + |Z2|^2) - |Z3|^2 with |Zk|^2 = x^2 + y^2 from real
    products: numpy's complex multiply may round z conj(z) differently (it can
    fuse a product into the subtraction), and then a point near the null cone
    is in CH^2 for the array test but not for ``in_ch2``.
    """
    m = z.real * z.real + z.imag * z.imag
    return (m[..., 0] + m[..., 1]) - m[..., 2]


def points_in_ch2(f) -> np.ndarray:
    """Array form of ``in_ch2`` for float points along the last axis of f."""
    import numpy as np

    z, ok = _unit_representatives(np.asarray(f, dtype=complex))
    return ok & (_norms(z) < 0)


def normalize_points(f) -> tuple[np.ndarray, np.ndarray]:
    """(Z, <Z,Z>) for the points along the last axis of f, each Z scaled as
    ``distance`` scales it; raises as ``distance`` does outside CH^2."""
    import numpy as np

    z, ok = _unit_representatives(np.asarray(f, dtype=complex))
    if not ok.all():
        raise CH2Error("a CH^2 point needs a nonzero finite representative")
    zz = _norms(z)
    if not (zz < 0).all():
        raise CH2Error("distance arguments must lie in CH^2")
    return z, zz


def normalized_distances(z, zz, w, ww) -> np.ndarray:
    """``distance`` between (Z, <Z,Z>) and (W, <W,W>) from ``normalize_points``, broadcast."""
    import numpy as np

    zw = _herm_forms(z, w)
    ratio = (zw * zw.conj()).real / (zz * ww)
    return 2.0 * np.arccosh(np.sqrt(np.maximum(ratio, 1.0)))


# ---------------------------------------------------------------------------
# matrices


class Matrix21(Value):
    """A 3x3 complex matrix, exact (a ``linalg.Matrix``, a tuple of Q(i)
    row tuples) or floating (a tuple of row tuples of Python complex).

    ``scaled`` is the matrix as (M, d) with A = M/d and M over the Gaussian
    integers, computed when the matrix is built: ``linalg.scaled`` for an
    exact backing, and for a float one the dyadic rationals that its binary64
    parts are, over d a power of 2."""

    __slots__ = ("rows", "scaled")

    def __new__(cls, rows: linalg.Matrix) -> "Matrix21":
        return super().__new__(cls, rows, linalg.scaled(rows))

    @staticmethod
    def exact(rows) -> "Matrix21":
        return Matrix21(linalg.mat(rows))

    @staticmethod
    def floating(rows) -> "Matrix21":
        """The float matrix of three rows of numbers (lists or an ndarray), copied.

        Each binary64 part is u / 2^j exactly, so over d, the largest 2^j, the
        matrix is M/d with M over the Gaussian integers.  An entry that is not
        finite has no such value, and is refused."""
        rows = tuple(tuple(map(complex, row)) for row in rows)
        try:
            parts = [x.real.as_integer_ratio() + x.imag.as_integer_ratio() for row in rows for x in row]
        except (OverflowError, ValueError):  # an infinite or NaN part
            raise CH2Error("a float matrix entry is not finite") from None
        d = max(max(p, q) for _, p, _, q in parts)
        m = [(u * (d // p), v * (d // q)) for u, p, v, q in parts]
        scaled = ((m[0], m[1], m[2]), (m[3], m[4], m[5]), (m[6], m[7], m[8])), d
        return Value.__new__(Matrix21, rows, scaled)

    @property
    def is_exact(self) -> bool:
        return isinstance(self.rows[0][0], GaussianRational)

    def as_array(self) -> np.ndarray:
        """The float backing as a new ndarray."""
        import numpy as np

        return np.array(self.rows, dtype=complex)

    def to_json(self) -> dict:
        entry = str if self.is_exact else _format_complex
        entries = [[entry(x) for x in row] for row in self.rows]
        return {"matrix": entries, "backing": "exact" if self.is_exact else "float"}

    @staticmethod
    def from_json(obj) -> "Matrix21":
        entries = array(obj["matrix"] if isinstance(obj, dict) else obj, "the matrix")
        if len(entries) != 3 or any(len(array(r, "a matrix row")) != 3 for r in entries):
            raise CH2Error("expected a 3x3 matrix")
        flat = [str(x) for row in entries for x in row]
        rows = flat[:3], flat[3:6], flat[6:]
        if any(("." in s) or ("e" in s.lower() and "/" not in s) for s in flat):
            return Matrix21.floating([[_parse_complex(s) for s in row] for row in rows])
        return Matrix21.exact([[GaussianRational.parse(s) for s in row] for row in rows])


# a complex literal's spaces: around the sign of a part (not an exponent's) or before "i"
_SIGN_SPACES = re.compile(r"(?<![eE]) *([+-]) *| +(?=i\Z)")


def _format_complex(x: complex) -> str:
    return f"{x.real:.17g}{x.imag:+.17g}i"


def _parse_complex(s: str) -> complex:
    if not s.isascii() or "_" in s:  # complex() would read "1_0" and non-ASCII digits
        raise CH2Error(f"bad complex literal {s.strip()!r}")
    s = _SIGN_SPACES.sub(r"\1", s.strip()) if " " in s else s.strip()  # "1 0" stays refused
    if s.endswith("i"):
        s = s[:-1] + "j"
    try:
        return complex(s)
    except ValueError as exc:
        raise CH2Error(f"bad complex literal {s!r}") from exc


def boost(t: float) -> Matrix21:
    """One-parameter loxodromic family translating along a real geodesic."""
    c, s = math.cosh(t), math.sinh(t)
    return Matrix21.floating([[c, 0.0, s], [0.0, 1.0, 0.0], [s, 0.0, c]])


def preserves_form(a: Matrix21, tol: float = DEFAULT_TOL) -> bool:
    """A* J A = J: exactly for exact backing; for float backing, entrywise within
    tol + 64 u max(|A|^T |A|), u = 2^-53, a bound on the rounding of the products
    and sums that gave A's entries (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, ch. 3).

    Both backings test R = M* J M - d^2 J in Python ints, for A = M/d; R is
    Hermitian, so its upper triangle decides.  max(|A|^T |A|) is the largest
    squared column norm of A (Cauchy-Schwarz).  A float matrix whose rounding
    allowance 64 u max(|A|^T |A|) is 1/2 or more, half the size of J's entries,
    is refused: at that scale no allowance tells A* J A = J from A* J A != J.
    """
    m, d = a.scaled
    d2 = d * d
    bound, scale = 0, 1  # |R_jk| <= bound / scale
    if not a.is_exact:
        w = max(sum(p * p + q * q for p, q in column) for column in zip(*m))  # d^2 max(|A|^T |A|)
        if w >= d2 << 46:  # 64 u w / d^2 >= 1/2
            raise CH2Error("the form cannot be decided at this scale: 64u max(|A|^T |A|) >= 1/2, "
                           "u = 2^-53")
        num, den = tol.as_integer_ratio()
        bound, scale = (num * d2 << 47) + den * w, den << 47  # (tol + 2^-47 w / d^2) d^2
    bound2, scale2 = bound * bound, scale * scale
    for j in range(3):
        for k in range(j, 3):
            re = -_J_SIGNS[j] * d2 if j == k else 0
            im = 0
            for i, sign in enumerate(_J_SIGNS):
                (p, q), (u, v) = m[i][j], m[i][k]
                # conj(p + qi) (u + vi) = (pu + qv) + (pv - qu) i
                re += sign * (p * u + q * v)
                im += sign * (p * v - q * u)
            if (re or im) and (re * re + im * im) * scale2 > bound2:
                return False
    return True


# ---------------------------------------------------------------------------
# classification


class IsometryClass:
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    LOXODROMIC = "loxodromic"


def classify_isometry(a: Matrix21, tol: float = DEFAULT_TOL) -> str:
    """Elliptic / parabolic / loxodromic trichotomy for a form-preserving matrix.

    Loxodromic iff some eigenvalue modulus differs from 1; otherwise
    elliptic iff diagonalizable.  Both backings are read as A = M/d with M
    over the Gaussian integers (``Matrix21.scaled``), and M's characteristic
    polynomial chi_M(w) = w^3 - T w^2 + E w - D, for T = tr M, E the sum of
    its principal 2x2 minors and D = det M, is exact; A's is chi_M(d z) / d^3.
    Both deciders read it as one depressed cubic (``_cubic``): an exact matrix
    by exact signs (``_classify_exact``), a float one by its roots within a
    rounding tolerance (``_classify_float``).  ``tol`` is read by the form
    check alone.
    """
    if not preserves_form(a, tol):
        raise CH2Error("matrix does not preserve the signature-(2,1) form")
    m, d = a.scaled
    t, e, det = linalg.invariants(m)
    p, r, q, disc = _cubic(t, e, det)
    if a.is_exact:
        return _classify_exact(m, t, det, p, r, disc)
    return _classify_float(a, m, d, _roots(d, t, p, q, disc))


def _cubic(t, e, det):
    """P = T^2 - 3E, R = TE - 9D, Q = 2TP - 3R and Delta = Q^2 - 4P^3 for chi_M:
    with w = z + T/3, chi_M(w) = z^3 - (P/3) z - Q/27, of discriminant -Delta/27."""
    p = gsub(gmul(t, t), gmul((3, 0), e))
    r = gsub(gmul(t, e), gmul((9, 0), det))
    q = gsub(gmul((2, 0), gmul(t, p)), gmul((3, 0), r))
    return p, r, q, gsub(gmul(q, q), gmul((4, 0), gmul(gmul(p, p), p)))


def _shifted(m, q, r) -> list:
    """q M - r I over the Gaussian integers, row by row."""
    return [[gsub(gmul(q, x), r if i == j else (0, 0)) for j, x in enumerate(row)]
            for i, row in enumerate(m)]


def _classify_exact(m, t, det, p, r, disc) -> str:
    """Goldman's trace discriminant (Complex Hyperbolic Geometry, 1999,
    Thm 6.2.4): with tau = tr A and |det A| = 1, f = |tau|^4 - 8 Re(tau^3 /
    det A) + 18 |tau|^2 - 27 is positive iff A is loxodromic and negative iff
    A is regular elliptic.  For A in U(2,1), A's discriminant is det(A)^2 f, so
    -Delta/27 = D^2 f, and the integer Delta conj(D)^2 = -27 |D|^4 f gives f's
    sign exactly.  At f = 0 chi_M has roots mu, mu, nu: P = (mu - nu)^2 and R = 2 mu P.
    So mu = T/3 is triple if P = 0, else R/(2P) is double, and A is elliptic
    iff rank N is 0 (triple) or 1 (double), for N = 3M - T I or 2P M - R I.
    """
    d2 = gmul(det, det)
    f = -(disc[0] * d2[0] + disc[1] * d2[1])  # -Re(Delta conj(D)^2) = 27 |D|^4 f
    if f > 0:
        return IsometryClass.LOXODROMIC
    if f < 0:
        return IsometryClass.ELLIPTIC
    triple = p == (0, 0)
    n = _shifted(m, (3, 0), t) if triple else _shifted(m, gmul((2, 0), p), r)
    elliptic = not any(map(any, n[0] + n[1] + n[2])) if triple else linalg.rank_at_most_one(n)
    return IsometryClass.ELLIPTIC if elliptic else IsometryClass.PARABOLIC


def _classify_float(a: Matrix21, m, d, eigenvalues: list[complex]) -> str:
    """The trichotomy within rounding: loxodromic if an eigenvalue modulus is
    off 1 by more than 10 r; else each cluster of eigenvalues within 20 r of
    one is elliptic iff A - cI, for c its mean, has as many singular values
    within 20 r max(1, max |a_ij|) as the cluster has eigenvalues.  Here
    r = (2^-52 max(1, max |a_ij|))^(1/3): a k x k Jordan block's eigenvalues
    move like (u |A|)^(1/k) when A's entries move by u |A|, k can be 3, and
    conjugation conditioning eats the factors 10 and 20.  The eigenvalues are
    chi_M's roots (``_roots``), and the singular values are counted exactly
    (``_count_over``)."""
    scale = max(1.0, max(map(abs, a.rows[0] + a.rows[1] + a.rows[2])))
    r = (2.0**-52 * scale) ** (1.0 / 3.0)
    modulus_tol, cluster_tol = 10.0 * r, 20.0 * r
    if any(abs(abs(x) - 1.0) > modulus_tol for x in eigenvalues):
        return IsometryClass.LOXODROMIC
    num, den = (cluster_tol * scale).as_integer_ratio()
    remaining = eigenvalues
    while remaining:
        cluster = [x for x in remaining if abs(x - remaining[0]) <= cluster_tol]
        remaining = [x for x in remaining if abs(x - remaining[0]) > cluster_tol]
        if len(cluster) > 1:
            # N = ce d (A - c I) = ce M - d ce c I, for c = (cu + cv i)/ce
            c = sum(cluster) / len(cluster)
            (cu, p), (cv, q) = c.real.as_integer_ratio(), c.imag.as_integer_ratio()
            ce = max(p, q)
            n = _shifted(m, (ce, 0), (d * cu * (ce // p), d * cv * (ce // q)))
            if _count_over(n, (num * d * ce) ** 2, den * den, 3 - len(cluster)):
                return IsometryClass.PARABOLIC
    return IsometryClass.ELLIPTIC


_OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)  # a primitive cube root of 1


def _roots(d: int, t, p, q, disc) -> list[complex]:
    """The roots lambda of chi_M(d lambda) / d^3, A's characteristic polynomial.

    With w = d lambda = z + T/3, chi_M(w) = z^3 - (P/3) z - Q/27 (``_cubic``),
    and by Cardano z = s + P/(9s) over the cube roots s of (Q +- sqrt(Delta))/54,
    the sign that does not cancel.  P, Q and Delta are Gaussian integers, each
    rounded once, so a cluster of roots is as tight as A's entries make it."""
    d2, d3 = d * d, d * d * d
    pf, qf = complex(p[0] / d2, p[1] / d2), complex(q[0] / d3, q[1] / d3)
    root = cmath.sqrt(complex(disc[0] / (d3 * d3), disc[1] / (d3 * d3)))
    s3 = (qf + root if abs(qf + root) >= abs(qf - root) else qf - root) / 54.0
    shift = complex(t[0] / d, t[1] / d) / 3.0
    if s3 == 0:  # P = Q = 0: a triple root
        return [shift] * 3
    s = s3 ** (1.0 / 3.0)
    return [w * s + pf / (9.0 * w * s) + shift for w in (1.0, _OMEGA, _OMEGA.conjugate())]


def _count_over(columns, num: int, den: int, most: int) -> bool:
    """Whether more than ``most`` singular values of the 3x3 Gaussian-integer N,
    given by its columns (or its rows: N's transpose has its singular values),
    have square over x = num/den.

    They are the eigenvalues of H = N* N: each at most tr H, the largest at
    least each diagonal entry, and all real roots of H's characteristic
    polynomial, so Descartes' rule of signs counts those over x exactly on
    that polynomial shifted by x."""
    diagonal = [sum(p * p + q * q for p, q in column) for column in columns]
    if sum(diagonal) * den <= num:
        return False
    if most == 0 and max(diagonal) * den > num:
        return True
    h = [[(sum(p * u + q * v for (p, q), (u, v) in zip(cj, ck)),
           sum(p * v - q * u for (p, q), (u, v) in zip(cj, ck))) for ck in columns] for cj in columns]
    (c1, _), (c2, _), (c3, _) = linalg.invariants(h)
    # den^3 chi_H(x + y), for chi_H(w) = w^3 - c1 w^2 + c2 w - c3, by powers of y from y^3
    coeffs = (1, 3 * num - c1 * den, (3 * num - 2 * c1 * den) * num + c2 * den * den,
              ((num - c1 * den) * num + c2 * den * den) * num - c3 * den**3)
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:])) > most


# ---------------------------------------------------------------------------
# exponentials


def unipotent_exponential(n_matrix, r) -> Matrix21:
    """exp(2 pi i r N) = I + aN + a^2 N^2 / 2 for a nilpotent array N, a = 2 pi i r."""
    import numpy as np

    arr = np.asarray(n_matrix, dtype=complex)
    n3 = arr @ arr @ arr
    scale = max(1.0, float(np.abs(arr).max()) ** 3)
    if np.abs(n3).max() > DEFAULT_TOL * scale:
        raise CH2Error("matrix is not nilpotent")
    a = 2j * math.pi * complex(r)
    out = np.eye(3, dtype=complex) + a * arr + (a * a / 2.0) * (arr @ arr)
    return Matrix21.floating(out)


# ---------------------------------------------------------------------------
# samplers (form-preserving conjugators for property suites)


def _expm(x: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring Taylor exponential; plenty for 3x3 inputs."""
    import numpy as np

    norm = float(np.abs(x).max())
    k = max(0, int(math.ceil(math.log2(max(norm, 1e-16) / 0.25))))
    y = x / (2**k)
    out = np.eye(3, dtype=complex)
    term = np.eye(3, dtype=complex)
    for j in range(1, 24):
        term = term @ y / j
        out = out + term
    for _ in range(k):
        out = out @ out
    return out


def random_form_preserving(rng, scale: float = 1.0) -> Matrix21:
    """Random element of U(2,1) via the exponential of a random u(2,1) element."""
    import numpy as np

    j_float = np.diag([1.0, 1.0, -1.0]).astype(complex)
    y = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) * scale
    x = 0.5 * (y - j_float @ y.conj().T @ j_float)
    return Matrix21.floating(_expm(x))


_NULL_TRIPLES = ((1, 0, 1), (0, 1, 1), (3, 4, 5), (5, 12, 13), (8, 15, 17))


def random_exact_form_preserving(rng) -> Matrix21:
    """Random exact U(2,1) element: a product of three unit-diagonal, rational
    boost, or null-vector unipotent generators (all exactly form-preserving)."""

    def unit(a: int, b: int) -> GaussianRational:
        z = GaussianRational.of(a, b)
        return z / z.conjugate()

    out = linalg.identity(3)
    for _ in range(3):
        kind = rng.randrange(3)
        if kind == 0:
            d = [unit(rng.randrange(1, 5), rng.randrange(0, 5)) for _ in range(3)]
            g = linalg.mat(
                [
                    [d[0], GaussianRational.of(0), GaussianRational.of(0)],
                    [GaussianRational.of(0), d[1], GaussianRational.of(0)],
                    [GaussianRational.of(0), GaussianRational.of(0), d[2]],
                ]
            )
        elif kind == 1:
            t = Fraction(rng.randrange(1, 5), rng.randrange(1, 5))
            ch = GaussianRational.of((t + 1 / t) / 2)
            sh = GaussianRational.of((t - 1 / t) / 2)
            zero, one = GaussianRational.of(0), GaussianRational.of(1)
            g = linalg.mat([[ch, zero, sh], [zero, one, zero], [sh, zero, ch]])
        else:
            va, vb, vc = _NULL_TRIPLES[rng.randrange(len(_NULL_TRIPLES))]
            u1 = unit(rng.randrange(1, 4), rng.randrange(0, 4))
            v = (
                GaussianRational.of(va) * u1,
                GaussianRational.of(vb),
                GaussianRational.of(vc),
            )
            t = GaussianRational.of(0, Fraction(rng.randrange(1, 6), rng.randrange(1, 4)))
            rows = [
                [
                    (GaussianRational.of(1) if i == j else GaussianRational.of(0))
                    + t * v[i] * v[j].conjugate() * J_EXACT[j][j]
                    for j in range(3)
                ]
                for i in range(3)
            ]
            g = linalg.mat(rows)
        out = linalg.mat_mul(out, g)
    return Matrix21(out)

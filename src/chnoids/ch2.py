"""The projective model of the complex hyperbolic plane.

Signature-(2,1) Hermitian form, membership and distance, the isometry
trichotomy and unipotent monodromy exponentials.  Points are binary64;
matrices have dual numeric backing, exact Q(i) wherever the entries are
rational and binary64 where transcendentals enter.  numpy is imported by
the float functions only, so the exact path (parsing, ``preserves_form``,
the exact classifier) runs without it.
"""

from __future__ import annotations

import math
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


def points_in_ch2(f) -> np.ndarray:
    """Array form of ``in_ch2`` for float points along the last axis of f."""
    import numpy as np

    z, ok = _unit_representatives(np.asarray(f, dtype=complex))
    return ok & (_herm_forms(z, z).real < 0)


def normalize_points(f) -> tuple[np.ndarray, np.ndarray]:
    """(Z, <Z,Z>) for the points along the last axis of f, each Z scaled as
    ``distance`` scales it; raises as ``distance`` does outside CH^2."""
    import numpy as np

    z, ok = _unit_representatives(np.asarray(f, dtype=complex))
    if not ok.all():
        raise CH2Error("a CH^2 point needs a nonzero finite representative")
    zz = _herm_forms(z, z).real
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
    row tuples) or floating (a numpy ndarray).

    ``scaled`` is the exact backing as (M, d) with A = M/d
    (``linalg.scaled``), computed when the matrix is built, and None for a
    float backing."""

    __slots__ = ("rows", "scaled")

    def __new__(cls, rows) -> "Matrix21":  # rows: linalg.Matrix | np.ndarray
        return super().__new__(cls, rows, linalg.scaled(rows) if isinstance(rows, tuple) else None)

    @staticmethod
    def exact(rows) -> "Matrix21":
        return Matrix21(linalg.mat(rows))

    @staticmethod
    def floating(rows) -> "Matrix21":
        import numpy as np

        return Matrix21(np.asarray(rows, dtype=complex))

    @property
    def is_exact(self) -> bool:
        return isinstance(self.rows, tuple)

    def as_array(self) -> np.ndarray:
        """The float backing's ndarray."""
        return self.rows

    def to_json(self) -> dict:
        if self.is_exact:
            entries = [[str(x) for x in row] for row in self.rows]
        else:
            entries = [[_format_complex(x) for x in row] for row in self.rows]
        return {"matrix": entries, "backing": "exact" if self.is_exact else "float"}

    @staticmethod
    def from_json(obj) -> "Matrix21":
        entries = array(obj["matrix"] if isinstance(obj, dict) else obj, "the matrix")
        if len(entries) != 3 or any(len(array(r, "a matrix row")) != 3 for r in entries):
            raise CH2Error("expected a 3x3 matrix")
        flat = [str(x) for row in entries for x in row]
        if any(("." in s) or ("e" in s.lower() and "/" not in s) for s in flat):
            return Matrix21.floating([[_parse_complex(str(x)) for x in row] for row in entries])
        return Matrix21.exact([[GaussianRational.parse(str(x)) for x in row] for row in entries])


def _format_complex(x: complex) -> str:
    return f"{x.real:.17g}{x.imag:+.17g}i"


def _parse_complex(s: str) -> complex:
    s = s.strip().replace(" ", "")
    if s.endswith("i"):
        s = s[:-1] + "j"
    try:
        return complex(s)
    except ValueError as exc:
        raise CH2Error(f"bad complex literal {s!r}") from exc


def identity_matrix(exact: bool = True) -> Matrix21:
    if exact:
        return Matrix21(linalg.identity(3))
    import numpy as np

    return Matrix21.floating(np.eye(3, dtype=complex))


def boost(t: float) -> Matrix21:
    """One-parameter loxodromic family translating along a real geodesic."""
    c, s = math.cosh(t), math.sinh(t)
    return Matrix21.floating([[c, 0.0, s], [0.0, 1.0, 0.0], [s, 0.0, c]])


def geodesic_point(t: float) -> tuple[complex, complex, complex]:
    """Unit-speed-parametrized geodesic through the origin e3 (speed 2)."""
    return (math.sinh(t), 0.0, math.cosh(t))


def preserves_form(a: Matrix21, tol: float = DEFAULT_TOL) -> bool:
    """A* J A = J, exactly for exact backing, entrywise within tol otherwise.

    Exact backing tests M* J M = d^2 J in Python ints, for A = M/d; the
    Gram matrix is Hermitian, so its upper triangle decides.
    """
    if a.is_exact:
        m, d = a.scaled
        for j in range(3):
            for k in range(j, 3):
                re = im = 0
                for i, sign in enumerate(_J_SIGNS):
                    (p, q), (u, v) = m[i][j], m[i][k]
                    # conj(p + qi) (u + vi) = (pu + qv) + (pv - qu) i
                    re += sign * (p * u + q * v)
                    im += sign * (p * v - q * u)
                if im or re != (_J_SIGNS[j] * d * d if j == k else 0):
                    return False
        return True
    import numpy as np

    j_float = np.diag([1.0, 1.0, -1.0]).astype(complex)
    arr = a.as_array()
    lhs = arr.conj().T @ j_float @ arr
    scale = max(1.0, float(np.abs(arr).max()) ** 2)
    return bool(np.abs(lhs - j_float).max() <= tol * scale)


# ---------------------------------------------------------------------------
# classification


class IsometryClass:
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    LOXODROMIC = "loxodromic"


def classify_isometry(a: Matrix21, tol: float = DEFAULT_TOL) -> str:
    """Elliptic / parabolic / loxodromic trichotomy for a form-preserving matrix.

    Loxodromic iff some eigenvalue modulus differs from 1; otherwise
    elliptic iff diagonalizable.  Exact backing decides with exact
    rationals only, by Goldman's trace discriminant (Complex Hyperbolic
    Geometry, 1999, Thm 6.2.4): with tau = tr A and |det A| = 1,
    f = |tau|^4 - 8 Re(tau^3 / det A) + 18 |tau|^2 - 27 is positive iff A
    is loxodromic and negative iff A is regular elliptic.  At f = 0 an
    eigenvalue lambda repeats; with e the sum of A's principal 2x2 minors,
    it is tau/3, triple, if tau^2 = 3e, and else (tau e - 9 det A) /
    (2 (tau^2 - 3e)), double.  A double lambda is elliptic iff
    rank(A - lambda I) = 1, a triple one iff A = lambda I.
    Float backing compares eigenvalues within ``tol``.
    """
    if not preserves_form(a, tol):
        raise CH2Error("matrix does not preserve the signature-(2,1) form")
    if a.is_exact:
        return _classify_exact(a)
    return _classify_float(a.as_array(), tol)


def _classify_exact(a: Matrix21) -> str:
    """The exact trichotomy, on A = M/d with M over the Gaussian integers.

    M's characteristic polynomial is chi_M(w) = w^3 - T w^2 + E w - D, for
    T = tr M, E the sum of its principal 2x2 minors and D = det M, and A's
    is chi_M(d z) / d^3: tau = T/d and det A = D/d^3.  Goldman's f times
    d^4 |D|^2 > 0 is an integer, so its sign is exact.  At f = 0 chi_M has
    roots mu = d lambda, mu, nu: P = T^2 - 3E = (mu - nu)^2, TE - 9D = 2 mu P.
    So mu = T/3 is triple if P = 0, else (TE - 9D)/(2P) is double, and
    rank(A - lambda I) = rank(N) for N = 3M - T I or 2P M - (TE - 9D) I.
    """
    m, d = a.scaled
    t, e, det = linalg.char_coefficients(m)
    t_abs2 = t[0] * t[0] + t[1] * t[1]
    det_abs2 = det[0] * det[0] + det[1] * det[1]
    # Re(tau^3 / det A) = Re(T^3 conj(D)) / |D|^2
    re_t3_conj_det = gmul(gmul(gmul(t, t), t), (det[0], -det[1]))[0]
    d2 = d * d
    f = (t_abs2 * t_abs2 + (18 * t_abs2 - 27 * d2) * d2) * det_abs2 - 8 * d2 * d2 * re_t3_conj_det
    if f > 0:
        return IsometryClass.LOXODROMIC
    if f < 0:
        return IsometryClass.ELLIPTIC
    p = gsub(gmul(t, t), gmul((3, 0), e))
    triple = p == (0, 0)
    # N = q (M - mu I) for mu = r/q; A is elliptic iff rank N is 0 (triple mu) or 1 (double)
    q, r = ((3, 0), t) if triple else (gmul((2, 0), p), gsub(gmul(t, e), gmul((9, 0), det)))
    n = [[gsub(gmul(q, x), r if i == j else (0, 0)) for j, x in enumerate(row)]
         for i, row in enumerate(m)]
    vanish = (x for row in n for x in row) if triple else linalg.minors(n)
    return IsometryClass.PARABOLIC if any(map(any, vanish)) else IsometryClass.ELLIPTIC


def _classify_float(arr: np.ndarray, tol: float) -> str:
    import numpy as np

    eigvals = np.linalg.eigvals(arr)
    scale = max(1.0, float(np.abs(arr).max()))
    eps = np.finfo(float).eps
    # eigenvalues of a k x k Jordan block move like eps^(1/k) under roundoff;
    # k can be 3 here, and conjugation conditioning eats another safety factor
    modulus_tol = max(tol, 10.0 * (eps * scale) ** (1.0 / 3.0))
    cluster_tol = max(tol, 20.0 * (eps * scale) ** (1.0 / 3.0))
    if any(abs(abs(l) - 1.0) > modulus_tol for l in eigvals):
        return IsometryClass.LOXODROMIC
    remaining = list(eigvals)
    while remaining:
        mu = remaining[0]
        cluster = [l for l in remaining if abs(l - mu) <= cluster_tol]
        remaining = [l for l in remaining if abs(l - mu) > cluster_tol]
        alg_mult = len(cluster)
        if alg_mult == 1:
            continue
        center = sum(cluster) / alg_mult
        sing = np.linalg.svd(arr - center * np.eye(3), compute_uv=False)
        geo_mult = int(np.sum(sing <= cluster_tol * scale))
        if geo_mult < alg_mult:
            return IsometryClass.PARABOLIC
    return IsometryClass.ELLIPTIC


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

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from chnoids import ch2, linalg
from chnoids.ch2 import (
    J_EXACT,
    CH2Error,
    Matrix21,
    boost,
    classify_isometry,
    distance,
    geodesic_point,
    herm_form,
    identity_matrix,
    in_ch2,
    normalize_points,
    points_in_ch2,
    preserves_form,
    random_exact_form_preserving,
    random_form_preserving,
    unipotent_exponential,
)
from chnoids.exactnum import GQ, poly_gcd

E1 = (1.0, 0.0, 0.0)
E3 = (0.0, 0.0, 1.0)


def test_herm_form_basis():
    assert herm_form(E1, E1) == 1
    assert herm_form(E3, E3) == -1
    assert herm_form(E1, E3) == 0


def test_in_ch2():
    assert in_ch2(E3)
    assert not in_ch2(E1)
    assert in_ch2((1.0, 0.0, 2.0))  # 1 - 4 < 0
    # projective: <Z,Z> of this representative underflows, its point is e3
    assert in_ch2((0.0, 0.0, 1e-200))
    assert not in_ch2((0.0, 0.0, 0.0))
    assert not in_ch2((0.0, 0.0, math.inf))


def test_distance_basic():
    assert distance(E3, E3) == 0.0
    w = (math.sinh(1.0), 0.0, math.cosh(1.0))
    assert abs(distance(E3, w) - 2.0) < 1e-12
    # representative independence
    lam = 3.7 - 0.4j
    scaled = tuple(lam * x for x in E3)
    assert abs(distance(scaled, w) - 2.0) < 1e-12
    with pytest.raises(CH2Error):
        distance(E1, E3)
    # representatives whose Hermitian products underflow or overflow
    tiny = (0.0, 0.0, 1e-160)
    assert distance(tiny, tiny) == 0.0
    assert distance(E3, (0.0, 0.0, 1e200)) == 0.0
    for bad in ((0.0, 0.0, 0.0), (0.0, 0.0, math.inf), (0.0, math.nan, 1.0)):
        with pytest.raises(CH2Error):
            distance(bad, E3)


BAD_POINTS = [
    (0.0, 0.0, 0.0),
    (0.0, complex(math.nan, 0.0), 1.0),
    (0.5, 0.0, complex(1.0, math.nan)),
    (math.inf, 0.0, 1.0),
    (0.0, complex(0.0, -math.inf), 1.0),
    (complex(-math.inf, math.nan), 0.0, 1.0),
    (1.5e308 + 1.5e308j, 0.0, 1.0),  # hypot overflows
]


def kernel_points(with_bad):
    """Points along the last axis: inside CH^2 at scales 1e-300..1e300, a
    few positive and null lines and signed zeros, and, with_bad, the
    points of BAD_POINTS, so the array kernel takes its fallback path."""
    rng = np.random.default_rng(26)
    v = 0.6 * (rng.standard_normal((60, 2)) + 1j * rng.standard_normal((60, 2)))
    f = np.concatenate([v, np.ones((60, 1))], axis=1)
    f *= 10.0 ** rng.uniform(-300, 300, (60, 1))
    extra = [(1e-300, 0.0, 1e300), (1e300, 1e300j, 2e300), (-0.0, complex(-1.0, -0.0), -3.0),
             (complex(-0.0, 1e-300), 0.0, -1e-300), (1.0, 0.0, 1.0), (1e300, 0.0, 0.0)]
    return np.concatenate([f, np.array(extra + (BAD_POINTS if with_bad else []), dtype=complex)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("with_bad", [False, True])
def test_unit_representatives_match_scalar(with_bad):
    f = kernel_points(with_bad)
    z, ok = ch2._unit_representatives(f)
    assert ok.all() != with_bad
    for p, zp, okp in zip(f, z, ok):
        try:
            ref = np.array(ch2._unit_representative(p))
        except CH2Error:
            assert not okp and (zp == 0).all()
            continue
        assert okp
        # each part bit for bit; CPython divides complex by float as complex,
        # so only the sign of a zero part may differ, which == ignores
        np.testing.assert_array_equal(zp.view(float), ref.view(float))
    assert points_in_ch2(f).tolist() == [in_ch2(p) for p in f]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "bad, message",
    [(p, "a CH^2 point needs a nonzero finite representative") for p in BAD_POINTS]
    + [(p, "distance arguments must lie in CH^2") for p in (E1, (1.0, 0.0, 1.0))],
)
def test_normalize_points_raises_as_distance(bad, message):
    f = kernel_points(False)
    f[7] = bad
    for call in (lambda: distance(bad, E3), lambda: normalize_points(f)):
        with pytest.raises(CH2Error) as raised:
            call()
        assert str(raised.value) == message


def test_distance_symmetry_triangle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        pts = []
        while len(pts) < 3:
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            v = (v[0], v[1], 2.0 + abs(v[2]))
            if in_ch2(v):
                pts.append(v)
        a, b, c = pts
        assert abs(distance(a, b) - distance(b, a)) < 1e-9
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9


def test_geodesic_convexity():
    o = (0.3, 0.1j, 1.5)
    assert in_ch2(o)
    ts = np.linspace(-2, 2, 41)
    vals = [distance(o, geodesic_point(t)) for t in ts]
    second = np.diff(vals, 2)
    assert second.min() >= -1e-6


def test_preserves_form():
    assert preserves_form(identity_matrix())
    assert preserves_form(boost(1.0))
    bad = Matrix21.floating(np.diag([1.0, 1.0, 2.0]))
    assert not preserves_form(bad)


def parabolic_seed() -> Matrix21:
    """I + i v v* J with v = (1, 0, 1) null."""
    one, zero, i = GQ(1), GQ(0), GQ(0, 1)
    return Matrix21.exact(
        [
            [one + i, zero, -i],
            [zero, one, zero],
            [i, zero, one - i],
        ]
    )


def test_classify_seed_examples():
    assert classify_isometry(identity_matrix()) == "elliptic"
    assert classify_isometry(boost(1.0)) == "loxodromic"
    assert classify_isometry(parabolic_seed()) == "parabolic"


def test_classify_exact_edge_cases():
    # scalar unit matrix: triple eigenvalue, diagonalizable
    i = GQ(0, 1)
    zero = GQ(0)
    scalar = Matrix21.exact([[i, zero, zero], [zero, i, zero], [zero, zero, i]])
    assert classify_isometry(scalar) == "elliptic"
    # distinct unit eigenvalues on the diagonal
    u = GQ(3, 4) / GQ(3, -4)  # modulus 1, not a root of unity issue
    diag = Matrix21.exact([[u, zero, zero], [zero, GQ(1), zero], [zero, zero, u.conjugate()]])
    assert classify_isometry(diag) == "elliptic"
    # exact rational boost: cosh = 5/4, sinh = 3/4 (t = 2 in the sampler's parametrization)
    ch, sh = GQ("5/4"), GQ("3/4")
    bexact = Matrix21.exact([[ch, zero, sh], [zero, GQ(1), zero], [sh, zero, ch]])
    assert classify_isometry(bexact) == "loxodromic"
    # three distinct unit eigenvalues u_k = (k + i)/(k - i) within 2e-6 of each other
    u = [GQ(k, 1) / GQ(k, -1) for k in (1000, 1001, 1002)]
    clustered = Matrix21.exact([[u[0], zero, zero], [zero, u[1], zero], [zero, zero, u[2]]])
    assert classify_isometry(clustered) == "elliptic"
    g = random_exact_form_preserving(random.Random(11))
    conj = linalg.mat_mul(linalg.mat_mul(g.rows, clustered.rows), linalg.inverse(g.rows))
    assert classify_isometry(Matrix21(conj)) == "elliptic"
    # exact boost with t = 1 + 10^-12: eigenvalue moduli t^(+-1) differ from 1 by 1e-12
    t = Fraction(10**12 + 1, 10**12)
    ch, sh = GQ((t + 1 / t) / 2), GQ((t - 1 / t) / 2)
    near = Matrix21.exact([[ch, zero, sh], [zero, GQ(1), zero], [sh, zero, ch]])
    assert classify_isometry(near) == "loxodromic"


# ---------------------------------------------------------------------------
# exact classification at Goldman's f = 0, against the minimal-polynomial route

def diag(*d):
    return linalg.mat([[d[i] if i == j else GQ(0) for j in range(3)] for i in range(3)])


def unit(a, b):
    return GQ(a, b) / GQ(a, -b)


def scaled(lam, rows):
    return linalg.mat([[lam * x for x in row] for row in rows])


def jordan_3_unipotent():
    """C U C^-1 for U = [[1, 1, 1/2], [0, 1, 1], [0, 0, 1]], which preserves
    H = [[0, 0, -1], [0, 1, 0], [-1, 0, 0]]; C* J C = H, so C U C^-1 preserves J."""
    half = GQ(Fraction(1, 2))
    zero, one = GQ(0), GQ(1)
    c = linalg.mat([[one, zero, -half], [zero, one, zero], [one, zero, half]])
    u = linalg.mat([[one, one, half], [zero, one, one], [zero, zero, one]])
    return linalg.mat_mul(linalg.mat_mul(c, u), linalg.inverse(c))


def f0_shapes():
    """Every shape of a repeated eigenvalue: name, rows, label."""
    u, v = unit(3, 4), unit(1, 2)
    p = parabolic_seed().rows
    return [
        ("scalar", diag(GQ(1), GQ(1), GQ(1)), "elliptic"),
        ("double-diagonal", diag(u, u, v), "elliptic"),
        ("rank-1-unipotent", p, "parabolic"),
        ("jordan-3-unipotent", jordan_3_unipotent(), "parabolic"),
        ("ellipto-parabolic", linalg.mat_mul(diag(GQ(1), u, GQ(1)), p), "parabolic"),
    ]


LAMBDA = GQ(5, 12) / 13


def f0_fixtures():
    """The f = 0 shapes, each as it is and times the unit (5 + 12i)/13."""
    out = []
    for name, rows, label in f0_shapes():
        out.append((name, rows, label))
        out.append((f"{name}-times-unit", scaled(LAMBDA, rows), label))
    return out


def goldman_f(rows):
    a0, _, a2, _ = linalg.charpoly(rows).coeffs
    tau, det = -a2, -a0
    t2 = tau.re**2 + tau.im**2
    return t2 * t2 - 8 * (tau**3 / det).re + 18 * t2 - 27


def minimal_polynomial_label(rows):
    """The exact classifier's earlier route, kept as an oracle: Goldman's f
    from ``linalg.charpoly``, and at f = 0 whether ``linalg.minimal_polynomial``
    is squarefree, by ``poly_gcd``."""
    f = goldman_f(rows)
    if f > 0:
        return "loxodromic"
    if f < 0:
        return "elliptic"
    m = linalg.minimal_polynomial(rows)
    return "elliptic" if poly_gcd(m, m.derivative()).degree == 0 else "parabolic"


@pytest.mark.parametrize("name, rows, label", f0_fixtures(), ids=[f[0] for f in f0_fixtures()])
def test_classify_f0_fixtures(name, rows, label):
    a = Matrix21(rows)
    assert preserves_form(a)
    assert goldman_f(rows) == 0
    char = linalg.charpoly(rows)
    assert poly_gcd(char, char.derivative()).degree >= 1  # a repeated eigenvalue
    assert minimal_polynomial_label(rows) == label
    assert classify_isometry(a) == label


@pytest.mark.parametrize("name, rows, label", f0_fixtures(), ids=[f[0] for f in f0_fixtures()])
def test_classify_f0_avoids_generic_linalg(name, rows, label, monkeypatch):
    def refused(*args):
        raise AssertionError("exact classification reached generic linear algebra")

    for attr in ("minimal_polynomial", "charpoly", "mat_mul"):
        monkeypatch.setattr(linalg, attr, refused)
    assert classify_isometry(Matrix21(rows)) == label


def workload_seed(kind, rng):
    """The exact seed kinds of the isometry-classify benchmark, with
    distinct random units z / conj(z)."""
    units = []
    while len(units) < 3:
        z = unit(rng.randrange(1, 6), rng.randrange(0, 6))
        if z not in units:
            units.append(z)
    u, v, w = units
    if kind == "regular-elliptic":
        return diag(u, v, w), "elliptic"
    if kind == "repeated-elliptic":
        return diag(*rng.choice([(u, u, v), (u, v, u), (v, u, u)])), "elliptic"
    if kind == "parabolic":
        return parabolic_seed().rows, "parabolic"
    ch, sh = GQ(Fraction(5, 4)), GQ(Fraction(3, 4))
    return linalg.mat([[ch, GQ(0), sh], [GQ(0), GQ(1), GQ(0)], [sh, GQ(0), ch]]), "loxodromic"


# the five exact operations of one benchmark round
WORKLOAD_ROUND = ("regular-elliptic", "repeated-elliptic", "repeated-elliptic", "parabolic",
                  "loxodromic")


def conjugate(g, s):
    """g S g^-1, with g^-1 = J g* J since g* J g = J."""
    g_inv = linalg.mat_mul(linalg.mat_mul(J_EXACT, linalg.conj_transpose(g)), J_EXACT)
    return linalg.mat_mul(linalg.mat_mul(g, s), g_inv)


def test_classify_matches_minimal_polynomial_route():
    rng = random.Random(1409)
    seeds = [workload_seed(WORKLOAD_ROUND[k % 5], rng) for k in range(600)]
    seeds += [(rows, label) for _, rows, label in f0_fixtures() for _ in range(20)]
    for s, label in seeds:
        g = random_exact_form_preserving(random.Random(rng.randrange(2**31))).rows
        conj = conjugate(g, s)
        assert minimal_polynomial_label(conj) == label, conj
        assert classify_isometry(Matrix21(conj)) == label, conj


PERTURBATIONS = (GQ(Fraction(1, 10**30)), GQ(0, Fraction(1, 10**30)), GQ(1))


def test_exact_preserves_form_rejects_one_perturbed_entry():
    rng = random.Random(77)
    shapes = [rows for _, rows, _ in f0_shapes()] + [workload_seed("loxodromic", rng)[0]]
    for s in shapes:
        g = random_exact_form_preserving(random.Random(rng.randrange(2**31))).rows
        conj = conjugate(g, s)
        assert preserves_form(Matrix21(conj))
        for i, j, eps in itertools.product(range(3), range(3), PERTURBATIONS):
            rows = [list(row) for row in conj]
            rows[i][j] = rows[i][j] + eps
            assert not preserves_form(Matrix21(linalg.mat(rows))), (i, j, eps)
            with pytest.raises(CH2Error):
                classify_isometry(Matrix21(linalg.mat(rows)))


def test_exact_preserves_form_reads_imaginary_parts():
    # A* J A = [[1, 3i/5, 0], [-3i/5, 1, 0], [0, 0, -1]]: the diagonal and the
    # real parts of the off-diagonal entries agree with J
    zero = GQ(0)
    a = Matrix21.exact([[GQ(1), GQ(0, Fraction(3, 5)), zero],
                        [zero, GQ(Fraction(4, 5)), zero],
                        [zero, zero, GQ(1)]])
    assert not preserves_form(a)


def test_classify_rejects_non_form_preserving():
    with pytest.raises(CH2Error):
        classify_isometry(Matrix21.floating(np.diag([1.0, 1.0, 2.0])))


def test_conjugation_invariance_float():
    rng = np.random.default_rng(0)
    parabolic = Matrix21.floating([[complex(x) for x in row] for row in parabolic_seed().rows])
    seeds = [identity_matrix(False), boost(1.0), parabolic]
    labels = [classify_isometry(s) for s in seeds]
    for _ in range(25):
        g = random_form_preserving(rng, scale=0.4)
        garr = g.as_array()
        ginv = np.linalg.inv(garr)
        for seed, label in zip(seeds, labels):
            conj = Matrix21.floating(garr @ seed.as_array() @ ginv)
            assert classify_isometry(conj) == label


def test_conjugation_invariance_exact():
    rng = random.Random(3)
    seeds = [identity_matrix(), parabolic_seed()]
    labels = [classify_isometry(s) for s in seeds]
    for _ in range(10):
        g = random_exact_form_preserving(rng)
        assert preserves_form(g)
        ginv = linalg.inverse(g.rows)
        for seed, label in zip(seeds, labels):
            conj = Matrix21(linalg.mat_mul(linalg.mat_mul(g.rows, seed.rows), ginv))
            assert classify_isometry(conj) == label


def test_unipotent_exponential():
    out = unipotent_exponential(np.zeros((3, 3)), 0.7)
    assert np.allclose(out.as_array(), np.eye(3))
    # (2,1)-type N: result - I = aN exactly
    n = np.zeros((3, 3), dtype=complex)
    n[0, 2] = 1.0
    out = unipotent_exponential(n, 0.5)
    a = 2j * math.pi * 0.5
    assert np.allclose(out.as_array() - np.eye(3), a * n)
    with pytest.raises(CH2Error):
        unipotent_exponential(np.eye(3), 1.0)


def test_matrix_json_roundtrip():
    m = parabolic_seed()
    again = Matrix21.from_json(m.to_json())
    assert again.is_exact and again.rows == m.rows
    f = boost(0.3)
    again = Matrix21.from_json(f.to_json())
    assert not again.is_exact
    assert np.allclose(again.as_array(), f.as_array())
    with pytest.raises(CH2Error):
        Matrix21.from_json({"matrix": [[1, 2], [3, 4]]})

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from chnoids import linalg
from chnoids.ch2 import (
    CH2Error,
    Matrix21,
    boost,
    classify_isometry,
    distance,
    geodesic_point,
    herm_form,
    identity_matrix,
    in_ch2,
    preserves_form,
    random_exact_form_preserving,
    random_form_preserving,
    unipotent_exponential,
)
from chnoids.exactnum import GQ

E1 = (1.0, 0.0, 0.0)
E3 = (0.0, 0.0, 1.0)


def test_herm_form_basis():
    assert herm_form(E1, E1) == 1
    assert herm_form(E3, E3) == -1
    assert herm_form(E1, E3) == 0
    # exact path
    e3 = (GQ(0), GQ(0), GQ(1))
    assert herm_form(e3, e3) == GQ(-1)


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


def test_classify_rejects_non_form_preserving():
    with pytest.raises(CH2Error):
        classify_isometry(Matrix21.floating(np.diag([1.0, 1.0, 2.0])))


def test_conjugation_invariance_float():
    rng = np.random.default_rng(0)
    seeds = [identity_matrix(False), boost(1.0), Matrix21.floating(parabolic_seed().as_array())]
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

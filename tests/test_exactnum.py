import itertools
import math
import random

import pytest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from chnoids import linalg
from chnoids.exactnum import (
    GQ,
    ONE,
    ZERO,
    BinaryForm,
    ExactArithmeticError,
    GaussianRational,
    RationalFunction,
    UniPoly,
    eval_form,
    gcd_forms,
    homogenize,
    poly_gcd,
    resultant,
)


class FakePoint:
    def __init__(self, z0, z1):
        self.z0 = z0
        self.z1 = z1


def pt(p):
    return FakePoint(GQ(p), ONE)


# ---------------------------------------------------------------------------
# scalars


def test_field_ops_basic():
    assert GQ(1, 1) * GQ(1, -1) == GQ(2)
    a = GQ(Fraction(3, 7), Fraction(-5, 11))
    assert a + ZERO == a
    b = GQ(Fraction(3, 7), Fraction(2, 5))
    assert b.inverse() * b == ONE


def test_division_by_zero():
    with pytest.raises(ExactArithmeticError):
        ZERO.inverse()
    for literal in ["1/0", "1/0i", "2+1/0i", "0/0"]:
        with pytest.raises(ValueError):
            GaussianRational.parse(literal)


def test_parse_round_trip():
    for s in ["3/7+2/5i", "-4-6i", "2i", "-1i", "i", "-i", "0", "5", "-5/3"]:
        z = GaussianRational.parse(s)
        assert GaussianRational.parse(str(z)) == z


def test_pow():
    assert GQ(0, 1) ** 2 == GQ(-1)
    assert GQ(2) ** -1 == GQ(Fraction(1, 2))
    assert GQ(3, 4) ** 0 == ONE


small_fraction = st.fractions(min_value=-30, max_value=30, max_denominator=7)
gq_strategy = st.builds(GQ, small_fraction, small_fraction)


@given(gq_strategy, gq_strategy)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(gq_strategy)
def test_inverse_axiom(a):
    if not a.is_zero:
        assert a * a.inverse() == ONE


# Reference model for the differential test: a Gaussian rational as a pair
# of Fractions (re, im), with the schoolbook complex formulas.


def ref_mul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def ref_inverse(p):
    n = p[0] * p[0] + p[1] * p[1]
    return (p[0] / n, -p[1] / n)


def ref_pow(p, n):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(n)):
        out = ref_mul(out, p)
    return ref_inverse(out) if n < 0 else out


def as_pair(z):
    return (z.re, z.im)


def assert_canonical(z):
    a, b, d = z._a, z._b, z._d
    assert all(type(x) is int for x in (a, b, d))
    assert d > 0
    assert math.gcd(a, b, d) == 1
    if a == 0 and b == 0:
        assert d == 1


fraction_pair = st.tuples(small_fraction, small_fraction)


@settings(max_examples=300)
@given(fraction_pair, fraction_pair, st.integers(min_value=-4, max_value=4))
def test_scalar_matches_fraction_pairs(p, q, k):
    x, y = GQ(*p), GQ(*q)
    results = {
        "add": (x + y, (p[0] + q[0], p[1] + q[1])),
        "sub": (x - y, (p[0] - q[0], p[1] - q[1])),
        "mul": (x * y, ref_mul(p, q)),
        "neg": (-x, (-p[0], -p[1])),
        "conjugate": (x.conjugate(), (p[0], -p[1])),
        "int-add": (3 + x, (p[0] + 3, p[1])),
        "int-sub": (3 - x, (3 - p[0], -p[1])),
        "fraction-mul": (x * q[0], (p[0] * q[0], p[1] * q[0])),
    }
    if any(q):
        results["div"] = (x / y, ref_mul(p, ref_inverse(q)))
        results["inverse"] = (y.inverse(), ref_inverse(q))
    if any(p) or k >= 0:
        results["pow"] = (x**k, ref_pow(p, k))
    for name, (z, expected) in results.items():
        assert as_pair(z) == expected, name
        assert_canonical(z)
        assert GaussianRational.parse(str(z)) == z
    assert x.abs_sq() == p[0] * p[0] + p[1] * p[1]
    assert x.is_zero == (not any(p))
    # equal values reached by different routes are equal and hash equal
    for u, v in ((x * y, y * x), ((x + y) - y, x), (x, GQ(str(p[0])) + GQ(0, str(p[1])))):
        assert u == v
        assert hash(u) == hash(v)
    assert (x == y) == (p == q)


def test_scalar_canonical_zero_and_immutable():
    z = GQ(Fraction(1, 3), Fraction(2, 3)) - GQ(Fraction(1, 3), Fraction(2, 3))
    assert (z._a, z._b, z._d) == (0, 0, 1)
    assert z == ZERO and hash(z) == hash(ZERO)
    assert (GQ(Fraction(2, 4), Fraction(-3, 6))._a, GQ("1/2", "-1/2")._d) == (1, 2)
    with pytest.raises(AttributeError):
        z.re = Fraction(1)
    with pytest.raises(AttributeError):
        z._a = 1
    with pytest.raises(TypeError):
        GaussianRational(1, 2)


# ---------------------------------------------------------------------------
# polynomials


def poly_strategy(max_deg=4):
    return st.lists(gq_strategy, max_size=max_deg + 1).map(UniPoly.of)


@given(poly_strategy(), poly_strategy())
def test_poly_add_sub_roundtrip(f, g):
    assert (f + g) - g == f


@given(poly_strategy(3), poly_strategy(3), poly_strategy(3))
def test_poly_mul_distributes(f, g, h):
    assert f * (g + h) == f * g + f * h


@given(poly_strategy(4), poly_strategy(4))
def test_divmod_identity(f, g):
    if g.is_zero:
        return
    q, r = f.divmod(g)
    assert q * g + r == f
    assert r.is_zero or r.degree < g.degree


def test_shifted():
    f = UniPoly.of([1, 2, 3])  # 1 + 2z + 3z^2
    g = f.shifted(GQ(2))
    for z in [GQ(0), GQ(1), GQ(-3, 2)]:
        assert g(z) == f(z + GQ(2))


def test_root_multiplicity():
    f = UniPoly.from_roots([GQ(1), GQ(1), GQ(2)])
    assert f.root_multiplicity(GQ(1)) == 2
    assert f.root_multiplicity(GQ(2)) == 1
    assert f.root_multiplicity(GQ(5)) == 0


def test_poly_gcd():
    f = UniPoly.from_roots([GQ(1), GQ(2)])
    g = UniPoly.from_roots([GQ(2), GQ(3)])
    assert poly_gcd(f, g) == UniPoly.from_roots([GQ(2)])
    assert poly_gcd(f, UniPoly.zero()) == f.monic()


# ---------------------------------------------------------------------------
# binary forms

Z0 = BinaryForm.of(1, [1, 0])
Z1 = BinaryForm.of(1, [0, 1])


def test_resultant_examples():
    assert not resultant(Z0, Z1).is_zero
    assert resultant(Z0, Z0 * Z1).is_zero
    # f = z0^2 - z1^2, g = z0 - 2 z1: no common root, g's root [2:1] gives f = 3
    f = BinaryForm.of(2, [1, 0, -1])
    g = BinaryForm.of(1, [1, -2])
    assert eval_form(f, pt(2)) == GQ(3)
    assert not resultant(f, g).is_zero


def test_resultant_zero_input():
    with pytest.raises(ExactArithmeticError):
        resultant(BinaryForm.zero(2), Z0)


def leibniz_det(rows):
    """Determinant by the permutation expansion, the oracle for elimination."""
    n = len(rows)
    total = ZERO
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -ONE if inversions % 2 else ONE
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


def random_gq(rng):
    if rng.random() < 0.3:  # zeros force row swaps and singular cases
        return ZERO
    re, im = (Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(2))
    return GQ(re, im)


def sylvester(f, g):
    size = f.degree + g.degree
    rows = []
    for form, count in ((f, g.degree), (g, f.degree)):
        for i in range(count):
            row = [ZERO] * size
            for k, c in enumerate(form.coeffs):
                row[i + k] = c
            rows.append(row)
    return rows


def test_det_and_resultant_match_leibniz():
    rng = random.Random(2602)
    for size in range(1, 6):
        for _ in range(12):
            rows = [[random_gq(rng) for _ in range(size)] for _ in range(size)]
            if size > 1 and rng.random() < 0.2:
                rows[-1] = list(rows[0])  # a repeated row: determinant zero
            assert linalg.det(linalg.mat(rows)) == leibniz_det(rows)
            m = rng.randint(0, size)
            f = BinaryForm.of(m, [random_gq(rng) for _ in range(m + 1)])
            g = BinaryForm.of(size - m, [random_gq(rng) for _ in range(size - m + 1)])
            if f.is_zero or g.is_zero:
                continue
            assert resultant(f, g) == leibniz_det(sylvester(f, g))


def test_gcd_forms_examples():
    g = gcd_forms(Z0 * Z1, Z0 * Z0)
    assert g == Z0.normalized()
    assert gcd_forms(Z0, Z1).degree == 0
    f = BinaryForm.of(2, [2, 1, 1])
    assert gcd_forms(f, BinaryForm.zero(3)) == f.normalized()
    with pytest.raises(ExactArithmeticError):
        gcd_forms(BinaryForm.zero(1), BinaryForm.zero(2))


def test_eval_form_examples():
    cube = Z1 * Z1 * Z1
    for p in [0, 7, -3]:
        assert eval_form(cube, pt(p)) == ONE
    assert eval_form(Z0, pt(0)).is_zero
    f = BinaryForm.of(2, [1, 0, -1])
    assert eval_form(f, pt(2)) == GQ(3)


form_strategy = st.integers(min_value=0, max_value=6).flatmap(
    lambda d: st.lists(gq_strategy, min_size=d + 1, max_size=d + 1).map(
        lambda cs: BinaryForm.of(d, cs)
    )
)


@settings(max_examples=60, deadline=None)
@given(form_strategy, form_strategy)
def test_resultant_iff_gcd(f, g):
    if f.is_zero or g.is_zero:
        return
    shares_root = resultant(f, g).is_zero
    gcd_deg = gcd_forms(f, g).degree
    assert shares_root == (gcd_deg >= 1)


@settings(max_examples=60, deadline=None)
@given(form_strategy, form_strategy, gq_strategy)
def test_eval_multiplicative(f, g, p):
    point = FakePoint(p, ONE)
    assert eval_form(f * g, point) == eval_form(f, point) * eval_form(g, point)


def test_homogenize_roundtrip():
    f = BinaryForm.of(3, [1, 2, 0, 5])
    assert homogenize(f.dehomogenize(), 3) == f


# ---------------------------------------------------------------------------
# rational functions


def test_rational_function_reduction():
    num = UniPoly.from_roots([GQ(1), GQ(2)])
    den = UniPoly.from_roots([GQ(1), GQ(3)]) * GQ(2)
    r = RationalFunction.make(num, den)
    assert r.den.leading() == ONE
    assert r.den.root_multiplicity(GQ(1)) == 0  # common factor cancelled


def test_residue_simple_pole():
    # 1/(z - 2): residue 1 at 2
    r = RationalFunction.make(UniPoly.of([1]), UniPoly.from_roots([GQ(2)]))
    assert r.residue_at(GQ(2)) == ONE
    assert r.residue_at(GQ(5)).is_zero


def test_residue_higher_order():
    # (z + 1)/(z - 1)^2 = ((w + 2)/w^2 with w = z-1): residue 1 at z=1
    num = UniPoly.of([1, 1])
    den = UniPoly.from_roots([GQ(1), GQ(1)])
    r = RationalFunction.make(num, den)
    assert r.residue_at(GQ(1)) == ONE

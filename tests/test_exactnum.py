import itertools
import math
import operator
import random
import re
import sys
import time

import pytest
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import Poly, isprime, symbols
from sympy.polys.domains import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from chnoids import InputError, Value, int_ratio, integer, linalg, rational
from chnoids.exactnum import (
    GQ,
    ONE,
    ZERO,
    BinaryForm,
    ExactArithmeticError,
    GaussianRational,
    RationalFunction,
    RESULTANT_PRIMES,
    RationalOneForm,
    UniPoly,
    _coprime_mod,
    _poly_over,
    coprime,
    poly_gcd,
    resultant,
)
from corpus.inputs import BIG


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
    assert GaussianRational.parse("2+1i") == GQ(2, 1)


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


# (a + bi)/d from a small triple, so that equal scalars from unequal triples are common
gq_triple = st.builds(lambda a, b, d: GQ(Fraction(a, d), Fraction(b, d)),
                      st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 4))


@settings(max_examples=300)
@given(gq_triple, gq_triple)
def test_scalar_equality_and_hash_are_those_of_value(a, b):
    """GaussianRational takes Value's __eq__ and __hash__, on the canonical
    triple: equal numbers from unequal triples are equal and hash alike, and a
    triple is not a scalar."""
    assert (GaussianRational.__eq__, GaussianRational.__hash__) == (Value.__eq__, Value.__hash__)
    assert (a == b) is (a - b).is_zero
    assert a != b or hash(a) == hash(b)
    assert a.__eq__(b.parts) is NotImplemented


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


def test_scalar_defers_to_a_polynomial_operand():
    p = UniPoly.of([1, 2])
    assert GQ(2) * p == p * GQ(2) == UniPoly.of([2, 4])
    assert GQ(2) * p + GQ(1) * p == UniPoly.of([3, 6])
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(GQ(1), 1.5)
        with pytest.raises(TypeError):
            op(1.5, GQ(1))


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


def add_by_loop(f, g):
    """f + g by the coefficient loop alone, with no zero-operand shortcut."""
    a, b = (f, g) if len(f.re) >= len(g.re) else (g, f)
    den = math.lcm(a.den, b.den)
    s, t = den // a.den, den // b.den
    us, vs = [u * s for u in a.re], [v * s for v in a.im]
    for k, (u, v) in enumerate(zip(b.re, b.im)):
        us[k] += u * t
        vs[k] += v * t
    return _poly_over(us, vs, den)


def mul_by_loop(f, g):
    """f * g by the schoolbook loop alone, with no zero-operand shortcut."""
    ru = [0] * (len(f.re) + len(g.re) - 1)
    rv = ru[:]
    for i, (a, b) in enumerate(zip(f.re, f.im)):
        for k, c, e in zip(range(i, i + len(g.re)), g.re, g.im):
            ru[k] += a * c - b * e
            rv[k] += a * e + b * c
    return _poly_over(ru, rv, f.den * g.den)


# a zero operand returns at once: + gives the other operand itself, * the canonical zero
@given(st.one_of(st.just(UniPoly.zero()), poly_strategy(3)),
       st.one_of(st.just(UniPoly.zero()), poly_strategy(3)))
def test_zero_operand_shortcuts_match_the_loop(f, g):
    for x, y in ((f, g), (g, f)):
        assert x + y == add_by_loop(x, y)
        assert x * y == mul_by_loop(x, y)
        assert_canonical_poly(x + y)
        assert_canonical_poly(x * y)
        if x.is_zero:
            assert y + x is y
            assert (x * y).re == () and (x * y).den == 1
            assert (y * ZERO).is_zero and (ZERO * y).is_zero


@given(poly_strategy(4), poly_strategy(4))
def test_divmod_identity(f, g):
    if g.is_zero:
        return
    q, r = f.divmod(g)
    assert q * g + r == f
    assert r.is_zero or r.degree < g.degree


def poly_from_roots(roots):
    """prod_k (z - roots[k]), multiplied out one linear factor at a time."""
    out = UniPoly.of([1])
    for r in roots:
        out = out * UniPoly.of([-r, 1])
    return out


def test_poly_gcd():
    f = poly_from_roots([GQ(1), GQ(2)])
    g = poly_from_roots([GQ(2), GQ(3)])
    assert poly_gcd(f, g) == poly_from_roots([GQ(2)])
    assert poly_gcd(f, UniPoly.zero()) == f.monic()


# ---------------------------------------------------------------------------
# binary forms

Z0 = BinaryForm.of(1, [1, 0])
Z1 = BinaryForm.of(1, [0, 1])


def test_resultant_examples():
    assert not resultant(Z0, Z1).is_zero
    assert resultant(Z0, BinaryForm.of(2, [0, 1, 0])).is_zero  # z0 and z0 z1
    # f = z0^2 - z1^2, g = z0 - 2 z1: no common root, g's root [2:1] gives f = 3
    f = BinaryForm.of(2, [1, 0, -1])
    g = BinaryForm.of(1, [1, -2])
    assert f.chart(GQ(2)) == GQ(3)
    assert not resultant(f, g).is_zero


@pytest.mark.parametrize("degree", [1.0, True, "1"])
def test_form_degree_must_be_an_int(degree):
    with pytest.raises(InputError, match="degree must be an integer"):
        BinaryForm.from_json({"degree": degree, "coeffs": ["1", "0"]})


@pytest.mark.parametrize("value", [1.0, True, False, "1", None, [1]])
def test_integer_reads_only_an_int(value):
    assert integer(10**30, "n") == 10**30 and integer(-1, "n") == -1
    with pytest.raises(InputError, match="^n must be an integer, got "):
        integer(value, "n")


def test_resultant_zero_input():
    with pytest.raises(ExactArithmeticError):
        resultant(BinaryForm.of(2, [0, 0, 0]), Z0)


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


Z_SYM, Z0_SYM, Z1_SYM = symbols("z z0 z1")


def qq_i(x):
    """A Gaussian rational as an element of sympy's QQ_I."""
    return QQ_I(QQ(x.re.numerator, x.re.denominator), QQ(x.im.numerator, x.im.denominator))


def sympy_det(rows):
    """Determinant by sympy's DomainMatrix over QQ_I, an independent oracle."""
    entries = [[qq_i(x) for x in row] for row in rows]
    d = DomainMatrix(entries, (len(rows), len(rows)), QQ_I).det()
    return GQ(f"{d.x.numerator}/{d.x.denominator}", f"{d.y.numerator}/{d.y.denominator}")


def test_resultant_matches_sympy_sylvester_det():
    rng = random.Random(5)
    shapes = [(8, 9), (9, 8), (0, 9), (8, 0)] + [
        (rng.randint(0, 8), rng.randint(0, 9)) for _ in range(36)
    ]
    for m, n in shapes:
        if m + n == 0:
            continue
        f = BinaryForm.of(m, [random_gq(rng) for _ in range(m + 1)])
        g = BinaryForm.of(n, [random_gq(rng) for _ in range(n + 1)])
        if f.is_zero or g.is_zero:
            continue
        assert resultant(f, g) == sympy_det(sylvester(f, g)), (f, g)


def sympy_poly(p):
    return Poly.from_list([qq_i(c) for c in reversed(p.coeffs)], Z_SYM, domain=QQ_I)


def test_poly_gcd_and_divmod_match_sympy():
    rng = random.Random(31)
    for _ in range(180):
        # a planted monic common factor, so that most gcds are not 1
        common = UniPoly.of([random_gq(rng) for _ in range(rng.randint(0, 3))] + [ONE])
        a, b = (UniPoly.of([random_gq(rng) for _ in range(rng.randint(0, 6))]) * common
                for _ in range(2))
        sa, sb = sympy_poly(a), sympy_poly(b)
        assert sympy_poly(poly_gcd(a, b)) == sa.gcd(sb).monic(), (a, b)
        if b.is_zero:
            continue
        q, r = a.divmod(b)
        assert (sympy_poly(q), sympy_poly(r)) == sa.div(sb), (a, b)


def test_eval_form_examples():
    cube = BinaryForm.of(3, [0, 0, 0, 1])  # z1^3
    for p in [0, 7, -3]:
        assert cube.chart(GQ(p)) == ONE
    assert Z0.chart(GQ(0)).is_zero
    f = BinaryForm.of(2, [1, 0, -1])
    assert f.chart(GQ(2)) == GQ(3)


form_strategy = st.integers(min_value=0, max_value=6).flatmap(
    lambda d: st.lists(gq_strategy, min_size=d + 1, max_size=d + 1).map(
        lambda cs: BinaryForm.of(d, cs)
    )
)


def sympy_form(f):
    """f as a homogeneous bivariate sympy polynomial in z0, z1 over QQ_I."""
    terms = {(f.degree - k, k): qq_i(c) for k, c in enumerate(f.coeffs) if not c.is_zero}
    return Poly.from_dict(terms, Z0_SYM, Z1_SYM, domain=QQ_I)


@settings(max_examples=60, deadline=None)
@given(form_strategy, form_strategy)
def test_resultant_iff_gcd(f, g):
    if f.is_zero or g.is_zero:
        return
    shares_root = resultant(f, g).is_zero
    gcd_deg = sympy_form(f).gcd(sympy_form(g)).total_degree()
    assert shares_root == (gcd_deg >= 1)


def test_resultant_primes():
    for p, s in RESULTANT_PRIMES:
        assert isprime(p) and p % 4 == 1 and p < 2**30  # one CPython int digit
        assert s * s % p == p - 1


P1, S1 = RESULTANT_PRIMES[0]


def image_mod(x, p, s):
    """x under the ring map i -> s onto F_p; p must not divide x's denominator."""
    a, b, d = x.parts
    return (a + b * s) * pow(d, -1, p) % p


def modular_gq(rng):
    """random_gq, now and then one that vanishes mod P1 or has P1 in its denominator."""
    r = rng.random()
    if r < 0.06:
        return GQ(P1 * rng.randint(1, 3))
    if r < 0.12:  # s - i maps to 0 mod P1 without being a multiple of P1
        return GQ(S1, -1) * GQ(rng.randint(1, 3), rng.randint(-2, 2))
    if r < 0.15:
        return GQ(Fraction(rng.randint(1, 5), P1))
    return random_gq(rng)


def times_linear(f, c):
    """f (z0 - c z1), at declared degree deg f + 1."""
    cs = (ZERO, *f.coeffs, ZERO)
    return BinaryForm.of(f.degree + 1, [cs[k + 1] - c * cs[k] for k in range(f.degree + 2)])


def modular_pair(rng):
    """Forms of degree 0..9 with fractional coefficients and zeros; declared
    leads that vanish in Q(i) or only mod P1, on either side or both; and
    now and then a planted common root."""
    shared = rng.random() < 0.2
    m, n = (rng.randint(0, 8 if shared else 9) for _ in range(2))
    f, g = (BinaryForm.of(d, [modular_gq(rng) for _ in range(d + 1)]) for d in (m, n))
    if shared:
        c = modular_gq(rng)
        f, g = times_linear(f, c), times_linear(g, c)
    vanishing = (ZERO, GQ(P1), GQ(S1, -1))
    if rng.random() < 0.3:
        f = BinaryForm.of(f.degree, (rng.choice(vanishing), *f.coeffs[1:]))
    if rng.random() < 0.3:
        g = BinaryForm.of(g.degree, (rng.choice(vanishing), *g.coeffs[1:]))
    return f, g


def numerators(f):
    """f times its chart's denominator: Gaussian-integer coefficients."""
    return BinaryForm.of(f.degree, [c * f.chart.den for c in f.coeffs])


def test_coprime_mod_p_is_true_iff_the_image_of_resultant_is_nonzero():
    """The F_P rule of ``coprime`` against the image in F_P of Res of f and g
    scaled to Gaussian integers, and of Res(f, g) where P divides no
    denominator; at declared degrees 0 and 0 with both images zero Res = 1,
    and the rule proves nothing."""
    rng = random.Random(1707)
    seen = dict.fromkeys(["P in a denominator", "zero", "nonzero", "f lead", "g lead",
                          "both leads", "a lead zero mod P1 only"], 0)
    for _ in range(700):
        f, g = modular_pair(rng)
        if f.is_zero or g.is_zero:
            continue
        exact = resultant(f, g)
        fn, gn = numerators(f), numerators(g)
        scaled = resultant(fn, gn)
        for p, s in RESULTANT_PRIMES:
            got = _coprime_mod(f, g, p, s)
            f_lead, g_lead = (image_mod(h.coeffs[0], p, s) for h in (fn, gn))
            if f.degree == g.degree == 0 and not f_lead and not g_lead:
                assert not got and exact == ONE, (f, g, p)
                continue
            assert got == bool(image_mod(scaled, p, s)), (f, g, p)
            if any(not c.parts[2] % p for c in f.coeffs + g.coeffs):
                seen["P in a denominator"] += 1
                continue
            assert got == bool(image_mod(exact, p, s)), (f, g, p)
            seen["nonzero" if got else "zero"] += 1
            if p != P1:
                continue
            if not f_lead and not g_lead:
                seen["both leads"] += 1
            elif got and not (f_lead and g_lead):  # one side: the other's image leads
                seen["f lead" if not f_lead else "g lead"] += 1
                if not (f if not f_lead else g).coeffs[0].is_zero:
                    seen["a lead zero mod P1 only"] += 1
    assert min(seen.values()) >= 10, seen


def z0_minus(a):
    return BinaryForm.of(1, [1, -a])


def test_coprime_examples():
    # Res_{1,1}(z0 - a z1, z0) = a; a = P1 is zero mod P1 only
    assert resultant(z0_minus(P1), Z0) == GQ(P1)
    assert not _coprime_mod(z0_minus(P1), Z0, P1, S1)
    assert coprime(z0_minus(P1), Z0)
    # a = P1 P2 P3 is zero mod every prime: no prime proves it, the Q(i) gcd does
    a = math.prod(p for p, _ in RESULTANT_PRIMES)
    assert not any(_coprime_mod(z0_minus(a), Z0, p, s) for p, s in RESULTANT_PRIMES)
    assert coprime(z0_minus(a), Z0) and resultant(z0_minus(a), Z0) == GQ(a)
    # constants at declared degree 0: the empty Sylvester matrix, Res = 1, which
    # the rule proves nowhere both images are zero
    c = BinaryForm.of(0, [P1])
    assert resultant(c, c) == ONE and not _coprime_mod(c, c, P1, S1) and coprime(c, c)
    # a lead that vanishes mod P1 only, on g: f's image leads the remainders
    f, g = BinaryForm.of(1, [1, 2]), BinaryForm.of(1, [P1, 3])
    assert image_mod(resultant(f, g), P1, S1) == 3 and _coprime_mod(f, g, P1, S1)
    # both leads zero: the common zero [1:0], although the chart gcd is 1
    f, g = BinaryForm.of(1, [0, 1]), BinaryForm.of(2, [0, 1, 1])
    assert resultant(f, g) == ZERO and not coprime(f, g)
    # the common zero 3 + i in the chart, and in F_P: a nonconstant gcd is no proof
    f, g = times_linear(Z1, GQ(3, 1)), times_linear(z0_minus(2), GQ(3, 1))
    assert not any(_coprime_mod(f, g, p, s) for p, s in RESULTANT_PRIMES)
    assert resultant(f, g) == ZERO and not coprime(f, g)
    # P1 in a denominator: Res(z0 + P1 z1, z0) = -P1 of the numerators is zero mod P1
    assert not _coprime_mod(BinaryForm.of(1, [Fraction(1, P1), 1]), Z0, P1, S1)
    assert coprime(BinaryForm.of(1, [Fraction(1, P1), 1]), Z0)
    with pytest.raises(ExactArithmeticError):
        coprime(BinaryForm.of(2, [0, 0, 0]), Z0)


def test_coprime_falls_back_with_one_declared_lead_zero():
    # Res_{1,1}(z1, a z0 + z1) = -a; a = P1 P2 P3 is zero mod every prime, and
    # only z1 vanishes at [1:0], so the Q(i) gcd of the charts decides
    a = math.prod(p for p, _ in RESULTANT_PRIMES)
    f, g = Z1, BinaryForm.of(1, [a, 1])
    assert f.zero_at_infinity and not g.zero_at_infinity
    assert not any(_coprime_mod(f, g, p, s) for p, s in RESULTANT_PRIMES)
    assert resultant(f, g) == GQ(-a) and coprime(f, g) and coprime(g, f)


def test_mod_p_decision_matches_resultant_and_sympy_gcd():
    rng = random.Random(4099)
    pairs = decided = shared = 0
    while pairs < 2000:
        f, g = modular_pair(rng)
        if f.is_zero or g.is_zero:
            continue
        pairs += 1
        decided += any(_coprime_mod(f, g, p, s) for p, s in RESULTANT_PRIMES)
        shares_root = not coprime(f, g)
        shared += shares_root
        assert shares_root == resultant(f, g).is_zero, (f, g)
        # a common zero is [1:0], where both leads vanish, or a common root in
        # the chart; sympy's univariate gcd is far quicker than its bivariate one
        at_infinity = f.coeffs[0].is_zero and g.coeffs[0].is_zero
        chart_gcd = sympy_poly(f.chart).gcd(sympy_poly(g.chart))
        assert shares_root == (at_infinity or chart_gcd.degree() >= 1), (f, g)
    assert decided >= 1000 and shared >= 200, (decided, shared)


# ---------------------------------------------------------------------------
# rational functions


def test_residue_simple_pole():
    # 1/(z - 2): residue 1 at 2
    r = RationalFunction(UniPoly.of([1]), poly_from_roots([GQ(2)]))
    assert r.residue_at(GQ(2)) == ONE
    assert r.residue_at(GQ(5)).is_zero


def test_residue_off_the_poles_is_zero():
    # 1/(z - i); den(0) = -i has a zero real part, yet 0 is no pole
    r = RationalFunction(UniPoly.of([1]), poly_from_roots([GQ(0, 1)]))
    assert r.residue_at(GQ(0, 1)) == ONE
    for p in (GQ(0), GQ(1), GQ(2, 1), GQ(1, 1)):
        assert r.residue_at(p).is_zero, p


def test_residue_double_pole_raises():
    # (z + 1)/(z - 1)^2 has a double pole at 1; only simple poles are handled
    num = UniPoly.of([1, 1])
    den = poly_from_roots([GQ(1), GQ(1)])
    r = RationalFunction(num, den)
    with pytest.raises(ExactArithmeticError):
        r.residue_at(GQ(1))


# ---------------------------------------------------------------------------
# differential oracles for the exact kernels, over sympy's QQ_I
#
# Coefficients have denominators up to 13 and about 30% of them are zero;
# evaluation points are never Gaussian integers, so every kernel meets
# operands over a common denominator other than 1.


def fractional_gq(rng):
    if rng.random() < 0.3:
        return ZERO
    re, im = (Fraction(rng.randint(-20, 20), rng.randint(1, 13)) for _ in range(2))
    return GQ(re, im)


def non_integer_point(rng):
    return GQ(Fraction(rng.randint(-20, 20), rng.randint(2, 13)),
              Fraction(rng.randint(-20, 20), rng.randint(2, 13)))


def fractional_poly(rng, max_deg):
    return UniPoly.of([fractional_gq(rng) for _ in range(rng.randint(0, max_deg + 1))])


def from_qq_i(x):
    return GQ(Fraction(int(x.x.numerator), int(x.x.denominator)),
              Fraction(int(x.y.numerator), int(x.y.denominator)))


def test_poly_mul_and_call_match_sympy():
    rng = random.Random(4409)
    for _ in range(150):
        a, b = fractional_poly(rng, 9), fractional_poly(rng, 9)
        assert sympy_poly(a * b) == sympy_poly(a) * sympy_poly(b), (a, b)
        c = fractional_gq(rng)
        assert sympy_poly(a * c) == sympy_poly(a).mul_ground(qq_i(c)), (a, c)
        z = non_integer_point(rng)
        value = QQ_I.from_sympy(sympy_poly(a).eval(QQ_I.to_sympy(qq_i(z))))
        assert a(z) == from_qq_i(value), (a, z)


def fractional_matrix(rng, rows, cols):
    return linalg.mat([[fractional_gq(rng) for _ in range(cols)] for _ in range(rows)])


def sympy_matrix(a):
    return DomainMatrix([[qq_i(x) for x in row] for row in a], (len(a), len(a[0])), QQ_I)


def test_mat_mul_matches_sympy():
    rng = random.Random(613)
    for _ in range(120):
        n, k, m = (rng.randint(1, 4) for _ in range(3))
        a, b = fractional_matrix(rng, n, k), fractional_matrix(rng, k, m)
        product = linalg.mat_mul(a, b)
        assert sympy_matrix(product) == sympy_matrix(a).matmul(sympy_matrix(b)), (a, b)


def structured_matrices(rng):
    """Square matrices whose minimal polynomial is often a proper divisor of
    the characteristic one: P J P^-1 with J block diagonal and repeated
    fractional eigenvalues, next to random matrices with about 30% zeros."""
    for _ in range(40):
        n = rng.randint(1, 4)
        yield fractional_matrix(rng, n, n)
    for _ in range(50):
        n = rng.randint(2, 4)
        values = [non_integer_point(rng) for _ in range(rng.randint(1, 2))]
        j = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            j[i][i] = values[rng.randrange(len(values))]
            if i and j[i][i] == j[i - 1][i - 1] and rng.random() < 0.5:
                j[i - 1][i] = ONE  # a Jordan block
        p = fractional_matrix(rng, n, n)
        if linalg.det(p).is_zero:
            continue
        yield linalg.mat_mul(linalg.mat_mul(p, linalg.mat(j)), linalg.inverse(p))


def sympy_minimal_polynomial(a):
    """charpoly(A) divided by the gcd of the (n-1)-minors of zI - A, the
    last invariant factor of zI - A (its Smith normal form over QQ_I[z])."""
    n = len(a)
    ring = QQ_I[Z_SYM]
    z = ring.gens[0]
    zi_a = [[(z if i == j else ring.zero) - ring(qq_i(a[i][j])) for j in range(n)]
            for i in range(n)]
    char = DomainMatrix(zi_a, (n, n), ring).det()
    if n == 1:
        return char
    g = ring.zero
    for r in range(n):
        for c in range(n):
            minor = [[zi_a[i][j] for j in range(n) if j != c] for i in range(n) if i != r]
            g = ring.gcd(g, DomainMatrix(minor, (n - 1, n - 1), ring).det())
    return ring.exquo(char, g.monic())


def test_charpoly_and_minimal_polynomial_match_sympy():
    rng = random.Random(1301)
    proper = 0
    for a in structured_matrices(rng):
        char = linalg.charpoly(a)
        expected = [from_qq_i(c) for c in reversed(sympy_matrix(a).charpoly())]
        assert char.coeffs == tuple(expected), a
        minimal = linalg.minimal_polynomial(a)
        ring_poly = sympy_minimal_polynomial(a)
        assert sympy_poly(minimal) == Poly(ring_poly.as_expr(), Z_SYM, domain=QQ_I), a
        proper += minimal.degree < char.degree
    assert proper >= 10  # the Jordan-structured matrices reach the proper-divisor case


def test_one_form_residue_matches_sympy():
    """Res_p (num/den) dz at every root p of a squarefree monic den is
    num(p)/den'(p), evaluated by sympy over QQ_I; off the poles it is 0."""
    rng = random.Random(3907)
    checked = 0
    for _ in range(150):
        roots = []
        while len(roots) < rng.randint(1, 5):
            p = non_integer_point(rng)
            if p not in roots:
                roots.append(p)
        num = fractional_poly(rng, 6)
        den = poly_from_roots(roots)
        form = RationalOneForm(RationalFunction(num, den))
        s_num, s_den = sympy_poly(num), sympy_poly(den)
        for p in roots:
            at = QQ_I.to_sympy(qq_i(p))
            expected = QQ_I.from_sympy(s_num.eval(at)) / QQ_I.from_sympy(s_den.diff().eval(at))
            assert form.residue_at(p) == from_qq_i(expected), (num, roots, p)
            checked += not num(p).is_zero
        off = non_integer_point(rng)
        if off not in roots:
            assert form.residue_at(off) == ZERO
    assert checked >= 300


# ---------------------------------------------------------------------------
# canonical form of every kernel output

denominator_13 = st.fractions(min_value=-20, max_value=20, max_denominator=13)
gq_13 = st.one_of(st.just(ZERO), st.builds(GQ, denominator_13, denominator_13))
poly_13 = st.lists(gq_13, max_size=7).map(UniPoly.of)


def assert_canonical_poly(p):
    assert type(p.coeffs) is tuple
    for c in p.coeffs:
        assert_canonical(c)
    assert not p.coeffs or not p.coeffs[-1].is_zero
    # the stored triple: Gaussian-integer numerators over one denominator
    assert type(p.re) is tuple and type(p.im) is tuple and len(p.re) == len(p.im)
    assert all(type(x) is int for x in (*p.re, *p.im, p.den))
    assert p.den > 0 and math.gcd(*p.re, *p.im, p.den) == 1
    assert not p.re or p.re[-1] or p.im[-1]
    assert UniPoly.of(p.coeffs) == p


@settings(deadline=None)
@given(poly_13, poly_13, gq_13, st.lists(gq_13, min_size=9, max_size=9))
def test_kernel_outputs_are_canonical(f, g, z, entries):
    assert_canonical_poly(f * g)
    assert_canonical_poly(f * z)
    assert_canonical_poly(f - g)
    assert_canonical_poly(f.derivative())
    assert_canonical_poly(f.monic())
    assert_canonical(f(z))
    if not g.is_zero:
        for part in f.divmod(g):
            assert_canonical_poly(part)
    a = linalg.mat([entries[0:3], entries[3:6], entries[6:9]])
    for row in linalg.mat_mul(a, linalg.mat([entries[6:9], entries[0:3], entries[3:6]])):
        for x in row:
            assert_canonical(x)


# ---------------------------------------------------------------------------
# the homogenized evaluation kernel against canonical scalar arithmetic

tall_part = st.integers(-(10**40), 10**40)
tall_13 = st.builds(GQ, st.builds(Fraction, tall_part, st.integers(1, 10**40)),
                    st.builds(Fraction, tall_part, st.integers(1, 13)))
kernel_poly = st.one_of(poly_13, st.lists(st.one_of(gq_13, tall_13), max_size=6).map(UniPoly.of))
# z = (u + iv)/e, not necessarily in lowest terms: small, negative and tall parts, e >= 1
kernel_point = st.tuples(st.one_of(st.integers(-30, 30), tall_part),
                         st.one_of(st.integers(-30, 30), tall_part),
                         st.one_of(st.integers(1, 30), st.integers(2, 10**40)))


def value_by_scalars(f, z):
    """f(z) as the sum of c_k z^k, each term a canonical GaussianRational."""
    return sum((c * z**k for k, c in enumerate(f.coeffs)), ZERO)


@settings(max_examples=300, deadline=None)
@given(kernel_poly, kernel_point, st.integers(0, 4))
@example(UniPoly.zero(), (3, -2, 5), 0)
@example(UniPoly.of([GQ(-7, 2)]), (10**30 + 1, -(10**30), 10**30 + 7), 0)
@example(UniPoly.of([1, GQ(0, 1), GQ(Fraction(-3, 4))]), (-(10**30), 7, 10**30 - 1), 3)
def test_parts_at_matches_scalar_sum(f, point, extra):
    """e^deg f((u + iv)/e) = (re + i im)/f.den for powers[k] = e^k and deg >= deg f,
    with the zero polynomial, degree 0 and deg above deg f among the draws."""
    u, v, e = point
    deg = max(len(f.re) - 1, 0) + extra
    re, im = f.parts_at(u, v, [e**k for k in range(deg + 1)], deg)
    z = GQ(Fraction(u, e), Fraction(v, e))
    assert GQ(Fraction(re, f.den), Fraction(im, f.den)) == value_by_scalars(f, z) * e**deg
    assert f(z) == value_by_scalars(f, z)


# ---------------------------------------------------------------------------
# literals: the grammar's reader against the Fraction route


def outside_grammar(s):
    """Whether s has whitespace, an underscore or a non-ASCII character,
    none of which the exact literal grammar has."""
    return not s.isascii() or "_" in s or any(c.isspace() for c in s)


def split_literal(s):
    """The real and imaginary literal parts, split as GaussianRational.parse does."""
    s = s.strip().replace(" ", "")
    if not s:
        raise ValueError("empty")
    if not s.endswith("i"):
        return s, "0"
    body = s[:-1]
    m = re.match(r"([+-]?\d+(?:/\d+)?)([+-](?:\d+(?:/\d+)?)?)\Z", body)
    re_part, im_part = (m.group(1), m.group(2)) if m else ("0", body)
    return re_part, {"": "1", "+": "1", "-": "-1"}.get(im_part, im_part)


def parse_by_fractions(s):
    """(re, im) as Fractions of the split parts; ValueError where either does not parse."""
    try:
        return tuple(Fraction(part) for part in split_literal(s))
    except ZeroDivisionError as exc:
        raise ValueError(s) from exc


LITERAL_CORPUS = [
    "0", "-0", "+0", "00", "007", "7", "-7", "+7", "1_0", "0_1", "1__0", "_1", "1_",
    "١", "١٢i", "٣/٤", "１", "²", "1e3", "1e3i", "1.5",
    ".5i", "-2.5+1i", "0x10", "0x10i", "+-1", "+-1i", "--1", " 7 - i", "7-i", "i", "-i",
    "+i", "2i", "-1i", "3/4", "-3/4i", "1/2+3i", "3+1/2i", "-2+5i", "1_0+2_0i", "1/0",
    "2+1/0i", "0/0", "", "   ", "1+", "i+1", "1+2i3", "ii", "nan", "inf", "1 0",
    "9" * 4300, "-" + "9" * 4300 + "i", BIG, BIG + "i", "1+" + BIG + "i", BIG + "/7",
    "12345678901234567890-98765432109876543210i",
    # near-misses of a first-cut literal pattern, refused, and literals beside them, read
    "/5i", "+/8i", "-/3i", "2+/4115i", "1/2i", "2-i", "1_0/3",
    # a newline inside a literal, before its "i" or not, is refused
    "1+2\ni", "1+2\n\ni",
]


# Fraction is the oracle of the literals inside the grammar's characters,
# which it reads alike on every Python version; the others are refused
@pytest.mark.parametrize("literal", LITERAL_CORPUS)
def test_parse_matches_fraction_route(literal):
    if outside_grammar(literal):
        with pytest.raises(ValueError):
            GaussianRational.parse(literal)
        return
    try:
        expected = parse_by_fractions(literal)
    except ValueError:
        with pytest.raises(ValueError):
            GaussianRational.parse(literal)
        return
    z = GaussianRational.parse(literal)
    assert (z.re, z.im) == expected
    assert_canonical(z)


# int_ratio reads a part of the grammar into ints, unreduced: whitespace, an
# underscore, a non-ASCII digit and a sign or nothing beside "/" are refused
@pytest.mark.parametrize(
    "literal, ratio",
    [("7", (7, 1)), (" -7 ", None), ("1_0", None), ("-12/8", (-12, 8)), ("+3/0", (3, 0)),
     ("\t4/5 ", None), ("١/٢", None),
     ("1_0/3", None), ("1/3_0", None), ("1 /3", None), ("1/ 3", None), ("1/+3", None),
     ("1/-3", None), ("/3", None), ("1/", None), ("1/2/3", None), ("1.5", (15, 10)),
     ("1e3", (1000, 1))],
)
def test_int_ratio_reads_only_what_fraction_reads_alike(literal, ratio):
    if ratio is None:
        with pytest.raises(ValueError):
            int_ratio(literal)
    else:
        assert int_ratio(literal) == ratio


# the characters of every integer, a/b, decimal and exponent literal, and of
# near-misses of them, with whitespace, an underscore and non-ASCII digits
GRAMMAR_CHARS = "0123456789+-/i.e"
LITERAL_TEXT = st.text(alphabet=GRAMMAR_CHARS + " _١１\t\n", max_size=12)
# the literals the Fraction oracle reads alike on every Python version
ORACLE_TEXT = st.text(alphabet=GRAMMAR_CHARS, max_size=12)


def over_digit_limit(call):
    """call(), or None when it refuses an exponent literal over the digit limit.

    Such a literal (1e99999999) is refused before it is built, and Fraction,
    the oracle, would build it in full, so it has no oracle here; the
    digit-limit tests below hold it.
    """
    try:
        return call()
    except InputError as exc:
        assert "over the limit of 4300 digits" in str(exc)
        return None


@settings(max_examples=1000, deadline=None)
@given(ORACLE_TEXT)
def test_parse_matches_fraction_route_on_literal_text(literal):
    try:
        z = over_digit_limit(lambda: GaussianRational.parse(literal))
    except ValueError:
        with pytest.raises(ValueError):
            parse_by_fractions(literal)
        return
    if z is not None:
        assert (z.re, z.im) == parse_by_fractions(literal)
        assert_canonical(z)


@settings(max_examples=1000, deadline=None)
@given(ORACLE_TEXT)
def test_rational_matches_fraction_on_literal_text(literal):
    try:
        x = over_digit_limit(lambda: rational(literal))
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)) as want:
            Fraction(literal)
        assert str(want.value) == str(exc)
        return
    if x is not None:
        assert type(x) is Fraction and x == Fraction(literal)


# a literal with whitespace, an underscore or a non-ASCII character is
# refused by both readers, whatever the rest of it
@settings(max_examples=500, deadline=None)
@given(st.builds(lambda head, c, tail: head + c + tail, LITERAL_TEXT,
                 st.sampled_from(" \t\n\r\x0b\x0c\x1c\xa0_١１²"), LITERAL_TEXT))
def test_literal_outside_the_grammar_is_refused(literal):
    with pytest.raises(ValueError):
        GaussianRational.parse(literal)
    with pytest.raises(ValueError):
        rational(literal)


# the grammar's pattern matches a literal one way only, so a long literal that
# fails at its end is refused in time linear in its length (a decimal pattern
# that could split a run of digits two ways took 4.8 s at 8,000 digits)
@pytest.mark.parametrize("tail", ["x", "/", ".5.", "i/", "+1.5i"])
def test_long_invalid_literal_is_refused_quickly(tail):
    literal = "9" * 20000 + tail
    start = time.perf_counter()
    for refused in (GaussianRational.parse, rational):
        with pytest.raises(ValueError):
            refused(literal)
    assert time.perf_counter() - start < 1


# an exponent literal may give its numerator or denominator at most 4300
# digits; the count is made before 10^e is built
@pytest.mark.parametrize(
    "literal, value",
    [("1e4299", Fraction(10**4299)), ("1e-4299", Fraction(1, 10**4299)), ("2.5e-3", Fraction(1, 400)),
     ("-10.5E+10", Fraction(-105 * 10**9)), ("0.00e0", Fraction(0))],
)
def test_exponent_literal_within_digit_limit(literal, value):
    assert rational(literal) == value
    assert GaussianRational.parse(literal) == GQ(value)
    assert GaussianRational.parse(literal + "i") == GQ(0, value)


@pytest.mark.parametrize(
    "literal", ["1e4300", "1e-4300", "1.5e-4299", "0e5000", "9" * 4300 + "e1", "1e" + "9" * 5000]
)
def test_exponent_literal_over_digit_limit(literal):
    for refused in (lambda: rational(literal), lambda: GaussianRational.parse(literal),
                    lambda: GaussianRational.parse(literal + "i")):
        with pytest.raises(InputError, match="over the limit of 4300 digits"):
            refused()


# so is an integer part of more than 4300 digits, by its digit count, with the
# interpreter's own int-to-str limit lifted too; an underscore is outside the
# grammar, so that literal is refused as invalid, whatever its length
@pytest.mark.parametrize("literal", [BIG, "-" + BIG, "1/" + BIG, "1_" + BIG],
                         ids=["integer", "negative", "denominator", "underscore"])
def test_integer_part_over_digit_limit(literal):
    error, match = ((ValueError, "Invalid literal for Fraction") if "_" in literal
                    else (InputError, "over the limit of 4300 digits"))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for refused in (rational, GaussianRational.parse, lambda s: GaussianRational.parse(s + "i")):
            with pytest.raises(error, match=match) as got:
                refused(literal)
            assert got.type is error
    finally:
        sys.set_int_max_str_digits(limit)


def str_by_fractions(a, b):
    """The literal of a + bi, formatted through Fraction."""
    x, y = Fraction(a), Fraction(b)
    if y == 0:
        return str(x)
    if x == 0:
        return f"{y}i"
    return f"{x}{'+' if y > 0 else '-'}{abs(y)}i"


big_int = st.integers(min_value=-(10**60), max_value=10**60)


@given(st.one_of(st.integers(-3, 3), big_int), st.one_of(st.integers(-3, 3), big_int))
def test_integer_str_matches_fraction_route(a, b):
    z = GQ(a, b)
    assert str(z) == str_by_fractions(a, b)
    assert GaussianRational.parse(str(z)) == z


# a part over a denominator: numerators up to 10^60, denominators up to 10^40,
# either part zero; each part is written over its own denominator in lowest terms
tall_fraction = st.builds(Fraction, big_int, st.integers(min_value=1, max_value=10**40))


@given(st.one_of(st.just(0), tall_fraction), st.one_of(st.just(0), tall_fraction))
@example(Fraction(1, 2), Fraction(-5, 4))
@example(0, Fraction(-1, 3))
@example(Fraction(6, 4), 0)
def test_fraction_str_matches_fraction_route(x, y):
    z = GQ(x, y)
    assert str(z) == str_by_fractions(x, y)
    assert GaussianRational.parse(str(z)) == z

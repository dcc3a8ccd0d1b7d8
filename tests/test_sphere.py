import random
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Poly, symbols
from sympy.polys.domains import QQ, QQ_I

from chnoids.exactnum import GQ, ZERO, UniPoly
from chnoids.sphere import SphereError, make_log_form


def punctures(*zs):
    return [GQ(z) for z in zs]


def test_make_log_form_valid():
    P = punctures(0, 1, 2, 3, 4)
    omega = make_log_form(P, [GQ(1)] * 4 + [GQ(-4)])
    assert omega.residue_at(GQ(3)) == GQ(1)
    assert omega.residue_at(GQ(4)) == GQ(-4)
    with pytest.raises(SphereError):
        omega.residue_at(GQ(7))


def test_make_log_form_rejects():
    with pytest.raises(SphereError):
        make_log_form(punctures(0, 1), [GQ(1), GQ(1)])  # sum nonzero
    with pytest.raises(SphereError):
        make_log_form(punctures(0, 1, 2), [GQ(1), GQ(0), GQ(-1)])  # zero residue
    with pytest.raises(SphereError):
        make_log_form([GQ(0)] * 2, [GQ(1), GQ(-1)])  # duplicates


def test_log_form_rational_realization():
    P = punctures(0, 1)
    omega = make_log_form(P, [GQ(1), GQ(-1)])
    form = omega.as_rational_form()
    # 1/z - 1/(z-1) = -1/(z^2 - z)
    assert form.residue_at(GQ(0)) == GQ(1)
    assert form.residue_at(GQ(1)) == GQ(-1)
    assert form.residue_at(GQ(5)).is_zero


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.integers(min_value=-8, max_value=8), min_size=2, max_size=6, unique=True
    ),
    st.data(),
)
def test_residues_sum_zero_and_match(points, data):
    rs = [
        GQ(data.draw(st.integers(-5, 5)), data.draw(st.integers(-3, 3)))
        for _ in range(len(points) - 1)
    ]
    if any(r.is_zero for r in rs):
        return
    last = ZERO
    for r in rs:
        last = last - r
    if last.is_zero:
        return
    P = punctures(*points)
    omega = make_log_form(P, rs + [last])
    total = ZERO
    form = omega.as_rational_form()
    # the invariant residue_at relies on: den is the monic squarefree V and
    # num vanishes at no puncture, so the form is reduced with simple poles
    assert form.den == UniPoly.from_roots(P)
    for p in P:
        assert not form.num(p).is_zero
        total = total + omega.residue_at(p)
        # partial-fraction realization agrees with the stored residues
        assert form.residue_at(p) == omega.residue_at(p)
    assert total.is_zero


Z_SYM = symbols("z")


def qq_i(x):
    return QQ_I(QQ(x.re.numerator, x.re.denominator), QQ(x.im.numerator, x.im.denominator))


def fractional_gq(rng):
    """A Gaussian rational with denominators 2..13 in both parts."""
    return GQ(Fraction(rng.choice([-1, 1]) * rng.randint(1, 20), rng.randint(2, 13)),
              Fraction(rng.randint(-20, 20), rng.randint(2, 13)))


def test_numerator_poly_matches_sympy_partial_fractions():
    """numerator_poly is sum_i r_i prod_{j != i} (z - p_j), built here in sympy."""
    rng = random.Random(977)
    for _ in range(60):
        points = list({fractional_gq(rng) for _ in range(rng.randint(2, 12))})
        residues = [fractional_gq(rng) for _ in points[1:]]
        last = -sum(residues, ZERO)
        if last.is_zero:
            continue
        residues.append(last)
        omega = make_log_form(points, residues)
        expected = Poly(0, Z_SYM, domain=QQ_I)
        for i, r in enumerate(residues):
            term = Poly(1, Z_SYM, domain=QQ_I).mul_ground(qq_i(r))
            for j, p in enumerate(points):
                if j != i:
                    term = term * Poly.from_list([QQ_I(1, 0), -qq_i(p)], Z_SYM, domain=QQ_I)
            expected = expected + term
        got = omega.numerator_poly().coeffs
        assert Poly.from_list([qq_i(c) for c in reversed(got)], Z_SYM, domain=QQ_I) == expected

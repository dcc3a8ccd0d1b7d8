import random
from fractions import Fraction

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from chnoids import stability
from chnoids.stability import (
    InternalDisagreement,
    MixedDegreeData,
    PunctureWeights,
    StabilityError,
    SurfaceData,
    WeightTriple,
    check_mixed_stability,
    nnoid_degrees,
    prop94_degrees,
    stability_region,
)


def test_surface_data():
    assert SurfaceData(0, 5).kappa == 3
    assert SurfaceData(1, 1).kappa == 1
    with pytest.raises(StabilityError):
        SurfaceData(0, 2)


def test_weight_triple():
    WeightTriple.of("1/4", "1/4", "1/2")
    WeightTriple.of(0, Fraction(1, 3), Fraction(1, 2))
    with pytest.raises(StabilityError):
        WeightTriple.of("1/2", "1/4", "3/4")  # out of order
    with pytest.raises(StabilityError):
        WeightTriple.of(0, 0, 1)  # 1 excluded


def test_puncture_weights_membership():
    w = WeightTriple.of(0, "1/3", "2/3")
    pw = PunctureWeights.of(w, beta="1/3", gamma=0)
    assert sum(pw.weights.values) == 1
    with pytest.raises(StabilityError):
        PunctureWeights.of(w, beta="1/2")


# plain-Fraction oracles for the certificate's numbers, straight from the
# weights: no weight sum, common denominator or helper of the module between
def sum_omega(pws):
    return sum((sum(pw.weights.values) for pw in pws), Fraction(0))


def par_deg_E(d1, d2, pws):
    """(d1 - d2) + sum of omega_p."""
    return d1 - d2 + sum_omega(pws)


def par_deg_W1(d1, pws, s):
    """(-kappa + d1) + sum of beta_p."""
    return -s.kappa + d1 + sum((pw.beta for pw in pws), Fraction(0))


def par_deg_W2(d1, pws, s):
    """(-kappa + d1) + sum of (beta_p + gamma_p)."""
    return -s.kappa + d1 + sum((pw.beta + pw.gamma for pw in pws), Fraction(0))


def expanded_rhs(pws, s):
    """Right-hand sides of 2 d1 + d2 < rhs1 and d1 + 2 d2 < rhs2."""
    k3 = 3 * s.kappa
    beta_gamma = sum((pw.beta + pw.gamma for pw in pws), Fraction(0))
    return (k3 + sum_omega(pws) - 3 * sum((pw.beta for pw in pws), Fraction(0)),
            k3 + 2 * sum_omega(pws) - 3 * beta_gamma)


def oracle_certificate(d1, d2, pws, s):
    """(verdict, failing, slope_w1, slope_w2, expanded_1, expanded_2) in Fractions."""
    mu_e = par_deg_E(d1, d2, pws) / 3
    slope_w1 = (par_deg_W1(d1, pws, s), mu_e)
    slope_w2 = (par_deg_W2(d1, pws, s) / 2, mu_e)
    rhs1, rhs2 = expanded_rhs(pws, s)
    exp1, exp2 = (Fraction(2 * d1 + d2), rhs1), (Fraction(d1 + 2 * d2), rhs2)
    sides = (("W1", *slope_w1), ("W2", *slope_w2))
    over = tuple(name for name, lhs, rhs in sides if lhs > rhs)
    edge = tuple(name for name, lhs, rhs in sides if lhs == rhs)
    verdict = "unstable" if over else "strictly-semistable" if edge else "stable"
    return verdict, over or edge, slope_w1, slope_w2, exp1, exp2


def test_par_degrees():
    # slope_w1 = (deg W1, deg E / 3) and slope_w2 = (deg W2 / 2, deg E / 3)
    s = SurfaceData(0, 5)
    cert = check_mixed_stability(MixedDegreeData.of(1, 2, ()), s)
    assert 3 * cert.slope_w1[1] == -1
    assert cert.slope_w1[0] == -2
    assert 2 * cert.slope_w2[0] == -2
    cert0 = check_mixed_stability(MixedDegreeData.of(3, 3, ()), s)
    assert 3 * cert0.slope_w1[1] == 0
    # 3 punctures of total weight 1 each
    w = WeightTriple.of(0, "1/2", "1/2")
    pw = PunctureWeights.of(w)
    cert3 = check_mixed_stability(MixedDegreeData.of(0, 0, [pw, pw, pw]), SurfaceData(0, 3))
    assert 3 * cert3.slope_w1[1] == 3
    # beta = 1/2 at one puncture, d1 = 0, kappa = 1
    d11 = MixedDegreeData.of(0, 0, [PunctureWeights.of(w, beta="1/2")])
    assert check_mixed_stability(d11, SurfaceData(1, 1)).slope_w1[0] == Fraction(-1, 2)


def test_check_mixed_stability_examples():
    s = SurfaceData(0, 5)
    cert = check_mixed_stability(MixedDegreeData.of(1, 2, ()), s)
    assert cert.verdict == "stable"
    assert cert.expanded_1 == (Fraction(4), Fraction(9))
    assert cert.expanded_2 == (Fraction(5), Fraction(9))

    boundary = check_mixed_stability(MixedDegreeData.of(1, 1, ()), SurfaceData(1, 1))
    assert boundary.verdict == "strictly-semistable"

    bad = check_mixed_stability(MixedDegreeData.of(5, 5, ()), s)
    assert bad.verdict == "unstable"
    assert "W1" in bad.failing


def test_certificate_json():
    s = SurfaceData(0, 5)
    cert = check_mixed_stability(MixedDegreeData.of(1, 2, ()), s)
    obj = cert.to_json()
    assert obj["verdict"] == "stable"
    assert obj["expanded_1"] == {"lhs": "4", "rhs": "9"}


def test_nnoid_degrees():
    assert nnoid_degrees(5) == (1, 2)
    assert nnoid_degrees(4) == (0, 1)
    assert nnoid_degrees(12) == (8, 9)
    with pytest.raises(StabilityError):
        nnoid_degrees(3)


def test_prop94_degrees():
    assert prop94_degrees(5) == (-1, -2, False)
    assert prop94_degrees(4) == (0, -1, True)
    assert prop94_degrees(10) == (-6, -7, False)


def test_stability_region_brute_force():
    s = SurfaceData(0, 5)
    weights = [PunctureWeights.of(WeightTriple.of(0, 0, 0))] * 5
    region = stability_region(s, weights, 3)
    expected = [
        (d1, d2)
        for d1 in range(4)
        for d2 in range(4)
        if 2 * d1 + d2 < 9 and d1 + 2 * d2 < 9
    ]
    assert region == expected
    assert stability_region(s, weights, 0) == [(0, 0)]
    # downward closure in each coordinate
    rset = set(region)
    for d1, d2 in region:
        assert d1 == 0 or (d1 - 1, d2) in rset
        assert d2 == 0 or (d1, d2 - 1) in rset


frac_strategy = st.fractions(min_value=0, max_value=Fraction(9, 10), max_denominator=12)


@st.composite
def mixed_data(draw):
    genus = draw(st.integers(0, 2))
    n_min = max(1, 3 - 2 * genus)
    n = draw(st.integers(n_min, 6))
    pws = []
    for _ in range(n):
        vals = sorted(draw(st.tuples(frac_strategy, frac_strategy, frac_strategy)))
        triple = WeightTriple.of(*vals)
        beta = draw(st.sampled_from(vals))
        gamma = draw(st.sampled_from(vals))
        pws.append(PunctureWeights.of(triple, beta, gamma))
    d1 = draw(st.integers(0, 8))
    d2 = draw(st.integers(0, 8))
    return MixedDegreeData.of(d1, d2, pws), SurfaceData(genus, n), pws


@settings(max_examples=150, deadline=None)
@given(mixed_data())
def test_forms_agree(args):
    d, s, pws = args
    # check_mixed_stability raises InternalDisagreement if the slope and
    # expanded evaluations ever differ; every number it prints is the oracle's
    cert = check_mixed_stability(d, s)
    verdict, failing, *pairs = oracle_certificate(d.d1, d.d2, pws, s)
    assert (cert.verdict, cert.failing) == (verdict, failing)
    assert [cert.slope_w1, cert.slope_w2, cert.expanded_1, cert.expanded_2] == pairs


def test_check_forms_must_agree(monkeypatch):
    original = stability._expanded

    # an expanded form whose first right-hand side drifts down onto its left-hand side
    def drifted(d1, d2, kappa, w):
        lhs1, rhs1, lhs2, rhs2 = original(d1, d2, kappa, w)
        return lhs1, rhs1 - 5 * w.den, lhs2, rhs2

    monkeypatch.setattr(stability, "_expanded", drifted)
    said = r"slope form said stable/\(\), expanded form said strictly-semistable"
    with pytest.raises(InternalDisagreement, match=said):
        check_mixed_stability(MixedDegreeData.of(1, 2, ()), SurfaceData(0, 5))


# At (6, 0) on (0, 5) the slope form says unstable, W1 failing; each patch
# below changes one of the expanded form's verdict and failing list only.
def test_check_forms_must_agree_on_the_failing_list(monkeypatch):
    original = stability._expanded

    def swapped(d1, d2, kappa, w):
        lhs1, rhs1, lhs2, rhs2 = original(d1, d2, kappa, w)
        return lhs2, rhs2, lhs1, rhs1

    monkeypatch.setattr(stability, "_expanded", swapped)
    said = r"slope form said unstable/\('W1',\), expanded form said unstable/\('W2',\)"
    with pytest.raises(InternalDisagreement, match=said):
        check_mixed_stability(MixedDegreeData.of(6, 0, ()), SurfaceData(0, 5))


def test_check_forms_must_agree_on_the_verdict(monkeypatch):
    original = stability._expanded

    def tight(d1, d2, kappa, w):
        lhs1, _, lhs2, rhs2 = original(d1, d2, kappa, w)
        return lhs1, lhs1, lhs2, rhs2

    monkeypatch.setattr(stability, "_expanded", tight)
    said = r"slope form said unstable/\('W1',\), expanded form said strictly-semistable/\('W1',\)"
    with pytest.raises(InternalDisagreement, match=said):
        check_mixed_stability(MixedDegreeData.of(6, 0, ()), SurfaceData(0, 5))


def twist_keeps_verdict(d, s, m):
    """The verdict is unchanged by deg W1 += m, deg W2 += 2m, deg E += 3m."""
    deg_e, deg_w1, deg_w2 = stability._degrees(d.d1, d.d2, s.kappa, d)
    t = m * d.den  # the degrees are den times the parabolic degrees

    def verdict(e, w1, w2):
        return stability._verdict(3 * w1, e, 3 * w2, 2 * e)[0]

    return verdict(deg_e, deg_w1, deg_w2) == verdict(deg_e + 3 * t, deg_w1 + t, deg_w2 + 2 * t)


@settings(max_examples=100, deadline=None)
@given(mixed_data(), st.integers(-5, 5))
def test_twist_invariance(args, m):
    d, s, _ = args
    assert twist_keeps_verdict(d, s, m)


def brute_force_region(s, weights, dmax):
    """The region as the verdict of every pair, one full check each."""
    return [
        (d1, d2)
        for d1 in range(dmax + 1)
        for d2 in range(dmax + 1)
        if check_mixed_stability(MixedDegreeData.of(d1, d2, weights), s).verdict == "stable"
    ]


def expanded_oracle_region(s, weights, dmax):
    """The region from the two expanded strict inequalities, pair by pair in
    Fractions, with no stability code between the weights and the verdict:
    2 d1 + d2 < 3k + sum(omega - 3 beta) and
    d1 + 2 d2 < 3k + sum(2 omega - 3 (beta + gamma)), k = 2g - 2 + n."""
    k = 2 * s.genus - 2 + s.punctures
    rhs1 = rhs2 = Fraction(3 * k)
    for pw in weights:
        omega = pw.weights.a1 + pw.weights.a2 + pw.weights.a3
        rhs1 += omega - 3 * pw.beta
        rhs2 += 2 * omega - 3 * (pw.beta + pw.gamma)
    return [
        (d1, d2)
        for d1 in range(dmax + 1)
        for d2 in range(dmax + 1)
        if 2 * d1 + d2 < rhs1 and d1 + 2 * d2 < rhs2
    ]


# each weight has its own denominator, so the common denominator of the sums
# runs up to lcm(1..13) = 360360; a large genus pushes the bounds past dmax
# and heavy beta and gamma weights push them below zero
weight_strategy = st.integers(1, 13).flatmap(
    lambda q: st.integers(0, q - 1).map(lambda a: Fraction(a, q))
)


@st.composite
def region_data(draw):
    genus = draw(st.integers(0, 30))
    n = draw(st.integers(max(1, 3 - 2 * genus), 8))
    pws = []
    for _ in range(n):
        vals = sorted(draw(st.tuples(weight_strategy, weight_strategy, weight_strategy)))
        beta = draw(st.sampled_from(vals))
        gamma = draw(st.sampled_from(vals))
        pws.append(PunctureWeights.of(WeightTriple.of(*vals), beta, gamma))
    return SurfaceData(genus, n), pws, draw(st.integers(0, 60))


@settings(max_examples=100, deadline=None)
@given(region_data())
def test_stability_region_matches_pairwise_checks(args):
    s, weights, dmax = args
    # one full check per pair is slow, so the pairwise comparison keeps to a
    # corner of the window; the oracle below covers all of it
    dmax = min(dmax, 15)
    assert stability_region(s, weights, dmax) == brute_force_region(s, weights, dmax)


HEAVY = PunctureWeights.of(WeightTriple.of(0, 0, "12/13"), "12/13", "12/13")
SPREAD = [
    PunctureWeights.of(WeightTriple.of("1/11", "5/12", "12/13"), "5/12", "12/13"),
    PunctureWeights.of(WeightTriple.of("2/7", "4/9", "3/5"), "2/7", "3/5"),
    PunctureWeights.of(WeightTriple.of(0, "1/8", "10/11"), "10/11", "1/8"),
]


@settings(max_examples=300, deadline=None)
@given(region_data())
@example((SurfaceData(0, 3), [HEAVY] * 3, 5))  # both bounds negative at d1 = 0
@example((SurfaceData(0, 3), SPREAD, 20))  # denominators 5, 7, 8, 9, 11, 12, 13
def test_stability_region_matches_expanded_oracle(args):
    s, weights, dmax = args
    assert stability_region(s, weights, dmax) == expanded_oracle_region(s, weights, dmax)


def test_stability_region_boundary_pairs_excluded():
    # kappa = 2, sum omega = 2, sum beta = 2/3, sum gamma = 1: both right-hand
    # sides are integers (6 and 5), so the region's edge is strictly semistable
    s = SurfaceData(1, 2)
    weights = [
        PunctureWeights.of(WeightTriple.of("1/3", "1/3", "1/3"), "1/3", "1/3"),
        PunctureWeights.of(WeightTriple.of(0, "1/3", "2/3"), "1/3", "2/3"),
    ]
    region = stability_region(s, weights, 8)
    assert region == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 1)]
    assert region == brute_force_region(s, weights, 8)
    assert region == expanded_oracle_region(s, weights, 8)
    for edge in ((1, 2), (3, 0)):
        cert = check_mixed_stability(MixedDegreeData.of(*edge, weights), s)
        assert cert.verdict == "strictly-semistable"


def test_stability_region_forms_must_agree(monkeypatch):
    s = SurfaceData(0, 5)
    weights = [PunctureWeights.of(WeightTriple.of(0, 0, 0))] * 5
    original = stability._degrees

    # a slope form whose deg W1 drifts by one from the expanded form from d1 = 2 on
    def drifted(d1, d2, kappa, w):
        deg_e, deg_w1, deg_w2 = original(d1, d2, kappa, w)
        return deg_e, deg_w1 + (w.den if d1 >= 2 else 0), deg_w2

    monkeypatch.setattr(stability, "_degrees", drifted)
    with pytest.raises(InternalDisagreement, match="at d1 = 2"):
        stability_region(s, weights, 4)


PRIMES = [p for p in range(2, 400) if all(p % q for q in range(2, int(p**0.5) + 1))]


def random_weights(rng):
    """Weight entries with small, equal or distinct prime denominators, some
    repeated as one object, as the CLI passes repeated entries."""
    out = []
    for _ in range(rng.randint(0, 60)):
        if out and rng.random() < 0.3:
            out.append(rng.choice(out))
            continue
        q = rng.choice((rng.randint(1, 13), rng.choice(PRIMES)))
        vals = sorted(Fraction(rng.randrange(q), q) for _ in range(3))
        out.append(PunctureWeights.of(WeightTriple.of(*vals), rng.choice(vals),
                                      rng.choice(vals)))
    return out


def test_weight_sums_match_plain_fraction_sum():
    rng = random.Random(4517)
    for _ in range(300):
        pws = random_weights(rng)
        expected = (
            sum((sum(pw.weights.values) for pw in pws), Fraction(0)),
            sum((pw.beta for pw in pws), Fraction(0)),
            sum((pw.gamma for pw in pws), Fraction(0)),
        )
        assert stability._weight_sums(pws) == expected

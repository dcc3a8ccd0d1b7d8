import collections
import random
from fractions import Fraction

import pytest

from chnoids import cli, linalg, nnoid
from chnoids.cli import random_nnoid_data
from chnoids.exactnum import GQ, BinaryForm
from chnoids.nnoid import (
    NnoidData,
    NnoidDataError,
    build_higgs,
    end_type,
    jordan_type,
    nilpotency_profile,
    residue_matrix,
    residue_matrix_closed_form,
    trace_phi,
    trace_phi_squared,
)
from chnoids.sphere import make_log_form
from corpus.inputs import puncture_height_nnoid, tall_punctures_nnoid
from test_cli import FRACTIONAL_NNOID
from test_linalg import gsum


def residue_of(omega, p):
    """r_p, looked up in omega by its puncture p."""
    return omega.residues[omega.punctures.index(p)]


def direct_residue(omega, s, p):
    """Route 1's residue at p, with r_p looked up in omega."""
    return residue_matrix(nnoid.residue_plan(s), p, residue_of(omega, p))


def closed_residue(data, p):
    """Route 2's residue at p, with r_p looked up in data's omega."""
    plan = nnoid.closed_form_plan(data.g1, data.g2, data.q)
    return residue_matrix_closed_form(plan, p, residue_of(data.omega, p))


def reference_data():
    """n=5, P={0..4}, r={1,1,1,1,-4}, g1=z0, g2=z0^2+z1^2, q=z1^3."""
    P = [GQ(k) for k in range(5)]
    omega = make_log_form(P, [GQ(1)] * 4 + [GQ(-4)])
    g1 = BinaryForm.of(1, [1, 0])
    g2 = BinaryForm.of(2, [1, 0, 1])
    q = BinaryForm.of(3, [0, 0, 0, 1])
    return NnoidData.make(omega, g1, g2, q)


def test_make_validates():
    P = [GQ(k) for k in range(5)]
    omega = make_log_form(P, [GQ(1)] * 4 + [GQ(-4)])
    g1 = BinaryForm.of(1, [1, 0])
    with pytest.raises(NnoidDataError):
        # q = z0^3 vanishes at puncture 0
        NnoidData.make(omega, g1, BinaryForm.of(2, [1, 0, 1]), BinaryForm.of(3, [1, 0, 0, 0]))
    with pytest.raises(NnoidDataError):
        # g1 = z0, g2 = z0 z1 share the root [0:1]
        NnoidData.make(omega, g1, BinaryForm.of(2, [0, 1, 0]), BinaryForm.of(3, [0, 0, 0, 1]))
    with pytest.raises(NnoidDataError):
        # wrong degree for g2
        NnoidData.make(omega, g1, BinaryForm.of(3, [1, 0, 0, 1]), BinaryForm.of(3, [0, 0, 0, 1]))


def test_json_roundtrip():
    data = reference_data()
    again = NnoidData.from_json(data.to_json())
    assert again == data
    bad = data.to_json()
    bad["n"] = 7
    with pytest.raises(NnoidDataError):
        NnoidData.from_json(bad)


def test_build_higgs_structure():
    data = reference_data()
    s = build_higgs(data)
    g1, g2, q = (f.chart for f in (data.g1, data.g2, data.q))
    # S[2][0] = g1, S[0][2] = -q g2; the diagonal blocks vanish
    assert s[2][0] == g1
    assert s[0][2] == -(q * g2)
    for i in range(2):
        for j in range(2):
            assert s[i][j].is_zero
    assert s[2][2].is_zero


def test_entry_residue_vanishing_section():
    # residue of entry (3,1) at p=0 is r * g1(0) = 0 since g1 = z0 vanishes there
    data = reference_data()
    assert direct_residue(data.omega, build_higgs(data), GQ(0))[0][2][0] == (0, 0)


def test_trace_identities():
    s = build_higgs(reference_data())
    assert trace_phi(s).is_zero
    assert trace_phi_squared(s).is_zero


def test_trace_phi_squared_detects_tamper():
    # flipping the sign of S[0][2] = -q g2 makes tr S^2 = 4 q g1 g2 != 0
    data = reference_data()
    s = build_higgs(data)
    tampered = ((s[0][0], s[0][1], -s[0][2]), s[1], s[2])
    g1, g2, q = (f.chart for f in (data.g1, data.g2, data.q))
    assert trace_phi_squared(tampered) == q * g1 * g2 * 4


def test_residue_two_ways_and_kernel_relation():
    data = reference_data()
    s = build_higgs(data)
    for p in data.punctures:
        direct = direct_residue(data.omega, s, p)
        closed = closed_residue(data, p)
        assert direct == closed
        # C(p) B(p) = g1(-q g2) + g2(q g1) = 0: lower-left row times upper-right col
        m = direct[0]
        assert gsum([linalg.gmul(m[2][0], m[0][2]), linalg.gmul(m[2][1], m[1][2])]) == (0, 0)


def test_residue_routes_disagree_on_tampered_field():
    """The two residue routes are independent, so a tampered field shows.

    Negating S[0][2], or building omega from a rotated residue vector, must
    make the factored-field residue differ from the closed form.
    """
    data = random_nnoid_data(7, 1)
    s = build_higgs(data)
    negated = (data.omega, ((s[0][0], s[0][1], -s[0][2]), s[1], s[2]))
    rs = data.omega.residues
    rotated = (make_log_form(data.punctures, rs[1:] + rs[:1]), s)
    for tampered in (negated, rotated):
        assert any(
            direct_residue(*tampered, p) != closed_residue(data, p)
            for p in data.punctures
        )
    assert all(
        direct_residue(data.omega, s, p) == closed_residue(data, p)
        for p in data.punctures
    )


ORACLE_INSTANCES = [
    ("fractional", lambda: NnoidData.from_json(FRACTIONAL_NNOID)),
    *((f"random-{n}", lambda n=n: random_nnoid_data(n, 40 + n)) for n in range(4, 17)),
    ("tall-punctures", lambda: NnoidData.from_json(tall_punctures_nnoid(cli.MAX_NNOID_N, 10, 55))),
]


@pytest.mark.parametrize("make", [m for _, m in ORACLE_INSTANCES],
                         ids=[name for name, _ in ORACLE_INSTANCES])
def test_residue_routes_match_q_i_oracle(make):
    """Each route's residue is linalg.scaled(M) for M = r_p s(p), taken entry
    by entry in Q(i); both are canonical, so they are equal pairs."""
    data = make()
    s = build_higgs(data)
    for p, r in zip(data.punctures, data.omega.residues):
        expected = linalg.scaled([[r * sij(p) for sij in row] for row in s])
        assert direct_residue(data.omega, s, p) == expected
        assert closed_residue(data, p) == expected


def value_by_scalars(f, p):
    """f(p) by Horner in canonical GaussianRational arithmetic, not through UniPoly.parts_at."""
    out = GQ(0)
    for c in reversed(f.coeffs):
        out = out * p + c
    return out


SCALAR_ORACLE_INSTANCES = [
    ("fractional", lambda: NnoidData.from_json(FRACTIONAL_NNOID)),
    ("tall-punctures", lambda: NnoidData.from_json(tall_punctures_nnoid(cli.MAX_NNOID_N, 10, 55))),
    ("taller-punctures", lambda: NnoidData.from_json(tall_punctures_nnoid(12, 40, 29))),
    ("puncture-height", lambda: NnoidData.from_json(puncture_height_nnoid(16, 3000))),
]


@pytest.mark.parametrize("make", [m for _, m in SCALAR_ORACLE_INSTANCES],
                         ids=[name for name, _ in SCALAR_ORACLE_INSTANCES])
def test_residue_routes_match_entrywise_scalar_oracle(make):
    """Both routes against r_p S(p) with every entry evaluated term by term in
    Q(i), at non-integer punctures, where the powers of each denominator matter."""
    data = make()
    s = build_higgs(data)
    for p, r in zip(data.punctures, data.omega.residues):
        rows = [[r * value_by_scalars(sij, p) for sij in row] for row in s]
        expected = linalg.scaled(rows)
        assert direct_residue(data.omega, s, p) == expected
        assert closed_residue(data, p) == expected


def test_doubled_omega_never_agrees(monkeypatch):
    """A field whose omega has every residue doubled disagrees with the
    closed form at every puncture, though at p = 1 the residue 1/2 S(1) has
    an even denominator and the doubled one the same numerator."""
    ref = reference_data()
    residues = [GQ(Fraction(1, 2))] * 4 + [GQ(-2)]
    data = NnoidData.make(make_log_form(ref.punctures, residues), ref.g1, ref.g2, ref.q)
    doubled = make_log_form(data.punctures, [r * 2 for r in residues])
    monkeypatch.setattr(nnoid, "residue_matrix",
                        lambda plan, p, _: residue_matrix(plan, p, residue_of(doubled, p)))
    args = cli.build_parser().parse_args(["nnoid", "check", "input.json"])
    cert, passed = cli.cmd_nnoid_check(data, args)
    assert not passed
    assert [r["agree"] for r in cert["residues"]] == [False] * 5
    s = build_higgs(data)
    assert any(direct_residue(doubled, s, p)[0] == closed_residue(data, p)[0]
               for p in data.punctures)


def numerator(m):
    """The Gaussian-integer numerator N of m = N/d (``linalg.scaled``)."""
    return linalg.scaled(m)[0]


def test_nilpotency_profile():
    zero = linalg.mat([[GQ(0)] * 3] * 3)
    assert nilpotency_profile(numerator(zero)) == 1
    assert nilpotency_profile(numerator(linalg.identity(3))) is None
    data = reference_data()
    s = build_higgs(data)
    for p in data.punctures:
        assert nilpotency_profile(direct_residue(data.omega, s, p)[0]) == 3


def profile_by_mat_mul(m):
    """Smallest k in {1, 2, 3} with m^k = 0, powers taken with linalg.mat_mul."""
    power = m
    for k in range(1, 4):
        if not any(x for row in power for x in row):
            return k
        power = linalg.mat_mul(power, m)
    return None


def random_gq(rng):
    if rng.random() < 0.3:
        return GQ(0)
    return GQ(*(Fraction(rng.randint(-20, 20), rng.randint(1, 13)) for _ in range(2)))


def random_matrix(rng):
    return linalg.mat([[random_gq(rng) for _ in range(3)] for _ in range(3)])


def conjugated(rng, block):
    """c * P block P^-1 for a random invertible P and a random nonzero c."""
    while True:
        p = random_matrix(rng)
        if not linalg.det(p).is_zero:
            break
    c = GQ(0)
    while c.is_zero:
        c = random_gq(rng)
    m = linalg.mat_mul(linalg.mat_mul(p, block), linalg.inverse(p))
    return linalg.mat([[c * x for x in row] for row in m])


def gq_matrix(rows):
    return linalg.mat([[GQ(x) for x in row] for row in rows])


def first_nonzero_invariant(m):
    """Which of tr m, the sum of m's principal 2x2 minors and det m is the
    first that does not vanish, by Q(i) arithmetic on m itself; None if all do."""
    t = m[0][0] + m[1][1] + m[2][2]
    e = sum((m[i][i] * m[j][j] - m[i][j] * m[j][i] for i, j in ((0, 1), (0, 2), (1, 2))), GQ(0))
    for name, x in (("T", t), ("E", e), ("D", linalg.det(m))):
        if not x.is_zero:
            return name
    return None


def test_nilpotency_profile_matches_mat_mul_route():
    """nilpotency_profile of the numerator against the powers of m, with each
    of its returns counted: m = 0, T != 0, T = 0 and E != 0, T = E = 0 and
    D != 0, and nilpotents of rank 1 and of rank 2."""
    rng = random.Random(8117)
    cases = [
        linalg.mat([[GQ(0)] * 3] * 3),
        linalg.identity(3),
        gq_matrix([[1, 0, 0], [0, -1, 0], [0, 0, 0]]),  # T = 0, E = -1
        gq_matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),  # companion of z^3 - 1: D = 1
        gq_matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),  # rank 1
        e13(),
        full_jordan(),
    ]
    for _ in range(150):
        cases.append(random_matrix(rng))
        cases.append(conjugated(rng, full_jordan()))
        cases.append(conjugated(rng, e13()))
    branches = collections.Counter()
    for m in cases:
        expected = profile_by_mat_mul(m)
        assert nilpotency_profile(numerator(m)) == expected, m
        branch = first_nonzero_invariant(m)
        assert (branch is None) == (expected is not None), m
        branches[branch or f"profile {expected}"] += 1
    assert set(branches) == {"profile 1", "T", "E", "D", "profile 2", "profile 3"}, branches


def e13():
    rows = [[GQ(0)] * 3 for _ in range(3)]
    rows[0][2] = GQ(1)
    return linalg.mat(rows)


def full_jordan():
    rows = [[GQ(0)] * 3 for _ in range(3)]
    rows[0][1] = GQ(1)  # M e2 = e1
    rows[1][2] = GQ(1)  # M e3 = e2
    return linalg.mat(rows)


def test_jordan_and_end_type():
    assert jordan_type(numerator(e13())) == (2, 1)
    assert jordan_type(numerator(full_jordan())) == (3,)
    assert end_type(numerator(e13())) == "I"
    assert end_type(numerator(full_jordan())) == "II"
    with pytest.raises(NnoidDataError):
        jordan_type(numerator(linalg.identity(3)))
    with pytest.raises(NnoidDataError):
        jordan_type(numerator(linalg.mat([[GQ(0)] * 3] * 3)))


def test_random_instances_full_pipeline():
    for seed in range(3):
        data = random_nnoid_data(7, seed)
        s = build_higgs(data)
        assert trace_phi(s).is_zero
        assert trace_phi_squared(s).is_zero
        for p in data.punctures:
            m = direct_residue(data.omega, s, p)[0]
            assert jordan_type(m) == (3,)
            assert end_type(m) == "II"

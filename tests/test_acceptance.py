"""Acceptance gate: eight criteria, one printed pass/fail line each.

Lines are written past pytest's capture so they appear in the run log.
"""

import json
import math
import random
import time

import numpy as np
import pytest
from sympy.polys.domains import ZZ_I
from sympy.polys.matrices import DomainMatrix

from chnoids import cli, linalg, nnoid, stability
from chnoids.ch2 import (
    Matrix21,
    boost,
    classify_isometry,
    distance,
    in_ch2,
    preserves_form,
    random_exact_form_preserving,
    random_form_preserving,
)
from chnoids.cli import random_nnoid_data
from chnoids.cusp import (
    StripField,
    StripGrid,
    check_mean_convexity,
    check_sup_bound,
    oscillation_a,
    random_subharmonic_spec,
)
from chnoids.exactnum import GQ


@pytest.fixture
def report(capfd):
    """Writer that bypasses pytest's fd capture so lines reach the run log."""

    def _report(num: int, passed: bool, detail: str) -> None:
        line = f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {detail}"
        with capfd.disabled():
            print(line, flush=True)

    return _report


SUITE_NS = range(5, 13)
SUITE_SEEDS = range(100)


@pytest.fixture(scope="module")
def exact_suite():
    """800 seeded instances with Higgs fields and residues, plus build time."""
    t0 = time.time()
    out = []
    for n in SUITE_NS:
        for seed in SUITE_SEEDS:
            data = random_nnoid_data(n, seed)
            s = nnoid.build_higgs(data)
            plan = nnoid.closed_form_plan(data.g1, data.g2, data.q)
            residues = [nnoid.residue_matrix_closed_form(plan, p, r)
                        for p, r in zip(data.punctures, data.omega.residues)]
            out.append((data, s, residues))
    return out, time.time() - t0


def test_criterion_1_nnoid_exact_suite(exact_suite, report):
    suite, build_time = exact_suite
    t0 = time.time()
    ok = True
    for data, s, residues in suite:
        ok = ok and nnoid.trace_phi(s).is_zero
        ok = ok and nnoid.trace_phi_squared(s).is_zero
        for residue in residues:
            m = residue[0]
            ok = ok and nnoid.nilpotency_profile(m) == 3
            ok = ok and nnoid.jordan_type(m) == (3,)
            ok = ok and nnoid.end_type(m) == "II"
        # factored-field residue Res_p(omega) S(p) cross-checked against the closed form,
        # numerator and denominator
        p0, r0 = data.punctures[0], data.omega.residues[0]
        ok = ok and nnoid.residue_matrix(nnoid.residue_plan(s), p0, r0) == residues[0]
    elapsed = build_time + (time.time() - t0)
    in_time = elapsed < 120.0
    report(
        1,
        ok and in_time,
        f"800 instances, traces exactly zero, all residues Jordan (3) TypeII, "
        f"{elapsed:.1f}s (< 120s)",
    )
    assert ok and in_time


def test_criterion_2_degree_margins(exact_suite, report):
    suite, _ = exact_suite
    ok = True
    for data, _, _ in suite:
        n = data.n
        d1, d2 = stability.nnoid_degrees(n)
        ok = ok and (d1, d2) == (n - 4, n - 3)
        ok = ok and 2 * d1 + d2 == 3 * n - 11 < 3 * n - 6
        ok = ok and d1 + 2 * d2 == 3 * n - 10 < 3 * n - 6
        cert = stability.check_mixed_stability(
            stability.MixedDegreeData.of(d1, d2, ()), stability.SurfaceData(0, n)
        )
        ok = ok and cert.verdict == "stable"
    report(2, ok, "degrees (n-4, n-3), exact margin identities, all verdicts stable")
    assert ok


def test_criterion_3_boundary_n4(tmp_path, report):
    ok = True
    for seed in range(20):
        data = random_nnoid_data(4, seed)
        f1, f2, semi = stability.prop94_degrees(4)
        ok = ok and (f1, f2, semi) == (0, -1, True)
        path = tmp_path / f"n4_{seed}.json"
        path.write_text(json.dumps(data.to_json()))
        out = tmp_path / f"cert_{seed}.json"
        code = cli.main(["nnoid", "check", str(path), "--out", str(out)])
        status = json.loads(out.read_text())["status"]
        ok = ok and code == 0 and status == "strictly-semistable" and status != "stable"
    report(3, ok, "20 n=4 instances: degrees (0,-1), semistable flag, never 'stable'")
    assert ok


def test_criterion_4_form_agreement_twists(report):
    rng = random.Random(99)
    from fractions import Fraction

    ok = True
    instances = []
    for _ in range(10**4):
        genus = rng.randrange(0, 2)
        n = rng.randrange(max(1, 3 - 2 * genus), 7)
        pws = []
        for _ in range(n):
            vals = sorted(Fraction(rng.randrange(0, 11), 12) for _ in range(3))
            pws.append(
                stability.PunctureWeights.of(
                    stability.WeightTriple.of(*vals), rng.choice(vals), rng.choice(vals)
                )
            )
        d = stability.MixedDegreeData.of(rng.randrange(0, 9), rng.randrange(0, 9), pws)
        s = stability.SurfaceData(genus, n)
        # raises InternalDisagreement if the slope/expanded forms disagree
        stability.check_mixed_stability(d, s)
        instances.append((d, s))
    for _ in range(10**3):
        d, s = rng.choice(instances)
        # deg W1 += m, deg W2 += 2m and deg E += 3m keep the verdict; the
        # degrees are den times the parabolic degrees
        t = rng.randrange(-5, 6) * d.den
        deg_e, deg_w1, deg_w2 = stability._degrees(d.d1, d.d2, s.kappa, d)
        base, twisted = (
            stability._verdict(3 * w1, e, 3 * w2, 2 * e)[0]
            for e, w1, w2 in ((deg_e, deg_w1, deg_w2), (deg_e + 3 * t, deg_w1 + t, deg_w2 + 2 * t))
        )
        ok = ok and base == twisted
    report(4, ok, "10^4 instances slope/expanded agree, 10^3 twists verdict-invariant")
    assert ok


def parabolic_seed() -> Matrix21:
    one, zero, i = GQ(1), GQ(0), GQ(0, 1)
    return Matrix21.exact([[one + i, zero, -i], [zero, one, zero], [i, zero, one - i]])


def test_criterion_5_isometry_classifier(report):
    seeds = [
        (Matrix21.exact(linalg.identity(3)), "elliptic", True),
        (boost(1.0), "loxodromic", False),
        (parabolic_seed(), "parabolic", True),
    ]
    ok = all(classify_isometry(a) == label for a, label, _ in seeds)
    nrng = np.random.default_rng(12)
    xrng = random.Random(12)
    for a, label, exact in seeds:
        for _ in range(10**3):
            if exact:
                g = random_exact_form_preserving(xrng)
                conj = Matrix21(
                    linalg.mat_mul(linalg.mat_mul(g.rows, a.rows), linalg.inverse(g.rows))
                )
            else:
                garr = random_form_preserving(nrng, scale=0.4).as_array()
                conj = Matrix21.floating(garr @ a.as_array() @ np.linalg.inv(garr))
            ok = ok and classify_isometry(conj, tol=1e-9) == label
            if not ok:
                break
    report(5, ok, "seed trio classified; invariant under 10^3 conjugations each")
    assert ok


def test_criterion_6_metric_properties(report):
    rng = np.random.default_rng(21)
    ok = True
    for _ in range(10**3):
        pts = []
        while len(pts) < 3:
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            v = (v[0], v[1], 2.5 + abs(v[2]))
            if in_ch2(v):
                pts.append(v)
        a, b, c = pts
        ok = ok and abs(distance(a, b) - distance(b, a)) <= 1e-9
        ok = ok and distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9
    worst = math.inf
    for k in range(20):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        o = (v[0], v[1], 2.5 + abs(v[2]))
        ts = np.linspace(-2.0, 2.0, 81)
        vals = [distance(o, (math.sinh(t), 0.0, math.cosh(t))) for t in ts]  # a geodesic through e3
        worst = min(worst, float(np.diff(vals, 2).min() / (ts[1] - ts[0]) ** 2))
    ok = ok and worst >= -1e-6
    report(
        6,
        ok,
        f"10^3 triples symmetric/triangle to 1e-9; geodesic convexity slack {worst:.2e}",
    )
    assert ok


def test_criterion_7_unipotent_monodromy(exact_suite, report):
    suite, _ = exact_suite
    ok = True
    # (exp(2 pi i r N) - I)^3 = a^3 N^3 (I + (a/2) N)^3 for commuting powers,
    # so exact vanishing of N^3 certifies the norm bound with value 0; for N = num/den
    # that is num^3 = 0, taken over sympy's Gaussian integers, an independent oracle
    for _, _, residues in suite:
        for residue in residues:
            num = DomainMatrix([[ZZ_I(u, v) for u, v in row] for row in residue[0]], (3, 3), ZZ_I)
            ok = ok and (num**3).is_zero_matrix
    # nonzero nilpotent N in u(2,1): K = i t v v* J with v null; exp is in
    # U(2,1) for real t r and must classify parabolic
    xrng = random.Random(4)
    nrng = np.random.default_rng(4)
    count = 0
    from chnoids.ch2 import unipotent_exponential

    for va, vb, vc in ((1, 0, 1), (0, 1, 1), (3, 4, 5), (5, 12, 13)):
        for t in (1, -2, 3):
            v = np.array([va, vb, vc], dtype=complex)
            k = 1j * t * np.outer(v, v.conj()) @ np.diag([1.0, 1.0, -1.0])
            # r chosen so 2 pi i r is real: exp(s K) stays in U(2,1) for K in u(2,1)
            s = 0.25
            mat = unipotent_exponential(k, s / (2j * math.pi))
            ok = ok and preserves_form(mat)
            ok = ok and classify_isometry(mat) == "parabolic"
            garr = random_form_preserving(nrng, scale=0.3).as_array()
            conj = Matrix21.floating(garr @ mat.as_array() @ np.linalg.inv(garr))
            ok = ok and classify_isometry(conj) == "parabolic"
            count += 2
    report(
        7,
        ok,
        f"all suite residues N^3 = 0 exactly (bound 0 < 1e-10); "
        f"{count} u(2,1) exponentials parabolic",
    )
    assert ok


def test_criterion_8_cusp_harness(report):
    rng = random.Random(555)
    grid = StripGrid(256, 256, 1.0, 20.0)
    tol = grid.default_tol()  # 10 * h^2
    ok = True
    for _ in range(50):
        field = random_subharmonic_spec(rng).sample(grid)
        ok = ok and check_mean_convexity(field, tol=tol).passed
        ok = ok and check_sup_bound(field, tol=tol).passed
    # convergence order under grid doubling on a smooth field
    errs_a, errs_m = [], []
    for nx in (64, 128, 256):
        g = StripGrid(nx, nx, 1.0, 3.0)
        xs, ys = g.xs[None, :], g.ys[:, None]
        u = np.exp(-ys) * np.cos(xs) + np.exp(-ys)
        s = StripField(g, u)
        a = oscillation_a(s)
        exact_a = math.sqrt(math.pi) * np.exp(-g.ys)
        errs_a.append(float(np.abs(a - exact_a).max()))
        m = s.row_means
        second = (m[2:] - 2 * m[1:-1] + m[:-2]) / g.hy**2
        errs_m.append(float(np.abs(second - np.exp(-g.ys[1:-1])).max()))
    orders = [math.log2(e0 / e1) for e0, e1 in zip(errs_a, errs_a[1:])]
    orders += [math.log2(e0 / e1) for e0, e1 in zip(errs_m, errs_m[1:])]
    ok = ok and min(orders) >= 1.8
    report(
        8,
        ok,
        f"50 fields pass convexity+sup at tol=10h^2; observed order {min(orders):.2f} >= 1.8",
    )
    assert ok

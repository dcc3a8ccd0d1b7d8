import math
import random
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from chnoids import cusp
from chnoids.ch2 import distance
from chnoids.cusp import (
    CuspGridError,
    StripField,
    StripGrid,
    SubharmonicSpec,
    check_distance_lipschitz,
    check_mean_convexity,
    check_sup_bound,
    discrete_laplacian,
    oscillation_a,
    random_subharmonic_spec,
)

GRID = StripGrid(64, 64, 1.0, 10.0)


def field_from(fn):
    xs = GRID.xs[None, :]
    ys = GRID.ys[:, None]
    return StripField(GRID, np.broadcast_to(fn(xs, ys), (GRID.ny, GRID.nx)).copy())


def test_grid_validation():
    with pytest.raises(CuspGridError):
        StripGrid(4, 64, 0.0, 1.0)
    with pytest.raises(CuspGridError):
        StripGrid(64, 64, 2.0, 1.0)
    g = StripGrid.from_json({"Nx": 256, "Ny": 128, "Y": 1.0, "Ymax": 20.0})
    assert g.nx == 256 and abs(g.hx - 2 * math.pi / 256) < 1e-15


def test_field_validation():
    with pytest.raises(CuspGridError):
        StripField(GRID, np.zeros((3, 3)))
    bad = np.zeros((GRID.ny, GRID.nx))
    bad[0, 0] = np.inf
    with pytest.raises(CuspGridError):
        StripField(GRID, bad)
    f = np.zeros((GRID.ny, GRID.nx, 3), dtype=complex)
    f[..., 0] = 1.0  # positive vector, not in CH^2
    with pytest.raises(CuspGridError):
        StripField(GRID, np.zeros((GRID.ny, GRID.nx)), f)


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
def test_field_membership_is_projective(scale):
    # e3 at any scale is the origin of CH^2; <Z,Z> itself underflows at
    # 1e-200 and overflows at 1e200
    f = np.zeros((GRID.ny, GRID.nx, 3), dtype=complex)
    f[..., 2] = scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        StripField(GRID, np.zeros((GRID.ny, GRID.nx)), f)
    for bad in (0.0, np.inf, np.nan):
        f[0, 0, 2] = bad
        with pytest.raises(CuspGridError):
            StripField(GRID, np.zeros((GRID.ny, GRID.nx)), f)


def test_mean_function():
    assert np.allclose(field_from(lambda x, y: 3.0 + 0 * x).row_means, 3.0)
    assert np.allclose(field_from(lambda x, y: np.cos(x)).row_means, 0.0, atol=1e-14)
    m = field_from(lambda x, y: y + np.exp(-y) * np.cos(x)).row_means
    assert np.allclose(m, GRID.ys, atol=1e-13)


def test_oscillation_a():
    assert np.allclose(oscillation_a(field_from(lambda x, y: 7.0 + 0 * x)), 0.0)
    a = oscillation_a(field_from(lambda x, y: np.cos(x)))
    assert np.allclose(a, math.sqrt(math.pi), atol=GRID.hx**2)


def test_oscillation_convergence_order():
    errs = []
    for nx in (32, 64, 128):
        g = StripGrid(nx, 16, 1.0, 2.0)
        xs = g.xs[None, :]
        u = np.broadcast_to(np.cos(xs), (g.ny, g.nx)).copy()
        a = oscillation_a(StripField(g, u))
        errs.append(abs(float(a[0]) - math.sqrt(math.pi)))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert min(order1, order2) >= 1.8


def test_mean_convexity_examples():
    assert check_mean_convexity(field_from(lambda x, y: y + 0 * x)).passed
    assert check_mean_convexity(field_from(lambda x, y: y**2 + 0 * x)).passed
    concave = check_mean_convexity(field_from(lambda x, y: -(y**2) + 0 * x))
    assert not concave.passed
    assert not concave.precondition_ok


def test_sup_bound_examples():
    r = check_sup_bound(field_from(lambda x, y: 2.5 + 0 * x))
    assert r.passed and abs(r.worst_slack) < 1e-12
    # U = cos x: U(0,y)=1, m=0, sqrt(2 pi) * sqrt(pi) ~ 4.44 > 1
    r = check_sup_bound(field_from(lambda x, y: np.cos(x) + 0 * y))
    assert r.passed
    assert not r.precondition_ok  # cos x is not subharmonic; reported, not hidden


def test_laplacian_of_harmonic():
    lap = discrete_laplacian(field_from(lambda x, y: np.exp(-y) * np.cos(x)))
    assert abs(lap).max() <= GRID.default_tol()


def test_generated_fields_pass():
    rng = random.Random(2024)
    for _ in range(10):
        spec = random_subharmonic_spec(rng)
        field = spec.sample(GRID)
        assert check_mean_convexity(field).passed
        assert check_sup_bound(field).passed
        lap = discrete_laplacian(field)
        assert lap.min() >= -GRID.default_tol()


def test_laplacian_computed_once_per_field(monkeypatch):
    calls = []
    original = cusp.discrete_laplacian
    monkeypatch.setattr(cusp, "discrete_laplacian", lambda s: calls.append(s) or original(s))
    field = random_subharmonic_spec(random.Random(7)).sample(GRID)
    conv, sup = check_mean_convexity(field), check_sup_bound(field)
    assert len(calls) == 1
    assert conv.precondition_ok and sup.precondition_ok
    assert field.min_laplacian == float(original(field).min())


def test_row_means_computed_once_per_field():
    class CountedMeans(np.ndarray):
        calls = 0

        def mean(self, *args, **kwargs):
            CountedMeans.calls += 1
            return super().mean(*args, **kwargs)

    u = random_subharmonic_spec(random.Random(7)).sample(GRID).u
    field = StripField(GRID, u.view(CountedMeans))
    conv, sup = check_mean_convexity(field), check_sup_bound(field)
    assert CountedMeans.calls == 1
    assert conv.passed and sup.passed
    assert field.row_means.tobytes() == u.mean(axis=1).tobytes()


def sample_oracle(spec, grid):
    """The samples of spec as SubharmonicSpec.sample first computed them."""
    b0, b1, b2 = spec.poly
    with np.errstate(over="ignore", invalid="ignore"):
        xs = grid.xs[None, :]
        ys = grid.ys[:, None]
        u = np.full((grid.ny, grid.nx), 0.0) + b0 + b1 * ys + b2 * ys**2
        for k, amp, phase in spec.modes:
            u = u + amp * np.exp(-k * ys) * np.cos(k * xs + phase)
    return u


def laplacian_oracle(u, grid):
    """The five-point Laplacian as discrete_laplacian first computed it."""
    uxx = (np.roll(u, -1, axis=1) - 2 * u + np.roll(u, 1, axis=1)) / grid.hx**2
    uyy = (u[2:, :] - 2 * u[1:-1, :] + u[:-2, :]) / grid.hy**2
    return uxx[1:-1, :] + uyy


def kernel_specs(seed):
    """0 to 5 modes at three amplitude scales; from y = -10 a mode of amplitude
    1e300 overflows to inf, and opposite infinities add to nan."""
    rng = random.Random(seed)
    for n_modes in range(6):
        for top in (2.0, 1e200, 1e300):
            modes = tuple((rng.randrange(1, 6), rng.uniform(-top, top), rng.uniform(0.0, 2 * math.pi))
                          for _ in range(n_modes))
            b0 = -0.0 if n_modes % 2 else rng.uniform(-1.0, 1.0)
            yield SubharmonicSpec(modes, (b0, rng.uniform(-1.0, 1.0), rng.uniform(0.0, 1.0)))
    # integer coefficients, as JSON gives them
    yield SubharmonicSpec(((1, 10**20, 0), (2, -3, 1)), (0, 0, 0))


@pytest.mark.parametrize("grid", [StripGrid(8, 8, -10.0, 2.0), StripGrid(9, 11, -10.0, 4.0),
                                  StripGrid(256, 256, -10.0, 20.0)], ids=["8x8", "9x11", "256x256"])
def test_in_place_kernels_match_their_first_form_bitwise(grid, monkeypatch):
    # sample's samples are taken before StripField refuses a non-finite one
    monkeypatch.setattr(cusp, "StripField", lambda grid, u: SimpleNamespace(grid=grid, u=u))
    finite = []
    for spec in kernel_specs(grid.nx * grid.ny):
        s = spec.sample(grid)
        assert s.u.tobytes() == sample_oracle(spec, grid).tobytes(), spec
        with np.errstate(over="ignore", invalid="ignore"):
            lap, want = discrete_laplacian(s), laplacian_oracle(s.u, grid)
        assert lap.shape == want.shape == (grid.ny - 2, grid.nx)
        assert lap.tobytes() == want.tobytes(), spec
        finite.append(np.isfinite(s.u).all() and np.isfinite(lap).all())
    assert any(finite) and not all(finite)


def test_subharmonic_spec_validation():
    with pytest.raises(CuspGridError):
        SubharmonicSpec(((1, 1.0, 0.0),), (0.0, 0.0, -1.0))
    with pytest.raises(CuspGridError):
        SubharmonicSpec(((0, 1.0, 0.0),))
    # a fractional frequency would make the field not 2 pi-periodic in x
    with pytest.raises(CuspGridError):
        SubharmonicSpec(((1.5, 1.0, 0.0),))
    with pytest.raises(CuspGridError):
        SubharmonicSpec(((10**400, 1.0, 0.0),))
    assert SubharmonicSpec(((2.0, 1.0, 0.0),)).modes == ((2.0, 1.0, 0.0),)
    empty = SubharmonicSpec(())
    assert np.allclose(empty.sample(GRID).u, 0.0)


def test_distance_lipschitz_constant_map():
    f = np.zeros((GRID.ny, GRID.nx, 3), dtype=complex)
    f[..., 2] = 1.0
    s = StripField(GRID, np.zeros((GRID.ny, GRID.nx)), f)
    # the second base point is e3 at a scale where <o,o> underflows
    for o in ((0.1, 0.0, 1.0), (0.0, 0.0, 1e-200)):
        assert check_distance_lipschitz(s, o).passed


def test_distance_lipschitz_geodesic():
    g = StripGrid(16, 8, 0.0, 1.0)
    f = np.zeros((g.ny, g.nx, 3), dtype=complex)
    for ix, x in enumerate(g.xs):
        t = 0.1 * math.sin(x)
        f[:, ix, :] = (math.sinh(t), 0.0, math.cosh(t))  # a geodesic through e3
    s = StripField(g, np.zeros((g.ny, g.nx)), f)
    report = check_distance_lipschitz(s, (0.0, 0.0, 1.0))
    assert report.passed
    # along a geodesic through o the bound is tight somewhere
    assert report.worst_slack < 1e-9


def test_distance_lipschitz_random_maps():
    rng = np.random.default_rng(7)
    g = StripGrid(12, 8, 0.0, 1.0)
    for _ in range(3):
        f = np.empty((g.ny, g.nx, 3), dtype=complex)
        for iy in range(g.ny):
            for ix in range(g.nx):
                v = 0.15 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
                f[iy, ix] = (v[0], v[1], 1.0)
        s = StripField(g, np.zeros((g.ny, g.nx)), f)
        assert check_distance_lipschitz(s, (0.1, 0.2j, 1.0)).passed


def test_distance_lipschitz_requires_f():
    with pytest.raises(CuspGridError):
        check_distance_lipschitz(field_from(lambda x, y: 0 * x + y), (0.0, 0.0, 1.0))


def lipschitz_oracle(s, o, tol=1e-9):
    """(passed, per-row slacks): the check as a double loop over the scalar
    ``ch2.distance``, two calls per grid point."""
    ny, nx = s.grid.ny, s.grid.nx
    u = [[distance(o, s.f[iy, ix]) for ix in range(nx)] for iy in range(ny)]
    slacks = []
    for iy in range(ny):
        slacks.append(min(
            distance(s.f[iy, ix], s.f[iy, (ix + 1) % nx]) + tol
            - abs(u[iy][(ix + 1) % nx] - u[iy][ix])
            for ix in range(nx)
        ))
    return min(slacks) >= 0.0, slacks


def oracle_maps():
    rng = np.random.default_rng(11)
    g = StripGrid(12, 8, 0.0, 1.0)
    for _ in range(4):
        v = 0.15 * (rng.standard_normal((g.ny, g.nx, 2)) + 1j * rng.standard_normal((g.ny, g.nx, 2)))
        f = np.concatenate([v, np.ones((g.ny, g.nx, 1))], axis=2)
        yield f, (0.1, 0.2j, 1.0)
    geo = np.zeros((g.ny, g.nx, 3), dtype=complex)
    for ix, x in enumerate(g.xs):
        t = 0.1 * math.sin(x)
        geo[:, ix, :] = (math.sinh(t), 0.0, math.cosh(t))
    yield geo, (0.0, 0.0, 1.0)
    const = np.zeros((g.ny, g.nx, 3), dtype=complex)
    const[..., 2] = 1.0
    yield const, (0.1, 0.0, 1.0)


@pytest.mark.parametrize("case", range(6))
def test_distance_lipschitz_matches_scalar_oracle(case):
    f, o = list(oracle_maps())[case]
    g = StripGrid(f.shape[1], f.shape[0], 0.0, 1.0)
    rng = np.random.default_rng(case)
    # a random factor in 1e-150..1e150 per sample leaves every point the same
    rescaled = f * 10.0 ** rng.uniform(-150, 150, f.shape[:2])[..., None]
    for samples in (f, rescaled):
        s = StripField(g, np.zeros(f.shape[:2]), samples)
        report = check_distance_lipschitz(s, o)
        passed, slacks = lipschitz_oracle(s, o)
        assert report.passed == passed
        assert np.allclose(report.per_row_slack, slacks, rtol=0.0, atol=1e-12)
        assert report.worst_slack == pytest.approx(min(slacks) - 1e-9, abs=1e-12)


def test_distance_lipschitz_oracle_sees_a_failure():
    # a tolerance below the rounding of the distances makes the geodesic
    # map fail where the bound is tight; both paths must say so
    f, o = list(oracle_maps())[4]
    s = StripField(StripGrid(12, 8, 0.0, 1.0), np.zeros(f.shape[:2]), f)
    report = check_distance_lipschitz(s, o, tol=-1e-6)
    passed, slacks = lipschitz_oracle(s, o, tol=-1e-6)
    assert not report.passed and not passed
    assert np.allclose(report.per_row_slack, slacks, rtol=0.0, atol=1e-12)


def test_field_near_the_null_cone_is_refused_or_checked():
    """A StripField that passes validation never makes the check raise: the
    point at [0, 0] is in CH^2 for numpy's rounding of <Z,Z> but not for the
    scalar in_ch2, and the field used to pass validation and then end in
    CH2Error from the scalar recheck."""
    g = StripGrid(8, 8, 1.0, 4.0)
    f = np.zeros((8, 8, 3), dtype=complex)
    f[..., 2] = 1.0
    f[0, 0] = (-0.7591977654458661 - 0.2893257917423925j, 0.21264384190844116 + 0.54285535428239j, 1.0)
    with pytest.raises(CuspGridError, match="every F sample must lie in CH\\^2"):
        StripField(g, np.zeros((8, 8)), f)
    # near-null points that validation accepts are checked without an error
    rng = np.random.default_rng(28)
    t, a, b = rng.uniform(0.0, 2 * math.pi, (3, 4000))
    near = np.stack([np.cos(t) * np.exp(1j * a), np.sin(t) * np.exp(1j * b),
                     1.0 + rng.uniform(-3e-16, 3e-16, 4000)], axis=1)
    near = near[cusp.points_in_ch2(near)][:64].reshape(8, 8, 3)
    report = check_distance_lipschitz(StripField(g, np.zeros((8, 8)), near), (0.0, 0.0, 1.0))
    assert len(report.per_row_slack) == 8


@pytest.mark.parametrize("o", [(1.0, 0.0, 1.0), (0.0, 0.0, 0.0), (0.0, 0.0, np.inf)])
def test_distance_lipschitz_base_point_outside(o):
    f, _ = list(oracle_maps())[0]
    s = StripField(StripGrid(12, 8, 0.0, 1.0), np.zeros(f.shape[:2]), f)
    with pytest.raises(CuspGridError, match="base point must lie in CH\\^2"):
        check_distance_lipschitz(s, o)

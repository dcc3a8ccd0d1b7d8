import math
import random

import numpy as np
import pytest

from chnoids.ch2 import geodesic_point
from chnoids.cusp import (
    CuspGridError,
    StripField,
    StripGrid,
    SubharmonicSpec,
    check_distance_lipschitz,
    check_mean_convexity,
    check_sup_bound,
    discrete_laplacian,
    mean_function,
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


def test_mean_function():
    assert np.allclose(mean_function(field_from(lambda x, y: 3.0 + 0 * x)), 3.0)
    assert np.allclose(mean_function(field_from(lambda x, y: np.cos(x))), 0.0, atol=1e-14)
    m = mean_function(field_from(lambda x, y: y + np.exp(-y) * np.cos(x)))
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
        f[:, ix, :] = geodesic_point(0.1 * math.sin(x))
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

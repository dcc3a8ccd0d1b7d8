"""Finite-difference harness for the cusp-strip mean/oscillation bounds.

Property-tests the discrete shadows of the strip lemmas: convexity of
the x-mean of a periodic subharmonic function, the sup bound through the
oscillation norm, and the 1-Lipschitz projection of distance.  Windows
are truncated and tolerances are reported in every result; nothing here
claims the asymptotic statements themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .ch2 import distance, in_ch2

TWO_PI = 2.0 * math.pi
DEFAULT_TOL_FACTOR = 10.0


class CuspGridError(ValueError):
    pass


@dataclass(frozen=True)
class StripGrid:
    """Periodic x in [0, 2 pi), y in [y_min, y_max]; at least 8 samples each way."""

    nx: int
    ny: int
    y_min: float
    y_max: float

    def __post_init__(self):
        if self.nx < 8 or self.ny < 8:
            raise CuspGridError("need at least 8 samples in each direction")
        if not (self.y_max > self.y_min):
            raise CuspGridError("empty y-window")

    @property
    def hx(self) -> float:
        return TWO_PI / self.nx

    @property
    def hy(self) -> float:
        return (self.y_max - self.y_min) / (self.ny - 1)

    @property
    def xs(self) -> np.ndarray:
        return np.arange(self.nx) * self.hx

    @property
    def ys(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.ny)

    def default_tol(self, factor: float = DEFAULT_TOL_FACTOR) -> float:
        return factor * max(self.hx, self.hy) ** 2

    def to_json(self) -> dict:
        return {"Nx": self.nx, "Ny": self.ny, "Y": self.y_min, "Ymax": self.y_max}

    @staticmethod
    def from_json(obj: dict) -> "StripGrid":
        return StripGrid(int(obj["Nx"]), int(obj["Ny"]), float(obj["Y"]), float(obj["Ymax"]))


@dataclass(frozen=True)
class StripField:
    """Real samples U[iy, ix] on a strip grid, optionally with a CH^2 map F."""

    grid: StripGrid
    u: np.ndarray
    f: Optional[np.ndarray] = None  # shape (ny, nx, 3), complex

    def __post_init__(self):
        if self.u.shape != (self.grid.ny, self.grid.nx):
            raise CuspGridError("U samples must be shaped (Ny, Nx)")
        if not np.isfinite(self.u).all():
            raise CuspGridError("U must be finite everywhere")
        if self.f is not None:
            if self.f.shape != (self.grid.ny, self.grid.nx, 3):
                raise CuspGridError("F samples must be shaped (Ny, Nx, 3)")
            norms = (
                np.abs(self.f[..., 0]) ** 2
                + np.abs(self.f[..., 1]) ** 2
                - np.abs(self.f[..., 2]) ** 2
            )
            if not (norms < 0).all():
                raise CuspGridError("every F sample must lie in CH^2")


def mean_function(s: StripField) -> np.ndarray:
    """Row means m(y); periodic trapezoid quadrature (spectrally accurate)."""
    return s.u.mean(axis=1)


def _d_dx(u: np.ndarray, hx: float) -> np.ndarray:
    return (np.roll(u, -1, axis=1) - np.roll(u, 1, axis=1)) / (2.0 * hx)


def oscillation_a(s: StripField) -> np.ndarray:
    """A(y) = (integral of U_x^2 over the period)^(1/2), centered differences."""
    ux = _d_dx(s.u, s.grid.hx)
    return np.sqrt((ux**2).sum(axis=1) * s.grid.hx)


def discrete_laplacian(s: StripField) -> np.ndarray:
    """Five-point Laplacian on interior rows, periodic in x; shape (ny-2, nx)."""
    u, hx, hy = s.u, s.grid.hx, s.grid.hy
    uxx = (np.roll(u, -1, axis=1) - 2 * u + np.roll(u, 1, axis=1)) / hx**2
    uyy = (u[2:, :] - 2 * u[1:-1, :] + u[:-2, :]) / hy**2
    return uxx[1:-1, :] + uyy


@dataclass(frozen=True)
class StripReport:
    passed: bool
    tol: float
    worst_slack: float  # most negative margin observed (>= -tol passes)
    precondition_ok: bool = True
    per_row_slack: tuple[float, ...] = field(default=(), repr=False)
    note: str = ""

    def __bool__(self) -> bool:
        return self.passed

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "tol": self.tol,
            "worst_slack": self.worst_slack,
            "precondition_ok": self.precondition_ok,
            "per_row_slack": list(self.per_row_slack),
            "note": self.note,
        }


def _subharmonic_precondition(s: StripField, tol: float) -> tuple[bool, float]:
    lap = discrete_laplacian(s)
    worst = float(lap.min())
    return worst >= -tol, worst


def check_mean_convexity(s: StripField, tol: Optional[float] = None) -> StripReport:
    """Discrete second differences of the row mean must be >= -tol.

    The subharmonicity precondition (five-point Laplacian >= -tol) is
    itself verified and reported, never silently assumed.
    """
    tol = s.grid.default_tol() if tol is None else tol
    pre_ok, lap_worst = _subharmonic_precondition(s, tol)
    m = mean_function(s)
    second = (m[2:] - 2 * m[1:-1] + m[:-2]) / s.grid.hy**2
    worst = float(second.min())
    passed = worst >= -tol
    note = "" if pre_ok else f"subharmonicity precondition violated (min Laplacian {lap_worst:g})"
    return StripReport(
        passed=passed,
        tol=tol,
        worst_slack=worst,
        precondition_ok=pre_ok,
        per_row_slack=tuple(float(x) for x in second),
        note=note,
    )


def check_sup_bound(s: StripField, tol: Optional[float] = None) -> StripReport:
    """U(0, y) <= sup_t m(t) + sqrt(2 pi) A(y) with slack tol, every row."""
    tol = s.grid.default_tol() if tol is None else tol
    pre_ok, lap_worst = _subharmonic_precondition(s, tol)
    m_sup = float(mean_function(s).max())
    a = oscillation_a(s)
    slack = m_sup + math.sqrt(TWO_PI) * a - s.u[:, 0]
    worst = float(slack.min())
    passed = worst >= -tol
    note = "" if pre_ok else f"subharmonicity precondition violated (min Laplacian {lap_worst:g})"
    return StripReport(
        passed=passed,
        tol=tol,
        worst_slack=worst,
        precondition_ok=pre_ok,
        per_row_slack=tuple(float(x) for x in slack),
        note=note,
    )


def check_distance_lipschitz(s: StripField, o: Sequence, tol: float = 1e-9) -> StripReport:
    """|U(x+hx) - U(x)| <= d(F(x+hx), F(x)) + tol with U = d(o, F).

    The discrete form of the 1-Lipschitz projection of distance; a
    metric-space fact, so it must hold for any CH^2-valued F.
    """
    if s.f is None:
        raise CuspGridError("field carries no CH^2 map samples")
    if not in_ch2(o):
        raise CuspGridError("base point must lie in CH^2")
    ny, nx = s.grid.ny, s.grid.nx
    u = np.empty((ny, nx))
    for iy in range(ny):
        for ix in range(nx):
            u[iy, ix] = distance(o, s.f[iy, ix])
    worst = math.inf
    slacks = []
    for iy in range(ny):
        row_worst = math.inf
        for ix in range(nx):
            jx = (ix + 1) % nx
            step = distance(s.f[iy, ix], s.f[iy, jx])
            slack = step + tol - abs(u[iy, jx] - u[iy, ix])
            row_worst = min(row_worst, slack)
        slacks.append(row_worst)
        worst = min(worst, row_worst)
    return StripReport(
        passed=worst >= 0.0,
        tol=tol,
        worst_slack=worst - tol,
        per_row_slack=tuple(slacks),
    )


def l2_tail_witness(g: np.ndarray, ys: np.ndarray, eps: float) -> Optional[float]:
    """Smallest grid y with |g(y)| < eps, or None on the truncated window.

    None documents that smallness was not certified on this window, not
    that no such y exists further out.
    """
    if eps <= 0:
        raise CuspGridError("eps must be positive")
    hits = np.nonzero(np.abs(np.asarray(g)) < eps)[0]
    if hits.size == 0:
        return None
    return float(np.asarray(ys)[hits[0]])


@dataclass(frozen=True)
class SubharmonicSpec:
    """U = sum a_k e^(-k y) cos(k x + phi_k) + (b0 + b1 y + b2 y^2), b2 >= 0.

    The trigonometric part is harmonic and the profile is convex, so the
    Laplacian is 2 b2 >= 0 analytically; any harness failure beyond the
    stencil truncation error indicts the harness, not the input.
    """

    modes: tuple[tuple[int, float, float], ...]  # (k, amplitude, phase)
    poly: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if len(self.poly) != 3 or any(len(m) != 3 for m in self.modes):
            raise CuspGridError("modes are (k, amplitude, phase); the profile has 3 coefficients")
        if not all(isinstance(x, (int, float)) for x in (*self.poly, *sum(self.modes, ()))):
            raise CuspGridError("mode and profile coefficients must be numbers")
        if self.poly[2] < 0:
            raise CuspGridError("quadratic profile coefficient must be >= 0")
        if any(k < 1 for k, _, _ in self.modes):
            raise CuspGridError("mode frequencies must be >= 1")

    def sample(self, grid: StripGrid) -> StripField:
        xs = grid.xs[None, :]
        ys = grid.ys[:, None]
        b0, b1, b2 = self.poly
        u = np.full((grid.ny, grid.nx), 0.0) + b0 + b1 * ys + b2 * ys**2
        for k, amp, phase in self.modes:
            u = u + amp * np.exp(-k * ys) * np.cos(k * xs + phase)
        return StripField(grid, u)


def make_subharmonic_sample(spec: SubharmonicSpec, grid: StripGrid) -> StripField:
    return spec.sample(grid)


def random_subharmonic_spec(rng, max_modes: int = 4) -> SubharmonicSpec:
    n_modes = rng.randrange(0, max_modes + 1)
    modes = tuple(
        (rng.randrange(1, 6), rng.uniform(-2.0, 2.0), rng.uniform(0.0, TWO_PI))
        for _ in range(n_modes)
    )
    poly = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(0.0, 1.0))
    return SubharmonicSpec(modes, poly)

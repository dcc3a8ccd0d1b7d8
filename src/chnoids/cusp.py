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
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import InputError, integer, number
from .ch2 import distance, in_ch2, normalize_points, normalized_distances, points_in_ch2

TWO_PI = 2.0 * math.pi
DEFAULT_TOL_FACTOR = 10.0


class CuspGridError(InputError):
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

    def default_tol(self) -> float:
        return DEFAULT_TOL_FACTOR * max(self.hx, self.hy) ** 2

    def to_json(self) -> dict:
        return {"Nx": self.nx, "Ny": self.ny, "Y": self.y_min, "Ymax": self.y_max}

    @staticmethod
    def from_json(obj: dict) -> "StripGrid":
        y, y_max = number(obj["Y"], "Y"), number(obj["Ymax"], "Ymax")
        return StripGrid(integer(obj["Nx"], "Nx"), integer(obj["Ny"], "Ny"), float(y), float(y_max))


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
            if not points_in_ch2(self.f).all():
                raise CuspGridError("every F sample must lie in CH^2")

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")  # _strip_report refuses a non-finite value
    def min_laplacian(self) -> float:
        """Smallest five-point Laplacian value, computed once per field."""
        return float(discrete_laplacian(self).min())

    @cached_property
    def row_means(self) -> np.ndarray:
        """Row means m(y), by the periodic trapezoid rule (spectrally accurate), once per field."""
        return self.u.mean(axis=1)


def oscillation_a(s: StripField) -> np.ndarray:
    """A(y) = (integral of U_x^2 over the period)^(1/2), centered differences."""
    u, ux = s.u, np.empty(s.u.shape)
    np.subtract(u.ravel()[2:], u.ravel()[:-2], out=ux.ravel()[1:-1])  # rows laid end to end
    np.subtract(u[:, 1], u[:, -1], out=ux[:, 0])  # and the two wrapped columns
    np.subtract(u[:, 0], u[:, -2], out=ux[:, -1])
    ux /= 2.0 * s.grid.hx
    ux *= ux
    return np.sqrt(ux.sum(axis=1) * s.grid.hx)


def discrete_laplacian(s: StripField) -> np.ndarray:
    """Five-point Laplacian on interior rows, periodic in x; shape (ny-2, nx).

    Each stencil is ((next - 2 mid) + previous) / h^2, in that order, and the
    x- and y-stencils are added in that order; both are written into two
    buffers of the result's shape, with no other full-size temporary.
    """
    u, hx, hy = s.u, s.grid.hx, s.grid.hy
    mid = u[1:-1]
    two = np.multiply(mid, 2, out=np.empty(mid.shape))
    lap = np.empty(mid.shape)
    np.subtract(mid[:, 1:], two[:, :-1], out=lap[:, :-1])  # x-stencil, periodic
    np.subtract(mid[:, 0], two[:, -1], out=lap[:, -1])
    lap[:, 1:] += mid[:, :-1]
    lap[:, 0] += mid[:, -1]
    lap /= hx**2
    np.subtract(u[2:], two, out=two)  # y-stencil
    two += u[:-2]
    two /= hy**2
    lap += two
    return lap


@dataclass(frozen=True)
class StripReport:
    passed: bool
    tol: float
    worst_slack: float  # most negative margin observed (>= -tol passes)
    precondition_ok: bool = True
    per_row_slack: tuple[float, ...] = field(default=(), repr=False)
    note: str = ""

    def to_json(self) -> dict:
        return {**vars(self), "per_row_slack": list(self.per_row_slack)}  # fields in order


def _strip_report(s: StripField, tol: Optional[float], slack: np.ndarray) -> StripReport:
    """Report on a per-row slack that must be >= -tol.

    The subharmonicity precondition (five-point Laplacian >= -tol) is
    itself verified and reported, never silently assumed.  A slack or a
    Laplacian that overflowed is an input error: no verdict can be read from it.
    """
    tol = s.grid.default_tol() if tol is None else tol
    lap_worst = s.min_laplacian
    if not (np.isfinite(slack).all() and math.isfinite(lap_worst)):
        raise CuspGridError("the field is too large: a slack or the Laplacian is not finite")
    pre_ok = lap_worst >= -tol
    worst = float(slack.min())
    return StripReport(
        passed=worst >= -tol,
        tol=tol,
        worst_slack=worst,
        precondition_ok=pre_ok,
        per_row_slack=tuple(slack.tolist()),
        note="" if pre_ok else f"subharmonicity precondition violated (min Laplacian {lap_worst:g})",
    )


@np.errstate(over="ignore", invalid="ignore")
def check_mean_convexity(s: StripField, tol: Optional[float] = None) -> StripReport:
    """Discrete second differences of the row mean must be >= -tol."""
    m = s.row_means
    return _strip_report(s, tol, (m[2:] - 2 * m[1:-1] + m[:-2]) / s.grid.hy**2)


@np.errstate(over="ignore", invalid="ignore")
def check_sup_bound(s: StripField, tol: Optional[float] = None) -> StripReport:
    """U(0, y) <= sup_t m(t) + sqrt(2 pi) A(y) with slack tol, every row."""
    m_sup = float(s.row_means.max())
    return _strip_report(s, tol, m_sup + math.sqrt(TWO_PI) * oscillation_a(s) - s.u[:, 0])


def check_distance_lipschitz(s: StripField, o: Sequence, tol: float = 1e-9) -> StripReport:
    """|U(x+hx) - U(x)| <= d(F(x+hx), F(x)) + tol with U = d(o, F).

    The discrete form of the 1-Lipschitz projection of distance; a
    metric-space fact, so it must hold for any CH^2-valued F.  F and o are
    each normalized once and distances taken over the whole grid at once;
    the cell that decides the verdict is recomputed with the scalar ``distance``.
    """
    if s.f is None:
        raise CuspGridError("field carries no CH^2 map samples")
    if not in_ch2(o):
        raise CuspGridError("base point must lie in CH^2")
    oz, oo = normalize_points(o)
    fz, ff = normalize_points(s.f)
    u = normalized_distances(oz, oo, fz, ff)
    step = normalized_distances(fz, ff, np.roll(fz, -1, axis=1), np.roll(ff, -1, axis=1))
    slack = step + tol - np.abs(np.roll(u, -1, axis=1) - u)
    iy, ix = np.unravel_index(np.argmin(slack), slack.shape)
    z, w = s.f[iy, ix], s.f[iy, (ix + 1) % s.grid.nx]
    slack[iy, ix] = distance(z, w) + tol - abs(distance(o, w) - distance(o, z))
    per_row = slack.min(axis=1)
    worst = float(per_row.min())
    return StripReport(
        passed=worst >= 0.0,
        tol=tol,
        worst_slack=worst - tol,
        per_row_slack=tuple(per_row.tolist()),
    )


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
        try:
            for x in (*self.poly, *(x for m in self.modes for x in m)):
                number(x, "a mode or profile coefficient")
        except InputError as exc:
            raise CuspGridError(str(exc)) from None
        if self.poly[2] < 0:
            raise CuspGridError("quadratic profile coefficient must be >= 0")
        # an integer frequency keeps the field 2 pi-periodic in x
        if any(k < 1 or not float(k).is_integer() for k, _, _ in self.modes):
            raise CuspGridError("mode frequencies must be integers >= 1")

    def sample(self, grid: StripGrid) -> StripField:
        b0, b1, b2 = self.poly
        # the profile is formed once per row, and each mode is added in place
        # through one term buffer; a sample that overflows is not finite,
        # which StripField rejects
        with np.errstate(over="ignore", invalid="ignore"):
            xs = grid.xs[None, :]
            ys = grid.ys[:, None]
            u = np.empty((grid.ny, grid.nx))
            u[...] = np.full(ys.shape, 0.0) + b0 + b1 * ys + b2 * ys**2
            term = np.empty(u.shape)
            for k, amp, phase in self.modes:
                u += np.multiply(amp * np.exp(-k * ys), np.cos(k * xs + phase), out=term)
        return StripField(grid, u)


def random_subharmonic_spec(rng) -> SubharmonicSpec:
    n_modes = rng.randrange(0, 5)  # 0 to 4 modes
    modes = tuple(
        (rng.randrange(1, 6), rng.uniform(-2.0, 2.0), rng.uniform(0.0, TWO_PI))
        for _ in range(n_modes)
    )
    poly = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(0.0, 1.0))
    return SubharmonicSpec(modes, poly)

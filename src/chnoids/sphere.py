"""Points and logarithmic 1-forms on the punctured sphere.

Everything lives in a single affine chart: punctures must be finite, and
an input with a puncture at infinity is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .exactnum import ONE, ZERO, GaussianRational, RationalOneForm, UniPoly


class SphereError(ValueError):
    pass


@dataclass(frozen=True)
class ProjPoint:
    """A point [z0 : z1] of CP^1 in canonical form: [p : 1] or [1 : 0]."""

    z0: GaussianRational
    z1: GaussianRational

    @staticmethod
    def finite(p) -> "ProjPoint":
        if not isinstance(p, GaussianRational):
            p = GaussianRational.of(p)
        return ProjPoint(p, ONE)

    @staticmethod
    def infinity() -> "ProjPoint":
        return ProjPoint(ONE, ZERO)

    @property
    def is_infinity(self) -> bool:
        return self.z1.is_zero

    @property
    def affine(self) -> GaussianRational:
        if self.is_infinity:
            raise SphereError("point at infinity has no affine coordinate")
        return self.z0

    def __str__(self) -> str:
        return "inf" if self.is_infinity else str(self.z0)

    @staticmethod
    def parse(s: str) -> "ProjPoint":
        s = s.strip()
        if s in ("inf", "oo", "infinity"):
            return ProjPoint.infinity()
        return ProjPoint.finite(GaussianRational.parse(s))


@dataclass(frozen=True)
class PunctureSet:
    """n >= 1 pairwise distinct finite points of CP^1."""

    points: tuple[ProjPoint, ...]

    @staticmethod
    def of(points: Sequence[ProjPoint]) -> "PunctureSet":
        pts = tuple(points)
        if not pts:
            raise SphereError("need at least one puncture")
        if any(p.is_infinity for p in pts):
            raise SphereError("punctures must be finite")
        if len(set(pts)) != len(pts):
            raise SphereError("punctures must be pairwise distinct")
        return PunctureSet(pts)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p: ProjPoint) -> bool:
        return p in self.points

    def index(self, p: ProjPoint) -> int:
        return self.points.index(p)

    @property
    def affine(self) -> tuple[GaussianRational, ...]:
        return tuple(p.affine for p in self.points)

    def vanishing_poly(self) -> UniPoly:
        return UniPoly.from_roots(self.affine)


@dataclass(frozen=True)
class LogOneForm:
    """omega = sum_i r_i dz/(z - p_i) with simple poles exactly at P.

    The residues sum to zero exactly and none of them vanishes.
    """

    punctures: PunctureSet
    residues: tuple[GaussianRational, ...]

    def residue_at(self, p: ProjPoint) -> GaussianRational:
        if p not in self.punctures:
            raise SphereError(f"{p} is not a puncture of this form")
        return self.residues[self.punctures.index(p)]

    def numerator_poly(self) -> UniPoly:
        """Numerator over the vanishing polynomial of the punctures.

        Never vanishes at a puncture: its value at p_i is r_i times the
        product of (p_i - p_j), all nonzero.
        """
        pts = self.punctures.affine
        num = UniPoly.zero()
        for i, r in enumerate(self.residues):
            others = [q for j, q in enumerate(pts) if j != i]
            num = num + UniPoly.from_roots(others) * r
        return num

    def as_rational_form(self) -> RationalOneForm:
        """Partial-fraction realization (num/den) dz in the affine chart."""
        return RationalOneForm.make(self.numerator_poly(), self.punctures.vanishing_poly())

    def to_json(self) -> dict:
        return {
            "punctures": [str(p) for p in self.punctures],
            "residues": [str(r) for r in self.residues],
        }


def make_log_form(punctures: PunctureSet, residues: Sequence[GaussianRational]) -> LogOneForm:
    rs = tuple(residues)
    if len(rs) != len(punctures):
        raise SphereError("need one residue per puncture")
    if any(r.is_zero for r in rs):
        raise SphereError("zero residue: poles must be simple precisely at P")
    total = ZERO
    for r in rs:
        total = total + r
    if not total.is_zero:
        raise SphereError(f"residues must sum to zero (got {total})")
    return LogOneForm(punctures, rs)

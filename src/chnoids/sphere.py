"""Points, divisors and logarithmic 1-forms on the punctured sphere.

Everything lives in a single affine chart: punctures must be finite, and
inputs containing the point at infinity are pre-processed by
``mobius_normalize`` (the transform is carried along for round-tripping).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .exactnum import (
    ONE,
    ZERO,
    BinaryForm,
    ExactArithmeticError,
    GaussianRational,
    RationalOneForm,
    UniPoly,
)


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

    @staticmethod
    def of(z0: GaussianRational, z1: GaussianRational) -> "ProjPoint":
        """Canonicalize an arbitrary nonzero coordinate pair."""
        if z1.is_zero:
            if z0.is_zero:
                raise SphereError("[0:0] is not a projective point")
            return ProjPoint.infinity()
        return ProjPoint(z0 / z1, ONE)

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
            raise SphereError("punctures must be finite; apply mobius_normalize first")
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
class Divisor:
    """Lazy divisor: total degree plus a multiplicity oracle.

    Only degrees and multiplicities at given rational points are ever
    needed; divisors are never factored.
    """

    degree: int
    multiplicity: Callable[[ProjPoint], int]


def divisor_of_form(f: BinaryForm) -> Divisor:
    if f.is_zero:
        raise ExactArithmeticError("zero form has no divisor")
    affine_part = f.dehomogenize()
    inf_mult = f.infinity_multiplicity()

    def mult(p: ProjPoint) -> int:
        if p.is_infinity:
            return inf_mult
        return affine_part.root_multiplicity(p.affine)

    return Divisor(degree=f.degree, multiplicity=mult)


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


@dataclass(frozen=True)
class MobiusMap:
    """z -> (a z + b)/(c z + d) acting on [z0 : z1], exact and invertible."""

    a: GaussianRational
    b: GaussianRational
    c: GaussianRational
    d: GaussianRational

    @staticmethod
    def identity() -> "MobiusMap":
        return MobiusMap(ONE, ZERO, ZERO, ONE)

    def determinant(self) -> GaussianRational:
        return self.a * self.d - self.b * self.c

    def apply(self, p: ProjPoint) -> ProjPoint:
        return ProjPoint.of(self.a * p.z0 + self.b * p.z1, self.c * p.z0 + self.d * p.z1)

    def inverse(self) -> "MobiusMap":
        return MobiusMap(self.d, -self.b, -self.c, self.a)

    @property
    def is_identity(self) -> bool:
        return (
            self.b.is_zero and self.c.is_zero and not self.a.is_zero and self.a == self.d
        )

    def to_json(self) -> dict:
        return {"matrix": [[str(self.a), str(self.b)], [str(self.c), str(self.d)]]}


def mobius_normalize(points: Sequence[ProjPoint]) -> tuple[MobiusMap, list[ProjPoint]]:
    """Send every input point to a finite point, recording the transform.

    Distinct inputs stay distinct (Mobius maps are injective).  Without a
    point at infinity the transform is the identity.
    """
    pts = list(points)
    if len(set(pts)) != len(pts):
        raise SphereError("points must be distinct")
    if not any(p.is_infinity for p in pts):
        return MobiusMap.identity(), pts
    finite_values = {p.z0 for p in pts if not p.is_infinity}
    k = 0
    while GaussianRational.of(k) in finite_values:
        k += 1
    c = GaussianRational.of(k)
    # z -> 1/(z - c): infinity goes to 0, every finite p != c stays finite
    transform = MobiusMap(ZERO, ONE, ONE, -c)
    return transform, [transform.apply(p) for p in pts]

"""Logarithmic 1-forms on the punctured sphere.

Everything lives in a single affine chart: a puncture is a Gaussian
rational, so an input with a puncture at infinity does not parse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import InputError
from .exactnum import ZERO, GaussianRational, RationalFunction, RationalOneForm, UniPoly


class SphereError(InputError):
    pass


@dataclass(frozen=True)
class LogOneForm:
    """omega = sum_i r_i dz/(z - p_i) with simple poles exactly at P.

    P is n >= 1 pairwise distinct points of the affine chart; the residues
    sum to zero exactly and none of them vanishes.
    """

    punctures: tuple[GaussianRational, ...]
    residues: tuple[GaussianRational, ...]

    def residue_at(self, p: GaussianRational) -> GaussianRational:
        if p not in self.punctures:
            raise SphereError(f"{p} is not a puncture of this form")
        return self.residues[self.punctures.index(p)]

    def numerator_poly(self) -> UniPoly:
        """Numerator of omega over the vanishing polynomial V of the punctures."""
        return self.as_rational_form().num

    def as_rational_form(self) -> RationalOneForm:
        """omega = (num/V) dz in the affine chart, num = sum_i r_i V/(z - p_i).

        The form is already reduced: V is monic and squarefree, and
        num(p_i) = r_i prod_{j != i} (p_i - p_j) is nonzero.
        """
        fn = RationalFunction.partial_fractions(self.punctures, self.residues)
        return RationalOneForm(fn)

    def to_json(self) -> dict:
        return {
            "punctures": [str(p) for p in self.punctures],
            "residues": [str(r) for r in self.residues],
        }


def make_log_form(
    punctures: Sequence[GaussianRational], residues: Sequence[GaussianRational]
) -> LogOneForm:
    pts, rs = tuple(punctures), tuple(residues)
    if not pts:
        raise SphereError("need at least one puncture")
    if len(set(pts)) != len(pts):
        raise SphereError("punctures must be pairwise distinct")
    if len(rs) != len(pts):
        raise SphereError("need one residue per puncture")
    if any(r.is_zero for r in rs):
        raise SphereError("zero residue: poles must be simple precisely at P")
    total = ZERO
    for r in rs:
        total = total + r
    if not total.is_zero:
        raise SphereError(f"residues must sum to zero (got {total})")
    return LogOneForm(pts, rs)

"""Logarithmic 1-forms on the punctured sphere.

Everything lives in a single affine chart: a puncture is a Gaussian
rational, so an input with a puncture at infinity does not parse.  A form
is held as its punctures and residues, omega = sum_i r_i dz/(z - p_i), so
its residue at p_i is r_i by definition.
"""

from __future__ import annotations

from typing import Sequence

from . import InputError, Value
from .exactnum import ZERO, GaussianRational


class SphereError(InputError):
    pass


class LogOneForm(Value):
    """omega = sum_i r_i dz/(z - p_i) with simple poles exactly at P.

    ``punctures`` is P, a tuple of n >= 1 pairwise distinct points of the
    affine chart, and ``residues`` the tuple of the r_i; the residues sum to
    zero exactly and none of them vanishes.
    """

    __slots__ = ("punctures", "residues")

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

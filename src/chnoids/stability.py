"""Parabolic degree and slope bookkeeping, and the mixed-case stability check.

All weights and degrees are exact rationals, so every verdict is exact.
Both the slope-form and the expanded-form inequalities are evaluated and
must agree; a disagreement signals an implementation bug and aborts.

The weights are rationals with small denominators, so the arithmetic runs
on Python ints.  The weight sums add integer numerators per denominator,
each distinct entry once times its count, then the one Fraction term per
distinct denominator in pairwise rounds.  ``MixedDegreeData`` clears the
three sums once, to integer numerators over their common denominator den,
and each formula is written once, in integers over den: ``_degrees`` for
the parabolic degrees of E, W1 and W2, ``_expanded`` for both sides of each
expanded inequality.  ``check_mixed_stability`` and ``stability_region``
both read them; ``Fraction`` is built only for the numbers a certificate
prints, and each d1's largest stable d2 in the region is an integer floor
division, taken from the slope form and from the expanded form separately.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

from . import InputError, rational, record


class StabilityError(InputError):
    pass


class InternalDisagreement(AssertionError):
    """Slope-form and expanded-form evaluations disagreed; abort."""


class SurfaceData:
    """Genus and puncture count, with the hyperbolicity constraint 2g-2+n > 0.

    Instances are immutable."""

    __slots__ = ("genus", "punctures")

    def __new__(cls, genus: int, punctures: int) -> "SurfaceData":
        if genus < 0 or punctures < 1:
            raise StabilityError("need genus >= 0 and at least one puncture")
        if 2 * genus - 2 + punctures <= 0:
            raise StabilityError("hyperbolicity violated: 2g-2+n must be positive")
        s = object.__new__(cls)
        object.__setattr__(s, "genus", genus)
        object.__setattr__(s, "punctures", punctures)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("SurfaceData is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not SurfaceData:
            return NotImplemented
        return self.genus == other.genus and self.punctures == other.punctures

    def __hash__(self) -> int:
        return hash((self.genus, self.punctures))

    def __repr__(self) -> str:
        return f"SurfaceData(genus={self.genus}, punctures={self.punctures})"

    @property
    def kappa(self) -> int:
        """Degree of the log-canonical bundle, 2g-2+n."""
        return 2 * self.genus - 2 + self.punctures


@record
class WeightTriple(NamedTuple):
    """Ordered parabolic weights a1 <= a2 <= a3 in [0, 1)."""

    a1: Fraction
    a2: Fraction
    a3: Fraction

    @staticmethod
    def of(a1, a2, a3) -> "WeightTriple":
        w = WeightTriple(rational(a1), rational(a2), rational(a3))
        if not (0 <= w.a1 <= w.a2 <= w.a3 < 1):
            raise StabilityError("weights must satisfy 0 <= a1 <= a2 <= a3 < 1")
        return w

    @property
    def values(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.a1, self.a2, self.a3)


@record
class PunctureWeights(NamedTuple):
    """Weight triple at one puncture plus the flag-position selections.

    beta is the induced weight of the line subbundle W1, gamma the weight
    of the trivial summand; both must be drawn from the triple (the flag
    incidence itself is caller knowledge).
    """

    weights: WeightTriple
    beta: Fraction
    gamma: Fraction

    @staticmethod
    def of(weights: WeightTriple, beta=None, gamma=None) -> "PunctureWeights":
        b = weights.a1 if beta is None else rational(beta)
        g = weights.a1 if gamma is None else rational(gamma)
        if b not in weights.values or g not in weights.values:
            raise StabilityError("beta and gamma must be values of the weight triple")
        return PunctureWeights(weights, b, g)


@record
class MixedDegreeData(NamedTuple):
    """(d1, d2) plus the sums over the punctures of omega_p, beta_p and
    gamma_p, as integer numerators over their common denominator den."""

    d1: int
    d2: int
    den: int
    omega: int
    beta: int
    gamma: int

    @staticmethod
    def of(d1: int, d2: int, puncture_weights: Iterable[PunctureWeights]) -> "MixedDegreeData":
        if d1 < 0 or d2 < 0:
            raise StabilityError("d1 and d2 must be nonnegative")
        sums = _weight_sums(tuple(puncture_weights))
        den = math.lcm(*(x.denominator for x in sums))
        return MixedDegreeData(d1, d2, den, *(x.numerator * (den // x.denominator) for x in sums))


def _weight_sums(pws: Sequence[PunctureWeights]) -> tuple[Fraction, Fraction, Fraction]:
    """Sum of omega_p, of beta_p and of gamma_p.

    An entry repeated as one object (the CLI builds each distinct entry
    once) is taken once, times its count; counting ids runs in C and hashes
    no Fraction.  Numerators are added as ints per denominator, so only the
    distinct denominators are added as Fractions, by ``_pairwise_sum``.
    """
    distinct = dict(zip(map(id, pws), pws))
    by_den: tuple[dict[int, int], ...] = ({}, {}, {})  # omega, beta, gamma
    for key, count in Counter(map(id, pws)).items():
        pw = distinct[key]
        for acc, values in zip(by_den, (pw.weights.values, (pw.beta,), (pw.gamma,))):
            for v in values:
                acc[v.denominator] = acc.get(v.denominator, 0) + count * v.numerator
    omega, beta, gamma = (
        _pairwise_sum([Fraction(num, den) for den, num in acc.items()]) for acc in by_den
    )
    return omega, beta, gamma


def _pairwise_sum(terms: list[Fraction]) -> Fraction:
    """Sum in rounds of pairwise additions.

    Each addition then meets operands of about equal size, so with many
    coprime denominators the cost stays near-linear in the digits of the
    sum; adding them one by one to a growing total is quadratic.
    """
    if not terms:
        return Fraction(0)
    while len(terms) > 1:
        pairs = [terms[i] + terms[i + 1] for i in range(0, len(terms) - 1, 2)]
        terms = pairs + terms[len(pairs) * 2:]
    return terms[0]


@record
class StabilityCertificate(NamedTuple):
    """Both sides of every inequality, in slope and expanded form, plus verdict."""

    verdict: str  # stable | strictly-semistable | unstable
    slope_w1: tuple[Fraction, Fraction]  # (mu(W1), mu(E))
    slope_w2: tuple[Fraction, Fraction]  # (mu(W2), mu(E))
    expanded_1: tuple[Fraction, Fraction]  # 2d1+d2 vs 3k + sum(omega - 3 beta)
    expanded_2: tuple[Fraction, Fraction]  # d1+2d2 vs 3k + sum(2 omega - 3(beta+gamma))
    failing: tuple[str, ...]

    def to_json(self) -> dict:
        def pair(t):
            return {"lhs": str(t[0]), "rhs": str(t[1])}

        return {
            "verdict": self.verdict,
            "slope_W1": pair(self.slope_w1),
            "slope_W2": pair(self.slope_w2),
            "expanded_1": pair(self.expanded_1),
            "expanded_2": pair(self.expanded_2),
            "failing": list(self.failing),
        }


def _verdict(lhs1, rhs1, lhs2, rhs2) -> tuple[str, tuple[str, ...]]:
    failing = []
    if lhs1 > rhs1:
        failing.append("W1")
    if lhs2 > rhs2:
        failing.append("W2")
    if failing:
        return "unstable", tuple(failing)
    boundary = []
    if lhs1 == rhs1:
        boundary.append("W1")
    if lhs2 == rhs2:
        boundary.append("W2")
    if boundary:
        return "strictly-semistable", tuple(boundary)
    return "stable", ()


def _degrees(d1: int, d2: int, kappa: int, w: MixedDegreeData) -> tuple[int, int, int]:
    """den times the parabolic degrees of E, W1 and W2 at (d1, d2):
    (d1 - d2) + sum omega, (d1 - kappa) + sum beta and
    (d1 - kappa) + sum (beta + gamma)."""
    deg_w1 = w.den * (d1 - kappa) + w.beta
    return w.den * (d1 - d2) + w.omega, deg_w1, deg_w1 + w.gamma


def _expanded(d1: int, d2: int, kappa: int, w: MixedDegreeData) -> tuple[int, int, int, int]:
    """den times both sides of 2 d1 + d2 < 3 kappa + sum (omega - 3 beta) and
    of d1 + 2 d2 < 3 kappa + sum (2 omega - 3 (beta + gamma))."""
    k3 = 3 * kappa * w.den
    return (w.den * (2 * d1 + d2), k3 + w.omega - 3 * w.beta,
            w.den * (d1 + 2 * d2), k3 + 2 * w.omega - 3 * (w.beta + w.gamma))


def check_mixed_stability(d: MixedDegreeData, s: SurfaceData) -> StabilityCertificate:
    """Evaluate both strict slope inequalities, slope and expanded form.

    Verdict: stable if both strict, strictly-semistable if some equality
    and no strict violation, unstable otherwise.
    """
    deg_e, deg_w1, deg_w2 = _degrees(d.d1, d.d2, s.kappa, d)
    # mu(W1) < mu(E) is 3 deg W1 < deg E, and mu(W2) < mu(E) is 3 deg W2 < 2 deg E
    verdict_slope, failing_slope = _verdict(3 * deg_w1, deg_e, 3 * deg_w2, 2 * deg_e)
    lhs1, rhs1, lhs2, rhs2 = _expanded(d.d1, d.d2, s.kappa, d)
    verdict_exp, failing_exp = _verdict(lhs1, rhs1, lhs2, rhs2)
    if verdict_slope != verdict_exp or failing_slope != failing_exp:
        raise InternalDisagreement(
            f"slope form said {verdict_slope}/{failing_slope}, "
            f"expanded form said {verdict_exp}/{failing_exp}"
        )
    den, mu_e = d.den, Fraction(deg_e, 3 * d.den)
    return StabilityCertificate(
        verdict_slope, (Fraction(deg_w1, den), mu_e), (Fraction(deg_w2, 2 * den), mu_e),
        (Fraction(lhs1, den), Fraction(rhs1, den)), (Fraction(lhs2, den), Fraction(rhs2, den)),
        failing_slope,
    )


def nnoid_degrees(n: int) -> tuple[int, int]:
    """(d1, d2) = (n-4, n-3) for the explicit n-noid sections."""
    if n < 4:
        raise StabilityError("n-noid data needs n >= 4")
    return n - 4, n - 3


def prop94_degrees(n: int) -> tuple[int, int, bool]:
    """Invariant-subbundle degrees (4-n, 3-n) and the n = 4 semistable flag.

    Reported under the V = O(1) + O, L = O(-1) normalization, where
    deg E = 0; the flag marks the boundary case deg F1 = 0.
    """
    if n < 4:
        raise StabilityError("n-noid data needs n >= 4")
    return 4 - n, 3 - n, n == 4


def stability_region(
    s: SurfaceData, weights: Sequence[PunctureWeights], dmax: int
) -> list[tuple[int, int]]:
    """All (d1, d2) in [0, dmax]^2 with a stable verdict, lexicographic.

    Both strict inequalities are linear in (d1, d2), so each d1 has a
    largest stable d2, found in closed form twice: from the slope gaps
    mu(W) - mu(E), and from the expanded form.  The two must agree.
    """
    if dmax < 0:
        raise StabilityError("dmax must be nonnegative")
    w = MixedDegreeData.of(0, 0, weights)
    den, kappa = w.den, s.kappa
    _, rhs1, _, rhs2 = _expanded(0, 0, kappa, w)
    out: list[tuple[int, int]] = []
    for d1 in range(dmax + 1):
        # at (d1, d2), 3 den (mu(W1) - mu(E)) = 3 deg W1 - deg E + den d2 and
        # 6 den (mu(W2) - mu(E)) = 3 deg W2 - 2 deg E + 2 den d2, with den
        # times the degrees at (d1, 0); stable means both gaps are negative
        deg_e, deg_w1, deg_w2 = _degrees(d1, 0, kappa, w)
        by_slope = min((deg_e - 3 * deg_w1 - 1) // den, (2 * deg_e - 3 * deg_w2 - 1) // (2 * den))
        by_expanded = min((rhs1 - 2 * d1 * den - 1) // den, (rhs2 - d1 * den - 1) // (2 * den))
        if by_slope != by_expanded:
            raise InternalDisagreement(
                f"at d1 = {d1} the slope form bounds d2 by {by_slope}, "
                f"the expanded form by {by_expanded}"
            )
        out.extend(zip(repeat(d1), range(min(by_slope, dmax) + 1)))
    return out

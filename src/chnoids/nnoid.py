"""The explicit off-diagonal Higgs field on the n-punctured sphere.

The 3x3 logarithmic Higgs field is Phi = omega * S: the input's logarithmic
1-form omega = sum_i r_i dz/(z - p_i), held by ``NnoidData``, times the
polynomial section matrix S = [[0, 0, -q g2], [0, 0, q g1], [g1, g2, 0]],
which ``build_higgs`` returns.  Since omega != 0, the trace identities
tr Phi = omega tr S = 0 and tr Phi^2 = omega^2 tr S^2 = 0 are checked as the
polynomial identities tr S = 0 and tr S^2 = 0.  The residue r_p S(p) at a
puncture is computed two independent ways, from S (``residue_matrix``) and
from g1, g2 and q (``residue_matrix_closed_form``), as the pair (M, d) in
lowest terms that ``linalg.scaled`` writes, so the routes agree iff the pairs
are equal.  Each route is given r_p, which the caller reads in order with its
puncture, and its constants, formed once per check.  The nilpotent and end
types are read from M's 3x3 invariants (``linalg.invariants``).  Each route
forms the powers of the puncture's denominator e once and evaluates every
polynomial homogenized to one degree D (``UniPoly.parts_at``), so its nine
entries share the factor e^D: the common denominator is the lcm of the
polynomials' own denominators times e^D, and the residue is reduced by one
gcd.
"""

from __future__ import annotations

import math

from . import InputError, Value, array, integer, linalg
from .exactnum import BinaryForm, GaussianRational, UniPoly, coprime, powers_of
from .exactnum import resultant  # nnoid.resultant: read by bench/selftest.py
from .sphere import LogOneForm, make_log_form


class NnoidDataError(InputError):
    pass


class NnoidData(Value):
    """Input data: the logarithmic 1-form omega (a ``LogOneForm``), with the
    punctures and residues, and the sections g1, g2, q (``BinaryForm``s).

    Degrees are n-4, n-3 and 3; g1, g2 share no projective zero and q is
    nonvanishing at every puncture.  n = 4 is allowed (g1 constant); the
    stability verdict for that boundary case is strictly-semistable.
    """

    __slots__ = ("omega", "g1", "g2", "q")

    @property
    def punctures(self) -> tuple[GaussianRational, ...]:
        return self.omega.punctures

    @property
    def n(self) -> int:
        return len(self.omega.punctures)

    @staticmethod
    def make(omega: LogOneForm, g1: BinaryForm, g2: BinaryForm, q: BinaryForm) -> "NnoidData":
        n = len(omega.punctures)
        if n < 4:
            raise NnoidDataError("need at least 4 punctures")
        if g1.degree != n - 4 or g2.degree != n - 3 or q.degree != 3:
            raise NnoidDataError(
                f"degree mismatch: need deg g1 = {n - 4}, deg g2 = {n - 3}, deg q = 3"
            )
        if g1.is_zero or g2.is_zero:
            raise NnoidDataError("g1 and g2 must be nonzero")
        if not coprime(g1, g2):
            raise NnoidDataError("g1 and g2 share a projective zero")
        chart, deg = q.chart, len(q.chart.re) - 1
        for p in omega.punctures:
            u, v, e = p.parts
            re, im = chart.parts_at(u, v, powers_of(e, deg), deg)
            if not re and not im:
                raise NnoidDataError(f"q vanishes at the puncture {p}")
        return NnoidData(omega, g1, g2, q)

    def to_json(self) -> dict:
        out = {"n": self.n}
        out.update(self.omega.to_json())
        out["g1"] = self.g1.to_json()
        out["g2"] = self.g2.to_json()
        out["q"] = self.q.to_json()
        return out

    @staticmethod
    def from_json(obj: dict, punctures: list[GaussianRational] | None = None) -> "NnoidData":
        if punctures is None:
            punctures = [GaussianRational.parse(s) for s in array(obj["punctures"], "punctures")]
        residues = [GaussianRational.parse(s) for s in array(obj["residues"], "residues")]
        omega = make_log_form(punctures, residues)
        g1 = BinaryForm.from_json(obj["g1"])
        g2 = BinaryForm.from_json(obj["g2"])
        q = BinaryForm.from_json(obj["q"])
        data = NnoidData.make(omega, g1, g2, q)
        if "n" in obj and integer(obj["n"], "n") != data.n:
            raise NnoidDataError("declared n disagrees with the puncture count")
        return data


# the 3x3 polynomial matrix S, row by row
Section = tuple[tuple[UniPoly, ...], ...]


def build_higgs(data: NnoidData) -> Section:
    """S in the affine chart, strictly off-diagonal in the 2+1 split E = V + L.

    V = O(1) + O spans coordinates 0, 1 and L = O(-1) coordinate 2.  The
    lower-left block of S is (g1, g2), the upper-right block is
    (-q g2, q g1)^t; the diagonal blocks vanish identically.
    """
    g1, g2, q = data.g1.chart, data.g2.chart, data.q.chart
    zero = UniPoly.zero()
    return (
        (zero, zero, -(q * g2)),
        (zero, zero, q * g1),
        (g1, g2, zero),
    )


def trace_phi(s: Section) -> UniPoly:
    """tr S; tr Phi is this polynomial times omega, and omega != 0."""
    return s[0][0] + s[1][1] + s[2][2]


def trace_phi_squared(s: Section) -> UniPoly:
    """tr S^2 = sum of S_ii^2 + 2 sum_{i<j} S_ij S_ji, each distinct product
    formed once; tr Phi^2 is this polynomial times omega^2.

    omega != 0, so tr Phi^2 vanishes identically iff this polynomial is
    zero; a sign tamper in either block leaves a nonzero multiple of
    q g1 g2.
    """
    off = s[0][1] * s[1][0] + s[0][2] * s[2][0] + s[1][2] * s[2][1]
    return s[0][0] * s[0][0] + s[1][1] * s[1][1] + s[2][2] * s[2][2] + off + off


def _residue(num: list[linalg.GaussInt], den: int) -> linalg.Scaled:
    """The residue with the nine unreduced numerators ``num``, row by row, over ``den``,
    as ``linalg.scaled`` writes it: reduced by one gcd, fed smallest first so that a
    tall puncture meets a small gcd."""
    if den != 1:  # over the denominator 1 it is in lowest terms already
        g = math.gcd(*sorted([den, *[x for pair in num for x in pair]], key=int.bit_length))
        num, den = [(x // g, y // g) for x, y in num], den // g
    return (tuple(num[:3]), tuple(num[3:6]), tuple(num[6:])), den


def residue_plan(s: Section) -> tuple:
    """Route 1's constants, formed once per check: S's nonzero entries, each with its
    place among the nine and the factor that lifts it to den, then D, the largest
    degree among the entries, and den, the lcm of their denominators."""
    fs = [*s[0], *s[1], *s[2]]
    den = math.lcm(*[f.den for f in fs])
    terms = tuple((i, f, den // f.den) for i, f in enumerate(fs) if f.re)
    return terms, max([len(f.re) for f in fs]) - 1, den


def residue_matrix(plan: tuple, p: GaussianRational, r: GaussianRational) -> linalg.Scaled:
    """Res_p(omega S) = r S(p) at the puncture p, as only omega has poles, for r = r_p
    and ``plan`` = ``residue_plan(S)``.  For p = (u + iv)/e every entry f is evaluated
    at D, so that it sits over f.den e^D and the nine share the lcm of the f.den e^D."""
    terms, deg, den = plan
    a, b, d = r.parts
    u, v, e = p.parts
    es = powers_of(e, deg)
    num = [(0, 0)] * 9  # five of S's entries are zero
    for i, f, k in terms:
        x, y = f.parts_at(u, v, es, deg)
        ra, rb = a * k, b * k  # r_p's numerator, scaled to the common denominator
        num[i] = (ra * x - rb * y, ra * y + rb * x)
    return _residue(num, den * es[deg] * d)


def closed_form_plan(g1: BinaryForm, g2: BinaryForm, q: BinaryForm) -> tuple:
    """Route 2's constants, formed once per check: the charts of g1, g2 and q, dq,
    q's degree, dg, the larger of g1's and g2's, the factors k1, k2 that lift g1,
    g2 to lcm = lcm(g1.den, g2.den), and q.den lcm."""
    g1, g2, q = g1.chart, g2.chart, q.chart
    lcm = math.lcm(g1.den, g2.den)
    dq, dg = len(q.re) - 1, max(len(g1.re), len(g2.re)) - 1
    return g1, g2, q, dq, dg, lcm // g1.den, lcm // g2.den, q.den * lcm


def residue_matrix_closed_form(plan: tuple, p: GaussianRational,
                               r: GaussianRational) -> linalg.Scaled:
    """Closed-form residue r [[0, B], [C, 0]] at the puncture p, for r = r_p and ``plan`` =
    ``closed_form_plan(g1, g2, q)``.  For p = (u + iv)/e, q is evaluated at dq and g1, g2 at
    dg, so that B = (-q g2, q g1)^t sits over e^(dq + dg), and C = (g1, g2) is lifted by e^dq."""
    g1, g2, q, dq, dg, k1, k2, den = plan
    a, b, d = r.parts
    u, v, e = p.parts
    es = powers_of(e, dq + dg)
    qx, qy = q.parts_at(u, v, es, dq)
    x1, y1 = g1.parts_at(u, v, es, dg)
    x2, y2 = g2.parts_at(u, v, es, dg)
    # the common denominator is q.den lcm e^(dq + dg): B's entries -q g2 and q g1
    # take the factors k2 and k1, and C's g1 and g2 the factors k1 lift and k2 lift
    lift = q.den * es[dq]
    a1, b1, a2, b2 = a * k1, b * k1, a * k2, b * k2  # r_p's numerator times k1 and k2
    mx, my = qy * y2 - qx * x2, -qx * y2 - qy * x2  # -q g2
    px, py = qx * x1 - qy * y1, qx * y1 + qy * x1  # q g1
    zero = (0, 0)
    num = [zero, zero, (a2 * mx - b2 * my, a2 * my + b2 * mx),
           zero, zero, (a1 * px - b1 * py, a1 * py + b1 * px),
           ((a1 * x1 - b1 * y1) * lift, (a1 * y1 + b1 * x1) * lift),
           ((a2 * x2 - b2 * y2) * lift, (a2 * y2 + b2 * x2) * lift), zero]
    return _residue(num, den * es[dq + dg] * d)


def nilpotency_profile(n: linalg.GaussMatrix) -> int | None:
    """Smallest k in {1, 2, 3} with N^k = 0, or None if N^3 != 0; M = N/d has N's profile:
    N is nilpotent iff T, E and D (``linalg.invariants``) vanish, and then N^2 = 0
    iff rank N <= 1, iff every 2x2 minor vanishes (``linalg.rank_at_most_one``)."""
    (t0, t1), (e0, e1), (d0, d1) = linalg.invariants(n)
    if t0 or t1 or e0 or e1 or d0 or d1:
        return None
    if not linalg.rank_at_most_one(n):
        return 3
    return 2 if any(map(any, n[0] + n[1] + n[2])) else 1


# Jordan type of a nonzero nilpotent 3x3 matrix by its nilpotency profile,
# and end type by Jordan type
JORDAN_TYPES = {2: (2, 1), 3: (3,)}
END_TYPES = {(2, 1): "I", (3,): "II"}


def jordan_type(n: linalg.GaussMatrix) -> tuple[int, ...]:
    k = nilpotency_profile(n)
    if k is None:
        raise NnoidDataError("matrix is not nilpotent")
    if k == 1:
        raise NnoidDataError("zero matrix has no nonzero Jordan type")
    return JORDAN_TYPES[k]


def end_type(n: linalg.GaussMatrix) -> str:
    return END_TYPES[jordan_type(n)]

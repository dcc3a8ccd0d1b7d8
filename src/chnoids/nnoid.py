"""The explicit off-diagonal Higgs field on the n-punctured sphere.

The 3x3 logarithmic Higgs field is Phi = omega * S: the input's logarithmic
1-form omega = sum_i r_i dz/(z - p_i), held by ``NnoidData``, times the
polynomial section matrix S = [[0, 0, -q g2], [0, 0, q g1], [g1, g2, 0]],
which ``build_higgs`` returns.  Since omega != 0, the trace identities
tr Phi = omega tr S = 0 and tr Phi^2 = omega^2 tr S^2 = 0 are checked as the
polynomial identities tr S = 0 and tr S^2 = 0.  The residue r_p S(p) at a
puncture is computed two independent ways, as a Gaussian-integer matrix over
one denominator, and its nilpotent and end types are read from that
numerator's 3x3 invariants.
"""

from __future__ import annotations

import enum
import math

from . import InputError, Value, array, integer, linalg
from .exactnum import BinaryForm, GaussianRational, UniPoly, coprime
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
        for p in omega.punctures:
            if q.chart(p).is_zero:
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


class ResidueMatrix(Value):
    """The residue at ``point`` as num/den, lowest terms: den > 0, gcd(den, num's parts) = 1.

    ``point`` is a GaussianRational, ``num`` a ``linalg.GaussMatrix`` and ``den`` an int.
    """

    __slots__ = ("point", "num", "den")


class EndType(enum.Enum):
    TYPE_I = "I"
    TYPE_II = "II"


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


def _residue(p: GaussianRational, r: GaussianRational, triples) -> ResidueMatrix:
    """r times the 3x3 matrix of unreduced triples (re, im, den), row by row, reduced by one
    lcm and one gcd, each fed smallest first so a tall puncture meets a small gcd."""
    a, b, d = r.parts
    den = math.lcm(*sorted([e for _, _, e in triples], key=int.bit_length))
    parts = [((a * u - b * v) * (k := den // e), (a * v + b * u) * k) for u, v, e in triples]
    g = math.gcd(*sorted([den * d, *(x for pair in parts for x in pair)], key=int.bit_length))
    num = [(u // g, v // g) for u, v in parts]
    return ResidueMatrix(p, (tuple(num[:3]), tuple(num[3:6]), tuple(num[6:])), den * d // g)


def residue_matrix(omega: LogOneForm, s: Section, p: GaussianRational) -> ResidueMatrix:
    """Residue of Phi = omega S at a puncture, from its two factors.

    Only omega has poles and S is polynomial, so Res_p(omega S) =
    Res_p(omega) S(p): the residue r_p that omega holds times the products
    ``build_higgs`` built, evaluated at p.  A point that is not a puncture
    raises ``SphereError``.
    """
    return _residue(p, omega.residue_at(p), [sij.parts_at(p) for row in s for sij in row])


def residue_matrix_closed_form(data: NnoidData, p: GaussianRational) -> ResidueMatrix:
    """Closed-form residue r_i * [[0, B], [C, 0]] evaluated at the puncture."""
    r = data.omega.residue_at(p)
    g1, g2, q = (f.chart.parts_at(p) for f in (data.g1, data.g2, data.q))
    (u, v), qg1 = linalg.gmul(q[:2], g2[:2]), (*linalg.gmul(q[:2], g1[:2]), q[2] * g1[2])
    zero = (0, 0, 1)
    return _residue(p, r, [zero, zero, (-u, -v, q[2] * g2[2]), zero, zero, qg1, g1, g2, zero])


def nilpotency_profile(n: linalg.GaussMatrix) -> int | None:
    """Smallest k in {1, 2, 3} with N^k = 0, or None if N^3 != 0; M = N/d has N's profile:
    N is nilpotent iff T, E and D (``linalg.char_coefficients``) vanish, and then N^2 = 0
    iff rank N = 1, iff every 2x2 minor vanishes."""
    if not any(re or im for row in n for re, im in row):
        return 1
    if any(map(any, linalg.char_coefficients(n))):
        return None
    return 3 if any(map(any, linalg.minors(n))) else 2


# Jordan type of a nonzero nilpotent 3x3 matrix by its nilpotency profile,
# and end type by Jordan type
JORDAN_TYPES = {2: (2, 1), 3: (3,)}
END_TYPES = {(2, 1): EndType.TYPE_I, (3,): EndType.TYPE_II}


def jordan_type(n: linalg.GaussMatrix) -> tuple[int, ...]:
    k = nilpotency_profile(n)
    if k is None:
        raise NnoidDataError("matrix is not nilpotent")
    if k == 1:
        raise NnoidDataError("zero matrix has no nonzero Jordan type")
    return JORDAN_TYPES[k]


def end_type(n: linalg.GaussMatrix) -> EndType:
    return END_TYPES[jordan_type(n)]

"""The explicit off-diagonal Higgs field on the n-punctured sphere.

The 3x3 logarithmic Higgs field is held in factored form Phi = omega * S:
the input's logarithmic 1-form omega = sum_i r_i dz/(z - p_i) times the
polynomial section matrix S = [[0, 0, -q g2], [0, 0, q g1], [g1, g2, 0]].
Since omega != 0, the trace identities tr Phi = omega tr S = 0 and
tr Phi^2 = omega^2 tr S^2 = 0 are checked as the polynomial identities
tr S = 0 and tr S^2 = 0.  The residue r_p S(p) at a puncture is computed
two independent ways, and the module classifies nilpotent types and end
types.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import InputError, array, linalg
from .exactnum import BinaryForm, GaussianRational, UniPoly, coprime
from .exactnum import resultant  # nnoid.resultant: read by bench/selftest.py
from .sphere import LogOneForm, make_log_form


class NnoidDataError(InputError):
    pass


@dataclass(frozen=True)
class NnoidData:
    """Input data: the logarithmic 1-form omega, with the punctures and
    residues, and the sections g1, g2, q.

    Degrees are n-4, n-3 and 3; g1, g2 share no projective zero and q is
    nonvanishing at every puncture.  n = 4 is allowed (g1 constant); the
    stability verdict for that boundary case is strictly-semistable.
    """

    omega: LogOneForm
    g1: BinaryForm
    g2: BinaryForm
    q: BinaryForm

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
    def from_json(obj: dict) -> "NnoidData":
        punctures = [GaussianRational.parse(s) for s in array(obj["punctures"], "punctures")]
        residues = [GaussianRational.parse(s) for s in array(obj["residues"], "residues")]
        omega = make_log_form(punctures, residues)
        g1 = BinaryForm.from_json(obj["g1"])
        g2 = BinaryForm.from_json(obj["g2"])
        q = BinaryForm.from_json(obj["q"])
        data = NnoidData.make(omega, g1, g2, q)
        if "n" in obj and obj["n"] != data.n:
            raise NnoidDataError("declared n disagrees with the puncture count")
        return data


@dataclass(frozen=True)
class HiggsField:
    """Phi = omega * S, strictly off-diagonal in the 2+1 split E = V + L.

    V = O(1) + O spans coordinates 0, 1 and L = O(-1) coordinate 2.
    ``omega`` is the input's logarithmic 1-form and ``s`` the 3x3
    polynomial matrix S.
    """

    omega: LogOneForm
    s: tuple[tuple[UniPoly, ...], ...]
    data: NnoidData


@dataclass(frozen=True)
class ResidueMatrix:
    point: GaussianRational
    matrix: linalg.Matrix


class EndType(enum.Enum):
    TYPE_I = "I"
    TYPE_II = "II"


def build_higgs(data: NnoidData) -> HiggsField:
    """Assemble Phi = omega * S in the affine chart.

    The lower-left block of S is (g1, g2), the upper-right block is
    (-q g2, q g1)^t; the diagonal blocks vanish identically.
    """
    g1, g2, q = data.g1.chart, data.g2.chart, data.q.chart
    zero = UniPoly.zero()
    s = (
        (zero, zero, -(q * g2)),
        (zero, zero, q * g1),
        (g1, g2, zero),
    )
    return HiggsField(data.omega, s, data)


def trace_phi(phi: HiggsField) -> UniPoly:
    """tr S; tr Phi is this polynomial times omega, and omega != 0."""
    return phi.s[0][0] + phi.s[1][1] + phi.s[2][2]


def trace_phi_squared(phi: HiggsField) -> UniPoly:
    """tr S^2 = sum of S_ii^2 + 2 sum_{i<j} S_ij S_ji, each distinct product
    formed once; tr Phi^2 is this polynomial times omega^2.

    omega != 0, so tr Phi^2 vanishes identically iff this polynomial is
    zero; a sign tamper in either block leaves a nonzero multiple of
    q g1 g2.
    """
    s = phi.s
    off = s[0][1] * s[1][0] + s[0][2] * s[2][0] + s[1][2] * s[2][1]
    return s[0][0] * s[0][0] + s[1][1] * s[1][1] + s[2][2] * s[2][2] + off + off


def residue_matrix(phi: HiggsField, p: GaussianRational) -> ResidueMatrix:
    """Residue of Phi at a puncture, from the factored field.

    Only omega has poles and S is polynomial, so Res_p(omega S) =
    Res_p(omega) S(p): the residue r_p that omega holds times the products
    ``build_higgs`` built, evaluated at p.  A point that is not a puncture
    raises ``SphereError``.
    """
    r = phi.omega.residue_at(p)
    return ResidueMatrix(p, linalg.mat([[r * sij(p) for sij in row] for row in phi.s]))


def residue_matrix_closed_form(data: NnoidData, p: GaussianRational) -> ResidueMatrix:
    """Closed-form residue r_i * [[0, B], [C, 0]] evaluated at the puncture."""
    r = data.omega.residue_at(p)
    g1, g2, q = (f.chart(p) for f in (data.g1, data.g2, data.q))
    zero = GaussianRational.of(0)
    rows = [
        [zero, zero, r * (-(q * g2))],
        [zero, zero, r * (q * g1)],
        [r * g1, r * g2, zero],
    ]
    return ResidueMatrix(p, linalg.mat(rows))


def nilpotency_profile(m: linalg.Matrix) -> int | None:
    """Smallest k in {1, 2, 3} with M^k = 0, or None if M^3 != 0.

    Decided on the Gaussian-integer numerator of M = N/d: M^k = 0 iff N^k = 0.
    """
    n, _ = linalg.scaled(m)
    power = n
    for k in range(1, 4):
        if not any(re or im for row in power for re, im in row):
            return k
        power = linalg.gauss_mat_mul(power, n)
    return None


# Jordan type of a nonzero nilpotent 3x3 matrix by its nilpotency profile,
# and end type by Jordan type
JORDAN_TYPES = {2: (2, 1), 3: (3,)}
END_TYPES = {(2, 1): EndType.TYPE_I, (3,): EndType.TYPE_II}


def jordan_type(m: linalg.Matrix) -> tuple[int, ...]:
    k = nilpotency_profile(m)
    if k is None:
        raise NnoidDataError("matrix is not nilpotent")
    if k == 1:
        raise NnoidDataError("zero matrix has no nonzero Jordan type")
    return JORDAN_TYPES[k]


def end_type(m: linalg.Matrix) -> EndType:
    return END_TYPES[jordan_type(m)]

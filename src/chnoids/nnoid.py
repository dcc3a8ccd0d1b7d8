"""The explicit off-diagonal Higgs field on the n-punctured sphere.

The 3x3 logarithmic Higgs field is held in factored form Phi = omega * S:
the logarithmic 1-form omega = (omega_num / V) dz, V the vanishing
polynomial of the punctures, times the polynomial section matrix
S = [[0, 0, -q g2], [0, 0, q g1], [g1, g2, 0]].  Since omega != 0, the
trace identities tr Phi = omega tr S = 0 and tr Phi^2 = omega^2 tr S^2 = 0
are checked as the polynomial identities tr S = 0 and tr S^2 = 0.  The
module also computes puncture residues two independent ways and
classifies nilpotent types, canonical flags and end types.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from . import linalg
from .exactnum import (
    ONE,
    BinaryForm,
    GaussianRational,
    RationalFunction,
    RationalOneForm,
    UniPoly,
    eval_form,
    resultant,
)
from .sphere import LogOneForm, ProjPoint, PunctureSet, SphereError, make_log_form


class NnoidDataError(ValueError):
    pass


@dataclass(frozen=True)
class NnoidData:
    """Input data: punctures, residues, and sections g1, g2, q.

    Degrees are n-4, n-3 and 3; g1, g2 share no projective zero and q is
    nonvanishing at every puncture.  n = 4 is allowed (g1 constant); the
    stability verdict for that boundary case is strictly-semistable.
    """

    n: int
    punctures: PunctureSet
    omega: LogOneForm
    g1: BinaryForm
    g2: BinaryForm
    q: BinaryForm

    @staticmethod
    def make(
        punctures: PunctureSet,
        omega: LogOneForm,
        g1: BinaryForm,
        g2: BinaryForm,
        q: BinaryForm,
    ) -> "NnoidData":
        n = len(punctures)
        if n < 4:
            raise NnoidDataError("need at least 4 punctures")
        if omega.punctures != punctures:
            raise NnoidDataError("omega must have poles exactly at the punctures")
        if g1.degree != n - 4 or g2.degree != n - 3 or q.degree != 3:
            raise NnoidDataError(
                f"degree mismatch: need deg g1 = {n - 4}, deg g2 = {n - 3}, deg q = 3"
            )
        if g1.is_zero or g2.is_zero:
            raise NnoidDataError("g1 and g2 must be nonzero")
        if resultant(g1, g2).is_zero:
            raise NnoidDataError("g1 and g2 share a projective zero")
        for p in punctures:
            if eval_form(q, p).is_zero:
                raise NnoidDataError(f"q vanishes at the puncture {p}")
        return NnoidData(n, punctures, omega, g1, g2, q)

    def to_json(self) -> dict:
        out = {"n": self.n}
        out.update(self.omega.to_json())
        out["g1"] = self.g1.to_json()
        out["g2"] = self.g2.to_json()
        out["q"] = self.q.to_json()
        return out

    @staticmethod
    def from_json(obj: dict) -> "NnoidData":
        try:
            punctures = PunctureSet.of([ProjPoint.parse(s) for s in obj["punctures"]])
            residues = [GaussianRational.parse(s) for s in obj["residues"]]
            omega = make_log_form(punctures, residues)
            g1 = BinaryForm.from_json(obj["g1"])
            g2 = BinaryForm.from_json(obj["g2"])
            q = BinaryForm.from_json(obj["q"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise NnoidDataError(f"malformed n-noid data: {exc}") from exc
        data = NnoidData.make(punctures, omega, g1, g2, q)
        if "n" in obj and obj["n"] != data.n:
            raise NnoidDataError("declared n disagrees with the puncture count")
        return data


# block split of E = V + L: V spans coordinates 0, 1 and L coordinate 2.
# Bundle-degree metadata: V = O(1) + O and L = O(-1), so deg E = 0.
V_INDICES = (0, 1)
L_INDEX = 2


@dataclass(frozen=True)
class HiggsField:
    """Phi = omega * S, strictly off-diagonal in the 2+1 split.

    ``omega_num`` is the numerator of omega over V, the vanishing
    polynomial of the punctures, and ``s`` the 3x3 polynomial matrix S.
    """

    omega_num: UniPoly
    s: tuple[tuple[UniPoly, ...], ...]
    data: NnoidData

    @cached_property
    def _entries(self) -> tuple[tuple[RationalOneForm, ...], ...]:
        """Each entry (omega_num / V) * s_ij as a reduced 1-form, derived once.

        V is squarefree with roots exactly the punctures and omega_num
        never vanishes there (each residue is nonzero and the punctures
        are distinct), so the only common factors are the linear factors
        of V at punctures where s_ij vanishes; no generic gcd is needed.
        """
        vanishing = self.data.punctures.vanishing_poly()
        rows = []
        for row in self.s:
            forms = []
            for sij in row:
                if sij.is_zero:
                    forms.append(RationalOneForm.make(sij, vanishing))
                    continue
                num, den = self.omega_num * sij, vanishing
                for p in self.data.punctures.affine:
                    if sij(p).is_zero:
                        lin = UniPoly.of([-p, ONE])
                        num, den = num // lin, den // lin
                forms.append(RationalOneForm(RationalFunction(num, den)))
            rows.append(tuple(forms))
        return tuple(rows)

    def entry(self, i: int, j: int) -> RationalOneForm:
        return self._entries[i][j]


@dataclass(frozen=True)
class ResidueMatrix:
    point: ProjPoint
    matrix: linalg.Matrix


class EndType(enum.Enum):
    TYPE_I = "I"
    TYPE_II = "II"


@dataclass(frozen=True)
class CanonicalFlag:
    """Flag 0 < L < V < C^3 with N(V) inside L and N(L) = 0."""

    line: linalg.Vector
    plane: tuple[linalg.Vector, linalg.Vector]


def build_higgs(data: NnoidData) -> HiggsField:
    """Assemble Phi = omega * S in the affine chart.

    The lower-left block of S is (g1, g2), the upper-right block is
    (-q g2, q g1)^t; the diagonal blocks vanish identically.
    """
    g1 = data.g1.dehomogenize()
    g2 = data.g2.dehomogenize()
    q = data.q.dehomogenize()
    zero = UniPoly.zero()
    s = (
        (zero, zero, -(q * g2)),
        (zero, zero, q * g1),
        (g1, g2, zero),
    )
    return HiggsField(data.omega.numerator_poly(), s, data)


def trace_phi(phi: HiggsField) -> UniPoly:
    """tr S; tr Phi is this polynomial times omega, and omega != 0."""
    return phi.s[0][0] + phi.s[1][1] + phi.s[2][2]


def trace_phi_squared(phi: HiggsField) -> UniPoly:
    """tr S^2 = sum of S_ij S_ji; tr Phi^2 is this polynomial times omega^2.

    omega != 0, so tr Phi^2 vanishes identically iff this polynomial is
    zero; a sign tamper in either block leaves a nonzero multiple of
    q g1 g2.
    """
    s = phi.s
    acc = UniPoly.zero()
    for i in range(3):
        for j in range(3):
            acc = acc + s[i][j] * s[j][i]
    return acc


def residue_matrix(phi: HiggsField, p: ProjPoint) -> ResidueMatrix:
    """Entrywise residue of Phi at a puncture (partial-fraction route)."""
    if p not in phi.data.punctures:
        raise SphereError(f"{p} is not a puncture")
    z = p.affine
    m = linalg.mat(
        [[phi.entry(i, j).residue_at(z) for j in range(3)] for i in range(3)]
    )
    return ResidueMatrix(p, m)


def residue_matrix_closed_form(data: NnoidData, p: ProjPoint) -> ResidueMatrix:
    """Closed-form residue r_i * [[0, B], [C, 0]] evaluated at the puncture."""
    r = data.omega.residue_at(p)
    g1 = eval_form(data.g1, p)
    g2 = eval_form(data.g2, p)
    q = eval_form(data.q, p)
    zero = GaussianRational.of(0)
    rows = [
        [zero, zero, r * (-(q * g2))],
        [zero, zero, r * (q * g1)],
        [r * g1, r * g2, zero],
    ]
    return ResidueMatrix(p, linalg.mat(rows))


def nilpotency_profile(m: linalg.Matrix) -> int | None:
    """Smallest k in {1, 2, 3} with M^k = 0, or None if M^3 != 0."""
    power = m
    for k in range(1, 4):
        if linalg.is_zero_matrix(power):
            return k
        power = linalg.mat_mul(power, m)
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


def canonical_flag(m: linalg.Matrix) -> CanonicalFlag:
    """Canonical two-step flag from a nonzero nilpotent 3x3 matrix.

    Type (2,1): line = image, plane = kernel.  Type (3): line = kernel,
    plane = kernel of the square (which equals the image).
    """
    jt = jordan_type(m)
    if jt == (2, 1):
        line_basis = linalg.column_space_basis(m)
        plane_basis = linalg.kernel_basis(m)
    else:
        line_basis = linalg.kernel_basis(m)
        plane_basis = linalg.kernel_basis(linalg.mat_mul(m, m))
    if len(line_basis) != 1 or len(plane_basis) != 2:
        raise AssertionError("flag dimensions off; matrix not a rank-3 nilpotent")
    flag = CanonicalFlag(line_basis[0], (plane_basis[0], plane_basis[1]))
    _assert_strictly_lowering(m, flag)
    return flag


def _assert_strictly_lowering(m: linalg.Matrix, flag: CanonicalFlag) -> None:
    if not all(x.is_zero for x in linalg.mat_vec(m, flag.line)):
        raise AssertionError("N does not kill the flag line")
    line_span = [flag.line]
    for v in flag.plane:
        if not linalg.in_span(linalg.mat_vec(m, v), line_span):
            raise AssertionError("N does not lower the flag plane into the line")

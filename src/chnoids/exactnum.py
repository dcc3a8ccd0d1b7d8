"""Exact arithmetic over the Gaussian rationals Q(i).

Scalars, univariate polynomials, homogeneous binary forms and rational
1-forms, all with exact coefficients.  A scalar is held as three Python
ints a, b, d meaning (a + bi)/d, in lowest terms with d > 0.  Zero-locus
queries never materialize algebraic numbers: everything goes through
resultants, gcds and evaluation.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _gcd
from math import lcm as _lcm
from typing import Iterable, Sequence


class ExactArithmeticError(ArithmeticError):
    pass


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


class GaussianRational:
    """A complex number (a + bi)/d with Python ints a, b, d.

    The triple is canonical: d > 0, gcd(a, b, d) = 1, and zero is (0, 0, 1),
    so equal numbers have equal triples.  Instances are immutable; build
    them with ``GaussianRational.of`` (or ``GQ``) and ``parse``.
    """

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, *args, **kwargs):
        raise TypeError("build Gaussian rationals with GaussianRational.of or parse")

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def of(re=0, im=0) -> "GaussianRational":
        re, im = _frac(re), _frac(im)
        d = _lcm(re.denominator, im.denominator)
        return _new(re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other) -> "GaussianRational":
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if d == f:
            return _canonical(a + c, b + e, d)
        return _canonical(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return _new(-self._a, -self._b, self._d)

    def __sub__(self, other) -> "GaussianRational":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "GaussianRational":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "GaussianRational":
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        return _canonical(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        a, b, d = self._a, self._b, self._d
        if not a and not b:
            raise ExactArithmeticError("division by zero in Q(i)")
        # d / (a + bi) = d (a - bi) / (a^2 + b^2)
        return _canonical(d * a, -d * b, a * a + b * b)

    def __truediv__(self, other) -> "GaussianRational":
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "GaussianRational":
        if n < 0:
            return self.inverse() ** (-n)
        out, base = ONE, self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "GaussianRational":
        return _new(self._a, -self._b, self._d)

    def abs_sq(self) -> Fraction:
        """|z|^2, an exact rational."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    @property
    def is_zero(self) -> bool:
        return not self._a and not self._b

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other) -> bool:
        if other.__class__ is not GaussianRational:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    # -- serialization ("a/b+c/di") ---------------------------------------

    def __str__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}i"

    def __repr__(self) -> str:
        return f"GQ({self})"

    @staticmethod
    def parse(s: str) -> "GaussianRational":
        s = s.strip().replace(" ", "")
        if not s:
            raise ValueError("empty Gaussian rational literal")
        re_part, im_part = s, "0"
        if s.endswith("i"):
            body = s[:-1]
            # split into real part and imaginary coefficient
            m = _re.match(r"^([+-]?\d+(?:/\d+)?)([+-](?:\d+(?:/\d+)?)?)$", body)
            if m:
                re_part, im_part = m.group(1), m.group(2)
            else:
                re_part, im_part = "0", body
            if im_part in ("", "+"):
                im_part = "1"
            elif im_part == "-":
                im_part = "-1"
        try:
            return GaussianRational.of(re_part, im_part)
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in {s!r}") from exc


_object_new = object.__new__
_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__


def _new(a: int, b: int, d: int) -> GaussianRational:
    """The Gaussian rational (a + bi)/d from a triple already in canonical form."""
    z = _object_new(GaussianRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _canonical(a: int, b: int, d: int) -> GaussianRational:
    """(a + bi)/d for d > 0, reduced to canonical form."""
    g = _gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _new(a, b, d)


def _coerce(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, int):
        return _new(x, 0, 1)
    if isinstance(x, Fraction):
        return _new(x.numerator, 0, x.denominator)
    raise TypeError(f"cannot coerce {x!r} to Q(i)")


GQ = GaussianRational.of
ZERO = GQ(0)
ONE = GQ(1)
I = GQ(0, 1)


# ---------------------------------------------------------------------------
# univariate polynomials


@dataclass(frozen=True)
class UniPoly:
    """Polynomial in one affine variable z, ascending coefficients.

    The coefficient tuple carries no trailing zeros; the zero polynomial
    is the empty tuple (never degree -1 arithmetic: ``degree`` raises on
    the zero polynomial).
    """

    coeffs: tuple[GaussianRational, ...]

    @staticmethod
    def of(coeffs: Iterable) -> "UniPoly":
        cs = [c if isinstance(c, GaussianRational) else _coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        return UniPoly(tuple(cs))

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly(())

    @staticmethod
    def constant(c) -> "UniPoly":
        return UniPoly.of([c])

    @staticmethod
    def variable() -> "UniPoly":
        return UniPoly.of([0, 1])

    @staticmethod
    def from_roots(roots: Sequence[GaussianRational]) -> "UniPoly":
        p = UniPoly.of([1])
        for r in roots:
            p = p * UniPoly.of([-r, ONE])
        return p

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if self.is_zero:
            raise ExactArithmeticError("degree of the zero polynomial")
        return len(self.coeffs) - 1

    def leading(self) -> GaussianRational:
        return self.coeffs[-1]

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UniPoly.of(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (GaussianRational, int, Fraction)):
            other = _coerce(other)
            if other.is_zero:
                return UniPoly.zero()
            return UniPoly(tuple(c * other for c in self.coeffs))
        if self.is_zero or other.is_zero:
            return UniPoly.zero()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly.of(out)

    __rmul__ = __mul__

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero:
            raise ExactArithmeticError("polynomial division by zero")
        rem = list(self.coeffs)
        dd, dv = len(rem) - 1, other.degree
        if dd < dv:
            return UniPoly.zero(), self
        inv_lead = other.leading().inverse()
        quot = [ZERO] * (dd - dv + 1)
        for k in range(dd - dv, -1, -1):
            c = rem[dv + k] * inv_lead
            quot[k] = c
            if not c.is_zero:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * b
        return UniPoly.of(quot), UniPoly.of(rem)

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    def __call__(self, z: GaussianRational) -> GaussianRational:
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def derivative(self) -> "UniPoly":
        return UniPoly.of([c * k for k, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        return self * self.leading().inverse()

    def shifted(self, p: GaussianRational) -> "UniPoly":
        """Taylor shift: returns q with q(w) = self(w + p)."""
        out = UniPoly.zero()
        base = UniPoly.of([p, ONE])
        power = UniPoly.of([1])
        for c in self.coeffs:
            out = out + power * c
            power = power * base
        return out

    def root_multiplicity(self, p: GaussianRational) -> int:
        f, m = self, 0
        while not f.is_zero and f(p).is_zero:
            f = f // UniPoly.of([-p, ONE])
            m += 1
        return m


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over Q(i); gcd(0, 0) is the zero polynomial."""
    while not b.is_zero:
        # monic normalization of remainders keeps coefficients small
        a, b = b, (a % b).monic()
    return a.monic()


# ---------------------------------------------------------------------------
# binary forms


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous form of declared degree d in z0, z1.

    coeffs[k] is the coefficient of z0^(d-k) z1^k; exactly d+1 entries.
    The zero form (all coefficients zero) is flagged via ``is_zero``.
    """

    degree: int
    coeffs: tuple[GaussianRational, ...]

    @staticmethod
    def of(degree: int, coeffs: Iterable) -> "BinaryForm":
        cs = tuple(c if isinstance(c, GaussianRational) else _coerce(c) for c in coeffs)
        if degree < 0 or len(cs) != degree + 1:
            raise ValueError("a degree-d binary form needs exactly d+1 coefficients")
        return BinaryForm(degree, cs)

    @staticmethod
    def zero(degree: int) -> "BinaryForm":
        return BinaryForm.of(degree, [0] * (degree + 1))

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def __mul__(self, other: "BinaryForm") -> "BinaryForm":
        d = self.degree + other.degree
        out = [ZERO] * (d + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return BinaryForm(d, tuple(out))

    def __add__(self, other: "BinaryForm") -> "BinaryForm":
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        return BinaryForm(self.degree, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "BinaryForm":
        return BinaryForm(self.degree, tuple(-c for c in self.coeffs))

    def scale(self, c) -> "BinaryForm":
        c = _coerce(c)
        return BinaryForm(self.degree, tuple(a * c for a in self.coeffs))

    def evaluate(self, z0: GaussianRational, z1: GaussianRational) -> GaussianRational:
        acc = ZERO
        d = self.degree
        # Horner in z1/z0 direction without divisions: accumulate monomials
        p0 = [ONE]
        for _ in range(d):
            p0.append(p0[-1] * z0)
        p1 = [ONE]
        for _ in range(d):
            p1.append(p1[-1] * z1)
        for k, c in enumerate(self.coeffs):
            if not c.is_zero:
                acc = acc + c * p0[d - k] * p1[k]
        return acc

    def dehomogenize(self) -> UniPoly:
        """f(z, 1) as a polynomial in the affine coordinate z = z0/z1."""
        # coefficient of z^j is coeffs[d-j]
        return UniPoly.of(list(reversed(self.coeffs)))

    def infinity_multiplicity(self) -> int:
        """Multiplicity of the zero at [1:0], i.e. the power of z1 dividing f."""
        if self.is_zero:
            raise ExactArithmeticError("zero form has no divisor")
        m = 0
        while self.coeffs[m].is_zero:
            m += 1
        return m

    def normalized(self) -> "BinaryForm":
        """Scale so the first nonzero coefficient is 1."""
        if self.is_zero:
            return self
        for c in self.coeffs:
            if not c.is_zero:
                return self.scale(c.inverse())
        raise AssertionError

    def to_json(self) -> dict:
        return {"degree": self.degree, "coeffs": [str(c) for c in self.coeffs]}

    @staticmethod
    def from_json(obj: dict) -> "BinaryForm":
        return BinaryForm.of(obj["degree"], [GaussianRational.parse(c) for c in obj["coeffs"]])


def homogenize(p: UniPoly, degree: int) -> BinaryForm:
    """Inverse of dehomogenize at a declared degree >= deg p."""
    if p.is_zero:
        return BinaryForm.zero(degree)
    if p.degree > degree:
        raise ValueError("declared degree too small")
    cs = [ZERO] * (degree + 1)
    for j, c in enumerate(p.coeffs):
        cs[degree - j] = c
    return BinaryForm(degree, tuple(cs))


def eval_form(f: BinaryForm, p) -> GaussianRational:
    """Value of f at the canonical representative of a projective point.

    ``p`` must expose canonical coordinates ``z0`` and ``z1``; whether the
    value vanishes does not depend on the representative.
    """
    return f.evaluate(p.z0, p.z1)


def resultant(f: BinaryForm, g: BinaryForm) -> GaussianRational:
    """Sylvester resultant; zero iff f, g share a projective root over C."""
    if f.is_zero or g.is_zero:
        raise ExactArithmeticError("resultant of a zero form")
    m, n = f.degree, g.degree
    if m == 0:
        return f.coeffs[0] ** n
    if n == 0:
        return g.coeffs[0] ** m
    size = m + n
    rows: list[list[GaussianRational]] = []
    for i in range(n):
        row = [ZERO] * size
        for k, c in enumerate(f.coeffs):
            row[i + k] = c
        rows.append(row)
    for i in range(m):
        row = [ZERO] * size
        for k, c in enumerate(g.coeffs):
            row[i + k] = c
        rows.append(row)
    return _determinant(rows)


def _determinant(rows: list[list[GaussianRational]]) -> GaussianRational:
    """In-place Gaussian elimination over Q(i)."""
    n = len(rows)
    det = ONE
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if not rows[r][col].is_zero:
                pivot = r
                break
        if pivot is None:
            return ZERO
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        pv = rows[col][col]
        det = det * pv
        inv = pv.inverse()
        for r in range(col + 1, n):
            factor = rows[r][col] * inv
            if factor.is_zero:
                continue
            for c in range(col, n):
                rows[r][c] = rows[r][c] - factor * rows[col][c]
    return det


def gcd_forms(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Gcd of binary forms up to scalar, first nonzero coefficient 1.

    gcd(f, 0) is f normalized; both inputs zero is an error.
    """
    if f.is_zero and g.is_zero:
        raise ExactArithmeticError("gcd of two zero forms")
    if f.is_zero:
        return g.normalized()
    if g.is_zero:
        return f.normalized()
    a = min(f.infinity_multiplicity(), g.infinity_multiplicity())
    h = poly_gcd(f.dehomogenize(), g.dehomogenize())
    hdeg = 0 if h.is_zero else h.degree
    z1_power = BinaryForm.of(a, [0] * a + [1]) if a else BinaryForm.of(0, [1])
    return (homogenize(h, hdeg) * z1_power).normalized()


# ---------------------------------------------------------------------------
# rational functions and 1-forms


@dataclass(frozen=True)
class RationalFunction:
    """num/den in the affine chart, reduced, monic denominator."""

    num: UniPoly
    den: UniPoly

    @staticmethod
    def make(num: UniPoly, den: UniPoly) -> "RationalFunction":
        if den.is_zero:
            raise ExactArithmeticError("zero denominator")
        if num.is_zero:
            return RationalFunction(UniPoly.zero(), UniPoly.of([1]))
        g = poly_gcd(num, den)
        if not g.is_zero and g.degree > 0:
            num, den = num // g, den // g
        lead_inv = den.leading().inverse()
        return RationalFunction(num * lead_inv, den.monic())

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __mul__(self, other) -> "RationalFunction":
        if isinstance(other, (GaussianRational, int, Fraction)):
            return RationalFunction.make(self.num * _coerce(other), self.den)
        return RationalFunction.make(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __call__(self, z: GaussianRational) -> GaussianRational:
        d = self.den(z)
        if d.is_zero:
            raise ExactArithmeticError("evaluation at a pole")
        return self.num(z) * d.inverse()

    def pole_order(self, p: GaussianRational) -> int:
        return self.den.root_multiplicity(p)

    def residue_at(self, p: GaussianRational) -> GaussianRational:
        """Residue of (self) dz at z = p, any finite pole order."""
        m = self.pole_order(p)
        if m == 0:
            return ZERO
        lin = UniPoly.of([-p, ONE])
        h = self.den
        for _ in range(m):
            h = h // lin
        if m == 1:
            return self.num(p) * h(p).inverse()
        # coefficient of (z-p)^(m-1) in the Taylor expansion of num/h at p
        num_s = self.num.shifted(p)
        h_s = h.shifted(p)
        inv0 = h_s.coeffs[0].inverse()
        series = [ZERO] * m
        for k in range(m):
            acc = num_s.coeffs[k] if k < len(num_s.coeffs) else ZERO
            for j in range(k):
                hk = h_s.coeffs[k - j] if k - j < len(h_s.coeffs) else ZERO
                acc = acc - series[j] * hk
            series[k] = acc * inv0
        return series[m - 1]


@dataclass(frozen=True)
class RationalOneForm:
    """(num/den) dz in the affine chart; reduced, monic denominator."""

    fn: RationalFunction

    @staticmethod
    def make(num: UniPoly, den: UniPoly) -> "RationalOneForm":
        return RationalOneForm(RationalFunction.make(num, den))

    @property
    def num(self) -> UniPoly:
        return self.fn.num

    @property
    def den(self) -> UniPoly:
        return self.fn.den

    @property
    def is_zero(self) -> bool:
        return self.fn.is_zero

    def scale_by(self, other) -> "RationalOneForm":
        """Multiply by a scalar or a polynomial (still a 1-form)."""
        if isinstance(other, UniPoly):
            return RationalOneForm(RationalFunction.make(self.num * other, self.den))
        return RationalOneForm(self.fn * other)

    def residue_at(self, p: GaussianRational) -> GaussianRational:
        return self.fn.residue_at(p)

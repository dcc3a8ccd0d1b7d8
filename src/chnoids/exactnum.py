"""Exact arithmetic over the Gaussian rationals Q(i).

Scalars, univariate polynomials, homogeneous binary forms and rational
1-forms, all with exact coefficients.  A scalar is held as three Python
ints a, b, d meaning (a + bi)/d, in lowest terms with d > 0; an integer
literal is read and written through ``int``, any other through
``rational``.  The polynomial kernels (product, division, evaluation) and
``dot`` write their operands as Gaussian integers over one common
denominator, accumulate in Python ints, and reduce each output by one gcd;
a polynomial is held that way.
A residue is num(p)/den'(p), from three evaluations.  Zero-locus queries
never materialize algebraic numbers: everything goes through gcds and
evaluation.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd as _gcd
from math import lcm as _lcm
from typing import Iterable, Sequence

from . import Value, array, integer, rational


class ExactArithmeticError(ArithmeticError):
    pass


class GaussianRational(Value):
    """A complex number (a + bi)/d with Python ints a, b, d.

    The triple is canonical: d > 0, gcd(a, b, d) = 1, and zero is (0, 0, 1),
    so equal numbers have equal triples.  Instances are immutable; build
    them with ``GaussianRational.of`` (or ``GQ``) and ``parse``.
    """

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, *args, **kwargs):
        raise TypeError("build Gaussian rationals with GaussianRational.of or parse")

    @staticmethod
    def of(re=0, im=0) -> "GaussianRational":
        if re.__class__ is int and im.__class__ is int:
            return _new(re, im, 1)  # already canonical over d = 1
        re, im = rational(re), rational(im)
        d = _lcm(re.denominator, im.denominator)
        return _new(re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @property
    def parts(self) -> tuple[int, int, int]:
        """The canonical triple (a, b, d) of (a + bi)/d."""
        return self._a, self._b, self._d

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other) -> "GaussianRational":
        if other.__class__ is not GaussianRational:
            try:
                other = _coerce(other)
            except TypeError:
                return NotImplemented  # so that other's reflected method runs
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if d == f:
            return _canonical(a + c, b + e, d)
        return _canonical(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return _new(-self._a, -self._b, self._d)

    def __sub__(self, other) -> "GaussianRational":
        if other.__class__ is not GaussianRational:
            try:
                other = _coerce(other)
            except TypeError:
                return NotImplemented  # so that other's reflected method runs
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if d == f:
            return _canonical(a - c, b - e, d)
        return _canonical(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other) -> "GaussianRational":
        return _coerce(other) - self

    def __mul__(self, other) -> "GaussianRational":
        if other.__class__ is not GaussianRational:
            try:
                other = _coerce(other)
            except TypeError:
                return NotImplemented  # so that other's reflected method runs
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

    @property
    def is_zero(self) -> bool:
        return not self._a and not self._b

    def __bool__(self) -> bool:
        return not self.is_zero

    # Value's __eq__ and __hash__, written out for speed: puncture lookups compare scalars
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
        if self._d == 1:  # a Gaussian integer formats as its ints, as Fraction does
            re, im = self._a, self._b
        else:
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
        if "/" not in s:
            try:  # int reads an integer literal as Fraction does
                return _new(int(re_part), int(im_part), 1)
            except ValueError:
                pass  # a decimal or exponent literal, or an invalid one
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


def _over_common(xs: Sequence[GaussianRational]) -> tuple[list[int], list[int], int]:
    """xs as Gaussian integers u_k + i v_k over one denominator: x_k = (u_k + i v_k)/den.

    den > 0 is the lcm of the denominators; returns (u, v, den).
    """
    den = _lcm(*[x._d for x in xs])
    us, vs = [], []
    for x in xs:
        s = den // x._d
        us.append(x._a * s)
        vs.append(x._b * s)
    return us, vs, den


def _poly_over(us: list[int], vs: list[int], den: int) -> "UniPoly":
    """The polynomial with coefficients (u_k + i v_k)/den, den > 0, reduced by one gcd."""
    n = len(us)
    while n and not us[n - 1] and not vs[n - 1]:
        n -= 1
    us, vs = us[:n], vs[:n]
    g = _gcd(den, *us, *vs)
    if g != 1:
        us, vs, den = [u // g for u in us], [v // g for v in vs], den // g
    return _new_poly(tuple(us), tuple(vs), den)


def dot(xs: Sequence[GaussianRational], ys: Sequence[GaussianRational]) -> GaussianRational:
    """sum_k xs[k] * ys[k], accumulated in integers over one denominator and reduced once."""
    re = im = 0
    den = 1
    for x, y in zip(xs, ys):
        a, b, c, e = x._a, x._b, y._a, y._b
        t = x._d * y._d
        if t == den:
            re += a * c - b * e
            im += a * e + b * c
        else:
            re = re * t + (a * c - b * e) * den
            im = im * t + (a * e + b * c) * den
            den *= t
    return _canonical(re, im, den)


GQ = GaussianRational.of
ZERO = GQ(0)
ONE = GQ(1)
I = GQ(0, 1)


# ---------------------------------------------------------------------------
# univariate polynomials


class UniPoly(Value):
    """Polynomial in one affine variable z: coefficient k is (re[k] + i im[k])/den.

    The triple is canonical: den > 0, gcd(re, im, den) = 1 and no trailing
    zero, so equal polynomials have equal triples.  The zero polynomial is
    ((), (), 1) (never degree -1 arithmetic: ``degree`` raises on it).
    Instances are immutable; build them with ``UniPoly.of`` and ``zero``.
    """

    __slots__ = ("re", "im", "den")

    def __new__(cls, *args, **kwargs):
        raise TypeError("build polynomials with UniPoly.of or UniPoly.zero")

    @staticmethod
    def of(coeffs: Iterable) -> "UniPoly":
        return _poly_over(*_over_common([_coerce(c) for c in coeffs]))

    @staticmethod
    def zero() -> "UniPoly":
        return _new_poly((), (), 1)

    @property
    def coeffs(self) -> tuple[GaussianRational, ...]:
        """The coefficients as canonical scalars, ascending."""
        return tuple(_canonical(u, v, self.den) for u, v in zip(self.re, self.im))

    @property
    def is_zero(self) -> bool:
        return not self.re

    @property
    def degree(self) -> int:
        if self.is_zero:
            raise ExactArithmeticError("degree of the zero polynomial")
        return len(self.re) - 1

    def leading(self) -> GaussianRational:
        return _canonical(self.re[-1], self.im[-1], self.den)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = (self, other) if len(self.re) >= len(other.re) else (other, self)
        den = _lcm(a.den, b.den)
        s, t = den // a.den, den // b.den
        us, vs = [u * s for u in a.re], [v * s for v in a.im]
        for k, (u, v) in enumerate(zip(b.re, b.im)):
            us[k] += u * t
            vs[k] += v * t
        return _poly_over(us, vs, den)

    def __neg__(self) -> "UniPoly":
        return _new_poly(tuple(-u for u in self.re), tuple(-v for v in self.im), self.den)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + -other

    def __mul__(self, other) -> "UniPoly":
        if other.__class__ is not UniPoly:
            other = UniPoly.of([other])  # a scalar is a constant polynomial
        au, av, bu, bv = self.re, self.im, other.re, other.im
        ru = [0] * (len(au) + len(bu) - 1)
        rv = ru[:]
        for i, (a, b) in enumerate(zip(au, av)):
            if not a and not b:
                continue
            for k, c, e in zip(range(i, i + len(bu)), bu, bv):
                ru[k] += a * c - b * e
                rv[k] += a * e + b * c
        return _poly_over(ru, rv, self.den * other.den)

    __rmul__ = __mul__

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero:
            raise ExactArithmeticError("polynomial division by zero")
        dd, dv = len(self.re) - 1, other.degree
        if dd < dv:
            return UniPoly.zero(), self
        # Pseudo-division by the monic associate m = M/e, with Gaussian-integer
        # M: for self = N/den, e^(dd - dv + 1) N = Q M + R in Z[i][z], and each
        # quotient step divides by e exactly.  Q/(den e^(dd - dv)) is the
        # quotient by m, and the one by other is that over other's lead.
        m = other.monic()
        mu, mv, e = m.re, m.im, m.den
        s = e ** (dd - dv + 1)
        ru, rv = [u * s for u in self.re], [v * s for v in self.im]
        for k in range(dd - dv, -1, -1):
            tu, tv = ru[k + dv] // e, rv[k + dv] // e
            ru[k + dv], rv[k + dv] = tu, tv  # Q's coefficient k
            if tu or tv:
                for i, c, f in zip(range(k, k + dv), mu, mv):
                    ru[i] -= tu * c - tv * f
                    rv[i] -= tu * f + tv * c
        a, b, d = other.re[-1], other.im[-1], other.den  # other's lead is (a + bi)/d
        qu = [d * (u * a + v * b) for u, v in zip(ru[dv:], rv[dv:])]
        qv = [d * (v * a - u * b) for u, v in zip(ru[dv:], rv[dv:])]
        top = self.den * e ** (dd - dv)
        return _poly_over(qu, qv, top * (a * a + b * b)), _poly_over(ru[:dv], rv[:dv], top * e)

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    def __call__(self, z: GaussianRational) -> GaussianRational:
        return _canonical(*self.parts_at(z))

    def parts_at(self, z: GaussianRational) -> tuple[int, int, int]:
        """self(z) as ints (re, im, den), den > 0, not reduced: self(z) = (re + i im)/den."""
        if self.is_zero:
            return 0, 0, 1
        # Horner homogenized in z = (u + iv)/e: after each step the sum sits
        # over den * e^k, so each lower coefficient enters times e^k.
        us, vs = self.re, self.im
        u, v, e = z._a, z._b, z._d
        re, im, s = us[-1], vs[-1], 1
        for k in range(len(us) - 2, -1, -1):
            s *= e
            re, im = re * u - im * v + us[k] * s, re * v + im * u + vs[k] * s
        return re, im, self.den * s

    def derivative(self) -> "UniPoly":
        return _poly_over([k * u for k, u in enumerate(self.re)][1:],
                          [k * v for k, v in enumerate(self.im)][1:], self.den)

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        return self * self.leading().inverse()


_set_re = UniPoly.re.__set__
_set_im = UniPoly.im.__set__
_set_den = UniPoly.den.__set__


def _new_poly(re: tuple[int, ...], im: tuple[int, ...], den: int) -> UniPoly:
    """The polynomial with the triple (re, im, den), already canonical."""
    p = _object_new(UniPoly)
    _set_re(p, re)
    _set_im(p, im)
    _set_den(p, den)
    return p


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over Q(i); gcd(0, 0) is the zero polynomial."""
    while not b.is_zero:
        # monic normalization of remainders keeps coefficients small
        a, b = b, (a % b).monic()
    return a.monic()


# ---------------------------------------------------------------------------
# binary forms


class BinaryForm(Value):
    """Homogeneous form f(z0, z1) of declared degree d, held as its chart polynomial.

    ``chart`` is f(z, 1) in the affine coordinate z = z0/z1, of degree at most
    d; its degree is below d exactly when f vanishes at [1:0].  The zero form
    is flagged via ``is_zero``.  Instances are immutable; build them with
    ``BinaryForm.of`` and ``from_json``.
    """

    __slots__ = ("degree", "chart")

    def __new__(cls, *args, **kwargs):
        raise TypeError("build binary forms with BinaryForm.of or BinaryForm.from_json")

    @staticmethod
    def of(degree: int, coeffs: Iterable) -> "BinaryForm":
        cs = [_coerce(c) for c in coeffs]
        if degree < 0 or len(cs) != degree + 1:
            raise ValueError("a degree-d binary form needs exactly d+1 coefficients")
        f = _object_new(BinaryForm)
        object.__setattr__(f, "degree", degree)
        object.__setattr__(f, "chart", UniPoly.of(reversed(cs)))  # coefficient of z^j is cs[d-j]
        return f

    @property
    def coeffs(self) -> tuple[GaussianRational, ...]:
        """coeffs[k] is the coefficient of z0^(d-k) z1^k; exactly d+1 entries."""
        cs = self.chart.coeffs
        return (ZERO,) * (self.degree + 1 - len(cs)) + cs[::-1]

    @property
    def is_zero(self) -> bool:
        return self.chart.is_zero

    @property
    def zero_at_infinity(self) -> bool:
        """Whether f vanishes at [1:0], that is its z0^d coefficient is zero."""
        return len(self.chart.re) <= self.degree

    def to_json(self) -> dict:
        return {"degree": self.degree, "coeffs": [str(c) for c in self.coeffs]}

    @staticmethod
    def from_json(obj: dict) -> "BinaryForm":
        degree = integer(obj["degree"], "a form's degree")
        coeffs = array(obj["coeffs"], "a form's coeffs")
        return BinaryForm.of(degree, [GaussianRational.parse(c) for c in coeffs])


def resultant(f: BinaryForm, g: BinaryForm) -> GaussianRational:
    """Resultant at the declared degrees; zero iff f, g share a projective root over C.

    Euclidean remainder sequence in the chart z = z0/z1 (Cohen, A Course in
    Computational Algebraic Number Theory, 3.3): with lead(b) != 0 and
    k = deg(a mod b), Res_{m,n}(a, b) = (-1)^(mn) lead(b)^(m-k) Res_{n,k}(b, a mod b),
    ending at Res_{m,0}(a, c) = c^m.  No command calls it: ``coprime`` answers
    whether Res != 0, and this exact value is the tests' oracle for that rule.
    """
    if f.is_zero or g.is_zero:
        raise ExactArithmeticError("resultant of a zero form")
    m, n = f.degree, g.degree
    out = ONE
    if g.zero_at_infinity:  # g's chart degree drops
        if f.zero_at_infinity:
            return ZERO
        f, g, m, n = g, f, n, m
        if m * n % 2:
            out = -out
    a, b = f.chart, g.chart
    while n:
        r = a % b
        if r.is_zero:
            return ZERO
        k = r.degree
        out = out * b.leading() ** (m - k)
        if m * n % 2:
            out = -out
        a, b, m, n = b, r, n, k
    return out * b.leading() ** m


def coprime(f: BinaryForm, g: BinaryForm) -> bool:
    """Whether f and g share no projective zero over C, that is Res_{m,n}(f, g) != 0.

    Over a field that holds exactly when f and g do not both vanish at
    [1:0], and the gcd of their charts is constant.  The rule runs first in
    F_P, P in RESULTANT_PRIMES, on the forms scaled to Gaussian-integer
    coefficients: scaling f by c != 0 scales Res by c^n, and the image of Res
    is the Res of the images, so a constant gcd mod P proves Res != 0 at any
    coefficient height.  Only when no prime proves it does the rule run over
    Q(i), on the monic ``poly_gcd``, whose remainders grow far more slowly
    than ``resultant``'s (von zur Gathen and Gerhard, Modern Computer
    Algebra, ch. 6).
    """
    if f.is_zero or g.is_zero:
        raise ExactArithmeticError("coprimality of a zero form")
    if any(_coprime_mod(f, g, p, s) for p, s in RESULTANT_PRIMES):
        return True
    if f.zero_at_infinity and g.zero_at_infinity:
        return False
    return poly_gcd(f.chart, g.chart).degree == 0


# Primes P = 1 (mod 4), each with s, s^2 = -1 (mod P), so that a + bi -> a + bs
# mod P is a ring map from the Gaussian integers onto F_P (Collins, JACM 1971),
# defined on a chart's numerators whatever its denominator.  Below 2^30 a
# residue is one CPython int digit, and Euclid runs about twice as fast as
# with primes near 2^62.
RESULTANT_PRIMES = (
    (2**30 - 35, 140687844),
    (2**30 - 83, 289525921),
    (2**30 - 107, 33787048),
)


def _image_mod(form: BinaryForm, p: int, s: int) -> list[int]:
    """The chart's numerators mapped to F_p by i -> s, ascending, with no trailing zero."""
    out = [(u + v * s) % p for u, v in zip(form.chart.re, form.chart.im)]
    while out and not out[-1]:
        out.pop()
    return out


def _rem_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """a mod b in F_p[z], coefficients ascending, b[-1] != 0; no trailing zeros."""
    a = a[:]
    n = len(b) - 1
    inv = pow(b[-1], -1, p)
    low = [c * inv % p for c in b[:-1]]
    for i in range(len(a) - 1, n - 1, -1):
        t = a[i]
        if t:
            for j, c in enumerate(low, i - n):
                a[j] = (a[j] - t * c) % p
    del a[n:]
    while a and not a[-1]:
        a.pop()
    return a


def _coprime_mod(f: BinaryForm, g: BinaryForm, p: int, s: int) -> bool:
    """The rule of ``coprime`` on the images in F_p of f and g scaled to Gaussian integers.

    False when both images vanish at [1:0], their chart degrees below the
    declared ones; at declared degrees 0 and 0 that proves nothing, as Res = 1.
    """
    a, b = _image_mod(f, p, s), _image_mod(g, p, s)
    if len(a) <= f.degree and len(b) <= g.degree:
        return False
    while b:
        a, b = b, _rem_mod(a, b, p)
    return len(a) == 1


# ---------------------------------------------------------------------------
# rational functions and 1-forms


class RationalFunction(Value):
    """num/den in the affine chart; callers pass a monic den and at most simple poles."""

    __slots__ = ("num", "den")

    def residue_at(self, p: GaussianRational) -> GaussianRational:
        """Residue of (self) dz at z = p, where p is at most a simple pole.

        It is num(p)/den'(p) at a root of den: there den = (z - p) h with
        h(p) = den'(p).  Off the roots of den it is zero.  A pole of higher
        order (den'(p) = 0 as well) raises: every denominator here divides
        the squarefree vanishing polynomial of the punctures.
        """
        re, im, _ = self.den.parts_at(p)
        if re or im:  # den(p) != 0: no pole at p
            return ZERO
        a, b, e = self.den.derivative().parts_at(p)
        if not a and not b:
            raise ExactArithmeticError(f"pole of order at least 2 at {p}")
        c, f, g = self.num.parts_at(p)
        # ((c + fi)/g) / ((a + bi)/e) = e (c + fi)(a - bi) / (g (a^2 + b^2))
        return _canonical(e * (c * a + f * b), e * (f * a - c * b), g * (a * a + b * b))


class RationalOneForm(Value):
    """(num/den) dz in the affine chart, fn = num/den, with the invariant of ``RationalFunction``."""

    __slots__ = ("fn",)

    def residue_at(self, p: GaussianRational) -> GaussianRational:
        return self.fn.residue_at(p)

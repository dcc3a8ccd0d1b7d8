"""Exact Higgs-bundle data for n-noids in the complex hyperbolic plane.

Subpackages: exact Gaussian-rational arithmetic (exactnum), the punctured
sphere (sphere), the explicit Higgs field and its residues (nnoid),
parabolic stability (stability), CH^2 geometry and isometry
classification (ch2), and the cusp-strip finite-difference harness (cusp).
The input boundary they share sits here: ``InputError``, ``rational``, the
reader of every exact rational literal, ``integer``, the reader of every
JSON count and degree, ``number``, the reader of every JSON real, and
``array``, the reader of every JSON list.  Every immutable value class
derives from ``Value``, which writes once that its fields are its slots,
that none of them can be set, and that a value equals only a value of its
own class, field by field.  Each submodule is imported on first access as
``chnoids.<name>``, so a command loads only the modules it runs.
"""

import operator
import re as _re
import reprlib
import sys
from fractions import Fraction

__version__ = "0.1.0"

# digits allowed in a numerator or denominator that an exact literal gives or
# a certificate prints: the interpreter's default int-to-str limit, past which
# printing them would fail
MAX_CERTIFICATE_DIGITS = 4300


class InputError(ValueError):
    """Input outside a command's domain: ``chnoids`` exits 2 on it and its subclasses."""


# a decimal literal, in Fraction's syntax: integer digits, fraction digits and
# an optional exponent sign and exponent digits; compiled on first use
_DIGITS = r"(\d*|\d+(?:_\d+)*)"
_EXPONENT_LITERAL = rf"\s*[+-]?(?=\.?\d){_DIGITS}(?:\.{_DIGITS})?(?:[eE]([+-]?)(\d+(?:_\d+)*))?\s*"


def rational(x) -> Fraction:
    """x as a Fraction, from a Fraction, an int or a literal that Fraction reads.

    Fraction builds 10^|e| in full for an exponent e, and 10^k for k fraction
    digits, so a literal with a decimal point or an exponent is refused with
    an ``InputError``, before it is built, when the numerator or the
    denominator that Fraction would build from its mantissa and exponent has
    more than MAX_CERTIFICATE_DIGITS digits.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if not isinstance(x, str):
        raise TypeError(f"cannot coerce {x!r} to an exact rational")
    m = ("." in x or "e" in x or "E" in x) and _re.fullmatch(_EXPONENT_LITERAL, x)
    if m:
        whole, frac, sign, exp = (g.replace("_", "") for g in m.groups(""))
        limit = MAX_CERTIFICATE_DIGITS
        exp = exp.lstrip("0")
        e = int(exp or 0) if len(exp) <= len(str(limit)) else limit + 1  # longer is over anyway
        num = len((whole + frac).lstrip("0")) + (0 if sign == "-" else e)
        den = len(frac) + 1 + (e if sign == "-" else 0)
        if max(num, den) > limit:
            raise InputError(f"exact literal {reprlib.repr(x)} is over the limit of {limit} digits")
    return Fraction(x)


def integer(x, what: str) -> int:
    """x as a JSON count or degree: only a Python int that is not a bool.

    Anything else is an ``InputError``, 1.0 and "1" among them, so that it is
    neither truncated nor echoed into a certificate as given.
    """
    if x.__class__ is not int:
        raise InputError(f"{what} must be an integer, got {reprlib.repr(x)}")
    return x


def number(x, what: str):
    """x as a JSON real: only a Python int or float, not a bool, with |x| <= the largest float.

    Anything else is an ``InputError``, "1.0", true and a non-finite float
    among them, so that a string is not read as a number.  x is returned as
    given, so an integer stays an int.
    """
    if x.__class__ not in (int, float) or not abs(x) <= sys.float_info.max:
        raise InputError(f"{what} must be a finite number, got {reprlib.repr(x)}")
    return x


def array(x, what: str) -> list:
    """x as a JSON list: only a Python list.

    Anything else is an ``InputError``, a string or an object among them, so
    that it is not read item by item.
    """
    if x.__class__ is not list:
        raise InputError(f"{what} must be a list, got {reprlib.repr(x)}")
    return x


class Value:
    """An immutable value whose fields are its class's ``__slots__``, in order.

    ``Cls(*fields)`` sets every slot; a wrong field count is a ``TypeError``.
    No attribute can be set or deleted afterwards.  A value equals only a
    value of its own class with equal fields, and hashes as the tuple of
    its fields.  A value is not a tuple: it has no length, items or iterator.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = operator.attrgetter(*cls.__slots__)
        # attrgetter gives one field bare, so a one-field class wraps it in a tuple
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda v: (get(v),))

    def __new__(cls, *fields):
        names = cls.__slots__
        if len(fields) != len(names):
            raise TypeError(f"{cls.__name__} takes {len(names)} fields, got {len(fields)}")
        v = object.__new__(cls)
        for name, field in zip(names, fields):
            object.__setattr__(v, name, field)
        return v

    def __setattr__(self, *_):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={x!r}" for n, x in zip(self.__slots__, self._values(self)))
        return f"{self.__class__.__name__}({fields})"


_SUBMODULES = frozenset("cli exactnum linalg sphere nnoid stability ch2 cusp".split())


def __getattr__(name: str):
    """``chnoids.<name>`` for a submodule not imported yet: import it (PEP 562)."""
    if name in _SUBMODULES:
        __import__(f"{__name__}.{name}")  # which binds the submodule here
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Exact Higgs-bundle data for n-noids in the complex hyperbolic plane.

Subpackages: exact Gaussian-rational arithmetic (exactnum), the punctured
sphere (sphere), the explicit Higgs field and its residues (nnoid),
parabolic stability (stability), CH^2 geometry and isometry
classification (ch2), and the cusp-strip finite-difference harness (cusp).
The input boundary they share sits here: ``InputError``, ``literal``, the
exact literal grammar (README, "Literal grammar"), ``int_ratio``, its one
part reader, ``rational``, ``integer``, the reader of every JSON count and
degree, ``number``, the reader of every JSON real, and ``array``, the
reader of every JSON list.  Every immutable value class derives from
``Value``, which writes once that its fields are its slots, that none of
them can be set, and that a value equals only a value of its own class,
field by field.  Each submodule is imported on first access as
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


# The exact literal grammar, written out in the README's "Literal grammar"
# section.  ``literal`` matches a whole literal; its groups are the real part
# when an integer or n/d, the signed imaginary part after it, the imaginary
# part alone (each before an "i"), and the real part when a decimal.
_RATIO = r"[0-9]+(?:/[0-9]+)?"
_DECIMAL = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
literal = _re.compile(
    rf"([+-]?{_RATIO})(?:([+-](?:{_RATIO})?)i)?|([+-]?(?:{_RATIO}|{_DECIMAL})?)i|([+-]?{_DECIMAL})"
).fullmatch


def int_ratio(s: str) -> tuple[int, int]:
    """(n, d) with s = n/d, d possibly 0, for a part s of the grammar; else a ValueError."""
    if literal(s) is None or s.endswith("i"):
        raise ValueError(f"Invalid literal for Fraction: {s!r}")
    return part_ratio(s)


def part_ratio(s: str) -> tuple[int, int]:
    """``int_ratio(s)`` for a matched part s; an ``InputError``, before n or d is built, when
    a part has more than MAX_CERTIFICATE_DIGITS digits before "/" or ".", or n or d would:
    a decimal, its significant digits times 10^e over 10^k for k fraction digits."""
    limit = MAX_CERTIFICATE_DIGITS
    if "/" in s:
        n, _, d = s.partition("/")
        if len(s) > limit and max(len(n.lstrip("+-")), len(d)) > limit:
            raise _over_limit(s)
        return int(n), int(d)
    if len(s) <= limit or len(s.lstrip("+-")) <= limit:
        try:
            return int(s), 1
        except ValueError:
            pass  # a decimal: int reads every other part of the grammar
    elif s.lstrip("+-").isdigit():
        raise _over_limit(s)
    mantissa, _, exp = s.replace("E", "e").partition("e")
    whole, _, frac = mantissa.partition(".")
    digits = exp.lstrip("+-").lstrip("0")
    e = int(digits or 0) if len(digits) <= len(str(limit)) else limit + 1  # longer is over anyway
    up, down = (0, e) if exp[:1] == "-" else (e, 0)
    whole = whole.lstrip("+-")
    significant = (whole + frac).lstrip("0")
    if max(len(whole), len(significant) + up, len(frac) + 1 + down) > limit:
        raise _over_limit(s)
    n = int(significant or 0) * 10**up
    return -n if s[0] == "-" else n, 10 ** (len(frac) + down)


def _over_limit(s: str) -> InputError:
    return InputError(
        f"exact literal {reprlib.repr(s)} is over the limit of {MAX_CERTIFICATE_DIGITS} digits")


def rational(x) -> Fraction:
    """x as a Fraction, from a Fraction, an int or a part of the exact literal
    grammar, read by ``int_ratio``; a zero denominator is Fraction's
    ZeroDivisionError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if not isinstance(x, str):
        raise TypeError(f"cannot coerce {x!r} to an exact rational")
    return Fraction(*int_ratio(x))


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
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{self.__class__.__name__}({fields})"


_SUBMODULES = frozenset("cli exactnum linalg sphere nnoid stability ch2 cusp".split())


def __getattr__(name: str):
    """``chnoids.<name>`` for a submodule not imported yet: import it (PEP 562)."""
    if name in _SUBMODULES:
        __import__(f"{__name__}.{name}")  # which binds the submodule here
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

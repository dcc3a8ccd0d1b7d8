"""The package boundary: submodules imported on first access, and the values.

Each value class derives from ``chnoids.Value``: each value is immutable,
hashable and equal by value, equal to no instance of another class (neither
a plain tuple of its fields nor a value of another class), and not a tuple.
"""

import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import chnoids
from chnoids.ch2 import Matrix21
from chnoids.cli import random_nnoid_data
from chnoids.exactnum import GQ, BinaryForm, RationalFunction, RationalOneForm, UniPoly
from chnoids.sphere import make_log_form
from chnoids.stability import (
    MixedDegreeData,
    PunctureWeights,
    SurfaceData,
    WeightTriple,
    check_mixed_stability,
)

LAYERS = ("cli", "exactnum", "linalg", "sphere", "nnoid", "stability", "ch2", "cusp")

# Imports the bare package in a new interpreter, prints the chnoids modules
# loaded, then resolves each layer name given as chnoids.<name>.
LAZY_PROBE = """
import sys
import chnoids
print(*sorted(m for m in sys.modules if m.split(".")[0] == "chnoids"))
for name in sys.argv[1:]:
    assert getattr(chnoids, name) is sys.modules["chnoids." + name], name
try:
    chnoids.no_such_layer
except AttributeError as exc:
    print(exc)
"""


def test_each_layer_resolves_through_the_package_on_first_access():
    src = str(Path(chnoids.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", LAZY_PROBE, *LAYERS], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "chnoids", "module 'chnoids' has no attribute 'no_such_layer'"
    ]
    assert not hasattr(chnoids, "no_such_layer")


def _weights():
    return PunctureWeights.of(WeightTriple.of("0", "1/3", "1/2"), "1/3", None)


def _matrix():
    one, zero, i = GQ(1), GQ(0), GQ(0, 1)
    return Matrix21.exact([[one + i, zero, -i], [zero, one, zero], [i, zero, one - i]])


# each builds a fresh instance; two calls give equal, distinct values
RECORDS = {
    "GaussianRational": lambda: GQ(1, -2) / 3,
    "UniPoly": lambda: UniPoly.of([1, GQ(0, 1), Fraction(1, 2)]),
    "BinaryForm": lambda: BinaryForm.of(2, [1, 0, GQ(2, 1)]),
    "RationalFunction": lambda: RationalFunction(UniPoly.of([1]), UniPoly.of([-2, 1])),
    "RationalOneForm": lambda: RationalOneForm(RECORDS["RationalFunction"]()),
    "LogOneForm": lambda: make_log_form([GQ(0), GQ(1)], [GQ(1), GQ(-1)]),
    "NnoidData": lambda: random_nnoid_data(5, 1),
    "SurfaceData": lambda: SurfaceData(0, 5),
    "WeightTriple": lambda: _weights().weights,
    "PunctureWeights": _weights,
    "MixedDegreeData": lambda: MixedDegreeData.of(1, 2, [_weights(), _weights()]),
    "StabilityCertificate": lambda: check_mixed_stability(
        MixedDegreeData.of(1, 2, ()), SurfaceData(0, 5)
    ),
    "Matrix21": _matrix,
}


def _float_matrix():
    return Matrix21.floating(np.eye(3, dtype=complex))


# the value checks cover both backings of Matrix21
VALUES = {**RECORDS, "Matrix21 float": _float_matrix}


def test_every_value_class_is_checked_here():
    for layer in LAYERS:
        importlib.import_module(f"chnoids.{layer}")
    classes = {c.__name__ for c in chnoids.Value.__subclasses__()
               if c.__module__.startswith("chnoids.")}
    assert classes == set(RECORDS)


@pytest.mark.parametrize("name", VALUES)
def test_record_is_immutable_hashable_and_equal_by_value(name):
    x, y = VALUES[name](), VALUES[name]()
    assert type(x).__name__ == name.split()[0]
    assert x is not y
    assert x == y and not x != y
    assert hash(x) == hash(y)
    assert {x: 1}[y] == 1
    for field in x.__slots__:
        with pytest.raises(AttributeError):
            setattr(x, field, getattr(x, field))
        with pytest.raises(AttributeError):
            delattr(x, field)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x == y


@pytest.mark.parametrize("name", VALUES)
def test_value_is_not_a_tuple(name):
    x = VALUES[name]()
    with pytest.raises(TypeError):
        len(x)
    with pytest.raises(TypeError):
        iter(x)
    with pytest.raises(TypeError):
        x[0]


def test_float_matrix_backing_is_a_read_only_copy():
    rows = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    m = Matrix21.floating(rows)
    rows[0][0] = 2.0  # the caller's rows are not the backing
    assert m == _float_matrix() and hash(m) == hash(_float_matrix())
    with pytest.raises(TypeError):
        m.rows[0][0] = 2.0
    with pytest.raises(AttributeError):
        m.rows = rows
    assert m != Matrix21.floating(rows)


def test_repr_names_each_field():
    assert repr(SurfaceData(0, 5)) == "SurfaceData(genus=0, punctures=5)"
    assert repr(RECORDS["RationalOneForm"]()) == (
        "RationalOneForm(fn=RationalFunction(num=UniPoly(re=(1,), im=(0,), den=1), "
        "den=UniPoly(re=(-2, 1), im=(0, 0), den=1)))"
    )
    assert repr(RECORDS["GaussianRational"]()) == "GQ(1/3-2/3i)"


def test_a_wrong_field_count_is_a_type_error():
    third = Fraction(1, 3)
    assert WeightTriple(0, third, third).a3 == third
    with pytest.raises(TypeError, match="WeightTriple takes 3 fields, got 2"):
        WeightTriple(0, third)
    with pytest.raises(TypeError, match="WeightTriple takes 3 fields, got 4"):
        WeightTriple(0, third, third, third)


@pytest.mark.parametrize("name", VALUES)
def test_record_equals_no_instance_of_another_class(name):
    x = VALUES[name]()
    values = tuple(getattr(x, f) for f in x.__slots__)
    others = [values, *(make() for other, make in VALUES.items() if other != name)]
    for other in others:
        assert x != other and not x == other
        assert other != x and not other == x


def test_unipoly_times_an_int_is_polynomial_arithmetic_on_either_side():
    p = UniPoly.of([1, GQ(2, -1)])
    assert p * 3 == 3 * p == UniPoly.of([3, GQ(6, -3)])
    assert p + p == 2 * p
    assert (-1) * p == -p
    with pytest.raises(TypeError):
        len(p)
    with pytest.raises(TypeError):
        iter(p)
    with pytest.raises(TypeError):
        UniPoly((1,), (0,), 1)  # only the canonical builders make a polynomial

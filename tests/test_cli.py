"""Tests of the chnoids command line.

Every pinned output, a certificate's digest or an error line, is a case of
the corpus in tests/corpus/cases.json, checked by ``corpus.run.check``;
the tests below look cases up by name.
"""

import copy
import importlib
import json
import math
import os
import pkgutil
import reprlib
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chnoids
from chnoids import ch2, cli, exactnum, linalg, nnoid
from chnoids.cli import main, random_nnoid_data
from chnoids.exactnum import GaussianRational, UniPoly
from chnoids.nnoid import NnoidData
from corpus import run as corpus
from corpus import writer
from corpus.inputs import literal_matrix, literal_weights, nnoid_json, prime_weights
from test_exactnum import LITERAL_CORPUS


def run(argv: list, obj=None) -> tuple[int, str, str]:
    """corpus.run(argv) with the JSON of obj, if given, on stdin."""
    return corpus.run(argv, "" if obj is None else json.dumps(obj))


def test_nnoid_random_deterministic():
    code, out, _ = run(["nnoid", "random", "5", "--seed", "42"])
    assert code == 0
    code2, out2, _ = run(["nnoid", "random", "5", "--seed", "42"])
    assert out == out2
    data = NnoidData.from_json(json.loads(out))
    assert data.n == 5


def test_nnoid_random_n4():
    code, out, _ = run(["nnoid", "random", "4", "--seed", "1"])
    assert code == 0
    assert NnoidData.from_json(json.loads(out)).n == 4


# the sampler's puncture pool has 55 points
@pytest.mark.parametrize("n", [56, 64])
def test_nnoid_random_over_pool_exits_2(n):
    code, out, err = run(["nnoid", "random", str(n)])
    assert code == 2
    assert out == ""
    assert err == "error: nnoid random draws at most 55 punctures\n"


def test_nnoid_check_pipeline():
    code, out, err = run(["nnoid", "check", "-"], random_nnoid_data(5, 3).to_json())
    assert code == 0
    cert = json.loads(out)
    assert cert["status"] == "stable"
    assert all(c["passed"] for c in cert["checks"])
    assert all(r["end_type"] == "II" for r in cert["residues"])
    assert "status: stable" in err


def test_nnoid_check_n4_semistable():
    code, out, _ = run(["nnoid", "check", "-"], random_nnoid_data(4, 5).to_json())
    assert code == 0
    assert json.loads(out)["status"] == "strictly-semistable"


def test_nnoid_check_bad_input():
    data = random_nnoid_data(5, 9)
    obj = data.to_json()
    # q vanishing at the puncture z = p1: q = (z0 - p1 z1) z1^2
    p1 = GaussianRational.parse(obj["punctures"][0])
    obj["q"] = {"degree": 3, "coeffs": ["0", "0", "1", str(-p1)]}
    code, _, err = run(["nnoid", "check", "-"], obj)
    assert code == 2
    assert "error" in err

    obj["q"] = {"degree": 2, "coeffs": ["1", "0", "1"]}  # wrong degree
    code, _, _ = run(["nnoid", "check", "-"], obj)
    assert code == 2

    good = data.to_json()
    for key, value in (
        ("residues", ["1/0"] * 5),
        ("punctures", 5),
        ("punctures", [1, 2, 3, 4, 5]),
        ("residues", [1, 2, 3, 4, -10]),
        ("g1", {"degree": 1, "coeffs": [1, 2]}),
        ("punctures", ["inf"] + good["punctures"][1:]),
        ("punctures", ["oo"] + good["punctures"][1:]),
        ("punctures", ["infinity"] + good["punctures"][1:]),
    ):
        code, _, err = run(["nnoid", "check", "-"], dict(good, **{key: value}))
        assert code == 2
        assert "Traceback" not in err


CASES = corpus.load()
FRACTIONAL_NNOID = json.loads(corpus.stdin_text(CASES["fractional-nnoid-check"]))


def pinned(prefix: str, ident=lambda rest, case: rest) -> list:
    """The corpus cases named prefix + rest, as parameters with the ids ident(rest, case)."""
    return [pytest.param(case, id=ident(name[len(prefix):], case))
            for name, case in CASES.items() if name.startswith(prefix)]


def check_each(params: list):
    """A test that checks each corpus case of params."""
    @pytest.mark.parametrize("case", params)
    def test(case):
        corpus.check(case)

    return test


# The corpus in groups by the prefix of the case names; test_output_pinned
# checks every other case.  region-limit sits at MAX_STABILITY_WORK, and n = 715
# is the largest n whose certificate printed before the digit limit.
test_nnoid_check_certificate_pinned = check_each(pinned("nnoid-check-"))
test_ch2_classify_certificate_pinned = check_each(pinned("classify-"))
test_stability_region_pinned = check_each(pinned("region-"))
test_stability_check_fractional_pinned = check_each(
    pinned("fractional-check-", lambda rest, case: "({}, {})".format(*rest.split("-"))))
test_seeded_weighted_pinned = check_each(pinned("seeded-", lambda rest, case: rest.replace("-", " ")))
test_stability_check_digit_limit = check_each(pinned(
    "digit-limit-", lambda rest, case: f"{rest}-{case['pin'] if case['exit'] == 0 else None}"))
GROUPED = ("nnoid-check-", "classify-", "region-", "fractional-", "seeded-", "digit-limit-", "literal-")
test_output_pinned = check_each(
    [pytest.param(case, id=name) for name, case in CASES.items() if not name.startswith(GROUPED)])


def test_nnoid_check_fractional_certificate_pinned():
    corpus.check(CASES["fractional-nnoid-check"])


# the refused-literal cases, a ch2 classify and a stability check of each literal
REFUSED = {}
for _name, _case in CASES.items():
    if _name.startswith("literal-"):
        REFUSED.setdefault(_case["stdin"][1], []).append(_case)


def test_refused_literal_pins_cover_the_corpus():
    refused = []
    for literal in LITERAL_CORPUS:
        try:
            GaussianRational.parse(literal)
        except ValueError:
            refused.append(literal)
    assert refused == list(REFUSED)
    for cases in REFUSED.values():
        assert [case["argv"][:2] for case in cases] == [["ch2", "classify"], ["stability", "check"]]


@pytest.mark.parametrize("literal", list(REFUSED), ids=reprlib.repr)
def test_refused_literal_error_lines_pinned(literal):
    for case in REFUSED[literal]:
        corpus.check(case)


def test_no_str_reaches_fraction(monkeypatch):
    """Every exact literal of the corpus is read into ints by the grammar's one
    part reader: while every case runs, Fraction is never given a str."""
    new, given = Fraction.__new__, []

    def recorded(cls, *args, **kwargs):
        given.extend(arg for arg in args if isinstance(arg, str))
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", recorded)
    for case in CASES.values():
        corpus.check(case)
    assert given == []


def refuse(monkeypatch, *targets):
    """Make each attribute (owner, name) of targets raise when it is called."""
    for owner, name in targets:
        def refused(*args, what=f"{owner.__name__}.{name}", **kwargs):
            raise AssertionError(f"called {what}")

        monkeypatch.setattr(owner, name, refused)


# the n = 7 input has fractional punctures, residues and form coefficients, so
# every exact kernel works over a common denominator other than 1
CERTIFICATES = [*pinned("nnoid-check-"),
                pytest.param(CASES["fractional-nnoid-check"], id="fractional")]


@pytest.mark.parametrize("case", CERTIFICATES)
def test_nnoid_check_avoids_mat_mul_and_divmod(case, monkeypatch):
    """The pinned nnoid check certificates come out with linalg.mat_mul and
    UniPoly.divmod refused, so no second residue or nilpotency path is left,
    and parsing decides "g1 and g2 share no zero" without the Q(i) resultant."""
    refuse(monkeypatch, (UniPoly, "divmod"), (linalg, "mat_mul"))
    corpus.check(case)


@pytest.mark.parametrize("case", CERTIFICATES)
def test_nnoid_check_makes_no_puncture_lookup(case, monkeypatch):
    """From build_higgs to the certificate, nnoid check reads each r_p with its
    puncture, in order: it never calls GaussianRational.__eq__, which a lookup
    by puncture would, once per earlier puncture."""
    build = nnoid.build_higgs

    def build_then_refuse(data):
        s = build(data)
        refuse(monkeypatch, (GaussianRational, "__eq__"))
        return s

    monkeypatch.setattr(nnoid, "build_higgs", build_then_refuse)
    corpus.check(case)


@pytest.mark.parametrize("declared", [7.0, "7", True], ids=["float", "string", "bool"])
def test_nnoid_check_declared_n_must_be_an_integer(declared):
    """The declared n is read as a JSON count: 7.0, "7" and true are refused
    as such, though the data has 7 punctures."""
    assert run(["nnoid", "check", "-"], dict(FRACTIONAL_NNOID, n=declared)) == (
        2, "", f"error: n must be an integer, got {reprlib.repr(declared)}\n")


def shared_factor_input(a: int) -> dict:
    """n = 5 data with g1 = z0 - a z1 and g2 = z0 (z0 - (a - 1) z1), so that
    Res(g1, g2) = a (a - (a - 1)) = a up to sign."""
    obj = nnoid_json(5)
    obj["g1"] = {"degree": 1, "coeffs": ["1", str(-a)]}
    obj["g2"] = {"degree": 2, "coeffs": ["1", str(1 - a), "0"]}
    return obj


def fallback_input(primes: int) -> dict:
    """shared_factor_input whose Res is the product of the first ``primes`` primes."""
    return shared_factor_input(math.prod(p for p, _ in exactnum.RESULTANT_PRIMES[:primes]))


# Res = P1 vanishes mod the first prime only, and Res = P1 P2 P3 mod all of
# them, so no prime proves g1, g2 coprime and the Q(i) gcd decides; both exit 0.
@pytest.mark.parametrize("primes, exact_calls", [(1, 0), (3, 1)])
def test_nnoid_check_resultant_fallback(primes, exact_calls, monkeypatch):
    calls = []
    monkeypatch.setattr(exactnum, "poly_gcd",
                        lambda a, b, gcd=exactnum.poly_gcd: calls.append(1) or gcd(a, b))
    code, out, _ = run(["nnoid", "check", "-"], fallback_input(primes))
    assert (code, json.loads(out)["status"], len(calls)) == (0, "stable", exact_calls)


# No command reaches the exact resultant: the pinned certificates and both
# fallback inputs come out the same with it refused under either name.
@pytest.mark.parametrize(
    "case", [*CERTIFICATES, *(pytest.param(k, id=f"fallback-{k}") for k in (1, 3))])
def test_nnoid_check_never_calls_resultant(case, monkeypatch):
    refuse(monkeypatch, (exactnum, "resultant"), (nnoid, "resultant"))
    if isinstance(case, dict):
        corpus.check(case)
    else:
        code, out, _ = run(["nnoid", "check", "-"], fallback_input(case))
        assert (code, json.loads(out)["status"]) == (0, "stable")


# generic linear algebra, and the polynomial gcd over Q(i) with its remainders
CLASSIFY_REFUSED = [(linalg, "minimal_polynomial"), (linalg, "charpoly"), (linalg, "mat_mul"),
                    (linalg, "_echelon"), (UniPoly, "divmod"), (ch2, "poly_gcd")]


@pytest.mark.parametrize("case", pinned("classify-"))
def test_exact_classify_avoids_generic_linalg(case, monkeypatch):
    refuse(monkeypatch, *CLASSIFY_REFUSED)
    corpus.check(case)


REGION_INPUT = CASES["stability-region"]["stdin"][1]
REGION_WEIGHTS = REGION_INPUT["weights"]
STABLE = CASES["stability-check-stable"]["stdin"][1]
IDENTITY = literal_matrix("1")


# Every certificate is written by cli._encode, which must give json.dumps(x,
# indent=2)'s bytes: on floats at the edges of binary64, ints past 2^64,
# strings that need escapes, np.float64 leaves and every key class json reads.
EDGE_FLOATS = st.one_of(
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308])
)
# A table (two or more non-empty rows of scalars, all arrays or all dicts) is
# written by one C encoder call and split at "],\x00[" or "},\x00{", so
# strings hold those separators.
SEPARATORS = st.lists(st.sampled_from(["],", "},", ",", '"', "\\", "\x00", "[", "{", "]", "}"]),
                      max_size=5).map("".join)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2**64, max_value=2**200),
    EDGE_FLOATS, st.text(), st.text(st.sampled_from('a"\\/\x00\x1f\x7f\n\té€\U0001f600')), SEPARATORS,
)
LEAVES = st.one_of(SCALARS, EDGE_FLOATS.map(np.float64))
KEYS = st.one_of(st.text(max_size=4), st.integers(), EDGE_FLOATS, st.booleans(), st.none())


def lists_and_tuples(items, **size):
    return st.one_of(st.lists(items, **size), st.lists(items, **size).map(tuple))


ARRAY_ROWS = lists_and_tuples(SCALARS, min_size=1, max_size=4)
DICT_ROWS = st.dictionaries(st.one_of(KEYS, SEPARATORS), SCALARS, min_size=1, max_size=4)
# an empty row, or a row with a np.float64 cell, makes its list no table
ODD_ROWS = st.one_of(st.just([]), st.just({}), lists_and_tuples(LEAVES, max_size=4))
TABLES = st.one_of(
    lists_and_tuples(ARRAY_ROWS, min_size=2, max_size=40),
    lists_and_tuples(DICT_ROWS, min_size=2, max_size=40),
    # near misses: no row, one row, list and dict rows mixed, odd rows
    lists_and_tuples(st.one_of(ARRAY_ROWS, DICT_ROWS, ODD_ROWS), max_size=4),
)
TREES = st.recursive(st.one_of(LEAVES, TABLES), lambda inner: st.one_of(
    lists_and_tuples(inner, max_size=6), st.dictionaries(KEYS, inner, max_size=6),
), max_leaves=40)


def under_dicts(tables, levels: int):
    for _ in range(levels):
        tables = st.dictionaries(KEYS, tables, min_size=1, max_size=2)
    return tables


@settings(max_examples=300, deadline=None)
@given(TREES)
def test_writer_matches_json_dumps_indent_2(tree):
    assert cli._encode(tree) == json.dumps(tree, indent=2)


@settings(max_examples=200, deadline=None)
@given(st.one_of(*(under_dicts(TABLES, levels) for levels in range(4))))
def test_writer_writes_tables_as_json_dumps_indent_2(tree):
    assert cli._encode(tree) == json.dumps(tree, indent=2)


def test_writer_differential_on_seeded_trees():
    # the stdlib differential that CI runs on every floor Python
    assert writer.main(["39", "2000"]) == 0


@pytest.mark.parametrize("obj", [
    [1.5, Fraction(1, 3)],
    {"checks": [{"passed": np.bool_(True)}]},
    {(1, 2): 0},
    {"a": {(1, 2): [0]}},
    [[1, 2], [3, Fraction(1, 3)]],
    [{"a": 1}, {(1, 2): 0}],
], ids=["fraction-leaf", "numpy-bool-leaf", "tuple-key", "nested-tuple-key", "fraction-in-table-row",
        "tuple-key-in-table-row"])
def test_writer_refuses_what_json_refuses(obj):
    with pytest.raises(TypeError) as want:
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError) as got:
        cli._encode(obj)
    assert str(got.value) == str(want.value)


def test_stability_region_csv_pinned(tmp_path):
    case, csv = CASES["stability-region"], tmp_path / "region.csv"
    code, out, err = corpus.run([*case["argv"], "--csv", str(csv)], corpus.stdin_text(case))
    assert corpus.observed(case, code, out, err) == corpus.pinned(case)
    region = json.loads(out)["region"]
    assert csv.read_text() == "d1,d2\n" + "".join(f"{d1},{d2}\n" for d1, d2 in region)


def test_nnoid_check_missing_file():
    code, _, err = run(["nnoid", "check", "/nonexistent.json"])
    assert code == 2


def test_stability_check_stable():
    code, out, _ = run(["stability", "check", "-"], STABLE)
    assert code == 0
    cert = json.loads(out)
    assert cert["status"] == "stable"
    assert cert["stability"]["expanded_1"] == {"lhs": "4", "rhs": "9"}


def test_stability_check_weights():
    code, out, _ = run(["stability", "check", "-"], literal_weights("0"))
    assert code in (0, 1)
    assert json.loads(out)["status"] in ("stable", "strictly-semistable", "unstable")


def test_stability_check_unstable_exit():
    code, out, _ = run(["stability", "check", "-"], {"genus": 0, "n": 5, "d1": 5, "d2": 5})
    assert code == 1
    assert json.loads(out)["status"] == "unstable"


def test_stability_check_bad_weights():
    obj = {"genus": 0, "n": 5, "d1": 1, "d2": 2, "weights": [{"triple": ["0", "0"]}] * 5}
    code, _, _ = run(["stability", "check", "-"], obj)
    assert code == 2


def test_stability_region(tmp_path):
    csv = tmp_path / "region.csv"
    code, out, _ = run(["stability", "region", "-", "--csv", str(csv)], {"genus": 0, "n": 5, "dmax": 3})
    assert code == 0
    region = [tuple(p) for p in json.loads(out)["region"]]
    expected = [
        (d1, d2) for d1 in range(4) for d2 in range(4) if 2 * d1 + d2 < 9 and d1 + 2 * d2 < 9
    ]
    assert region == expected
    assert csv.read_text().splitlines()[0] == "d1,d2"


def test_ch2_classify():
    code, out, _ = run(["ch2", "classify", "-"], IDENTITY)
    assert code == 0
    assert json.loads(out)["classification"] == "elliptic"


def test_ch2_classify_float_backing():
    c, s = math.cosh(1.0), math.sinh(1.0)
    obj = {"matrix": [[f"{c}", "0.0", f"{s}"], ["0.0", "1.0", "0.0"], [f"{s}", "0.0", f"{c}"]]}
    code, out, _ = run(["ch2", "classify", "-"], obj)
    assert code == 0
    assert json.loads(out)["classification"] == "loxodromic"
    # --exact must refuse the float matrix
    code, _, _ = run(["ch2", "classify", "-", "--exact"], obj)
    assert code == 2


# A* J A = J is decided within tol + 64u max(|A|^T |A|), which reaches 1/2 at
# column norm 2^23: boost(16)'s column norm is 6.3e6, boost(17)'s 1.7e7
def test_ch2_classify_boost_sweep():
    for t in range(24):
        code, out, err = run(["ch2", "classify", "-"], ch2.boost(t).to_json())
        if t <= 16:
            assert code == 0, t
            assert json.loads(out)["classification"] == ("elliptic" if t == 0 else "loxodromic")
        else:
            assert code == 2, t
            assert err == ("error: the form cannot be decided at this scale: "
                           "64u max(|A|^T |A|) >= 1/2, u = 2^-53\n")


def test_ch2_classify_not_form_preserving():
    code, _, _ = run(["ch2", "classify", "-"], literal_matrix("2"))
    assert code == 2
    # malformed entries are input errors too
    for entry in ("1/0", "abc"):
        matrix = [["1", "0", "0"], ["0", entry, "0"], ["0", "0", "1"]]
        code, _, err = run(["ch2", "classify", "-"], {"matrix": matrix})
        assert code == 2
        assert "Traceback" not in err


def test_ch2_distance():
    obj = {"z": ["0", "0", "1"], "w": [f"{math.sinh(1.0)}", "0", f"{math.cosh(1.0)}"]}
    code, out, _ = run(["ch2", "distance", "-"], obj)
    assert code == 0
    assert abs(json.loads(out)["distance"] - 2.0) < 1e-9


# a coordinate is read as ch2 classify reads a float entry, spaces around the
# sign included; "0.1 + 0.2i" used to exit 2
@pytest.mark.parametrize("literal", ["0.1 + 0.2i", "0.1+0.2i", " 0.1 +0.2 i"])
def test_ch2_distance_reads_complex_literals_as_classify_does(literal):
    code, out, _ = run(["ch2", "distance", "-"], {"z": [literal, "0", "1"], "w": ["0", "0", "1"]})
    assert code == 0
    assert json.loads(out)["distance"] == ch2.distance([0.1 + 0.2j, 0, 1], [0, 0, 1])


SMALL_GRID = {"Nx": 8, "Ny": 8, "Y": 1.0, "Ymax": 5.0}


def with_degree(n: int, form: str, degree) -> dict:
    obj = nnoid_json(n)
    obj[form]["degree"] = degree
    return obj


def weights_json(triple, **flags) -> list[dict]:
    return [{"triple": triple, **flags}] * 5


# a string is written as it stands, so that it can hold literals such as
# 1e400 that json.dumps would not write
@pytest.mark.parametrize(
    "command, obj",
    [
        ("ch2 distance", [1]),
        ("ch2 distance", {"z": 5, "w": ["0", "0", "1"]}),
        ("cusp verify", [1]),
        ("cusp verify", {"grid": SMALL_GRID, "spec": 5}),
        ("cusp verify", {"grid": SMALL_GRID, "spec": {"modes": [[1, "a", 0.0]]}}),
        ("cusp verify", {"grid": SMALL_GRID, "spec": {"modes": [], "poly": [0.0, 0.0]}}),
        ("stability check", {"genus": 0, "n": 5, "d1": 1, "d2": 2,
                             "weights": weights_json(["0", "0", "1/0"])}),
        ("stability check", {"genus": 0, "n": 5, "d1": 1, "d2": 2,
                             "weights": weights_json(["0", "0", "1/2"], beta="1/0")}),
        ("stability check", '{"genus": 0, "n": 5, "d1": 1e400, "d2": 2}'),
        ("stability region", '{"genus": 0, "n": 5, "dmax": 1e400}'),
        ("cusp verify", '{"grid": {"Nx": 1e400, "Ny": 8, "Y": 1.0, "Ymax": 5.0}}'),
        ("cusp verify", {"grid": {"Nx": 8, "Ny": 8, "Y": 1.0, "Ymax": 1e308}}),
        ("cusp verify", '{"grid": {"Nx": 8, "Ny": 8, "Y": 1.0, "Ymax": 5.0},'
                        ' "spec": {"modes": [[1e400, 1, 0]]}}'),
        pytest.param("nnoid check", "[" * 100000, id="nnoid check-deeply-nested"),
        # over the size limits
        ("nnoid check", nnoid_json(65)),
        ("stability check", {"genus": 0, "n": 10**5 + 1, "d1": 1, "d2": 2}),
        ("stability region", {"genus": 0, "n": 5, "dmax": 10**8}),
        ("cusp verify", {"grid": {"Nx": 100000, "Ny": 100000, "Y": 1.0, "Ymax": 5.0}}),
        (
            "cusp verify",
            {
                "grid": {"Nx": 1024, "Ny": 1024, "Y": 1.0, "Ymax": 5.0},
                "spec": {"modes": [[1, 0.1, 0.0]] * 17, "poly": [0.0, 0.0, 0.0]},
            },
        ),
        # a fractional or boolean count or degree is refused, not truncated
        ("stability region", {"genus": 0, "n": 5, "dmax": 3.7}),
        ("stability region", {"genus": 0, "n": 5, "dmax": True}),
        ("stability region", {"genus": 1.5, "n": 5, "dmax": 3}),
        ("stability region", {"genus": 0, "n": 5.5, "dmax": 3}),
        ("stability check", {"genus": 0, "n": 5, "d1": 1.5, "d2": 2}),
        ("stability check", {"genus": 0, "n": 5, "d1": 1, "d2": False}),
        ("stability check", {"genus": True, "n": 5, "d1": 1, "d2": 2}),
        ("cusp verify", {"grid": {"Nx": 8.7, "Ny": 8, "Y": 1.0, "Ymax": 5.0}}),
        ("cusp verify", {"grid": {"Nx": 8, "Ny": True, "Y": 1.0, "Ymax": 5.0}}),
        # so is a form's, even 1.0, which the certificate would echo as given
        ("nnoid check", with_degree(5, "g1", 1.0)),
        ("nnoid check", with_degree(5, "g1", True)),
        ("nnoid check", with_degree(4, "g2", 1.0)),
        ("nnoid check", with_degree(4, "g2", True)),
        ("nnoid check", with_degree(5, "q", 3.0)),
        ("nnoid check", with_degree(5, "q", True)),
        # and a count or degree given as a float or a string, which the
        # certificate would echo as given; a boolean Y or Ymax would read 1.0
        ("stability check", {"genus": 0.0, "n": 5, "d1": 1, "d2": 2}),
        ("stability check", {"genus": 0, "n": 5, "d1": 1.0, "d2": 2}),
        ("stability check", {"genus": 0, "n": 5, "d1": "1", "d2": 2}),
        ("stability check", {"genus": 0, "n": "5", "d1": 1, "d2": 2}),
        ("stability region", {"genus": 0, "n": 5.0, "dmax": 3}),
        ("stability region", {"genus": 0, "n": 5, "dmax": "3"}),
        ("cusp verify", {"grid": {"Nx": 8.0, "Ny": 8, "Y": 1.0, "Ymax": 5.0}}),
        ("cusp verify", {"grid": {"Nx": 8, "Ny": "8", "Y": 1.0, "Ymax": 5.0}}),
        ("cusp verify", {"grid": {"Nx": 8, "Ny": 8, "Y": True, "Ymax": 5.0}}),
        ("cusp verify", {"grid": {"Nx": 8, "Ny": 8, "Y": 0.5, "Ymax": True}}),
        # a string where a list belongs is refused, not read character by character
        ("nnoid check", {**nnoid_json(5), "punctures": "01234"}),
        ("nnoid check", {**nnoid_json(5), "g1": {"degree": 1, "coeffs": "12"}}),
        ("ch2 classify", {"matrix": ["100", "010", "001"]}),
        ("ch2 distance", {"z": "001", "w": ["0", "0", "1"]}),
        ("stability check", {"genus": 0, "n": 5, "d1": 1, "d2": 2,
                             "weights": weights_json("000")}),
        # a field whose slacks overflow, which the certificate would print as Infinity
        ("cusp verify", {"grid": {"Nx": 8, "Ny": 8, "Y": 1.0, "Ymax": 2.0},
                         "spec": {"modes": [[1, 1e300, 0]], "poly": [0, 0, 0]}}),
        ("cusp verify", {"grid": {"Nx": 8, "Ny": 8, "Y": 1.0, "Ymax": 2.0},
                         "spec": {"modes": [[1, 1e250, 0]], "poly": [0, 0, 0]}}),
        # a boolean spec number, which the certificate would echo as given
        ("cusp verify", {"grid": SMALL_GRID,
                         "spec": {"modes": [[True, 1, False]], "poly": [0, False, True]}}),
        # a string Y or Ymax, which float() would read
        ("cusp verify", {"grid": {"Nx": 8, "Ny": 8, "Y": "1.0", "Ymax": 5.0}}),
        ("cusp verify", {"grid": {"Nx": 8, "Ny": 8, "Y": 1.0, "Ymax": "5"}}),
    ],
)
def test_malformed_json_exits_2(command, obj):
    text = obj if isinstance(obj, str) else json.dumps(obj)
    code, _, err = corpus.run([*command.split(), "-"], text)
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("error:")


def test_cusp_verify():
    obj = {
        "grid": {"Nx": 64, "Ny": 64, "Y": 1.0, "Ymax": 10.0},
        "spec": {"modes": [[1, 0.5, 0.0]], "poly": [0.0, 0.1, 0.2]},
    }
    code, out, _ = run(["cusp", "verify", "-"], obj)
    assert code == 0
    cert = json.loads(out)
    assert cert["status"] == "pass"
    assert cert["convexity"]["passed"] and cert["sup_bound"]["passed"]


def test_cusp_verify_seeded():
    obj = {"grid": {"Nx": 64, "Ny": 64, "Y": 1.0, "Ymax": 10.0}}
    code, out, _ = run(["cusp", "verify", "-", "--seed", "5"], obj)
    assert code == 0
    code2, out2, _ = run(["cusp", "verify", "-", "--seed", "5"], obj)
    assert out == out2


def test_out_flag(tmp_path):
    dst = tmp_path / "cert.json"
    code, out, _ = run(["stability", "check", "-", "--out", str(dst)], STABLE)
    assert code == 0
    assert out == ""
    assert json.loads(dst.read_text())["status"] == "stable"


UNREAD_FLAGS = {
    "nnoid check in.json": ("--seed 1", "--tol 1e-3", "--exact"),
    "nnoid random 5": ("--tol 1e-3", "--exact"),
    "stability check in.json": ("--seed 1", "--tol 1e-3", "--exact"),
    "stability region in.json": ("--seed 1", "--tol 1e-3", "--exact"),
    "ch2 classify in.json": ("--seed 1",),
    "ch2 distance in.json": ("--seed 1", "--tol 1e-3", "--exact"),
    "cusp verify in.json": ("--exact",),
}


# a subcommand refuses every flag it does not read
@pytest.mark.parametrize(
    "argv", [f"{command} {flag}" for command, flags in UNREAD_FLAGS.items() for flag in flags]
)
def test_unread_flag_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2


# argvs that argparse refuses or answers itself: unread flags, bad --tol values,
# help, the version, a missing positional or value, "--", abbreviations, and
# words that name no command
PARSER_ARGVS = [
    *(f"{command} {flag}" for command, flags in UNREAD_FLAGS.items() for flag in flags),
    *(f"ch2 classify in.json --tol{sep}{tol}" for tol in ("nan", "-1", "1e400", "x")
      for sep in (" ", "=")),
    "--help", "-h", "--version", "", "nnoid", "nnoid chk in.json", "check nnoid in.json",
    *(f"{command} --help" for command in cli.COMMANDS), "nnoid check in.json -h",
    "nnoid check in.json --version", "nnoid check", "nnoid check in.json --out",
    "nnoid check -- in.json x", "nnoid check in.json --o", "cusp verify in.json --se x",
    "nnoid check in.json --=x", "ch2 classify in.json --=x --ver",
]


@pytest.mark.parametrize("argv", PARSER_ARGVS)
def test_main_parses_as_the_whole_tree(argv, capsys):
    """main sends an argv that names a command to that command's subparser; its
    exit code, stdout and stderr are still those of the whole argparse tree."""
    outcomes = []
    for parse in (main, cli.build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv.split())
        outcomes.append((exc.value.code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]


# every flag each subcommand reads, with inputs that pass
KEPT_FLAGS = {
    "nnoid check": (nnoid_json(5), []),
    "nnoid random": (None, ["5", "--seed", "3"]),
    "stability check": (STABLE, []),
    "stability region": (REGION_INPUT, ["--csv", "region.csv"]),
    "ch2 classify": (IDENTITY,
                     ["--tol", "1e-8", "--exact"]),
    "ch2 distance": ({"z": ["0", "0", "1"], "w": ["0.5", "0", "1"]}, []),
    "cusp verify": ({"grid": SMALL_GRID}, ["--seed", "2", "--tol", "0.5"]),
}


@pytest.mark.parametrize("command", sorted(KEPT_FLAGS))
def test_read_flags_accepted(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config, flags = KEPT_FLAGS[command]
    inputs = ["-"] if config is not None else []
    code, out, _ = run([*command.split(), *inputs, *flags, "--out", "out.json"], config)
    assert code == 0
    assert out == ""
    assert json.loads((tmp_path / "out.json").read_text())
    if "--csv" in flags:
        assert (tmp_path / "region.csv").read_text().startswith("d1,d2\n")


def test_unwritable_output_exits_2(tmp_path):
    missing = str(tmp_path / "no-such-dir" / "x")
    for flags in (["stability", "check", "-", "--out", missing],
                  ["stability", "region", "-", "--csv", missing]):
        code, _, err = run(flags, STABLE)
        assert code == 2
        assert err.startswith("error:")


def test_parser_built_once():
    assert cli.build_parser() is cli.build_parser()


# --version, --help and a refused flag leave through SystemExit from the
# shared parser; a later command must not see anything they left behind
def test_parser_exits_leave_later_certificates_unchanged(capsys):
    before = run(["nnoid", "check", "-"], nnoid_json(6))
    for exiting in (["--version"], ["--help"], ["nnoid", "check", "-", "--seed", "1"]):
        with pytest.raises(SystemExit):
            main(exiting)
        capsys.readouterr()
    assert run(["nnoid", "check", "-"], nnoid_json(6)) == before
    assert before[0] == 0


# Exceptions that mean a fault in chnoids, never an input error
FAULTS = {"ExactArithmeticError", "InternalDisagreement"}


def module_exceptions() -> list[type[BaseException]]:
    """Every exception class defined in a chnoids module."""
    modules = [chnoids] + [importlib.import_module(f"chnoids.{info.name}")
                           for info in pkgutil.iter_modules(chnoids.__path__)]
    return [obj for module in modules for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__]


def test_module_errors_are_input_errors():
    found = module_exceptions()
    faults = {cls.__name__ for cls in found if not issubclass(cls, chnoids.InputError)}
    assert faults == FAULTS
    assert cli.InputError is chnoids.InputError
    assert {"CH2Error", "CuspGridError", "NnoidDataError", "SphereError",
            "StabilityError"} <= {cls.__name__ for cls in found}


def raise_from_build_higgs(monkeypatch, exc_type):
    def build_higgs(data):
        raise exc_type("raised by build_higgs")

    monkeypatch.setattr(nnoid, "build_higgs", build_higgs)


# a module's input error raised while a handler runs exits 2 with one line
@pytest.mark.parametrize(
    "exc_type", [cls for cls in module_exceptions() if issubclass(cls, chnoids.InputError)],
    ids=lambda cls: cls.__name__,
)
def test_handler_input_error_exits_2(exc_type, monkeypatch):
    raise_from_build_higgs(monkeypatch, exc_type)
    assert run(["nnoid", "check", "-"], nnoid_json(5)) == (2, "", "error: raised by build_higgs\n")


# while a handler runs, any other error is a fault and surfaces
@pytest.mark.parametrize(
    "exc_type",
    [ValueError] + [cls for cls in module_exceptions() if cls.__name__ in FAULTS],
    ids=lambda cls: cls.__name__,
)
def test_handler_fault_propagates(exc_type, monkeypatch):
    raise_from_build_higgs(monkeypatch, exc_type)
    with pytest.raises(exc_type, match="raised by build_higgs"):
        run(["nnoid", "check", "-"], nnoid_json(5))


FLOAT_BOOST = CASES["ch2-classify-float"]["stdin"][1]  # a float loxodromic

# one valid input per config-reading subcommand, mutated by the fuzz test; a
# seed is named by its command's two words, then by a word of its own if the
# command has a second seed
FUZZ_SEEDS = {
    "nnoid check": nnoid_json(4),
    "stability check": {"genus": 0, "n": 3, "d1": 1, "d2": 0, "weights": REGION_WEIGHTS},
    "stability region": REGION_INPUT,
    "ch2 classify": IDENTITY,
    "ch2 classify float": FLOAT_BOOST,
    "ch2 distance": CASES["ch2-distance"]["stdin"][1],
    "cusp verify": {"grid": SMALL_GRID, "spec": {"modes": [[1, 0.5, 0.0]], "poly": [0, 0.1, 0.2]}},
}
DROP, WRAP, INF = object(), object(), "<1e400>"
# replacement values: every JSON type, a zero denominator, an overflowing
# float literal, integers too large for a float or a machine word, and small
# exponent literals
REPLACEMENTS = [None, True, 0, -1, 2.5, "x", "1/0", [], {}, INF, 10**30, -(2**64), 10**400,
                "1e3", "2.5e-3"]


def _paths(obj, prefix=()):
    yield prefix
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in children:
        yield from _paths(value, (*prefix, key))


def _mutate(obj, path, how):
    if not path:
        return [obj] if how in (DROP, WRAP) else how
    obj = copy.deepcopy(obj)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if how is DROP:
        del parent[path[-1]]
    elif how is WRAP:
        parent[path[-1]] = [parent[path[-1]]]
    else:
        parent[path[-1]] = how
    return obj


@pytest.mark.parametrize("command", sorted(FUZZ_SEEDS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_mutated_json_never_crashes(command, data):
    seed = FUZZ_SEEDS[command]
    path = data.draw(st.sampled_from(list(_paths(seed))))
    how = data.draw(st.sampled_from([DROP, WRAP, *REPLACEMENTS]))
    text = json.dumps(_mutate(seed, path, how)).replace(f'"{INF}"', "1e400")
    code, out, err = corpus.run([*command.split()[:2], "-"], text)
    assert code in (0, 1, 2), text
    assert "Traceback" not in err
    if code != 2:  # a certificate is strict JSON: no NaN or Infinity
        json.loads(out, parse_constant=_refuse_constant)


def _refuse_constant(name):
    raise ValueError(f"{name} in a certificate")


def test_random_sampler_invariants():
    for n in (4, 5, 8):
        data = random_nnoid_data(n, 17)
        # re-validates all NnoidData invariants
        assert NnoidData.from_json(data.to_json()) == data


SRC = str(Path(chnoids.__file__).resolve().parents[1])


# a tolerance that is not a finite number >= 0 would print NaN or Infinity into
# the certificate, or pass or fail every field
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "1e400"])
@pytest.mark.parametrize(
    "command, config, flags",
    [("ch2 classify", IDENTITY, ["--exact"]), ("ch2 classify", FLOAT_BOOST, []),
     ("cusp verify", {"grid": SMALL_GRID}, [])],
    ids=["exact", "float", "cusp"],
)
def test_non_finite_or_negative_tol_exits_2(command, config, flags, tol, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        main([*command.split(), str(path), *flags, f"--tol={tol}"])
    assert exc.value.code == 2
    assert "argument --tol: need a finite number >= 0" in capsys.readouterr().err


def run_python(args, timeout=60, input=None, **env):
    """``python args`` in a new interpreter that imports this checkout's chnoids,
    with the environment variables env set."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **env)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=timeout, input=input)


# A certificate prints numbers of up to MAX_CERTIFICATE_DIGITS digits whatever the
# interpreter's own int-to-str limit: under a limit of 640, digit-limit-715, whose
# numbers have about 4,290 digits, ended in a ValueError traceback with exit 1.
def test_fresh_process_holds_int_digit_limit():
    case = CASES["digit-limit-715"]
    proc = run_python(["-m", "chnoids.cli", *case["argv"]], input=corpus.stdin_text(case),
                      PYTHONINTMAXSTRDIGITS="640")
    assert corpus.observed(case, proc.returncode, proc.stdout, proc.stderr) == corpus.pinned(case)


def test_main_restores_int_digit_limit():
    """main raises a lower limit while the command runs and restores it after."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        corpus.check(CASES["digit-limit-715"])
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(saved)


def test_corpus_runner_selects_by_prefix(capsys):
    assert corpus.main(["digit-limit-", "literal-22"]) == 0
    assert capsys.readouterr().out == "5 passed, 0 failed, 0 skipped: they need numpy\n"
    assert corpus.main(["no-such-case"]) == 2


def test_corpus_runner_names_a_case_that_raises_and_runs_the_rest(monkeypatch, capsys):
    check = corpus.check

    def raising(case):
        if case["name"] == "literal-22-classify":
            raise OverflowError("int too large to convert to float")
        check(case)

    monkeypatch.setattr(corpus, "check", raising)
    assert corpus.main(["digit-limit-", "literal-22"]) == 1
    out, err = capsys.readouterr()
    assert out == ("FAIL literal-22-classify: OverflowError: int too large to convert to float\n"
                   "4 passed, 1 failed, 0 skipped: they need numpy\n")
    assert "Traceback" in err


# In-process tests import every module before they run, so only a new
# interpreter shows a command that needs a module nothing imports for it.
def test_fresh_process_matches_in_process():
    for name in ("nnoid-random-4", "nnoid-check-4", "stability-check-stable", "classify-parabolic-17",
                 "cusp-verify-seeded", "stability-region", "ch2-distance", "ch2-classify-float"):
        check_fresh(CASES[name])


# ch2.CH2Error and cusp.CuspGridError, both chnoids.InputError subclasses, come
# from modules that only some commands import; raised while parsing (cusp-grid)
# or during the computation (the others), each must exit 2 in a new interpreter
# with the in-process error line.  So must a stability certificate too large to
# print (stability-digits), which used to end in a ValueError traceback, a
# negative dmax, whose pair count used to trip the work limit first, and a
# weight triple of 2 or 4 entries, which used to end in a TypeError message.
# A finite coordinate whose modulus overflows used to end in an OverflowError
# traceback.  A zero g1 or g2 alone is refused by name, not as a shared zero.
NOT_PRESERVED = "matrix does not preserve the signature-(2,1) form"


def nnoid_zeroed(name):
    obj = random_nnoid_data(5, 0).to_json()
    obj[name] = {**obj[name], "coeffs": ["0"] * len(obj[name]["coeffs"])}
    return obj


@pytest.mark.parametrize(
    "command, obj, message",
    [
        ("ch2 classify", {"matrix": [["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
         NOT_PRESERVED),
        ("ch2 classify", {"matrix": [["2.0", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
         NOT_PRESERVED),
        ("ch2 distance", {"z": ["1", "0", "0"], "w": ["0", "0", "1"]},
         "distance arguments must lie in CH^2"),
        ("ch2 distance", {"z": ["1.5e308+1.5e308i", "0", "1"], "w": ["0", "0", "1"]},
         "a CH^2 point needs a nonzero finite representative"),
        ("nnoid check", nnoid_zeroed("g1"), "g1 and g2 must be nonzero"),
        ("nnoid check", nnoid_zeroed("g2"), "g1 and g2 must be nonzero"),
        ("cusp verify", {"grid": {"Nx": 4, "Ny": 8, "Y": 1.0, "Ymax": 5.0}},
         "need at least 8 samples in each direction"),
        ("cusp verify", {"grid": SMALL_GRID, "spec": {"modes": [], "poly": [0.0, 0.0, 1e308]}},
         "U must be finite everywhere"),
        ("stability check", prime_weights(800),
         "the certificate's numbers are over the limit of 4300 digits"),
        ("stability region", {"genus": 0, "n": 5, "dmax": -500}, "dmax must be nonnegative"),
        ("stability check", {"genus": 0, "n": 5, "d1": 1, "d2": 2,
                             "weights": weights_json(["0", "0"])},
         "a weight triple has 3 entries, got 2"),
        ("stability check", {"genus": 0, "n": 5, "d1": 1, "d2": 2,
                             "weights": weights_json(["0", "0", "0", "1/2"])},
         "a weight triple has 3 entries, got 4"),
    ],
    ids=["ch2-classify-exact", "ch2-classify-float", "ch2-distance", "ch2-distance-overflow",
         "nnoid-zero-g1", "nnoid-zero-g2", "cusp-grid",
         "cusp-overflow", "stability-digits", "stability-negative-dmax",
         "stability-triple-2", "stability-triple-4"],
)
def test_fresh_process_input_error_exits_2(command, obj, message):
    argv = [*command.split(), "-"]
    proc = run_python(["-m", "chnoids.cli", *argv], input=json.dumps(obj))
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")
    assert run(argv, obj) == (2, "", f"error: {message}\n")


def over_digit_limit(literal):
    return f"error: exact literal {reprlib.repr(literal)} is over the limit of 4300 digits\n"


NNOID_5 = random_nnoid_data(5, 0).to_json()
STABILITY_ZERO_WEIGHTS = {"genus": 0, "n": 5, "d1": 1, "d2": 2,
                          "weights": [{"triple": ["0", "0", "0"]}] * 5}


# An exponent literal is refused before Fraction builds 10^e in full: a
# puncture or g1 coefficient of 1e5000 used to end in an int-to-str traceback
# when the certificate echoed it, and a weight of 1e-100000000 ran for minutes.
# So is a plain decimal with 4,300 fraction digits, whose denominator 10^4300
# has 4,301.  In a new interpreter with a timeout, so a hang fails instead of
# stalling.
TALL_DECIMAL = "0." + "0" * 4299 + "1"

@pytest.mark.parametrize(
    "command, obj, path, literal",
    [
        ("nnoid check", NNOID_5, ("punctures", 0), "1e5000"),
        ("nnoid check", NNOID_5, ("g1", "coeffs", 0), "1e5000"),
        ("stability check", STABILITY_ZERO_WEIGHTS, ("weights", 4, "triple", 2), "1e-100000000"),
        ("nnoid check", NNOID_5, ("punctures", 0), "1e" + "9" * 5000),
        ("nnoid check", NNOID_5, ("punctures", 0), TALL_DECIMAL),
        ("nnoid check", NNOID_5, ("g1", "coeffs", 0), TALL_DECIMAL),
    ],
    ids=["nnoid-puncture", "nnoid-g1", "stability-weight", "exponent-5000-nines",
         "nnoid-puncture-decimal", "nnoid-g1-decimal"],
)
def test_fresh_process_refuses_huge_exponent_literal(command, obj, path, literal):
    text = json.dumps(_mutate(obj, path, literal))
    proc = run_python(["-m", "chnoids.cli", *command.split(), "-"], input=text)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", over_digit_limit(literal))


# At the size limit the cost of deciding "g1 and g2 share no zero" must not
# grow with coefficient height: with 4- and 12-digit coefficients the Q(i)
# resultant took 26 s and over 150 s.  About 0.2 s each on a 2-CPU host, and
# 0.8 s for the shared-zero input below.
NNOID_64_BUDGET_S = 5


def check_fresh(case):
    """Check case in a new interpreter, within NNOID_64_BUDGET_S."""
    text = corpus.stdin_text(case)
    start = time.perf_counter()
    proc = run_python(["-m", "chnoids.cli", *case["argv"]], NNOID_64_BUDGET_S, text)
    assert corpus.observed(case, proc.returncode, proc.stdout, proc.stderr) == corpus.pinned(case)
    assert time.perf_counter() - start < NNOID_64_BUDGET_S


@pytest.mark.parametrize("digits", [4, 12])
def test_fresh_process_nnoid_check_at_limit_with_tall_coefficients(digits):
    case = CASES[f"tall-coefficients-{digits}"]
    assert case["stdin"] == ["tall_nnoid", cli.MAX_NNOID_N, digits, 6400 + digits]
    check_fresh(case)


# g1 and g2 that share a zero reach the Q(i) gcd, which must stay within the
# same budget at 4 digits: the Q(i) resultant took 26 s on this input.
def test_fresh_process_nnoid_check_shared_zero_at_limit():
    case = CASES["shared-zero"]
    assert case["stdin"] == ["shared_zero_nnoid", cli.MAX_NNOID_N, 4, 6404]
    check_fresh(case)


# 10-digit puncture denominators at the size limit: building omega as num/V
# over the lcm of all n denominators took 50 s on this input.
def test_fresh_process_nnoid_check_tall_punctures_at_limit():
    case = CASES["tall-punctures"]
    assert case["stdin"] == ["tall_punctures_nnoid", cli.MAX_NNOID_N, 10, 55]
    check_fresh(case)


# n times the summed puncture height at the cap is checked; one step past it
# is refused before any arithmetic.
@pytest.mark.parametrize("past", [0, 1], ids=["at-cap", "past-cap"])
def test_fresh_process_nnoid_check_puncture_height_cap(past):
    n, cap = cli.MAX_NNOID_N, cli.MAX_NNOID_HEIGHT_WORK
    case = CASES[("puncture-height-at-cap", "puncture-height-past-cap")[past]]
    assert case["stdin"] == ["puncture_height_nnoid", n, cap // n + past]
    check_fresh(case)


def budget_id(case):
    """The case's command words, and for ch2 classify the backing it runs."""
    words = case["argv"][:2]
    if words == ["ch2", "classify"]:
        words = [*words, "exact" if "--exact" in case["argv"] else "float"]
    return "-".join(words)


# The exact commands never load numpy, nor do the scalar ch2 distance and a
# float ch2 classify (read as dyadic rationals); cusp verify's grids do.  Each
# command loads only the chnoids modules it runs, and none without numpy loads
# dataclasses (numpy may import it).  The budgets are the corpus cases' "modules"
# fields, which the corpus runner checks on the floor Pythons too.
BUDGETED = [case for case in CASES.values() if "modules" in case]


@pytest.mark.parametrize("case", BUDGETED, ids=[budget_id(case) for case in BUDGETED])
def test_numpy_loads_only_for_float_work(case):
    corpus.check_modules(case)


def test_each_command_has_one_module_budget():
    assert sorted(map(budget_id, BUDGETED)) == [
        "ch2-classify-exact", "ch2-classify-float", "ch2-distance", "cusp-verify",
        "nnoid-check", "nnoid-random", "stability-check", "stability-region"]

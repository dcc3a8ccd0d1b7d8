import contextlib
import copy
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import random
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
from chnoids.ch2 import J_EXACT, Matrix21, random_exact_form_preserving
from chnoids.cli import main, random_nnoid_data
from chnoids.exactnum import GQ, GaussianRational, UniPoly
from chnoids.nnoid import NnoidData
from test_exactnum import BIG, LITERAL_CORPUS


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_nnoid_random_deterministic(capsys, tmp_path):
    code, out, _ = run(["nnoid", "random", "5", "--seed", "42"], capsys)
    assert code == 0
    code2, out2, _ = run(["nnoid", "random", "5", "--seed", "42"], capsys)
    assert out == out2
    data = NnoidData.from_json(json.loads(out))
    assert data.n == 5


def test_nnoid_random_n4(capsys):
    code, out, _ = run(["nnoid", "random", "4", "--seed", "1"], capsys)
    assert code == 0
    assert NnoidData.from_json(json.loads(out)).n == 4


# the sampler's puncture pool has 55 points
@pytest.mark.parametrize("n", [56, 64])
def test_nnoid_random_over_pool_exits_2(n, capsys):
    code, out, err = run(["nnoid", "random", str(n)], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: nnoid random draws at most 55 punctures\n"


def test_nnoid_check_pipeline(tmp_path, capsys):
    data = random_nnoid_data(5, 3)
    path = write_json(tmp_path, "nn.json", data.to_json())
    code, out, err = run(["nnoid", "check", path], capsys)
    assert code == 0
    cert = json.loads(out)
    assert cert["status"] == "stable"
    assert all(c["passed"] for c in cert["checks"])
    assert all(r["end_type"] == "II" for r in cert["residues"])
    assert "status: stable" in err


def test_nnoid_check_n4_semistable(tmp_path, capsys):
    data = random_nnoid_data(4, 5)
    path = write_json(tmp_path, "nn4.json", data.to_json())
    code, out, _ = run(["nnoid", "check", path], capsys)
    assert code == 0
    assert json.loads(out)["status"] == "strictly-semistable"


def test_nnoid_check_bad_input(tmp_path, capsys):
    data = random_nnoid_data(5, 9)
    obj = data.to_json()
    # q vanishing at the puncture z = p1: q = (z0 - p1 z1) z1^2
    p1 = GaussianRational.parse(obj["punctures"][0])
    obj["q"] = {"degree": 3, "coeffs": ["0", "0", "1", str(-p1)]}
    path = write_json(tmp_path, "bad.json", obj)
    code, _, err = run(["nnoid", "check", path], capsys)
    assert code == 2
    assert "error" in err

    obj["q"] = {"degree": 2, "coeffs": ["1", "0", "1"]}  # wrong degree
    path = write_json(tmp_path, "bad2.json", obj)
    code, _, _ = run(["nnoid", "check", path], capsys)
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
        obj = dict(good, **{key: value})
        path = write_json(tmp_path, f"bad-{key}.json", obj)
        code, _, err = run(["nnoid", "check", path], capsys)
        assert code == 2
        assert "Traceback" not in err


# sha256 of the `nnoid check` certificate for random_nnoid_data(n, 2602),
# recorded at commit f39907c, before the Higgs field was held as omega * S
PINNED_CERTIFICATES = {
    4: "ae65df17217e61e8787fe475a3d2d1f0dfcc51314cb78eefe953aba07b79b17c",
    5: "461e3b06ceba3109a01d610a97dc10316a84ca655a04208e04c7bd59254962c2",
    6: "4d4c65694d1417d630066dc2092d23cf4b4313ac9c7604901de1f372bf69038b",
    7: "a9f96e877eeb2b0f998c307788cfc7c5d376881c163243b4ab77974c4f7a76da",
    8: "8ea836dff59635f8a714145e7a9b35d3ead6b46760a29fd238d7921034744c18",
    9: "2eaeecfaf9d7fc628e32646cda1e0f9bd911f5806caf26428cc7400634f1686e",
    10: "fcad0b36b82b504ea5eda01037b2efd5e1dcce64ea7b6ef261c944a653de1792",
    11: "105f04e97db677079e95dbb123ed4241502e7e20ac135349773ff87dae838a4e",
    12: "16ff477ea5bdfe4fe856fb721f3720409005c7015291593603f2e9f75c44eefe",
}


@pytest.mark.parametrize("n", sorted(PINNED_CERTIFICATES))
def test_nnoid_check_certificate_pinned(n, tmp_path, capsys):
    path = write_json(tmp_path, "nn.json", random_nnoid_data(n, 2602).to_json())
    code, out, _ = run(["nnoid", "check", path], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_CERTIFICATES[n]


# Valid n = 7 data with fractional punctures, residues and form coefficients,
# so that every exact kernel works over a common denominator other than 1;
# g1 vanishes at the puncture 1/2 and g2 at -1/6.  sha256 of its `nnoid check`
# certificate recorded at commit ed3cc3a.
FRACTIONAL_NNOID = {
    "n": 7,
    "punctures": ["1/2", "-2/3+1/5i", "3/7i", "5/4-1/3i", "-1/6", "2+2/9i", "-7/5-3/2i"],
    "residues": ["1/3", "-2/5+1/2i", "3/4i", "1/7-1/3i", "-5/6", "2/11+1/13i",
                 "443/770-155/156i"],
    "g1": {"degree": 3, "coeffs": ["-3/4i", "3/8i", "5/3+1/6i", "-5/6-1/12i"]},
    "g2": {"degree": 4, "coeffs": ["1/9", "-17/54+2/7i", "-1/18+1/21i", "2/5", "1/15"]},
    "q": {"degree": 3, "coeffs": ["7/8", "1/12-1/5i", "0", "3/13"]},
}
PINNED_FRACTIONAL = "05cb3f36db927c7da1749af5720b291dd67c3bfe17505b17680da8ba77353221"


def test_nnoid_check_fractional_certificate_pinned(tmp_path, capsys):
    path = write_json(tmp_path, "frac.json", FRACTIONAL_NNOID)
    code, out, _ = run(["nnoid", "check", path], capsys)
    assert code == 0
    assert json.loads(out)["status"] == "stable"
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_FRACTIONAL


def _refused(what):
    def refused(*args, **kwargs):
        raise AssertionError(f"nnoid check called {what}")

    return refused


@pytest.mark.parametrize("n", [*sorted(PINNED_CERTIFICATES), "fractional"])
def test_nnoid_check_avoids_mat_mul_and_divmod(n, monkeypatch):
    """The pinned nnoid check certificates come out with linalg.mat_mul and
    UniPoly.divmod refused, so no second residue or nilpotency path is left,
    and parsing decides "g1 and g2 share no zero" without the Q(i) resultant."""
    obj = FRACTIONAL_NNOID if n == "fractional" else random_nnoid_data(n, 2602).to_json()
    args = cli.build_parser().parse_args(["nnoid", "check", "input.json"])
    monkeypatch.setattr(UniPoly, "divmod", _refused("UniPoly.divmod"))
    data = cli._parse_nnoid_check(json.loads(json.dumps(obj)), args)
    monkeypatch.setattr(linalg, "mat_mul", _refused("linalg.mat_mul"))
    cert, passed = cli.cmd_nnoid_check(data, args)
    assert passed
    out = json.dumps(cert, indent=2) + "\n"
    pinned = PINNED_FRACTIONAL if n == "fractional" else PINNED_CERTIFICATES[n]
    assert hashlib.sha256(out.encode()).hexdigest() == pinned


@pytest.mark.parametrize("declared", [7.0, "7", True], ids=["float", "string", "bool"])
def test_nnoid_check_declared_n_must_be_an_integer(declared, tmp_path, capsys):
    """The declared n is read as a JSON count: 7.0, "7" and true are refused
    as such, though the data has 7 punctures."""
    path = write_json(tmp_path, "n.json", dict(FRACTIONAL_NNOID, n=declared))
    assert run(["nnoid", "check", path], capsys) == (
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
def test_nnoid_check_resultant_fallback(primes, exact_calls, tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(exactnum, "poly_gcd",
                        lambda a, b, gcd=exactnum.poly_gcd: calls.append(1) or gcd(a, b))
    path = write_json(tmp_path, "nn.json", fallback_input(primes))
    code, out, _ = run(["nnoid", "check", path], capsys)
    assert (code, json.loads(out)["status"], len(calls)) == (0, "stable", exact_calls)


# No command reaches the exact resultant: the pinned certificates and both
# fallback inputs come out the same with it refused under either name.
@pytest.mark.parametrize("name", [*map(str, sorted(PINNED_CERTIFICATES)), "fractional",
                                  "fallback-1", "fallback-3"])
def test_nnoid_check_never_calls_resultant(name, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(exactnum, "resultant", _refused("exactnum.resultant"))
    monkeypatch.setattr(nnoid, "resultant", _refused("nnoid.resultant"))
    if name == "fractional":
        obj, pinned = FRACTIONAL_NNOID, PINNED_FRACTIONAL
    elif name.startswith("fallback-"):
        obj, pinned = fallback_input(int(name[-1])), None
    else:
        obj, pinned = random_nnoid_data(int(name), 2602).to_json(), PINNED_CERTIFICATES[int(name)]
    code, out, _ = run(["nnoid", "check", write_json(tmp_path, "nn.json", obj)], capsys)
    assert code == 0
    if pinned:
        assert hashlib.sha256(out.encode()).hexdigest() == pinned
    else:
        assert json.loads(out)["status"] == "stable"


def _classify_seed(kind: str):
    one, zero, i = GQ(1), GQ(0), GQ(0, 1)
    u, v, w = (GQ(a, b) / GQ(a, -b) for a, b in ((3, 4), (5, 12), (1, 2)))
    if kind == "regular-elliptic":
        return linalg.mat([[u, zero, zero], [zero, v, zero], [zero, zero, w]])
    if kind == "repeated-elliptic":
        return linalg.mat([[u, zero, zero], [zero, v, zero], [zero, zero, u]])
    if kind == "parabolic":  # I + i v v* J with v = (1, 0, 1) null
        return linalg.mat([[one + i, zero, -i], [zero, one, zero], [i, zero, one - i]])
    # rational boost with t = 2: cosh = 5/4, sinh = 3/4
    ch, sh = GQ(Fraction(5, 4)), GQ(Fraction(3, 4))
    return linalg.mat([[ch, zero, sh], [zero, one, zero], [sh, zero, ch]])


def classify_input(kind: str, seed: int) -> dict:
    """The seed matrix of ``kind`` conjugated by a seeded exact U(2,1) element."""
    g = random_exact_form_preserving(random.Random(seed)).rows
    g_inv = linalg.mat_mul(linalg.mat_mul(J_EXACT, linalg.conj_transpose(g)), J_EXACT)
    return Matrix21(linalg.mat_mul(linalg.mat_mul(g, _classify_seed(kind)), g_inv)).to_json()


# sha256 of the `ch2 classify` certificate for classify_input(kind, seed),
# recorded at commit f07ae3e, while each scalar was a pair of Fractions
PINNED_CLASSIFY = {
    ("regular-elliptic", 17): ("elliptic",
        "3684624186644e97a4e524f1bdf63a66b90040454cc30d24c5c0c82dde512e18"),
    ("regular-elliptic", 26): ("elliptic",
        "4861e0051404df5fb58158d9d3f57f01f26b39688b107f670233494016c76aa2"),
    ("repeated-elliptic", 17): ("elliptic",
        "d402f6b34a16cde203cfa98cbb2cf78a4a4d4c759a89e51a0bd3f6ef6807b2d1"),
    ("repeated-elliptic", 26): ("elliptic",
        "e34183cc3082c51c5f1aaada869e232b4921907a8af5146dc77b7a9fe40702cc"),
    ("parabolic", 17): ("parabolic",
        "45986044371794bdd273c52c5fb4ecb031f941262bad311c7606af44b8c93a65"),
    ("parabolic", 26): ("parabolic",
        "e822c798797ec0726e69a83fdaa28460cc81ef413153c4baf10252ccb9852b2e"),
    ("loxodromic", 17): ("loxodromic",
        "90e688b4425d74c91d4cabef11a2c4e08a7080561717f15e315dfdfe1dc62681"),
    ("loxodromic", 26): ("loxodromic",
        "321a3b4dafe0ef278455c544c393c7b227064abec121b1381b85219bb283e558"),
}


@pytest.mark.parametrize("kind, seed", sorted(PINNED_CLASSIFY))
def test_ch2_classify_certificate_pinned(kind, seed, tmp_path, capsys):
    path = write_json(tmp_path, "m.json", classify_input(kind, seed))
    code, out, _ = run(["ch2", "classify", path], capsys)
    assert code == 0
    label, digest = PINNED_CLASSIFY[kind, seed]
    assert json.loads(out)["classification"] == label
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _refuse(owner, name):
    def refused(*args, **kwargs):
        raise AssertionError(f"exact ch2 classify called {owner.__name__}.{name}")

    return refused


# generic linear algebra, and the polynomial gcd over Q(i) with its remainders
CLASSIFY_REFUSED = [(linalg, "minimal_polynomial"), (linalg, "charpoly"), (linalg, "mat_mul"),
                    (linalg, "_echelon"), (UniPoly, "divmod"), (ch2, "poly_gcd")]


@pytest.mark.parametrize("kind, seed", sorted(PINNED_CLASSIFY))
def test_exact_classify_avoids_generic_linalg(kind, seed, tmp_path, capsys, monkeypatch):
    # the inputs are built with mat_mul before it is refused
    path = write_json(tmp_path, "m.json", classify_input(kind, seed))
    for owner, name in CLASSIFY_REFUSED:
        monkeypatch.setattr(owner, name, _refuse(owner, name))
    code, out, _ = run(["ch2", "classify", path], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_CLASSIFY[kind, seed][1]


REGION_WEIGHTS = [
    {"triple": ["1/4", "1/2", "3/4"], "beta": "1/2", "gamma": "1/4"},
    {"triple": ["0", "0", "2/3"], "beta": "2/3", "gamma": "0"},
    {"triple": ["1/6", "1/6", "1/6"]},
]
REGION_INPUT = {"genus": 1, "n": 3, "dmax": 7, "weights": REGION_WEIGHTS}

# name: (command and flags, JSON config or None, exit code, sha256 of stdout),
# recorded at commit 02945bd, before the commands shared one boundary
PINNED_OUTPUTS = {
    "stability-check-stable": ("stability check", {"genus": 0, "n": 5, "d1": 1, "d2": 2}, 0,
        "eb9f6347496179435319c8bd996d6075364fc8c80d16235113b289c9db4e9c90"),
    "stability-check-unstable": ("stability check", {"genus": 0, "n": 5, "d1": 5, "d2": 5}, 1,
        "5c4d35cb6cd308d1826c2dffe4fdd795fd1d5350fad75338d1ba754a555f2ece"),
    "stability-check-weighted": ("stability check", {"genus": 0, "n": 4, "d1": 0, "d2": 0,
        "weights": [{"triple": ["0", "1/3", "1/3"], "beta": "0", "gamma": "1/3"}] * 4}, 0,
        "c7e810bc7cdc4a18481939edea1047da96061b8c3a8118573efd44b7b944a3a5"),
    "stability-region": ("stability region", REGION_INPUT, 0,
        "6c909b68167d0aebaff6b14f208b9398bc48adc8483d2da4d1ad006de33d1236"),
    "ch2-distance": ("ch2 distance", {"z": ["0", "0", "1"], "w": ["0.5", "0.25i", "1"]}, 0,
        "fab5e404fd27d3164131a14cc438c7f1b5b95c2051610e7e3eb14d6eb12f4a70"),
    "cusp-verify-seeded": ("cusp verify --seed 5",
        {"grid": {"Nx": 16, "Ny": 16, "Y": 1.0, "Ymax": 6.0}}, 0,
        "8d130feaee332f1b20647b856b9a27bcdc1ef0b04de83a8b7eec071cbbdcef18"),
    "cusp-verify-spec": ("cusp verify", {"grid": {"Nx": 32, "Ny": 24, "Y": 0.5, "Ymax": 8.0},
        "spec": {"modes": [[1, 0.5, 0.0], [3, -1.25, 2.0]], "poly": [0.0, 0.1, 0.2]}}, 0,
        "0f478c01ca32f5e8ad0b851f68d2eed332d7823463f068ba5ade2a29ce81ca67"),
    # the default 256 x 256 grid, the size the benchmark runs
    "cusp-verify-default-grid": ("cusp verify --seed 5", {}, 0,
        "5777c23dc30792b38319f8ae931e8c11c9f5163184af0fea46132122bb8b49b9"),
    # a mode of amplitude 1e20 on 8 x 8 fails mean-convexity, as it stands: the
    # rounding of the row means grows with the amplitude, the tolerance does not
    "cusp-verify-large-mode": ("cusp verify", {"grid": {"Nx": 8, "Ny": 8, "Y": 1.0, "Ymax": 2.0},
        "spec": {"modes": [[1, 1e20, 0]], "poly": [0, 0, 0]}}, 1,
        "ced3bdfefe6af1dc08feb41c47067732c27885a645acc28ac83c75173bb9645d"),
    "nnoid-random-4": ("nnoid random 4 --seed 7", None, 0,
        "1d576bb969e2f4b04b0bc0cbe2e526414ee0cf2c943f19b8ccedf1dfa303712a"),
    "nnoid-random-9": ("nnoid random 9 --seed 2602", None, 0,
        "099cfd1d002294add7ae0fdcfaa0464c8490b40f8b961e8ed51508fd646c0f57"),
    # a/b entries not in lowest terms: the echo writes each part reduced
    "ch2-classify-fractional": ("ch2 classify --exact", {"matrix": [
        ["10/8-70/192i", "0", "-9/20+337/480i"], ["0", "1", "0"],
        ["-18/40-337/480i", "0", "5/4+35/96i"]]}, 0,
        "660312c29a2fe2aa0b05e231d7d24f612cc973c6e2cc03a590a6d7d2acdc57a7"),
    # a float conjugate of boost(0.7): the echo writes each entry with 17 significant digits
    "ch2-classify-float": ("ch2 classify", {"matrix": [
        ["1.166054546986574-0.032448344883517985i", "-0.25611222066513262-0.26071865581878101i",
         "0.52738609548286874-0.4649383776276762i"],
        ["0.035577769465140366-0.11822911753392781i", "1.0617696579397131+0.13855963108879166i",
         "-0.18190600003048568+0.35875853572389393i"],
        ["0.48426085146855119+0.37612688189181964i", "-0.16426516459224649-0.50312843355979886i",
         "1.2825138063355992-0.10611128620527378i"]]}, 0,
        "85d58bbd100b0d61fe936fa8f301362108f37f6148d9afd7595f10c01c928322"),
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_output_pinned(name, tmp_path, capsys):
    command, config, expect_code, digest = PINNED_OUTPUTS[name]
    argv = command.split()
    if config is not None:
        argv.insert(2, write_json(tmp_path, "in.json", config))
    code, out, _ = run(argv, capsys)
    assert code == expect_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def invalid(part):
    return f"malformed input: ValueError: Invalid literal for Fraction: {part!r}"


INT_LIMIT = ("malformed input: ValueError: Exceeds the limit (4300 digits) for integer string "
             "conversion: value has 5000 digits; use sys.set_int_max_str_digits() to increase "
             "the limit")

# Every literal of LITERAL_CORPUS that GaussianRational.parse refuses, with the
# error line of `ch2 classify` on a matrix holding it and of `stability check`
# with it as a weight; each command exits 2.
REFUSED_LITERAL_ERRORS = {
    "1__0": (invalid("1__0"), invalid("1__0")),
    "_1": (invalid("_1"), invalid("_1")),
    "1_": (invalid("1_"), invalid("1_")),
    "²": (invalid("²"), invalid("²")),
    "-2.5+1i": ("matrix does not preserve the signature-(2,1) form", invalid("-2.5+1i")),
    "0x10": (invalid("0x10"), invalid("0x10")),
    "0x10i": (invalid("0x10"), invalid("0x10i")),
    "+-1": (invalid("+-1"), invalid("+-1")),
    "+-1i": (invalid("+-1"), invalid("+-1i")),
    "--1": (invalid("--1"), invalid("--1")),
    "1_0+2_0i": (invalid("1_0+2_0"), invalid("1_0+2_0i")),
    "1/0": ("malformed input: ValueError: zero denominator in '1/0'",
            "malformed input: ZeroDivisionError: Fraction(1, 0)"),
    "2+1/0i": ("malformed input: ValueError: zero denominator in '2+1/0i'", invalid("2+1/0i")),
    "0/0": ("malformed input: ValueError: zero denominator in '0/0'",
            "malformed input: ZeroDivisionError: Fraction(0, 0)"),
    "": ("malformed input: ValueError: empty Gaussian rational literal", invalid("")),
    "   ": ("malformed input: ValueError: empty Gaussian rational literal", invalid("   ")),
    "1+": (invalid("1+"), invalid("1+")),
    "i+1": (invalid("i+1"), invalid("i+1")),
    "1+2i3": (invalid("1+2i3"), invalid("1+2i3")),
    "ii": (invalid("i"), invalid("ii")),
    "nan": (invalid("nan"), invalid("nan")),
    "inf": (invalid("inf"), invalid("inf")),
    BIG: (INT_LIMIT, INT_LIMIT),
    BIG + "i": (INT_LIMIT, invalid(BIG + "i")),
    "1+" + BIG + "i": (INT_LIMIT, invalid("1+" + BIG + "i")),
    BIG + "/7": (INT_LIMIT, INT_LIMIT),
    "/5i": (invalid("/5"), invalid("/5i")),
    "+/8i": (invalid("+/8"), invalid("+/8i")),
    "-/3i": (invalid("-/3"), invalid("-/3i")),
    "2+/4115i": (invalid("2+/4115"), invalid("2+/4115i")),
}


def test_refused_literal_pins_cover_the_corpus():
    refused = []
    for literal in LITERAL_CORPUS:
        try:
            GaussianRational.parse(literal)
        except ValueError:
            refused.append(literal)
    assert refused == list(REFUSED_LITERAL_ERRORS)


@pytest.mark.parametrize("literal", list(REFUSED_LITERAL_ERRORS), ids=reprlib.repr)
def test_refused_literal_error_lines_pinned(literal, tmp_path, capsys):
    classify_line, stability_line = REFUSED_LITERAL_ERRORS[literal]
    matrix = {"matrix": [[literal, "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
    weight = {"triple": [literal, "1/3", "1/3"], "beta": "0", "gamma": "1/3"}
    checked = {"genus": 0, "n": 4, "d1": 0, "d2": 0, "weights": [weight] * 4}
    for command, obj, line in (("ch2 classify", matrix, classify_line),
                               ("stability check", checked, stability_line)):
        code, out, err = run([*command.split(), write_json(tmp_path, "in.json", obj)], capsys)
        assert (code, out, err) == (2, "", f"error: {line}\n")


# Every certificate is written by cli._encode, which must give json.dumps(x,
# indent=2)'s bytes: on floats at the edges of binary64, ints past 2^64,
# strings that need escapes, np.float64 leaves and every key class json reads.
EDGE_FLOATS = st.one_of(
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308])
)
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2**64, max_value=2**200),
    EDGE_FLOATS, EDGE_FLOATS.map(np.float64),
    st.text(), st.text(st.sampled_from('a"\\/\x00\x1f\x7f\n\té€\U0001f600')),
)
KEYS = st.one_of(st.text(max_size=4), st.integers(), EDGE_FLOATS, st.booleans(), st.none())
TREES = st.recursive(LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=6), st.lists(inner, max_size=6).map(tuple),
    st.dictionaries(KEYS, inner, max_size=6),
), max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(TREES)
def test_writer_matches_json_dumps_indent_2(tree):
    assert cli._encode(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize("obj", [
    [1.5, Fraction(1, 3)],
    {"checks": [{"passed": np.bool_(True)}]},
    {(1, 2): 0},
    {"a": {(1, 2): [0]}},
], ids=["fraction-leaf", "numpy-bool-leaf", "tuple-key", "nested-tuple-key"])
def test_writer_refuses_what_json_refuses(obj):
    with pytest.raises(TypeError) as want:
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError) as got:
        cli._encode(obj)
    assert str(got.value) == str(want.value)


# sha256 of `stability region` stdout on weighted inputs, recorded at commit
# 867aa3c, when every (d1, d2) pair went through check_mixed_stability;
# "limit" sits at MAX_STABILITY_WORK ((140 + 1)^2 * 5 = 99405 pairs times n)
PINNED_REGIONS = {
    "limit": ({"genus": 30, "n": 5, "dmax": 140, "weights": [
        {"triple": ["1/7", "2/7", "5/7"], "beta": "2/7", "gamma": "1/7"},
        {"triple": ["0", "1/2", "3/4"], "beta": "3/4", "gamma": "0"},
        {"triple": ["1/3", "1/3", "2/3"]},
        {"triple": ["1/12", "5/12", "11/12"], "beta": "11/12", "gamma": "5/12"},
        {"triple": ["0", "0", "0"]}]}, 6016,
        "91642070df6f702c3ee1c4f392a0677548d59fed080dadc1491b0b245d76676a"),
    "fractional": ({"genus": 2, "n": 4, "dmax": 25, "weights": [
        {"triple": ["1/5", "2/5", "4/5"], "beta": "4/5", "gamma": "2/5"},
        {"triple": ["1/9", "1/9", "7/9"], "beta": "1/9", "gamma": "7/9"},
        {"triple": ["3/11", "6/11", "10/11"], "gamma": "6/11"},
        {"triple": ["0", "1/13", "12/13"], "beta": "12/13"}]}, 54,
        "b104e04d62d5dce353354f8c144303fc474bba010bd8707dd19648718af13f42"),
    # both right-hand sides are integers, so the region's edge is semistable
    "boundary": ({"genus": 1, "n": 2, "dmax": 8, "weights": [
        {"triple": ["1/3", "1/3", "1/3"], "beta": "1/3", "gamma": "1/3"},
        {"triple": ["0", "1/3", "2/3"], "beta": "1/3", "gamma": "2/3"}]}, 7,
        "7560af61d7016b164aa3cdd3f3a4c04f7875282f0278cf68ed2070ec9a8029f5"),
}


@pytest.mark.parametrize("name", sorted(PINNED_REGIONS))
def test_stability_region_pinned(name, tmp_path, capsys):
    config, size, digest = PINNED_REGIONS[name]
    code, out, _ = run(["stability", "region", write_json(tmp_path, "in.json", config)], capsys)
    assert code == 0
    assert len(json.loads(out)["region"]) == size
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `stability check` stdout on the "fractional" weights of
# PINNED_REGIONS at pairs inside, on the edge of and outside the region,
# recorded at commit f71d165: (exit code, failing inequalities, sha256)
PINNED_FRACTIONAL_CHECKS = {
    (0, 0): (0, [], "141f9eee3bb8612fa329e5a03bccd6850ed818c6f7cad66239adf24ff196f080"),
    (8, 0): (0, [], "df4120026cf775ff6093cda9e36fa88441568ffc3507fa8a0409c3dbfe8ff2b1"),
    (9, 0): (1, ["W1"], "a64b236694c15ddf22c3add4533a98a95ff011b355a5d12854753a3bbb477a1d"),
    (0, 8): (0, [], "36deff983dbb6a82b98aef9ecfd59b2a5ff7cfa95c54906809b4e21e4afdcdf5"),
    (0, 9): (1, ["W2"], "1d729bdf78cb29c1febb53a92dfe4f5caa44dc82453b50a33726f193ab9ae8e9"),
    (7, 3): (1, ["W1"], "f48fc7d8cd69e2fa8dd3542a24e1f69badd93f5b897a5cf6bac5252c11f00e7d"),
    (25, 25): (1, ["W1", "W2"], "6e53f16fc3ab234fecae976203ccece0759a779a92adba198c2eecccd4df9167"),
}


@pytest.mark.parametrize("pair", sorted(PINNED_FRACTIONAL_CHECKS), ids=str)
def test_stability_check_fractional_pinned(pair, tmp_path, capsys):
    config = dict(PINNED_REGIONS["fractional"][0], d1=pair[0], d2=pair[1])
    expect_code, failing, digest = PINNED_FRACTIONAL_CHECKS[pair]
    code, out, _ = run(["stability", "check", write_json(tmp_path, "in.json", config)], capsys)
    assert code == expect_code
    assert json.loads(out)["stability"]["failing"] == failing
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def seeded_weights(n: int, seed: int) -> list[dict]:
    """n weight entries with denominators 1..13, drawn from a seeded generator."""
    rng = random.Random(seed)
    entries = []
    for _ in range(n):
        q = rng.randint(1, 13)
        triple = sorted(Fraction(rng.randrange(q), q) for _ in range(3))
        entries.append({"triple": [str(a) for a in triple], "beta": str(rng.choice(triple)),
                        "gamma": str(rng.choice(triple))})
    return entries


# sha256 of stdout for 5,000 seeded weighted punctures, recorded at commit
# f71d165; the region's dmax = 3 keeps (dmax + 1)^2 * n under MAX_STABILITY_WORK
PINNED_SEEDED = {
    "stability check": ({"genus": 2, "n": 5000, "d1": 4, "d2": 9}, 0,
        "8b99adf5bc30e5685727e57c29898690c46821f4f35fcdf8f831115daf26c10f"),
    "stability region": ({"genus": 2, "n": 5000, "dmax": 3}, 0,
        "ecacde70aa573fbf5437156c874683da45a08349c39952623d63764e270ce488"),
}


@pytest.mark.parametrize("command", sorted(PINNED_SEEDED))
def test_seeded_weighted_pinned(command, tmp_path, capsys):
    config, expect_code, digest = PINNED_SEEDED[command]
    config = dict(config, weights=seeded_weights(config["n"], 2602))
    code, out, _ = run([*command.split(), write_json(tmp_path, "in.json", config)], capsys)
    assert code == expect_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def primes_above(lo: int, count: int) -> list[int]:
    """The first count primes above lo, by trial division."""
    primes, k = [], lo
    while len(primes) < count:
        k += 1
        if all(k % p for p in range(2, math.isqrt(k) + 1)):
            primes.append(k)
    return primes


PRIMES = primes_above(10**6, 800)


def prime_weights(n: int) -> dict:
    """A stability check whose n weights have distinct prime denominators above
    10^6, so each puncture adds about 6 digits to the certificate's numbers."""
    return {"genus": 0, "n": n, "d1": 0, "d2": 0, "weights": [
        {"triple": ["0", "0", f"1/{p}"], "beta": f"1/{p}", "gamma": "0"} for p in PRIMES[:n]]}


DIGITS_ERROR = "the certificate's numbers are over the limit of 4300 digits"


# n = 715 is the largest n whose certificate the interpreter could print before
# the limit; from n = 716 on printing failed with a ValueError traceback.  The
# digest was recorded at commit f71d165.
@pytest.mark.parametrize("n, digest", [
    (715, "aa038979a003579f1b7997301bbc9680fcf172fc66b7c2c62d548e04e4a61cf5"),
    (716, None),
    (800, None),
])
def test_stability_check_digit_limit(n, digest, tmp_path, capsys):
    code, out, err = run(["stability", "check", write_json(tmp_path, "p.json", prime_weights(n))],
                         capsys)
    if digest is None:
        assert (code, out, err) == (2, "", f"error: {DIGITS_ERROR}\n")
    else:
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_stability_region_csv_pinned(tmp_path, capsys):
    csv = tmp_path / "region.csv"
    path = write_json(tmp_path, "r.json", REGION_INPUT)
    code, out, _ = run(["stability", "region", path, "--csv", str(csv)], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_OUTPUTS["stability-region"][3]
    assert (hashlib.sha256(csv.read_bytes()).hexdigest()
            == "f52131b8f34610fa7149af4ec68ef6b24a9976bff9e5c359b5ff99d6563842db")


def test_nnoid_check_missing_file(capsys):
    code, _, err = run(["nnoid", "check", "/nonexistent.json"], capsys)
    assert code == 2


def test_stability_check_stable(tmp_path, capsys):
    path = write_json(tmp_path, "s.json", {"genus": 0, "n": 5, "d1": 1, "d2": 2})
    code, out, _ = run(["stability", "check", path], capsys)
    assert code == 0
    cert = json.loads(out)
    assert cert["status"] == "stable"
    assert cert["stability"]["expanded_1"] == {"lhs": "4", "rhs": "9"}


def test_stability_check_unstable_exit(tmp_path, capsys):
    path = write_json(tmp_path, "s.json", {"genus": 0, "n": 5, "d1": 5, "d2": 5})
    code, out, _ = run(["stability", "check", path], capsys)
    assert code == 1
    assert json.loads(out)["status"] == "unstable"


def test_stability_check_weights(tmp_path, capsys):
    obj = {
        "genus": 0,
        "n": 4,
        "d1": 0,
        "d2": 0,
        "weights": [
            {"triple": ["0", "1/3", "1/3"], "beta": "0", "gamma": "1/3"}
        ]
        * 4,
    }
    path = write_json(tmp_path, "w.json", obj)
    code, out, _ = run(["stability", "check", path], capsys)
    assert code in (0, 1)
    assert json.loads(out)["status"] in ("stable", "strictly-semistable", "unstable")


def test_stability_check_bad_weights(tmp_path, capsys):
    obj = {"genus": 0, "n": 5, "d1": 1, "d2": 2, "weights": [{"triple": ["0", "0"]}] * 5}
    path = write_json(tmp_path, "bw.json", obj)
    code, _, _ = run(["stability", "check", path], capsys)
    assert code == 2


def test_stability_region(tmp_path, capsys):
    path = write_json(tmp_path, "r.json", {"genus": 0, "n": 5, "dmax": 3})
    csv = tmp_path / "region.csv"
    code, out, _ = run(["stability", "region", path, "--csv", str(csv)], capsys)
    assert code == 0
    region = [tuple(p) for p in json.loads(out)["region"]]
    expected = [
        (d1, d2) for d1 in range(4) for d2 in range(4) if 2 * d1 + d2 < 9 and d1 + 2 * d2 < 9
    ]
    assert region == expected
    assert csv.read_text().splitlines()[0] == "d1,d2"


def test_ch2_classify(tmp_path, capsys):
    path = write_json(
        tmp_path, "m.json", {"matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
    )
    code, out, _ = run(["ch2", "classify", path], capsys)
    assert code == 0
    assert json.loads(out)["classification"] == "elliptic"


def test_ch2_classify_float_backing(tmp_path, capsys):
    import math

    c, s = math.cosh(1.0), math.sinh(1.0)
    path = write_json(
        tmp_path,
        "b.json",
        {"matrix": [[f"{c}", "0.0", f"{s}"], ["0.0", "1.0", "0.0"], [f"{s}", "0.0", f"{c}"]]},
    )
    code, out, _ = run(["ch2", "classify", path], capsys)
    assert code == 0
    assert json.loads(out)["classification"] == "loxodromic"
    # --exact must refuse the float matrix
    code, _, _ = run(["ch2", "classify", path, "--exact"], capsys)
    assert code == 2


def test_ch2_classify_not_form_preserving(tmp_path, capsys):
    path = write_json(
        tmp_path, "n.json", {"matrix": [["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
    )
    code, _, _ = run(["ch2", "classify", path], capsys)
    assert code == 2
    # malformed entries are input errors too
    for entry in ("1/0", "abc"):
        matrix = [["1", "0", "0"], ["0", entry, "0"], ["0", "0", "1"]]
        path = write_json(tmp_path, "bad.json", {"matrix": matrix})
        code, _, err = run(["ch2", "classify", path], capsys)
        assert code == 2
        assert "Traceback" not in err


def test_ch2_distance(tmp_path, capsys):
    import math

    path = write_json(
        tmp_path,
        "d.json",
        {"z": ["0", "0", "1"], "w": [f"{math.sinh(1.0)}", "0", f"{math.cosh(1.0)}"]},
    )
    code, out, _ = run(["ch2", "distance", path], capsys)
    assert code == 0
    assert abs(json.loads(out)["distance"] - 2.0) < 1e-9


# a coordinate is read as ch2 classify reads a float entry, spaces around the
# sign included; "0.1 + 0.2i" used to exit 2
@pytest.mark.parametrize("literal", ["0.1 + 0.2i", "0.1+0.2i", " 0.1 +0.2 i"])
def test_ch2_distance_reads_complex_literals_as_classify_does(literal, tmp_path, capsys):
    path = write_json(tmp_path, "d.json", {"z": [literal, "0", "1"], "w": ["0", "0", "1"]})
    code, out, _ = run(["ch2", "distance", path], capsys)
    assert code == 0
    assert json.loads(out)["distance"] == ch2.distance([0.1 + 0.2j, 0, 1], [0, 0, 1])


SMALL_GRID = {"Nx": 8, "Ny": 8, "Y": 1.0, "Ymax": 5.0}


def nnoid_json(n: int) -> dict:
    """Valid n-noid data for any n >= 4: punctures 0..n-1, g1 = z0^(n-4),
    g2 = z1^(n-3) (no common zero) and q = z0^3 + z1^3 (nonzero at them)."""
    return {
        "punctures": [str(k) for k in range(n)],
        "residues": ["1"] * (n - 1) + [str(1 - n)],
        "g1": {"degree": n - 4, "coeffs": ["1"] + ["0"] * (n - 4)},
        "g2": {"degree": n - 3, "coeffs": ["0"] * (n - 3) + ["1"]},
        "q": {"degree": 3, "coeffs": ["1", "0", "0", "1"]},
    }


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
def test_malformed_json_exits_2(command, obj, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    code, _, err = run([*command.split(), str(path)], capsys)
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("error:")


def test_cusp_verify(tmp_path, capsys):
    obj = {
        "grid": {"Nx": 64, "Ny": 64, "Y": 1.0, "Ymax": 10.0},
        "spec": {"modes": [[1, 0.5, 0.0]], "poly": [0.0, 0.1, 0.2]},
    }
    path = write_json(tmp_path, "c.json", obj)
    code, out, _ = run(["cusp", "verify", path], capsys)
    assert code == 0
    cert = json.loads(out)
    assert cert["status"] == "pass"
    assert cert["convexity"]["passed"] and cert["sup_bound"]["passed"]


def test_cusp_verify_seeded(tmp_path, capsys):
    path = write_json(tmp_path, "c.json", {"grid": {"Nx": 64, "Ny": 64, "Y": 1.0, "Ymax": 10.0}})
    code, out, _ = run(["cusp", "verify", path, "--seed", "5"], capsys)
    assert code == 0
    code2, out2, _ = run(["cusp", "verify", path, "--seed", "5"], capsys)
    assert out == out2


def test_out_flag(tmp_path, capsys):
    src = write_json(tmp_path, "s.json", {"genus": 0, "n": 5, "d1": 1, "d2": 2})
    dst = tmp_path / "cert.json"
    code, out, _ = run(["stability", "check", src, "--out", str(dst)], capsys)
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


# every flag each subcommand reads, with inputs that pass
KEPT_FLAGS = {
    "nnoid check": (nnoid_json(5), []),
    "nnoid random": (None, ["5", "--seed", "3"]),
    "stability check": ({"genus": 0, "n": 5, "d1": 1, "d2": 2}, []),
    "stability region": (REGION_INPUT, ["--csv", "region.csv"]),
    "ch2 classify": ({"matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
                     ["--tol", "1e-8", "--exact"]),
    "ch2 distance": ({"z": ["0", "0", "1"], "w": ["0.5", "0", "1"]}, []),
    "cusp verify": ({"grid": SMALL_GRID}, ["--seed", "2", "--tol", "0.5"]),
}


@pytest.mark.parametrize("command", sorted(KEPT_FLAGS))
def test_read_flags_accepted(command, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config, flags = KEPT_FLAGS[command]
    inputs = [write_json(tmp_path, "in.json", config)] if config is not None else []
    code, out, _ = run([*command.split(), *inputs, *flags, "--out", "out.json"], capsys)
    assert code == 0
    assert out == ""
    assert json.loads((tmp_path / "out.json").read_text())
    if "--csv" in flags:
        assert (tmp_path / "region.csv").read_text().startswith("d1,d2\n")


def test_unwritable_output_exits_2(tmp_path, capsys):
    path = write_json(tmp_path, "s.json", {"genus": 0, "n": 5, "d1": 1, "d2": 2})
    missing = str(tmp_path / "no-such-dir" / "x")
    for flags in (["stability", "check", path, "--out", missing],
                  ["stability", "region", path, "--csv", missing]):
        code, _, err = run(flags, capsys)
        assert code == 2
        assert err.startswith("error:")


def test_parser_built_once():
    assert cli.build_parser() is cli.build_parser()


# --version, --help and a refused flag leave through SystemExit from the
# shared parser; a later command must not see anything they left behind
def test_parser_exits_leave_later_certificates_unchanged(tmp_path, capsys):
    argv = ["nnoid", "check", write_json(tmp_path, "nn.json", nnoid_json(6))]
    before = run(argv, capsys)
    for exiting in (["--version"], ["--help"], ["nnoid", "check", argv[2], "--seed", "1"]):
        with pytest.raises(SystemExit):
            main(exiting)
        capsys.readouterr()
    assert run(argv, capsys) == before
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
def test_handler_input_error_exits_2(exc_type, tmp_path, capsys, monkeypatch):
    argv = ["nnoid", "check", write_json(tmp_path, "nn.json", nnoid_json(5))]
    raise_from_build_higgs(monkeypatch, exc_type)
    assert run(argv, capsys) == (2, "", "error: raised by build_higgs\n")


# while a handler runs, any other error is a fault and surfaces
@pytest.mark.parametrize(
    "exc_type",
    [ValueError] + [cls for cls in module_exceptions() if cls.__name__ in FAULTS],
    ids=lambda cls: cls.__name__,
)
def test_handler_fault_propagates(exc_type, tmp_path, capsys, monkeypatch):
    argv = ["nnoid", "check", write_json(tmp_path, "nn.json", nnoid_json(5))]
    raise_from_build_higgs(monkeypatch, exc_type)
    with pytest.raises(exc_type, match="raised by build_higgs"):
        main(argv)


# one valid input per config-reading subcommand, mutated by the fuzz test
FUZZ_SEEDS = {
    "nnoid check": nnoid_json(4),
    "stability check": {"genus": 0, "n": 3, "d1": 1, "d2": 0, "weights": REGION_WEIGHTS},
    "stability region": REGION_INPUT,
    "ch2 classify": {"matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
    "ch2 distance": {"z": ["0", "0", "1"], "w": ["0.5", "0.25i", "1"]},
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
def test_mutated_json_never_crashes(command, data, tmp_path_factory):
    seed = FUZZ_SEEDS[command]
    path = data.draw(st.sampled_from(list(_paths(seed))))
    how = data.draw(st.sampled_from([DROP, WRAP, *REPLACEMENTS]))
    text = json.dumps(_mutate(seed, path, how)).replace(f'"{INF}"', "1e400")
    src = tmp_path_factory.mktemp("fuzz") / "in.json"
    src.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command.split(), str(src)])
    assert code in (0, 1, 2), text
    assert "Traceback" not in err.getvalue()
    if code != 2:  # a certificate is strict JSON: no NaN or Infinity
        json.loads(out.getvalue(), parse_constant=_refuse_constant)


def _refuse_constant(name):
    raise ValueError(f"{name} in a certificate")


def test_random_sampler_invariants():
    for n in (4, 5, 8):
        data = random_nnoid_data(n, 17)
        # re-validates all NnoidData invariants
        assert NnoidData.from_json(data.to_json()) == data


SRC = str(Path(chnoids.__file__).resolve().parents[1])

# the boost at t = 1, a float loxodromic
FLOAT_BOOST = {"matrix": [["1.5430806348152437", "0.0", "1.1752011936438014"],
                          ["0.0", "1.0", "0.0"],
                          ["1.1752011936438014", "0.0", "1.5430806348152437"]]}


IDENTITY = {"matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}


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
    path = write_json(tmp_path, "in.json", config)
    with pytest.raises(SystemExit) as exc:
        main([*command.split(), path, *flags, f"--tol={tol}"])
    assert exc.value.code == 2
    assert "argument --tol: need a finite number >= 0" in capsys.readouterr().err


def run_python(args, timeout=60):
    """``python args`` in a new interpreter that imports this checkout's chnoids."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=timeout)


def run_fresh(argv):
    """``python -m chnoids.cli argv`` in a new interpreter; (exit code, stdout)."""
    proc = run_python(["-m", "chnoids.cli", *argv])
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc.returncode, proc.stdout


# In-process tests import every module before they run, so only a new
# interpreter shows a command that needs a module nothing imports for it.
def test_fresh_process_matches_in_process(tmp_path, capsys):
    sampled = tmp_path / "nnoid.json"
    parabolic = {"matrix": [["1+1i", "0", "-1i"], ["0", "1", "0"], ["1i", "0", "1-1i"]]}
    stable = {"genus": 0, "n": 5, "d1": 1, "d2": 2}
    cases = [
        ["nnoid", "random", "5", "--seed", "7"],
        ["nnoid", "check", str(sampled)],
        ["stability", "check", write_json(tmp_path, "s.json", stable)],
        ["ch2", "classify", write_json(tmp_path, "m.json", parabolic)],
        ["cusp", "verify", write_json(tmp_path, "c.json", {"grid": SMALL_GRID}), "--seed", "3"],
        ["stability", "region", write_json(tmp_path, "r.json", REGION_INPUT)],
        ["ch2", "distance", write_json(tmp_path, "d.json", FUZZ_SEEDS["ch2 distance"])],
        ["ch2", "classify", write_json(tmp_path, "f.json", FLOAT_BOOST)],
    ]
    for argv in cases:
        fresh = run_fresh(argv)
        if argv[:2] == ["nnoid", "random"]:
            sampled.write_text(fresh[1])
        assert fresh == run(argv, capsys)[:2], argv
        assert fresh[0] == 0 and fresh[1], argv


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
        ("stability check", prime_weights(800), DIGITS_ERROR),
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
def test_fresh_process_input_error_exits_2(command, obj, message, tmp_path, capsys):
    argv = [*command.split(), write_json(tmp_path, "bad.json", obj)]
    proc = run_python(["-m", "chnoids.cli", *argv])
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")
    assert run(argv, capsys) == (2, "", f"error: {message}\n")


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
def test_fresh_process_refuses_huge_exponent_literal(command, obj, path, literal, tmp_path):
    argv = [*command.split(), write_json(tmp_path, "in.json", _mutate(obj, path, literal))]
    proc = run_python(["-m", "chnoids.cli", *argv])
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", over_digit_limit(literal))


def tall_nnoid(n: int, digits: int, seed: int) -> dict:
    """nnoid_json(n) with seeded g1, g2 whose coefficient parts have ``digits`` digits."""
    rng = random.Random(seed)
    obj = nnoid_json(n)
    for form in ("g1", "g2"):
        size = obj[form]["degree"] + 1
        parts = [rng.randrange(10 ** (digits - 1), 10**digits) * rng.choice((-1, 1))
                 for _ in range(2 * size)]
        obj[form]["coeffs"] = [str(GQ(x, y)) for x, y in zip(parts[::2], parts[1::2])]
    return obj


# At the size limit the cost of deciding "g1 and g2 share no zero" must not
# grow with coefficient height: with 4- and 12-digit coefficients the Q(i)
# resultant took 26 s and over 150 s.  About 0.2 s each on a 2-CPU host, and
# 0.8 s for the shared-zero input below.
NNOID_64_BUDGET_S = 5

# sha256 of the `nnoid check` certificates of the inputs at the size limit below,
# recorded at commit cbc9b39, before the per-puncture pass formed the powers of
# each puncture's denominator once: the tall-coefficient inputs by digit count,
# and the two inputs with non-integer punctures
PINNED_TALL_COEFFICIENTS = {
    4: "df74e45f1d73e6e4c9f0ee167f21647376b465a53bad2af4ff719968abc387b0",
    12: "1d30da8c9edaa743d174bd94db888300b765f48796cdd2cbd2e3ce455d3087a2",
}
PINNED_TALL_PUNCTURES = "fffad467ae6290aefc7622ecaf6fca6dceb602fde54f0b845e915eaa4c97b6ab"
PINNED_PUNCTURE_HEIGHT_CAP = "45c2c2ae22d3a867dba50ac510012d1b6e783317d81b82f51c92b6ba280b37e4"


@pytest.mark.parametrize("digits", [4, 12])
def test_fresh_process_nnoid_check_at_limit_with_tall_coefficients(digits, tmp_path):
    path = write_json(tmp_path, "nn.json", tall_nnoid(cli.MAX_NNOID_N, digits, 6400 + digits))
    start = time.perf_counter()
    proc = run_python(["-m", "chnoids.cli", "nnoid", "check", path], timeout=NNOID_64_BUDGET_S)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    assert json.loads(proc.stdout)["status"] == "stable"
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == PINNED_TALL_COEFFICIENTS[digits]
    assert elapsed < NNOID_64_BUDGET_S


def shared_zero_nnoid(n: int, digits: int, seed: int) -> dict:
    """nnoid_json(n) with g1 = (z0 - (3 + i) z1) h1 and g2 = (z0 - (3 + i) z1) h2,
    where h1, h2 are the seeded g1, g2 of tall_nnoid(n - 1, digits, seed)."""
    obj, tall, c = nnoid_json(n), tall_nnoid(n - 1, digits, seed), GQ(3, 1)
    for form in ("g1", "g2"):
        h = [GQ(0), *map(GaussianRational.parse, tall[form]["coeffs"]), GQ(0)]
        obj[form] = {"degree": tall[form]["degree"] + 1,
                     "coeffs": [str(h[k + 1] - c * h[k]) for k in range(len(h) - 1)]}
    return obj


# g1 and g2 that share a zero reach the Q(i) gcd, which must stay within the
# same budget at 4 digits: the Q(i) resultant took 26 s on this input.
def test_fresh_process_nnoid_check_shared_zero_at_limit(tmp_path):
    path = write_json(tmp_path, "nn.json", shared_zero_nnoid(cli.MAX_NNOID_N, 4, 6404))
    start = time.perf_counter()
    proc = run_python(["-m", "chnoids.cli", "nnoid", "check", path], timeout=NNOID_64_BUDGET_S)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr == "error: g1 and g2 share a projective zero\n"
    assert elapsed < NNOID_64_BUDGET_S


def tall_punctures_nnoid(n: int, digits: int, seed: int) -> dict:
    """nnoid_json(n) with punctures k/d_k + (1/d'_k)i, k = 1..n, for seeded ``digits``-digit
    d_k and d'_k, and residues k/r_k with seeded 60-digit r_k, the last one making the sum zero."""
    rng = random.Random(seed)

    def draw(m):
        return rng.randrange(10 ** (m - 1), 10**m)

    obj = nnoid_json(n)
    obj["punctures"] = [str(GQ(Fraction(k, draw(digits)), Fraction(1, draw(digits))))
                        for k in range(1, n + 1)]
    residues = [Fraction(k, draw(60)) for k in range(1, n)]
    obj["residues"] = [str(GQ(r)) for r in [*residues, -sum(residues)]]
    return obj


# 10-digit puncture denominators at the size limit: building omega as num/V
# over the lcm of all n denominators took 50 s on this input.
def test_fresh_process_nnoid_check_tall_punctures_at_limit(tmp_path):
    path = write_json(tmp_path, "nn.json", tall_punctures_nnoid(cli.MAX_NNOID_N, 10, 55))
    start = time.perf_counter()
    proc = run_python(["-m", "chnoids.cli", "nnoid", "check", path], timeout=NNOID_64_BUDGET_S)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    assert json.loads(proc.stdout)["status"] == "stable"
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == PINNED_TALL_PUNCTURES
    assert elapsed < NNOID_64_BUDGET_S


def puncture_height_nnoid(n: int, height: int) -> dict:
    """nnoid_json(n) with its last puncture moved to 1/2^h, h chosen so that the punctures'
    summed height (the bit lengths of a, b and d over the punctures (a + bi)/d) is ``height``."""
    obj = nnoid_json(n)
    rest = sum(k.bit_length() + 1 for k in range(n - 1))
    obj["punctures"][-1] = f"1/{2 ** (height - rest - 2)}"
    return obj


# n times the summed puncture height at the cap is checked; one step past it
# is refused before any arithmetic.
@pytest.mark.parametrize("past", [0, 1], ids=["at-cap", "past-cap"])
def test_fresh_process_nnoid_check_puncture_height_cap(past, tmp_path):
    n, cap = cli.MAX_NNOID_N, cli.MAX_NNOID_HEIGHT_WORK
    height = cap // n + past
    path = write_json(tmp_path, "nn.json", puncture_height_nnoid(n, height))
    start = time.perf_counter()
    proc = run_python(["-m", "chnoids.cli", "nnoid", "check", path], timeout=NNOID_64_BUDGET_S)
    elapsed = time.perf_counter() - start
    if past:
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
        assert proc.stderr == (f"error: n times the punctures' summed height in bits = "
                               f"{n * height} is over the limit of {cap}\n")
    else:
        assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
        assert json.loads(proc.stdout)["status"] == "stable"
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == PINNED_PUNCTURE_HEIGHT_CAP
    assert elapsed < NNOID_64_BUDGET_S


# Runs main in a new interpreter and prints its exit code and whether numpy
# was loaded, then whether dataclasses was and the chnoids modules loaded,
# sorted; the certificate itself is discarded.
MODULE_PROBE = """
import contextlib, io, sys
from chnoids.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, "numpy" in sys.modules)
print("dataclasses" in sys.modules, *sorted(m for m in sys.modules if m.split(".")[0] == "chnoids"))
"""

NNOID_MODULES = "cli exactnum linalg nnoid sphere"
CH2_MODULES = "ch2 cli exactnum linalg"


# The exact commands never load numpy, nor does the scalar ch2 distance; a
# float ch2 classify does.  Each command loads only the chnoids modules it
# runs, and none without numpy loads dataclasses (numpy may import it).
@pytest.mark.parametrize(
    "argv, obj, loads_numpy, modules",
    [
        (["nnoid", "random", "6", "--seed", "3"], None, False, NNOID_MODULES),
        (["nnoid", "check"], nnoid_json(6), False, NNOID_MODULES + " stability"),
        (["stability", "check"], {"genus": 0, "n": 5, "d1": 1, "d2": 2}, False, "cli stability"),
        (["stability", "region"], REGION_INPUT, False, "cli stability"),
        (["ch2", "classify"], FUZZ_SEEDS["ch2 classify"], False, CH2_MODULES),
        (["ch2", "distance"], FUZZ_SEEDS["ch2 distance"], False, CH2_MODULES),
        (["ch2", "classify"], FLOAT_BOOST, True, CH2_MODULES),
    ],
    ids=["nnoid-random", "nnoid-check", "stability-check", "stability-region",
         "ch2-classify-exact", "ch2-distance", "ch2-classify-float"],
)
def test_numpy_loads_only_for_float_work(argv, obj, loads_numpy, modules, tmp_path):
    if obj is not None:
        argv = [*argv, write_json(tmp_path, "in.json", obj)]
    proc = run_python(["-c", MODULE_PROBE, *argv])
    assert proc.returncode == 0, proc.stderr
    numpy_line, module_line = proc.stdout.splitlines()
    assert numpy_line.split() == ["0", str(loads_numpy)]
    dataclasses_loaded, *loaded = module_line.split()
    assert loaded == ["chnoids", *(f"chnoids.{m}" for m in modules.split())]
    if not loads_numpy:
        assert dataclasses_loaded == "False"

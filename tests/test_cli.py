import hashlib
import json
import random
from fractions import Fraction

import pytest

from chnoids import linalg
from chnoids.ch2 import J_EXACT, Matrix21, random_exact_form_preserving
from chnoids.cli import main, random_nnoid_data
from chnoids.exactnum import GQ, GaussianRational
from chnoids.nnoid import NnoidData


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


SMALL_GRID = {"Nx": 8, "Ny": 8, "Y": 1.0, "Ymax": 5.0}


@pytest.mark.parametrize(
    "command, obj",
    [
        ("ch2 distance", [1]),
        ("ch2 distance", {"z": 5, "w": ["0", "0", "1"]}),
        ("cusp verify", [1]),
        ("cusp verify", {"grid": SMALL_GRID, "spec": 5}),
        ("cusp verify", {"grid": SMALL_GRID, "spec": {"modes": [[1, "a", 0.0]]}}),
        ("cusp verify", {"grid": SMALL_GRID, "spec": {"modes": [], "poly": [0.0, 0.0]}}),
    ],
)
def test_malformed_json_exits_2(command, obj, tmp_path, capsys):
    path = write_json(tmp_path, "bad.json", obj)
    code, _, err = run([*command.split(), path], capsys)
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


def test_random_sampler_invariants():
    for n in (4, 5, 8):
        data = random_nnoid_data(n, 17)
        # re-validates all NnoidData invariants
        assert NnoidData.from_json(data.to_json()) == data

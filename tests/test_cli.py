import hashlib
import json

import pytest

from chnoids.cli import main, random_nnoid_data
from chnoids.exactnum import GaussianRational
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
    for key, value in (("residues", ["1/0"] * 5), ("punctures", 5)):
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

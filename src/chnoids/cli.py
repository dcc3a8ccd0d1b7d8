"""Command-line surface: JSON in, certificate JSON out, summary to stderr.

Exit codes are a stable contract: 0 success, 1 negative verdict, 2 input
error.  All randomness is seeded and the seed is echoed in the output.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import __version__, ch2, cusp, nnoid, stability
from .exactnum import BinaryForm, GaussianRational
from .nnoid import NnoidData, NnoidDataError
from .sphere import ProjPoint, PunctureSet, SphereError, make_log_form

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


class InputError(ValueError):
    pass


def _load_json(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


def _load_object(path: str) -> dict:
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise InputError(f"expected a JSON object in {path}")
    return obj


def _emit(obj: dict, out_path: str | None) -> None:
    text = json.dumps(obj, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _certificate(command: str, input_echo, checks: list[dict], status: str, **extra) -> dict:
    cert = {
        "tool": "chnoids",
        "version": __version__,
        "command": command,
        "input": input_echo,
        "checks": checks,
        "status": status,
    }
    cert.update(extra)
    return cert


def _summary(cert: dict) -> None:
    print(f"[chnoids {cert['command']}] status: {cert['status']}", file=sys.stderr)
    for c in cert["checks"]:
        mark = "ok" if c["passed"] else "FAIL"
        print(f"  {mark:4s} {c['name']}: {c['detail']}", file=sys.stderr)


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


# ---------------------------------------------------------------------------
# nnoid


def cmd_nnoid_check(args) -> int:
    obj = _load_json(args.config)
    try:
        data = NnoidData.from_json(obj)
    except NnoidDataError as exc:
        raise InputError(str(exc)) from exc

    checks = []
    phi = nnoid.build_higgs(data)
    checks.append(
        _check("trace-phi-zero", nnoid.trace_phi(phi).is_zero, "tr Phi vanishes identically")
    )
    tr2 = nnoid.trace_phi_squared(phi)
    checks.append(_check("trace-phi2-zero", tr2.is_zero, "tr Phi^2 vanishes identically"))

    residue_detail = []
    residues_ok = True
    for p in data.punctures:
        direct = nnoid.residue_matrix(phi, p)
        closed = nnoid.residue_matrix_closed_form(data, p)
        agree = direct.matrix == closed.matrix
        k = nnoid.nilpotency_profile(direct.matrix)
        jt = nnoid.JORDAN_TYPES.get(k)
        et = nnoid.END_TYPES[jt].value if jt else None
        ok = agree and k == 3 and jt == (3,) and et == "II"
        residues_ok = residues_ok and ok
        residue_detail.append(
            {"point": str(p), "agree": agree, "nilpotency": k, "jordan": jt, "end_type": et}
        )
    checks.append(
        _check(
            "residues",
            residues_ok,
            "all residues: closed form agrees, nilpotency 3, Jordan (3), TypeII",
        )
    )

    d1, d2 = stability.nnoid_degrees(data.n)
    surf = stability.SurfaceData(0, data.n)
    cert_s = stability.check_mixed_stability(
        stability.MixedDegreeData.weight_free(d1, d2, data.n), surf
    )
    checks.append(
        _check(
            "stability",
            cert_s.verdict == "stable",
            f"(d1, d2) = ({d1}, {d2}); reduced W1/W2 check verdict {cert_s.verdict}",
        )
    )
    f1, f2, semi = stability.prop94_degrees(data.n)
    checks.append(
        _check(
            "invariant-degrees",
            semi == (data.n == 4),
            f"invariant subbundle degrees ({f1}, {f2}), boundary flag {semi}",
        )
    )

    # at n = 4 the degree-0 invariant subbundle sits on the slope boundary,
    # which the reduced W1/W2 inequalities cannot see
    verdict = "strictly-semistable" if semi else cert_s.verdict
    status = verdict if all(c["passed"] for c in checks) else "failed"
    cert = _certificate(
        "nnoid check",
        data.to_json(),
        checks,
        status,
        residues=residue_detail,
        stability=cert_s.to_json(),
    )
    _emit(cert, args.out)
    _summary(cert)
    return EXIT_OK if status != "failed" else EXIT_FAIL


MAX_REJECTIONS = 1000


def random_nnoid_data(n: int, seed: int) -> NnoidData:
    """Seeded rejection sampler for valid n-noid data; small integer entries."""
    if n < 4:
        raise InputError("need n >= 4")
    rng = random.Random(seed)

    def gint(lo=-4, hi=4):
        return GaussianRational.of(rng.randint(lo, hi), rng.randint(-2, 2))

    for _ in range(MAX_REJECTIONS):
        try:
            pool = [GaussianRational.of(a, b) for a in range(-5, 6) for b in range(-2, 3)]
            pts = [ProjPoint.finite(z) for z in rng.sample(pool, n)]
            punctures = PunctureSet.of(pts)
            residues = []
            for _ in range(n - 1):
                r = gint()
                while r.is_zero:
                    r = gint()
                residues.append(r)
            last = GaussianRational.of(0)
            for r in residues:
                last = last - r
            if last.is_zero:
                continue
            residues.append(last)
            omega = make_log_form(punctures, residues)
            g1 = BinaryForm.of(n - 4, [gint() for _ in range(n - 3)])
            g2 = BinaryForm.of(n - 3, [gint() for _ in range(n - 2)])
            q = BinaryForm.of(3, [gint() for _ in range(4)])
            return NnoidData.make(punctures, omega, g1, g2, q)
        except (NnoidDataError, SphereError, ValueError):
            continue
    raise InputError(f"rejection sampler exhausted {MAX_REJECTIONS} attempts")


def cmd_nnoid_random(args) -> int:
    data = random_nnoid_data(args.n, args.seed)
    obj = data.to_json()
    obj["seed"] = args.seed
    _emit(obj, args.out)
    print(f"[chnoids nnoid random] n={args.n} seed={args.seed}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# stability


def _parse_weights(obj: dict, n: int) -> list[stability.PunctureWeights]:
    raw = obj.get("weights")
    if not raw:
        return [stability.PunctureWeights.of(stability.WeightTriple.zero())] * n
    if len(raw) != n:
        raise InputError(f"need {n} weight entries, got {len(raw)}")
    out = []
    for entry in raw:
        try:
            triple = stability.WeightTriple.of(*[_fraction(s) for s in entry["triple"]])
            beta = _fraction(entry["beta"]) if "beta" in entry else None
            gamma = _fraction(entry["gamma"]) if "gamma" in entry else None
            out.append(stability.PunctureWeights.of(triple, beta, gamma))
        except (KeyError, TypeError, stability.StabilityError) as exc:
            raise InputError(f"malformed weight entry {entry!r}: {exc}") from exc
    return out


def _fraction(s):
    from fractions import Fraction

    try:
        return Fraction(str(s))
    except ValueError as exc:
        raise InputError(f"bad rational {s!r}") from exc


def cmd_stability_check(args) -> int:
    obj = _load_json(args.config)
    try:
        surf = stability.SurfaceData(int(obj["genus"]), int(obj["n"]))
        weights = _parse_weights(obj, surf.punctures)
        data = stability.MixedDegreeData.of(int(obj["d1"]), int(obj["d2"]), weights)
    except (KeyError, TypeError, ValueError, stability.StabilityError) as exc:
        raise InputError(f"malformed stability input: {exc}") from exc
    cert_s = stability.check_mixed_stability(data, surf)
    checks = [
        _check(
            "W1-slope",
            "W1" not in cert_s.failing or cert_s.verdict != "unstable",
            f"mu(W1) = {cert_s.slope_w1[0]} vs mu(E) = {cert_s.slope_w1[1]}",
        ),
        _check(
            "W2-slope",
            "W2" not in cert_s.failing or cert_s.verdict != "unstable",
            f"mu(W2) = {cert_s.slope_w2[0]} vs mu(E) = {cert_s.slope_w2[1]}",
        ),
    ]
    cert = _certificate("stability check", obj, checks, cert_s.verdict, stability=cert_s.to_json())
    _emit(cert, args.out)
    _summary(cert)
    return EXIT_OK if cert_s.verdict == "stable" else EXIT_FAIL


def cmd_stability_region(args) -> int:
    obj = _load_json(args.config)
    try:
        surf = stability.SurfaceData(int(obj["genus"]), int(obj["n"]))
        weights = _parse_weights(obj, surf.punctures)
        dmax = int(obj.get("dmax", 6))
        region = stability.stability_region(surf, weights, dmax)
    except (KeyError, TypeError, ValueError, stability.StabilityError) as exc:
        raise InputError(f"malformed region input: {exc}") from exc
    checks = [_check("region", True, f"{len(region)} stable pairs with d1, d2 <= {dmax}")]
    cert = _certificate(
        "stability region",
        obj,
        checks,
        "done",
        region=[list(p) for p in region],
    )
    _emit(cert, args.out)
    _summary(cert)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("d1,d2\n")
            for d1, d2 in region:
                fh.write(f"{d1},{d2}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# ch2


def cmd_ch2_classify(args) -> int:
    obj = _load_json(args.config)
    try:
        a = ch2.Matrix21.from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed matrix input: {exc}") from exc
    if args.exact and not a.is_exact:
        raise InputError("--exact given but the matrix has floating entries")
    try:
        label = ch2.classify_isometry(a, tol=args.tol)
    except ch2.CH2Error as exc:
        raise InputError(str(exc)) from exc
    checks = [_check("classification", True, label)]
    cert = _certificate(
        "ch2 classify",
        a.to_json(),
        checks,
        label,
        classification=label,
        tol=args.tol,
    )
    _emit(cert, args.out)
    _summary(cert)
    return EXIT_OK


def _parse_vector(raw) -> list:
    if len(raw) != 3:
        raise InputError("CH^2 points are 3-vectors")
    try:
        return [complex(str(x).replace("i", "j")) for x in raw]
    except ValueError as exc:
        raise InputError(f"bad vector entry: {exc}") from exc


def cmd_ch2_distance(args) -> int:
    obj = _load_object(args.config)
    try:
        z = _parse_vector(obj["z"])
        w = _parse_vector(obj["w"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed distance input: {exc}") from exc
    try:
        d = ch2.distance(z, w)
    except ch2.CH2Error as exc:
        raise InputError(str(exc)) from exc
    checks = [_check("distance", True, f"d = {d:.12g}")]
    cert = _certificate("ch2 distance", obj, checks, "done", distance=d)
    _emit(cert, args.out)
    _summary(cert)
    return EXIT_OK


# ---------------------------------------------------------------------------
# cusp


def cmd_cusp_verify(args) -> int:
    obj = _load_object(args.config)
    try:
        grid = cusp.StripGrid.from_json(obj.get("grid", {"Nx": 256, "Ny": 256, "Y": 1.0, "Ymax": 20.0}))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed grid spec: {exc}") from exc
    if "spec" in obj:
        try:
            raw = obj["spec"]
            spec = cusp.SubharmonicSpec(
                tuple(tuple(m) for m in raw.get("modes", [])),
                tuple(raw.get("poly", (0.0, 0.0, 0.0))),
            )
        except (AttributeError, TypeError, ValueError, cusp.CuspGridError) as exc:
            raise InputError(f"malformed generator spec: {exc}") from exc
    else:
        spec = cusp.random_subharmonic_spec(random.Random(args.seed))
    field = cusp.make_subharmonic_sample(spec, grid)
    tol = args.tol if args.tol is not None else grid.default_tol()
    conv = cusp.check_mean_convexity(field, tol=tol)
    sup = cusp.check_sup_bound(field, tol=tol)
    checks = [
        _check("mean-convexity", conv.passed, f"worst slack {conv.worst_slack:.3e}, tol {tol:.3e}"),
        _check("sup-bound", sup.passed, f"worst slack {sup.worst_slack:.3e}, tol {tol:.3e}"),
    ]
    status = "pass" if conv.passed and sup.passed else "failed"
    cert = _certificate(
        "cusp verify",
        {"grid": grid.to_json(), "spec": {"modes": [list(m) for m in spec.modes], "poly": list(spec.poly)}, "seed": args.seed},
        checks,
        status,
        convexity=conv.to_json(),
        sup_bound=sup.to_json(),
    )
    _emit(cert, args.out)
    _summary(cert)
    return EXIT_OK if status == "pass" else EXIT_FAIL


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chnoids")
    parser.add_argument("--version", action="version", version=f"chnoids {__version__}")
    sub = parser.add_subparsers(dest="module", required=True)

    def common(p, tol_default=None):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=tol_default)
        p.add_argument("--exact", action="store_true")
        p.add_argument("--out", metavar="PATH", default=None)

    p_nnoid = sub.add_parser("nnoid").add_subparsers(dest="action", required=True)
    p = p_nnoid.add_parser("check")
    p.add_argument("config")
    common(p)
    p.set_defaults(func=cmd_nnoid_check)
    p = p_nnoid.add_parser("random")
    p.add_argument("n", type=int)
    common(p)
    p.set_defaults(func=cmd_nnoid_random)

    p_stab = sub.add_parser("stability").add_subparsers(dest="action", required=True)
    p = p_stab.add_parser("check")
    p.add_argument("config")
    common(p)
    p.set_defaults(func=cmd_stability_check)
    p = p_stab.add_parser("region")
    p.add_argument("config")
    p.add_argument("--csv", default=None)
    common(p)
    p.set_defaults(func=cmd_stability_region)

    p_ch2 = sub.add_parser("ch2").add_subparsers(dest="action", required=True)
    p = p_ch2.add_parser("classify")
    p.add_argument("config")
    common(p, tol_default=ch2.DEFAULT_TOL)
    p.set_defaults(func=cmd_ch2_classify)
    p = p_ch2.add_parser("distance")
    p.add_argument("config")
    common(p, tol_default=ch2.DEFAULT_TOL)
    p.set_defaults(func=cmd_ch2_distance)

    p_cusp = sub.add_parser("cusp").add_subparsers(dest="action", required=True)
    p = p_cusp.add_parser("verify")
    p.add_argument("config")
    common(p)
    p.set_defaults(func=cmd_cusp_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: JSON in, certificate JSON out, summary to stderr.

Exit codes are a stable contract: 0 success, 1 negative verdict, 2 input
error.  All randomness is seeded and the seed is echoed in the output.

Each subcommand is an entry of ``COMMANDS``; ``main`` is the one boundary
around them that loads the JSON, maps ``chnoids.InputError`` (the base of
every module's error class) to exit 2, emits the output and the summary, and
picks the exit code.  ``_encode`` writes every output, with the bytes of
``json.dumps(output, indent=2)``.

Every module a command runs, past the package itself, is imported inside
that command's parse and handler functions, so each command loads only the
modules it runs: ``stability check`` and ``stability region`` load
``stability`` alone, and every command but ``cusp verify`` (``nnoid``,
``stability`` and ``ch2``, a float ``ch2 classify`` included) loads neither
numpy nor ``dataclasses``, which only ``cusp`` uses.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from . import MAX_CERTIFICATE_DIGITS, InputError, __version__, array, integer, rational

if TYPE_CHECKING:
    from . import ch2
    from .nnoid import NnoidData

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

# Size limits; a larger input is an input error.  At each limit, in a fresh
# process with its imports, on a 2-CPU host with Python 3.11: nnoid check takes
# 0.11-0.12 s at n = 64 with 1-, 4- or 12-digit coefficients, with g1 = z0^60,
# g2 = z1^61, and with one puncture at the height cap (the per-puncture pass
# grows with n times the punctures' summed height, the bit lengths of a, b and
# d over the punctures (a + bi)/d); when g1 and g2 share the zero 3 + i, the
# Q(i) gcd refuses it in 0.19 s at 1 digit, 0.5-0.7 s at 4, 2.4 s at 12 and
# 14.8 s at 30, still growing.  4,300-digit g1, g2 coefficients cost 6.2 s at
# n = 64 and 9.3 s with a puncture at the cap; their height is not bounded
# here.  A stability region takes 0.07 s at n = 5, dmax = 140; stability check
# or a region at dmax = 0 0.07-0.10 s at n = 10^5 with zero weights and
# 1.3-1.9 s weighted; stability check 0.15 s at the digit limit; cusp verify
# 0.28 s on a 1024 x 1024 grid alone, 0.52 s on 8 x 2^17, 0.31 s with 16 modes
# on 1024 x 1024 and 4.9 s with 2^18 modes on 8 x 8, of which sampling mode by
# mode takes about 2.3 s and writing the 24 MB echo of the modes 1.2 s.
MAX_NNOID_N = 64
MAX_NNOID_HEIGHT_WORK = 700_000  # n times the punctures' summed height, in bits
MAX_STABILITY_WORK = 10**5  # (d1, d2) pairs in [0, dmax]^2 times n
MAX_GRID_POINTS = 2**20  # Nx * Ny
MAX_MODE_WORK = 2**24  # spec modes times Nx * Ny


# Malformed JSON shows up as any of these while it is turned into domain
# objects; during the computation only an InputError is an input error, and
# anything else is a fault that surfaces.
PARSE_ERRORS = (KeyError, IndexError, TypeError, ValueError, AttributeError, ArithmeticError)


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


# the classes whose values json writes as they are; a container holding only
# these goes to json's C encoder, which writes no indent of its own
_SCALARS = frozenset((str, int, float, bool, type(None)))
_all_scalars = _SCALARS.issuperset  # of an iterable of classes
_encode_str = json.encoder.encode_basestring_ascii


def _unserializable(o):
    """json's ``default``: refuse o."""
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


@functools.cache
def _newline(level: int) -> str:
    return "\n" + "  " * level


@functools.cache
def _flat_encoder(level: int):
    """json's C encoder with the item separator of indent level ``level``."""
    return json.encoder.c_make_encoder(
        None, _unserializable, _encode_str, None, ": ", "," + _newline(level), False, False, True
    )


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == json.encoder.INFINITY:
        return "Infinity"
    if x == -json.encoder.INFINITY:
        return "-Infinity"
    return float.__repr__(x)


def _key(k) -> str:
    if isinstance(k, str):
        return k
    if isinstance(k, float):
        return _float(k)
    if k is True:
        return "true"
    if k is False:
        return "false"
    if k is None:
        return "null"
    if isinstance(k, int):
        return int.__repr__(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _encode(o, level: int = 0) -> str:
    """o as ``json.dumps(o, indent=2)`` writes it, at indent level ``level``.

    Scalars, keys and the type order are json's.  A list, tuple or dict
    whose items are all of a class in _SCALARS is one C encoder call, its
    brackets padded to the indent.  Certificates are trees, so there is no
    check for a circular reference.
    """
    if isinstance(o, str):
        return _encode_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        brackets, flat = "[]", _all_scalars(map(type, o))
    elif isinstance(o, dict):
        if not o:
            return "{}"
        brackets, flat = "{}", _all_scalars(map(type, o.values())) and _all_scalars(map(type, o))
    else:
        _unserializable(o)
    inner = _newline(level + 1)
    if flat:
        body = "".join(_flat_encoder(level + 1)(o, 0))[1:-1]
    elif brackets == "[]":
        body = ("," + inner).join([_encode(v, level + 1) for v in o])
    else:
        body = ("," + inner).join([_encode_str(_key(k)) + ": " + _encode(v, level + 1) for k, v in o.items()])
    return brackets[0] + inner + body + _newline(level) + brackets[1]


def _emit(obj: dict, out_path: str | None) -> None:
    text = _encode(obj)
    if out_path:
        _write(out_path, text + "\n")
    else:
        print(text)


def _certificate(args, input_echo, checks: list[dict], status: str, **extra) -> dict:
    cert = {
        "tool": "chnoids",
        "version": __version__,
        "command": args.command,
        "input": input_echo,
        "checks": checks,
        "status": status,
    }
    cert.update(extra)
    return cert


def _summary(command: str, output: dict) -> None:
    print(f"[chnoids {command}] status: {output.get('status', 'done')}", file=sys.stderr)
    for c in output.get("checks", ()):
        mark = "ok" if c["passed"] else "FAIL"
        print(f"  {mark:4s} {c['name']}: {c['detail']}", file=sys.stderr)


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _over_limit(what: str, value: int, limit: int) -> None:
    if value > limit:
        raise InputError(f"{what} = {value} is over the limit of {limit}")


# ---------------------------------------------------------------------------
# nnoid


def _parse_nnoid_check(obj: dict, args) -> NnoidData:
    from .exactnum import GaussianRational
    from .nnoid import NnoidData

    literals = array(obj["punctures"], "punctures")
    _over_limit("n", len(literals), MAX_NNOID_N)
    punctures = [GaussianRational.parse(s) for s in literals]
    work = len(punctures) * sum(x.bit_length() for p in punctures for x in p.parts)
    _over_limit("n times the punctures' summed height in bits", work, MAX_NNOID_HEIGHT_WORK)
    return NnoidData.from_json(obj, punctures)


def cmd_nnoid_check(data: NnoidData, args) -> tuple[dict, bool]:
    from . import nnoid, stability

    checks = []
    s = nnoid.build_higgs(data)
    checks.append(
        _check("trace-phi-zero", nnoid.trace_phi(s).is_zero, "tr Phi vanishes identically")
    )
    tr2 = nnoid.trace_phi_squared(s)
    checks.append(_check("trace-phi2-zero", tr2.is_zero, "tr Phi^2 vanishes identically"))

    residue_detail = []
    residues_ok = True
    plan, closed = nnoid.residue_plan(s), nnoid.closed_form_plan(data.g1, data.g2, data.q)
    for p, r in zip(data.punctures, data.omega.residues):
        direct = nnoid.residue_matrix(plan, p, r)
        agree = direct == nnoid.residue_matrix_closed_form(closed, p, r)
        k = nnoid.nilpotency_profile(direct[0])
        jt = nnoid.JORDAN_TYPES.get(k)
        et = nnoid.END_TYPES[jt] if jt else None
        ok = agree and k == 3
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
    cert_s = stability.check_mixed_stability(stability.MixedDegreeData.of(d1, d2, ()), surf)
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
        args,
        data.to_json(),
        checks,
        status,
        residues=residue_detail,
        stability=cert_s.to_json(),
    )
    return cert, status != "failed"


MAX_REJECTIONS = 1000


@functools.cache
def puncture_pool() -> tuple:
    """Candidate punctures a + bi, |a| <= 5, |b| <= 2; seeded draws depend on this order."""
    from .exactnum import GaussianRational

    return tuple(GaussianRational.of(a, b) for a in range(-5, 6) for b in range(-2, 3))


def random_nnoid_data(n: int, seed: int) -> NnoidData:
    """Seeded rejection sampler for valid n-noid data; small integer entries."""
    import random

    from .exactnum import BinaryForm, GaussianRational
    from .nnoid import NnoidData
    from .sphere import make_log_form

    pool = puncture_pool()
    if n < 4:
        raise InputError("need n >= 4")
    if n > len(pool):
        raise InputError(f"nnoid random draws at most {len(pool)} punctures")
    rng = random.Random(seed)

    def gint(lo=-4, hi=4):
        return GaussianRational.of(rng.randint(lo, hi), rng.randint(-2, 2))

    for _ in range(MAX_REJECTIONS):
        try:
            punctures = rng.sample(pool, n)
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
            return NnoidData.make(omega, g1, g2, q)
        except InputError:
            continue
    raise InputError(f"rejection sampler exhausted {MAX_REJECTIONS} attempts")


def cmd_nnoid_random(n: int, args) -> tuple[dict, bool]:
    obj = random_nnoid_data(n, args.seed).to_json()
    obj["seed"] = args.seed
    return obj, True


# ---------------------------------------------------------------------------
# stability


def _parse_stability(obj: dict, pairs: int):
    """Surface and per-puncture weights for a query over ``pairs`` (d1, d2) pairs."""
    from . import stability

    surf = stability.SurfaceData(integer(obj["genus"], "genus"), integer(obj["n"], "n"))
    _over_limit("(d1, d2) pairs times n", pairs * surf.punctures, MAX_STABILITY_WORK)
    raw = array(obj.get("weights", []), "weights")
    if not raw:
        return surf, ()  # zero weights: every sum is zero
    if len(raw) != surf.punctures:
        raise InputError(f"need {surf.punctures} weight entries, got {len(raw)}")
    # weights repeat, so each distinct string is parsed once and each distinct
    # entry validated once; a repeated entry is then one shared object, which
    # stability.MixedDegreeData.of counts instead of adding again
    parsed: dict[str, Fraction] = {}
    built: dict[tuple, stability.PunctureWeights] = {}

    def fraction(s: str) -> Fraction:
        if s not in parsed:
            parsed[s] = rational(s)
        return parsed[s]

    weights = []
    for entry in raw:
        values = array(entry["triple"], "a weight triple")
        if len(values) != 3:
            raise InputError(f"a weight triple has 3 entries, got {len(values)}")
        key = (
            tuple(map(str, values)),
            str(entry["beta"]) if "beta" in entry else None,
            str(entry["gamma"]) if "gamma" in entry else None,
        )
        if key not in built:
            triple, beta, gamma = key
            built[key] = stability.PunctureWeights.of(
                stability.WeightTriple.of(*map(fraction, triple)),
                None if beta is None else fraction(beta),
                None if gamma is None else fraction(gamma),
            )
        weights.append(built[key])
    return surf, weights


def _parse_stability_check(obj: dict, args):
    from . import stability

    surf, weights = _parse_stability(obj, 1)
    d1, d2 = integer(obj["d1"], "d1"), integer(obj["d2"], "d2")
    return obj, surf, stability.MixedDegreeData.of(d1, d2, weights)


def cmd_stability_check(inputs, args) -> tuple[dict, bool]:
    from . import stability

    obj, surf, data = inputs
    cert_s = stability.check_mixed_stability(data, surf)
    bound = 10**MAX_CERTIFICATE_DIGITS
    for pair in (cert_s.slope_w1, cert_s.slope_w2, cert_s.expanded_1, cert_s.expanded_2):
        if any(abs(x.numerator) >= bound or x.denominator >= bound for x in pair):
            raise InputError(
                f"the certificate's numbers are over the limit of {MAX_CERTIFICATE_DIGITS} digits"
            )
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
    cert = _certificate(args, obj, checks, cert_s.verdict, stability=cert_s.to_json())
    return cert, cert_s.verdict == "stable"


def _parse_stability_region(obj: dict, args):
    dmax = integer(obj.get("dmax", 6), "dmax")
    return (obj, dmax, *_parse_stability(obj, max(dmax + 1, 0) ** 2))


def cmd_stability_region(inputs, args) -> tuple[dict, bool]:
    from . import stability

    obj, dmax, surf, weights = inputs
    region = stability.stability_region(surf, weights, dmax)
    if args.csv:
        _write(args.csv, "d1,d2\n" + "".join(f"{d1},{d2}\n" for d1, d2 in region))
    checks = [_check("region", True, f"{len(region)} stable pairs with d1, d2 <= {dmax}")]
    cert = _certificate(
        args,
        obj,
        checks,
        "done",
        region=[list(p) for p in region],
    )
    return cert, True


# ---------------------------------------------------------------------------
# ch2


def _parse_ch2_classify(obj, args) -> ch2.Matrix21:
    from . import ch2

    a = ch2.Matrix21.from_json(obj)
    if args.exact and not a.is_exact:
        raise InputError("--exact given but the matrix has floating entries")
    return a


def cmd_ch2_classify(a: ch2.Matrix21, args) -> tuple[dict, bool]:
    from . import ch2

    tol = ch2.DEFAULT_TOL if args.tol is None else args.tol
    label = ch2.classify_isometry(a, tol=tol)
    checks = [_check("classification", True, label)]
    cert = _certificate(
        args,
        a.to_json(),
        checks,
        label,
        classification=label,
        tol=tol,
    )
    return cert, True


def _vector(raw) -> list:
    from . import ch2

    if len(array(raw, "a CH^2 point")) != 3:
        raise InputError("CH^2 points are 3-vectors")
    return [ch2._parse_complex(str(x)) for x in raw]


def _parse_ch2_distance(obj: dict, args):
    return obj, _vector(obj["z"]), _vector(obj["w"])


def cmd_ch2_distance(inputs, args) -> tuple[dict, bool]:
    from . import ch2

    obj, z, w = inputs
    d = ch2.distance(z, w)
    checks = [_check("distance", True, f"d = {d:.12g}")]
    return _certificate(args, obj, checks, "done", distance=d), True


# ---------------------------------------------------------------------------
# cusp


def _parse_cusp_verify(obj: dict, args):
    import random

    from . import cusp

    grid = cusp.StripGrid.from_json(obj.get("grid", {"Nx": 256, "Ny": 256, "Y": 1.0, "Ymax": 20.0}))
    _over_limit("Nx * Ny", grid.nx * grid.ny, MAX_GRID_POINTS)
    if "spec" not in obj:
        return grid, cusp.random_subharmonic_spec(random.Random(args.seed))
    raw = obj["spec"]
    spec = cusp.SubharmonicSpec(
        tuple(tuple(m) for m in raw.get("modes", [])),
        tuple(raw.get("poly", (0.0, 0.0, 0.0))),
    )
    _over_limit("modes * Nx * Ny", len(spec.modes) * grid.nx * grid.ny, MAX_MODE_WORK)
    return grid, spec


def cmd_cusp_verify(inputs, args) -> tuple[dict, bool]:
    from . import cusp

    grid, spec = inputs
    field = spec.sample(grid)
    # the sup bound first: its full-size buffer then reuses the memory that
    # sampling freed.  glibc returns about 1 MB freed at the top of the heap to
    # the system, and on a 256 x 256 grid the Laplacian's two buffers come to
    # that; with this order a verify takes about 240 page faults instead of 440.
    sup = cusp.check_sup_bound(field, tol=args.tol)
    conv = cusp.check_mean_convexity(field, tol=args.tol)
    checks = [
        _check("mean-convexity", conv.passed, f"worst slack {conv.worst_slack:.3e}, tol {conv.tol:.3e}"),
        _check("sup-bound", sup.passed, f"worst slack {sup.worst_slack:.3e}, tol {sup.tol:.3e}"),
    ]
    status = "pass" if conv.passed and sup.passed else "failed"
    cert = _certificate(
        args,
        {"grid": grid.to_json(), "spec": {"modes": [list(m) for m in spec.modes], "poly": list(spec.poly)}, "seed": args.seed},
        checks,
        status,
        convexity=conv.to_json(),
        sup_bound=sup.to_json(),
    )
    return cert, status == "pass"


# ---------------------------------------------------------------------------
# wiring


def tolerance(text: str) -> float:
    """A --tol value: a finite number >= 0, so that no certificate prints NaN or Infinity."""
    tol = float(text)  # argparse reports a ValueError as an invalid tolerance value
    if not 0 <= tol <= sys.float_info.max:
        raise argparse.ArgumentTypeError(f"need a finite number >= 0, got {text!r}")
    return tol


ARGUMENTS = {
    "config": dict(help="JSON input file, or - for stdin"),
    "n": dict(type=int, help="number of punctures"),
    "--out": dict(metavar="PATH", help="write the output to PATH instead of stdout"),
    "--seed": dict(type=int, default=0, help="seed of the random generator (default 0)"),
    "--tol": dict(type=tolerance, help="tolerance of the floating-point checks"),
    "--exact": dict(action="store_true", help="refuse a matrix with floating entries"),
    "--csv": dict(metavar="PATH", help="also write the stable pairs as CSV to PATH"),
}

# subcommand: (the ARGUMENTS it reads, parse, handler).  parse(loaded JSON or
# None, args) returns the domain input; handler(domain input, args) returns
# the output and whether it passed.
COMMANDS = {
    "nnoid check": (("config", "--out"), _parse_nnoid_check, cmd_nnoid_check),
    "nnoid random": (("n", "--seed", "--out"), lambda _, args: args.n, cmd_nnoid_random),
    "stability check": (("config", "--out"), _parse_stability_check, cmd_stability_check),
    "stability region": (("config", "--out", "--csv"), _parse_stability_region,
                         cmd_stability_region),
    "ch2 classify": (("config", "--tol", "--exact", "--out"), _parse_ch2_classify,
                     cmd_ch2_classify),
    "ch2 distance": (("config", "--out"), _parse_ch2_distance, cmd_ch2_distance),
    "cusp verify": (("config", "--seed", "--tol", "--out"), _parse_cusp_verify,
                    cmd_cusp_verify),
}


@functools.cache
def _parsers() -> dict[tuple[str, ...], argparse.ArgumentParser]:
    """The argparse tree, built once: the root under (), each command's subparser
    under its two words."""
    parser = argparse.ArgumentParser(prog="chnoids")
    parser.add_argument("--version", action="version", version=f"chnoids {__version__}")
    modules = parser.add_subparsers(dest="module", required=True)
    parsers, actions = {(): parser}, {}
    for name, (arguments, _, _) in COMMANDS.items():
        module, action = name.split()
        if module not in actions:
            actions[module] = modules.add_parser(module).add_subparsers(dest="action", required=True)
        p = parsers[module, action] = actions[module].add_parser(action)
        for arg in arguments:
            p.add_argument(arg, **ARGUMENTS[arg])
        p.set_defaults(command=name)
    return parsers


def build_parser() -> argparse.ArgumentParser:
    return _parsers()[()]


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed by the subparser of the command its first two words name; by the
    whole tree if they name none, words are left over or the root would read one as
    two of its options ("--=x"), so that every usage, help and error line is the tree's."""
    leaf = _parsers().get(tuple(argv[:2]))
    if leaf is not None and not any(a.startswith("--=") for a in argv[2:]):
        args, rest = leaf.parse_known_args(argv[2:])
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    arguments, parse, handler = COMMANDS[args.command]
    # ints of MAX_CERTIFICATE_DIGITS digits must read and print: hold the limit there (0: none)
    limit = getattr(sys, "get_int_max_str_digits", int)()
    held = 0 < limit < MAX_CERTIFICATE_DIGITS
    if held:
        sys.set_int_max_str_digits(MAX_CERTIFICATE_DIGITS)
    try:
        try:
            inputs = parse(_load_json(args.config) if "config" in arguments else None, args)
        except InputError:
            raise
        except PARSE_ERRORS as exc:
            raise InputError(f"malformed input: {type(exc).__name__}: {exc}") from exc
        output, passed = handler(inputs, args)
        _emit(output, args.out)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if held:
            sys.set_int_max_str_digits(limit)
    _summary(args.command, output)
    return EXIT_OK if passed else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: seeded inputs, the operations on them, and
the expectation each operation's output is checked against.

Every expectation is known to the benchmark independently of the
program: n-noid statuses follow from n, isometry labels from how each
matrix was built, stability regions from the benchmark's own evaluation
of the two expanded strict inequalities, and strip-harness checks must
pass because the sampled fields are subharmonic by construction and the
Lipschitz bound is a metric fact.

A workload is a list of rounds, each holding one operation of every
kind in the mix; the timed loop runs whole rounds, cycling through them,
so every seed sees the same mix.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from chnoids import ch2, cli, cusp, linalg
from chnoids.exactnum import GaussianRational

WORKLOADS = ("nnoid-certify", "isometry-classify", "region-strip")


@dataclass
class Op:
    """One operation and the output it must produce.

    CLI operations run ``chnoids <argv>`` in-process and compare the
    certificate field ``key`` with ``expect``; every check in the
    certificate must pass as well.  Direct operations call
    ``cusp.check_distance_lipschitz(*args)`` (no subcommand exposes it)
    and compare the report's ``passed`` flag with ``expect``.
    """

    kind: str
    expect: object
    argv: list[str] | None = None
    key: str = "status"
    args: tuple = ()


@dataclass
class Workload:
    name: str
    rounds: list[list[Op]]
    cold_argv: list[str]  # the representative command, run in fresh processes


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``chnoids <argv>`` in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


# ---------------------------------------------------------------------------
# nnoid-certify


def build_nnoid_certify(seed: int, workdir: Path, tiny: bool) -> Workload:
    """``nnoid check`` on instances from the program's own sampler, n = 4..12."""
    rng = random.Random(seed)
    # n = 11 and 12 come twice per round: the median then falls in the
    # middle of the n = 9 operations and the 90th percentile in the middle
    # of the n = 12 ones, rather than on the edge between two sizes
    ns = (4, 5, 6) if tiny else (*range(4, 11), 11, 11, 12, 12)
    rounds = []
    for idx in range(1 if tiny else 6):
        ops = []
        for n in ns:
            path = str(workdir / f"nnoid-n{n}-{idx}-{len(ops)}.json")
            argv = ["nnoid", "random", str(n), "--seed", str(rng.randrange(2**31)), "--out", path]
            rc, _ = run_cli(argv)
            if rc != 0:
                raise RuntimeError(f"chnoids {' '.join(argv)} exited {rc}")
            # n = 4 sits on the slope boundary; every larger n is stable
            expect = "strictly-semistable" if n == 4 else "stable"
            ops.append(Op("nnoid-check", expect, ["nnoid", "check", path]))
        rounds.append(ops)
    return Workload("nnoid-certify", rounds, rounds[0][-1].argv)


# ---------------------------------------------------------------------------
# isometry-classify

GQ = GaussianRational.of
J = linalg.mat([[GQ(1), GQ(0), GQ(0)], [GQ(0), GQ(1), GQ(0)], [GQ(0), GQ(0), GQ(-1)]])
J_FLOAT = np.diag([1.0, 1.0, -1.0]).astype(complex)
NULL_VECTORS = ((1, 0, 1), (0, 1, 1), (3, 4, 5), (5, 12, 13))


def _unit(rng: random.Random) -> GaussianRational:
    """A unit Gaussian rational z / conj(z)."""
    z = GQ(rng.randrange(1, 6), rng.randrange(0, 6))
    return z / z.conjugate()


def _distinct_units(rng: random.Random, k: int) -> list[GaussianRational]:
    out: list[GaussianRational] = []
    while len(out) < k:
        u = _unit(rng)
        if u not in out:
            out.append(u)
    return out


def _diag(d) -> linalg.Matrix:
    return linalg.mat([[d[i] if i == j else GQ(0) for j in range(3)] for i in range(3)])


def _exact_seed(kind: str, rng: random.Random) -> linalg.Matrix:
    if kind == "regular-elliptic":
        return _diag(_distinct_units(rng, 3))
    if kind == "repeated-elliptic":
        u, v = _distinct_units(rng, 2)
        return _diag(rng.choice([(u, u, v), (u, v, u), (v, u, u)]))
    if kind == "parabolic":  # I + i v v* J with v = (1, 0, 1) null
        one, zero, i = GQ(1), GQ(0), GQ(0, 1)
        return linalg.mat([[one + i, zero, -i], [zero, one, zero], [i, zero, one - i]])
    # rational boost with t = 2: cosh = (t + 1/t)/2, sinh = (t - 1/t)/2
    ch, sh = GQ(Fraction(5, 4)), GQ(Fraction(3, 4))
    return linalg.mat([[ch, GQ(0), sh], [GQ(0), GQ(1), GQ(0)], [sh, GQ(0), ch]])


# A round holds these exact operations and three of each float kind.  The
# median latency then falls among the float classifications and the 90th
# percentile in the middle of the costliest exact kind, the repeated
# eigenvalue (it alone reaches minimal_polynomial), which comes twice.
EXACT_ROUND = ("regular-elliptic", "repeated-elliptic", "repeated-elliptic", "parabolic",
               "loxodromic")
EXACT_LABELS = {
    "regular-elliptic": "elliptic",
    "repeated-elliptic": "elliptic",
    "parabolic": "parabolic",
    "loxodromic": "loxodromic",
}
FLOAT_KINDS = {"loxodromic": "loxodromic", "identity": "elliptic", "unipotent": "parabolic"}
FLOAT_COPIES = 3


def _exact_conjugate(kind: str, rng: random.Random) -> ch2.Matrix21:
    g = ch2.random_exact_form_preserving(random.Random(rng.randrange(2**31))).rows
    g_inv = linalg.mat_mul(linalg.mat_mul(J, linalg.conj_transpose(g)), J)  # g* J g = J
    return ch2.Matrix21(linalg.mat_mul(linalg.mat_mul(g, _exact_seed(kind, rng)), g_inv))


def _float_conjugate(kind: str, rng: random.Random, nrng) -> ch2.Matrix21:
    if kind == "loxodromic":
        a, scale = ch2.boost(rng.uniform(0.5, 2.0)).as_array(), 0.4
    elif kind == "identity":
        a, scale = np.eye(3, dtype=complex), 0.4
    else:
        # exp(s K) with K = i t v v* J nilpotent in u(2,1) and s real
        v = np.array(rng.choice(NULL_VECTORS), dtype=complex)
        k = 1j * rng.choice((1, -2, 3)) * np.outer(v, v.conj()) @ J_FLOAT
        a, scale = ch2.unipotent_exponential(k, 0.25 / (2j * math.pi)).as_array(), 0.3
    g = ch2.random_form_preserving(nrng, scale=scale).as_array()
    return ch2.Matrix21.floating(g @ a @ np.linalg.inv(g))


def build_isometry_classify(seed: int, workdir: Path, tiny: bool) -> Workload:
    """``ch2 classify`` on conjugates whose label is known by construction."""
    rng = random.Random(seed)
    nrng = np.random.default_rng(rng.randrange(2**31))
    rounds = []
    for idx in range(1 if tiny else 40):
        ops = []
        for j, kind in enumerate(EXACT_ROUND):
            m = _exact_conjugate(kind, rng)
            path = _write(workdir / f"exact-{kind}-{idx}-{j}.json", m.to_json())
            ops.append(
                Op(f"exact-{kind}", EXACT_LABELS[kind], ["ch2", "classify", path],
                   key="classification")
            )
        for (kind, label), copy in itertools.product(FLOAT_KINDS.items(), range(FLOAT_COPIES)):
            m = _float_conjugate(kind, rng, nrng)
            path = _write(workdir / f"float-{kind}-{idx}-{copy}.json", m.to_json())
            ops.append(Op(f"float-{kind}", label, ["ch2", "classify", path], key="classification"))
        rounds.append(ops)
    return Workload("isometry-classify", rounds, rounds[0][0].argv)


# ---------------------------------------------------------------------------
# region-strip

REGION_NS = (3, 4, 5, 6, 7, 8)
# A round holds one strip harness check, three Lipschitz checks, one small
# and two large region queries: the median then falls in the middle of the
# Lipschitz checks and the 90th percentile among the large queries.  A
# query checks (dmax + 1)^2 pairs at a cost linear in n (about n + 2.2
# units a pair), so dmax is chosen from n to keep that work equal to
# dmax = 16 or 40 at n = 5, and every seed gets the same cost mix.
REGION_WORK = (17**2 * 7.2, 41**2 * 7.2)


def region_dmax(n: int, work: float) -> int:
    return round(math.sqrt(work / (n + 2.2))) - 1


DENOMINATORS = (2, 3, 4, 5, 6, 8, 12)


def expected_region(genus: int, n: int, weights: list[dict], dmax: int) -> list[list[int]]:
    """Stable (d1, d2) pairs from the two expanded strict inequalities:
    2 d1 + d2 < 3k + sum(omega - 3 beta) and
    d1 + 2 d2 < 3k + sum(2 omega - 3 (beta + gamma)), k = 2g - 2 + n."""
    kappa = 2 * genus - 2 + n
    omega = sum(sum(Fraction(a) for a in w["triple"]) for w in weights)
    beta = sum(Fraction(w["beta"]) for w in weights)
    gamma = sum(Fraction(w["gamma"]) for w in weights)
    rhs1 = 3 * kappa + omega - 3 * beta
    rhs2 = 3 * kappa + 2 * omega - 3 * (beta + gamma)
    return [
        [d1, d2]
        for d1 in range(dmax + 1)
        for d2 in range(dmax + 1)
        if 2 * d1 + d2 < rhs1 and d1 + 2 * d2 < rhs2
    ]


def _region_input(rng: random.Random, n: int, dmax: int) -> dict:
    weights = []
    for _ in range(n):
        q = rng.choice(DENOMINATORS)
        triple = sorted(Fraction(rng.randrange(q), q) for _ in range(3))
        weights.append(
            {
                "triple": [str(a) for a in triple],
                "beta": str(rng.choice(triple)),
                "gamma": str(rng.choice(triple)),
            }
        )
    return {"genus": rng.randrange(3), "n": n, "dmax": dmax, "weights": weights}


def _subharmonic_spec(rng: random.Random) -> dict:
    """Harmonic modes a e^(-k y) cos(k x + phi) plus a convex profile in y."""
    modes = [
        [rng.randrange(1, 6), rng.uniform(-2.0, 2.0), rng.uniform(0.0, 2 * math.pi)]
        for _ in range(rng.randrange(0, 5))
    ]
    return {"modes": modes, "poly": [rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0, 1)]}


def _ch2_map(rng: random.Random, grid: cusp.StripGrid) -> cusp.StripField:
    """F = (z1, z2, 1) with |z1|, |z2| <= 0.55, so every sample lies in CH^2.

    Both moduli stay >= 0.05 and each winds in x, so neighbouring samples
    are never so close that the distance loses its precision."""
    xs, ys = grid.xs[None, :], grid.ys[:, None]
    f = np.empty((grid.ny, grid.nx, 3), dtype=complex)
    for c in (0, 1):
        k = rng.randrange(1, 4)
        phase, shift = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
        radius = 0.3 + 0.25 * np.sin(ys + shift)
        f[..., c] = radius * np.exp(1j * (k * xs + phase))
    f[..., 2] = 1.0
    return cusp.StripField(grid, np.zeros((grid.ny, grid.nx)), f)


def build_region_strip(seed: int, workdir: Path, tiny: bool) -> Workload:
    """Region enumeration, the strip harness and the Lipschitz check."""
    rng = random.Random(seed)
    verify_grid = {"Nx": 32, "Ny": 32, "Y": 1.0, "Ymax": 20.0} if tiny else {
        "Nx": 256, "Ny": 256, "Y": 1.0, "Ymax": 20.0
    }
    lip_grid = cusp.StripGrid(8, 8, 1.0, 4.0) if tiny else cusp.StripGrid(48, 48, 1.0, 4.0)
    work = (5**2 * 7.2, 7**2 * 7.2) if tiny else REGION_WORK
    n_rounds = 1 if tiny else len(REGION_NS)
    # each region slot sees every n once per cycle of rounds
    slots = ("small", "large", "large")
    ns = [rng.sample(REGION_NS, len(REGION_NS)) for _ in slots]
    rounds = []
    for idx in range(n_rounds):
        ops = []
        spec = {"grid": verify_grid, "spec": _subharmonic_spec(rng)}
        path = _write(workdir / f"verify-{idx}.json", spec)
        ops.append(Op("cusp-verify", "pass", ["cusp", "verify", path]))
        for _ in range(3):
            a, b = (rng.uniform(0, 0.4) * np.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in "ab")
            base = (complex(a), complex(b), 1.0 + 0j)
            ops.append(Op("lipschitz", True, args=(_ch2_map(rng, lip_grid), base)))
        for j, size in enumerate(slots):
            n = ns[j][idx]
            obj = _region_input(rng, n, region_dmax(n, work[size == "large"]))
            path = _write(workdir / f"region-{idx}-{j}.json", obj)
            expect = expected_region(obj["genus"], n, obj["weights"], obj["dmax"])
            ops.append(Op(f"region-{size}", expect, ["stability", "region", path], key="region"))
        rounds.append(ops)
    return Workload("region-strip", rounds, rounds[0][-1].argv)


BUILDERS = {
    "nnoid-certify": build_nnoid_certify,
    "isometry-classify": build_isometry_classify,
    "region-strip": build_region_strip,
}


def build(name: str, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    return BUILDERS[name](seed, workdir, tiny)


def perform(op: Op):
    """Run one operation and return its raw result, unchecked."""
    if op.argv is None:
        return cusp.check_distance_lipschitz(*op.args)
    return run_cli(op.argv)


def check(op: Op, result) -> tuple[bool, str]:
    """(output as expected, output text) for a result of ``perform``."""
    if op.argv is None:
        # the report holds numpy scalars (passed is a numpy bool)
        text = json.dumps(result.to_json(), default=lambda x: x.item())
        return bool(result.passed) == op.expect, text
    rc, out = result
    if rc != 0:
        return False, out
    cert = json.loads(out)
    ok = cert.get(op.key) == op.expect and all(c["passed"] for c in cert["checks"])
    return ok, out

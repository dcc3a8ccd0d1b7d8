"""Benchmark entry point: run one workload and print its metrics.

    python3 bench/run.py --workload nnoid-certify --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports ``chnoids`` from
``src/`` and refuses to run (exit 2, no result line) where that is
missing.  The last line of standard output is the result as JSON; the
lines before it name every metric with its unit, and the line before
the result holds the full report.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("nnoid-certify", "isometry-classify", "region-strip")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a few small inputs, for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs and exit; times set-up in a fresh interpreter")
    return p.parse_args(argv)


class Terminated(BaseException):
    """Raised on SIGTERM; no handler inside the run catches it."""


def _terminate(signum, frame):
    raise Terminated


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM, unwind: child processes are killed and waited for, and
    # the generated inputs are removed
    signal.signal(signal.SIGTERM, _terminate)
    src = ROOT / "src"
    if not (src / "chnoids" / "__init__.py").is_file():
        print(f"error: no program source at {src / 'chnoids'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import chnoids

    if Path(chnoids.__file__).resolve().parent != (src / "chnoids").resolve():
        print(f"error: imported chnoids from {chnoids.__file__}, not {src}", file=sys.stderr)
        return 2
    import harness

    harness.pin_cpu()
    tiny = args.size == "tiny"
    if args.setup_only:
        harness.setup_only(args.workload, args.seed, tiny)
        return 0
    report = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace), tiny)
    if report.get("wiring_errors"):
        print(json.dumps({"report": report}), file=sys.stderr)
        for err in report["wiring_errors"]:
            print(f"error: span wiring: {err}", file=sys.stderr)
        return 3
    harness.print_report(report)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated:
        sys.exit(128 + signal.SIGTERM)

"""Run every workload, untraced and traced, and print all metrics in one table.

    python3 bench/report.py --seed 1            # print the table
    python3 bench/report.py --seed 1 --record   # also append to bench/trajectory.json

Each run is a fresh ``bench/run.py`` process, so every workload starts
from a fresh interpreter.
"""

from __future__ import annotations

import argparse
import datetime
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TRAJECTORY = BENCH / "trajectory.json"


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-2])["report"]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--record", action="store_true",
                   help="append the results to bench/trajectory.json")
    p.add_argument("--label", default="", help="what the recorded entry measures")
    args = p.parse_args(argv)

    names = [w["name"] for w in spec["workloads"]]
    reports = {w: tuple(run(w, args.seed, args.seconds, t) for t in (0, 1)) for w in names}

    def table(title, metrics, trace):
        print(f"\n{title:38s} {'unit':12s}" + "".join(f"{w:>20s}" for w in names))
        for name, unit in metrics:
            row = []
            for w in names:
                report = reports[w][trace]
                value = report[name] if name == "fail_ratio" else report["metrics"][name]
                row.append(f"{value:20.6g}")
            print(f"{name:38s} {unit:12s}" + "".join(row))

    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]] + [("fail_ratio", "ratio")]
    table("end-to-end (untraced run)", e2e, 0)
    table("per-layer (traced run)", [(m["name"], m["unit"]) for m in spec["per_layer"]], 1)
    print("\n" + "".join(
        f"{w}: {reports[w][0]['timed_ops']} timed ops, failed {reports[w][0]['failed']} of "
        f"{reports[w][0]['attempted']}, cert_digest {reports[w][0]['cert_digest'][:16]}\n"
        for w in names
    ), end="")

    if args.record:
        first = reports[names[0]][0]
        entry = {
            "label": args.label,
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "machine": first["machine"],
            "seconds": args.seconds,
            "workloads": {
                w: {
                    "end_to_end": untraced["metrics"],
                    "fail_ratio": untraced["fail_ratio"],
                    "attempted": untraced["attempted"],
                    "failed": untraced["failed"],
                    "timed_ops": untraced["timed_ops"],
                    "cert_digest": untraced["cert_digest"],
                    "per_layer": traced["metrics"],
                    "layer_entries": traced["layer_entries"],
                }
                for w, (untraced, traced) in reports.items()
            },
        }
        history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        history.append(entry)
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")
        print(f"recorded entry {len(history)} in {TRAJECTORY.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The certificate corpus, every pinned output of chnoids, and its runner.

``cases.json`` maps each case's name to ``[argv, stdin, exit, pin]``, with
``{"numpy": true}``, a time bound ``{"seconds": s}`` or a module budget
``{"modules": "cli ..."}`` where one holds: one case per command names the
chnoids modules that the command loads in a new interpreter, sorted.
argv is split at spaces.  After exit 2, an input error, stdout is empty and
stderr is the one line ``error: <pin>``; otherwise pin is the sha256 of
stdout, and stderr holds only the ``[chnoids ...]`` summary and its ok/FAIL
lines.  A case fails on any warning its run raises.  stdin is null,
``["file", name]``, a file beside this module, the stdout of ``["chnoids",
argv]``, or the JSON of ``["json", obj]`` or of ``inputs.<generator>(*args)``
for ``[generator, *args]``.  ``{BIG}`` stands for 5,000 nines.

``PYTHONPATH=src:tests python -m corpus.run [PREFIX ...]`` checks every case
in this process, or with prefixes only the cases whose names start with one
of them, skipping those that need numpy where it is missing; a mismatch
names the case, its pin and what it got, and a case whose command raises
names the case and the exception, prints the traceback to stderr, and the
run goes on.  A case with a module budget is also run in a new interpreter
(``check_modules``).  Stdlib only, for the floor.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

from chnoids import cli
from corpus import inputs

HERE = Path(__file__).parent
SRC = str(Path(cli.__file__).resolve().parents[1])

# what cli._summary writes to stderr after exit 0 or 1, and nothing else
SUMMARY = re.compile(r"\[chnoids [^]\n]*\] status: [^\n]*\n(?:  (?:ok  |FAIL) [^\n]*\n)*").fullmatch


def load() -> dict[str, dict]:
    """The cases by name, each a dict of its fields."""
    text = (HERE / "cases.json").read_text(encoding="utf-8").replace("{BIG}", inputs.BIG)
    return {name: {"name": name, "argv": argv.split(), "stdin": stdin, "exit": code, "pin": pin,
                   **dict(*extra)}
            for name, (argv, stdin, code, pin, *extra) in json.loads(text).items()}


def run(argv: list[str], stdin: str = "") -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``chnoids argv`` on stdin, in this process."""
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def stdin_text(case: dict) -> str:
    """What case writes to the command's stdin."""
    if case["stdin"] is None:
        return ""
    source, *args = case["stdin"]
    if source == "file":
        return (HERE / args[0]).read_text(encoding="utf-8")
    if source == "chnoids":
        return run(args[0].split())[1]
    return json.dumps(args[0] if source == "json" else getattr(inputs, source)(*args))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def pinned(case: dict) -> dict:
    """What case pins, as observed() gives it."""
    if case["exit"] == cli.EXIT_INPUT:
        return {"exit": case["exit"], "stdout": "", "stderr": f"error: {case['pin']}\n"}
    return {"exit": case["exit"], "sha256": case["pin"]}


def observed(case: dict, code: int, out: str, err: str) -> dict:
    """A run of case, as pinned(case) gives it."""
    if case["exit"] == cli.EXIT_INPUT:
        return {"exit": code, "stdout": out, "stderr": err}
    return {"exit": code, "sha256": digest(out)}


def check(case: dict) -> None:
    """Run case, raising an AssertionError on a mismatch."""
    text = stdin_text(case)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        code, out, err = run(case["argv"], text)
        elapsed = time.perf_counter() - start
    got = observed(case, code, out, err)
    if got != pinned(case):
        raise AssertionError(f"{case['name']}: pinned {pinned(case)}, got {got}")
    if caught:
        warning = caught[0]
        raise AssertionError(f"{case['name']}: warned {warning.category.__name__}: {warning.message}")
    if code != cli.EXIT_INPUT and not SUMMARY(err):
        raise AssertionError(f"{case['name']}: stderr holds more than the summary: {err!r}")
    if elapsed > case.get("seconds", elapsed):
        raise AssertionError(f"{case['name']}: took {elapsed:.2f} s, over its {case['seconds']} s")


# Runs main on argv in a new interpreter, its output discarded, and prints the exit
# code, whether numpy and dataclasses were loaded and the chnoids modules loaded, sorted.
PROBE = """
import contextlib, io, sys
from chnoids.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(code, "numpy" in sys.modules, "dataclasses" in sys.modules,
      *sorted(m[len("chnoids."):] for m in sys.modules if m.startswith("chnoids.")))
"""


def check_modules(case: dict) -> None:
    """Run case in a new interpreter, raising an AssertionError unless it exits as pinned
    and loads the chnoids modules of its budget and no others, and numpy and dataclasses
    only if it needs numpy (numpy may import dataclasses)."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, *case["argv"]], input=stdin_text(case),
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
                          timeout=60)
    if proc.returncode:
        raise AssertionError(f"{case['name']}: the module probe failed: {proc.stderr}")
    code, numpy, dataclasses, *modules = proc.stdout.split()
    needs_numpy = bool(case.get("numpy"))
    got = int(code), numpy == "True", dataclasses == "True" and not needs_numpy, " ".join(modules)
    want = case["exit"], needs_numpy, False, case["modules"]
    if got != want:
        raise AssertionError(f"{case['name']}: (exit, numpy, dataclasses, modules) should be "
                             f"{want}, got {got}")


def main(prefixes: list[str]) -> int:
    cases = load()
    unmatched = [p for p in prefixes if not any(name.startswith(p) for name in cases)]
    if unmatched:
        print(f"no case name starts with {', '.join(unmatched)}")
        return 2
    cases = {name: case for name, case in cases.items()
             if not prefixes or name.startswith(tuple(prefixes))}
    runnable = [case for case in cases.values()
                if not case.get("numpy") or importlib.util.find_spec("numpy")]
    failed = 0
    for case in runnable:
        try:
            check(case)
            if "modules" in case:
                check_modules(case)
        except AssertionError as exc:
            print(f"FAIL {exc}")
            failed += 1
        except (Exception, SystemExit) as exc:  # a fault in the command: name it, run the rest
            traceback.print_exc()
            print(f"FAIL {case['name']}: {type(exc).__name__}: {exc}")
            failed += 1
    print(f"{len(runnable) - failed} passed, {failed} failed, "
          f"{len(cases) - len(runnable)} skipped: they need numpy")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

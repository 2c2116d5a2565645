#!/usr/bin/env python3
"""Where the time of a fresh ``spinaf`` process goes, command by command.

For each command, runs N fresh interpreters one after another.  Each
imports ``spinaf.cli``, then runs the command through ``spinaf.cli.main``
with ``catalog.load_catalog`` timed, and reports three spans: the import,
the catalog load, and the rest of the command.  Prints the median of each
in milliseconds, with the median wall time of the whole process, and the
modules the command loaded beyond those of a bare interpreter: the
``spinaf`` modules, then the others.

    python3 tools/startup_split.py               # 10 runs per command
    python3 tools/startup_split.py --runs 20 --src ../other-checkout/src

The children inherit the environment, so ``PYTHONDONTWRITEBYTECODE=1``
(no ``__pycache__``, every module compiled from source) holds in them too
when it is set.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

COMMANDS = (
    ("classify", "--family", "27", "--params", "k4=1"),
    ("export", "--family", "4", "--params", "k1=1"),
    ("lift-group", "--family", "103"),
    ("char", "--family", "75"),
    ("verify",),
)

# Runs in the child.  It imports nothing that a bare interpreter has not
# loaded already, so the modules it reports are the command's.
CHILD = """
import io, sys, time
before = set(sys.modules)
start = time.perf_counter()
import spinaf.cli
imported = time.perf_counter()
from spinaf import catalog
load = catalog.load_catalog
spent = []
def timed(path):
    t = time.perf_counter()
    try:
        return load(path)
    finally:
        spent.append(time.perf_counter() - t)
catalog.load_catalog = timed
out, sys.stdout = sys.stdout, io.StringIO()
try:
    spinaf.cli.main(sys.argv[1:])
except SystemExit:
    pass
done = time.perf_counter()
sys.stdout = out
print(repr({"import": imported - start, "load": sum(spent),
            "command": done - imported - sum(spent),
            "modules": sorted(set(sys.modules) - before)}))
"""


def run_once(src: Path, args) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", CHILD, *args], env=env,
                          capture_output=True, text=True, check=True)
    result = ast.literal_eval(done.stdout.strip().splitlines()[-1])
    result["wall"] = time.perf_counter() - start
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="fresh interpreters per command")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="the src directory of the checkout to measure")
    args = parser.parse_args()

    bare = []
    for _ in range(args.runs):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        bare.append(time.perf_counter() - start)
    print(f"python {sys.version.split()[0]}, {args.runs} runs per command, "
          f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')}")
    print(f"bare interpreter (python -c pass): {1000 * statistics.median(bare):.1f} ms wall")
    print(f"{'command':<36} {'wall':>7} {'import':>7} {'load':>7} {'command':>8}  (median ms)")
    for command in COMMANDS:
        runs = [run_once(args.src, command) for _ in range(args.runs)]
        med = {k: 1000 * statistics.median(r[k] for r in runs)
               for k in ("wall", "import", "load", "command")}
        print(f"{' '.join(command):<36} {med['wall']:7.1f} {med['import']:7.1f} "
              f"{med['load']:7.1f} {med['command']:8.1f}")
        modules = runs[0]["modules"]
        print("    spinaf: " + " ".join(m for m in modules if m.split(".")[0] == "spinaf"))
        print("    others: " + " ".join(m for m in modules if m.split(".")[0] != "spinaf"))
    return 0


if __name__ == "__main__":
    sys.exit(main())

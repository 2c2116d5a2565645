#!/usr/bin/env python3
"""Where the time of a fresh ``spinaf`` process goes, command by command.

For each command, runs N fresh interpreters one after another.  Each
imports ``spinaf.cli``, then runs the command through ``spinaf.cli.main``
with ``catalog.load_catalog`` timed, and reports three spans: the import,
the catalog load, and the rest of the command.  Prints the median of each
in milliseconds with its quartiles, with the wall time of the whole
process, and the modules the command loaded beyond those of a bare
interpreter: the ``spinaf`` modules, then the others.

With ``--against OTHER_SRC`` each command's batch alternates the two
checkouts run by run (which goes first swaps every run), so drift in the
host's speed falls on both alike, and each span is printed for both.

    python3 tools/startup_split.py               # 10 runs per command
    python3 tools/startup_split.py --runs 20 --src ../other-checkout/src
    python3 tools/startup_split.py --against ../parent-checkout/src

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


SPANS = ("wall", "import", "load", "command")


def spread(values) -> str:
    """The median in milliseconds, with the quartiles in brackets."""
    ms = sorted(1000 * v for v in values)
    q1, q3 = statistics.quantiles(ms, n=4)[::2] if len(ms) > 1 else (ms[0], ms[0])
    return f"{statistics.median(ms):6.1f} [{q1:.1f}-{q3:.1f}]"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="fresh interpreters per command")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="the src directory of the checkout to measure")
    parser.add_argument("--against", type=Path, metavar="OTHER_SRC",
                        help="a second src directory, run alternately with --src in each batch")
    args = parser.parse_args()
    checkouts = [args.src] + ([args.against] if args.against else [])

    bare = []
    for _ in range(args.runs):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        bare.append(time.perf_counter() - start)
    print(f"python {sys.version.split()[0]}, {args.runs} runs per command, "
          f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')}")
    for k, src in enumerate(checkouts):
        print(f"checkout {k}: {src}")
    print(f"bare interpreter (python -c pass): {spread(bare)} ms wall")
    print(f"{'command':<36} {'':>2} " + " ".join(f"{k:>19}" for k in SPANS)
          + "  (median [quartiles] ms)")
    for command in COMMANDS:
        runs = [[] for _ in checkouts]
        order = range(len(checkouts))
        for i in range(args.runs):
            for k in reversed(order) if i % 2 else order:
                runs[k].append(run_once(checkouts[k], command))
        for k, batch in enumerate(runs):
            label = " ".join(command) if k == 0 else ""
            print(f"{label:<36} {k:>2} "
                  + " ".join(f"{spread(r[span] for r in batch):>19}" for span in SPANS))
        for k, batch in enumerate(runs):
            modules = batch[0]["modules"]
            if k and modules == runs[0][0]["modules"]:
                continue  # a second checkout's modules, printed only where they differ
            own = [m for m in modules if m.split(".")[0] == "spinaf"]
            tag = f" ({k})" if k else ""
            print(f"    spinaf{tag}: " + " ".join(own))
            print(f"    others{tag}: " + " ".join(m for m in modules if m not in own))
    return 0


if __name__ == "__main__":
    sys.exit(main())

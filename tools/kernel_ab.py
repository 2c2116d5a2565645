#!/usr/bin/env python3
"""Per-call times of the Spin(4) and 4 x 4 kernels, in process, A against B.

Each round runs one fresh interpreter per checkout.  The interpreter builds
its inputs from that checkout's ``spinaf``: the 192 signed permutation
matrices of SO(4) ("perm") and the 90 degree rotation R in the plane of e1
and (e2 + e3)/sqrt2 times each of them ("mixed", M R, whose entries are
not signed permutations), with their preimages.  It then times, per call
and as the best of ``--passes`` passes over the inputs:

* ``preimage``: ``spin.preimage(M)``;
* ``lam``: ``spin.lam(x)`` for the preimage x of M;
* ``product``: the Clifford product x * y of neighbouring preimages;
* ``mat_mul``: ``linalg.mat_mul(M, N)`` of neighbouring matrices;
* ``op``: what one operation of the benchmark's ``double_cover`` workload
  does, ``preimage(M)`` and ``lam(x * y) == mat_mul(lam(x), lam(y))``.

Prints the median per call in microseconds over the rounds, with the
quartiles in brackets.  With ``--against OTHER_SRC`` each round runs both
checkouts, swapping which goes first every round, so drift in the host's
speed falls on both alike, and prints the change of the medians and the
number of rounds in which ``--src`` was faster.

    python3 tools/kernel_ab.py                       # 10 rounds, 7 passes
    python3 tools/kernel_ab.py --against ../parent-checkout/src
    python3 tools/kernel_ab.py --rounds 1 --passes 1 # a smoke run

The children inherit the environment, so ``PYTHONDONTWRITEBYTECODE=1``
holds in them too when it is set.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import statistics
import subprocess
import sys
from pathlib import Path

KERNELS = ("preimage", "lam", "product", "mat_mul", "op")
INPUTS = ("perm", "mixed")

# Runs in the child, with the checkout's src first on sys.path; argv[1] is
# the number of passes.  Prints {(kernel, inputs): seconds per call}.
CHILD = """
import itertools, sys, time
from fractions import Fraction
from spinaf import linalg, spin
from spinaf.clifford import CliffordElement
from spinaf.qsqrt2 import QSqrt2

passes = int(sys.argv[1])
perms = []
for perm in itertools.permutations(range(4)):
    for signs in itertools.product((1, -1), repeat=4):
        M = linalg.as_matrix([[signs[j] if perm[j] == i else 0 for j in range(4)] for i in range(4)])
        if linalg.det(M) == QSqrt2(1):
            perms.append(M)
half, quarter = QSqrt2(0, Fraction(1, 2)), QSqrt2(Fraction(1, 2))
R = spin.lam(CliffordElement(4, {0: half, 0b0011: quarter, 0b0101: quarter}))
inputs = {"perm": perms, "mixed": [linalg.mat_mul(M, R) for M in perms]}

def op(ms, xs, j):
    p, _ = spin.preimage(ms[j])
    x, y = xs[j], xs[j - 1]
    return (p == x or p == -x) and spin.lam(x * y) == linalg.mat_mul(spin.lam(x), spin.lam(y))

out = {}
for kind, ms in inputs.items():
    xs = [spin.preimage(M)[0] for M in ms]
    calls = {
        "preimage": lambda j: spin.preimage(ms[j]),
        "lam": lambda j: spin.lam(xs[j]),
        "product": lambda j: xs[j] * xs[j - 1],
        "mat_mul": lambda j: linalg.mat_mul(ms[j], ms[j - 1]),
        "op": lambda j: op(ms, xs, j),
    }
    assert all(op(ms, xs, j) for j in range(len(ms)))
    for name, call in calls.items():
        best = float("inf")
        for _ in range(passes):
            start = time.perf_counter()
            for j in range(len(ms)):
                call(j)
            best = min(best, time.perf_counter() - start)
        out[name, kind] = best / len(ms)
print(repr(out))
"""


def run_once(src: Path, passes: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", CHILD, str(passes)], env=env,
                          capture_output=True, text=True, check=True)
    return ast.literal_eval(done.stdout.strip().splitlines()[-1])


def spread(values) -> str:
    """The median in microseconds, with the quartiles in brackets."""
    us = sorted(1e6 * v for v in values)
    q1, q3 = statistics.quantiles(us, n=4)[::2] if len(us) > 1 else (us[0], us[0])
    return f"{statistics.median(us):7.2f} [{q1:.2f}-{q3:.2f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=10, help="fresh interpreters per checkout")
    parser.add_argument("--passes", type=int, default=7, help="passes over the inputs per interpreter")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="the src directory of the checkout to measure")
    parser.add_argument("--against", type=Path, metavar="OTHER_SRC",
                        help="a second src directory, run alternately with --src")
    args = parser.parse_args(argv)
    checkouts = [args.src] + ([args.against] if args.against else [])

    runs = [[] for _ in checkouts]
    order = range(len(checkouts))
    for i in range(args.rounds):
        for k in reversed(order) if i % 2 else order:
            runs[k].append(run_once(checkouts[k], args.passes))

    print(f"python {sys.version.split()[0]}, {args.rounds} rounds, best of {args.passes} passes")
    for k, src in enumerate(checkouts):
        print(f"checkout {k}: {src}")
    head = " ".join(f"{k:>24}" for k in order)
    print(f"{'kernel':<18} {head}" + ("  change  faster" if args.against else "") + "  (median [quartiles] us)")
    for name in KERNELS:
        for kind in INPUTS:
            key = (name, kind)
            line = f"{name + ' ' + kind:<18} " + " ".join(f"{spread(r[key] for r in batch):>24}" for batch in runs)
            if args.against:
                a, b = ([r[key] for r in batch] for batch in runs)
                change = statistics.median(a) / statistics.median(b) - 1
                line += f"  {100 * change:+5.1f} %  {sum(x < y for x, y in zip(a, b))}/{args.rounds}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

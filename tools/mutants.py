#!/usr/bin/env python3
"""Check the tests' power: apply each listed mutant and see a test kill it.

Each mutant is a name, a file, an exact text, its replacement and the test
files that must kill it.  For each one, the tool copies ``src/``, ``tests/``,
``tools/``, ``docs/`` and ``pyproject.toml`` to a temporary directory,
replaces the text (which must occur exactly once) and runs ``pytest -x`` on
the mutant's test files there.  A mutant is killed when pytest reports a
failing test.  The tool exits 1 when a mutant survives, when its text no
longer matches the file, or when pytest cannot run the tests at all (a
mutant that breaks the import is no test of the tests).

    python3 tools/mutants.py

A change that alters a mutated line updates that mutant's text.  This is no
tier-1 test: it runs the listed test files once per mutant, about a minute
in all.  Standard library and pytest only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "tools", "docs", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str
    text: str
    replacement: str
    tests: Tuple[str, ...]


MUTANTS = (
    # record checks where F is built, and the command outputs
    Mutant("no-lattice-generator-check", "src/spinaf/holonomy.py",
           "        if name not in names:\n            raise InconsistentRecord(",
           "        if False:\n            raise InconsistentRecord(",
           ("tests/test_catalog.py",)),
    Mutant("no-orientability-check", "src/spinaf/holonomy.py",
           "    if any(d != 1 for d in dets):",
           "    if False:",
           ("tests/test_catalog.py",)),
    Mutant("no-closure-size-refusal", "src/spinaf/fp.py",
           "    if len(elements) != order:",
           "    if False:",
           ("tests/test_fp.py",)),
    Mutant("parallelizable-misspelt", "src/spinaf/cli.py",
           '["family", "holonomy", "params", "count", "parallelizable"]',
           '["family", "holonomy", "params", "count", "parallelisable"]',
           ("tests/test_output_digests.py",)),
    Mutant("fraction-entry-parser", "src/spinaf/cli.py",
           "    def entry(text: str):\n",
           "    def entry(text: str):\n"
           "        from fractions import Fraction\n"
           "        q = Fraction(text)\n"
           "        return _reduced(q.numerator, 0, q.denominator)\n",
           ("tests/test_cli.py",)),
    Mutant("qsqrt2-json-on-fractions", "src/spinaf/cli.py",
           "    (a_num, a_den), (b_num, b_den) = c.ratios()\n",
           "    (a_num, a_den), (b_num, b_den) = c.a.as_integer_ratio(), c.b.as_integer_ratio()\n",
           ("tests/test_cli.py",)),
    # the count path
    Mutant("parity-system-drops-a-sign-bit", "src/spinaf/fp.py",
           "                constant_signs.append(sign)",
           "                constant_signs.append(0)",
           ("tests/test_catalog.py",)),
    Mutant("parity-system-drops-a-toggle", "src/spinaf/fp.py",
           "                        toggle[column[name]] ^= bit[gen]",
           "                        pass",
           ("tests/test_catalog.py",)),
    Mutant("solve-skips-a-toggle", "src/spinaf/fp.py",
           "                if odd[j]:\n                    row ^= toggle",
           "                if False:\n                    row ^= toggle",
           ("tests/test_catalog.py",)),
    Mutant("count-off-by-a-power-of-2", "src/spinaf/fp.py",
           "    count = 1 << (len(system.generators) - len(echelon))",
           "    count = 2 << (len(system.generators) - len(echelon))",
           ("tests/test_catalog.py",)),
    Mutant("lift-power-sign-miscounts-planes", "src/spinaf/fp.py",
           "    return -1 if (4 - t) // 4 * (m // o) % 2 else 1",
           "    return -1 if (4 - t) // 2 * (m // o) % 2 else 1",
           ("tests/test_fp.py",)),
    Mutant("holonomy-lift-picks-the-odd-order-lift", "src/spinaf/fp.py",
           "    return min(over, key=lambda x: lifted.group.element_order(x) % 2)",
           "    return max(over, key=lambda x: lifted.group.element_order(x) % 2)",
           ("tests/test_fp.py",)),
    Mutant("f2-solve-skips-the-back-substitution", "src/spinaf/fp.py",
           "        for q, prow in pivots.items():\n            if prow & bit:\n                pivots[q] = prow ^ row\n",
           "",
           ("tests/test_fp.py",)),
    # the quaternion double cover
    Mutant("phi-sign-flipped", "src/spinaf/spin.py",
           "_PHI = {0: (0, 1, 1), 3: (1, 1, -1),",
           "_PHI = {0: (0, 1, 1), 3: (1, 1, 1),",
           ("tests/test_spin.py",)),
    Mutant("lam-norm-check-dropped", "src/spinaf/spin.py",
           "        if s * v + t * u or s * u + 2 * t * v != D * D:",
           "        if False:",
           ("tests/test_spin.py",)),
    Mutant("preimage-norm-check-dropped", "src/spinaf/spin.py",
           "    if t or s != 16 * d * d or _times(",
           "    if _times(",
           ("tests/test_spin.py",)),
    Mutant("preimage-rank-one-check-dropped", "src/spinaf/spin.py",
           " or _times(A, B, g, h) != [e for u, v in zip(ca, cb) for e in _times(wa, wb, u, v)]:",
           ":",
           ("tests/test_spin.py",)),
    Mutant("preimage-guard-dropped", "src/spinaf/spin.py",
           "    _check_cover(d, rows, dx * dx, _mebius(pa, pb, qa, qb))",
           "    _mebius(pa, pb, qa, qb)",
           ("tests/test_spin.py",)),
    # the sparse Spin(4) and 4 x 4 kernels
    Mutant("scatter-drops-sqrt2-only-products", "src/spinaf/spin.py",
           " if r or s]",
           " if r]",
           ("tests/test_spin.py",)),
    Mutant("associate-drops-sqrt2-only-entries", "src/spinaf/spin.py",
           "enumerate(rows[0] + rows[1] + rows[2] + rows[3]) if a or b])",
           "enumerate(rows[0] + rows[1] + rows[2] + rows[3]) if a])",
           ("tests/test_spin.py",)),
    Mutant("scatter-ignores-negated-slots", "src/spinaf/spin.py",
           "        for i in minus:\n            A[i] -= a\n            B[i] -= b\n",
           "",
           ("tests/test_spin.py",)),
    Mutant("mat-mul-reader-drops-sqrt2-only-entries", "src/spinaf/linalg.py",
           " if x._a or x._b]",
           " if x._a]",
           ("tests/test_linalg.py",)),
    Mutant("huge-entry-bound-disabled", "src/spinaf/spin.py",
           "    if any(abs(x._a) > x._d or abs(x._b) > x._d for row in M for x in row):",
           "    if False:",
           ("tests/test_spin.py",)),
)


def run(mutant: Mutant) -> Tuple[str, str]:
    """The outcome ("killed", "SURVIVED", "NO MATCH" or "BROKEN") and a
    detail: the first failing test, or why nothing ran."""
    source = (ROOT / mutant.path).read_text(encoding="utf-8")
    if source.count(mutant.text) != 1:
        return "NO MATCH", f"the text occurs {source.count(mutant.text)} times in {mutant.path}"
    with tempfile.TemporaryDirectory(prefix="spinaf-mutant-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, work / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(ROOT / name, work / name)
        (work / mutant.path).write_text(source.replace(mutant.text, mutant.replacement), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=work, env=env, capture_output=True, text=True)
    failed = [line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED ")]
    if done.returncode == 1 and failed:
        return "killed", failed[0]
    if done.returncode == 0:
        return "SURVIVED", "every test passed"
    return "BROKEN", f"pytest exited {done.returncode}: {done.stdout.strip().splitlines()[-1:]}"


def main() -> int:
    bad = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        outcome, detail = run(mutant)
        bad += outcome != "killed"
        print(f"{outcome:9s} {mutant.name:40s} {time.perf_counter() - start:6.1f} s  {detail}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

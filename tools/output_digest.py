#!/usr/bin/env python3
"""Print one sha256 per CLI command over the bundled catalog.

Calls ``spinaf.cli.main(argv)`` in this interpreter, with standard output
and standard error captured apart and the bundled catalog parsed and
checked once, for 1023 commands:

- ``verify`` in text and ``--format json``;
- ``classify --format json`` and ``export`` for every expectation row;
- ``lift-group --format json`` and ``char --format json`` for every family;
- ``classify`` over the whole catalog;
- ``preimage`` in text and ``--format json`` for the 192 signed permutation
  matrices in SO(4), the 16 rotations L_q and R_q for q = (1 +- i +- j +- k)/2,
  the rotation by the angle with cosine 3/5 (its preimage leaves Q(sqrt 2)),
  ``diag:1,1,1,-1`` and a matrix that is not orthogonal;
- ``lift-group`` and ``char`` in text, ``--format csv`` and ``--format
  markdown`` for every family.

The first 765 lines are the commands of the tool's earlier versions, in the
same order, so that ``head -n 765`` compares with their output.

Each line is ``<sha256>  <command>``, the digest of the JSON list
``[exit code, stdout, stderr]``, so output that moves from one stream to
the other changes it.  Run it in two checkouts and diff the outputs to show
that a change leaves every command's output byte-identical:

    python3 tools/output_digest.py > digests.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from spinaf import catalog as cat
from spinaf import linalg
from spinaf.cli import main as cli_main


def _literal(rows) -> str:
    return "mat:" + ",".join(str(Fraction(x)) for row in rows for x in row)


def preimage_literals():
    for perm in itertools.permutations(range(4)):
        for signs in itertools.product((1, -1), repeat=4):
            rows = [[signs[j] if perm[j] == i else 0 for j in range(4)] for i in range(4)]
            if linalg.int_det(rows) == 1:
                yield _literal(rows)
    h = Fraction(1, 2)
    for b, c, d in itertools.product((h, -h), repeat=3):
        # left and right multiplication by the unit quaternion h + bi + cj + dk
        yield _literal([[h, -b, -c, -d], [b, h, -d, c], [c, d, h, -b], [d, -c, b, h]])
        yield _literal([[h, -b, -c, -d], [b, h, d, -c], [c, -d, h, b], [d, c, -b, h]])
    yield _literal([[Fraction(3, 5), Fraction(-4, 5), 0, 0], [Fraction(4, 5), Fraction(3, 5), 0, 0],
                    [0, 0, 1, 0], [0, 0, 0, 1]])
    yield "diag:1,1,1,-1"
    yield _literal([[1, 0, 0, 0], [0, 0, -1, 0], [0, 1, -1, 0], [0, 0, 0, 1]])


def commands(catalog, expectations):
    yield ["verify"]
    yield ["verify", "--format", "json"]
    for row in sorted(expectations, key=lambda r: (r.family, r.params)):
        names = catalog.find(row.family).presentation.parameters
        params = ["--params", ",".join(f"{n}={v}" for n, v in zip(names, row.params))] if names else []
        yield ["classify", "--format", "json", "--family", row.family, *params]
        yield ["export", "--family", row.family, *params]
    for family in sorted(catalog.families):
        yield ["lift-group", "--format", "json", "--family", family]
        yield ["char", "--format", "json", "--family", family]
    yield ["classify"]
    for literal in preimage_literals():
        yield ["preimage", literal]
        yield ["preimage", "--format", "json", literal]
    for family in sorted(catalog.families):
        for command in ("lift-group", "char"):
            yield [command, "--family", family]
            for fmt in ("csv", "markdown"):
                yield [command, "--format", fmt, "--family", family]


def run(args):
    """Exit code, standard output and standard error of ``spinaf <args>``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    catalog, expectations = cat.load_bundled()
    loaded = cat.load_catalog
    cat.load_catalog = lambda path: catalog if Path(path) == cat.bundled_path("catalog.json") else loaded(path)
    for args in commands(catalog, expectations):
        digest = hashlib.sha256(json.dumps(run(args)).encode()).hexdigest()
        print(f"{digest}  {' '.join(args)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

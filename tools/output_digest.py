#!/usr/bin/env python3
"""Print one sha256 per CLI command over the bundled catalog.

Runs, in this interpreter and through click's test runner, with the bundled
catalog parsed and checked once:

- ``verify`` in text and ``--format json``;
- ``classify --format json`` and ``export`` for every expectation row;
- ``lift-group --format json`` and ``char --format json`` for every family;
- ``classify`` over the whole catalog.

Each line is ``<sha256 of exit code and output>  <command>``.  Run it in two
checkouts and diff the outputs to show that a change leaves every command's
output byte-identical:

    python3 tools/output_digest.py > digests.txt
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from click.testing import CliRunner

from spinaf import catalog as cat
from spinaf.cli import main as cli_main


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


def main() -> int:
    catalog, expectations = cat.load_bundled()
    loaded = cat.load_catalog
    cat.load_catalog = lambda path: catalog if Path(path) == cat.bundled_path("catalog.json") else loaded(path)
    runner = CliRunner()
    for args in commands(catalog, expectations):
        result = runner.invoke(cli_main, args)
        digest = hashlib.sha256(f"{result.exit_code}\n".encode() + result.output.encode()).hexdigest()
        print(f"{digest}  {' '.join(args)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

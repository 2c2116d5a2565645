"""Fixtures shared by the test modules."""

import contextlib
import io
from pathlib import Path
from typing import NamedTuple

import pytest

from spinaf import catalog as cat
from spinaf.cli import main


class Result(NamedTuple):
    exit_code: int
    output: str  # standard output and standard error, interleaved as written


def invoke(*args: str) -> Result:
    """Run ``spinaf <args>`` in this process, as the ``spinaf`` command would."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return Result(code, out.getvalue())


@pytest.fixture()
def cli():
    """``invoke``: run one ``spinaf`` command and return (exit_code, output)."""
    return invoke


@pytest.fixture(scope="session")
def bundled():
    """The bundled catalog and expectations, read and checked once per session.

    Its records keep what they compute (F, the relator signs, the spin
    preimages) from test to test; a test that needs records with nothing
    computed yet loads its own.
    """
    return cat.load_bundled()


@pytest.fixture()
def reuse_bundled(bundled, monkeypatch):
    """Commands run in this process get ``bundled``'s catalog instead of
    re-reading the bundled file, as ``tools/output_digest.py`` does; any
    other catalog path is read as usual."""
    catalog, _ = bundled
    load = cat.load_catalog
    monkeypatch.setattr(cat, "load_catalog", lambda path: (
        catalog if Path(path) == cat.bundled_path("catalog.json") else load(path)))

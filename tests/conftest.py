"""Fixtures shared by the test modules."""

import contextlib
import io
from typing import NamedTuple

import pytest

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

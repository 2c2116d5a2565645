"""Run several ``spinaf`` commands in one interpreter.

Usage: python probe_child.py '<JSON list of argument lists>'

Imports ``spinaf.cli`` once and calls ``spinaf.cli.main`` with each argument
list in turn.  The last line of standard output is one JSON list with, per
command, its exit code and what it printed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys


def main(argv) -> int:
    import spinaf.cli

    results = []
    for args in json.loads(argv[0]):
        out = io.StringIO()
        code = 0
        try:
            with contextlib.redirect_stdout(out):
                spinaf.cli.main(args, prog_name="spinaf")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        results.append({"code": code, "stdout": out.getvalue()})
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Run one ``spinaf`` command in this interpreter, optionally traced.

Usage: python trace_child.py <trace 0|1> <op id> <spinaf arguments...>

Imports ``spinaf.cli``, installs the tracer when asked, calls
``spinaf.cli.main`` with the arguments and captures what it prints.  The
last line of standard output is one JSON object: the exit code, the
command's output, the import time, and the spans and counters.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def main(argv) -> int:
    trace, op, args = argv[0] == "1", argv[1], argv[2:]
    start = time.perf_counter()
    import spinaf.cli

    import_s = time.perf_counter() - start
    from tracer import Tracer

    tracer = Tracer()
    tracer.op = op
    out = io.StringIO()
    code = 0
    if trace:
        tracer.install()
    try:
        with contextlib.redirect_stdout(out):
            spinaf.cli.main(args, prog_name="spinaf")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.uninstall()
    print(json.dumps({
        "code": code,
        "stdout": out.getvalue(),
        "import_s": import_s,
        "main_s": time.perf_counter() - start - import_s,
        **tracer.dump(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

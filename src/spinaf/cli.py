"""Command-line interface, on the standard library's argparse.

Subcommands: classify, verify, preimage, lift-group, char, export.

Exit codes:
  0  success
  1  verification failures
  2  invalid input (bad flags, unknown family, malformed data, matrix not
     in SO(4))
  3  I/O error (unreadable catalog or expectations file, or standard
     output closed before the command finished writing, as by
     ``spinaf verify | head -c 10``; no traceback is printed)
  4  internal invariant violation
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from . import __version__
from . import catalog as cat
from . import fp, holonomy, linalg
from .errors import (
    CatalogFormatError,
    InconsistentRecord,
    NotInImage,
    NotInSO,
    SpinafError,
    UnsupportedScalar,
)

if TYPE_CHECKING:  # imported by the commands that make spin elements
    from .clifford import CliffordElement

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_INVALID = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

FORMATS = ("text", "json", "csv", "markdown")


def _fail(code: int, message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def _load_catalog(path: Optional[str]) -> cat.Catalog:
    target = path if path is not None else cat.bundled_path("catalog.json")
    try:
        return cat.load_catalog(target)
    except CatalogFormatError as exc:
        code = EXIT_IO if isinstance(exc.__cause__, OSError) else EXIT_INVALID
        _fail(code, str(exc))
    except InconsistentRecord as exc:
        _fail(EXIT_INVALID, str(exc))


def _load_expectations(path: Optional[str]):
    target = path if path is not None else cat.bundled_path("expectations.json")
    try:
        return cat.load_expectations(target)
    except CatalogFormatError as exc:
        code = EXIT_IO if isinstance(exc.__cause__, OSError) else EXIT_INVALID
        _fail(code, str(exc))


def _find_record(catalog: cat.Catalog, family: str) -> fp.AlmostBieberbachRecord:
    try:
        return catalog.find(family)
    except CatalogFormatError as exc:
        _fail(EXIT_INVALID, str(exc))


def _param_vector(
    record: fp.AlmostBieberbachRecord, params: Optional[str]
) -> Tuple[int, ...]:
    """Parse 'k1=..,k2=..'; unspecified parameters default to 0, and a
    parameter given twice is invalid input.

    Values may be any integers; they are reduced mod 2 downstream and the
    reduction is echoed in the output.
    """
    names = record.presentation.parameters
    values: Dict[str, int] = {}
    if params:
        for item in params.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                _fail(EXIT_INVALID, f"malformed parameter assignment {item!r}")
            key, _, raw = item.partition("=")
            key = key.strip()
            if key not in names:
                _fail(
                    EXIT_INVALID,
                    f"family {record.family} has parameters "
                    f"{', '.join(names) or '(none)'}; got {key!r}",
                )
            if key in values:
                _fail(EXIT_INVALID, f"parameter {key} is given more than once")
            try:
                values[key] = int(raw)
            except ValueError:
                _fail(EXIT_INVALID, f"parameter {key} needs an integer, got {raw!r}")
    return tuple(values.get(n, 0) for n in names)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _render_table(headers: Sequence[str], rows: Sequence[Sequence[str]], fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
        return buf.getvalue().rstrip("\n")
    if fmt == "markdown":
        lines = ["| " + " | ".join(headers) + " |"]
        lines.append("| " + " | ".join("---" for _ in headers) + " |")
        for row in rows:
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines)
    # text: aligned columns
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    out = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for row in rows:
        out.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip())
    return "\n".join(out)


def _params_str(params: Sequence[int]) -> str:
    return "(" + ",".join(str(p) for p in params) + ")"


def _qsqrt2_json(c) -> Dict[str, int]:
    return {"a_num": c.a.numerator, "a_den": c.a.denominator,
            "b_num": c.b.numerator, "b_den": c.b.denominator}


def _spin_element_json(x: CliffordElement) -> dict:
    from .clifford import blade_str

    return {
        "terms": [
            {"blade": blade_str(mask) if mask else "1", "coeff": _qsqrt2_json(coeff)}
            for mask, coeff in sorted(x.terms.items())
        ]
    }


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False)


# ---------------------------------------------------------------------------
# matrix literals
# ---------------------------------------------------------------------------


def _parse_matrix(literal: str):
    """Parse a matrix literal: 'identity', 'diag:1,1,-1,-1', or
    'mat:' followed by 16 row-major comma-separated rationals."""
    literal = literal.strip()
    if literal == "identity":
        return linalg.as_matrix([[1 if i == j else 0 for j in range(4)] for i in range(4)])

    def parse_entries(text: str, expected: int) -> List[Fraction]:
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != expected:
            _fail(EXIT_INVALID, f"expected {expected} entries, got {len(parts)}")
        try:
            return [Fraction(p) for p in parts]
        except (ValueError, ZeroDivisionError):
            _fail(EXIT_INVALID, f"non-rational matrix entry in {text!r}")

    if literal.startswith("diag:"):
        entries = parse_entries(literal[len("diag:"):], 4)
        return linalg.as_matrix(
            [[entries[i] if i == j else 0 for j in range(4)] for i in range(4)]
        )
    if literal.startswith("mat:"):
        entries = parse_entries(literal[len("mat:"):], 16)
        return linalg.as_matrix([entries[4 * i : 4 * i + 4] for i in range(4)])
    _fail(
        EXIT_INVALID,
        f"unrecognised matrix literal {literal!r} "
        "(use 'identity', 'diag:...', or 'mat:...')",
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def classify(catalog_path, family, params, fmt) -> None:
    """Count spin structures for catalog records (at one parameter vector)."""
    catalog = _load_catalog(catalog_path)
    if params is not None and family is None:
        _fail(EXIT_INVALID, "--params requires --family")
    if family is not None:
        records = [_find_record(catalog, family)]
    else:
        records = sorted(catalog.records, key=lambda r: r.family)
    rows: List[cat.ClassifyRow] = []
    for record in records:
        try:
            rows.append(cat.classify_record(record, _param_vector(record, params)))
        except SpinafError as exc:
            _fail(EXIT_INTERNAL, str(exc))
    if fmt == "json":  # the row's fields are the JSON keys
        print(_dump_json([r._asdict() for r in rows]))
        return
    table = [
        (r.family, r.holonomy, _params_str(r.params), str(r.count),
         "yes" if r.parallelizable else "no")
        for r in rows
    ]
    print(_render_table(
        ["family", "holonomy", "params", "count", "parallelizable"], table, fmt))


def verify(catalog_path, expected_path, fmt) -> None:
    """Recompute every expected (family, params) -> count row."""
    catalog = _load_catalog(catalog_path)
    expectations = _load_expectations(expected_path)
    if not expectations:
        print("warning: expectations file has no rows", file=sys.stderr)
    try:
        report = cat.verify(catalog, expectations)
    except CatalogFormatError as exc:  # a row's parameters do not fit its family
        _fail(EXIT_INVALID, str(exc))
    except SpinafError as exc:
        _fail(EXIT_INTERNAL, str(exc))
    if fmt == "json":
        print(_dump_json(report.to_json()))
    else:
        table = [
            (r.family, r.holonomy, _params_str(r.params), str(r.expected),
             "-" if r.computed is None else str(r.computed),
             "pass" if r.passed else "FAIL")
            for r in report.rows
        ]
        print(_render_table(
            ["family", "holonomy", "params", "expected", "computed", "status"],
            table, fmt))
        # on stderr for csv, so that stdout stays a CSV table
        print(
            f"{report.total} rows, {report.failures} failures, "
            f"{report.zero_rows} rows with zero spin structures",
            file=sys.stderr if fmt == "csv" else sys.stdout)
    if report.failures:
        sys.exit(EXIT_FAILURES)


def preimage(matrix, fmt) -> None:
    """Both spin preimages of a matrix in SO(4)."""
    from . import spin

    M = _parse_matrix(matrix)
    try:
        x, neg = spin.preimage(M)
    except NotInSO as exc:
        _fail(EXIT_INVALID, f"matrix is not in SO(4): {exc}")
    except (NotInImage, UnsupportedScalar) as exc:
        _fail(EXIT_INVALID, str(exc))
    if fmt == "json":
        print(_dump_json({
            "preimages": [_spin_element_json(x), _spin_element_json(neg)],
        }))
        return
    table = [("+", str(x)), ("-", str(neg))]
    print(_render_table(["sign", "element"], table, fmt))


def lift_group(catalog_path, family, fmt) -> None:
    """Identify the preimage of the holonomy group in Spin(4)."""
    catalog = _load_catalog(catalog_path)
    record = _find_record(catalog, family)
    try:
        result = fp.lift_group(record)
    except SpinafError as exc:
        _fail(EXIT_INTERNAL, str(exc))
    if fmt == "json":
        print(_dump_json({
            "family": record.family,
            "holonomy": record.holonomy_name,
            "name": result.name,
            "order": result.order,
            "realization": result.realization,
            "elements": [_spin_element_json(x) for x in result.elements],
        }))
        return
    # on stderr for csv and markdown, so that stdout is only a table
    print(f"family {record.family}: holonomy {record.holonomy_name}, "
          f"preimage {result.name} of order {result.order} "
          f"({result.realization} realization)",
          file=sys.stdout if fmt == "text" else sys.stderr)
    if result.elements:
        table = [(str(i), str(x)) for i, x in enumerate(result.elements)]
        print(_render_table(["#", "element"], table, fmt))
    elif fmt != "text":
        print(_render_table(
            ["family", "holonomy", "preimage", "order", "realization"],
            [(record.family, record.holonomy_name, result.name, str(result.order),
              result.realization)], fmt))


def char(catalog_path, family, fmt) -> None:
    """Decompose the holonomy representation into irreducible characters."""
    catalog = _load_catalog(catalog_path)
    record = _find_record(catalog, family)
    try:
        mults, rendered = holonomy.character_of_record(record)
    except SpinafError as exc:
        _fail(EXIT_INTERNAL, str(exc))
    if fmt == "json":
        print(_dump_json({
            "family": record.family,
            "holonomy": record.holonomy_name,
            "decomposition": rendered,
            "multiplicities": list(mults),
        }))
        return
    if fmt == "text":
        print(f"{record.family}: {rendered}")
        return
    print(_render_table(
        ["family", "holonomy", "decomposition"],
        [(record.family, record.holonomy_name, rendered)], fmt))


def export(catalog_path, family, params, fmt) -> None:
    """Export the full lift data for one family as exact JSON."""
    del fmt
    catalog = _load_catalog(catalog_path)
    record = _find_record(catalog, family)
    vector = _param_vector(record, params)
    names = record.presentation.parameters
    reduced = fp.reduce_params_mod2(dict(zip(names, vector)))
    try:
        result = fp.count_lifts(record, reduced)
    except SpinafError as exc:
        _fail(EXIT_INTERNAL, str(exc))
    payload = {
        "family": record.family,
        "holonomy": record.holonomy_name,
        "nilpotency_class": record.nilpotency_class,
        "params": {n: reduced[n] for n in names},
        "count": result.count,
        "exists": result.exists,
        "strategy": result.strategy,
        "parallelizable": result.parallelizable,
        "assignments": [a.as_dict() for a in result.valid_assignments],
    }
    if record.signed_perm_holonomy:
        payload["base_preimages"] = {
            name: _spin_element_json(x) for name, x in sorted(fp.base_preimages(record).items())
        }
    print(_dump_json(payload))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _parser(prog: str) -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: an abbreviated option such as --fam is a
    # usage error, not a silent alias of --family
    parser = argparse.ArgumentParser(
        prog=prog, allow_abbrev=False,
        description="Spin structures on 4-dimensional almost-flat manifolds, exactly.")
    parser.add_argument("--version", action="version", version=f"spinaf {__version__}")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(run, name: Optional[str] = None) -> argparse.ArgumentParser:
        doc = run.__doc__
        sub = commands.add_parser(name or run.__name__, allow_abbrev=False, help=doc, description=doc)
        sub.set_defaults(run=run)
        return sub

    def catalog_option(sub) -> None:
        sub.add_argument("--catalog", dest="catalog_path", metavar="PATH",
                         help="Catalog JSON file (defaults to the bundled catalog).")

    def family_option(sub, required: bool = True, text: str = "Family id, e.g. 27 or B5b.") -> None:
        sub.add_argument("--family", required=required, help=text)

    def format_option(sub, choices: Sequence[str] = FORMATS, text: str = "Output format") -> None:
        sub.add_argument("--format", dest="fmt", choices=choices, default=choices[0],
                         help=text + " (default: %(default)s).")

    sub = command(classify)
    catalog_option(sub)
    family_option(sub, required=False, text="Restrict to one family id.")
    sub.add_argument(
        "--params",
        help="Comma-separated assignments like k1=1,k2=0; unset parameters are 0. "
        "Values are reduced mod 2 and the reduction is echoed.")
    format_option(sub)

    sub = command(verify)
    catalog_option(sub)
    sub.add_argument("--expected", dest="expected_path", metavar="PATH",
                     help="Expectations JSON file (defaults to the bundled expectations).")
    format_option(sub)

    sub = command(preimage)
    sub.add_argument(
        "matrix", metavar="MATRIX",
        help="'identity', 'diag:1,1,-1,-1', or 'mat:' with 16 row-major comma-separated entries.")
    format_option(sub)

    sub = command(lift_group, "lift-group")
    catalog_option(sub)
    family_option(sub)
    format_option(sub)

    sub = command(char)
    catalog_option(sub)
    family_option(sub)
    format_option(sub)

    sub = command(export)
    catalog_option(sub)
    family_option(sub)
    sub.add_argument(
        "--params", help="Comma-separated assignments like k1=1,k2=0; unset parameters are 0.")
    format_option(sub, ("json",), "Output format; export is JSON only")
    return parser


def main(argv: Optional[Sequence[str]] = None, prog_name: str = "spinaf") -> int:
    """Run one ``spinaf`` command with ``argv`` (default: ``sys.argv[1:]``).

    Returns EXIT_OK; every other exit status is raised as SystemExit, usage
    errors (argparse's) included, and a closed standard output as EXIT_IO.
    """
    args = vars(_parser(prog_name).parse_args(argv))
    run = args.pop("run")
    try:
        try:
            run(**args)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; what is left to write goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_IO)
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

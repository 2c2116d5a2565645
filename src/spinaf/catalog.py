"""Catalog and expectations files: reading, checking and verify.

The catalog is a JSON file carrying one record per family: a finitely
presented group (generators split into lattice and holonomy roles, relators
with affine exponents in the family's parameters) together with the integer
holonomy matrices.  The expectations file carries the reference spin
structure counts per (family, parameters) row, the parameters as one value
per parameter of the family in its order: the vector ``fp.count_lifts``
takes, which ``verify`` passes to it as it is.
"""

from __future__ import annotations

import json
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Dict, List, NamedTuple, NoReturn, Optional, Sequence, Tuple

from . import fp
from .chartables import TABLES
from .errors import CatalogFormatError, InconsistentRecord
from .fp import (
    DIM,
    HOLONOMY,
    LATTICE,
    AlmostBieberbachRecord,
    ExponentExpr,
    GeneratorDecl,
    Presentation,
)

FORMAT_VERSION = 1

# ---------------------------------------------------------------------------
# (de)serialization
# ---------------------------------------------------------------------------


def _expr_to_json(e: ExponentExpr) -> dict:
    out: dict = {"const": e.const}
    if e.coeffs:
        out["coeffs"] = {k: v for k, v in e.coeffs}
    return out


def record_to_json(record: AlmostBieberbachRecord) -> dict:
    return {
        "family": record.family,
        "holonomy": record.holonomy_name,
        "nilpotency_class": record.nilpotency_class,
        "generators": [
            {"name": g.name, "role": g.role} for g in record.presentation.generators
        ],
        "parameters": list(record.presentation.parameters),
        "relators": [
            [[gen, _expr_to_json(expr)] for gen, expr in rel]
            for rel in record.presentation.relators
        ],
        "matrices": {
            name: [list(row) for row in mat] for name, mat in sorted(record.matrices.items())
        },
        "source": record.source,
    }


# Reading checks every value as it goes; the first bad one raises
# CatalogFormatError naming its JSON path, e.g. ['records', 12, 'matrices',
# 'al', 3].  Each reader takes the JSON value and its path.

JsonPath = Tuple[object, ...]


def _bad(at: JsonPath, message: str) -> NoReturn:
    raise CatalogFormatError(f"{message} at {list(at)}")


def _show(v) -> str:
    """A JSON value in an error message: scalars as written, containers by kind."""
    if isinstance(v, dict):
        return "an object"
    if isinstance(v, list):
        return "an array"
    return json.dumps(v)


def _object(v, at: JsonPath, keys: Optional[Sequence[str]] = None, optional: Sequence[str] = ()) -> dict:
    """``v`` as an object; given ``keys``, it has all of them and no other
    keys than those and ``optional``."""
    if not isinstance(v, dict):
        _bad(at, f"expected an object, got {_show(v)}")
    if keys is not None:
        for k in keys:
            if k not in v:
                _bad(at, f"missing key {k!r}")
        for k in v:
            if k not in keys and k not in optional:
                _bad(at, f"unexpected key {k!r}")
    return v


def _array(v, at: JsonPath, length: Optional[int] = None) -> list:
    if not isinstance(v, list):
        _bad(at, f"expected an array, got {_show(v)}")
    if length is not None and len(v) != length:
        _bad(at, f"expected {length} items, got {len(v)}")
    return v


def _int(v, at: JsonPath, minimum: Optional[int] = None) -> int:
    # neither a boolean nor a number such as 2.0 is a JSON integer
    if type(v) is not int:
        _bad(at, f"expected an integer, got {_show(v)}")
    if minimum is not None and v < minimum:
        _bad(at, f"expected an integer >= {minimum}, got {v}")
    return v


def _str(v, at: JsonPath) -> str:
    if not isinstance(v, str):
        _bad(at, f"expected a string, got {_show(v)}")
    return v


def _enum(v, at: JsonPath, allowed: Sequence):
    if not any(type(v) is type(a) and v == a for a in allowed):
        _bad(at, f"expected one of {list(allowed)}, got {_show(v)}")
    return v


def _items(v, at: JsonPath, read, *args) -> tuple:
    """An array, each item read by ``read(item, path, *args)``."""
    return tuple(read(x, at + (i,), *args) for i, x in enumerate(_array(v, at)))


def _field(d: dict, at: JsonPath, key: str, read, *args):
    return read(d[key], at + (key,), *args)


# Most exponents in a catalog are a bare {"const": c} with a small c (2200 of
# the bundled 2382, all in -2..6); such a c reads as one shared, frozen
# ExponentExpr.  Every other shape takes the checked path below.
_CONST_EXPRS = {c: ExponentExpr.make(c) for c in range(-16, 17)}


def _expr_from_json(v, at: JsonPath) -> ExponentExpr:
    if type(v) is dict and len(v) == 1 and type(v.get("const")) is int:
        c = v["const"]
        return _CONST_EXPRS[c] if c in _CONST_EXPRS else ExponentExpr.make(c)
    d = _object(v, at, ("const",), ("coeffs",))
    coeffs = _object(d.get("coeffs", {}), at + ("coeffs",))
    return ExponentExpr.make(
        _field(d, at, "const", _int),
        {name: _int(c, at + ("coeffs", name)) for name, c in coeffs.items()},
    )


@lru_cache(maxsize=4096)
def _shared_letter(gen: str, exp: ExponentExpr) -> tuple:
    """One tuple per distinct letter, shared by every relator that has it:
    the 2382 letters of the bundled catalog are 50 tuples."""
    return gen, exp


def _letter(v, at: JsonPath, read_exponent) -> tuple:
    if type(v) is list and len(v) == 2 and type(v[0]) is str:
        return _shared_letter(v[0], read_exponent(v[1], at + (1,)))
    gen, exp = _array(v, at, 2)
    return _shared_letter(_str(gen, at + (0,)), read_exponent(exp, at + (1,)))


def _word(v, at: JsonPath, read_exponent) -> tuple:
    """An array of [generator, exponent] letters."""
    return _items(v, at, _letter, read_exponent)


def _matrix(v, at: JsonPath) -> Tuple[Tuple[int, ...], ...]:
    return tuple(
        tuple(_int(x, at + (i, j)) for j, x in enumerate(_array(row, at + (i,), DIM)))
        for i, row in enumerate(_array(v, at, DIM))
    )


def _generator(v, at: JsonPath) -> GeneratorDecl:
    _object(v, at, ("name", "role"))
    return GeneratorDecl(_field(v, at, "name", _str), _field(v, at, "role", _enum, (LATTICE, HOLONOMY)))


def _presentation(d: dict, at: JsonPath) -> Presentation:
    generators = _field(d, at, "generators", _items, _generator)
    relators = _field(d, at, "relators", _items, _word, _expr_from_json)
    parameters = _field(d, at, "parameters", _items, _str)
    try:
        return Presentation(generators, relators, parameters)
    except InconsistentRecord as exc:  # a duplicate or undeclared generator or parameter name
        _bad(at, str(exc))


_RECORD_KEYS = ("family", "holonomy", "nilpotency_class", "generators",
                "parameters", "relators", "matrices", "source")


def record_from_json(d, at: JsonPath = ()) -> AlmostBieberbachRecord:
    """The record read from its JSON object ``d``, found at ``at`` in its file."""
    _object(d, at, _RECORD_KEYS)
    matrices = _field(d, at, "matrices", _object)
    return AlmostBieberbachRecord(
        family=_field(d, at, "family", _str),
        holonomy_name=_field(d, at, "holonomy", _enum, tuple(TABLES)),
        presentation=_presentation(d, at),
        matrices={name: _matrix(m, at + ("matrices", name)) for name, m in matrices.items()},
        nilpotency_class=_field(d, at, "nilpotency_class", _int, 1),
        source=_field(d, at, "source", _str),
    )


class _CatalogFields(NamedTuple):
    records: Tuple[AlmostBieberbachRecord, ...]


class Catalog(_CatalogFields):
    """The records of a catalog; without ``__slots__`` the subclass has an
    instance ``__dict__``, where ``_by_family`` keeps its index."""

    @cached_property
    def _by_family(self) -> Dict[str, AlmostBieberbachRecord]:
        # the first record of a family wins, as a scan would find it
        return {r.family: r for r in reversed(self.records)}

    def find(self, family: str) -> AlmostBieberbachRecord:
        record = self._by_family.get(family)
        if record is None:
            raise CatalogFormatError(f"no record for family {family!r}")
        return record

    @property
    def families(self) -> List[str]:
        return [r.family for r in self.records]


def check_record(record: AlmostBieberbachRecord) -> None:
    """Every record-level check: they run where F is built
    (``holonomy.matrix_group_closure``), and F is kept on the record."""
    record.holonomy_group


def _read_file(path, kind: str, key: str, read_item, identity) -> tuple:
    """The items of the JSON file ``{"format_version": 1, key: [item, ...]}``
    at ``path``, each read by ``read_item``; no two may have the same
    ``identity``.  Any failure raises CatalogFormatError naming the file,
    caused by the OSError when the file cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CatalogFormatError(f"cannot read {kind} {path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, not JSON, or an integer too long to convert
        raise CatalogFormatError(f"{kind} {path} is not valid JSON: {exc}") from exc
    try:
        _object(data, (), ("format_version", key))
        _field(data, (), "format_version", _enum, (FORMAT_VERSION,))
        items = _field(data, (), key, _items, read_item)
        seen = set()
        for i, item in enumerate(items):
            if identity(item) in seen:
                _bad((key, i), f"duplicate {identity(item)}")
            seen.add(identity(item))
    except CatalogFormatError as exc:
        raise CatalogFormatError(f"{kind} {path}: {exc}") from None
    return items


def load_catalog(path) -> Catalog:
    records = _read_file(path, "catalog", "records", record_from_json,
                         lambda r: f"family {r.family!r}")
    for r in records:
        check_record(r)
    return Catalog(records)


class ExpectationRow(NamedTuple):
    family: str
    holonomy: str
    params: Tuple[int, ...]
    count: int


def _expectation_row(v, at: JsonPath) -> ExpectationRow:
    _object(v, at, ("family", "holonomy", "params", "count"))
    return ExpectationRow(
        family=_field(v, at, "family", _str),
        holonomy=_field(v, at, "holonomy", _enum, tuple(TABLES)),
        params=_field(v, at, "params", _items, _enum, (0, 1)),
        count=_field(v, at, "count", _int, 0),
    )


def load_expectations(path) -> Tuple[ExpectationRow, ...]:
    return _read_file(path, "expectations", "rows", _expectation_row,
                      lambda r: f"row for family {r.family!r} with params {list(r.params)}")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class ReportRow(NamedTuple):
    family: str
    holonomy: str
    params: Tuple[int, ...]
    expected: int
    computed: Optional[int]
    passed: bool


class Report(NamedTuple):
    rows: Tuple[ReportRow, ...]

    @property
    def total(self) -> int:
        return len(self.rows)

    @property
    def failures(self) -> int:
        return sum(1 for r in self.rows if not r.passed)

    @property
    def zero_rows(self) -> int:
        return sum(1 for r in self.rows if r.computed == 0)

    def to_json(self) -> dict:
        return {
            "rows": [
                {
                    "family": r.family,
                    "holonomy": r.holonomy,
                    "params": list(r.params),
                    "expected": r.expected,
                    "computed": r.computed,
                    "passed": r.passed,
                }
                for r in self.rows
            ],
            "summary": {
                "total": self.total,
                "failures": self.failures,
                "zero_rows": self.zero_rows,
            },
        }


def verify(catalog: Catalog, expectations: Sequence[ExpectationRow]) -> Report:
    rows: List[ReportRow] = []
    for exp in sorted(expectations, key=lambda r: (r.family, r.params)):
        try:
            record = catalog.find(exp.family)
        except CatalogFormatError:
            computed: Optional[int] = None
        else:
            names = record.presentation.parameters
            if len(exp.params) != len(names):
                raise CatalogFormatError(
                    f"expectations row for family {exp.family} has {len(exp.params)} "
                    f"parameters, but the family takes {len(names)}"
                )
            if exp.holonomy != record.holonomy_name:
                raise CatalogFormatError(
                    f"expectations row for family {exp.family} has holonomy "
                    f"{exp.holonomy}, but the family's holonomy is {record.holonomy_name}"
                )
            computed = fp.count_lifts(record, exp.params).count
        rows.append(
            ReportRow(
                family=exp.family,
                holonomy=exp.holonomy,
                params=exp.params,
                expected=exp.count,
                computed=computed,
                passed=computed == exp.count,
            )
        )
    return Report(tuple(rows))


def bundled_path(name: str) -> Path:
    return Path(__file__).parent / "data" / name


def load_bundled() -> Tuple[Catalog, Tuple[ExpectationRow, ...]]:
    return (
        load_catalog(bundled_path("catalog.json")),
        load_expectations(bundled_path("expectations.json")),
    )

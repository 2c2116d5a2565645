"""Catalog and expectations files: schema, loading, classify and verify.

The catalog is a JSON file carrying one record per family: a finitely
presented group (generators split into lattice and holonomy roles, relators
with affine exponents in the family's parameters) together with the integer
holonomy matrices.  The expectations file carries the reference spin
structure counts per (family, parameters) row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, NoReturn, Optional, Sequence, Tuple

import jsonschema

from . import fp, holonomy, linalg
from .errors import (
    CatalogFormatError,
    ClosureBoundExceeded,
    EnumerationBoundExceeded,
    InconsistentRecord,
)
from .fp import (
    DIM,
    AlmostBieberbachRecord,
    ExponentExpr,
    GeneratorDecl,
    HolonomyPresentation,
    Presentation,
    PowerRelator,
)

FORMAT_VERSION = 1

_EXPONENT_SCHEMA = {
    "type": "object",
    "properties": {
        "const": {"type": "integer"},
        "coeffs": {"type": "object", "additionalProperties": {"type": "integer"}},
    },
    "required": ["const"],
    "additionalProperties": False,
}

_WORD_SCHEMA = {
    "type": "array",
    "items": {
        "type": "array",
        "prefixItems": [{"type": "string"}, _EXPONENT_SCHEMA],
        "minItems": 2,
        "maxItems": 2,
    },
}

_CONCRETE_WORD_SCHEMA = {
    "type": "array",
    "items": {
        "type": "array",
        "prefixItems": [{"type": "string"}, {"type": "integer"}],
        "minItems": 2,
        "maxItems": 2,
    },
}

_MATRIX_SCHEMA = {
    "type": "array",
    "minItems": DIM,
    "maxItems": DIM,
    "items": {
        "type": "array",
        "minItems": DIM,
        "maxItems": DIM,
        "items": {"type": "integer"},
    },
}

_HOLONOMY_NAMES = ["C1", "C2", "C2xC2", "C3", "C4", "C6", "S3", "D8", "D12"]

CATALOG_SCHEMA = {
    "type": "object",
    "properties": {
        "format_version": {"const": FORMAT_VERSION},
        "records": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "family": {"type": "string"},
                    "holonomy": {"enum": _HOLONOMY_NAMES},
                    "nilpotency_class": {"type": "integer", "minimum": 1},
                    "generators": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "properties": {
                                "name": {"type": "string"},
                                "role": {"enum": ["lattice", "holonomy"]},
                            },
                            "required": ["name", "role"],
                            "additionalProperties": False,
                        },
                    },
                    "parameters": {"type": "array", "items": {"type": "string"}},
                    "relators": {"type": "array", "items": _WORD_SCHEMA},
                    "matrices": {
                        "type": "object",
                        "additionalProperties": _MATRIX_SCHEMA,
                    },
                    "holonomy_presentation": {
                        "type": "object",
                        "properties": {
                            "generators": {"type": "array", "items": {"type": "string"}},
                            "power_relators": {
                                "type": "array",
                                "items": {
                                    "type": "object",
                                    "properties": {
                                        "word": _CONCRETE_WORD_SCHEMA,
                                        "power": {"type": "integer", "minimum": 1},
                                    },
                                    "required": ["word", "power"],
                                    "additionalProperties": False,
                                },
                            },
                            "sylow_generators": {
                                "type": "array",
                                "items": _CONCRETE_WORD_SCHEMA,
                            },
                        },
                        "required": ["generators", "power_relators", "sylow_generators"],
                        "additionalProperties": False,
                    },
                    "source": {"type": "string"},
                },
                "required": [
                    "family",
                    "holonomy",
                    "nilpotency_class",
                    "generators",
                    "parameters",
                    "relators",
                    "matrices",
                    "source",
                ],
                "additionalProperties": False,
            },
        },
    },
    "required": ["format_version", "records"],
    "additionalProperties": False,
}

EXPECTATIONS_SCHEMA = {
    "type": "object",
    "properties": {
        "format_version": {"const": FORMAT_VERSION},
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "family": {"type": "string"},
                    "holonomy": {"enum": _HOLONOMY_NAMES},
                    "params": {"type": "array", "items": {"enum": [0, 1]}},
                    "count": {"type": "integer", "minimum": 0},
                },
                "required": ["family", "holonomy", "params", "count"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["format_version", "rows"],
    "additionalProperties": False,
}


# ---------------------------------------------------------------------------
# (de)serialization
# ---------------------------------------------------------------------------


def _expr_to_json(e: ExponentExpr) -> dict:
    out: dict = {"const": e.const}
    if e.coeffs:
        out["coeffs"] = {k: v for k, v in e.coeffs}
    return out


def _expr_from_json(d: Mapping) -> ExponentExpr:
    return ExponentExpr.make(d["const"], d.get("coeffs"))


def record_to_json(record: AlmostBieberbachRecord) -> dict:
    out: dict = {
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
    hol = record.holonomy_presentation
    if hol is not None:
        out["holonomy_presentation"] = {
            "generators": list(hol.generators),
            "power_relators": [
                {"word": [list(t) for t in pr.base], "power": pr.power}
                for pr in hol.power_relators
            ],
            "sylow_generators": [[list(t) for t in w] for w in hol.sylow_generators],
        }
    return out


def record_from_json(d: Mapping) -> AlmostBieberbachRecord:
    gens = tuple(GeneratorDecl(g["name"], g["role"]) for g in d["generators"])
    relators = tuple(
        tuple((gen, _expr_from_json(expr)) for gen, expr in rel) for rel in d["relators"]
    )
    presentation = Presentation(gens, relators, tuple(d["parameters"]))
    matrices = {
        name: tuple(tuple(int(x) for x in row) for row in mat)
        for name, mat in d["matrices"].items()
    }
    hol = None
    if "holonomy_presentation" in d:
        h = d["holonomy_presentation"]
        hol = HolonomyPresentation(
            generators=tuple(h["generators"]),
            power_relators=tuple(
                PowerRelator(tuple((g, int(e)) for g, e in pr["word"]), pr["power"])
                for pr in h["power_relators"]
            ),
            sylow_generators=tuple(
                tuple((g, int(e)) for g, e in w) for w in h["sylow_generators"]
            ),
        )
    return AlmostBieberbachRecord(
        family=d["family"],
        holonomy_name=d["holonomy"],
        presentation=presentation,
        matrices=matrices,
        holonomy_presentation=hol,
        nilpotency_class=d["nilpotency_class"],
        source=d["source"],
    )


@dataclass(frozen=True)
class Catalog:
    records: Tuple[AlmostBieberbachRecord, ...]

    def find(self, family: str) -> AlmostBieberbachRecord:
        for r in self.records:
            if r.family == family:
                return r
        raise CatalogFormatError(f"no record for family {family!r}")

    @property
    def families(self) -> List[str]:
        return [r.family for r in self.records]


def check_record(record: AlmostBieberbachRecord) -> None:
    """Eager record-level invariants: matrix shape and unimodularity,
    parameter-free holonomy exponents, relator consistency at the matrix
    level, faithfulness, orientability, and that the record's counting
    route can run."""
    holonomy_gens = record.presentation.holonomy_generators()
    for name, mat in record.matrices.items():
        if name not in holonomy_gens:
            raise InconsistentRecord(
                f"family {record.family}: matrix for {name!r}, which is not a holonomy generator"
            )
        if abs(linalg.int_det(mat)) != 1:
            raise InconsistentRecord(
                f"family {record.family}: matrix of {name!r} is not unimodular"
            )
    for g in holonomy_gens:
        if g not in record.matrices:
            raise InconsistentRecord(
                f"family {record.family}: holonomy generator {g!r} has no matrix"
            )
    fp.check_holonomy_exponents(record)
    identity = linalg.int_identity(DIM)
    for rel in record.presentation.relators:
        # lattice generators act trivially and holonomy exponents are constants
        if fp.word_matrix(record.matrices, [(g, e.const) for g, e in rel]) != identity:
            raise InconsistentRecord(
                f"family {record.family}: relator {fp._render_word(rel)} does not "
                "hold for the holonomy matrices"
            )
    # faithfulness (also validates the holonomy name against the closure)
    try:
        order = holonomy.matrix_group_closure(record).order
    except ClosureBoundExceeded as exc:
        raise InconsistentRecord(
            f"family {record.family}: the holonomy matrices generate no finite group ({exc})"
        ) from exc
    if not holonomy.orientability(record):
        raise InconsistentRecord(f"family {record.family}: non-orientable record")
    _check_counting_route(record, order)


def _check_counting_route(record: AlmostBieberbachRecord, order: int) -> None:
    """The direct route needs signed-permutation holonomy matrices; the Sylow
    route needs a presentation of F, checked against the matrices, and
    Sylow generators of odd index whose matrices are signed permutations."""
    hol = record.holonomy_presentation
    if hol is None:
        if not record.signed_perm_holonomy:
            raise InconsistentRecord(
                f"family {record.family}: some holonomy matrix is not a signed "
                "permutation, so the record needs a holonomy_presentation"
            )
        return

    def fail(message: str) -> NoReturn:
        raise InconsistentRecord(f"family {record.family}: holonomy presentation: {message}")

    if sorted(hol.generators) != sorted(record.presentation.holonomy_generators()):
        fail(f"generators {list(hol.generators)} are not the holonomy generators")
    words = [pr.base for pr in hol.power_relators] + list(hol.sylow_generators)
    if any(g not in hol.generators for w in words for g, _ in w):
        fail("a word mentions a generator it does not declare")
    identity = linalg.int_identity(DIM)
    for pr in hol.power_relators:
        if linalg.int_mat_pow(fp.word_matrix(record.matrices, pr.base), pr.power) != identity:
            fail(f"power relator ({fp._render_word(pr.base)})^{pr.power} does not hold for the matrices")
    try:
        presented = fp.coset_enumerate(hol, ()).index
        index = fp.coset_enumerate(hol, hol.sylow_generators).index
    except EnumerationBoundExceeded as exc:
        fail(f"it does not present a finite group of order {order} ({exc})")
    if presented != order:
        fail(f"it presents a group of order {presented}, but the matrices generate one of order {order}")
    if index % 2 == 0:
        fail(f"sylow_generators generate a subgroup of even index {index}")
    for w in hol.sylow_generators:
        if not linalg.is_signed_perm(fp.word_matrix(record.matrices, w)):
            fail(f"the matrix of Sylow generator {fp._render_word(w)} is not a signed permutation")


def load_catalog(path) -> Catalog:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CatalogFormatError(f"cannot read catalog {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CatalogFormatError(f"catalog {path} is not valid JSON: {exc}") from exc
    try:
        jsonschema.validate(data, CATALOG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise CatalogFormatError(
            f"catalog {path} violates the schema at {list(exc.absolute_path)}: {exc.message}"
        ) from exc
    records = tuple(record_from_json(d) for d in data["records"])
    seen = set()
    for r in records:
        if r.family in seen:
            raise CatalogFormatError(f"duplicate family id {r.family!r}")
        seen.add(r.family)
        check_record(r)
    return Catalog(records)


@dataclass(frozen=True)
class ExpectationRow:
    family: str
    holonomy: str
    params: Tuple[int, ...]
    count: int


def load_expectations(path) -> Tuple[ExpectationRow, ...]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CatalogFormatError(f"cannot read expectations {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CatalogFormatError(f"expectations {path} is not valid JSON: {exc}") from exc
    try:
        jsonschema.validate(data, EXPECTATIONS_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise CatalogFormatError(
            f"expectations {path} violates the schema at "
            f"{list(exc.absolute_path)}: {exc.message}"
        ) from exc
    rows = tuple(
        ExpectationRow(r["family"], r["holonomy"], tuple(r["params"]), r["count"])
        for r in data["rows"]
    )
    keys = [(r.family, r.params) for r in rows]
    if len(set(keys)) != len(keys):
        raise CatalogFormatError("duplicate (family, params) rows in expectations")
    return rows


# ---------------------------------------------------------------------------
# classify / verify
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassifyRow:
    family: str
    holonomy: str
    params: Tuple[int, ...]
    count: int
    parallelizable: bool


def _param_dict(record: AlmostBieberbachRecord, params: Sequence[int]) -> Dict[str, int]:
    names = record.presentation.parameters
    if len(params) != len(names):
        raise InconsistentRecord(
            f"family {record.family} takes {len(names)} parameters, got {len(params)}"
        )
    return fp.reduce_params_mod2(dict(zip(names, params)))


def classify_record(record: AlmostBieberbachRecord, params: Sequence[int]) -> ClassifyRow:
    p = _param_dict(record, params)
    result = fp.count_lifts(record, p)
    return ClassifyRow(
        family=record.family,
        holonomy=record.holonomy_name,
        params=tuple(p[n] for n in record.presentation.parameters),
        count=result.count,
        parallelizable=result.parallelizable,
    )


@dataclass(frozen=True)
class ReportRow:
    family: str
    holonomy: str
    params: Tuple[int, ...]
    expected: int
    computed: Optional[int]
    passed: bool


@dataclass(frozen=True)
class Report:
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
            computed: Optional[int] = classify_record(record, exp.params).count
        except (CatalogFormatError, InconsistentRecord):
            computed = None
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

"""References the benchmark holds itself, and the checks that use them.

Every check returns ``None`` when an operation's output is right and a
short reason string when it is not, so that a wrong answer is counted as a
failed operation instead of crashing the run.  The tables below are
written out by hand from the source paper's results; only the per-row
counts come from ``expectations.json``, which the benchmark reads with its
own JSON parsing.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Mapping, NamedTuple, Optional, Sequence, Tuple

VERIFY_ROWS = 127
VERIFY_ZERO_ROWS = 15

# |F| for each holonomy group; lift-group must report order 2|F|.
HOLONOMY_ORDER: Dict[str, int] = {
    "C1": 1, "C2": 2, "C2xC2": 4, "C3": 3, "C4": 4,
    "C6": 6, "S3": 6, "D8": 8, "D12": 12,
}

# Degrees of the irreducible characters, in the order ``char`` reports
# multiplicities.  The holonomy representation has dimension 4, so
# sum(multiplicity * degree) must be 4.
CHARACTER_DEGREES: Dict[str, Tuple[int, ...]] = {
    "C1": (1,),
    "C2": (1, 1),
    "C2xC2": (1, 1, 1, 1),
    "C3": (1, 1, 1),
    "C4": (1, 1, 1, 1),
    "C6": (1, 1, 1, 1, 1, 1),
    "S3": (1, 1, 2),
    "D8": (1, 1, 1, 1, 2),
    "D12": (1, 1, 1, 1, 2, 2),
}

# Preimage groups of the nine holonomy cases.
PREIMAGE_GROUPS: Dict[str, str] = {
    "1": "C2", "4": "C4", "27": "Q8", "75": "C8", "103": "Q16",
    "143": "C6", "158": "C3:C4", "168": "C12", "184": "C3:Q8",
}

# Character decompositions of eight hand-checked families.
CHARACTERS: Dict[str, str] = {
    "1": "4χ1", "4": "2χ1+2χ2", "27": "χ1+χ2+χ3+χ4", "75": "2χ1+χ3+χ4",
    "103": "χ1+χ2+χ5", "158": "χ1+χ2+χ3", "168": "2χ1+χ5+χ6", "184": "χ1+χ2+χ6",
}

# Families whose preimages leave Q(sqrt 2); they are counted by the Sylow
# strategy, which returns no assignments.
SYLOW_FAMILIES = frozenset({"143", "144", "146", "168", "169", "172", "173", "184"})

# Known defects of the program: ``export`` on a Sylow family reports a
# positive count with an empty assignment list.  That operation is kept out
# of the timed draw and checked by an untimed probe instead, which accepts
# these reasons and no other.
KNOWN_DEFECTS = frozenset({"export_assignments_missing"})


class Row(NamedTuple):
    """An expectation row."""

    family: str
    holonomy: str
    params: Tuple[int, ...]
    count: int


def read_expectations(path) -> Tuple[Row, ...]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return tuple(Row(r["family"], r["holonomy"], tuple(r["params"]), r["count"]) for r in data["rows"])


def read_parameter_names(path) -> Dict[str, Tuple[str, ...]]:
    """Family id -> parameter names, from the catalog the program reads."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return {r["family"]: tuple(r["parameters"]) for r in data["records"]}


def _parse(stdout: bytes):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def check_verify(
    code: int, stdout: bytes, expected: Mapping[Tuple[str, Tuple[int, ...]], int],
    first_stdout: Optional[bytes], rows: int = VERIFY_ROWS, zero_rows: int = VERIFY_ZERO_ROWS,
) -> Optional[str]:
    """``verify --format json``: every count, the census, byte identity.

    ``rows`` and ``zero_rows`` are the census of the whole catalog unless
    the report covers only some of its rows."""
    if code != 0:
        return f"exit_{code}"
    report = _parse(stdout)
    if not isinstance(report, dict) or not isinstance(report.get("rows"), list):
        return "unparseable_output"
    if len(report["rows"]) != rows:
        return "verify_row_count"
    for row in report["rows"]:
        key = (row.get("family"), tuple(row.get("params", ())))
        if key not in expected:
            return "verify_unknown_row"
        if row.get("computed") != expected[key]:
            return "count_mismatch"
    if sum(1 for row in report["rows"] if row.get("computed") == 0) != zero_rows:
        return "verify_zero_rows"
    if first_stdout is not None and stdout != first_stdout:
        return "verify_stdout_changed"
    return None


def _check_echo(payload: Mapping, row: Row) -> Optional[str]:
    if payload.get("family") != row.family or payload.get("holonomy") != row.holonomy:
        return "family_mismatch"
    return None


def check_classify(code: int, stdout: bytes, row: Row) -> Optional[str]:
    """``classify --family F --params ... --format json``."""
    if code != 0:
        return f"exit_{code}"
    out = _parse(stdout)
    if not isinstance(out, list) or len(out) != 1 or not isinstance(out[0], dict):
        return "unparseable_output"
    result = out[0]
    reason = _check_echo(result, row)
    if reason:
        return reason
    if tuple(result.get("params", ())) != row.params:
        return "params_not_reduced"
    if result.get("count") != row.count:
        return "count_mismatch"
    if result.get("parallelizable") is not (row.count > 0):
        return "parallelizable_mismatch"
    return None


def _assignment_key(assignment) -> Optional[Tuple]:
    if not isinstance(assignment, dict) or not all(v in (1, -1) for v in assignment.values()):
        return None
    return tuple(sorted(assignment.items()))


def check_export(code: int, stdout: bytes, row: Row, names: Sequence[str]) -> Optional[str]:
    """``export --family F --params ...``: count, echo, assignment list."""
    if code != 0:
        return f"exit_{code}"
    out = _parse(stdout)
    if not isinstance(out, dict):
        return "unparseable_output"
    reason = _check_echo(out, row)
    if reason:
        return reason
    if out.get("params") != dict(zip(names, row.params)):
        return "params_not_reduced"
    if out.get("count") != row.count:
        return "count_mismatch"
    assignments = out.get("assignments")
    if not isinstance(assignments, list):
        return "unparseable_output"
    if row.count and not assignments:
        return "export_assignments_missing"
    if len(assignments) != row.count:
        return "export_assignment_count"
    keys = [_assignment_key(a) for a in assignments]
    if None in keys:
        return "export_assignment_malformed"
    if len(set(keys)) != len(keys):
        return "export_assignments_duplicate"
    return None


def check_lift_group(code: int, stdout: bytes, row: Row) -> Optional[str]:
    """``lift-group --family F --format json``: order 2|F| and the name."""
    if code != 0:
        return f"exit_{code}"
    out = _parse(stdout)
    if not isinstance(out, dict):
        return "unparseable_output"
    reason = _check_echo(out, row)
    if reason:
        return reason
    order = out.get("order")
    if order != 2 * HOLONOMY_ORDER[row.holonomy]:
        return "lift_group_order"
    if out.get("realization") == "spin" and len(out.get("elements", ())) != order:
        return "lift_group_elements"
    if row.family in PREIMAGE_GROUPS and out.get("name") != PREIMAGE_GROUPS[row.family]:
        return "lift_group_name"
    return None


def check_char(code: int, stdout: bytes, row: Row) -> Optional[str]:
    """``char --family F --format json``: dimension 4 and the decomposition."""
    if code != 0:
        return f"exit_{code}"
    out = _parse(stdout)
    if not isinstance(out, dict):
        return "unparseable_output"
    reason = _check_echo(out, row)
    if reason:
        return reason
    mults = out.get("multiplicities")
    degrees = CHARACTER_DEGREES[row.holonomy]
    if not isinstance(mults, list) or len(mults) != len(degrees):
        return "char_multiplicities"
    if sum(m * d for m, d in zip(mults, degrees)) != 4:
        return "char_dimension"
    if row.family in CHARACTERS and out.get("decomposition") != CHARACTERS[row.family]:
        return "char_decomposition"
    return None


def only_known_defects(reasons: Iterable[Optional[str]]) -> bool:
    """True when every failure is a known defect of the program."""
    return all(r is None or r in KNOWN_DEFECTS for r in reasons)

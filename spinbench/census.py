"""The traced run: a fixed census of all three workloads.

The per-layer numbers come from this run, never from the timed runs.  The
census is the same whichever workload is named, so every per-layer metric
is measured in every traced run; its work is fixed by the seed, so call
counts repeat exactly for a given seed.

* ``verify_sweep``: one ``verify --format json``.
* ``family_queries``: for each subcommand the first CENSUS_PER_KIND queries
  of that kind in the seeded stream, and for classify and lift-group also
  the first one on a Sylow family, so the Sylow and abstract-lift layers
  are always reached.
* ``double_cover``: the first CENSUS_CHECKS checks of the seeded plan.

CLI operations run ``spinaf.cli.main`` in a child interpreter under the
tracer (``trace_child.py``).  Each part is also run with the tracer off,
in the same harness; the difference in wall time is the tracing overhead.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

import checks
import tracer
import workloads
from workloads import Query, Refs

CENSUS_PER_KIND = 3
CENSUS_CHECKS = 100
IMPORT_RUNS = 3

# Per-layer metrics reported from each part, as (function, suffixes).
_TIMED = ("calls", "self_s")
PART_LAYERS: Dict[str, Tuple[Tuple[str, Tuple[str, ...]], ...]] = {
    "verify_sweep": (
        ("catalog.verify", _TIMED),
        ("fp.count_lifts", _TIMED),
        ("fp.enumerate_lifts", _TIMED + ("raised.UnsupportedScalar",)),
        ("fp.base_preimages", _TIMED),
        ("fp.evaluate_word", _TIMED),
        ("fp.sylow_strategy", _TIMED),
        ("fp.sylow_pullback_record", _TIMED),
        ("groups.todd_coxeter", _TIMED),
        ("groups.reidemeister_schreier", _TIMED),
        ("spin.preimage", _TIMED),
        ("spin.lam", _TIMED),
        ("linalg.is_orthogonal", _TIMED),
        ("clifford.mul", ("calls",)),
        ("qsqrt2.mul", ("calls",)),
    ),
    "family_queries": (
        ("catalog.load_catalog", _TIMED),
        ("catalog.jsonschema_validate", _TIMED),
        ("catalog.check_record", _TIMED),
        ("holonomy.matrix_group_closure", _TIMED),
        ("fp.count_lifts", _TIMED),
        ("fp.enumerate_lifts", _TIMED),
        ("fp.lift_group", _TIMED),
        ("groups.todd_coxeter", _TIMED),
        ("groups.regular_representation", _TIMED),
        ("groups.identify_group", _TIMED),
        ("spin.subgroup_closure", _TIMED),
        ("cyclotomic.lift_power_sign", _TIMED),
        ("holonomy.character_of_record", _TIMED),
        ("chartables.decompose", _TIMED),
    ),
    "double_cover": (
        ("spin.preimage", _TIMED),
        ("spin.lam", _TIMED),
        ("linalg.is_orthogonal", _TIMED),
        ("clifford.mul", ("calls",)),
        ("qsqrt2.mul", ("calls",)),
    ),
}
CLI_KINDS = tuple(k for k, _ in workloads.QUERY_MIX)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith((".calls_per_record", "_share", "_yield")):
        return "ratio"
    return "count"


def metric_names() -> List[str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names: List[str] = []
    for part, layers in PART_LAYERS.items():
        for function, suffixes in layers:
            names += [f"{part}.{function}.{s}" for s in suffixes]
        if part == "verify_sweep":
            names += [
                "verify_sweep.fp.base_preimages.calls_per_record",
                "verify_sweep.fp.enumerate_lifts.unsupported_share",
                "verify_sweep.fp.assignment_yield",
            ]
        if part == "family_queries":
            names.append("family_queries.cli.import_s")
            names += [f"family_queries.cli.{kind}.p50_s" for kind in CLI_KINDS]
        names.append(f"{part}.trace_overhead_s")
    return names


def census_queries(seed: int, refs: Refs) -> List[Query]:
    chosen: List[Query] = []
    taken = {kind: 0 for kind in CLI_KINDS}
    need_sylow = {"classify", "lift-group"}
    for query in workloads.family_stream(seed, refs):
        take = taken[query.kind] < CENSUS_PER_KIND
        taken[query.kind] += take
        if query.kind in need_sylow and query.row.family in checks.SYLOW_FAMILIES:
            need_sylow.discard(query.kind)
            take = True
        if take:
            chosen.append(query)
        if not need_sylow and all(n >= CENSUS_PER_KIND for n in taken.values()):
            return chosen
    raise AssertionError("unreachable: the stream is endless")


def _run_cli(trace: bool, op: str, args: Sequence[str]) -> Tuple[dict, float]:
    done = workloads.run_python(
        [str(workloads.ROOT / "spinbench" / "trace_child.py"), "1" if trace else "0", op, *args]
    )
    if done.code != 0:
        raise RuntimeError(f"trace child failed ({done.code}): {done.stderr.decode(errors='replace')}")
    return json.loads(done.stdout.decode().splitlines()[-1]), done.wall


class Part:
    """Spans, counters, wall times and check results of one census part."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}
        self.traced_s = 0.0
        self.untraced_s = 0.0
        self.reasons: List[Optional[str]] = []

    def add(self, dump: dict) -> None:
        """Append one child's spans (parent indices shifted) and counters."""
        base = len(self.spans)
        self.spans += [
            [name, start, end, None if parent is None else parent + base, op]
            for name, start, end, parent, op in dump["spans"]
        ]
        for key, value in dump["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value

    def metrics(self) -> Dict[str, float]:
        out = tracer.summarize(self.spans, self.counts)
        out["trace_overhead_s"] = self.traced_s - self.untraced_s
        return out


def _cli_op(part: Part, op: str, args: Sequence[str], check) -> float:
    """Run one CLI operation traced and then untraced; the untraced wall time."""
    dump, wall = _run_cli(True, op, args)
    part.add(dump)
    part.traced_s += wall
    part.reasons.append(check(dump["code"], dump["stdout"].encode()))
    _, wall = _run_cli(False, op, args)
    part.untraced_s += wall
    return wall


def run_census(seed: int, refs: Refs) -> Tuple[Dict[str, float], dict]:
    parts = {name: Part() for name in workloads.WORKLOADS}

    _cli_op(
        parts["verify_sweep"], "verify_sweep#0", ["verify", "--format", "json"],
        lambda code, out: checks.check_verify(code, out, refs.expected, None),
    )
    walls: Dict[str, List[float]] = {kind: [] for kind in CLI_KINDS}
    for i, query in enumerate(census_queries(seed, refs)):
        walls[query.kind].append(_cli_op(
            parts["family_queries"], f"family_queries#{i}:{query.kind}",
            query.argv(refs.names[query.row.family]),
            lambda code, out, q=query: workloads.check_query(q, code, out, refs),
        ))

    double = parts["double_cover"]
    bench = workloads.DoubleCover(seed)
    start = time.perf_counter()
    for i in range(CENSUS_CHECKS):
        bench.op(i)
    double.untraced_s = time.perf_counter() - start
    tr = tracer.Tracer()
    with tr:
        start = time.perf_counter()
        for i in range(CENSUS_CHECKS):
            tr.op = f"double_cover#{i}"
            double.reasons.append(bench.op(i))
        double.traced_s = time.perf_counter() - start
    double.add(tr.dump())

    import_walls = [
        workloads.run_python(["-c", "import spinaf.cli"]).wall for _ in range(IMPORT_RUNS)
    ]

    per_part = {name: part.metrics() for name, part in parts.items()}
    metrics: Dict[str, float] = {}
    for name in metric_names():
        part, _, rest = name.partition(".")
        metrics[name] = per_part[part].get(rest, 0)
    v = per_part["verify_sweep"]
    metrics["verify_sweep.fp.base_preimages.calls_per_record"] = (
        v.get("fp.base_preimages.calls", 0) / v["catalog.records_loaded"]
    )
    metrics["verify_sweep.fp.enumerate_lifts.unsupported_share"] = (
        v.get("fp.enumerate_lifts.raised.UnsupportedScalar", 0) / v["fp.enumerate_lifts.calls"]
    )
    metrics["verify_sweep.fp.assignment_yield"] = (
        v["fp.enumerate_lifts.assignments_valid"] / v["fp.enumerate_lifts.assignments_tried"]
    )
    metrics["family_queries.cli.import_s"] = statistics.median(import_walls)
    for kind in CLI_KINDS:
        metrics[f"family_queries.cli.{kind}.p50_s"] = statistics.median(walls[kind])

    record = {
        "parts": {
            name: {
                "reasons": part.reasons,
                "traced_s": part.traced_s,
                "untraced_s": part.untraced_s,
                "summary": per_part[name],
                "spans": part.spans,
            }
            for name, part in parts.items()
        },
        "cli_walls": walls,
        "import_walls": import_walls,
    }
    return metrics, record


def reasons_of(record: dict) -> List[Optional[str]]:
    return [r for part in record["parts"].values() for r in part["reasons"]]

"""spinaf benchmark: three workloads, end-to-end metrics and a traced census.

Usage (from the root of a checkout):

    python3 spinbench/run.py --workload verify_sweep --seed 1 --seconds 30 --trace 0
    python3 spinbench/run.py --workload all --seed 1 --seconds 30   # every workload

With ``--trace 0`` the named workload runs in a closed loop for
``--seconds`` and the end-to-end metrics are reported.  With ``--trace 1``
the traced census (``census.py``) runs instead and the per-layer metrics
are reported.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A record of the run (metadata, every sample,
and for a traced run every span) is written under ``spinbench/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List, Sequence, Tuple

import checks
import workloads
from workloads import ROOT, SRC

RUNS_DIR = ROOT / "spinbench" / "runs"

# Fresh interpreters timed per run for ``setup_s``, half of them before the
# timed loop and half after it, so they meet two states of the machine; the
# median is reported.
SETUP_RUNS = {"verify_sweep": 8, "family_queries": 8, "double_cover": 16}

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "cpu_per_op_s": "s",
    "peak_rss_mb": "MB",
}

# Iterations of the Fraction loop timed at the start and end of each run, a
# note on machine speed.
MACHINE_NOTE_ITERATIONS = 20000

# Environment variables that change how the interpreter runs the program.
RECORDED_ENV = (
    "PYTHONDONTWRITEBYTECODE", "PYTHONHASHSEED", "PYTHONOPTIMIZE",
    "PYTHONUNBUFFERED", "PYTHONPATH", "PYTHONWARNINGS",
)


class SetupFailed(RuntimeError):
    pass


def metadata(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "env": {k: os.environ[k] for k in RECORDED_ENV if k in os.environ},
    }


def setup_times(workload: str, count: int) -> List[workloads.SetupTime]:
    """Fresh interpreters that set the workload up, each timed and calibrated."""
    times = []
    for _ in range(count):
        one = workloads.setup_time(workload)
        if one is None:
            done = workloads.run_python(["-c", workloads.SETUP_CODE[workload]])
            raise SetupFailed(done.stderr.decode(errors="replace"))
        times.append(one)
    return times


def pin_to_one_cpu() -> object:
    """Pin this process, and so every child it starts, to one CPU: the
    calibration samples then time the CPU the operations ran on.  Only one
    operation runs at a time, so nothing waits for the other CPUs."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples beyond) of the 90th percentile, or of a
    higher one when fewer than 100 samples leave fewer than ten beyond it:
    the highest percentile with at least max(10, n/10) samples beyond it.
    With fewer than 20 samples that percentile would not exceed the median,
    so the maximum is reported instead."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0, 0
    beyond = max(10, n // 10)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def timed_run(
    workload: str, seed: int, seconds: float, refs
) -> Tuple[List[workloads.Sample], bool]:
    if workload == "verify_sweep":
        sweep = workloads.VerifySweep(seed)
        # Whole passes only, so every run verifies each family equally often.
        op, in_process, unit = workloads.verify_op(refs, sweep), True, len(sweep.rows_of)
    elif workload == "family_queries":
        op, in_process, unit = workloads.family_op(refs, seed), False, 1
    else:
        op, in_process, unit = workloads.double_cover_op(workloads.DoubleCover(seed)), True, 1
    return workloads.closed_loop(op, seconds, unit), in_process


def run_workload(workload: str, args, refs) -> Tuple[dict, dict]:
    setups = setup_times(workload, SETUP_RUNS[workload] // 2)
    samples, in_process = timed_run(workload, args.seed, args.seconds, refs)
    n = len(samples)
    rss = workloads.peak_rss_mb(in_process)
    setups += setup_times(workload, SETUP_RUNS[workload] - len(setups))

    def metrics(wall: Sequence[float], cpu: Sequence[float], setup: Sequence[float]) -> dict:
        return {
            "setup_s": statistics.median(setup),
            "op_p50_s": statistics.median(wall),
            "op_tail_s": tail(wall)[0],
            "ops_per_s": n / sum(wall),
            "cpu_per_op_s": sum(cpu) / n,
            "peak_rss_mb": rss,
        }

    raw = metrics([s.wall for s in samples], [s.cpu for s in samples], [t.wall for t in setups])
    # Each operation and each set-up interpreter scales by its own
    # calibration, CPU time by the loop's CPU time; memory does not scale.
    values = metrics(
        [s.wall * s.scale for s in samples], [s.cpu * s.cpu_scale for s in samples],
        [t.scaled for t in setups],
    )
    _, tail_pct, beyond = tail([s.wall * s.scale for s in samples])
    # After the timed loop and the RSS reading, so it moves neither.
    probe: Dict[str, object] = {}
    if workload == "family_queries":
        probe = workloads.sylow_export_probe(refs)
    reasons = [s.reason for s in samples]
    failures: Dict[str, int] = {}
    for r in reasons:
        if r is not None:
            failures[r] = failures.get(r, 0) + 1
    failed = sum(failures.values())
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters, each scaled by its own calibration",
        "op_p50_s": f"median of {n} operations",
        "op_tail_s": f"p{tail_pct:.1f}, {beyond} of {n} samples beyond; 11th largest "
                     f"{sorted(s.wall * s.scale for s in samples)[max(0, n - 11)]:.6f}",
        "ops_per_s": f"{n} operations in {sum(s.wall for s in samples):.3f} s, closed loop, 1 client",
        "cpu_per_op_s": "user+sys of the " + ("process" if in_process else "child processes"),
        "peak_rss_mb": "max RSS of the " + ("process" if in_process else "child processes"),
    }
    for name, value in values.items():
        print(f"{workload} {name:13s} {value:.6f} {END_TO_END_UNITS[name]:4s} "
              f"(raw {raw[name]:.6f}; {notes[name]})")
    for phase, scales in (("set-up", [workloads.scale_of(t.cal) for t in setups]),
                          ("run", [s.scale for s in samples]),
                          ("run CPU", [s.cpu_scale for s in samples])):
        print(f"{workload} calibration   {phase}: scale median {statistics.median(scales):.4f}, "
              f"range {min(scales):.4f}-{max(scales):.4f} (reference {workloads.CAL_REFERENCE_S} s)")
    print(f"{workload} fail_share    {failed / n:.6f}      ({failed} of {n} operations; "
          f"reasons {failures or 'none'}; not in BENCHMARK.json because it can be 0)")
    if probe:
        found = sorted(set(probe.values()) - {None})
        print(f"{workload} known_defect  export on the Sylow families: "
              f"{sum(r is not None for r in probe.values())} of {len(probe)} fail ({found or 'none'}; "
              "untimed probe, not counted in attempted/failed)")
    per_kind: Dict[str, List[float]] = {}
    for s in samples:
        per_kind.setdefault(s.kind, []).append(s.wall * s.scale)
    if len(per_kind) > 1:
        for kind, kind_walls in sorted(per_kind.items()):
            print(f"{workload} {kind}: p50 {statistics.median(kind_walls):.6f} s, n={len(kind_walls)}")
    result = {
        "correct": failed == 0 and checks.only_known_defects(probe.values()),
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
    }
    record = {
        "setup_walls": [t.wall for t in setups],
        "raw": raw,
        "setup_calibration": [t.cal for t in setups],
        "failures": failures,
        "sylow_export_probe": probe,
        "tail_percentile": tail_pct,
        "samples": [[s.kind, s.wall, s.cpu, s.reason, s.scale, s.cpu_scale] for s in samples],
    }
    return result, record


def run_trace(args, refs) -> Tuple[dict, dict]:
    import census

    metrics, record = census.run_census(args.seed, refs)
    for name, value in metrics.items():
        print(f"trace {name} {value:.6f} {census.unit_of(name)}")
    for part, data in record["parts"].items():
        print(f"trace {part}: traced {data['traced_s']:.3f} s, untraced {data['untraced_s']:.3f} s, "
              f"{len(data['reasons'])} operations")
    reasons = census.reasons_of(record)
    failed = sum(r is not None for r in reasons)
    result = {
        "correct": failed == 0,
        "attempted": len(reasons),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": census.unit_of(k)} for k, v in metrics.items()},
    }
    return result, record


def write_record(name: str, payload: dict) -> None:
    RUNS_DIR.mkdir(parents=True, exist_ok=True)
    with open(RUNS_DIR / name, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "spinaf" / "__init__.py").is_file():
        print(f"error: no spinaf sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    cpu = pin_to_one_cpu()
    meta = metadata(args)
    meta["pinned_cpu"] = cpu
    print("metadata " + json.dumps(meta, sort_keys=True))
    loop_start = workloads.fraction_loop_s(MACHINE_NOTE_ITERATIONS)
    refs = workloads.load_refs()
    try:
        if args.trace:
            result, record = run_trace(args, refs)
        elif args.workload == "all":
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            record = {}
            for workload in workloads.WORKLOADS:
                one, record[workload] = run_workload(workload, args, refs)
                result["correct"] = result["correct"] and one["correct"]
                result["attempted"] += one["attempted"]
                result["failed"] += one["failed"]
                for name, metric in one["metrics"].items():
                    result["metrics"][f"{workload}.{name}"] = metric
        else:
            result, record = run_workload(args.workload, args, refs)
    except SetupFailed as exc:
        print(f"error: set-up interpreter failed:\n{exc}", file=sys.stderr)
        return 3
    loop_end = workloads.fraction_loop_s(MACHINE_NOTE_ITERATIONS)
    print(f"machine_note fraction_loop_s start {loop_start:.6f} end {loop_end:.6f} "
          "(a note on machine speed, not a metric)")
    write_record(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", {
        "metadata": meta,
        "fraction_loop_s": [loop_start, loop_end],
        "result": result,
        "record": record,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

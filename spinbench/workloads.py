"""The three workloads: seeded inputs, one operation each, and its check.

Each workload is driven from one process with one client in a closed loop:
the next operation starts only after the previous one has finished, so at
most one ``spinaf`` process runs at a time.

* ``verify_sweep``: what ``spinaf verify --format json`` computes on the
  bundled catalog, one family's rows per operation, pass after pass, in
  process through the public API (``catalog.verify`` and
  ``Report.to_json``).  Its time is the count path (``fp`` ->
  ``spin.preimage`` -> ``linalg.is_orthogonal``); start-up is left to
  ``setup_s`` and to ``family_queries``.
* ``family_queries``: a seeded stream of single-record CLI processes
  (classify, export, lift-group, char).  Each query does 15-60 ms of work
  after 0.4-0.8 s of start-up, so the load path dominates.
* ``double_cover``: in-process library calls on ``spin``, ``clifford``,
  ``qsqrt2`` and ``linalg`` only; the catalog and count path are bypassed.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "spinaf" / "data"
CLI_TIMEOUT_S = 120

WORKLOADS = ("verify_sweep", "family_queries", "double_cover")

# Query mix of family_queries, as (subcommand, weight).
QUERY_MIX = (("classify", 40), ("export", 30), ("lift-group", 15), ("char", 15))
PARAM_SHIFTS = (-4, -2, 0, 2, 4)

# double_cover: inputs are products of 1-4 pool elements.  Every
# MIXED_EVERY-th input also carries the mixed Q(sqrt 2) rotation, so the
# general (non signed-permutation) preimage path is a fixed share of the
# operations rather than a seed-dependent one.
DOUBLE_COVER_INPUTS = 256
MIXED_EVERY = 16

# What a fresh interpreter does to set up each workload (``setup_s``).
SETUP_CODE: Dict[str, str] = {
    "verify_sweep": "from spinaf import catalog as c\nc.load_bundled()\n",
    "family_queries": (
        "import spinaf.cli\n"
        "from spinaf import catalog as c\n"
        "c.load_catalog(c.bundled_path('catalog.json'))\n"
    ),
    "double_cover": "import spinaf.spin, spinaf.clifford, spinaf.qsqrt2, spinaf.linalg\n",
}


def child_env() -> Dict[str, str]:
    """The environment of every child: the parent's, with ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Completed:
    code: object
    stdout: bytes
    stderr: bytes
    wall: float
    cpu: float


def run_python(args: Sequence[str], timeout: float = CLI_TIMEOUT_S) -> "Completed":
    """Run ``python <args>`` in the checkout; wall and CPU time of the child.

    Only one child runs at a time, so the change in RUSAGE_CHILDREN is the
    CPU time of this child.
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=child_env(),
            capture_output=True, timeout=timeout,
        )
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        code, stdout, stderr = "timeout", exc.stdout or b"", exc.stderr or b""
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return Completed(code, stdout, stderr, wall, cpu)


# -- references read from the inputs ------------------------------------------


@dataclass(frozen=True)
class Refs:
    rows: Tuple[checks.Row, ...]
    names: Dict[str, Tuple[str, ...]]

    @property
    def expected(self) -> Dict[Tuple[str, Tuple[int, ...]], int]:
        return {(r.family, r.params): r.count for r in self.rows}

    @property
    def rows_of(self) -> Dict[str, List[checks.Row]]:
        out: Dict[str, List[checks.Row]] = {}
        for r in self.rows:
            out.setdefault(r.family, []).append(r)
        return out


def load_refs(data: Path = DATA) -> Refs:
    rows = checks.read_expectations(data / "expectations.json")
    names = checks.read_parameter_names(data / "catalog.json")
    missing = sorted(set(names) - {r.family for r in rows})
    if missing:
        raise ValueError(f"families without an expectation row: {missing}")
    return Refs(rows, names)


# -- family_queries -------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    kind: str
    row: checks.Row
    params: Tuple[int, ...]  # the row's parameters shifted by even offsets

    def argv(self, names: Sequence[str]) -> List[str]:
        args = [self.kind, "--family", self.row.family]
        if self.kind in ("classify", "export"):
            args += ["--params", ",".join(f"{n}={v}" for n, v in zip(names, self.params))]
        if self.kind != "export":
            args += ["--format", "json"]
        return args


def family_stream(seed: int, refs: Refs) -> Iterator[Query]:
    """Seeded, endless: kind by QUERY_MIX, family uniform over the catalog,
    parameters from one of the family's rows plus an even shift each.

    ``export`` draws only from the families outside SYLOW_FAMILIES: on those
    eight it is a known defect of the program (``sylow_export_probe``), and
    no timed operation may fail.
    """
    rng = random.Random(seed)
    kinds = [k for k, _ in QUERY_MIX]
    weights = [w for _, w in QUERY_MIX]
    families = sorted(refs.names)
    export_families = [f for f in families if f not in checks.SYLOW_FAMILIES]
    rows_of = refs.rows_of
    while True:
        kind = rng.choices(kinds, weights)[0]
        row = rng.choice(rows_of[rng.choice(export_families if kind == "export" else families)])
        params = tuple(v + rng.choice(PARAM_SHIFTS) for v in row.params)
        yield Query(kind, row, params)


def check_query(query: Query, code, stdout: bytes, refs: Refs) -> Optional[str]:
    if query.kind == "classify":
        return checks.check_classify(code, stdout, query.row)
    if query.kind == "export":
        return checks.check_export(code, stdout, query.row, refs.names[query.row.family])
    if query.kind == "lift-group":
        return checks.check_lift_group(code, stdout, query.row)
    return checks.check_char(code, stdout, query.row)


def sylow_export_probe(refs: Refs) -> Dict[str, Optional[str]]:
    """``export`` on the first counted row of each Sylow family, untimed.

    All eight commands run in one child interpreter (``probe_child.py``), so
    the probe costs about one start-up.  Family id -> check result.
    """
    rows = [next(r for r in refs.rows_of[f] if r.count) for f in sorted(checks.SYLOW_FAMILIES)]
    queries = [Query("export", row, row.params) for row in rows]
    argvs = [q.argv(refs.names[q.row.family]) for q in queries]
    done = run_python([str(ROOT / "spinbench" / "probe_child.py"), json.dumps(argvs)])
    if done.code != 0:
        return {q.row.family: f"probe_exit_{done.code}" for q in queries}
    outputs = json.loads(done.stdout.decode().splitlines()[-1])
    return {
        q.row.family: checks.check_export(out["code"], out["stdout"].encode(), q.row, refs.names[q.row.family])
        for q, out in zip(queries, outputs)
    }


# -- double_cover ---------------------------------------------------------------


def signed_perm_matrices(linalg, QSqrt2) -> list:
    """The 192 signed permutation matrices of determinant 1."""
    out = []
    for perm in itertools.permutations(range(4)):
        for signs in itertools.product((1, -1), repeat=4):
            M = [[0] * 4 for _ in range(4)]
            for j in range(4):
                M[perm[j]][j] = signs[j]
            M = linalg.as_matrix(M)
            if linalg.det(M) == QSqrt2(1):
                out.append(M)
    return out


def double_cover_plan(seed: int, pool_size: int) -> Tuple[List[Tuple[int, ...]], List[Tuple[int, int]]]:
    """Seeded inputs as pool indices (the last index is the mixed rotation)
    and, per input, the pair of inputs whose product is checked: the input
    itself and a seeded partner."""
    rng = random.Random(seed)
    mixed = pool_size - 1
    factors = []
    for i in range(DOUBLE_COVER_INPUTS):
        k = rng.randint(1, 4)
        f = [rng.randrange(pool_size) for _ in range(k)]
        if i % MIXED_EVERY == 0:
            f[rng.randrange(k)] = mixed
        factors.append(tuple(f))
    # Input i is checked against a partner without the mixed rotation, so
    # the operations that meet it are exactly every MIXED_EVERY-th one.
    plain = [i for i in range(DOUBLE_COVER_INPUTS) if i % MIXED_EVERY]
    pairs = [(i, rng.choice(plain)) for i in range(DOUBLE_COVER_INPUTS)]
    return factors, pairs


class DoubleCover:
    """Inputs x0 and M = lam(x0), built before timing starts.

    Needs ``src`` on ``sys.path``; ``run.py`` puts it there.
    """

    def __init__(self, seed: int):
        from spinaf import linalg, spin
        from spinaf.clifford import CliffordElement
        from spinaf.qsqrt2 import QSqrt2

        self.spin, self.linalg = spin, linalg
        pool = [spin.preimage(M)[0] for M in signed_perm_matrices(linalg, QSqrt2)]
        half, quarter = QSqrt2(0, Fraction(1, 2)), QSqrt2(Fraction(1, 2))
        # 90 degree rotation in the plane of e1 and (e2 + e3)/sqrt2: its
        # image is orthogonal over Q(sqrt 2) but not a signed permutation.
        pool.append(CliffordElement(4, {0: half, 0b0011: quarter, 0b0101: quarter}))
        factors, self.pairs = double_cover_plan(seed, len(pool))
        self.xs = []
        for f in factors:
            x = pool[f[0]]
            for i in f[1:]:
                x = x * pool[i]
            self.xs.append(x)
        self.ms = [spin.lam(x) for x in self.xs]

    def op(self, i: int) -> Optional[str]:
        """preimage(M) is +-x0, and lam is multiplicative on a seeded pair."""
        spin, linalg = self.spin, self.linalg
        j = i % len(self.xs)
        x0 = self.xs[j]
        p, _ = spin.preimage(self.ms[j])
        if p != x0 and p != -x0:
            return "preimage_mismatch"
        a, b = self.pairs[j]
        x, y = self.xs[a], self.xs[b]
        if spin.lam(x * y) != linalg.mat_mul(spin.lam(x), spin.lam(y)):
            return "lam_not_multiplicative"
        return None


# -- machine-speed calibration --------------------------------------------------

# The shared host this benchmark was built on runs the same pure-Python work
# up to about 2x slower at some times than at others, switching every
# 0.1-0.5 s and drifting over minutes, in CPU time as much as in wall time.
# So the benchmark times a fixed calibration loop next to every operation
# and scales the operation to a machine on which that loop takes
# CAL_REFERENCE_S (its uncontended time on a 2.0 GHz Xeon under Python
# 3.11).  The loop is the benchmark's own code, so a change to spinaf moves
# the scaled times exactly as it moves the raw ones; the raw times are
# printed as well.
#
# In the timed loop the calibration loop runs between operations, once per
# CAL_EVERY_S of the operation just done and at least once, and each
# operation is scaled by the samples taken just before and just after it,
# widened to the nearest CAL_WINDOW samples when those are fewer (one 3 ms
# sample is a noisy reading of the speed):
# its wall time by the loop's wall time, its CPU time by the loop's CPU time
# (time the host takes the CPU away shows in the one and not the other).
# A set-up interpreter cannot run the loop during its own start-up, so it
# is scaled by SETUP_CAL_AROUND samples the parent takes just before and
# just after it and SETUP_CAL_INSIDE samples it takes itself after its
# set-up (CHILD_CAL_CODE).  ``run.py`` pins the benchmark and its children
# to one CPU, so the parent's samples time the CPU the child ran on.
CAL_ITERATIONS = 1000
CAL_REFERENCE_S = 0.003
CAL_EVERY_S = 0.1
CAL_WINDOW = 6
SETUP_CAL_AROUND = 4
SETUP_CAL_INSIDE = 12

# Appended to a set-up interpreter's code: it times the loop of
# fraction_loop_s, written the same way, and prints the times as its last
# line.
CHILD_CAL_CODE = f"""
import time as _time
from fractions import Fraction


def _fraction_loop_s(iterations={CAL_ITERATIONS}):
    start = _time.perf_counter()
    for k in range(1, iterations + 1):
        Fraction(k, k + 1) * Fraction(k + 1, k + 2)
    return _time.perf_counter() - start


print([_fraction_loop_s() for _ in range({SETUP_CAL_INSIDE})])
"""


def fraction_loop_s(iterations: int = CAL_ITERATIONS) -> float:
    """Wall time of a fixed pure-Python Fraction loop."""
    start = time.perf_counter()
    for k in range(1, iterations + 1):
        Fraction(k, k + 1) * Fraction(k + 1, k + 2)
    return time.perf_counter() - start


def fraction_loop_cpu() -> Tuple[float, float]:
    """Wall and CPU time of the Fraction loop."""
    start = time.process_time()
    wall = fraction_loop_s()
    return wall, time.process_time() - start


def scale_of(samples: Sequence[float]) -> float:
    """Factor that turns a time measured while the loop took ``samples``
    into reference seconds.  Times scale with the mean, not the median, of
    the loop's time, since an operation spans many speed switches."""
    return CAL_REFERENCE_S / statistics.fmean(samples)


@dataclass
class SetupTime:
    """One set-up interpreter: its wall time without its calibration loop,
    and the calibration samples taken around and inside it."""
    wall: float
    cal: List[float]

    @property
    def scaled(self) -> float:
        return self.wall * scale_of(self.cal)


def setup_time(workload: str) -> Optional[SetupTime]:
    """Time one fresh interpreter that sets ``workload`` up; None if it fails."""
    before = [fraction_loop_s() for _ in range(SETUP_CAL_AROUND)]
    done = run_python(["-c", SETUP_CODE[workload] + CHILD_CAL_CODE])
    after = [fraction_loop_s() for _ in range(SETUP_CAL_AROUND)]
    if done.code != 0:
        return None
    inside = json.loads(done.stdout.decode().splitlines()[-1])
    return SetupTime(done.wall - sum(inside), before + inside + after)


# -- the timed loops ------------------------------------------------------------


@dataclass
class Sample:
    wall: float
    cpu: float
    reason: Optional[str]
    kind: str
    scale: float = 1.0  # set by closed_loop from the samples around it
    cpu_scale: float = 1.0


def closed_loop(op: Callable[[int], Sample], seconds: float, unit: int = 1) -> List[Sample]:
    """One client: run ``op(i)`` back to back until ``seconds`` have passed
    and the number of operations is a multiple of ``unit``, with
    calibration samples between operations."""
    samples: List[Sample] = []
    gaps = [[fraction_loop_cpu()]]  # gaps[i] runs before op i, gaps[i + 1] after it
    deadline = time.perf_counter() + seconds
    for i in itertools.count():
        samples.append(op(i))
        gaps.append([fraction_loop_cpu() for _ in range(max(1, round(samples[-1].wall / CAL_EVERY_S)))])
        if (i + 1) % unit == 0 and time.perf_counter() >= deadline:
            break
    for i, sample in enumerate(samples):
        window = calibration_window(gaps, i)
        sample.scale = scale_of([wall for wall, _ in window])
        sample.cpu_scale = scale_of([cpu for _, cpu in window])
    return samples


def calibration_window(gaps: Sequence[List[Tuple[float, float]]], i: int) -> List[Tuple[float, float]]:
    """The samples just before and just after operation ``i``, widened one
    gap each way at a time until there are CAL_WINDOW of them."""
    lo, hi = i, i + 1
    window = gaps[lo] + gaps[hi]
    while len(window) < CAL_WINDOW and (lo > 0 or hi < len(gaps) - 1):
        if lo > 0:
            lo -= 1
            window += gaps[lo]
        if hi < len(gaps) - 1:
            hi += 1
            window += gaps[hi]
    return window


class VerifySweep:
    """The bundled catalog and expectations, loaded before timing starts,
    and a seeded order of the families: each pass over the catalog visits
    every family once, in a fresh shuffle.

    Needs ``src`` on ``sys.path``; ``run.py`` puts it there.
    """

    def __init__(self, seed: int) -> None:
        from spinaf import catalog

        self.catalog = catalog
        self.records, expectations = catalog.load_bundled()
        self.rows_of: Dict[str, list] = {}
        for row in expectations:
            self.rows_of.setdefault(row.family, []).append(row)
        self._rng = random.Random(seed)
        self._order: List[str] = []

    def family(self, i: int) -> str:
        """The family of operation ``i``."""
        while len(self._order) <= i:
            families = sorted(self.rows_of)
            self._rng.shuffle(families)
            self._order += families
        return self._order[i]

    def report(self, family: str) -> bytes:
        """What ``spinaf verify --format json`` prints for the family's rows."""
        report = self.catalog.verify(self.records, self.rows_of[family])
        return json.dumps(report.to_json(), sort_keys=True).encode()


def verify_op(refs: Refs, sweep: VerifySweep) -> Callable[[int], Sample]:
    """One operation verifies one family's expectation rows."""
    expected: Dict[str, Dict[Tuple[str, Tuple[int, ...]], int]] = {}
    for row in refs.rows:
        expected.setdefault(row.family, {})[row.family, row.params] = row.count
    first: Dict[str, bytes] = {}

    def op(i: int) -> Sample:
        family = sweep.family(i)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            report = sweep.report(family)
        except Exception as exc:  # the CLI would exit non-zero: a failed operation
            report, reason = b"", f"raised_{type(exc).__name__}"
        else:
            reason = None
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        counts = expected[family]
        reason = reason or checks.check_verify(
            0, report, counts, first.get(family),
            rows=len(counts), zero_rows=sum(c == 0 for c in counts.values()),
        )
        if family not in first and reason is None:
            first[family] = report
        return Sample(wall, cpu, reason, "verify")

    return op


def family_op(refs: Refs, seed: int) -> Callable[[int], Sample]:
    stream = family_stream(seed, refs)

    def op(_i: int) -> Sample:
        query = next(stream)
        done = run_python(["-m", "spinaf.cli", *query.argv(refs.names[query.row.family])])
        return Sample(done.wall, done.cpu, check_query(query, done.code, done.stdout, refs), query.kind)

    return op


def double_cover_op(bench: DoubleCover) -> Callable[[int], Sample]:
    def op(i: int) -> Sample:
        c0 = time.process_time()
        t0 = time.perf_counter()
        reason = bench.op(i)
        return Sample(time.perf_counter() - t0, time.process_time() - c0, reason, "check")

    return op


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux

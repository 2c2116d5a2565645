"""Spans and counters recorded from outside the library.

The tracer replaces public functions of ``spinaf`` with wrappers at the
attribute their caller looks up (``fp.base_preimages`` is called as a
module global inside ``fp`` and as ``fp.base_preimages`` from the CLI, so
patching the module attribute catches both).  Every layer is
single-threaded and does no I/O after the two JSON reads, so a span's
duration is busy time; no waiting time is recorded.

Spans stay in memory as ``[name, start, end, parent, op]`` lists and are
written out by the caller when the run ends.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (module, attribute path, span name).  The attribute path is where the
# caller looks the function up, which is not always where it is defined:
# ``catalog`` calls ``jsonschema.validate`` through the jsonschema module,
# and ``fp.lift_group`` imports ``lift_power_sign`` from ``cyclotomic``
# when it is called, so patching the module attribute reaches it.
SPAN_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("spinaf.catalog", "load_catalog", "catalog.load_catalog"),
    ("spinaf.catalog", "load_expectations", "catalog.load_expectations"),
    ("jsonschema", "validate", "catalog.jsonschema_validate"),
    ("spinaf.catalog", "check_record", "catalog.check_record"),
    ("spinaf.catalog", "verify", "catalog.verify"),
    ("spinaf.holonomy", "matrix_group_closure", "holonomy.matrix_group_closure"),
    ("spinaf.holonomy", "character_of_record", "holonomy.character_of_record"),
    ("spinaf.chartables", "decompose", "chartables.decompose"),
    ("spinaf.fp", "count_lifts", "fp.count_lifts"),
    ("spinaf.fp", "enumerate_lifts", "fp.enumerate_lifts"),
    ("spinaf.fp", "base_preimages", "fp.base_preimages"),
    ("spinaf.fp", "evaluate_word", "fp.evaluate_word"),
    ("spinaf.fp", "sylow_strategy", "fp.sylow_strategy"),
    ("spinaf.fp", "sylow_pullback_record", "fp.sylow_pullback_record"),
    ("spinaf.fp", "lift_group", "fp.lift_group"),
    ("spinaf.groups", "todd_coxeter", "groups.todd_coxeter"),
    ("spinaf.groups", "reidemeister_schreier", "groups.reidemeister_schreier"),
    ("spinaf.groups", "regular_representation", "groups.regular_representation"),
    ("spinaf.groups", "identify_group", "groups.identify_group"),
    ("spinaf.spin", "preimage", "spin.preimage"),
    ("spinaf.spin", "lam", "spin.lam"),
    ("spinaf.spin", "subgroup_closure", "spin.subgroup_closure"),
    ("spinaf.linalg", "is_orthogonal", "linalg.is_orthogonal"),
    ("spinaf.cyclotomic", "lift_power_sign", "cyclotomic.lift_power_sign"),
)

# Arithmetic called tens of thousands of times per verify: counted, not
# timed, so tracing does not swamp the spans around it.  ``QSqrt2`` binds
# ``__rmul__ = __mul__`` at class creation, so both names are patched.
COUNT_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("spinaf.clifford", "CliffordElement.__mul__", "clifford.mul"),
    ("spinaf.qsqrt2", "QSqrt2.__mul__", "qsqrt2.mul"),
    ("spinaf.qsqrt2", "QSqrt2.__rmul__", "qsqrt2.mul"),
)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans around patched functions and counts calls."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.op: Optional[str] = None
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def span(self, name: str, fn: Callable, on_return: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so that every call records a span named ``name``.

        ``on_return(counts, args, result)`` may add counters derived from a
        call's arguments and result.  An exception is counted under
        ``<name>.raised.<type>`` and re-raised.
        """
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self.clock

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None, self.op])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                stack.pop()
                spans[index][2] = clock()
            if on_return is not None:
                on_return(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Patch every target; ``uninstall`` puts the originals back."""
        for module, path, name in SPAN_TARGETS:
            owner, attr = _resolve(module, path)
            self._patch(owner, attr, self.span(name, getattr(owner, attr), RETURN_HOOKS.get(name)))
        for module, path, name in COUNT_TARGETS:
            owner, attr = _resolve(module, path)
            self._patch(owner, attr, self.counter(name, getattr(owner, attr)))

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


# -- counters derived from arguments and results ---------------------------


def _count_records(counts, args, result) -> None:
    counts["catalog.records_loaded"] += len(result.records)


def _count_assignments(counts, args, result) -> None:
    record = args[0]
    counts["fp.enumerate_lifts.assignments_tried"] += 1 << len(record.presentation.generators)
    counts["fp.enumerate_lifts.assignments_valid"] += result.count


RETURN_HOOKS: Dict[str, Callable] = {
    "catalog.load_catalog": _count_records,
    "fp.enumerate_lifts": _count_assignments,
}


# -- analysis ---------------------------------------------------------------


def _covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length of the union of closed intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent, _op in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - _covered(children.get(i, ()))
        for i, (_name, start, end, _parent, _op) in enumerate(spans)
    ]


def summarize(spans: Sequence[Sequence], counts: Dict[str, int]) -> Dict[str, float]:
    """``<name>.calls`` and ``<name>.self_s`` per span name, plus counters."""
    out: Dict[str, float] = dict(counts)
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + own
    return out

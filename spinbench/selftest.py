"""Tests of the benchmark itself (not of spinaf).

Run from the root of a checkout:  python3 spinbench/selftest.py

The file name keeps pytest's default collection away from these tests, so
the repository's own test suite is unchanged by them.
"""

from __future__ import annotations

import json
import sys
import unittest
from itertools import islice

import census
import checks
import run
import tracer
import workloads


class SeededInputs(unittest.TestCase):
    refs = workloads.load_refs()

    def test_same_seed_same_queries(self):
        first = list(islice(workloads.family_stream(7, self.refs), 200))
        again = list(islice(workloads.family_stream(7, self.refs), 200))
        other = list(islice(workloads.family_stream(8, self.refs), 200))
        self.assertEqual(first, again)
        self.assertNotEqual(first, other)

    def test_query_mix_and_shifts(self):
        queries = list(islice(workloads.family_stream(1, self.refs), 2000))
        kinds = {k: sum(q.kind == k for q in queries) / len(queries) for k, _ in workloads.QUERY_MIX}
        for kind, weight in workloads.QUERY_MIX:
            self.assertAlmostEqual(kinds[kind], weight / 100, delta=0.04)
        self.assertEqual({q.row.family for q in queries}, set(self.refs.names))
        exported = {q.row.family for q in queries if q.kind == "export"}
        self.assertEqual(exported, set(self.refs.names) - checks.SYLOW_FAMILIES)
        for q in queries:
            self.assertTrue(all((p - v) % 2 == 0 and abs(p - v) <= 4 for p, v in zip(q.params, q.row.params)))
        self.assertTrue(any(q.params != q.row.params for q in queries))

    def test_same_seed_same_double_cover_plan(self):
        self.assertEqual(workloads.double_cover_plan(5, 193), workloads.double_cover_plan(5, 193))
        self.assertNotEqual(workloads.double_cover_plan(5, 193), workloads.double_cover_plan(6, 193))
        factors, pairs = workloads.double_cover_plan(5, 193)
        with_mixed = [i for i, f in enumerate(factors) if 192 in f]
        self.assertTrue(all(i in with_mixed for i in range(0, len(factors), workloads.MIXED_EVERY)))
        self.assertEqual([a for a, _ in pairs], list(range(len(factors))))
        self.assertTrue(all(b % workloads.MIXED_EVERY for _, b in pairs))

    def test_census_reaches_every_subcommand_and_sylow(self):
        queries = census.census_queries(3, self.refs)
        self.assertEqual(queries, census.census_queries(3, self.refs))
        for kind in census.CLI_KINDS:
            self.assertGreaterEqual(sum(q.kind == kind for q in queries), census.CENSUS_PER_KIND)
        for kind in ("classify", "lift-group"):
            self.assertTrue(any(q.kind == kind and q.row.family in checks.SYLOW_FAMILIES for q in queries))


class FailuresAreCounted(unittest.TestCase):
    """A wrong output yields a reason string; it never raises."""

    refs = workloads.load_refs()

    def row(self, family):
        return next(r for r in self.refs.rows if r.family == family and r.count)

    def run_cli(self, args):
        done = workloads.run_python(["-m", "spinaf.cli", *args])
        self.assertEqual(done.code, 0, done.stderr)
        return done.stdout

    def test_tampered_classify_count(self):
        row = self.row("27")
        query = workloads.Query("classify", row, row.params)
        stdout = self.run_cli(query.argv(self.refs.names["27"]))
        self.assertIsNone(checks.check_classify(0, stdout, row))
        payload = json.loads(stdout)
        payload[0]["count"] += 1
        self.assertEqual(checks.check_classify(0, json.dumps(payload).encode(), row), "count_mismatch")
        self.assertEqual(checks.check_classify(4, stdout, row), "exit_4")
        self.assertEqual(checks.check_classify(0, b"Traceback", row), "unparseable_output")

    def test_missing_and_duplicate_assignments(self):
        row = self.row("27")
        names = self.refs.names["27"]
        stdout = self.run_cli(workloads.Query("export", row, row.params).argv(names))
        self.assertIsNone(checks.check_export(0, stdout, row, names))
        payload = json.loads(stdout)
        dropped = dict(payload, assignments=payload["assignments"][1:])
        doubled = dict(payload, assignments=payload["assignments"][:-1] + payload["assignments"][:1])
        emptied = dict(payload, assignments=[])
        for tampered, reason in (
            (dropped, "export_assignment_count"),
            (doubled, "export_assignments_duplicate"),
            (emptied, "export_assignments_missing"),
        ):
            self.assertEqual(checks.check_export(0, json.dumps(tampered).encode(), row, names), reason)

    def test_sylow_export_is_the_known_defect(self):
        row = self.row("143")
        names = self.refs.names["143"]
        stdout = self.run_cli(workloads.Query("export", row, row.params).argv(names))
        reason = checks.check_export(0, stdout, row, names)
        self.assertIn(reason, (None, "export_assignments_missing"))
        self.assertTrue(checks.only_known_defects([None, reason]))
        self.assertFalse(checks.only_known_defects([None, "count_mismatch"]))

    def test_sylow_export_probe(self):
        probe = workloads.sylow_export_probe(self.refs)
        self.assertEqual(set(probe), checks.SYLOW_FAMILIES)
        self.assertTrue(checks.only_known_defects(probe.values()), probe)

    def test_tampered_verify_report(self):
        expected = self.refs.expected
        rows = [
            {"family": r.family, "params": list(r.params), "computed": r.count}
            for r in self.refs.rows
        ]
        good = json.dumps({"rows": rows}).encode()
        self.assertIsNone(checks.check_verify(0, good, expected, None))
        self.assertEqual(checks.check_verify(0, good + b" ", expected, good), "verify_stdout_changed")
        rows[0]["computed"] += 2
        bad = json.dumps({"rows": rows}).encode()
        self.assertEqual(checks.check_verify(0, bad, expected, None), "count_mismatch")
        self.assertEqual(checks.check_verify(0, b"{}", expected, None), "unparseable_output")

    def test_lift_group_and_char(self):
        row = self.row("184")
        lifted = {"family": "184", "holonomy": "D12", "name": "C3:Q8", "order": 24,
                  "realization": "abstract", "elements": []}
        self.assertIsNone(checks.check_lift_group(0, json.dumps(lifted).encode(), row))
        lifted["order"] = 12
        self.assertEqual(checks.check_lift_group(0, json.dumps(lifted).encode(), row), "lift_group_order")
        char = {"family": "184", "holonomy": "D12", "decomposition": "χ1+χ2+χ6",
                "multiplicities": [1, 1, 0, 0, 0, 1]}
        self.assertIsNone(checks.check_char(0, json.dumps(char).encode(), row))
        char["multiplicities"] = [1, 1, 0, 0, 1, 1]
        self.assertEqual(checks.check_char(0, json.dumps(char).encode(), row), "char_dimension")


class Declared(unittest.TestCase):
    def test_benchmark_json_lists_what_the_runs_print(self):
        with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            declared = json.load(fh)
        self.assertEqual(
            {m["name"]: m["unit"] for m in declared["end_to_end"]}, run.END_TO_END_UNITS
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in declared["per_layer"]],
            [(name, census.unit_of(name)) for name in census.metric_names()],
        )
        self.assertEqual([w["name"] for w in declared["workloads"]], list(workloads.WORKLOADS))


class Calibrated(unittest.TestCase):
    refs = workloads.load_refs()

    def test_scale_is_reference_over_mean(self):
        samples = [workloads.CAL_REFERENCE_S, 3 * workloads.CAL_REFERENCE_S]
        self.assertAlmostEqual(workloads.scale_of(samples), 0.5)

    def test_set_up_interpreter_calibrates_itself(self):
        one = workloads.setup_time("double_cover")
        self.assertIsNotNone(one)
        self.assertEqual(len(one.cal), 2 * workloads.SETUP_CAL_AROUND + workloads.SETUP_CAL_INSIDE)
        self.assertGreater(one.wall, 0.0)
        self.assertAlmostEqual(one.scaled, one.wall * workloads.scale_of(one.cal))

    def test_loop_ends_on_a_whole_unit(self):
        def op(_i):
            return workloads.Sample(0.0, 0.0, None, "noop")

        samples = workloads.closed_loop(op, 0.0, unit=5)
        self.assertEqual(len(samples), 5)
        self.assertTrue(all(s.scale > 0.0 for s in samples))

    def test_calibration_window_widens_to_enough_samples(self):
        gaps = [[(float(g), float(g))] for g in range(10)]
        self.assertEqual([w for w, _ in workloads.calibration_window(gaps, 4)], [4, 5, 3, 6, 2, 7])
        self.assertEqual([w for w, _ in workloads.calibration_window(gaps, 0)], [0, 1, 2, 3, 4, 5])
        wide = [[(1.0, 1.0)] * 5, [(2.0, 2.0)] * 5]
        self.assertEqual(len(workloads.calibration_window(wide, 0)), 10)

    def test_in_process_verify_passes_its_checks(self):
        sys.path.insert(0, str(workloads.SRC))
        sweep = workloads.VerifySweep(4)
        self.assertEqual(sweep.family(50), workloads.VerifySweep(4).family(50))
        self.assertEqual({sweep.family(i) for i in range(43)}, set(self.refs.names))
        op = workloads.verify_op(self.refs, sweep)
        self.assertEqual([op(i).reason for i in range(43)], [None] * 43)


class SelfTime(unittest.TestCase):
    def test_self_time_is_duration_minus_children(self):
        spans = [
            ["root", 0.0, 10.0, None, "op"],
            ["a", 1.0, 4.0, 0, "op"],
            ["b", 3.0, 6.0, 0, "op"],  # overlaps a: the union 1..6 counts once
            ["c", 2.0, 3.0, 1, "op"],
            ["other", 20.0, 21.5, None, "op2"],
        ]
        self.assertEqual(tracer.self_times(spans), [5.0, 2.0, 3.0, 1.0, 1.5])

    def test_tracer_nesting_with_a_scripted_clock(self):
        ticks = iter(range(100))
        tr = tracer.Tracer(clock=lambda: float(next(ticks)))

        def inner():
            return 1

        traced_inner = tr.span("inner", inner)

        def outer():
            return traced_inner() + traced_inner()

        traced_outer = tr.span("outer", outer)
        self.assertEqual(traced_outer(), 2)
        # outer 0..5, inner 1..2 and 3..4
        summary = tracer.summarize(tr.spans, tr.counts)
        self.assertEqual(summary["outer.calls"], 1)
        self.assertEqual(summary["inner.calls"], 2)
        self.assertEqual(summary["outer.self_s"], 3.0)
        self.assertEqual(summary["inner.self_s"], 2.0)

    def test_raised_exceptions_are_counted_and_reraised(self):
        tr = tracer.Tracer()

        def boom():
            raise KeyError("x")

        with self.assertRaises(KeyError):
            tr.span("boom", boom)()
        self.assertEqual(tr.counts["boom.raised.KeyError"], 1)
        self.assertIsNotNone(tr.spans[0][2])


class CountsRepeat(unittest.TestCase):
    EXACT = ("clifford.mul.calls", "qsqrt2.mul.calls", "fp.base_preimages.calls",
             "fp.evaluate_word.calls")

    def test_traced_verify_counts_repeat(self):
        runs = []
        for _ in range(2):
            dump, _ = census._run_cli(True, "verify_sweep#0", ["verify", "--format", "json"])
            runs.append(tracer.summarize(dump["spans"], dump["counts"]))
        for key in self.EXACT:
            self.assertGreater(runs[0][key], 0, key)
            self.assertEqual(runs[0][key], runs[1][key], key)
        calls = {k: v for k, v in runs[0].items() if not k.endswith("_s")}
        self.assertEqual(calls, {k: v for k, v in runs[1].items() if not k.endswith("_s")})

    def test_patches_are_undone(self):
        sys.path.insert(0, str(workloads.SRC))
        from spinaf import fp, qsqrt2

        before = (fp.base_preimages, qsqrt2.QSqrt2.__mul__, qsqrt2.QSqrt2.__rmul__)
        with tracer.Tracer():
            self.assertIsNot(fp.base_preimages, before[0])
        self.assertEqual((fp.base_preimages, qsqrt2.QSqrt2.__mul__, qsqrt2.QSqrt2.__rmul__), before)


if __name__ == "__main__":
    unittest.main()

"""Self-tests of the benchmark: python3 bench/selftest.py (from a checkout root)."""

from __future__ import annotations

import math
import time
import unittest

import run
import spans
import workloads

contab = run.import_contab()


class WorkloadTests(unittest.TestCase):
    def test_operations_are_a_function_of_the_seed(self):
        for workload in workloads.BUILDERS:
            first = [(op.id, op.facts) for op in workloads.build(workload, 7, contab)]
            again = [(op.id, op.facts) for op in workloads.build(workload, 7, contab)]
            other = [(op.id, op.facts) for op in workloads.build(workload, 8, contab)]
            self.assertEqual(first, again, workload)
            self.assertEqual(sorted(op for op, _f in first),
                             sorted(op for op, _f in other), workload)
            self.assertEqual(len({op for op, _f in first}), len(first), workload)
        self.assertNotEqual([op.id for op in workloads.build("cross-check", 7, contab)],
                            [op.id for op in workloads.build("cross-check", 8, contab)])

    def test_workload_sizes(self):
        self.assertEqual(len(workloads.desk_specs()), 57)
        ops = workloads.build("cross-check", 0, contab)
        self.assertEqual(sum(op.id.startswith("bracket.") for op in ops), 80)
        self.assertEqual(sum(op.id.startswith("cli.") for op in ops), 32)

    def test_closed_form_matches_count_exact(self):
        for n in range(1, 11):
            want = contab.count_exact(contab.make_spec(n, 2, n, 2))
            self.assertEqual(workloads.count_two_per_line(n), want, n)
            if n <= 6:
                self.assertEqual(workloads.count_tables(n, 2, n, 2), want, n)

    def test_reference_counter(self):
        self.assertEqual(workloads.count_tables(3, 100, 3, 100), 13268976)
        self.assertEqual(workloads.count_tables(6, 1, 6, 1), math.factorial(6))
        self.assertEqual(workloads.count_tables(2, 3, 3, 2), 7)
        self.assertEqual(workloads.count_tables(2, 3, 3, 1), 0)


def _raise(exc):
    raise exc


class OutcomeTests(unittest.TestCase):
    def test_failures_are_counted(self):
        spec = contab.make_spec(3, 100, 3, 100)
        good = workloads.Op("good", lambda: contab.count_exact(spec),
                            workloads.check_exact((3, 100, 3, 100)))
        wrong = workloads.Op("wrong", lambda: 13268977,
                             workloads.check_exact((3, 100, 3, 100)))
        boom = workloads.Op("boom", lambda: _raise(RecursionError("deep")),
                            workloads.check_exact((3, 100, 3, 100)))
        capped = workloads.Op(
            "capped", lambda: contab.count_exact(contab.make_spec(10, 20, 10, 20),
                                                 max_work=100),
            workloads.check_exact((10, 20, 10, 20)), expect_cap="work")
        with run.SpeedProbe() as probe:
            outcomes = run.run_pass([good, wrong, boom, capped], contab, probe, None)
        self.assertEqual([o.status for o in outcomes], ["ok", "wrong", "error", "cap"])
        self.assertEqual(outcomes[2].error, "RecursionError")
        self.assertEqual(outcomes[3].detail["kind"], "work")
        self.assertEqual(outcomes[3].detail["limit"], 100)
        self.assertEqual(run.failed_frac(outcomes), 0.5)
        metrics = run.end_to_end_metrics([0.5], [run.Pass(outcomes)])
        self.assertEqual(metrics["ops_ok_frac"]["value"], 0.5)


class TraceTests(unittest.TestCase):
    def test_traced_and_plain_passes_agree(self):
        ops = [op for op in workloads.build("cross-check", 3, contab)
               if op.id.startswith(("cli.", "ehrhart.3x3", "bracket.2_"))]
        tracer = spans.Tracer()
        with run.SpeedProbe() as probe:
            plain = run.run_pass(ops, contab, probe, None)
            traced = run.run_pass(ops, contab, probe, tracer)
        self.assertEqual([(o.op, o.status) for o in plain],
                         [(o.op, o.status) for o in traced])
        self.assertTrue(all(o.status == "ok" for o in plain))
        names = {s.name for s in tracer.spans}
        self.assertLessEqual({"cli.main", "exact.count_exact", "estimators.good_estimate",
                              "ehrhart.ehrhart_polynomial"}, names)
        # exact calls made by ehrhart and by the CLI are children of those spans
        parents = {tracer.spans[s.parent].layer for s in tracer.spans
                   if s.layer == "exact" and s.parent is not None}
        self.assertEqual(parents, {"cli", "ehrhart"})
        self.assertTrue(all(s.op is not None and s.end >= s.start for s in tracer.spans))
        # uninstall restores every rebinding, including names imported by value
        self.assertIs(contab.ehrhart.count_exact, contab.exact.count_exact)
        self.assertFalse(hasattr(contab.count_exact, "__wrapped__"))
        self.assertFalse(hasattr(contab.cli._ESTIMATE_METHODS["good"], "__wrapped__"))

    def test_speed_probe_samples_while_work_runs(self):
        with run.SpeedProbe() as probe:
            deadline = time.perf_counter() + 0.2
            while time.perf_counter() < deadline:
                pass
        self.assertGreaterEqual(len(probe.samples), 5)
        self.assertGreater(probe.speed(0), 0.0)
        self.assertEqual(probe.speed(len(probe.samples)), probe.speed(len(probe.samples) - 1))

    def test_self_time(self):
        trace = [spans.Span("cli.main", 0.0, 10.0, None, "a"),
                 spans.Span("exact.count_exact", 1.0, 4.0, 0, "a"),
                 spans.Span("ehrhart.ehrhart_polynomial", 5.0, 9.0, 0, "a"),
                 spans.Span("exact.count_exact", 6.0, 8.0, 2, "a")]
        self.assertEqual(spans.self_seconds(trace, "cli"), 3.0)
        self.assertEqual(spans.self_seconds(trace, "ehrhart"), 2.0)
        self.assertEqual(spans.busy_seconds(trace, "exact"), 5.0)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-tests of the benchmark's own code.

    python3 bench/selftest.py

Not part of the repository's test suite (the file name does not match
pytest's test_*.py pattern): the reproduce test runs reproduce-all twice,
about 20 s.
"""
from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import END, PARENT, START, Tracer  # noqa: E402
from workloads import WORKLOADS, load_bundled  # noqa: E402


class SelfTimeArithmetic(unittest.TestCase):
    def test_synthetic_nested_trace(self):
        # [name, start, end, parent, run, raised, sizes]
        spans = [
            ["root", 0.0, 10.0, -1, 1, False, None],
            ["a", 1.0, 4.0, 0, 1, False, None],
            ["a.inner", 2.0, 3.0, 1, 1, False, None],
            ["b", 5.0, 9.0, 0, 1, False, None],
            ["root2", 20.0, 22.0, -1, 2, False, None],
            ["c", 20.5, 21.0, 4, 2, False, None],
        ]
        self.assertEqual(tracer.self_times(spans), [3.0, 2.0, 1.0, 4.0, 1.5, 0.5])
        self.assertEqual(tracer.self_sum_residual(spans), 0.0)
        summary = tracer.summarize(spans + [["b", 9.5, 9.75, 0, 1, True, {"n": 2.0}]], 1)
        self.assertNotIn("c", summary)
        self.assertEqual(summary["root"].self_s, 2.75)
        self.assertEqual(summary["b"].calls, 2)
        self.assertEqual(summary["b"].raised, 1)
        self.assertEqual(summary["b"].sizes, {"n": 2.0})

    def test_live_trace_sums_to_root(self):
        t = Tracer()
        leaf = t.wrap("leaf", lambda n: sum(range(n)))
        mid = t.wrap("mid", lambda: [leaf(1000) for _ in range(5)])
        with t.root("root") as root:
            mid()
            leaf(10)
        self.assertEqual(len(t.spans), 8)
        self.assertEqual(t.spans[1][PARENT], 0)
        self.assertEqual(t.spans[2][PARENT], 1)
        self.assertLess(tracer.self_sum_residual(t.spans), 1e-12)
        total = sum(tracer.self_times(t.spans))
        self.assertAlmostEqual(total, root[END] - root[START], delta=1e-12)


class Wrappers(unittest.TestCase):
    def test_wrapper_returns_the_same_object_and_raises_the_same_error(self):
        t = Tracer()
        sentinel = object()
        error = ValueError("boom")

        def raises():
            raise error

        self.assertIs(t.wrap("f", lambda: sentinel)(), sentinel)
        with self.assertRaises(ValueError) as ctx:
            t.wrap("g", raises)()
        self.assertIs(ctx.exception, error)
        self.assertTrue(t.spans[-1][5])

    def test_install_rebinds_everywhere_and_uninstall_restores(self):
        from wagedyn import checks, cli, distribution, employer, report

        targets = tracer.wagedyn_targets()
        originals = {
            "checks.propagate": checks.propagate,
            "report.propagate": report.propagate,
            "distribution.propagate": distribution.propagate,
            "employer.worker_policy": employer.worker_policy,
            "ALL_CHECKS": checks.ALL_CHECKS,
            "RUNNERS": dict(report.RUNNERS),
            "from_pairs": vars(distribution.WageDistribution)["from_pairs"],
            "cli.validate_config": cli.validate_config,
        }
        t = Tracer()
        replaced = t.install(targets)
        try:
            self.assertGreater(replaced, len(targets))
            # functools.wraps leaves the original on __wrapped__
            for mod in (checks, report, distribution):
                self.assertIs(mod.propagate.__wrapped__, originals["distribution.propagate"])
            self.assertIs(employer.worker_policy.__wrapped__, originals["employer.worker_policy"])
            self.assertIs(cli.validate_config.__wrapped__, originals["cli.validate_config"])
            self.assertEqual([c.__wrapped__ for c in checks.ALL_CHECKS],
                             list(originals["ALL_CHECKS"]))
            self.assertIs(cli.RUNNERS, report.RUNNERS)
            self.assertEqual({k: r.__wrapped__ for k, r in report.RUNNERS.items()},
                             originals["RUNNERS"])
            pairs = [(0.3, 0.25), (0.1, 0.5), (0.3 + 1e-12, 0.25)]
            traced = distribution.WageDistribution.from_pairs(pairs)
            plain = targets["distribution.WageDistribution.from_pairs"][0](pairs)
            self.assertEqual(traced.support.tolist(), plain.support.tolist())
            self.assertEqual(traced.probs.tolist(), plain.probs.tolist())
            self.assertEqual(t.spans[0][0], "distribution.WageDistribution.from_pairs")
            self.assertEqual(t.spans[0][6], {"pairs_in": 3.0, "points_out": 2.0})
        finally:
            t.uninstall()
        self.assertIs(checks.propagate, originals["checks.propagate"])
        self.assertIs(report.propagate, originals["report.propagate"])
        self.assertIs(distribution.propagate, originals["distribution.propagate"])
        self.assertIs(employer.worker_policy, originals["employer.worker_policy"])
        self.assertIs(checks.ALL_CHECKS, originals["ALL_CHECKS"])
        self.assertEqual(report.RUNNERS, originals["RUNNERS"])
        self.assertIs(vars(distribution.WageDistribution)["from_pairs"],
                      originals["from_pairs"])
        self.assertIs(cli.validate_config, originals["cli.validate_config"])


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        scenarios = load_bundled()
        for name in ("contract_search", "distributions"):
            w = WORKLOADS[name]
            first, again, other = (w.prepare(s, scenarios) for s in (7, 7, 8))
            self.assertEqual(repr(first), repr(again), name)
            self.assertNotEqual(repr(first), repr(other), name)


class Gates(unittest.TestCase):
    def test_additive_support_has_t_plus_1_points_on_a_short_horizon(self):
        from wagedyn.params import Horizon

        sc = load_bundled()["fig3_2"]
        sizes = workloads.additive_support_sizes(sc.contract, sc.prefs, Horizon(8), 1.0)
        self.assertEqual(sizes, list(range(2, 10)))

    def test_count_calls_counts_and_restores(self):
        from wagedyn import distribution

        original = distribution.propagate
        with workloads.count_calls(distribution, "propagate") as count:
            self.assertIsNot(distribution.propagate, original)
            with self.assertRaises(Exception):
                distribution.propagate(None, None, None)
        self.assertEqual(count, [1])
        self.assertIs(distribution.propagate, original)


class TracedReproduce(unittest.TestCase):
    def test_traced_and_untraced_artifacts_identical(self):
        from wagedyn import cli

        base = Path(tempfile.mkdtemp(prefix="bench-selftest-", dir=ROOT / "bench_out"))
        try:
            outs = []
            for traced in (False, True):
                out = base / ("traced" if traced else "plain")
                t = Tracer()
                if traced:
                    t.install(tracer.wagedyn_targets())
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = cli.main(["reproduce-all", "--out", str(out)])
                finally:
                    t.uninstall()
                self.assertEqual(code, 2)
                outs.append(out)
            self.assertGreater(len(t.spans), 0)
            files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*")
                           if p.is_file() and p.parent != outs[0])
            self.assertEqual(len(files), 59)
            for rel in files:
                self.assertEqual((outs[0] / rel).read_bytes(), (outs[1] / rel).read_bytes(),
                                 str(rel))
        finally:
            shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    tmp = ROOT / "bench_out" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    unittest.main()

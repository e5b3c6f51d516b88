"""Self-tests of the benchmark harness and its tracer.

    python3 perfbench/selftest.py

They check that tracing does not change any output, that the tracer's
node counts agree with the library's own, that the result line matches
BENCHMARK.json, that smoke mode is quick, and that the benchmark refuses
to run without the library sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

import run


def run_cli(*args, cwd=run.ROOT, timeout=180):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


class TracerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.ak = run.load_library()

    def traced(self, fn):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.begin_op(0)
        try:
            return fn(), tracer
        finally:
            tracer.uninstall()

    def test_digests_equal_with_tracing_on_and_off(self):
        import workloads
        for name in run.WORKLOADS:
            wl = workloads.prepare(name, 5)
            plain = [run.run_op(wl, i, digest=True) for i in range(3)]
            traced, _ = self.traced(
                lambda: [run.run_op(wl, i, digest=True) for i in range(3)])
            with self.subTest(workload=name):
                self.assertEqual([r.digest for r in plain],
                                 [r.digest for r in traced])
                self.assertFalse(any(r.broken for r in plain + traced))

    def test_uninstall_restores_every_name(self):
        from arakelov import lattice, sampler, sections, zeta, bundle
        before = (lattice.lll_transform, sampler.lll_transform,
                  sections.enumerate_short_vectors, zeta.rat_det,
                  self.ak.tensor, bundle.PlaceForm.value_pair)
        _, tracer = self.traced(lambda: None)
        self.assertEqual(before, (
            lattice.lll_transform, sampler.lll_transform,
            sections.enumerate_short_vectors, zeta.rat_det,
            self.ak.tensor, bundle.PlaceForm.value_pair))
        self.assertEqual(len(tracer._patches), 0)

    def test_node_count_equals_section_report(self):
        ak = self.ak
        for desc, rank, t in (("Q", 4, 0.6), ("Q(sqrt{-1})", 2, 0.5),
                              ("Q(sqrt{5})", 2, 0.8)):
            E = ak.scale(ak.trivial_bundle(ak.make_field(desc), rank), t)
            report, tracer = self.traced(lambda: ak.global_sections(E))
            with self.subTest(field=desc):
                self.assertGreater(report.nodes_visited, 0)
                self.assertEqual(
                    tracer.counts["lattice.enumerate_short_vectors.nodes"],
                    report.nodes_visited)

    def test_node_count_with_and_without_a_caller_counter(self):
        from arakelov import lattice
        gram = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]

        def both():
            supplied = [0]
            a = list(lattice.enumerate_short_vectors(gram, 9, 10**6,
                                                     supplied))
            b = list(lattice.enumerate_short_vectors(gram, 9))
            return a, b, supplied[0]

        (a, b, supplied), tracer = self.traced(both)
        self.assertEqual(a, b)
        self.assertEqual(tracer.counts["lattice.enumerate_short_vectors.nodes"],
                         2 * supplied)
        self.assertEqual(
            tracer.counts["lattice.enumerate_short_vectors.yielded"],
            len(a) + len(b))

    def test_self_times_add_up_to_busy_time(self):
        ak = self.ak
        E = ak.random_bundle(
            ak.make_field("Q(sqrt{-1})"), 2, 0.0,
            ak.RandomLatticeSpec(2, 100003, 1, ak.make_field("Q(sqrt{-1})")))
        _, tracer = self.traced(lambda: ak.enumerate_subbundles(E, 1, -2.0))
        total_self = sum(tracer.self_times().values())
        self.assertAlmostEqual(total_self, tracer.top_level_busy(), places=9)


class CommandTest(unittest.TestCase):
    def result_line(self, proc) -> dict:
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_result_lines_match_benchmark_json(self):
        config = json.loads(run.BENCHMARK.read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_cli("--workload", "search", "--seed", "3",
                           "--seconds", "1", "--trace", str(trace))
            result = self.result_line(proc)
            with self.subTest(trace=trace):
                self.assertEqual(set(result), {"correct", "attempted",
                                               "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(
                    {k: m["unit"] for k, m in result["metrics"].items()},
                    {m["name"]: m["unit"] for m in config[key]})

    def test_smoke_mode_finishes_in_seconds(self):
        t0 = time.perf_counter()
        proc = run_cli("--smoke", timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertLess(time.perf_counter() - t0, 30.0)

    def test_refuses_to_run_without_library_sources(self):
        run.TRACE_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.TRACE_DIR) as tmp:
            shutil.copy(run.BENCHMARK, tmp)
            shutil.copytree(run.HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_cli("--workload", "mvt", "--seed", "0", "--seconds",
                           "1", "--trace", "0", cwd=tmp, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()

"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed, that a wrong
expected answer is counted as a failure, that the seed changes the inputs
but not the question count, that a wrapped name that no longer exists
makes its metrics absent rather than 0, and that the benchmark refuses to
run without the halfder sources.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import questions  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class SelfTest(unittest.TestCase):
    def test_every_metric_is_printed(self):
        wanted = {
            "0": {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in SPEC["per_layer"]},
        }
        for workload in questions.WORKLOADS:
            for trace, names in wanted.items():
                with self.subTest(workload=workload, trace=trace):
                    out = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                 "--trace", trace, "--tiny")
                    self.assertEqual(out.returncode, 0, out.stderr)
                    result = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], out.stderr)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, names)
                    if trace == "0":
                        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))
                        for printed in ("questions_per_s = ", "question_p50_s = ", "question_tail_s = ", "failed_share="):
                            self.assertIn(printed, out.stdout)

    def test_wrong_expected_answer_fails(self):
        for workload in questions.WORKLOADS:
            with self.subTest(workload=workload):
                qs = copy.deepcopy(questions.generate(workload, 5, tiny=True))
                q = qs[0]
                if q.kind == "cli":
                    q.expect["status"] = "fail"
                else:
                    q.expect["members"] = [not m for m in q.expect["members"]] or [True]
                times, failures = run.run_rounds(qs, 1)
                self.assertEqual(len(times), len(qs))
                self.assertEqual([label for label, _ in failures], [q.label])

    def test_seed_changes_inputs_not_count(self):
        for workload in questions.WORKLOADS:
            for tiny in (False, True):
                with self.subTest(workload=workload, tiny=tiny):
                    a = questions.generate(workload, 1, tiny)
                    b = questions.generate(workload, 2, tiny)
                    self.assertEqual(len(a), len(b))
                    self.assertNotEqual(a, b)
                    self.assertEqual(a, questions.generate(workload, 1, tiny))

    def test_missing_wrapped_name_is_absent(self):
        import spans
        from halfder import solver

        original, solve = solver._rref, solver.solve_delta_derivations
        del solver._rref
        tracer = spans.Tracer()
        try:
            tracer.install()
            tracer.uninstall()
        finally:
            solver._rref = original
        values = tracer.metrics(1, 1.0)
        for name in ("solver.rref_s", "solver.rref_calls", "solver.rref_useful_ratio"):
            self.assertIsNone(values[name])
        self.assertEqual(values["solver.rows_s"], 0)
        self.assertIs(solver.solve_delta_derivations, solve)

    def test_refuses_without_sources(self):
        bare = run.RESULTS / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            out = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "scan", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170,
            )
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

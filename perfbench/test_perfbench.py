#!/usr/bin/env python3
"""Tests of the benchmark itself, at a tiny scale.

    python3 perfbench/test_perfbench.py

Builds the driver like run.py does, then checks that a run emits every
metric BENCHMARK.json names with its unit, that calibrated times do not
change with the host's speed, that a tampered document fails the output
check and raises error_share, that the traced and untraced documents agree
on every workload, that every ledger closes, and that unfit builds, an
over-budget thread count and a checkout without the library are refused
without a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

TINY = 0.05
SEED = 42


def tiny_args(trace):
    return argparse.Namespace(seed=SEED, seconds=0.0, trace=trace, scale=TINY)


def run_cli(*flags):
    done = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py")]
                          + list(flags), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    return done


class Bench(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.bench = run.load_benchmark()
        cls.prov = run.provenance()

    def launch(self, workload, trace):
        out_dir = run.out_dir_for(workload, SEED)
        raw, error = run.launch(workload, SEED, 0.0, trace, TINY, out_dir)
        self.assertIsNone(error)
        return raw, out_dir

    def score(self, workload, trace, raw, out_dir):
        return run.score(workload, tiny_args(trace), self.bench, self.prov,
                         raw, None, out_dir)

    def test_tiny_runs_emit_every_metric_with_its_unit(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in self.bench[section]}
            for workload in run.WORKLOADS:
                done = run_cli("--workload", workload, "--seed", str(SEED),
                               "--seconds", "0", "--trace", str(trace),
                               "--scale", str(TINY))
                self.assertEqual(done.returncode, 0, done.stderr)
                lines = done.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed",
                                  "metrics"})
                self.assertTrue(result["correct"], done.stdout)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(
                    {k: v["unit"] for k, v in result["metrics"].items()},
                    declared)
                for value in result["metrics"].values():
                    self.assertIsInstance(value["value"], (int, float))
                if trace == 0:
                    text = "\n".join(lines[:-1])
                    self.assertRegex(text, r"error_share\s+0 ratio")
                    if workload == "study":
                        self.assertRegex(text, r"table1_delta_pp\s+\S+ pp")

    def test_calibrated_times_divide_out_the_host_speed(self):
        raw, _ = self.launch("optimize", 0)
        # The same run on a host half as fast: every rep, set-up and
        # calibration kernel takes twice as long.
        slow = json.loads(json.dumps(raw))
        for pop in slow["populations"]:
            for rep in pop["reps"]:
                for key in ("wall_s", "cpu_s", "calibration_s",
                            "calibration_wall_s"):
                    rep[key] *= 2
                rep["setup_s"] = [2 * s for s in rep["setup_s"]]
        fast = run.end_to_end(raw, [], 0)
        for name in ("sites_per_s", "cpu_us_per_site", "setup_s"):
            self.assertAlmostEqual(run.end_to_end(slow, [], 0)[name],
                                   fast[name], delta=1e-9 * fast[name])

    def test_every_declared_metric_has_a_source(self):
        for entry in self.bench["end_to_end"]:
            self.assertEqual(run.END_TO_END_UNITS[entry["name"]],
                             entry["unit"])
        for entry in self.bench["per_layer"]:
            self.assertEqual(run.PER_LAYER_UNITS[entry["name"]],
                             entry["unit"])

    def test_tampered_document_fails_and_raises_error_share(self):
        for workload, old, new in (
                ("study", '"sites_visited": ', '"sites_visited": 1'),
                ("optimize", '"recovered": ', '"recovered": 9'),
                ("replay", '"reuse_busy": ', '"reuse_busy": 1')):
            raw, out_dir = self.launch(workload, 0)
            clean, _ = self.score(workload, 0, raw, out_dir)
            self.assertTrue(clean["correct"])
            path = run.doc_path(out_dir, len(raw["populations"]) - 1)
            with open(path, encoding="utf-8") as f:
                text = f.read()
            self.assertIn(old, text)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text.replace(old, new, 1))
            result, record = self.score(workload, 0, raw, out_dir)
            self.assertFalse(result["correct"], workload)
            self.assertEqual(result["failed"], result["attempted"])
            self.assertEqual(record["end_to_end"]["error_share"], 1.0)

    def test_recorded_digest_catches_a_change_the_identities_miss(self):
        raw, out_dir = self.launch("study", 0)
        path = run.doc_path(out_dir, 0)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        # Whitespace the parser ignores: only the digest can notice.
        with open(path, "w", encoding="utf-8") as f:
            f.write(text.replace("{", "{ ", 1))
        result, record = self.score("study", 0, raw, out_dir)
        self.assertFalse(result["correct"])
        self.assertTrue(any("digest" in p for p in record["problems"]))

    def test_traced_and_untraced_digests_agree(self):
        for workload in run.WORKLOADS:
            raw, out_dir = self.launch(workload, 1)
            self.assertGreater(len(raw["populations"]), 1)
            for k in range(len(raw["populations"])):
                untraced = run.sha256_file(run.doc_path(out_dir, k))
                traced = run.sha256_file(run.doc_path(out_dir, k,
                                                      traced=True))
                self.assertEqual(untraced, traced, (workload, k))
            for pass_ in raw["passes"]:
                self.assertTrue(pass_["doc_identical"])
                self.assertTrue(pass_["metrics_identical"])
            result, _ = self.score(workload, 1, raw, out_dir)
            self.assertTrue(result["correct"], workload)

    def test_ledger_closes_exactly(self):
        for workload in run.WORKLOADS:
            raw, out_dir = self.launch(workload, 1)
            for pass_ in raw["passes"]:
                counted = sum(v["self_ns"] for k, v in pass_["layers"].items()
                              if k not in run.EXCLUDED_SPANS)
                self.assertEqual(counted + pass_["unattributed_ns"],
                                 pass_["total_ns"])
                self.assertGreaterEqual(pass_["unattributed_ns"], 0)
            metrics, _ = run.per_layer(raw)
            layer_sum = sum(metrics[name + ".self_s"]
                            for name in run.SPAN_LAYERS
                            if name not in run.EXCLUDED_SPANS)
            self.assertAlmostEqual(
                layer_sum + metrics["unattributed.self_s"],
                metrics["ledger.total_s"], places=6)
            with open(os.path.join(out_dir, "spans.tsv"),
                      encoding="utf-8") as f:
                self.assertGreater(len(f.readlines()), 1)

    def test_unfit_builds_are_refused(self):
        fit = dict(self.prov)
        run.refuse_unfit_build(fit)
        for change in ({"build_type": "Debug"}, {"sanitizers": ["address"]},
                       {"optimized": False}):
            unfit = dict(fit, **change)
            with self.assertRaises(run.BenchError):
                run.refuse_unfit_build(unfit)

    def test_thread_budget_fails_the_run(self):
        out_dir = run.out_dir_for("study", SEED)
        done = subprocess.run(
            [run.BINARY, "--workload", "study", "--seed", str(SEED),
             "--scale", str(TINY), "--seconds", "0", "--nproc", "2",
             "--out-dir", out_dir],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=60)
        self.assertNotEqual(done.returncode, 0)
        self.assertIn("thread budget", done.stderr)
        self.assertEqual(done.stdout, "")

    def test_checkout_without_the_library_exits_without_result(self):
        bare = os.path.join(run.BUILD_DIR, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "study",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=170)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()

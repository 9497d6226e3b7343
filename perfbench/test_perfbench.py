#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the simulator).

Run from the repository root:  python3 perfbench/test_perfbench.py
Builds mnsbench through run.py first, then checks the seeded cell lists,
the recorded-results table, the printed metric names and the correctness
oracle.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def mnsbench(*args, check=True):
    done = subprocess.run([os.path.join(ROOT, run.BINARY)] + list(args), cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    if check and done.returncode != 0:
        raise AssertionError("mnsbench %s exited %d: %s" % (args, done.returncode, done.stderr))
    return done


def lines(*args):
    return mnsbench(*args).stdout.split()


def result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.chdir(ROOT)
        run.build()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_same_seed_same_cells(self):
        for w in run.WORKLOADS:
            args = ("--list", "--workload=" + w, "--seed=5", "--passes=3")
            self.assertEqual(lines(*args), lines(*args), w)

    def test_seeds_differ_inside_menu(self):
        for w in run.WORKLOADS:
            menu = set(lines("--menu", "--workload=" + w))
            a = lines("--list", "--workload=" + w, "--seed=%d" % run.DEFAULT_SEED, "--passes=3")
            b = lines("--list", "--workload=" + w, "--seed=%d" % run.HELD_OUT_SEED, "--passes=3")
            self.assertNotEqual(a, b, w)
            self.assertTrue(set(a) <= menu and set(b) <= menu, w)

    def test_recorded_table_covers_menu(self):
        with open(os.path.join(HERE, "recorded.tsv")) as f:
            recorded = {l.split("\t")[0] for l in f if l.strip() and not l.startswith("#")}
        for w in run.WORKLOADS:
            missing = set(lines("--menu", "--workload=" + w)) - recorded
            self.assertFalse(missing, "%s: no recorded result for %s" % (w, sorted(missing)))

    def test_benchmark_json_grammar(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))
        names = [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        names += [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for m in self.spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)

    def test_printed_metrics_match_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", "microbench",
                 "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            self.assertEqual(done.returncode, 0, done.stderr)
            why = {w["name"]: w["why"] for w in self.spec["workloads"]}["microbench"]
            self.assertIn("workload microbench: " + why + "\n", done.stdout)
            res = result(done.stdout)
            self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(res["correct"])
            want = {m["name"]: m["unit"] for m in self.spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            self.assertEqual(got, want)
            if trace == 0:
                self.assertRegex(done.stdout, r"metric wall_s = .*scaled to the reference speed")

    def test_perturbed_recorded_value_fails(self):
        with open(os.path.join(HERE, "recorded.tsv")) as f:
            text = f.read()
        line = next(l for l in text.splitlines() if l.startswith("latency/IBA/4\t"))
        fields = line.split("\t")
        fields[1] = float.hex(float.fromhex(fields[1]) * (1 + 1e-9))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "recorded.tsv")
            with open(path, "w") as f:
                f.write(text.replace(line, "\t".join(fields)))
            done = mnsbench("--workload=microbench", "--seconds=1", "--trace=1",
                            "--recorded=" + path, check=False)
        self.assertEqual(done.returncode, 1)
        res = result(done.stdout)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)
        self.assertGreater(res["metrics"]["fail_frac"]["value"], 0)
        self.assertIn("latency/IBA/4", done.stderr)

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "nas_tab2", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("metrics", done.stdout)


if __name__ == "__main__":
    unittest.main()

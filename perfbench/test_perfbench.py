#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py            # all (a few minutes)
    python3 perfbench/test_perfbench.py Static     # metadata only

Static checks that BENCHMARK.json, interactions.json and run.py agree on
workload and metric names, and that every name has the allowed form.
Repeat runs each workload's traced run twice with one seed and checks that
the count metrics repeat exactly, and that every name a run emits (traced
or not) has the allowed form.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
COUNTS = ["sassim.winstr_per_inj", "sassim.prefix_winstr_frac",
          "recover.attempts_per_inj", "fi.pruned_frac",
          "planner.checkpoints"]


def load(path):
    with open(path) as f:
        return json.load(f)


def bench_run(*args):
    """Runs run.py; returns (result line, path of the last results.json)."""
    done = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] +
                          list(args), capture_output=True, text=True)
    if done.returncode != 0:
        raise AssertionError("run.py %s exited %d:\n%s" %
                             (" ".join(args), done.returncode,
                              done.stderr[-3000:]))
    lines = done.stdout.strip().splitlines()
    results = [l.split(": ", 1)[1] for l in lines if l.startswith("results: ")]
    return json.loads(lines[-1]), results[-1]


class Static(unittest.TestCase):
    def test_names_agree_and_are_well_formed(self):
        bench = load(os.path.join(ROOT, "BENCHMARK.json"))
        table = load(os.path.join(HERE, "interactions.json"))
        workloads = [w["name"] for w in bench["workloads"]]
        self.assertEqual(workloads, run.WORKLOADS)
        self.assertEqual(sorted(workloads), sorted(table["workloads"]))
        per_layer = [m["name"] for m in bench["per_layer"]]
        self.assertEqual(sorted(per_layer), sorted(table["per_layer"]))
        end_to_end = [m["name"] for m in bench["end_to_end"]]
        self.assertTrue(set(end_to_end) <= set(table["end_to_end"]))
        for name in workloads + per_layer + end_to_end:
            self.assertRegex(name, NAME)
        for entry in table["per_layer"].values():
            for w in entry["moves_on"]:
                self.assertIn(w, workloads)


class Repeat(unittest.TestCase):
    def test_untraced_names_are_well_formed(self):
        result, _ = bench_run("--workload", "all", "--seed", "11",
                              "--seconds", "1", "--trace", "0")
        self.assertTrue(result["correct"])
        expected = {m["name"] for m in
                    load(os.path.join(ROOT, "BENCHMARK.json"))["end_to_end"]}
        for name in result["metrics"]:
            self.assertRegex(name, NAME)
            self.assertIn(name.split(".", 1)[1], expected)

    def test_counts_repeat_for_a_seed(self):
        expected = {m["name"] for m in
                    load(os.path.join(ROOT, "BENCHMARK.json"))["per_layer"]}
        for workload in run.WORKLOADS:
            runs = []
            for _ in range(2):
                result, path = bench_run("--workload", workload, "--seed",
                                         "11", "--seconds", "1", "--trace",
                                         "1")
                self.assertTrue(result["correct"], workload)
                self.assertEqual(set(result["metrics"]), expected)
                for name in result["metrics"]:
                    self.assertRegex(name, NAME)
                runs.append((result, load(path)))
            (first, first_file), (second, second_file) = runs
            self.assertEqual(first_file["inj_to_answer"],
                             second_file["inj_to_answer"], workload)
            for name in COUNTS:
                self.assertEqual(first["metrics"][name]["value"],
                                 second["metrics"][name]["value"],
                                 "%s %s" % (workload, name))


if __name__ == "__main__":
    unittest.main()

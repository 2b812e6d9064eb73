#!/usr/bin/env python3
"""Tests for tools/bench_trend.py, the bench trend gate.

Each case writes a synthetic --prev history and --curr BENCH_*.json
run reports into a temporary directory, runs the script and checks its
exit status, output and the history.csv it writes.
head_history.csv is a history table written by the script's earlier
per-file form, which diffed the HEAD_GATED labels below.

    run.py TOOLS/bench_trend.py
"""

import csv
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = None  # set from argv in main

# Every label the per-file script diffed against the previous run.
HEAD_GATED = [
    "adaptation/events_per_sec", "channel/gps/16", "channel/gps/100",
    "channel/gps/1000", "channel/gps/10000", "cluster/cells_per_sec",
    "convergence/grid_cells_per_sec", "e2e/optimized", "engine/scf/1024",
    "engine/scf/16384", "event_queue/200000", "fault/events_per_sec",
    "sweep_service/cells_per_sec", "telemetry/events_per_sec_bare",
]


def report(numbers, delta=(), floor=None):
    return {"schema": "themis.run_report/1", "mode": "bench",
            "info": {"bench": "synthetic"}, "numbers": numbers,
            "gates": {"delta": list(delta), "floor": floor or {}}}


class BenchTrendTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.prev = os.path.join(self.tmp.name, "prev")
        self.curr = os.path.join(self.tmp.name, "curr")
        os.mkdir(self.prev)
        os.mkdir(self.curr)

    def tearDown(self):
        self.tmp.cleanup()

    def write_prev(self, rows):
        with open(os.path.join(self.prev, "history.csv"), "w",
                  newline="") as f:
            w = csv.writer(f)
            w.writerow(["run", "metric", "value"])
            w.writerows(rows)

    def write_curr(self, name, doc):
        with open(os.path.join(self.curr, name), "w") as f:
            f.write(doc if isinstance(doc, str) else json.dumps(doc))

    def run_gate(self, prev=None):
        proc = subprocess.run(
            [sys.executable, SCRIPT, "--prev", prev or self.prev,
             "--curr", self.curr, "--run-label", "now"],
            capture_output=True, text=True)
        return proc.returncode, proc.stdout + proc.stderr

    def history(self):
        with open(os.path.join(self.curr, "history.csv"),
                  newline="") as f:
            return [(r["run"], r["metric"], float(r["value"]))
                    for r in csv.DictReader(f)]

    def test_drop_beyond_budget_fails(self):
        self.write_prev([("old", "x/per_sec", 100.0)])
        self.write_curr("BENCH_x.json",
                        report({"x/per_sec": 80.0}, delta=["x/per_sec"]))
        code, out = self.run_gate()
        self.assertEqual(code, 1, out)
        self.assertIn("x/per_sec: 100.0 -> 80.0 (-20.0%) REGRESSION", out)

    def test_drop_within_budget_passes(self):
        self.write_prev([("old", "x/per_sec", 100.0)])
        self.write_curr("BENCH_x.json",
                        report({"x/per_sec": 90.0}, delta=["x/per_sec"]))
        code, out = self.run_gate()
        self.assertEqual(code, 0, out)

    def test_value_under_floor_fails(self):
        self.write_curr("BENCH_x.json",
                        report({"x/speedup": 4.0},
                               floor={"x/speedup": 5.0}))
        code, out = self.run_gate()
        self.assertEqual(code, 1, out)
        self.assertIn("x/speedup: 4 (floor 5) UNDER FLOOR", out)

    def test_missing_floor_label_fails(self):
        self.write_curr("BENCH_x.json",
                        report({}, floor={"x/speedup": 5.0}))
        code, out = self.run_gate()
        self.assertEqual(code, 1, out)

    def test_new_label_historized_not_diffed(self):
        self.write_prev([("old", "x/per_sec", 100.0)])
        self.write_curr("BENCH_x.json",
                        report({"x/per_sec": 100.0, "x/fresh": 1.0},
                               delta=["x/per_sec", "x/fresh"]))
        code, out = self.run_gate()
        self.assertEqual(code, 0, out)
        self.assertIn("x/fresh: 1.0 (new, not diffed)", out)
        self.assertIn(("now", "x/fresh", 1.0), self.history())
        self.assertIn(("old", "x/per_sec", 100.0), self.history())

    def test_missing_prev_skips_diff_and_starts_history(self):
        self.write_curr("BENCH_x.json",
                        report({"x/per_sec": 1.0}, delta=["x/per_sec"]))
        code, out = self.run_gate(
            prev=os.path.join(self.tmp.name, "absent"))
        self.assertEqual(code, 0, out)
        self.assertIn("delta gates skipped", out)
        self.assertNotIn("->", out.split("bench history")[0])
        self.assertEqual(self.history(), [("now", "x/per_sec", 1.0)])

    def test_malformed_and_foreign_files_skipped(self):
        self.write_curr("BENCH_bad.json", "{not json")
        self.write_curr("BENCH_old.json", {"bench": "core_microbench"})
        self.write_curr("BENCH_x.json", report({"x/n": 2.0}))
        code, out = self.run_gate()
        self.assertEqual(code, 0, out)
        self.assertIn("BENCH_bad.json", out)
        self.assertIn("BENCH_old.json is not a themis.run_report/1; "
                      "skipping", out)
        self.assertEqual(self.history(), [("now", "x/n", 2.0)])

    def test_diffs_against_most_recent_prev_run(self):
        self.write_prev([("older", "x/per_sec", 1000.0),
                         ("newer", "x/per_sec", 100.0)])
        self.write_curr("BENCH_x.json",
                        report({"x/per_sec": 95.0}, delta=["x/per_sec"]))
        code, out = self.run_gate()
        self.assertEqual(code, 0, out)
        self.assertIn("x/per_sec: 100.0 -> 95.0", out)

    def test_head_history_diffs_every_head_gated_label(self):
        with open(os.path.join(HERE, "head_history.csv")) as f:
            head = {r["metric"]: float(r["value"])
                    for r in csv.DictReader(f)}
        with open(os.path.join(self.prev, "history.csv"), "w") as f:
            with open(os.path.join(HERE, "head_history.csv")) as src:
                f.write(src.read())
        self.write_curr("BENCH_all.json",
                        report({k: head[k] for k in HEAD_GATED},
                               delta=HEAD_GATED))
        code, out = self.run_gate()
        self.assertEqual(code, 0, out)
        for label in HEAD_GATED:
            self.assertIn(f"{label}: {head[label]:.1f} -> "
                          f"{head[label]:.1f} (+0.0%) ok", out)
        # Scaled by 0.8, every one of them fails the 15% budget.
        self.write_curr("BENCH_all.json",
                        report({k: 0.8 * head[k] for k in HEAD_GATED},
                               delta=HEAD_GATED))
        code, out = self.run_gate()
        self.assertEqual(code, 1, out)
        self.assertEqual(out.count("REGRESSION"), len(HEAD_GATED))


def main():
    global SCRIPT
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    SCRIPT = os.path.abspath(sys.argv[1])
    suite = unittest.defaultTestLoader.loadTestsFromTestCase(
        BenchTrendTest)
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    return 0 if result.wasSuccessful() else 1


if __name__ == "__main__":
    sys.exit(main())

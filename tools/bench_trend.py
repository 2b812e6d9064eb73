#!/usr/bin/env python3
"""Bench trend gate and cross-PR history table.

Every gated bench writes bench_results/BENCH_<name>.json as a
themis.run_report/1 in mode "bench" (README *Bench output*):

  "numbers": {label: value}     every scalar, keyed by its trend label
  "gates":   {"delta": [label, ...], "floor": {label: minimum}}

For every such file in --curr the script
  - fails (exit 1) when a "floor" label is missing or under its minimum;
  - diffs each "delta" label (higher is better) against its value in
    the most recent run of --prev/history.csv, and fails when it
    dropped by more than --max-regression; a label that run lacks is
    reported as new;
  - prints the ungated numbers on one line.

Every number is then appended to --curr/history.csv (long format:
run,metric,value), carried forward from --prev/history.csv, and the
last few runs are printed as a pivoted table so drift across PRs, not
just against the previous run, shows in the CI log.

Wall-clock noise on shared CI runners is real, so the default budget
is generous (15%): the gate catches order-of-magnitude regressions
such as an accidentally disabled cache, not 2% wiggle. A file that is
not valid JSON or not a themis.run_report/1 is reported and skipped.
Without a previous history the diff is skipped and the history starts
fresh.

Usage:
  bench_trend.py --prev DIR --curr DIR [--max-regression 0.15]
                 [--run-label LABEL]
"""

import argparse
import csv
import glob
import json
import os
import sys

SCHEMA = "themis.run_report/1"
HISTORY_FILE = "history.csv"
HISTORY_MAX_RUNS = 50
HISTORY_TABLE_RUNS = 8


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def read_report(path):
    """(numbers, delta labels, floors) of the report at path, or None
    (with a note) when the file is unreadable or another schema."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"note: cannot read {path} ({e}); skipping")
        return None
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        print(f"note: {path} is not a {SCHEMA}; skipping")
        return None
    numbers = doc.get("numbers")
    numbers = {k: v for k, v in numbers.items() if is_number(v)} \
        if isinstance(numbers, dict) else {}
    gates = doc.get("gates") if isinstance(doc.get("gates"), dict) else {}
    delta = gates.get("delta")
    delta = [k for k in delta if isinstance(k, str)] \
        if isinstance(delta, list) else []
    floors = gates.get("floor")
    floors = {k: v for k, v in floors.items() if is_number(v)} \
        if isinstance(floors, dict) else {}
    return numbers, delta, floors


def load_history(path):
    """[(run, metric, value)] rows of a history table, or None when
    there is none."""
    rows = []
    try:
        with open(path, newline="") as f:
            for rec in csv.DictReader(f):
                try:
                    rows.append((rec["run"], rec["metric"],
                                 float(rec["value"])))
                except (KeyError, TypeError, ValueError):
                    continue
    except FileNotFoundError:
        return None
    return rows


def last_run(rows):
    """{metric: value} of the most recent run in rows."""
    if not rows:
        return {}
    run = rows[-1][0]
    return {metric: value for r, metric, value in rows if r == run}


def gate(name, numbers, delta, floors, prev, budget):
    """Print one report's gates and ungated numbers; return its
    failure lines."""
    failures = []
    for label in delta:
        c = numbers.get(label)
        p = prev.get(label) if prev is not None else None
        if c is None:
            failures.append(f"{label}: delta-gated but not reported")
        elif prev is None:
            continue
        elif p is None:
            print(f"{name} {label}: {c:.1f} (new, not diffed)")
        elif p > 0:
            change = (c - p) / p
            marker = "ok"
            if change < -budget:
                marker = "REGRESSION"
                failures.append(f"{label}: {p:.1f} -> {c:.1f} "
                                f"({change:+.1%})")
            print(f"{name} {label}: {p:.1f} -> {c:.1f} "
                  f"({change:+.1%}) {marker}")
    for label, minimum in sorted(floors.items()):
        v = numbers.get(label)
        ok = v is not None and v >= minimum
        shown = "missing" if v is None else f"{v:.4g}"
        print(f"{name} {label}: {shown} (floor {minimum:g}) "
              f"{'ok' if ok else 'UNDER FLOOR'}")
        if not ok:
            failures.append(f"{label}: {shown} < floor {minimum:g}")
    rest = [k for k in sorted(numbers) if k not in delta and
            k not in floors]
    if rest:
        print(f"{name}: " + ", ".join(f"{k}={numbers[k]:.4g}"
                                      for k in rest))
    return failures


def update_history(rows, curr_dir, run_label, metrics):
    """Carry the history forward, append this run, print the table."""
    if not os.path.isdir(curr_dir):
        print(f"note: {curr_dir} does not exist; skipping history")
        return
    # Re-runs with the same label (e.g. a rebased PR) replace their
    # previous entries instead of duplicating the run column.
    rows = [r for r in rows if r[0] != run_label]
    rows += [(run_label, metric, value)
             for metric, value in sorted(metrics.items())]

    run_order = []
    for run, _, _ in rows:
        if run not in run_order:
            run_order.append(run)
    if len(run_order) > HISTORY_MAX_RUNS:
        keep = set(run_order[-HISTORY_MAX_RUNS:])
        rows = [r for r in rows if r[0] in keep]
        run_order = run_order[-HISTORY_MAX_RUNS:]

    out_path = os.path.join(curr_dir, HISTORY_FILE)
    with open(out_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["run", "metric", "value"])
        w.writerows(rows)

    shown = run_order[-HISTORY_TABLE_RUNS:]
    values = {(run, metric): value for run, metric, value in rows}
    metrics_seen = sorted({m for _, m, _ in rows})
    print(f"\nbench history ({len(run_order)} run(s) tracked, "
          f"showing last {len(shown)}) -> {out_path}")
    width = max((len(m) for m in metrics_seen), default=6)
    header = "metric".ljust(width) + "".join(
        f"  {run:>12.12}" for run in shown)
    print(header)
    print("-" * len(header))
    for metric in metrics_seen:
        cells = []
        for run in shown:
            v = values.get((run, metric))
            cells.append(f"  {v:>12.1f}" if v is not None
                         else f"  {'-':>12}")
        print(metric.ljust(width) + "".join(cells))


def default_run_label():
    for env in ("GITHUB_RUN_NUMBER", "GITHUB_SHA"):
        v = os.environ.get(env)
        if v:
            return f"run-{v[:10]}" if env == "GITHUB_SHA" else f"run-{v}"
    return "local"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--prev", required=True,
                    help="directory with the previous run's history.csv")
    ap.add_argument("--curr", required=True,
                    help="directory with this run's JSONs")
    ap.add_argument("--max-regression", type=float, default=0.15,
                    help="allowed fractional slowdown (default 0.15)")
    ap.add_argument("--run-label", default=None,
                    help="history row label (default: CI run number, "
                         "short SHA, or 'local')")
    args = ap.parse_args()

    history = load_history(os.path.join(args.prev, HISTORY_FILE))
    prev = last_run(history) if history is not None else None
    if prev is None:
        print(f"no {HISTORY_FILE} in {args.prev} (first run?); "
              f"delta gates skipped")

    failures, metrics = [], {}
    for path in sorted(glob.glob(os.path.join(args.curr, "BENCH_*.json"))):
        report = read_report(path)
        if report is None:
            continue
        name = os.path.basename(path).removesuffix(".json")
        failures += gate(name, *report, prev, args.max_regression)
        metrics.update(report[0])
    if prev:
        gone = sorted(prev.keys() - metrics.keys())
        if gone:
            print(f"in the previous run, missing now: {', '.join(gone)}")

    update_history(history or [], args.curr,
                   args.run_label or default_run_label(), metrics)

    if failures:
        print(f"\n{len(failures)} gate(s) failed (delta budget "
              f"{args.max_regression:.0%}):")
        for line in failures:
            print(f"  {line}")
        return 1
    print("\nbench trend gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

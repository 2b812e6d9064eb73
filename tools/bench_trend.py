#!/usr/bin/env python3
"""Per-PR bench trend gate and cross-PR history table.

Diffs the freshly produced bench_results/BENCH_*.json against the
previous CI run's uploaded artifacts and fails (exit 1) when a tracked
throughput metric regressed by more than the allowed fraction.

Tracked metrics (higher is better):
  BENCH_core.json  -> events_per_sec of the GPS channel rows (keyed by
                      transfers) and the event_queue row
  BENCH_e2e.json   -> cells_per_sec of the Fig 12 grid sweep (label
                      e2e/optimized; two-mode files from before the
                      baseline pass was dropped are read too)
  BENCH_convergence.json -> cells_per_sec of the 20-iteration fig12
                      convergence grid (the replay speedup — a ratio
                      of two wall clocks — is historized and printed
                      but too noisy to gate)
  BENCH_priority.json -> reported only (simulated-time study; its own
                      binary asserts the semantic invariants)
  BENCH_cluster.json -> cells_per_sec of the multi-job contention
                      grid; the deadline hit rates and offset-search
                      gain are historized/reported but not gated
                      (simulated-time metrics asserted in-binary).
                      The period-k cycle-replay speedup is historized
                      AND gated against its absolute floor (>=5x, the
                      same floor the bench asserts in-binary) rather
                      than against the previous run — a ratio of two
                      wall clocks is too noisy for a 15% delta gate,
                      but an order-of-magnitude collapse below the
                      floor must fail CI even if the bench binary's
                      own assert was skipped
  BENCH_sweep_service.json -> cells_per_sec of the 1-process sharded
                      sweep grid; the 2-shard scaling ratio and the
                      memoized warm-query speedup are ratios of small
                      wall clocks — asserted in-binary against their
                      floors (>=1.7x and >=10x) and historized here,
                      but not gated
  BENCH_fault.json -> events_per_sec of the fault-resilience scenario
                      grid; conservation and bit-identical replay
                      invariants are asserted in-binary and reported
                      here informationally
  BENCH_adaptation.json -> events_per_sec of the adaptive re-planning
                      scenario grid; the adaptive-vs-static win and
                      fault-free bit-identity are asserted in-binary
                      against their floors and historized here
  BENCH_telemetry.json -> events_per_sec of the bare (telemetry-off)
                      cells; the armed/bare overhead ratio is a ratio
                      of two wall clocks asserted in-binary against
                      its floor (>=0.90, i.e. <=10% overhead) and
                      historized here so instrumentation creep across
                      PRs stays visible, but not diff-gated

Beyond the previous-run diff, the script maintains a per-PR history
table: bench_results/history.csv (long format: run,metric,value). The
previous run's history is carried forward from the --prev artifact,
this run's metrics are appended, and the last few runs are printed as
a pivoted table so drift across PRs — not just vs the immediately
preceding run — is visible in CI logs.

Wall-clock noise on shared CI runners is real, so the default budget
is generous (15%); the gate exists to catch order-of-magnitude
regressions like an accidentally disabled cache, not 2% wiggle.

Usage:
  bench_trend.py --prev DIR --curr DIR [--max-regression 0.15]
                 [--run-label LABEL]

Missing files (first run, renamed artifacts) are reported and
skipped — the gate only compares metrics present on both sides; the
history starts fresh when no previous table exists.
"""

import argparse
import csv
import json
import os
import sys

HISTORY_FILE = "history.csv"
HISTORY_MAX_RUNS = 50
HISTORY_TABLE_RUNS = 8


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        return None
    except OSError as e:
        print(f"note: cannot read {path} ({e}); skipping")
        return None
    except json.JSONDecodeError as e:
        print(f"note: {path} is not valid JSON ({e}); skipping")
        return None
    if not isinstance(doc, dict):
        print(f"note: {path} is not a JSON object "
              f"(got {type(doc).__name__}); skipping")
        return None
    return doc


def core_metrics(doc):
    """{label: events_per_sec} for the GPS and event-queue rows of
    BENCH_core, and {label: ops_per_sec} for its dimension-engine rows
    (files from before the seed-channel rows were dropped also carry
    "legacy" rows, which are skipped)."""
    out = {}
    for row in doc.get("channel", []):
        if row.get("impl") == "gps":
            key = f"channel/gps/{row.get('transfers')}"
            out[key] = row.get("events_per_sec")
    for row in doc.get("event_queue", []):
        key = f"event_queue/{row.get('transfers')}"
        out[key] = row.get("events_per_sec")
    for row in doc.get("engine", []):
        key = f"engine/{row.get('impl')}/{row.get('ops')}"
        out[key] = row.get("ops_per_sec")
    return {k: v for k, v in out.items() if isinstance(v, (int, float))}


def e2e_metrics(doc):
    """{label: cells_per_sec} for the grid sweep of BENCH_e2e. The
    label predates the single-mode file: it named the "optimized" pass
    of the two-mode file, which timed the same grid with the same plan
    cache, so files of either shape diff against each other."""
    out = {"e2e/optimized": doc.get("cells_per_sec")}
    for mode in doc.get("modes", []):
        if mode.get("mode") == "optimized":
            out["e2e/optimized"] = mode.get("cells_per_sec")
    return {k: v for k, v in out.items() if isinstance(v, (int, float))}


def convergence_metrics(doc):
    """Convergence-grid throughput (absolute, like the other gated
    metrics). The replay *speedup* is a ratio of two wall clocks with
    a tens-of-ms denominator — far too noisy for a 15% gate — so it is
    reported and historized but never gated."""
    out = {}
    grid = doc.get("grid", {})
    out["convergence/grid_cells_per_sec"] = grid.get("cells_per_sec")
    return {k: v for k, v in out.items() if isinstance(v, (int, float))}


def convergence_info_metrics(doc):
    """History-only convergence metrics (see convergence_metrics)."""
    out = {}
    t1t = doc.get("transformer_1t", {})
    out["convergence/replay_speedup"] = t1t.get("speedup")
    return {k: v for k, v in out.items() if isinstance(v, (int, float))}


def cluster_metrics(doc):
    """{label: cells_per_sec} of the multi-job contention grid."""
    out = {"cluster/cells_per_sec": doc.get("cells_per_sec")}
    return {k: v for k, v in out.items() if isinstance(v, (int, float))}


def cluster_info_metrics(doc):
    """History-only cluster metrics: simulated-time outcomes whose
    invariants (improvement, conservation) the bench asserts
    in-binary; historized so drift across PRs stays visible."""
    out = {}
    deadline = doc.get("deadline", {})
    out["cluster/deadline_hit_rate_tiered"] = deadline.get(
        "tiered_hit_rate")
    offset = doc.get("offset_search", {})
    out["cluster/offset_search_gain"] = offset.get("gain")
    cycle = doc.get("cycle_replay", {})
    out["cluster/replay_speedup"] = cycle.get("speedup")
    out["cluster/replay_rounds"] = cycle.get("rounds_replayed")
    return {k: v for k, v in out.items() if isinstance(v, (int, float))}


# Absolute floor for the cycle-replay speedup (mirrors the in-binary
# assert in bench/multi_job_contention.cpp; see module docstring).
CYCLE_REPLAY_SPEEDUP_FLOOR = 5.0


def cluster_cycle_gate(doc):
    """[(key, value, floor)] floor violations of the cycle-replay
    experiment, or [] when absent (older artifacts) or healthy."""
    if doc is None:
        return []
    cycle = doc.get("cycle_replay")
    if not isinstance(cycle, dict):
        return []
    failures = []
    speedup = cycle.get("speedup")
    if isinstance(speedup, (int, float)) and \
            speedup < CYCLE_REPLAY_SPEEDUP_FLOOR:
        failures.append(("cluster/replay_speedup", speedup,
                         CYCLE_REPLAY_SPEEDUP_FLOOR))
    if cycle.get("bit_identical") is False:
        failures.append(("cluster/replay_bit_identical", 0.0, 1.0))
    return failures


def sweep_metrics(doc):
    """{label: cells_per_sec} of the sharded sweep-service grid."""
    out = {"sweep_service/cells_per_sec": doc.get("cells_per_sec")}
    return {k: v for k, v in out.items() if isinstance(v, (int, float))}


def fault_metrics(doc):
    """{label: events_per_sec} of the fault-resilience grid."""
    out = {"fault/events_per_sec": doc.get("events_per_sec")}
    return {k: v for k, v in out.items() if isinstance(v, (int, float))}


def adaptation_metrics(doc):
    """{label: events_per_sec} of the adaptive scenario grid. The
    adaptive-vs-static win is a ratio of simulated makespans asserted
    against its floor in-binary; historized, not gated."""
    out = {"adaptation/events_per_sec": doc.get("events_per_sec")}
    return {k: v for k, v in out.items() if isinstance(v, (int, float))}


def adaptation_info_metrics(doc):
    """History-only adaptation metrics (see adaptation_metrics)."""
    out = {"adaptation/win": doc.get("win")}
    return {k: v for k, v in out.items() if isinstance(v, (int, float))}


def telemetry_metrics(doc):
    """{label: events_per_sec} of the telemetry-off (bare) cells of
    the overhead bench — the same simulator fast path the other
    benches gate, so it diffs like any throughput metric."""
    out = {"telemetry/events_per_sec_bare": doc.get(
        "events_per_sec_bare")}
    return {k: v for k, v in out.items() if isinstance(v, (int, float))}


def telemetry_info_metrics(doc):
    """History-only telemetry metrics: the armed/bare overhead ratio
    is a ratio of two wall clocks asserted in-binary against its
    floor; historized so instrumentation creep stays visible."""
    out = {"telemetry/overhead_ratio": doc.get("overhead_ratio")}
    return {k: v for k, v in out.items() if isinstance(v, (int, float))}


def sweep_info_metrics(doc):
    """History-only sweep-service metrics: both are ratios of small
    wall clocks (shard scaling, warm-query speedup) whose floors the
    bench asserts in-binary; historized so drift stays visible."""
    out = {}
    out["sweep_service/shard_scaling"] = doc.get("shard_scaling")
    query = doc.get("query", {})
    out["sweep_service/warm_speedup"] = query.get("warm_speedup")
    return {k: v for k, v in out.items() if isinstance(v, (int, float))}


# Single source of truth for what the gate diffs AND what the history
# table records — add new BENCH files here and both stay in sync.
TRACKED = (
    ("BENCH_core.json", core_metrics),
    ("BENCH_e2e.json", e2e_metrics),
    ("BENCH_convergence.json", convergence_metrics),
    ("BENCH_cluster.json", cluster_metrics),
    ("BENCH_sweep_service.json", sweep_metrics),
    ("BENCH_fault.json", fault_metrics),
    ("BENCH_adaptation.json", adaptation_metrics),
    ("BENCH_telemetry.json", telemetry_metrics),
)

# Historized but never gated (too noisy or purely informational).
TRACKED_INFO = (
    ("BENCH_convergence.json", convergence_info_metrics),
    ("BENCH_cluster.json", cluster_info_metrics),
    ("BENCH_sweep_service.json", sweep_info_metrics),
    ("BENCH_adaptation.json", adaptation_info_metrics),
    ("BENCH_telemetry.json", telemetry_info_metrics),
)


def compare(name, prev_doc, curr_doc, extract, budget):
    if curr_doc is None:
        print(f"{name}: no current result; skipping")
        return []
    if prev_doc is None:
        print(f"{name}: no previous artifact (first run?); skipping")
        return []
    prev, curr = extract(prev_doc), extract(curr_doc)
    regressions = []
    for key in sorted(prev.keys() & curr.keys()):
        p, c = prev[key], curr[key]
        if p <= 0:
            continue
        delta = (c - p) / p
        marker = "ok"
        if delta < -budget:
            marker = "REGRESSION"
            regressions.append((key, p, c, delta))
        print(f"{name} {key}: {p:.1f} -> {c:.1f} "
              f"({delta:+.1%}) {marker}")
    for key in sorted(prev.keys() - curr.keys()):
        print(f"{name} {key}: present previously, missing now")
    return regressions


def current_metrics(curr_dir):
    """Every tracked metric of this run, flattened to {name: value}."""
    out = {}
    for fname, extract in TRACKED + TRACKED_INFO:
        doc = load(os.path.join(curr_dir, fname))
        if doc is not None:
            out.update(extract(doc))
    return out


def load_history(path):
    """[(run, metric, value)] rows of an existing history table."""
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
        pass
    return rows


def update_history(prev_dir, curr_dir, run_label, metrics):
    """Carry the history forward, append this run, print the table."""
    if not os.path.isdir(curr_dir):
        print(f"note: {curr_dir} does not exist; skipping history")
        return
    rows = load_history(os.path.join(prev_dir, HISTORY_FILE))
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
                    help="directory with the previous run's JSONs")
    ap.add_argument("--curr", required=True,
                    help="directory with this run's JSONs")
    ap.add_argument("--max-regression", type=float, default=0.15,
                    help="allowed fractional slowdown (default 0.15)")
    ap.add_argument("--run-label", default=None,
                    help="history row label (default: CI run number, "
                         "short SHA, or 'local')")
    args = ap.parse_args()

    regressions = []
    for fname, extract in TRACKED:
        regressions += compare(
            fname.removesuffix(".json"),
            load(os.path.join(args.prev, fname)),
            load(os.path.join(args.curr, fname)),
            extract, args.max_regression)

    prio = load(os.path.join(args.curr, "BENCH_priority.json"))
    if prio is not None:
        print(f"BENCH_priority: urgent-tenant max gain "
              f"{prio.get('hi_priority_max_gain', '?')}x, "
              f"bytes_conserved={prio.get('bytes_conserved', '?')} "
              f"(informational)")
    clus = load(os.path.join(args.curr, "BENCH_cluster.json"))
    floor_failures = cluster_cycle_gate(clus)
    if clus is not None:
        deadline = clus.get("deadline", {})
        offset = clus.get("offset_search", {})
        cycle = clus.get("cycle_replay", {})
        print(f"BENCH_cluster: per-job bytes conserved="
              f"{clus.get('conservation', {}).get('bytes_conserved_per_job', '?')}, "
              f"deadline hit rate "
              f"{deadline.get('uniform_hit_rate', '?')} -> "
              f"{deadline.get('tiered_hit_rate', '?')}, "
              f"offset-search gain {offset.get('gain', '?')}x "
              f"(informational)")
        if cycle:
            print(f"BENCH_cluster cycle replay: "
                  f"{cycle.get('rounds_simulated', '?')} simulated + "
                  f"{cycle.get('rounds_replayed', '?')} replayed of "
                  f"{cycle.get('rounds', '?')} rounds (cycle "
                  f"{cycle.get('cycle_length', '?')}), speedup "
                  f"{cycle.get('speedup', '?')}x "
                  f"(floor {CYCLE_REPLAY_SPEEDUP_FLOOR}x, gated), "
                  f"bit_identical={cycle.get('bit_identical', '?')}")
    sweep = load(os.path.join(args.curr, "BENCH_sweep_service.json"))
    if sweep is not None:
        query = sweep.get("query", {})
        print(f"BENCH_sweep_service: 2-shard scaling "
              f"{sweep.get('shard_scaling', '?')}x, "
              f"merge_bit_identical="
              f"{sweep.get('merge_bit_identical', '?')}, "
              f"resume_bit_identical="
              f"{sweep.get('resume_bit_identical', '?')}, "
              f"warm-query speedup {query.get('warm_speedup', '?')}x "
              f"(floors asserted in-binary)")
    fault = load(os.path.join(args.curr, "BENCH_fault.json"))
    if fault is not None:
        print(f"BENCH_fault: bytes_conserved="
              f"{fault.get('bytes_conserved', '?')}, "
              f"replay_bit_identical="
              f"{fault.get('replay_bit_identical', '?')}, "
              f"faultfree_bit_identical="
              f"{fault.get('faultfree_bit_identical', '?')} "
              f"(asserted in-binary)")
    adapt = load(os.path.join(args.curr, "BENCH_adaptation.json"))
    if adapt is not None:
        print(f"BENCH_adaptation: adaptive win "
              f"{adapt.get('win', '?')}x over the stale static plan "
              f"(floor {adapt.get('adaptive_win_floor', '?')}x), "
              f"faultfree_bit_identical="
              f"{adapt.get('faultfree_bit_identical', '?')}, "
              f"bytes_conserved="
              f"{adapt.get('bytes_conserved', '?')} "
              f"(asserted in-binary)")
    telem = load(os.path.join(args.curr, "BENCH_telemetry.json"))
    if telem is not None:
        print(f"BENCH_telemetry: overhead ratio "
              f"{telem.get('overhead_ratio', '?')} "
              f"(floor {telem.get('overhead_floor', '?')}), "
              f"bit_identical={telem.get('bit_identical', '?')} "
              f"(asserted in-binary)")
    conv = load(os.path.join(args.curr, "BENCH_convergence.json"))
    if conv is not None:
        exact = conv.get("exactness", {})
        print(f"BENCH_convergence: exactness passed="
              f"{exact.get('passed', '?')} "
              f"(steady at {exact.get('steady_at', '?')}), "
              f"replay speedup "
              f"{conv.get('transformer_1t', {}).get('speedup', '?')}x")

    update_history(args.prev, args.curr,
                   args.run_label or default_run_label(),
                   current_metrics(args.curr))

    if floor_failures:
        print(f"\n{len(floor_failures)} metric(s) under their "
              f"absolute floor:")
        for key, value, floor in floor_failures:
            print(f"  {key}: {value:.2f} < floor {floor:.2f}")
    if regressions:
        print(f"\n{len(regressions)} metric(s) regressed beyond "
              f"{args.max_regression:.0%}:")
        for key, p, c, delta in regressions:
            print(f"  {key}: {p:.1f} -> {c:.1f} ({delta:+.1%})")
    if regressions or floor_failures:
        return 1
    print("\nbench trend gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

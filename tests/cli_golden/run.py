#!/usr/bin/env python3
"""Golden-output test for themis_cli.

Runs every case below in a fresh temporary directory and compares the
transcript (exit status, stdout, stderr, --report JSON and canonical
--merge bytes) against tests/cli_golden/expected/<case>.out after
masking the fields that legitimately vary between runs: wall-clock
timings, THEMIS_FATAL source locations, and (for multi-threaded grid
and serve runs) plan-cache hit/miss counts.

    run.py THEMIS_CLI                 compare every case
    run.py THEMIS_CLI --update        rewrite the expectations
    run.py THEMIS_CLI NAME...         run only the named cases
"""

import difflib
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected")

GRID = "'2D-SW_SW;3D-SW_SW_SW_homo'"
GRID_SMOKE = f"--grid {GRID} --size 1e8 --sweep 8,32"
CLUSTER_MIX = "'train:DLRM;infer:3.2e7,period=1e6,deadline=5e5,requests=6'"
CYCLE_MIX = "'train:DLRM;infer:1.6e7,period=2e5;infer:3.2e7,period=3e5'"
SERVE_SMOKE = (
    "topo=2D-SW_SW sched=scf chunks=8 size=1e8\n"
    "topo=3D-SW_SW_SW_homo sched=base chunks=16 size=2e8\n"
    "topo=2D-SW_SW sched=scf chunks=8 size=1e8\n"
)


def run(args, stdin=None):
    return ("run", args, stdin)


def show(path):
    return ("show", path)


def cmp(a, b):
    return ("cmp", a, b)


# name -> (steps, mask plan-cache hit/miss counts)
CASES = {
    # --- smokes from the CI workflow, verbatim -------------------------
    "ci_grid_sweep": (
        [run(f"{GRID_SMOKE} --jobs 2")], True),
    "ci_shard_merge": ([
        run(f"{GRID_SMOKE} --results ci_one.jsonl"),
        run(f"{GRID_SMOKE} --shard 0/2 --results ci_s0.jsonl"),
        run(f"{GRID_SMOKE} --shard 1/2 --results ci_s1.jsonl"),
        run("--merge ci_merged.jsonl,ci_s0.jsonl,ci_s1.jsonl"),
        run("--merge ci_canon.jsonl,ci_one.jsonl"),
        cmp("ci_merged.jsonl", "ci_canon.jsonl"),
        show("ci_canon.jsonl"),
    ], True),
    "ci_checkpoint_resume": ([
        run(f"{GRID_SMOKE} --shard 0/2 --results ci_s0.jsonl"),
        run(f"{GRID_SMOKE} --shard 0/2 --results ci_resume.jsonl "
            "--max-cells 1"),
        run(f"{GRID_SMOKE} --shard 0/2 --results ci_resume.jsonl"),
        run("--merge ci_resume_c.jsonl,ci_resume.jsonl"),
        run("--merge ci_s0_c.jsonl,ci_s0.jsonl"),
        cmp("ci_resume_c.jsonl", "ci_s0_c.jsonl"),
    ], True),
    "ci_serve": ([
        run("--serve --results ci_serve.jsonl", SERVE_SMOKE),
        run(f"{GRID_SMOKE} --results ci_one.jsonl"),
        run("--serve --results ci_one.jsonl", SERVE_SMOKE),
    ], True),
    "ci_priority": ([run("--priority 4 --size 2e8")], False),
    "ci_convergence": ([run("--iterations 6 --model DLRM --exact")], False),
    "ci_cluster": ([run(
        f"--iterations 3 --tier-ratio 8 --topo 2D-SW_SW --jobs {CLUSTER_MIX}"
    )], False),
    "ci_cycle_replay": ([run(
        "--iterations 30 --tier-ratio 8 --topo 2D-SW_SW --cycle-limit 12 "
        f"--jobs {CYCLE_MIX}")], False),
    "ci_faults": ([run(
        "--topo 2D-SW_SW --size 2e8 --faults "
        "'degrade@2e5+4e5:dim=0,factor=0.5;flap@1e5+5e4:dim=1'")], False),
    "ci_adapt": ([run(
        "--topo 2D-SW_SW --iterations 6 --model DLRM "
        "--faults 'straggler@1e5:dim=0,factor=0.25' --adapt")], False),
    "ci_telemetry": ([
        run(f"--topo 2D-SW_SW --jobs {CLUSTER_MIX} "
            "--faults 'straggler@1e5:dim=0,factor=0.5' --adapt "
            "--report report.json --trace trace.json"),
        show("report.json"),
    ], False),
    # --- one case per mode --------------------------------------------
    "single": ([run("--size 1e9 --chunks 64")], False),
    "single_report": ([
        run("--topo 2D-SW_SW --type rs --size 5e8 --chunks 16 "
            "--sched fifo --enforce --report r.json"),
        show("r.json"),
    ], False),
    "single_validate": ([
        run("--validate --topo 2D-SW_SW --size 2e8 --chunks 16")], False),
    "merge_report": ([
        run(f"{GRID_SMOKE} --jobs 1 --results a.jsonl"),
        run("--merge m.jsonl,a.jsonl --report r.json"),
        show("r.json"),
    ], False),
    "serve_report": ([
        run("--serve --jobs 1 --chunks 16 --size 5e7 --report r.json",
            "topo=2D-SW_SW\n"
            "topo=2D-SW_SW sched=fifo type=ag\n"
            "topo=2D-SW_SW\n"
            "\n"
            "topo=2D-SW_SW model=DLRM iters=4\n"
            "topo=SW:4:100:500,SW:8:50:500 sched=base size=2e7\n"
            "topo=2D-SW_SW\n"),
        show("r.json"),
    ], False),
    "cluster_free_report": ([
        run(f"--topo 2D-SW_SW --tier-ratio 2 --chunks 16 "
            f"--jobs {CLUSTER_MIX} --report r.json"),
        show("r.json"),
    ], False),
    "cluster_lockstep_report": ([
        run(f"--topo 2D-SW_SW --iterations 12 --exact --jobs "
            "'train:DLRM;train:DLRM,tier=urgent' --report r.json"),
        show("r.json"),
    ], False),
    "cluster_offset_search": ([
        run("--topo 2D-SW_SW --jobs 'train:DLRM;train:DLRM' "
            "--offset-search")], False),
    "iterations_report": ([
        run("--topo 2D-SW_SW --iterations 20 --model GNMT --sched fifo "
            "--cycle-limit 4 --report r.json"),
        show("r.json"),
    ], False),
    "iterations_no_replay": ([
        run("--topo 2D-SW_SW --iterations 4 --model DLRM --no-replay")],
        False),
    "priority_report": ([
        run("--topo 2D-SW_SW --priority 8 --size 1e8 --report r.json"),
        show("r.json"),
    ], False),
    "priority_uniform": ([run("--topo 2D-SW_SW --priority 1 --size 1e8")],
                         False),
    "grid_report": ([
        run("--grid '2D-SW_SW;SW:4:100:500,SW:8:50:500' --type ag "
            "--size 5e7 --chunks 8 --jobs 1 --report r.json"),
        show("r.json"),
    ], False),
    "grid_sweep_topo": ([
        run("--topo 2D-SW_SW --sweep 4,16 --size 1e8 --jobs 1")], False),
    "grid_jobs_mix": ([
        run("--grid 2D-SW_SW --chunks 16 --tier-ratio 2 --jobs "
            "'train:DLRM|train:DLRM;infer:3.2e7,period=1e6,requests=4' "
            "--results g.jsonl"),
        run("--merge c.jsonl,g.jsonl"),
        show("c.jsonl"),
    ], True),
    # --- grammar diagnostics ------------------------------------------
    "err_grid_empty_entry": ([run("--grid '2D-SW_SW;;3D-SW_SW_SW_homo'")],
                             False),
    "err_grid_bad_entry": ([run("--grid '2D-SW_SW;NOPE'")], False),
    "err_jobs_unknown_key": ([run("--jobs 'train:DLRM,speed=2'")], False),
    "err_jobs_infer_no_period": ([run("--jobs 'infer:3.2e7'")], False),
    "err_jobs_empty_mix": ([run("--grid 2D-SW_SW --jobs 'train:DLRM||'")],
                           False),
    "err_merge_one_part": ([run("--merge out.jsonl")], False),
    "err_shard_out_of_range": ([
        run("--grid 2D-SW_SW --shard 2/2 --jobs 1")], False),
    "err_serve_lines": ([
        run("--serve --jobs 1",
            "topo=2D-SW_SW bogus\n"
            "foo=1 topo=2D-SW_SW\n"
            "sched=xyz topo=2D-SW_SW\n"
            "topo=2D-SW_SW chunks=0\n"
            "topo=2D-SW_SW size=-1\n"
            "topo=2D-SW_SW iters=0 model=DLRM\n"
            "sched=scf\n"
            "topo=NOPE\n"
            "topo=2D-SW_SW model=NOPE\n"
            "topo=2D-SW_SW type=zz\n"
            "topo=2D-SW_SW size=1e8=2\n")], False),
    "err_chunks_bound": ([
        run("--size 1e9 --chunks 100000000"),
        run("--serve --jobs 1",
            "topo=2D-SW_SW chunks=100000000\n"
            "topo=2D-SW_SW chunks=65537\n"),
        run("--topo 2D-SW_SW --chunks 65537 --jobs 'train:DLRM'"),
    ], False),
    "err_iterations_bound": ([
        run("--iterations 2000000000 --model DLRM"),
        run("--serve --jobs 1",
            "topo=2D-SW_SW model=DLRM iters=1000001\n"),
        run("--topo 2D-SW_SW --jobs 'train:DLRM,iterations=2000000000'"),
    ], False),
    "err_exact_without_steady_state": ([
        run("--topo 2D-SW_SW --iterations 1 --model DLRM --exact")], False),
    # --- --chunks reaches every simulating mode -------------------------
    "iterations_chunks": ([
        run("--topo 2D-SW_SW --iterations 4 --model DLRM --chunks 8")], False),
    "priority_chunks": ([
        run("--topo 2D-SW_SW --priority 4 --size 1e8 --chunks 8")], False),
    # --- extreme magnitudes simulate instead of aborting ----------------
    "single_extreme_size": ([run("--size 1e20 --topo 2D-SW_SW")], False),
    "priority_extreme_ratio": ([run("--priority 1e12")], False),
    "serve_extreme_size": ([
        run("--serve --jobs 1",
            "topo=2D-SW_SW size=1e8\n"
            "topo=2D-SW_SW size=1e20\n"
            "topo=2D-SW_SW size=2e8\n")], False),
    # --- flags the selected mode does not read --------------------------
    "rej_flag_mode": ([
        run("--exact --size 1e8"),
        run("--iterations 4 --model DLRM --grid 2D-SW_SW"),
        run("--serve --grid 2D-SW_SW"),
        run("--grid 2D-SW_SW --trace t.json"),
        run("--grid 2D-SW_SW --adapt"),
        run("--grid 2D-SW_SW --faults 'straggler@1e5:dim=0,factor=0.5'"),
        run("--sweep 4,16 --cycle-limit 2"),
        run("--jobs train:DLRM --priority 4"),
        run("--jobs train:DLRM --size 1e8"),
        run("--serve --jobs train:DLRM"),
        run("--priority 4 --trace t.json"),
        run("--merge a.jsonl,b.jsonl --enforce"),
        run("--iterations 3 --jobs 2"),
    ], False),
    "rej_cluster_threads": ([
        run("--jobs 3 --jobs train:DLRM --iterations 2 --topo 2D-SW_SW")],
        False),
    "rej_grid_topo": ([run("--grid 2D-SW_SW --topo 4D-Ring_SW_SW_SW")],
                      False),
    "rej_sweep_chunks": ([run("--sweep 8,16 --chunks 32")], False),
    "rej_grid_tier_ratio": ([run("--grid 2D-SW_SW --tier-ratio 2")],
                            False),
    "rej_mix_size": ([run("--grid 2D-SW_SW --size 1e8 --jobs train:DLRM")],
                     False),
    "rej_mix_type": ([run("--grid 2D-SW_SW --type ag --jobs train:DLRM")],
                     False),
    "usage": ([run("--bogus")], False),
    # --- strict numeric values ------------------------------------------
    "strict_flags": ([
        run("--size 1e8x"),
        run("--chunks 8abc"),
        run("--chunks -3"),
        run("--size 0"),
        run("--replan-threshold nan"),
        run("--replan-threshold -1"),
        run("--priority nan"),
        run("--tier-ratio 0.5 --jobs train:DLRM"),
        run("--iterations 0"),
        run("--iterations 2.5"),
        run("--max-cells 1e10 --sweep 4"),
        run("--jobs 99999999999 --sweep 4"),
        run("--sweep 4,8x"),
        run("--sweep 4,0"),
    ], False),
    "strict_serve_fields": ([
        run("--serve --jobs 1",
            "topo=2D-SW_SW chunks=8x\n"
            "topo=2D-SW_SW chunks=-3\n"
            "topo=2D-SW_SW size=1e8x\n"
            "topo=2D-SW_SW size=nan\n"
            "topo=2D-SW_SW model=DLRM iters=2.5\n")], False),
    "strict_jobs_fields": ([
        run("--jobs 'infer:3.2e7x,period=1e6'"),
        run("--jobs 'infer:-1,period=1e6'"),
        run("--jobs 'train:DLRM;infer:3.2e7,period=1e6x'"),
        run("--jobs 'train:DLRM;infer:3.2e7,period=1e6,requests=6.5'"),
        run("--jobs 'train:DLRM,iterations=inf'"),
        run("--jobs 'train:DLRM,arrival=1e5ns'"),
        run("--jobs 'train:DLRM,tier=zz'"),
    ], False),
}

LOC = re.compile(r"[^\s'\"]*\b(?:src|examples)/[^\s:'\"]+\.[ch]pp:\d+: ")
WALL_LINE = re.compile(r"[\d.]+ ms wall \([\d.]+ cells/sec")
SERVE_MS = re.compile(r"\((miss|hit) [\d.]+ ms\)")
SERVE_MEANS = re.compile(r"(mean_hit_ms|mean_miss_ms)=[\d.]+")
SPEEDUP = re.compile(r" warm_speedup=\S+")
CACHE = re.compile(r"\d+ hits / \d+ misses")
WALL_KEYS = {"wall_ms", "mean_hit_ms", "mean_miss_ms"}
CACHE_KEYS = {"plan_cache_hits", "plan_cache_misses"}


def mask_text(text, mask_cache):
    text = LOC.sub("<loc>: ", text)
    text = WALL_LINE.sub("<ms> ms wall (<rate> cells/sec", text)
    text = SERVE_MS.sub(r"(\1 <ms> ms)", text)
    text = SERVE_MEANS.sub(r"\1=<ms>", text)
    text = SPEEDUP.sub("", text)
    if mask_cache:
        text = CACHE.sub("<h> hits / <m> misses", text)
    # Convergence tables end in a wall-clock "Wall" column: cut every
    # row of such a table at that column.
    out, wall_col = [], None
    for line in text.split("\n"):
        if line.rstrip().endswith(" Wall"):
            wall_col = line.rstrip().rfind(" Wall") + 1
        elif not line.strip():
            wall_col = None
        if wall_col is not None:
            line = line[:wall_col] + "<wall>"
        out.append(line)
    return "\n".join(out)


def mask_json(node, mask_cache):
    if isinstance(node, dict):
        out = {}
        for k, v in node.items():
            if k in WALL_KEYS or k.startswith("serve.") and k.endswith("_ns"):
                out[k] = "<wall>"
            elif mask_cache and k in CACHE_KEYS:
                out[k] = "<cache>"
            else:
                out[k] = mask_json(v, mask_cache)
        return out
    if isinstance(node, list):
        return [mask_json(v, mask_cache) for v in node]
    return node


def run_case(cli, steps, mask_cache):
    parts = []
    with tempfile.TemporaryDirectory(prefix="cli_golden_") as tmp:
        for step in steps:
            if step[0] == "run":
                _, args, stdin = step
                parts.append(f"$ themis_cli {args}")
                if stdin is not None:
                    parts.append("[stdin]\n" + stdin.rstrip("\n"))
                proc = subprocess.run(
                    ["themis_cli"] + shlex.split(args), executable=cli,
                    cwd=tmp, input=stdin or "",
                    capture_output=True, text=True, timeout=300)
                parts.append(f"[exit {proc.returncode}]")
                parts.append(mask_text(proc.stdout, mask_cache).rstrip("\n"))
                if proc.stderr:
                    parts.append("[stderr]\n" +
                                 mask_text(proc.stderr, mask_cache).rstrip())
            elif step[0] == "show":
                path = os.path.join(tmp, step[1])
                with open(path, encoding="utf-8") as f:
                    body = f.read()
                if step[1].endswith(".json"):
                    body = json.dumps(mask_json(json.loads(body), mask_cache),
                                      indent=1)
                parts.append(f"[file {step[1]}]\n" + body.rstrip("\n"))
            else:
                _, a, b = step
                with open(os.path.join(tmp, a), "rb") as fa, \
                        open(os.path.join(tmp, b), "rb") as fb:
                    same = fa.read() == fb.read()
                parts.append(f"[cmp {a} {b}: "
                             f"{'identical' if same else 'DIFFERENT'}]")
    return "\n".join(parts) + "\n"


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    cli = os.path.abspath(argv[1])
    update = "--update" in argv[2:]
    names = [a for a in argv[2:] if a != "--update"] or list(CASES)
    failed = []
    for name in names:
        steps, mask_cache = CASES[name]
        got = run_case(cli, steps, mask_cache)
        path = os.path.join(EXPECTED, name + ".out")
        if update:
            os.makedirs(EXPECTED, exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(got)
            continue
        want = open(path, encoding="utf-8").read() \
            if os.path.exists(path) else ""
        if got != want:
            failed.append(name)
            sys.stdout.writelines(difflib.unified_diff(
                want.splitlines(True), got.splitlines(True),
                f"expected/{name}.out", f"actual/{name}.out"))
    if update:
        print(f"updated {len(names)} expectation(s) in {EXPECTED}")
        return 0
    print(f"{len(names) - len(failed)}/{len(names)} cli_golden case(s) "
          "match" + (f"; FAILED: {' '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

/**
 * @file
 * Command-line collective simulator: the whole library behind one
 * flag-driven binary, for quick what-if studies on custom platforms.
 *
 * Usage:
 *   themis_cli [options]
 *     --topo NAME|SPEC    Table 2 preset name, or a spec like
 *                         "SW:16:200x6:700,SW:64:800:1700"
 *                         (see topology/parse.hpp)   [3D-SW_SW_SW_homo]
 *     --type ar|rs|ag|a2a collective pattern          [ar]
 *     --size BYTES        per-NPU collective size     [1e9]
 *     --chunks N          chunks per collective       [64]
 *     --sched base|fifo|scf                           [scf]
 *     --enforce           pre-simulate & enforce chunk-op orders
 *     --sweep C1,C2,...   sweep those chunk counts across all three
 *                         schedulers in parallel (worker threads)
 *     --grid T1;T2;...    sweep a semicolon-separated topology list
 *                         (preset names and/or specs) across all
 *                         three schedulers — and across the --sweep
 *                         chunk counts when given — sharing one plan
 *                         cache across the grid's workers; malformed
 *                         entries are rejected with an entry/column
 *                         diagnostic. Cluster mixes (--jobs with
 *                         '|'-separated spec lists) add a jobs axis:
 *                         each cell co-simulates one mix instead of
 *                         one collective
 *     --shard I/N         own only the grid cells whose canonical
 *                         index is congruent to I mod N; run the N
 *                         shards in independent processes and --merge
 *                         their stores back bit-identically
 *     --results PATH      append-only JSONL results store: every
 *                         completed cell streams one record (key,
 *                         values, fingerprint, wall time); on restart
 *                         recorded cells are skipped (crash-safe
 *                         resume, truncated tails dropped)
 *     --max-cells N       stop after simulating N new cells (resume
 *                         testing: interrupt a run deterministically)
 *     --merge OUT,IN...   write the canonical merge of the IN result
 *                         stores to OUT and exit; shards of one grid
 *                         merge byte-equal to the 1-process store
 *     --serve             memoized what-if query loop: read queries
 *                         from stdin (whitespace-separated key=value,
 *                         blank line flushes a batch), simulate
 *                         misses through the warm shared plan cache,
 *                         answer repeats from --results / the session
 *                         without re-simulating, report hit/miss and
 *                         latency stats at EOF. Query keys: topo=
 *                         (required), sched=base|fifo|scf,
 *                         chunks=N, type=ar|rs|ag|a2a, size=BYTES,
 *                         or model=NAME [iters=N] for a convergence
 *                         replay of a training workload
 *     --priority W        two-tenant priority demo on --topo: an
 *                         urgent All-Reduce chain (weight W) vs bulk
 *                         All-Reduces (weight 1) under the
 *                         priority-aware Themis scheduler, with
 *                         per-class utilization and slowdown columns
 *                         (W = 1 shares bandwidth equally; W must
 *                         be a finite number >= 1)
 *     --iterations N      multi-iteration convergence run of --model
 *                         on --topo through the steady-state replay
 *                         engine (identical iterations are detected
 *                         by fingerprint and integrated forward
 *                         analytically instead of re-simulated)
 *     --model NAME        model-zoo workload for --iterations
 *                         [Transformer-1T]
 *     --exact             exactness-check mode: co-run the full
 *                         simulation and assert the replay's
 *                         prediction bit-identical
 *     --no-replay         simulate every iteration (measurement
 *                         baseline; results identical)
 *     --cycle-limit K     largest steady-cycle length (in lockstep
 *                         rounds) the period-k detector may confirm
 *                         (>= 1; default: the job mix's stepping
 *                         hyper-period). With --jobs it also selects
 *                         the lockstep convergence path. Rejected in
 *                         modes that never replay
 *                         (--grid/--sweep/--serve/--priority)
 *     --jobs N|SPECS      N (integer): sweep worker threads
 *                         [hardware concurrency]. Otherwise a
 *                         semicolon-separated multi-job cluster spec
 *                         co-simulated on --topo's shared fabric:
 *                           train:MODEL[,key=val...]
 *                           infer:SIZE[,key=val...]
 *                         keys: arrival=NS, tier=bulk|standard|urgent,
 *                         iterations=N (train; default --iterations
 *                         or 3), period=NS, deadline=NS, requests=N
 *                         (infer; 0 = until training drains).
 *                         Respects --sched/--chunks/--enforce;
 *                         --size/--type are inert (sizes come from
 *                         the specs). Free-running by default; with
 *                         --exact/--no-replay/--cycle-limit the mix
 *                         runs in lockstep rounds through the
 *                         period-k convergence replay engine
 *                         (periodic tenants step every cadence-th
 *                         round, cadence = period / gcd of periods;
 *                         requires open-ended streams, arrival 0 and
 *                         a hyper-period within the cycle limit).
 *                         Incompatible with --sweep/--grid/--priority.
 *     --faults SPEC       fault/heterogeneity timeline applied to the
 *                         single-collective, --iterations and --jobs
 *                         runs (see sim/fault_timeline.hpp):
 *                         ';'-separated events of the form
 *                           degrade@T+D:dim=K,factor=F
 *                           straggler@T:dim=K,factor=F
 *                           flap@T+D:dim=K
 *                           link@T+D:dim=K,index=I
 *                           storm@T+D:dim=K,flaps=N,down=NS[,seed=S]
 *                         A per-dimension fault report (capacity
 *                         steps, flaps, down time, retries, re-sent
 *                         bytes, fatal retry failures) prints after
 *                         the run
 *     --adapt             fault-aware adaptive re-planning: every
 *                         capacity-changing fault event (degrade
 *                         edge, straggler, per-link outage) makes
 *                         newly issued collectives re-plan against
 *                         the degraded per-dim bandwidths; in-flight
 *                         collectives finish under their old plan.
 *                         With no faults the results stay
 *                         bit-identical to the static engine
 *     --replan-threshold T  minimum relative per-dim capacity change
 *                         that triggers a re-plan (hysteresis)
 *                         [0.05]
 *     --tier-ratio W      cluster runs: weight ladder of the priority
 *                         policy (tiered(W); 1 separates classes at
 *                         unit weights) [4]
 *     --offset-search     cluster runs: CASSINI-style phase-offset
 *                         search — shift job start times by fractions
 *                         of an iteration to interleave communication
 *                         bursts; reports every candidate and runs
 *                         the best
 *
 * Example:
 *   themis_cli --topo "Ring:4:1000x2:20,SW:8:400:1700" --size 2.5e8
 *   themis_cli --sweep 4,16,64,256 --jobs 8
 *   themis_cli --grid "2D-SW_SW;3D-SW_SW_SW_homo" --size 1e9
 *   themis_cli --priority 4 --size 5e8
 *   themis_cli --iterations 100 --model GNMT --topo 2D-SW_SW
 *   themis_cli --jobs "train:DLRM;infer:3.2e7,period=2e5,deadline=3e5" \
 *              --iterations 3 --tier-ratio 8
 *   themis_cli --topo 2D-SW_SW --size 5e8 \
 *              --faults "degrade@2e5+4e5:dim=0,factor=0.5;flap@1e6+5e4:dim=1"
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "cluster/cluster.hpp"
#include "common/error.hpp"
#include "common/string_util.hpp"
#include "core/ideal_estimator.hpp"
#include "core/priority_policy.hpp"
#include "core/themis_scheduler.hpp"
#include "models/model_zoo.hpp"
#include "npu/npu_machine.hpp"
#include "runtime/comm_runtime.hpp"
#include "sim/fault_timeline.hpp"
#include "sim/grid_shard.hpp"
#include "sim/result_store.hpp"
#include "sim/sweep_runner.hpp"
#include "stats/summary.hpp"
#include "stats/telemetry/json_writer.hpp"
#include "stats/telemetry/run_report.hpp"
#include "stats/telemetry/telemetry.hpp"
#include "stats/trace_writer.hpp"
#include "topology/parse.hpp"
#include "topology/presets.hpp"
#include "topology/provisioning.hpp"
#include "workload/convergence.hpp"

using namespace themis;

namespace {

[[noreturn]] void
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--topo NAME|SPEC] [--type ar|rs|ag|a2a] "
                 "[--size BYTES]\n"
                 "          [--chunks N] [--sched base|fifo|scf] "
                 "[--enforce]\n"
                 "          [--sweep C1,C2,...] [--grid T1;T2;...] "
                 "[--priority W] [--jobs N|SPECS]\n"
                 "          [--iterations N] [--model NAME] [--exact] "
                 "[--no-replay] [--cycle-limit K]\n"
                 "          [--tier-ratio W] [--offset-search] "
                 "[--faults SPEC]\n"
                 "          [--adapt] [--replan-threshold T]\n"
                 "          [--shard I/N] [--results PATH] "
                 "[--max-cells N]\n"
                 "          [--merge OUT,IN1,IN2,...] [--serve]\n"
                 "          [--report PATH] [--trace PATH]\n",
                 argv0);
    std::exit(2);
}

/**
 * Value of a weight-ratio flag (--priority, --tier-ratio), checked by
 * PriorityPolicy::tiered so the CLI accepts exactly the ratios the
 * policy does.
 */
double
ratioFlag(const char* flag, const std::string& value)
{
    const double ratio = std::atof(value.c_str());
    try {
        PriorityPolicy::tiered(ratio);
    } catch (const ConfigError& e) {
        std::fprintf(stderr, "error: %s: %s\n", flag, e.what());
        std::exit(1);
    }
    return ratio;
}

Topology
resolveTopology(const std::string& arg)
{
    // Preset names contain no ':'; specs always do.
    if (arg.find(':') == std::string::npos)
        return presets::byName(arg);
    return parseTopology("custom", arg);
}

/**
 * One --grid topology axis entry. The raw token travels with the
 * resolved topology because it is the canonical result-store key
 * field: custom specs all resolve to a Topology named "custom", so
 * keying on the resolved name would collide distinct platforms.
 */
struct GridTopo
{
    std::string token;
    Topology topo;
};

/**
 * Parse a --grid topology list, rejecting malformed entries with an
 * entry-number/column diagnostic instead of silently skipping them
 * (the list is a single argument, so "line" is always 1).
 */
std::vector<GridTopo>
parseGridList(const std::string& grid_arg)
{
    std::vector<GridTopo> out;
    std::size_t entry = 0;
    std::size_t pos = 0;
    while (pos <= grid_arg.size()) {
        std::size_t sep = grid_arg.find(';', pos);
        if (sep == std::string::npos)
            sep = grid_arg.size();
        const std::string tok = grid_arg.substr(pos, sep - pos);
        ++entry;
        const std::size_t column = pos + 1; // 1-based for humans
        if (tok.find_first_not_of(" \t") == std::string::npos)
            THEMIS_FATAL("--grid entry " << entry << " (line 1, column "
                                         << column
                                         << ") is empty; remove the "
                                            "stray ';' or name a "
                                            "topology");
        try {
            out.push_back({tok, resolveTopology(tok)});
        } catch (const ConfigError& e) {
            THEMIS_FATAL("--grid entry " << entry << " (line 1, column "
                                         << column << "): '" << tok
                                         << "' is not a preset or "
                                            "topology spec: "
                                         << e.what());
        }
        pos = sep + 1;
        if (sep == grid_arg.size())
            break;
    }
    return out;
}

/** True when @p s is a plain non-negative integer (thread count). */
bool
isInteger(const std::string& s)
{
    return !s.empty() &&
           s.find_first_not_of("0123456789") == std::string::npos;
}

/** Parse a tier name or digit; -1 on failure. */
int
parseTier(const std::string& v)
{
    const std::string t = toLower(v);
    if (t == "bulk" || t == "0")
        return static_cast<int>(PriorityTier::Bulk);
    if (t == "standard" || t == "1")
        return static_cast<int>(PriorityTier::Standard);
    if (t == "urgent" || t == "2")
        return static_cast<int>(PriorityTier::Urgent);
    return -1;
}

/**
 * Parse one --jobs cluster spec list; see the usage comment for the
 * grammar. Malformed entries are rejected with an entry/key
 * diagnostic rather than silently skipped.
 */
std::vector<cluster::JobSpec>
parseJobSpecs(const std::string& arg, int default_iterations)
{
    std::vector<cluster::JobSpec> specs;
    std::size_t entry = 0;
    for (const std::string& tok : split(arg, ';')) {
        ++entry;
        const std::vector<std::string> fields = split(tok, ',');
        if (fields.empty() || fields.front().empty())
            THEMIS_FATAL("--jobs entry " << entry << " is empty");
        const std::string& head = fields.front();
        const std::size_t colon = head.find(':');
        if (colon == std::string::npos)
            THEMIS_FATAL("--jobs entry " << entry << " ('" << head
                                         << "'): expected "
                                            "train:MODEL or "
                                            "infer:SIZE");
        const std::string kind = toLower(head.substr(0, colon));
        const std::string head_arg = head.substr(colon + 1);
        cluster::JobSpec spec;
        if (kind == "train") {
            spec = cluster::JobSpec::training(
                models::byName(head_arg), default_iterations);
        } else if (kind == "infer") {
            const Bytes size = std::atof(head_arg.c_str());
            if (size <= 0.0)
                THEMIS_FATAL("--jobs entry "
                             << entry << ": bad request size '"
                             << head_arg << "'");
            // Period defaults are overridden below; validate() then
            // enforces a positive period was supplied.
            spec = cluster::JobSpec::periodicInference(size, 0.0);
        } else {
            THEMIS_FATAL("--jobs entry " << entry << ": unknown job "
                                         "kind '"
                                         << kind
                                         << "' (train or infer)");
        }
        for (std::size_t f = 1; f < fields.size(); ++f) {
            const std::size_t eq = fields[f].find('=');
            if (eq == std::string::npos)
                THEMIS_FATAL("--jobs entry "
                             << entry << ": field '" << fields[f]
                             << "' is not key=value");
            const std::string key = toLower(fields[f].substr(0, eq));
            const std::string val = fields[f].substr(eq + 1);
            if (key == "arrival") {
                spec.arrival = std::atof(val.c_str());
            } else if (key == "tier") {
                spec.priority_tier = parseTier(val);
                if (spec.priority_tier < 0)
                    THEMIS_FATAL("--jobs entry "
                                 << entry << ": bad tier '" << val
                                 << "' (bulk|standard|urgent)");
            } else if (key == "iterations" &&
                       kind == "train") {
                spec.iterations = std::atoi(val.c_str());
            } else if (key == "period" && kind == "infer") {
                spec.period = std::atof(val.c_str());
            } else if (key == "deadline" && kind == "infer") {
                spec.deadline = std::atof(val.c_str());
            } else if (key == "requests" && kind == "infer") {
                spec.max_requests = std::atoi(val.c_str());
            } else {
                THEMIS_FATAL("--jobs entry "
                             << entry << ": unknown key '" << key
                             << "' for a " << kind << " job");
            }
        }
        if (spec.kind == cluster::JobKind::PeriodicInference &&
            spec.period <= 0.0)
            THEMIS_FATAL("--jobs entry "
                         << entry
                         << ": infer jobs need period=NS (> 0)");
        spec.validate();
        specs.push_back(std::move(spec));
    }
    if (specs.empty())
        THEMIS_FATAL("--jobs spec '" << arg << "' names no jobs");
    return specs;
}

/** One --jobs mix on the grid's jobs axis. */
struct JobsMix
{
    /** Raw mix token (hashed into the result-store key field). */
    std::string token;
    std::vector<cluster::JobSpec> specs;
};

/**
 * Parse a '|'-separated list of cluster mixes for the --grid jobs
 * axis; each mix is one parseJobSpecs() spec list, so malformed
 * entries get the same entry/key diagnostics, prefixed with the mix
 * number.
 */
std::vector<JobsMix>
parseJobsMixes(const std::string& arg, int default_iterations)
{
    std::vector<JobsMix> out;
    std::size_t mix = 0;
    for (const std::string& tok : split(arg, '|')) {
        ++mix;
        if (tok.find_first_not_of(" \t") == std::string::npos)
            THEMIS_FATAL("--jobs mix " << mix
                                       << " is empty; remove the "
                                          "stray '|' or name jobs");
        try {
            out.push_back(
                {tok, parseJobSpecs(tok, default_iterations)});
        } catch (const ConfigError& e) {
            THEMIS_FATAL("--jobs mix " << mix << ": " << e.what());
        }
    }
    return out;
}

/** FNV-1a over @p n bytes, continuing @p h. */
std::uint64_t
fnv1a(const void* data, std::size_t n,
      std::uint64_t h = 14695981039346656037ull)
{
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

/** 16-hex-digit rendering of @p h (result-key mix hashes). */
std::string
hex16(std::uint64_t h)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/**
 * Exact double rendering for result-store key fields ("%.17g"
 * round-trips any IEEE double), so a --serve query key matches the
 * grid-written record byte-for-byte.
 */
std::string
keyDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Result fingerprint: FNV-1a over names and value bit patterns. */
std::uint64_t
valuesFingerprint(
    const std::vector<std::pair<std::string, double>>& values)
{
    std::uint64_t h = 14695981039346656037ull;
    for (const auto& [name, v] : values) {
        h = fnv1a(name.data(), name.size(), h);
        h = fnv1a(&v, sizeof(v), h);
    }
    return h;
}

/** One evaluated grid cell / --serve query: values + wall time. */
struct CellOutcome
{
    std::vector<std::pair<std::string, double>> values;
    double wall_ms = 0.0;
};

/** Monotonic wall clock in milliseconds. */
double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One scheduler column of the --sweep/--grid tables. */
struct SchedulerSetup
{
    const char* name;
    runtime::RuntimeConfig cfg;
};

std::vector<SchedulerSetup>
schedulerSetups()
{
    return {{"Baseline", runtime::baselineConfig()},
            {"Themis+FIFO", runtime::themisFifoConfig()},
            {"Themis+SCF", runtime::themisScfConfig()}};
}

/** Per-dimension fault-report rows from a finished run's tracker. */
std::vector<stats::FaultDimRow>
faultRows(const Topology& topo, const stats::UtilizationTracker& ut)
{
    std::vector<stats::FaultDimRow> rows;
    for (int d = 0; d < topo.numDims(); ++d) {
        const auto i = static_cast<std::size_t>(d);
        stats::FaultDimRow row;
        row.name = "dim" + std::to_string(d + 1) + " (" +
                   dimKindName(topo.dim(d).kind) + ")";
        row.capacity_events = ut.capacityEvents()[i];
        row.flaps = ut.flaps()[i];
        row.down_time = ut.downTime()[i];
        row.retries = ut.retries()[i];
        row.lost_bytes = ut.retryLostBytes()[i];
        row.fatal_retries = ut.fatalRetries()[i];
        const auto& backoff = ut.retryBackoff(i);
        if (backoff.count() > 0) {
            row.backoff_p99 = backoff.percentile(0.99);
            row.backoff_max = backoff.max();
        }
        rows.push_back(row);
    }
    return rows;
}

/** JSON array of per-job stats for the RunReport "jobs" section. */
std::string
jobsJson(const std::vector<cluster::JobStats>& jobs)
{
    stats::telemetry::JsonWriter w;
    w.beginArray();
    for (const auto& j : jobs) {
        w.beginObject();
        w.key("job").value(j.job);
        w.key("name").value(j.name);
        w.key("kind").value(cluster::jobKindName(j.kind));
        w.key("arrival_ns").value(j.arrival);
        w.key("finished_ns").value(j.finished);
        w.key("iterations").value(j.iterations);
        w.key("mean_iteration_ns").value(j.mean_iteration);
        w.key("exposed_share").value(j.exposed_share);
        w.key("requests_issued").value(j.requests_issued);
        w.key("requests_completed").value(j.requests_completed);
        w.key("mean_latency_ns").value(j.mean_latency);
        w.key("deadline_hits").value(j.deadline_hits);
        w.key("deadline_misses").value(j.deadline_misses);
        w.key("deadline_hit_rate").value(j.deadline_hit_rate);
        w.key("unit_p99_ns").value(j.unit_p99);
        w.key("unit_max_ns").value(j.unit_max);
        w.key("progressed_bytes").value(j.progressed);
        w.key("utilization").value(j.utilization);
        w.endObject();
    }
    w.endArray();
    return w.str();
}

/** JSON array of fault rows for the RunReport "fault" section. */
std::string
faultJson(const std::vector<stats::FaultDimRow>& rows)
{
    stats::telemetry::JsonWriter w;
    w.beginArray();
    for (const auto& r : rows) {
        w.beginObject();
        w.key("dim").value(r.name);
        w.key("capacity_events")
            .value(static_cast<std::uint64_t>(r.capacity_events));
        w.key("flaps").value(static_cast<std::uint64_t>(r.flaps));
        w.key("down_time_ns").value(r.down_time);
        w.key("retries").value(static_cast<std::uint64_t>(r.retries));
        w.key("backoff_p99_ns").value(r.backoff_p99);
        w.key("backoff_max_ns").value(r.backoff_max);
        w.key("lost_bytes").value(r.lost_bytes);
        w.key("fatal_retries")
            .value(static_cast<std::uint64_t>(r.fatal_retries));
        w.endObject();
    }
    w.endArray();
    return w.str();
}

/** JSON array of class rows for the RunReport "classes" section. */
std::string
classesJson(
    const std::vector<runtime::CommRuntime::ClassReport>& classes)
{
    stats::telemetry::JsonWriter w;
    w.beginArray();
    for (const auto& c : classes) {
        w.beginObject();
        w.key("tier").value(c.tier);
        w.key("name").value(priorityTierName(c.tier));
        w.key("weight").value(c.weight);
        w.key("issued").value(c.issued);
        w.key("completed").value(c.completed);
        w.key("mean_duration_ns").value(c.mean_duration);
        w.key("progressed_bytes").value(c.progressed);
        w.key("utilization").value(c.utilization);
        w.endObject();
    }
    w.endArray();
    return w.str();
}

/**
 * Attach the telemetry snapshot, write the --report artifact, and
 * announce it. No-op without --report.
 */
void
emitReport(stats::telemetry::RunReport& report,
           const std::string& path,
           const stats::telemetry::Telemetry* telem)
{
    if (path.empty())
        return;
    if (telem != nullptr) {
        report.attachMetrics(&telem->metrics);
        report.attachRecorder(&telem->recorder);
    }
    report.writeFile(path);
    std::printf("report: mode %s -> %s (schema %s)\n",
                report.mode().c_str(), path.c_str(),
                stats::telemetry::RunReport::kSchemaVersion);
}

/** Write the --trace artifact and announce it. No-op without it. */
void
emitTrace(const stats::TraceWriter& trace, const std::string& path)
{
    if (path.empty())
        return;
    trace.writeFile(path);
    std::printf("trace: %zu span(s), %zu instant(s) -> %s (open in "
                "ui.perfetto.dev or chrome://tracing)\n",
                trace.eventCount(), trace.instantCount(),
                path.c_str());
}

/** Record the adaptation headline numbers into a report. */
void
reportAdaptation(stats::telemetry::RunReport& report,
                 const runtime::CommRuntime& comm)
{
    report.setNumber("replans",
                     static_cast<double>(comm.replanCount()));
    report.setInfo("capacity_fingerprint",
                   hex16(comm.capacityFingerprint()));
}

/**
 * One-line adaptive re-planning summary after a faulted run; quiet
 * unless --adapt was given.
 */
void
printAdaptationSummary(const runtime::CommRuntime& comm)
{
    std::printf("adaptation: %llu re-plan(s), capacity epoch %#llx\n",
                static_cast<unsigned long long>(comm.replanCount()),
                static_cast<unsigned long long>(
                    comm.capacityFingerprint()));
}

} // namespace

int
main(int argc, char** argv)
{
    std::string topo_arg = "3D-SW_SW_SW_homo";
    std::string type_arg = "ar";
    std::string sched_arg = "scf";
    Bytes size = 1.0e9;
    int chunks = 64;
    bool enforce = false;
    bool validate = false;
    std::string trace_path;
    std::string report_path;
    std::string sweep_arg;
    std::string grid_arg;
    std::string jobs_arg;
    double priority_ratio = 0.0;
    double tier_ratio = 4.0;
    bool offset_search = false;
    int jobs = 0;
    int iterations = 0;
    std::string model_arg = "Transformer-1T";
    bool exactness = false;
    bool no_replay = false;
    int cycle_limit = 0; // 0 = auto (job-mix hyper-period)
    std::string faults_arg;
    bool adapt = false;
    double replan_threshold = 0.05;
    std::string shard_arg;
    std::string results_path;
    std::string merge_arg;
    int max_cells = 0;
    bool serve = false;

    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto need_value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (flag == "--topo") {
            topo_arg = need_value();
        } else if (flag == "--type") {
            type_arg = toLower(need_value());
        } else if (flag == "--size") {
            size = std::atof(need_value().c_str());
        } else if (flag == "--chunks") {
            chunks = std::atoi(need_value().c_str());
        } else if (flag == "--sched") {
            sched_arg = toLower(need_value());
        } else if (flag == "--enforce") {
            enforce = true;
        } else if (flag == "--trace") {
            trace_path = need_value();
        } else if (flag == "--report") {
            report_path = need_value();
        } else if (flag == "--validate") {
            validate = true;
        } else if (flag == "--sweep") {
            sweep_arg = need_value();
        } else if (flag == "--grid") {
            grid_arg = need_value();
        } else if (flag == "--priority") {
            priority_ratio = ratioFlag("--priority", need_value());
        } else if (flag == "--jobs") {
            // An integer keeps the historical meaning (sweep worker
            // threads); anything else is a multi-job cluster spec.
            const std::string v = need_value();
            if (isInteger(v))
                jobs = std::atoi(v.c_str());
            else
                jobs_arg = v;
        } else if (flag == "--tier-ratio") {
            tier_ratio = ratioFlag("--tier-ratio", need_value());
        } else if (flag == "--offset-search") {
            offset_search = true;
        } else if (flag == "--iterations") {
            iterations = std::atoi(need_value().c_str());
            if (iterations < 1)
                usage(argv[0]);
        } else if (flag == "--model") {
            model_arg = need_value();
        } else if (flag == "--exact") {
            exactness = true;
        } else if (flag == "--no-replay") {
            no_replay = true;
        } else if (flag == "--cycle-limit") {
            cycle_limit = std::atoi(need_value().c_str());
            if (cycle_limit < 1) {
                std::fprintf(stderr,
                             "--cycle-limit wants an integer >= 1 "
                             "(rounds); got '%s'\n",
                             argv[i]);
                usage(argv[0]);
            }
        } else if (flag == "--faults") {
            faults_arg = need_value();
        } else if (flag == "--adapt") {
            adapt = true;
        } else if (flag == "--replan-threshold") {
            replan_threshold = std::atof(need_value().c_str());
            if (replan_threshold < 0.0)
                usage(argv[0]);
        } else if (flag == "--shard") {
            shard_arg = need_value();
        } else if (flag == "--results") {
            results_path = need_value();
        } else if (flag == "--max-cells") {
            max_cells = std::atoi(need_value().c_str());
            if (max_cells < 1)
                usage(argv[0]);
        } else if (flag == "--merge") {
            merge_arg = need_value();
        } else if (flag == "--serve") {
            serve = true;
        } else {
            usage(argv[0]);
        }
    }

    // The telemetry sink and trace writer outlive the try block so
    // the RetryExhaustedError path can dump the flight-recorder tail
    // and write a mode-"fatal" report / partial trace.
    stats::telemetry::Telemetry telem;
    stats::TraceWriter trace;

    try {
        if (!merge_arg.empty()) {
            // Offline canonical merge of shard result stores: the
            // output is byte-equal to the canonicalBytes() of a
            // 1-process run over the same grid, so a plain diff (or
            // cmp) proves the sharded execution exact.
            const std::vector<std::string> parts =
                split(merge_arg, ',');
            if (parts.size() < 2)
                THEMIS_FATAL("--merge wants OUT,IN1[,IN2,...]; got '"
                             << merge_arg << "'");
            const std::vector<std::string> inputs(parts.begin() + 1,
                                                  parts.end());
            const std::string merged =
                sim::ResultStore::canonicalMerge(inputs);
            std::FILE* f = std::fopen(parts.front().c_str(), "wb");
            if (f == nullptr)
                THEMIS_FATAL("--merge: cannot write '" << parts.front()
                                                       << "'");
            std::fwrite(merged.data(), 1, merged.size(), f);
            std::fclose(f);
            std::printf("merged %zu store(s) -> %s (%zu bytes, "
                        "canonical)\n",
                        inputs.size(), parts.front().c_str(),
                        merged.size());
            if (!report_path.empty()) {
                stats::telemetry::RunReport report("merge");
                report.setInfo("output", parts.front());
                report.setNumber("inputs",
                                 static_cast<double>(inputs.size()));
                report.setNumber("bytes",
                                 static_cast<double>(merged.size()));
                emitReport(report, report_path, nullptr);
            }
            return 0;
        }

        const Topology topo = resolveTopology(topo_arg);

        CollectiveRequest req;
        req.size = size;
        req.chunks = chunks;
        if (type_arg == "ar")
            req.type = CollectiveType::AllReduce;
        else if (type_arg == "rs")
            req.type = CollectiveType::ReduceScatter;
        else if (type_arg == "ag")
            req.type = CollectiveType::AllGather;
        else if (type_arg == "a2a")
            req.type = CollectiveType::AllToAll;
        else
            usage(argv[0]);

        runtime::RuntimeConfig cfg;
        if (sched_arg == "base")
            cfg = runtime::baselineConfig();
        else if (sched_arg == "fifo")
            cfg = runtime::themisFifoConfig();
        else if (sched_arg == "scf")
            cfg = runtime::themisScfConfig();
        else
            usage(argv[0]);
        cfg.enforce_consistent_order = enforce;

        // Fault timelines drive one runtime's FaultDriver; the batch
        // modes build their own per-cell configs, so reject the
        // combination loudly instead of silently ignoring the spec.
        sim::FaultTimeline faults_tl;
        if (!faults_arg.empty()) {
            if (serve || !grid_arg.empty() || !sweep_arg.empty() ||
                priority_ratio >= 1.0)
                THEMIS_FATAL("--faults applies to the "
                             "single-collective, --iterations and "
                             "--jobs runs; drop it for "
                             "--grid/--sweep/--serve/--priority");
            faults_tl = sim::FaultTimeline::parse(faults_arg);
            faults_tl.validateForDims(topo.numDims());
            cfg.faults = &faults_tl;
        }
        cfg.adaptation.enabled = adapt;
        cfg.adaptation.replan_threshold = replan_threshold;

        // Telemetry rides along whenever an artifact was requested.
        // The registry is single-threaded, so only the single-runtime
        // modes (single collective, --iterations, --jobs cluster)
        // plug it into the runtime config; the batch modes
        // (--grid/--sweep/--serve/--priority) run cells on worker
        // threads and publish main-thread metrics plus their own
        // report sections instead.
        if (!trace_path.empty())
            telem.trace = &trace;
        if ((!report_path.empty() || !trace_path.empty()) && !serve &&
            grid_arg.empty() && sweep_arg.empty() &&
            priority_ratio < 1.0)
            cfg.telemetry = &telem;

        // --cycle-limit tunes the period-k convergence replay engine;
        // the batch/service modes simulate every cell in full and
        // would silently ignore it — reject the combination loudly.
        if (cycle_limit > 0 &&
            (serve || !grid_arg.empty() || !sweep_arg.empty() ||
             priority_ratio >= 1.0)) {
            THEMIS_FATAL(
                "--cycle-limit tunes the convergence replay engine; "
                "--grid/--sweep/--serve/--priority cells never "
                "replay — drop it, or run --iterations/--jobs");
        }

        if (serve) {
            // Memoized what-if query loop (grammar in the usage
            // comment). Misses of each batch fan across the sweep
            // workers against one warm shared plan cache; repeats —
            // within a batch, across batches, or recorded by an
            // earlier grid/serve run in --results — are answered from
            // the store without re-simulating. Collective query keys
            // are identical to --grid cell keys, so a sharded grid
            // pre-populates the service.
            const std::vector<SchedulerSetup> setups =
                schedulerSetups();
            std::unique_ptr<sim::ResultStore> store;
            if (!results_path.empty())
                store =
                    std::make_unique<sim::ResultStore>(results_path);
            std::unordered_map<std::string, sim::ResultRecord> session;
            PlanCache cache;

            struct Query
            {
                std::string line;
                std::string error; ///< non-empty: rejected at parse
                std::string key;
                std::optional<Topology> topo;
                std::size_t sched = 2; ///< setups index (scf)
                int chunks = 0;
                CollectiveType type = CollectiveType::AllReduce;
                Bytes size = 0.0;
                bool is_model = false;
                std::string model;
                int iters = 3;
            };
            auto parseQuery = [&](const std::string& line) {
                Query q;
                q.line = line;
                q.chunks = chunks;
                q.size = size;
                std::string topo_tok, type_tok = type_arg;
                std::istringstream in(line);
                std::string tok;
                while (in >> tok) {
                    const std::size_t eq = tok.find('=');
                    if (eq == std::string::npos) {
                        q.error =
                            "token '" + tok + "' is not key=value";
                        return q;
                    }
                    const std::string key = toLower(tok.substr(0, eq));
                    const std::string val = tok.substr(eq + 1);
                    if (val.find_first_of(";=") != std::string::npos) {
                        q.error = "value '" + val +
                                  "' contains a reserved ';' or '='";
                        return q;
                    }
                    if (key == "topo") {
                        topo_tok = val;
                    } else if (key == "sched") {
                        const std::string s = toLower(val);
                        if (s == "base")
                            q.sched = 0;
                        else if (s == "fifo")
                            q.sched = 1;
                        else if (s == "scf")
                            q.sched = 2;
                        else {
                            q.error = "bad sched '" + val +
                                      "' (base|fifo|scf)";
                            return q;
                        }
                    } else if (key == "chunks") {
                        q.chunks = std::atoi(val.c_str());
                        if (q.chunks < 1) {
                            q.error = "bad chunks '" + val + "'";
                            return q;
                        }
                    } else if (key == "type") {
                        type_tok = toLower(val);
                    } else if (key == "size") {
                        q.size = std::atof(val.c_str());
                        if (q.size <= 0.0) {
                            q.error = "bad size '" + val + "'";
                            return q;
                        }
                    } else if (key == "model") {
                        q.is_model = true;
                        q.model = val;
                    } else if (key == "iters") {
                        q.iters = std::atoi(val.c_str());
                        if (q.iters < 1) {
                            q.error = "bad iters '" + val + "'";
                            return q;
                        }
                    } else {
                        q.error = "unknown key '" + key +
                                  "' (topo sched chunks type size "
                                  "model iters)";
                        return q;
                    }
                }
                if (topo_tok.empty()) {
                    q.error = "topo= is required";
                    return q;
                }
                try {
                    q.topo = resolveTopology(topo_tok);
                    if (q.is_model)
                        (void)models::byName(q.model);
                } catch (const ConfigError& e) {
                    q.error = e.what();
                    return q;
                }
                if (!q.is_model) {
                    if (type_tok == "ar")
                        q.type = CollectiveType::AllReduce;
                    else if (type_tok == "rs")
                        q.type = CollectiveType::ReduceScatter;
                    else if (type_tok == "ag")
                        q.type = CollectiveType::AllGather;
                    else if (type_tok == "a2a")
                        q.type = CollectiveType::AllToAll;
                    else {
                        q.error = "bad type '" + type_tok +
                                  "' (ar|rs|ag|a2a)";
                        return q;
                    }
                }
                std::vector<std::pair<std::string, std::string>> kv = {
                    {"topo", topo_tok},
                    {"sched", setups[q.sched].name},
                    {"chunks", std::to_string(q.chunks)},
                    {"enforce", enforce ? "1" : "0"}};
                if (q.is_model) {
                    kv.push_back({"model", q.model});
                    kv.push_back({"iters", std::to_string(q.iters)});
                } else {
                    kv.push_back({"type", type_tok});
                    kv.push_back({"size", keyDouble(q.size)});
                }
                q.key = sim::makeResultKey(std::move(kv));
                return q;
            };

            std::size_t n_q = 0, n_hit = 0, n_miss = 0, n_err = 0;
            double hit_ms = 0.0, miss_ms = 0.0;
            std::vector<Query> batch;
            auto lookupRecord = [&](const std::string& key)
                -> const sim::ResultRecord* {
                if (store != nullptr)
                    return store->find(key);
                const auto it = session.find(key);
                return it == session.end() ? nullptr : &it->second;
            };
            auto flush = [&]() {
                if (batch.empty())
                    return;
                // The batch's unique unanswered keys simulate in
                // parallel; everything else is a memoized hit.
                std::vector<std::size_t> miss_idx;
                std::unordered_set<std::string> batch_keys;
                for (std::size_t i = 0; i < batch.size(); ++i) {
                    const Query& q = batch[i];
                    if (!q.error.empty() ||
                        lookupRecord(q.key) != nullptr ||
                        !batch_keys.insert(q.key).second)
                        continue;
                    miss_idx.push_back(i);
                }
                const auto outs = sim::sweepIndexed(
                    miss_idx.size(),
                    [&](std::size_t j, sim::EventQueue& queue) {
                        const Query& q = batch[miss_idx[j]];
                        const double t0 = nowMs();
                        CellOutcome out;
                        runtime::RuntimeConfig run_cfg =
                            setups[q.sched].cfg;
                        run_cfg.enforce_consistent_order = enforce;
                        run_cfg.plan_cache = &cache;
                        run_cfg.default_chunks = q.chunks;
                        if (q.is_model) {
                            runtime::CommRuntime comm(queue, *q.topo,
                                                      run_cfg);
                            workload::TrainingLoop loop(
                                comm, models::byName(q.model));
                            workload::ConvergenceOptions copts;
                            copts.iterations = q.iters;
                            const auto r = workload::runConverged(
                                comm, loop, copts);
                            out.values = {
                                {"total_ns", r.total.total},
                                {"iter_ns", r.last.total},
                                {"util", r.utilization}};
                        } else {
                            CollectiveRequest r;
                            r.type = q.type;
                            r.size = q.size;
                            r.chunks = q.chunks;
                            runtime::CommRuntime comm(queue, *q.topo,
                                                      run_cfg);
                            const int cid = comm.issue(r);
                            queue.run();
                            comm.finalizeStats();
                            out.values = {
                                {"time_ns",
                                 comm.record(cid).duration()},
                                {"util", comm.utilization()
                                             .weightedUtilization()}};
                        }
                        out.wall_ms = nowMs() - t0;
                        return out;
                    },
                    sim::SweepOptions{jobs});
                std::unordered_map<std::string, double> simulated_ms;
                for (std::size_t j = 0; j < miss_idx.size(); ++j) {
                    const Query& q = batch[miss_idx[j]];
                    sim::ResultRecord rec;
                    rec.key = q.key;
                    rec.values = outs[j].values;
                    rec.fingerprint =
                        valuesFingerprint(outs[j].values);
                    rec.wall_ms = outs[j].wall_ms;
                    simulated_ms[q.key] = outs[j].wall_ms;
                    if (store != nullptr)
                        store->append(std::move(rec));
                    else
                        session.emplace(q.key, std::move(rec));
                }
                for (const Query& q : batch) {
                    ++n_q;
                    telem.metrics.counter("serve.queries").add();
                    if (!q.error.empty()) {
                        ++n_err;
                        telem.metrics.counter("serve.errors").add();
                        std::printf("error: %s (query '%s')\n",
                                    q.error.c_str(), q.line.c_str());
                        continue;
                    }
                    const auto sim_it = simulated_ms.find(q.key);
                    const bool miss = sim_it != simulated_ms.end();
                    const double t0 = nowMs();
                    const sim::ResultRecord* rec = lookupRecord(q.key);
                    double ms = nowMs() - t0;
                    THEMIS_ASSERT(rec != nullptr,
                                  "serve: evaluated query missing "
                                  "from the store");
                    std::string vals;
                    for (const auto& [name, v] : rec->values)
                        vals += " " + name + "=" + keyDouble(v);
                    if (miss) {
                        ms = sim_it->second;
                        // Further repeats in this batch are hits.
                        simulated_ms.erase(sim_it);
                        ++n_miss;
                        miss_ms += ms;
                        telem.metrics.counter("serve.misses").add();
                        telem.metrics.histogram("serve.miss_ns")
                            .record(ms * 1e6);
                    } else {
                        ++n_hit;
                        hit_ms += ms;
                        telem.metrics.counter("serve.hits").add();
                        telem.metrics.histogram("serve.hit_ns")
                            .record(ms * 1e6);
                    }
                    telem.metrics.histogram("serve.query_ns")
                        .record(ms * 1e6);
                    std::printf("result %s ::%s (%s %.4f ms)\n",
                                q.key.c_str(), vals.c_str(),
                                miss ? "miss" : "hit", ms);
                }
                batch.clear();
            };

            std::string line;
            while (std::getline(std::cin, line)) {
                if (line.find_first_not_of(" \t\r") ==
                    std::string::npos) {
                    flush();
                    continue;
                }
                batch.push_back(parseQuery(line));
            }
            flush();

            const double mean_hit =
                n_hit > 0 ? hit_ms / static_cast<double>(n_hit) : 0.0;
            const double mean_miss =
                n_miss > 0 ? miss_ms / static_cast<double>(n_miss)
                           : 0.0;
            std::printf("serve summary: queries=%zu hits=%zu "
                        "misses=%zu errors=%zu mean_hit_ms=%.4f "
                        "mean_miss_ms=%.3f",
                        n_q, n_hit, n_miss, n_err, mean_hit,
                        mean_miss);
            if (n_hit > 0 && n_miss > 0 && mean_hit > 0.0)
                std::printf(" warm_speedup=%.1fx",
                            mean_miss / mean_hit);
            std::printf("\n");
            const auto cache_stats = cache.stats();
            std::printf("plan cache: %zu plans, %llu hits / %llu "
                        "misses\n",
                        cache.planCount(),
                        static_cast<unsigned long long>(
                            cache_stats.plan_hits),
                        static_cast<unsigned long long>(
                            cache_stats.plan_misses));
            if (!report_path.empty()) {
                stats::telemetry::RunReport report("serve");
                report.setInfo("results_store", results_path);
                report.setNumber("queries",
                                 static_cast<double>(n_q));
                report.setNumber("hits", static_cast<double>(n_hit));
                report.setNumber("misses",
                                 static_cast<double>(n_miss));
                report.setNumber("errors",
                                 static_cast<double>(n_err));
                report.setNumber("mean_hit_ms", mean_hit);
                report.setNumber("mean_miss_ms", mean_miss);
                report.setNumber("plan_cache_plans",
                                 static_cast<double>(
                                     cache.planCount()));
                report.setNumber("plan_cache_hits",
                                 static_cast<double>(
                                     cache_stats.plan_hits));
                report.setNumber("plan_cache_misses",
                                 static_cast<double>(
                                     cache_stats.plan_misses));
                emitReport(report, report_path, &telem);
            }
            return 0;
        }

        if (!jobs_arg.empty() && grid_arg.empty() &&
            sweep_arg.empty()) {
            // Multi-job cluster co-simulation on one shared fabric.
            // Free-running by default; --exact/--no-replay/
            // --cycle-limit select the lockstep convergence path
            // through the period-k steady-cycle replay engine.
            if (priority_ratio >= 1.0) {
                THEMIS_FATAL(
                    "--priority is the two-tenant contention demo; "
                    "cluster runs take --tier-ratio for the weight "
                    "ladder instead");
            }
            const int cluster_iters = iterations >= 1 ? iterations : 3;
            std::vector<cluster::JobSpec> specs =
                parseJobSpecs(jobs_arg, cluster_iters);

            // --sched and --chunks apply to the cluster run too (the
            // Themis scheduler upgrades to its priority-aware variant
            // when a weight ladder is in play); --size/--type describe
            // the single-collective mode and are inert here.
            runtime::RuntimeConfig ccfg = cfg;
            if (ccfg.scheduler == SchedulerKind::Themis &&
                tier_ratio > 1.0)
                ccfg.scheduler = SchedulerKind::ThemisPriority;
            ccfg.priority = PriorityPolicy::tiered(tier_ratio);
            ccfg.default_chunks = chunks;
            PlanCache cache;
            ccfg.plan_cache = &cache;

            std::printf("%s", topo.describe().c_str());
            std::printf("\n%zu-job cluster co-simulation (%s, policy "
                        "%s):\n\n",
                        specs.size(),
                        schedulerKindName(ccfg.scheduler).c_str(),
                        ccfg.priority.describe().c_str());

            cluster::JobScheduler sched(specs);

            const bool lockstep_mode =
                exactness || no_replay || cycle_limit > 0;
            std::vector<TimeNs> best_offsets;
            if (offset_search) {
                cluster::OffsetSearchOptions sopts;
                sopts.threads = jobs;
                const auto res = cluster::searchPhaseOffsets(
                    topo, ccfg, specs, sopts);
                stats::TextTable t(
                    {"Phase fraction", "Aggregate iter time"});
                for (std::size_t i = 0; i < res.candidates.size();
                     ++i) {
                    t.addRow({fmtDouble(
                                  static_cast<double>(i) /
                                      res.candidates.size(),
                                  3),
                              fmtTime(res.candidates[i].metric)});
                }
                std::printf("%s", t.render().c_str());
                std::printf("\n  offset search: zero-offset %s -> "
                            "best %s (base period %s)\n\n",
                            fmtTime(res.zero_metric).c_str(),
                            fmtTime(res.best.metric).c_str(),
                            fmtTime(res.base_period).c_str());
                if (lockstep_mode) {
                    // The lockstep path applies offsets as per-round
                    // phase delays (rounds restart from quiescence,
                    // so arrival shifts cannot survive them).
                    best_offsets = res.best.offsets;
                } else {
                    sched = cluster::JobScheduler(specs);
                    sched.shiftArrivals(res.best.offsets);
                }
            }

            if (lockstep_mode) {
                const std::int64_t limit =
                    cycle_limit > 0
                        ? cycle_limit
                        : cluster::JobScheduler::kDefaultCycleLimit;
                const auto plan = sched.lockstepPlan(limit);
                if (!plan.eligible)
                    THEMIS_FATAL("--jobs convergence run refused: "
                                 << plan.reason);

                workload::ConvergenceOptions copts;
                copts.iterations = cluster_iters;
                copts.replay = !no_replay;
                copts.exactness_check = exactness;
                copts.cycle_limit = cycle_limit;

                sim::EventQueue queue;
                cluster::Cluster cl(queue, topo, ccfg,
                                    std::move(sched));
                const auto t0 = std::chrono::steady_clock::now();
                const auto r = cl.runConverged(copts, best_offsets);
                const double wall_ms =
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();

                stats::ConvergenceRunRow crow;
                crow.label = exactness
                                 ? "exactness"
                                 : (no_replay ? "full" : "replay");
                crow.iterations = r.iterations;
                crow.simulated = r.simulated_iterations;
                crow.replayed = r.replayed_iterations;
                crow.cycle_length = r.cycle_length;
                crow.total_time = r.total.total;
                crow.last_iteration = r.last.total;
                crow.utilization = r.utilization;
                crow.wall_ms = wall_ms;
                std::printf(
                    "%s",
                    stats::renderConvergenceTable({crow}).c_str());

                const auto jstats =
                    cl.lockstepJobStats(r.iterations);
                std::vector<stats::JobUsageRow> jrows;
                for (std::size_t j = 0; j < jstats.size(); ++j) {
                    const auto& js = jstats[j];
                    stats::JobUsageRow row;
                    row.name = js.name;
                    row.kind = cluster::jobKindName(js.kind);
                    row.arrival = js.arrival;
                    row.jct = r.total.total;
                    row.units =
                        js.kind == cluster::JobKind::Training
                            ? js.iterations
                            : js.requests_completed;
                    row.mean_unit =
                        js.kind == cluster::JobKind::Training
                            ? js.mean_iteration
                            : js.mean_latency;
                    row.exposed_share = js.exposed_share;
                    row.deadline_hit_rate = js.deadline_hit_rate;
                    row.unit_p99 = js.unit_p99;
                    row.unit_max = js.unit_max;
                    // No per-job wire totals across replayed rounds.
                    row.progressed = -1.0;
                    row.utilization = -1.0;
                    row.cycle_units =
                        r.cycle_length > 0
                            ? r.cycle_length / plan.cadences[j]
                            : -1;
                    jrows.push_back(row);
                }
                std::printf("\n%s",
                            stats::renderJobTable(jrows).c_str());

                std::printf("\n  cycle replay  : hyper-period %d "
                            "round(s), cycle %s, %d simulated + %d "
                            "replayed of %d rounds\n",
                            r.hyper_period,
                            r.cycle_length > 0
                                ? std::to_string(r.cycle_length)
                                      .c_str()
                                : "-",
                            r.epochs_simulated, r.epochs_replayed,
                            r.iterations);
                if (r.steady_at >= 0) {
                    std::printf(
                        "  steady cycle at round %d (fingerprint "
                        "%016llx)%s\n",
                        r.steady_at,
                        static_cast<unsigned long long>(
                            r.steady_fingerprint),
                        exactness ? ", replay prediction asserted "
                                    "bit-identical"
                                  : "");
                } else if (exactness) {
                    // A vacuous pass would defeat the proof mode: no
                    // steady cycle means the exactness assertions
                    // never executed.
                    THEMIS_FATAL(
                        "--exact: no steady cycle was confirmed, so "
                        "nothing was asserted; raise --iterations "
                        "(the mix needs ~2x its hyper-period of "
                        "rounds) or --cycle-limit");
                } else {
                    std::printf("  steady cycle not confirmed; every "
                                "round simulated\n");
                }
                if (!r.replay_refusal.empty())
                    std::printf("  replay refused: %s\n",
                                r.replay_refusal.c_str());
                if (!faults_arg.empty())
                    std::printf(
                        "\nfault report, last simulated round "
                        "(--faults \"%s\"):\n%s",
                        faults_arg.c_str(),
                        stats::renderFaultTable(
                            faultRows(topo,
                                      cl.runtime().utilization()))
                            .c_str());
                if (adapt)
                    printAdaptationSummary(cl.runtime());
                cl.runtime().publishTelemetry();
                emitTrace(trace, trace_path);
                if (!report_path.empty()) {
                    stats::telemetry::RunReport report("jobs");
                    report.setInfo("topology", topo.name());
                    report.setInfo(
                        "scheduler",
                        schedulerKindName(ccfg.scheduler));
                    report.setInfo("policy",
                                   ccfg.priority.describe());
                    report.setInfo("run", crow.label);
                    if (!faults_arg.empty())
                        report.setInfo("faults", faults_arg);
                    report.setNumber("rounds", r.iterations);
                    report.setNumber("simulated_rounds",
                                     r.simulated_iterations);
                    report.setNumber("replayed_rounds",
                                     r.replayed_iterations);
                    report.setNumber("cycle_length", r.cycle_length);
                    report.setNumber("hyper_period", r.hyper_period);
                    report.setNumber("total_ns", r.total.total);
                    report.setNumber("utilization", r.utilization);
                    report.setNumber("wall_ms", wall_ms);
                    if (adapt)
                        reportAdaptation(report, cl.runtime());
                    report.addSection("jobs", jobsJson(jstats));
                    if (!faults_arg.empty())
                        report.addSection(
                            "fault",
                            faultJson(faultRows(
                                topo, cl.runtime().utilization())));
                    emitReport(report, report_path, &telem);
                }
                return 0;
            }

            sim::EventQueue queue;
            cluster::Cluster cl(queue, topo, ccfg, std::move(sched));
            const auto elig = cl.replayEligibility();
            const auto rep = cl.run();

            std::vector<stats::JobUsageRow> rows;
            for (const auto& j : rep.jobs) {
                stats::JobUsageRow row;
                row.name = j.name;
                row.kind = cluster::jobKindName(j.kind);
                row.arrival = j.arrival;
                row.jct = j.jct();
                row.units = j.kind == cluster::JobKind::Training
                                ? j.iterations
                                : j.requests_completed;
                row.mean_unit =
                    j.kind == cluster::JobKind::Training
                        ? j.mean_iteration
                        : j.mean_latency;
                row.exposed_share = j.exposed_share;
                row.deadline_hit_rate = j.deadline_hit_rate;
                row.unit_p99 = j.unit_p99;
                row.unit_max = j.unit_max;
                row.progressed = j.progressed;
                row.utilization = j.utilization;
                rows.push_back(row);
            }
            std::printf("%s", stats::renderJobTable(rows).c_str());
            std::vector<stats::ClassUsageRow> crows;
            for (const auto& c : rep.classes) {
                if (c.issued == 0 && c.progressed <= 0.0)
                    continue;
                stats::ClassUsageRow row;
                row.name = priorityTierName(c.tier);
                row.weight = c.weight;
                row.collectives = c.completed;
                row.mean_duration = c.mean_duration;
                row.progressed = c.progressed;
                row.utilization = c.utilization;
                crows.push_back(row);
            }
            std::printf("\n%s", stats::renderClassTable(crows).c_str());
            std::printf("\n  makespan      : %s\n",
                        fmtTime(rep.makespan).c_str());
            std::printf("  fabric util   : %s\n",
                        fmtPercent(rep.fabric_utilization).c_str());
            std::printf("  bytes moved   : %s\n",
                        fmtBytes(rep.total_bytes).c_str());
            std::printf("  replay        : %s\n",
                        elig.eligible
                            ? "eligible (lockstep training mix)"
                            : elig.reason.c_str());
            if (!faults_arg.empty())
                std::printf("\nfault report (--faults \"%s\"):\n%s",
                            faults_arg.c_str(),
                            stats::renderFaultTable(
                                faultRows(topo,
                                          cl.runtime().utilization()))
                                .c_str());
            if (adapt)
                printAdaptationSummary(cl.runtime());
            emitTrace(trace, trace_path);
            if (!report_path.empty()) {
                stats::telemetry::RunReport report("jobs");
                report.setInfo("topology", topo.name());
                report.setInfo("scheduler",
                               schedulerKindName(ccfg.scheduler));
                report.setInfo("policy", ccfg.priority.describe());
                report.setInfo("run", "free-running");
                if (!faults_arg.empty())
                    report.setInfo("faults", faults_arg);
                report.setNumber("makespan_ns", rep.makespan);
                report.setNumber("fabric_utilization",
                                 rep.fabric_utilization);
                report.setNumber("total_bytes", rep.total_bytes);
                if (adapt)
                    reportAdaptation(report, cl.runtime());
                report.addSection("jobs", jobsJson(rep.jobs));
                report.addSection("classes",
                                  classesJson(rep.classes));
                if (!faults_arg.empty())
                    report.addSection(
                        "fault",
                        faultJson(faultRows(
                            topo, cl.runtime().utilization())));
                emitReport(report, report_path, &telem);
            }
            return 0;
        }

        if (iterations >= 1) {
            // Multi-iteration convergence run: train --model on
            // --topo under --sched for N iterations through the
            // steady-state replay engine.
            PlanCache cache;
            cfg.plan_cache = &cache;
            sim::EventQueue queue;
            runtime::CommRuntime comm(queue, topo, cfg);
            workload::TrainingLoop loop(comm,
                                        models::byName(model_arg));
            workload::ConvergenceOptions opts;
            opts.iterations = iterations;
            opts.replay = !no_replay;
            opts.exactness_check = exactness;
            opts.cycle_limit = cycle_limit;
            const auto t0 = std::chrono::steady_clock::now();
            const auto r = workload::runConverged(comm, loop, opts);
            const double wall_ms =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();

            std::printf("%s", topo.describe().c_str());
            std::printf("\n%s x %d training iterations under %s%s:\n\n",
                        model_arg.c_str(), iterations,
                        schedulerKindName(cfg.scheduler).c_str(),
                        exactness ? " (exactness-check mode)" : "");
            stats::ConvergenceRunRow row;
            row.label = exactness ? "exactness"
                                  : (no_replay ? "full" : "replay");
            row.iterations = r.iterations;
            row.simulated = r.simulated_iterations;
            row.replayed = r.replayed_iterations;
            row.cycle_length = r.cycle_length;
            row.total_time = r.total.total;
            row.last_iteration = r.last.total;
            row.utilization = r.utilization;
            row.wall_ms = wall_ms;
            std::printf("%s",
                        stats::renderConvergenceTable({row}).c_str());

            std::printf("\n  per-iteration decomposition (steady): "
                        "fwd %s, bwd %s, exposed MP %s, exposed DP "
                        "%s\n",
                        fmtTime(r.last.fwd_compute).c_str(),
                        fmtTime(r.last.bwd_compute).c_str(),
                        fmtTime(r.last.exposed_mp).c_str(),
                        fmtTime(r.last.exposed_dp).c_str());
            if (r.steady_at >= 0) {
                std::printf("  steady state at iteration %d "
                            "(fingerprint %016llx)%s\n",
                            r.steady_at,
                            static_cast<unsigned long long>(
                                r.steady_fingerprint),
                            exactness ? ", replay prediction asserted "
                                        "bit-identical"
                                      : "");
            } else if (exactness) {
                // A vacuous pass would defeat the proof mode (and the
                // CI smoke built on it): no steady state means the
                // exactness assertions never executed.
                THEMIS_FATAL(
                    "--exact: steady state was never reached, so "
                    "nothing was asserted; raise --iterations or "
                    "check why iterations stopped repeating");
            } else {
                std::printf("  steady state not reached; every "
                            "iteration simulated\n");
            }
            std::printf("  %ld collectives, %llu chunk ops, plan "
                        "cache %zu plans\n",
                        r.collectives,
                        static_cast<unsigned long long>(r.ops),
                        cache.planCount());
            // Fault counters are per-iteration-epoch state (they are
            // mixed into the epoch fingerprint, so steady-state
            // detection sees fault activity); the report therefore
            // covers the last simulated iteration, not the whole run.
            if (!faults_arg.empty())
                std::printf("\nfault report, last simulated iteration "
                            "(--faults \"%s\"):\n%s",
                            faults_arg.c_str(),
                            stats::renderFaultTable(
                                faultRows(topo, comm.utilization()))
                                .c_str());
            if (adapt)
                printAdaptationSummary(comm);
            comm.publishTelemetry();
            emitTrace(trace, trace_path);
            if (!report_path.empty()) {
                stats::telemetry::RunReport report("iterations");
                report.setInfo("topology", topo.name());
                report.setInfo("model", model_arg);
                report.setInfo("scheduler",
                               schedulerKindName(cfg.scheduler));
                report.setInfo("run",
                               exactness
                                   ? "exactness"
                                   : (no_replay ? "full" : "replay"));
                if (!faults_arg.empty())
                    report.setInfo("faults", faults_arg);
                report.setNumber("iterations", r.iterations);
                report.setNumber("simulated_iterations",
                                 r.simulated_iterations);
                report.setNumber("replayed_iterations",
                                 r.replayed_iterations);
                report.setNumber("cycle_length", r.cycle_length);
                report.setNumber("steady_at", r.steady_at);
                report.setNumber("total_ns", r.total.total);
                report.setNumber("iteration_ns", r.last.total);
                report.setNumber("utilization", r.utilization);
                report.setNumber("collectives",
                                 static_cast<double>(r.collectives));
                report.setNumber("chunk_ops",
                                 static_cast<double>(r.ops));
                report.setNumber("wall_ms", wall_ms);
                report.setNumber("plan_cache_plans",
                                 static_cast<double>(
                                     cache.planCount()));
                if (adapt)
                    reportAdaptation(report, comm);
                if (!faults_arg.empty())
                    report.addSection(
                        "fault", faultJson(faultRows(
                                     topo, comm.utilization())));
                emitReport(report, report_path, &telem);
            }
            return 0;
        }

        if (priority_ratio >= 1.0) {
            // Two-tenant priority demo: an urgent All-Reduce chain
            // (--size / 32 per collective) contends with bulk
            // All-Reduces of --size under the priority-aware Themis
            // scheduler. Solo runs of each tenant provide the
            // slowdown baselines.
            runtime::RuntimeConfig pcfg = runtime::themisScfConfig();
            pcfg.scheduler = SchedulerKind::ThemisPriority;
            pcfg.enforce_consistent_order = enforce;
            if (priority_ratio > 1.0)
                pcfg.priority = PriorityPolicy::tiered(priority_ratio);
            const int chain = 8, bulk_count = 2;
            const Bytes hi_size = size / 32.0;

            struct TenantRun
            {
                TimeNs hi_mean = 0.0, lo_mean = 0.0, makespan = 0.0;
            };
            auto run_tenants = [&](bool run_hi, bool run_lo,
                                   sim::EventQueue& queue,
                                   runtime::CommRuntime& comm) {
                int hi_remaining = run_hi ? chain : 0;
                std::vector<int> hi_ids, lo_ids;
                std::function<void()> issue_hi = [&] {
                    if (hi_remaining == 0)
                        return;
                    --hi_remaining;
                    CollectiveRequest r;
                    r.type = CollectiveType::AllReduce;
                    r.size = hi_size;
                    r.priority_tier =
                        static_cast<int>(PriorityTier::Urgent);
                    hi_ids.push_back(comm.issue(r, [&] { issue_hi(); }));
                };
                if (run_hi)
                    issue_hi();
                for (int i = 0; run_lo && i < bulk_count; ++i) {
                    CollectiveRequest r;
                    r.type = CollectiveType::AllReduce;
                    r.size = size;
                    r.priority_tier =
                        static_cast<int>(PriorityTier::Bulk);
                    lo_ids.push_back(comm.issue(r));
                }
                queue.run();
                comm.finalizeStats();
                TenantRun out;
                out.makespan = queue.now();
                for (int cid : hi_ids)
                    out.hi_mean += comm.record(cid).duration();
                if (!hi_ids.empty())
                    out.hi_mean /= static_cast<double>(hi_ids.size());
                for (int cid : lo_ids)
                    out.lo_mean += comm.record(cid).duration();
                if (!lo_ids.empty())
                    out.lo_mean /= static_cast<double>(lo_ids.size());
                return out;
            };

            sim::EventQueue q_hi, q_lo, q_both;
            runtime::CommRuntime solo_hi_comm(q_hi, topo, pcfg);
            const TenantRun solo_hi =
                run_tenants(true, false, q_hi, solo_hi_comm);
            runtime::CommRuntime solo_lo_comm(q_lo, topo, pcfg);
            const TenantRun solo_lo =
                run_tenants(false, true, q_lo, solo_lo_comm);
            runtime::CommRuntime both_comm(q_both, topo, pcfg);
            const TenantRun both =
                run_tenants(true, true, q_both, both_comm);

            std::printf("%s", topo.describe().c_str());
            std::printf("\npriority contention demo (%s, policy %s):\n"
                        "  urgent tenant: %d x %s AR chain; bulk "
                        "tenant: %d x %s AR\n\n",
                        schedulerKindName(pcfg.scheduler).c_str(),
                        pcfg.priority.describe().c_str(), chain,
                        fmtBytes(hi_size).c_str(), bulk_count,
                        fmtBytes(size).c_str());
            std::vector<stats::ClassUsageRow> rows;
            for (const auto& c : both_comm.classReports()) {
                stats::ClassUsageRow row;
                row.name = pcfg.priority.isUniform()
                               ? "all (uniform)"
                               : priorityTierName(c.tier);
                row.weight = c.weight;
                row.collectives = c.completed;
                row.mean_duration = c.mean_duration;
                row.progressed = c.progressed;
                row.utilization = c.utilization;
                // Per-class slowdowns only make sense when classes
                // are separated: under the uniform policy (W = 1)
                // class 0 mixes both tenants, and dividing its mean
                // by a single tenant's solo baseline would be
                // meaningless (the per-tenant means print below).
                if (!pcfg.priority.isUniform()) {
                    if (c.tier ==
                            static_cast<int>(PriorityTier::Urgent) &&
                        solo_hi.hi_mean > 0.0)
                        row.slowdown =
                            c.mean_duration / solo_hi.hi_mean;
                    if (c.tier ==
                            static_cast<int>(PriorityTier::Bulk) &&
                        solo_lo.lo_mean > 0.0)
                        row.slowdown =
                            c.mean_duration / solo_lo.lo_mean;
                }
                rows.push_back(row);
            }
            std::printf("%s", stats::renderClassTable(rows).c_str());
            std::printf("\n  contended makespan : %s\n",
                        fmtTime(both.makespan).c_str());
            std::printf("  urgent mean  %s (solo %s)\n",
                        fmtTime(both.hi_mean).c_str(),
                        fmtTime(solo_hi.hi_mean).c_str());
            std::printf("  bulk mean    %s (solo %s)\n",
                        fmtTime(both.lo_mean).c_str(),
                        fmtTime(solo_lo.lo_mean).c_str());
            if (!report_path.empty()) {
                stats::telemetry::RunReport report("priority");
                report.setInfo("topology", topo.name());
                report.setInfo("policy", pcfg.priority.describe());
                report.setNumber("contended_makespan_ns",
                                 both.makespan);
                report.setNumber("urgent_mean_ns", both.hi_mean);
                report.setNumber("urgent_solo_ns", solo_hi.hi_mean);
                report.setNumber("bulk_mean_ns", both.lo_mean);
                report.setNumber("bulk_solo_ns", solo_lo.lo_mean);
                report.addSection(
                    "classes",
                    classesJson(both_comm.classReports()));
                emitReport(report, report_path, &telem);
            }
            return 0;
        }

        if (!grid_arg.empty() || !sweep_arg.empty()) {
            // Topology-list grid: every listed platform x all three
            // schedulers (x the --sweep chunk counts when given, x
            // the --jobs cluster mixes when given), one independent
            // simulation per cell, one plan cache shared read-mostly
            // across the grid's workers. A bare --sweep is the
            // one-topology grid over --topo.
            //
            // Cells are enumerated into a canonical ordered list by
            // pure index arithmetic, so every process — whatever its
            // --shard — agrees on cell order and keys; --shard i/N
            // owns the strided subset, --results streams completed
            // cells to a crash-safe journal whose recorded cells are
            // skipped on restart, and --max-cells caps fresh work to
            // interrupt a run deterministically (resume testing).
            std::vector<GridTopo> grid_topos;
            if (!grid_arg.empty())
                grid_topos = parseGridList(grid_arg);
            else
                grid_topos.push_back({topo_arg, topo});
            std::vector<int> chunk_list;
            if (!sweep_arg.empty()) {
                for (const auto& tok : split(sweep_arg, ','))
                    chunk_list.push_back(std::atoi(tok.c_str()));
                for (int c : chunk_list)
                    if (c < 1)
                        THEMIS_FATAL("bad --sweep chunk count list '"
                                     << sweep_arg << "'");
            } else {
                chunk_list.push_back(chunks);
            }
            const int cluster_iters = iterations >= 1 ? iterations : 3;
            std::vector<JobsMix> mixes;
            if (!jobs_arg.empty())
                mixes = parseJobsMixes(jobs_arg, cluster_iters);
            const std::vector<SchedulerSetup> setups =
                schedulerSetups();
            const std::size_t n_mix =
                mixes.empty() ? 1 : mixes.size();
            const std::size_t per_mix =
                chunk_list.size() * setups.size();
            const std::size_t per_topo = n_mix * per_mix;
            const std::size_t cells = grid_topos.size() * per_topo;

            // Canonical cell decomposition, topology-major:
            // (topo, mix, chunks, scheduler).
            const auto cellTopo = [&](std::size_t i) {
                return i / per_topo;
            };
            const auto cellMix = [&](std::size_t i) {
                return i % per_topo / per_mix;
            };
            const auto cellChunks = [&](std::size_t i) {
                return chunk_list[i % per_mix / setups.size()];
            };
            const auto cellSched = [&](std::size_t i) {
                return i % setups.size();
            };
            const auto cellKey = [&](std::size_t i) {
                std::vector<std::pair<std::string, std::string>> kv = {
                    {"topo", grid_topos[cellTopo(i)].token},
                    {"sched", setups[cellSched(i)].name},
                    {"chunks", std::to_string(cellChunks(i))},
                    {"enforce", enforce ? "1" : "0"}};
                if (mixes.empty()) {
                    kv.push_back({"type", type_arg});
                    kv.push_back({"size", keyDouble(req.size)});
                } else {
                    // Mix specs contain '=' (reserved in keys), so
                    // the jobs field is a content hash of the mix.
                    kv.push_back(
                        {"jobs",
                         hex16(fnv1a(mixes[cellMix(i)].token.data(),
                                     mixes[cellMix(i)].token.size()))});
                    kv.push_back({"tiers", keyDouble(tier_ratio)});
                }
                return sim::makeResultKey(std::move(kv));
            };

            sim::ShardSpec shard;
            if (!shard_arg.empty())
                shard = sim::parseShardSpec(shard_arg);
            const std::vector<std::size_t> owned =
                sim::shardCells(cells, shard);
            std::unique_ptr<sim::ResultStore> store;
            if (!results_path.empty())
                store =
                    std::make_unique<sim::ResultStore>(results_path);

            std::vector<std::size_t> pending;
            for (std::size_t cell : owned)
                if (store == nullptr || !store->has(cellKey(cell)))
                    pending.push_back(cell);
            const std::size_t resumed = owned.size() - pending.size();
            bool interrupted = false;
            if (max_cells > 0 &&
                pending.size() >
                    static_cast<std::size_t>(max_cells)) {
                pending.resize(static_cast<std::size_t>(max_cells));
                interrupted = true;
            }

            PlanCache cache;
            const double t0 = nowMs();
            const auto fresh = sim::sweepIndexed(
                pending.size(),
                [&](std::size_t j, sim::EventQueue& queue) {
                    const std::size_t i = pending[j];
                    const double c0 = nowMs();
                    CellOutcome out;
                    runtime::RuntimeConfig run_cfg =
                        setups[cellSched(i)].cfg;
                    run_cfg.enforce_consistent_order = enforce;
                    run_cfg.plan_cache = &cache;
                    const Topology& cell_topo =
                        grid_topos[cellTopo(i)].topo;
                    if (mixes.empty()) {
                        CollectiveRequest r = req;
                        r.chunks = cellChunks(i);
                        runtime::CommRuntime comm(queue, cell_topo,
                                                  run_cfg);
                        const int cid = comm.issue(r);
                        queue.run();
                        comm.finalizeStats();
                        out.values = {
                            {"time_ns", comm.record(cid).duration()},
                            {"util", comm.utilization()
                                         .weightedUtilization()}};
                    } else {
                        // One cluster co-simulation per cell, under
                        // the same tiered policy the standalone
                        // cluster mode uses.
                        runtime::RuntimeConfig ccfg = run_cfg;
                        if (ccfg.scheduler == SchedulerKind::Themis &&
                            tier_ratio > 1.0)
                            ccfg.scheduler =
                                SchedulerKind::ThemisPriority;
                        ccfg.priority =
                            PriorityPolicy::tiered(tier_ratio);
                        ccfg.default_chunks = cellChunks(i);
                        cluster::Cluster cl(queue, cell_topo, ccfg,
                                            mixes[cellMix(i)].specs);
                        const auto rep = cl.run();
                        out.values = {
                            {"makespan_ns", rep.makespan},
                            {"fabric_util", rep.fabric_utilization},
                            {"total_bytes", rep.total_bytes}};
                    }
                    out.wall_ms = nowMs() - c0;
                    return out;
                },
                sim::SweepOptions{jobs});
            const double wall_ms = nowMs() - t0;

            // Stream the fresh cells to the journal in canonical cell
            // order (pending is ascending), so independently produced
            // shard journals merge deterministically.
            if (store != nullptr) {
                for (std::size_t j = 0; j < pending.size(); ++j) {
                    sim::ResultRecord rec;
                    rec.key = cellKey(pending[j]);
                    rec.values = fresh[j].values;
                    rec.fingerprint =
                        valuesFingerprint(fresh[j].values);
                    rec.wall_ms = fresh[j].wall_ms;
                    store->append(std::move(rec));
                }
            }

            if (mixes.empty())
                std::printf("%s of %s, %zu-cell grid over %zu "
                            "topologies:\n\n",
                            collectiveTypeName(req.type).c_str(),
                            fmtBytes(req.size).c_str(), cells,
                            grid_topos.size());
            else
                std::printf("%zu-mix cluster grid, %zu cells over "
                            "%zu topologies (policy tiered(%g)):\n\n",
                            mixes.size(), cells, grid_topos.size(),
                            tier_ratio);
            stats::TextTable t(
                mixes.empty()
                    ? std::vector<std::string>{"Topology", "Chunks",
                                               "Scheduler", "Time",
                                               "Avg BW util"}
                    : std::vector<std::string>{"Topology", "Jobs",
                                               "Chunks", "Scheduler",
                                               "Makespan",
                                               "Fabric util"});
            const auto valueOf =
                [](const std::vector<std::pair<std::string, double>>&
                       vals,
                   const char* name) {
                    for (const auto& [n, v] : vals)
                        if (n == name)
                            return v;
                    return 0.0;
                };
            // Cells section for --report: one object per evaluated
            // cell (key + values), built alongside the table.
            stats::telemetry::JsonWriter cellw;
            cellw.beginArray();
            std::size_t jp = 0;
            for (std::size_t cell : owned) {
                const std::vector<std::pair<std::string, double>>*
                    vals = nullptr;
                if (jp < pending.size() && pending[jp] == cell) {
                    vals = &fresh[jp].values;
                    ++jp;
                } else if (store != nullptr) {
                    const auto* rec = store->find(cellKey(cell));
                    if (rec != nullptr)
                        vals = &rec->values;
                }
                if (vals == nullptr)
                    continue; // beyond the --max-cells cap
                if (!report_path.empty()) {
                    cellw.beginObject();
                    cellw.key("key").value(cellKey(cell));
                    cellw.key("values").beginObject();
                    for (const auto& [n, v] : *vals)
                        cellw.key(n).value(v);
                    cellw.endObject();
                    cellw.endObject();
                }
                const std::string topo_name =
                    grid_topos[cellTopo(cell)].topo.name();
                if (mixes.empty()) {
                    t.addRow({topo_name,
                              std::to_string(cellChunks(cell)),
                              setups[cellSched(cell)].name,
                              fmtTime(valueOf(*vals, "time_ns")),
                              fmtPercent(valueOf(*vals, "util"))});
                } else {
                    t.addRow(
                        {topo_name, mixes[cellMix(cell)].token,
                         std::to_string(cellChunks(cell)),
                         setups[cellSched(cell)].name,
                         fmtTime(valueOf(*vals, "makespan_ns")),
                         fmtPercent(valueOf(*vals, "fabric_util"))});
                }
            }
            std::printf("%s", t.render().c_str());
            if (!shard.whole() || store != nullptr) {
                std::printf("\nshard %d/%d: %zu of %zu cells owned, "
                            "%zu resumed from store, %zu simulated%s",
                            shard.index, shard.count, owned.size(),
                            cells, resumed, pending.size(),
                            interrupted
                                ? " (interrupted by --max-cells)"
                                : "");
                if (store != nullptr) {
                    std::printf("; store %s (%zu records%s)",
                                store->path().c_str(), store->size(),
                                store->recoveredTruncatedTail()
                                    ? ", truncated tail recovered"
                                    : "");
                }
                std::printf("\n");
            }
            const auto cache_stats = cache.stats();
            std::printf("\n%.1f ms wall (%.1f cells/sec over %zu "
                        "simulated cells); plan cache %zu plans, "
                        "%llu hits / %llu misses\n",
                        wall_ms,
                        static_cast<double>(pending.size()) /
                            (wall_ms * 1e-3),
                        pending.size(), cache.planCount(),
                        static_cast<unsigned long long>(
                            cache_stats.plan_hits),
                        static_cast<unsigned long long>(
                            cache_stats.plan_misses));
            if (!report_path.empty()) {
                cellw.endArray();
                stats::telemetry::RunReport report("grid");
                if (!grid_arg.empty())
                    report.setInfo("grid", grid_arg);
                else
                    report.setInfo("topology", topo_arg);
                if (!sweep_arg.empty())
                    report.setInfo("sweep", sweep_arg);
                if (!jobs_arg.empty())
                    report.setInfo("jobs", jobs_arg);
                if (!shard_arg.empty())
                    report.setInfo("shard", shard_arg);
                telem.metrics.gauge("grid.cells.total")
                    .set(static_cast<double>(cells));
                telem.metrics.gauge("grid.cells.owned")
                    .set(static_cast<double>(owned.size()));
                telem.metrics.gauge("grid.cells.resumed")
                    .set(static_cast<double>(resumed));
                telem.metrics.gauge("grid.cells.simulated")
                    .set(static_cast<double>(pending.size()));
                report.setNumber("cells",
                                 static_cast<double>(cells));
                report.setNumber("owned",
                                 static_cast<double>(owned.size()));
                report.setNumber("resumed",
                                 static_cast<double>(resumed));
                report.setNumber("simulated", static_cast<double>(
                                                  pending.size()));
                report.setNumber("wall_ms", wall_ms);
                report.setNumber("plan_cache_plans",
                                 static_cast<double>(
                                     cache.planCount()));
                report.setNumber("plan_cache_hits",
                                 static_cast<double>(
                                     cache_stats.plan_hits));
                report.setNumber("plan_cache_misses",
                                 static_cast<double>(
                                     cache_stats.plan_misses));
                report.addSection("cells", cellw.str());
                emitReport(report, report_path, &telem);
            }
            return 0;
        }

        std::printf("%s", topo.describe().c_str());
        for (const auto& pair : classifyAllPairs(topo)) {
            std::printf("  dim%d vs dim%d: %s (ratio %.2f)\n",
                        pair.dim_k + 1, pair.dim_l + 1,
                        provisionScenarioName(pair.scenario).c_str(),
                        pair.ratio);
        }

        sim::EventQueue queue;
        // The runtime attaches telem.trace itself when the config
        // carries the telemetry sink (set above for this mode).
        runtime::CommRuntime comm(queue, topo, cfg);
        const int id = comm.issue(req);
        queue.run();
        comm.finalizeStats();
        emitTrace(trace, trace_path);

        const auto& rec = comm.record(id);
        std::printf("\n%s of %s in %d chunks under %s%s:\n",
                    collectiveTypeName(req.type).c_str(),
                    fmtBytes(req.size).c_str(), chunks,
                    sched_arg == "base" ? "Baseline"
                                        : ("Themis+" + sched_arg).c_str(),
                    enforce ? " (enforced order)" : "");
        std::printf("  time        : %s\n",
                    fmtTime(rec.duration()).c_str());
        std::printf("  avg BW util : %s\n",
                    fmtPercent(comm.utilization().weightedUtilization())
                        .c_str());
        const auto per_dim = comm.utilization().perDimUtilization();
        for (std::size_t d = 0; d < per_dim.size(); ++d)
            std::printf("  dim%zu util  : %s\n", d + 1,
                        fmtPercent(per_dim[d]).c_str());
        const auto model = LatencyModel::fromTopology(topo);
        std::printf("  ideal       : %s (size / total BW)\n",
                    fmtTime(idealCollectiveTime(req.type, req.size,
                                                model))
                        .c_str());
        if (!faults_arg.empty())
            std::printf("\nfault report (--faults \"%s\"):\n%s",
                        faults_arg.c_str(),
                        stats::renderFaultTable(
                            faultRows(topo, comm.utilization()))
                            .c_str());
        if (adapt)
            printAdaptationSummary(comm);

        if (validate) {
            // Re-simulate with every NPU modelled individually; on a
            // symmetric platform the two backends must agree.
            auto sched = makeScheduler(cfg.scheduler, model,
                                       cfg.themis);
            const auto schedules = sched->scheduleCollective(
                req.type,
                schedulableSize(req.type, req.size, model.dimSizes()),
                req.chunks);
            npu::NpuSimConfig npu_cfg;
            npu_cfg.policy = cfg.intra_policy;
            npu_cfg.admission = cfg.admission;
            const auto per_npu = npu::simulatePerNpu(
                topo, req.type, schedules, npu_cfg);
            std::printf("  per-NPU     : %s on %ld NPUs (%s; error "
                        "%.4f%%)\n",
                        fmtTime(per_npu.makespan).c_str(),
                        topo.totalNpus(),
                        per_npu.completed ? "completed" : "DEADLOCK",
                        100.0 *
                            std::abs(per_npu.makespan -
                                     rec.duration()) /
                            rec.duration());
        }
        if (!report_path.empty()) {
            stats::telemetry::RunReport report("single");
            report.setInfo("topology", topo.name());
            report.setInfo("collective",
                           collectiveTypeName(req.type));
            report.setInfo("scheduler",
                           schedulerKindName(cfg.scheduler));
            if (!faults_arg.empty())
                report.setInfo("faults", faults_arg);
            report.setNumber("size_bytes", req.size);
            report.setNumber("chunks", chunks);
            report.setNumber("time_ns", rec.duration());
            report.setNumber(
                "utilization",
                comm.utilization().weightedUtilization());
            report.setNumber("ideal_ns",
                             idealCollectiveTime(req.type, req.size,
                                                 model));
            if (adapt)
                reportAdaptation(report, comm);
            if (!faults_arg.empty())
                report.addSection("fault",
                                  faultJson(faultRows(
                                      topo, comm.utilization())));
            emitReport(report, report_path, &telem);
        }
        return 0;
    } catch (const runtime::RetryExhaustedError& e) {
        // A transfer ran out of retry budget: surface the structured
        // report as a readable diagnostic and exit distinctly so
        // scripts can tell "fabric gave up" from a config mistake.
        const auto& r = e.report();
        std::fprintf(stderr,
                     "fatal: retry budget exhausted on dim%d "
                     "(collective %d chunk %d stage %d, %d attempts, "
                     "%s re-sent); raise retry max attempts or "
                     "shorten the fault windows\n",
                     r.dim + 1, r.op.collective_id, r.op.chunk_id,
                     r.op.stage_index, r.attempts,
                     fmtBytes(r.lost_bytes).c_str());
        // With telemetry armed, replay the flight-recorder tail —
        // the last events leading into the exhaustion — and persist
        // the partial artifacts for post-mortem.
        const auto events = telem.recorder.events();
        if (!events.empty()) {
            const std::size_t tail =
                std::min<std::size_t>(events.size(), 16);
            std::fprintf(
                stderr,
                "flight recorder (last %zu of %llu event(s)):\n",
                tail,
                static_cast<unsigned long long>(
                    telem.recorder.totalRecorded()));
            for (std::size_t i = events.size() - tail;
                 i < events.size(); ++i)
                std::fprintf(stderr, "  %s\n",
                             stats::telemetry::describeFlightEvent(
                                 events[i])
                                 .c_str());
        }
        if (!trace_path.empty()) {
            trace.writeFile(trace_path);
            std::fprintf(stderr, "trace (partial): %s\n",
                         trace_path.c_str());
        }
        if (!report_path.empty()) {
            stats::telemetry::RunReport report("fatal");
            report.setInfo("error", "retry budget exhausted");
            report.setNumber("dim", r.dim);
            report.setNumber("attempts", r.attempts);
            report.setNumber("lost_bytes", r.lost_bytes);
            report.setNumber("collective", r.op.collective_id);
            report.setNumber("chunk", r.op.chunk_id);
            report.setNumber("stage", r.op.stage_index);
            report.attachMetrics(&telem.metrics);
            report.attachRecorder(&telem.recorder);
            report.writeFile(report_path);
            std::fprintf(stderr, "report (mode fatal): %s\n",
                         report_path.c_str());
        }
        return 2;
    } catch (const ConfigError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

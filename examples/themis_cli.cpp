/**
 * @file
 * Command-line collective simulator: the whole library behind one
 * flag-driven binary, for quick what-if studies on custom platforms.
 *
 * Each invocation runs exactly one mode, the first that matches:
 *
 *   --merge OUT,IN...  canonical merge of shard result stores
 *   --serve            memoized what-if query loop over stdin
 *   --jobs SPECS       multi-job cluster co-simulation on --topo
 *                      (free-running, or lockstep convergence replay
 *                      with --exact/--no-replay/--cycle-limit)
 *   --iterations N     multi-iteration convergence run of --model
 *   --priority W       two-tenant priority contention demo
 *   --grid / --sweep   every scheduler across a topology list, chunk
 *                      counts and --jobs cluster mixes (sharded,
 *                      resumable, memoized)
 *   (none)             one collective on --topo
 *
 * Every flag is one row of kFlags: its value parser, its help text
 * and the modes that read it. usage() prints that table (README.md
 * carries the same flag x mode matrix), and a flag given to a mode
 * that does not read it, or overridden there by another flag (--topo
 * by --grid, --chunks by --sweep, --type/--size by --jobs mixes,
 * --tier-ratio by their absence), is a ConfigError instead of being
 * dropped.
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
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "cluster/cluster.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/string_util.hpp"
#include "core/ideal_estimator.hpp"
#include "core/priority_policy.hpp"
#include "core/splitter.hpp"
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
using stats::telemetry::RunReport;
using stats::telemetry::Telemetry;

namespace {

/** Run modes, one bit each so a flag row can list its readers. */
enum Mode : unsigned
{
    kMerge = 1u << 0,
    kServe = 1u << 1,
    kCluster = 1u << 2,
    kIterations = 1u << 3,
    kPriority = 1u << 4,
    kGrid = 1u << 5,
    kSingle = 1u << 6,
};

/** Modes that drive one runtime (faults, adaptation, tracing). */
constexpr unsigned kOneRuntime = kSingle | kIterations | kCluster;
constexpr unsigned kSimulating = kOneRuntime | kPriority | kGrid | kServe;
constexpr unsigned kAllModes = kSimulating | kMerge;

/** Mode names, in selection order (see pickMode). */
const std::pair<Mode, const char*> kModeNames[] = {
    {kMerge, "--merge"},          {kServe, "--serve"},
    {kCluster, "--jobs cluster"}, {kIterations, "--iterations"},
    {kPriority, "--priority"},    {kGrid, "--grid/--sweep"},
    {kSingle, "single-collective"}};

/** Comma-separated names of the modes in @p modes. */
std::string
modeNames(unsigned modes)
{
    std::vector<std::string> names;
    for (const auto& [mode, name] : kModeNames)
        if (modes & mode)
            names.push_back(name);
    return join(names, ", ");
}

/** Every flag value, defaults included (see kFlags). */
struct Options
{
    Mode mode = kSingle;
    std::string topo = "3D-SW_SW_SW_homo", type = "ar", sched = "scf";
    std::string model = "Transformer-1T";
    Bytes size = 1.0e9;
    int chunks = 64, iterations = 0, max_cells = 0;
    int cycle_limit = 0; // 0 = auto (job-mix hyper-period)
    /** --jobs: sweep worker threads (0 = hardware concurrency), or,
     *  when not an integer, a cluster spec list. */
    std::optional<int> jobs;
    std::string jobs_spec;
    std::string trace, report, sweep, grid, shard, results, merge, faults;
    std::optional<sim::FaultTimeline> fault_tl;
    double priority = 0.0, tier_ratio = 4.0, replan_threshold = 0.05;
    bool enforce = false, validate = false, serve = false;
    bool offset_search = false, exact = false, no_replay = false;
    bool adapt = false;
};

/** Strict integer value of @p flag, at least @p min. */
int
intFlag(const std::string& v, const char* flag, int min)
{
    const int n = parseInt(v, flag);
    if (n < min)
        THEMIS_FATAL(flag << " '" << v << "' must be >= " << min);
    return n;
}

/** Strict finite value of @p flag, at least @p min (above when @p strict). */
double
numberFlag(const std::string& v, const char* flag, double min,
           bool strict)
{
    const double x = parseNumber(v, flag);
    if (x < min || (strict && x == min))
        THEMIS_FATAL(flag << " '" << v << "' must be "
                          << (strict ? "> " : ">= ") << min);
    return x;
}

/**
 * Value of a weight-ratio flag (--priority, --tier-ratio), checked by
 * PriorityPolicy::tiered so the CLI accepts exactly the ratios the
 * policy does.
 */
double
ratioFlag(const std::string& v, const char* flag)
{
    const double ratio = parseNumber(v, flag);
    try {
        PriorityPolicy::tiered(ratio);
    } catch (const ConfigError& e) {
        THEMIS_FATAL(flag << ": " << e.what());
    }
    return ratio;
}

/** The --type / type= collective tokens. */
const std::pair<const char*, CollectiveType> kTypes[] = {
    {"ar", CollectiveType::AllReduce},
    {"rs", CollectiveType::ReduceScatter},
    {"ag", CollectiveType::AllGather},
    {"a2a", CollectiveType::AllToAll}};

std::optional<CollectiveType>
collectiveType(const std::string& tok)
{
    for (const auto& [name, type] : kTypes)
        if (tok == name)
            return type;
    return std::nullopt;
}

/** One Table 3 scheduler: --sched/sched= token, name and config. */
struct SchedulerSetup
{
    const char* token;
    const char* name;
    runtime::RuntimeConfig cfg;
};

constexpr std::size_t kSchedulers = 3;

/** The three schedulers, in grid column order. */
const std::array<SchedulerSetup, kSchedulers>&
schedulerSetups()
{
    static const std::array<SchedulerSetup, kSchedulers> setups = {{
        {"base", "Baseline", runtime::baselineConfig()},
        {"fifo", "Themis+FIFO", runtime::themisFifoConfig()},
        {"scf", "Themis+SCF", runtime::themisScfConfig()}}};
    return setups;
}

std::optional<std::size_t>
schedIndex(const std::string& tok)
{
    const auto& setups = schedulerSetups();
    for (std::size_t i = 0; i < setups.size(); ++i)
        if (tok == setups[i].token)
            return i;
    return std::nullopt;
}

/** One command-line flag; see the file comment. */
struct Flag
{
    const char* name;
    /** Value placeholder; nullptr for a switch. */
    const char* metavar;
    const char* help;
    /** Modes that read the flag. */
    unsigned modes;
    void (*apply)(Options& o, const std::string& value);
    /** Within those modes, the flag that overrides this one (with
     *  why), or nullptr while this one is read. */
    const char* (*overridden)(const Options& o) = nullptr;
};

using V = const std::string&;

/** The override of the collective's --type/--size on a mix grid. */
const char*
byJobsMixes(const Options& o)
{
    return o.mode == kGrid && !o.jobs_spec.empty()
               ? "--jobs, which lists the cluster mixes" : nullptr;
}

const Flag kFlags[] = {
    {"--topo", "NAME|SPEC", "Table 2 preset or spec SW:16:200x6:700,... "
     "(topology/parse.hpp) [3D-SW_SW_SW_homo]", kOneRuntime | kPriority |
     kGrid, [](Options& o, V v) { o.topo = v; },
     [](const Options& o) -> const char* {
         return o.mode == kGrid && !o.grid.empty()
                    ? "--grid, which lists the topologies" : nullptr;
     }},
    {"--type", "ar|rs|ag|a2a", "collective pattern [ar]",
     kSingle | kGrid | kServe, [](Options& o, V v) {
         o.type = toLower(v);
         if (!collectiveType(o.type))
             THEMIS_FATAL("bad --type '" << v << "' (ar|rs|ag|a2a)");
     }, byJobsMixes},
    {"--size", "BYTES", "per-NPU collective size [1e9]", kSingle | kGrid |
     kServe | kPriority,
     [](Options& o, V v) { o.size = numberFlag(v, "--size", 0, true); },
     byJobsMixes},
    {"--chunks", "N", "chunks per collective [64]", kSimulating,
     [](Options& o, V v) { o.chunks = intFlag(v, "--chunks", 1); },
     [](const Options& o) -> const char* {
         return o.mode == kGrid && !o.sweep.empty()
                    ? "--sweep, which lists the chunk counts" : nullptr;
     }},
    {"--sched", "base|fifo|scf", "scheduler [scf]", kOneRuntime,
     [](Options& o, V v) {
         o.sched = toLower(v);
         if (!schedIndex(o.sched))
             THEMIS_FATAL("bad --sched '" << v << "' (base|fifo|scf)");
     }},
    {"--enforce", nullptr, "pre-simulate and enforce chunk-op orders",
     kSimulating, [](Options& o, V) { o.enforce = true; }},
    {"--validate", nullptr, "cross-check against the per-NPU backend",
     kSingle, [](Options& o, V) { o.validate = true; }},
    {"--sweep", "C1,C2,...", "chunk counts to sweep", kGrid,
     [](Options& o, V v) { o.sweep = v; }},
    {"--grid", "T1;T2;...", "topologies to sweep, sharing a plan cache",
     kGrid, [](Options& o, V v) { o.grid = v; }},
    {"--jobs", "N|SPECS", "worker threads [hardware], or cluster specs "
     "train:MODEL[,k=v];infer:SIZE[,k=v] ('|' separates --grid mixes)",
     kServe | kCluster | kGrid, [](Options& o, V v) {
         // An integer keeps the historical meaning (worker threads).
         if (!v.empty() && v.find_first_not_of("0123456789") == v.npos)
             o.jobs = parseInt(v, "--jobs");
         else
             o.jobs_spec = v;
     },
     [](const Options& o) -> const char* {
         // Only the offset search runs a cluster on worker threads.
         static std::string why;
         if (o.mode != kCluster || !o.jobs || o.offset_search)
             return nullptr;
         why = "no --offset-search, so its thread count " +
               std::to_string(*o.jobs) + " goes unread";
         return why.c_str();
     }},
    {"--shard", "I/N", "own the grid cells with index = I mod N", kGrid,
     [](Options& o, V v) { o.shard = v; }},
    {"--results", "PATH", "append-only JSONL store: resume and memoize",
     kGrid | kServe, [](Options& o, V v) { o.results = v; }},
    {"--max-cells", "N", "stop after simulating N new cells", kGrid,
     [](Options& o, V v) { o.max_cells = intFlag(v, "--max-cells", 1); }},
    {"--merge", "OUT,IN...", "write the canonical merge of IN to OUT",
     kMerge, [](Options& o, V v) { o.merge = v; }},
    {"--serve", nullptr, "answer key=value what-if queries from stdin",
     kServe, [](Options& o, V) { o.serve = true; }},
    {"--priority", "W", "urgent AR chain at weight W vs bulk ARs",
     kPriority,
     [](Options& o, V v) { o.priority = ratioFlag(v, "--priority"); }},
    {"--tier-ratio", "W", "cluster weight ladder tiered(W) [4]",
     kCluster | kGrid,
     [](Options& o, V v) { o.tier_ratio = ratioFlag(v, "--tier-ratio"); },
     [](const Options& o) -> const char* {
         return o.mode == kGrid && o.jobs_spec.empty()
                    ? "no --jobs mixes, whose tiers it weights" : nullptr;
     }},
    {"--offset-search", nullptr, "phase-offset search; run the best",
     kCluster, [](Options& o, V) { o.offset_search = true; }},
    {"--iterations", "N", "training iterations or cluster rounds [3]",
     kIterations | kCluster,
     [](Options& o, V v) {
         o.iterations = intFlag(v, "--iterations", 1);
         workload::validateIterationCount(o.iterations);
     }},
    {"--model", "NAME", "model-zoo workload [Transformer-1T]",
     kIterations, [](Options& o, V v) { o.model = v; }},
    {"--exact", nullptr, "assert the replay bit-identical to full runs",
     kIterations | kCluster, [](Options& o, V) { o.exact = true; }},
    {"--no-replay", nullptr, "simulate every iteration",
     kIterations | kCluster, [](Options& o, V) { o.no_replay = true; }},
    {"--cycle-limit", "K", "largest replayable cycle, in rounds "
     "[hyper-period]; selects lockstep cluster runs", kIterations |
     kCluster, [](Options& o, V v) {
         o.cycle_limit = intFlag(v, "--cycle-limit", 1);
     }},
    {"--faults", "SPEC", "fault timeline (sim/fault_timeline.hpp)",
     kOneRuntime, [](Options& o, V v) {
         o.faults = v;
         o.fault_tl = sim::FaultTimeline::parse(v);
     }},
    {"--adapt", nullptr, "re-plan against degraded bandwidths",
     kOneRuntime, [](Options& o, V) { o.adapt = true; }},
    {"--replan-threshold", "T", "capacity change that re-plans [0.05]",
     kOneRuntime, [](Options& o, V v) {
         o.replan_threshold = numberFlag(v, "--replan-threshold", 0, false);
     }},
    {"--report", "PATH", "write a themis.run_report/1 JSON", kAllModes,
     [](Options& o, V v) { o.report = v; }},
    {"--trace", "PATH", "write a Perfetto/Chrome trace", kOneRuntime,
     [](Options& o, V v) { o.trace = v; }},
};

[[noreturn]] void
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s [options]\n"
                 "The first matching mode runs: %s (no mode flag).\n"
                 "A flag the mode does not read is an error.\n\n",
                 argv0, modeNames(kAllModes).c_str());
    for (const Flag& f : kFlags) {
        const std::string head =
            std::string(f.name) +
            (f.metavar != nullptr ? std::string(" ") + f.metavar : "");
        std::fprintf(stderr, "  %-22s %s\n  %-22s   modes: %s\n",
                     head.c_str(), f.help, "",
                     modeNames(f.modes).c_str());
    }
    std::exit(2);
}

/** The one mode this invocation runs (see kModeNames). */
Mode
pickMode(const Options& o)
{
    const bool grid = !o.grid.empty() || !o.sweep.empty();
    if (o.merge.empty() && o.serve && !o.jobs_spec.empty())
        THEMIS_FATAL("--jobs SPECS is not read by --serve runs; --serve "
                     "takes a worker count");
    return !o.merge.empty()                ? kMerge
           : o.serve                       ? kServe
           : !o.jobs_spec.empty() && !grid ? kCluster
           : o.iterations > 0              ? kIterations
           : o.priority > 0.0              ? kPriority
           : grid                          ? kGrid
                                           : kSingle;
}

/** Parse argv through kFlags, pick the mode, reject unread flags. */
Options
parseArgs(int argc, char** argv)
{
    Options o;
    std::vector<const Flag*> given;
    for (int i = 1; i < argc; ++i) {
        const auto it = std::find_if(
            std::begin(kFlags), std::end(kFlags),
            [&](const Flag& f) { return argv[i] == std::string(f.name); });
        if (it == std::end(kFlags) ||
            (it->metavar != nullptr && i + 1 >= argc))
            usage(argv[0]);
        it->apply(o, it->metavar != nullptr ? argv[++i] : "");
        given.push_back(&*it);
    }
    o.mode = pickMode(o);
    for (const Flag* f : given) {
        if ((f->modes & o.mode) == 0)
            THEMIS_FATAL(f->name << " is not read by "
                                 << modeNames(o.mode)
                                 << " runs; it applies to "
                                 << modeNames(f->modes));
        if (const char* by = f->overridden ? f->overridden(o) : nullptr)
            THEMIS_FATAL(f->name << " is not read by "
                                 << modeNames(o.mode) << " runs with "
                                 << by);
    }
    return o;
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
    std::size_t pos = 0;
    for (const std::string& tok : split(grid_arg, ';')) {
        const std::string where = "--grid entry " +
                                  std::to_string(out.size() + 1) +
                                  " (line 1, column " +
                                  std::to_string(pos + 1); // 1-based
        pos += tok.size() + 1;
        if (tok.find_first_not_of(" \t") == std::string::npos)
            THEMIS_FATAL(where << ") is empty; remove the stray ';' or "
                                  "name a topology");
        try {
            out.push_back({tok, resolveTopology(tok)});
        } catch (const ConfigError& e) {
            THEMIS_FATAL(where << "): '" << tok << "' is not a preset or "
                               << "topology spec: " << e.what());
        }
    }
    return out;
}

/** Parse a tier name (bulk|standard|urgent) or digit; -1 on failure. */
int
parseTier(const std::string& v)
{
    for (int t = 0; t <= static_cast<int>(PriorityTier::Urgent); ++t)
        if (toLower(v) == priorityTierName(t) || v == std::to_string(t))
            return t;
    return -1;
}

/**
 * Parse one --jobs cluster spec list (grammar: README, "--jobs spec
 * grammar"). Malformed entries are rejected with an entry/key
 * diagnostic rather than silently skipped.
 */
std::vector<cluster::JobSpec>
parseJobSpecs(const std::string& arg, int default_iterations)
{
    std::vector<cluster::JobSpec> specs;
    for (const std::string& tok : split(arg, ';')) {
        const std::string where =
            "--jobs entry " + std::to_string(specs.size() + 1);
        const std::vector<std::string> fields = split(tok, ',');
        const std::string& head = fields.front();
        const std::size_t colon = head.find(':');
        if (head.empty())
            THEMIS_FATAL(where << " is empty");
        if (colon == std::string::npos)
            THEMIS_FATAL(where << " ('" << head
                               << "'): expected train:MODEL or infer:SIZE");
        const std::string kind = toLower(head.substr(0, colon));
        const std::string head_arg = head.substr(colon + 1);
        cluster::JobSpec spec;
        if (kind == "train") {
            spec = cluster::JobSpec::training(models::byName(head_arg),
                                              default_iterations);
        } else if (kind == "infer") {
            const Bytes size = parseNumber(head_arg, where + " request size");
            if (size <= 0.0)
                THEMIS_FATAL(where << ": bad request size '" << head_arg
                                   << "'");
            // The period is set below; validate() then enforces a
            // positive period was supplied.
            spec = cluster::JobSpec::periodicInference(size, 0.0);
        } else {
            THEMIS_FATAL(where << ": unknown job kind '" << kind
                               << "' (train or infer)");
        }
        for (std::size_t f = 1; f < fields.size(); ++f) {
            const std::size_t eq = fields[f].find('=');
            if (eq == std::string::npos)
                THEMIS_FATAL(where << ": field '" << fields[f]
                                   << "' is not key=value");
            const std::string key = toLower(fields[f].substr(0, eq));
            const std::string val = fields[f].substr(eq + 1);
            const std::string what = where + " " + key;
            const bool train = kind == "train";
            if (key == "tier") {
                spec.priority_tier = parseTier(val);
                if (spec.priority_tier < 0)
                    THEMIS_FATAL(where << ": bad tier '" << val
                                       << "' (bulk|standard|urgent)");
            } else if (key == "arrival") {
                spec.arrival = parseNumber(val, what);
            } else if (key == "iterations" && train) {
                spec.iterations = parseInt(val, what);
            } else if (key == "period" && !train) {
                spec.period = parseNumber(val, what);
            } else if (key == "deadline" && !train) {
                spec.deadline = parseNumber(val, what);
            } else if (key == "requests" && !train) {
                spec.max_requests = parseInt(val, what);
            } else {
                THEMIS_FATAL(where << ": unknown key '" << key
                                   << "' for a " << kind << " job");
            }
        }
        if (spec.kind == cluster::JobKind::PeriodicInference &&
            spec.period <= 0.0)
            THEMIS_FATAL(where << ": infer jobs need period=NS (> 0)");
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
    for (const std::string& tok : split(arg, '|')) {
        const std::string where =
            "--jobs mix " + std::to_string(out.size() + 1);
        if (tok.find_first_not_of(" \t") == std::string::npos)
            THEMIS_FATAL(where << " is empty; remove the stray '|' or name "
                                  "jobs");
        try {
            out.push_back({tok, parseJobSpecs(tok, default_iterations)});
        } catch (const ConfigError& e) {
            THEMIS_FATAL(where << ": " << e.what());
        }
    }
    return out;
}

/** Named result values of one grid cell or --serve query. */
using Values = std::vector<std::pair<std::string, double>>;

/** One evaluated grid cell / --serve query: values + wall time. */
struct CellOutcome
{
    Values values;
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

/** JSON array of one object per item, filled in by @p fields. */
template <class T, class Fields>
std::string
jsonArray(const std::vector<T>& items, Fields fields)
{
    stats::telemetry::JsonWriter w;
    w.beginArray();
    for (const T& item : items) {
        w.beginObject();
        fields(w, item);
        w.endObject();
    }
    w.endArray();
    return w.str();
}

/** JSON array of per-job stats for the RunReport "jobs" section. */
std::string
jobsJson(const std::vector<cluster::JobStats>& jobs)
{
    return jsonArray(jobs, [](auto& w, const auto& j) {
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
    });
}

/** JSON array of fault rows for the RunReport "fault" section. */
std::string
faultJson(const std::vector<stats::FaultDimRow>& rows)
{
    return jsonArray(rows, [](auto& w, const auto& r) {
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
    });
}

/** JSON array of class rows for the RunReport "classes" section. */
std::string
classesJson(
    const std::vector<runtime::CommRuntime::ClassReport>& classes)
{
    return jsonArray(classes, [](auto& w, const auto& c) {
        w.key("tier").value(c.tier);
        w.key("name").value(priorityTierName(c.tier));
        w.key("weight").value(c.weight);
        w.key("issued").value(c.issued);
        w.key("completed").value(c.completed);
        w.key("mean_duration_ns").value(c.mean_duration);
        w.key("progressed_bytes").value(c.progressed);
        w.key("utilization").value(c.utilization);
    });
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

/**
 * The runtime config every simulating mode derives from: @p cfg (a
 * Table 3 scheduler config) plus --enforce, --chunks, --faults and
 * --adapt. Modes whose rows do not read a flag see its default here.
 */
runtime::RuntimeConfig
baseConfig(const Options& o, runtime::RuntimeConfig cfg)
{
    cfg.enforce_consistent_order = o.enforce;
    cfg.default_chunks = o.chunks;
    if (o.fault_tl)
        cfg.faults = &*o.fault_tl;
    cfg.adaptation.enabled = o.adapt;
    cfg.adaptation.replan_threshold = o.replan_threshold;
    return cfg;
}

/**
 * Config of the one-runtime modes (single collective, --iterations,
 * --jobs cluster): --sched's config, the fault timeline checked
 * against @p topo, and the telemetry sink whenever an artifact was
 * requested. The registry is single-threaded, so the batch modes run
 * cells on worker threads without it.
 */
runtime::RuntimeConfig
runConfig(const Options& o, const Topology& topo, Telemetry& telem)
{
    runtime::RuntimeConfig cfg =
        baseConfig(o, schedulerSetups()[*schedIndex(o.sched)].cfg);
    if (o.fault_tl)
        o.fault_tl->validateForDims(topo.numDims());
    if (!o.report.empty() || !o.trace.empty())
        cfg.telemetry = &telem;
    return cfg;
}

/**
 * Cluster runs: the Themis scheduler upgrades to its priority-aware
 * variant when a weight ladder is in play.
 */
runtime::RuntimeConfig
clusterConfig(runtime::RuntimeConfig cfg, double tier_ratio)
{
    if (cfg.scheduler == SchedulerKind::Themis && tier_ratio > 1.0)
        cfg.scheduler = SchedulerKind::ThemisPriority;
    cfg.priority = PriorityPolicy::tiered(tier_ratio);
    return cfg;
}

/**
 * Shared tail of the one-runtime modes: the --faults report (fault
 * counters cover @p fault_scope), the --adapt summary, then the
 * --trace and --report artifacts, the report gaining the fault and
 * adaptation fields.
 */
void
finishRun(const Options& o, const Topology& topo,
          const runtime::CommRuntime& comm, const char* fault_scope,
          RunReport& report, Telemetry& telem)
{
    if (!o.faults.empty()) {
        const auto rows = faultRows(topo, comm.utilization());
        std::printf("\nfault report%s (--faults \"%s\"):\n%s",
                    fault_scope, o.faults.c_str(),
                    stats::renderFaultTable(rows).c_str());
        report.setInfo("faults", o.faults);
        report.addSection("fault", faultJson(rows));
    }
    if (o.adapt) {
        std::printf("adaptation: %llu re-plan(s), capacity epoch %#llx\n",
                    static_cast<unsigned long long>(comm.replanCount()),
                    static_cast<unsigned long long>(
                        comm.capacityFingerprint()));
        report.setNumber("replans", comm.replanCount());
        report.setInfo("capacity_fingerprint",
                       sim::hex16(comm.capacityFingerprint()));
    }
    if (telem.trace != nullptr) {
        telem.trace->writeFile(o.trace);
        std::printf("trace: %zu span(s), %zu instant(s) -> %s (open in "
                    "ui.perfetto.dev or chrome://tracing)\n",
                    telem.trace->eventCount(), telem.trace->instantCount(),
                    o.trace.c_str());
    }
    emitReport(report, o.report, &telem);
}

/** Convergence-table label of the replay mode. */
const char*
runLabel(const Options& o)
{
    return o.exact ? "exactness" : (o.no_replay ? "full" : "replay");
}

workload::ConvergenceOptions
convergenceOptions(const Options& o, int iterations)
{
    workload::ConvergenceOptions copts;
    copts.iterations = iterations;
    copts.replay = !o.no_replay;
    copts.exactness_check = o.exact;
    copts.cycle_limit = o.cycle_limit;
    return copts;
}

/** Print the one-row convergence table of @p r. */
void
printConvergenceRow(const workload::ConvergenceReport& r,
                    const Options& o, double wall_ms)
{
    stats::ConvergenceRunRow row;
    row.label = runLabel(o);
    row.iterations = r.iterations;
    row.simulated = r.simulated_iterations;
    row.replayed = r.replayed_iterations;
    row.cycle_length = r.cycle_length;
    row.total_time = r.total.total;
    row.last_iteration = r.last.total;
    row.utilization = r.utilization;
    row.wall_ms = wall_ms;
    std::printf("%s", stats::renderConvergenceTable({row}).c_str());
}

/**
 * Steady-state line of a convergence run: "  <found> N (fingerprint
 * ...)" or "  <missing>". Under --exact a run without a steady state
 * asserted nothing, so a vacuous pass is refused with @p exact_fail.
 */
void
printSteadyState(const workload::ConvergenceReport& r, bool exact,
                 const char* found, const char* missing,
                 const char* exact_fail)
{
    if (r.steady_at >= 0)
        std::printf("  %s %d (fingerprint %016llx)%s\n", found,
                    r.steady_at,
                    static_cast<unsigned long long>(r.steady_fingerprint),
                    exact ? ", replay prediction asserted bit-identical"
                          : "");
    else if (exact)
        THEMIS_FATAL("--exact: " << exact_fail);
    else
        std::printf("  %s\n", missing);
}

/** Job-table row of one cluster job's stats. */
stats::JobUsageRow
jobUsageRow(const cluster::JobStats& j)
{
    const bool training = j.kind == cluster::JobKind::Training;
    stats::JobUsageRow row;
    row.name = j.name;
    row.kind = cluster::jobKindName(j.kind);
    row.arrival = j.arrival;
    row.jct = j.jct();
    row.units = training ? j.iterations : j.requests_completed;
    row.mean_unit = training ? j.mean_iteration : j.mean_latency;
    row.exposed_share = j.exposed_share;
    row.deadline_hit_rate = j.deadline_hit_rate;
    row.unit_p99 = j.unit_p99;
    row.unit_max = j.unit_max;
    row.progressed = j.progressed;
    row.utilization = j.utilization;
    return row;
}

/** Class-table row of one priority class (named @p name). */
stats::ClassUsageRow
classUsageRow(const runtime::CommRuntime::ClassReport& c,
              std::string name)
{
    stats::ClassUsageRow row;
    row.name = std::move(name);
    row.weight = c.weight;
    row.collectives = c.completed;
    row.mean_duration = c.mean_duration;
    row.progressed = c.progressed;
    row.utilization = c.utilization;
    return row;
}

/**
 * Canonical result-store key of one grid cell or --serve query. Both
 * build keys here, so a --serve query hits the record a sharded grid
 * wrote for the same cell.
 */
std::string
resultKey(const std::string& topo, const SchedulerSetup& sched,
          int chunks, bool enforce,
          std::vector<std::pair<std::string, std::string>> fields)
{
    fields.insert(fields.end(), {{"topo", topo},
                                 {"sched", sched.name},
                                 {"chunks", std::to_string(chunks)},
                                 {"enforce", enforce ? "1" : "0"}});
    return sim::makeResultKey(std::move(fields));
}

std::vector<std::pair<std::string, std::string>>
collectiveFields(const std::string& type, Bytes size)
{
    return {{"type", type}, {"size", sim::keyDouble(size)}};
}

/** One collective of cfg.default_chunks chunks, run to completion. */
Values
collectiveValues(sim::EventQueue& queue, const Topology& topo,
                 const runtime::RuntimeConfig& cfg, CollectiveType type,
                 Bytes size)
{
    CollectiveRequest r;
    r.type = type;
    r.size = size;
    r.chunks = cfg.default_chunks;
    runtime::CommRuntime comm(queue, topo, cfg);
    const int cid = comm.issue(r);
    queue.run();
    return {{"time_ns", comm.record(cid).duration()},
            {"util", comm.utilization().weightedUtilization()}};
}

/** Run @p eval, timing it. */
template <class Eval>
CellOutcome
timed(Eval&& eval)
{
    const double t0 = nowMs();
    CellOutcome out;
    out.values = eval();
    out.wall_ms = nowMs() - t0;
    return out;
}

sim::ResultRecord
makeRecord(std::string key, const CellOutcome& out)
{
    sim::ResultRecord rec;
    rec.key = std::move(key);
    rec.values = out.values;
    rec.fingerprint = sim::valuesFingerprint(out.values);
    rec.wall_ms = out.wall_ms;
    return rec;
}

/**
 * "N plans, H hits / M misses" of a batch mode's shared @p cache; the
 * same counts go into @p report.
 */
std::string
planCacheSummary(const PlanCache& cache, RunReport& report)
{
    const auto st = cache.stats();
    report.setNumber("plan_cache_plans", cache.planCount());
    report.setNumber("plan_cache_hits", st.plan_hits);
    report.setNumber("plan_cache_misses", st.plan_misses);
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%zu plans, %llu hits / %llu misses",
                  cache.planCount(),
                  static_cast<unsigned long long>(st.plan_hits),
                  static_cast<unsigned long long>(st.plan_misses));
    return buf;
}

// ------------------------------------------------------------- --merge

int
runMerge(const Options& o)
{
    // Offline canonical merge of shard result stores: the output is
    // byte-equal to the canonicalBytes() of a 1-process run over the
    // same grid, so a plain diff (or cmp) proves the sharded execution
    // exact.
    const std::vector<std::string> parts = split(o.merge, ',');
    if (parts.size() < 2)
        THEMIS_FATAL("--merge wants OUT,IN1[,IN2,...]; got '" << o.merge
                                                              << "'");
    const std::vector<std::string> inputs(parts.begin() + 1,
                                          parts.end());
    const std::string merged = sim::ResultStore::canonicalMerge(inputs);
    std::FILE* f = std::fopen(parts.front().c_str(), "wb");
    if (f == nullptr)
        THEMIS_FATAL("--merge: cannot write '" << parts.front() << "'");
    std::fwrite(merged.data(), 1, merged.size(), f);
    std::fclose(f);
    std::printf("merged %zu store(s) -> %s (%zu bytes, canonical)\n",
                inputs.size(), parts.front().c_str(), merged.size());
    RunReport report("merge");
    report.setInfo("output", parts.front());
    report.setNumber("inputs", inputs.size());
    report.setNumber("bytes", merged.size());
    emitReport(report, o.report, nullptr);
    return 0;
}

// ---------------------------------------------------- single collective

/**
 * --validate: re-simulate with every NPU modelled individually; on a
 * symmetric platform the two backends must agree.
 */
void
validatePerNpu(const Topology& topo, const runtime::RuntimeConfig& cfg,
               const CollectiveRequest& req, TimeNs fluid_time)
{
    const auto model = LatencyModel::fromTopology(topo);
    auto sched = makeScheduler(cfg.scheduler, model, cfg.themis);
    const auto schedules = sched->scheduleCollective(
        req.type, schedulableSize(req.type, req.size, model.dimSizes()),
        req.chunks);
    npu::NpuSimConfig npu_cfg;
    npu_cfg.policy = cfg.intra_policy;
    npu_cfg.admission = cfg.admission;
    const auto per_npu =
        npu::simulatePerNpu(topo, req.type, schedules, npu_cfg);
    std::printf("  per-NPU     : %s on %ld NPUs (%s; error %.4f%%)\n",
                fmtTime(per_npu.makespan).c_str(), topo.totalNpus(),
                per_npu.completed ? "completed" : "DEADLOCK",
                100.0 * std::abs(per_npu.makespan - fluid_time) /
                    fluid_time);
}

int
runSingle(const Options& o, Telemetry& telem)
{
    const Topology topo = resolveTopology(o.topo);
    const runtime::RuntimeConfig cfg = runConfig(o, topo, telem);
    CollectiveRequest req;
    req.type = *collectiveType(o.type);
    req.size = o.size;
    req.chunks = o.chunks;

    std::printf("%s", topo.describe().c_str());
    for (const auto& pair : classifyAllPairs(topo))
        std::printf("  dim%d vs dim%d: %s (ratio %.2f)\n", pair.dim_k + 1,
                    pair.dim_l + 1,
                    provisionScenarioName(pair.scenario).c_str(),
                    pair.ratio);

    sim::EventQueue queue;
    // The runtime attaches telem.trace itself when the config carries
    // the telemetry sink.
    runtime::CommRuntime comm(queue, topo, cfg);
    const int id = comm.issue(req);
    queue.run();
    comm.finalizeStats();

    const auto& rec = comm.record(id);
    const auto model = LatencyModel::fromTopology(topo);
    const TimeNs ideal = idealCollectiveTime(req.type, req.size, model);
    std::printf("\n%s of %s in %d chunks under %s%s:\n",
                collectiveTypeName(req.type).c_str(),
                fmtBytes(req.size).c_str(), o.chunks,
                o.sched == "base" ? "Baseline"
                                  : ("Themis+" + o.sched).c_str(),
                o.enforce ? " (enforced order)" : "");
    std::printf("  time        : %s\n", fmtTime(rec.duration()).c_str());
    std::printf("  avg BW util : %s\n",
                fmtPercent(comm.utilization().weightedUtilization())
                    .c_str());
    const auto per_dim = comm.utilization().perDimUtilization();
    for (std::size_t d = 0; d < per_dim.size(); ++d)
        std::printf("  dim%zu util  : %s\n", d + 1,
                    fmtPercent(per_dim[d]).c_str());
    std::printf("  ideal       : %s (size / total BW)\n",
                fmtTime(ideal).c_str());
    if (o.validate)
        validatePerNpu(topo, cfg, req, rec.duration());

    RunReport report("single");
    report.setInfo("topology", topo.name());
    report.setInfo("collective", collectiveTypeName(req.type));
    report.setInfo("scheduler", schedulerKindName(cfg.scheduler));
    report.setNumber("size_bytes", req.size);
    report.setNumber("chunks", o.chunks);
    report.setNumber("time_ns", rec.duration());
    report.setNumber("utilization",
                     comm.utilization().weightedUtilization());
    report.setNumber("ideal_ns", ideal);
    finishRun(o, topo, comm, "", report, telem);
    return 0;
}

// -------------------------------------------------------- --iterations

int
runIterations(const Options& o, Telemetry& telem)
{
    // Train --model on --topo for N iterations through the
    // steady-state replay engine.
    const Topology topo = resolveTopology(o.topo);
    runtime::RuntimeConfig cfg = runConfig(o, topo, telem);
    PlanCache cache;
    cfg.plan_cache = &cache;
    sim::EventQueue queue;
    runtime::CommRuntime comm(queue, topo, cfg);
    workload::TrainingLoop loop(comm, models::byName(o.model));
    const double t0 = nowMs();
    const auto r = workload::runConverged(
        comm, loop, convergenceOptions(o, o.iterations));
    const double wall_ms = nowMs() - t0;

    std::printf("%s", topo.describe().c_str());
    std::printf("\n%s x %d training iterations under %s%s:\n\n",
                o.model.c_str(), o.iterations,
                schedulerKindName(cfg.scheduler).c_str(),
                o.exact ? " (exactness-check mode)" : "");
    printConvergenceRow(r, o, wall_ms);
    std::printf("\n  per-iteration decomposition (steady): fwd %s, bwd "
                "%s, exposed MP %s, exposed DP %s\n",
                fmtTime(r.last.fwd_compute).c_str(),
                fmtTime(r.last.bwd_compute).c_str(),
                fmtTime(r.last.exposed_mp).c_str(),
                fmtTime(r.last.exposed_dp).c_str());
    printSteadyState(r, o.exact, "steady state at iteration",
                     "steady state not reached; every iteration "
                     "simulated",
                     "steady state was never reached, so nothing was "
                     "asserted; raise --iterations or check why "
                     "iterations stopped repeating");
    std::printf("  %ld collectives, %llu chunk ops, plan cache %zu "
                "plans\n",
                r.collectives, static_cast<unsigned long long>(r.ops),
                cache.planCount());
    comm.finalizeStats();

    RunReport report("iterations");
    report.setInfo("topology", topo.name());
    report.setInfo("model", o.model);
    report.setInfo("scheduler", schedulerKindName(cfg.scheduler));
    report.setInfo("run", runLabel(o));
    report.setNumber("iterations", r.iterations);
    report.setNumber("simulated_iterations", r.simulated_iterations);
    report.setNumber("replayed_iterations", r.replayed_iterations);
    report.setNumber("cycle_length", r.cycle_length);
    report.setNumber("steady_at", r.steady_at);
    report.setNumber("total_ns", r.total.total);
    report.setNumber("iteration_ns", r.last.total);
    report.setNumber("utilization", r.utilization);
    report.setNumber("collectives", r.collectives);
    report.setNumber("chunk_ops", r.ops);
    report.setNumber("wall_ms", wall_ms);
    report.setNumber("plan_cache_plans", cache.planCount());
    // Fault counters are per-iteration-epoch state (mixed into the
    // epoch fingerprint, so steady-state detection sees fault
    // activity); the report covers the last simulated iteration.
    finishRun(o, topo, comm, ", last simulated iteration", report,
              telem);
    return 0;
}

// ---------------------------------------------------------- --priority

/** Mean collective times and makespan of one priority-demo run. */
struct TenantRun
{
    TimeNs hi_mean = 0.0, lo_mean = 0.0, makespan = 0.0;
};

constexpr int kUrgentChain = 8;
constexpr int kBulkCount = 2;

/**
 * One priority-demo run on a fresh runtime: the urgent chain (each
 * link issued when the previous completes) and/or the bulk tenant.
 */
TenantRun
runTenants(const Topology& topo, const runtime::RuntimeConfig& cfg,
           Bytes size, bool run_hi, bool run_lo,
           std::vector<runtime::CommRuntime::ClassReport>* classes)
{
    sim::EventQueue queue;
    runtime::CommRuntime comm(queue, topo, cfg);
    int hi_remaining = run_hi ? kUrgentChain : 0;
    std::vector<int> hi_ids, lo_ids;
    const auto request = [&](Bytes bytes, PriorityTier tier) {
        CollectiveRequest r;
        r.size = bytes;
        r.chunks = 0; // --chunks, via default_chunks
        r.priority_tier = static_cast<int>(tier);
        return r;
    };
    std::function<void()> issue_hi = [&] {
        if (hi_remaining == 0)
            return;
        --hi_remaining;
        hi_ids.push_back(comm.issue(request(size / 32.0,
                                            PriorityTier::Urgent),
                                    [&] { issue_hi(); }));
    };
    issue_hi();
    for (int i = 0; run_lo && i < kBulkCount; ++i)
        lo_ids.push_back(comm.issue(request(size, PriorityTier::Bulk)));
    queue.run();
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
    if (classes != nullptr)
        *classes = comm.classReports();
    return out;
}

int
runPriority(const Options& o, Telemetry& telem)
{
    // Two-tenant demo: an urgent All-Reduce chain (--size / 32 per
    // collective) contends with bulk All-Reduces of --size under the
    // priority-aware Themis scheduler. Solo runs of each tenant
    // provide the slowdown baselines.
    const Topology topo = resolveTopology(o.topo);
    runtime::RuntimeConfig cfg = baseConfig(o, runtime::themisScfConfig());
    cfg.scheduler = SchedulerKind::ThemisPriority;
    if (o.priority > 1.0)
        cfg.priority = PriorityPolicy::tiered(o.priority);
    std::vector<runtime::CommRuntime::ClassReport> classes;
    const TenantRun solo_hi =
        runTenants(topo, cfg, o.size, true, false, nullptr);
    const TenantRun solo_lo =
        runTenants(topo, cfg, o.size, false, true, nullptr);
    const TenantRun both =
        runTenants(topo, cfg, o.size, true, true, &classes);

    std::printf("%s", topo.describe().c_str());
    std::printf("\npriority contention demo (%s, policy %s):\n"
                "  urgent tenant: %d x %s AR chain; bulk tenant: %d x "
                "%s AR\n\n",
                schedulerKindName(cfg.scheduler).c_str(),
                cfg.priority.describe().c_str(), kUrgentChain,
                fmtBytes(o.size / 32.0).c_str(), kBulkCount,
                fmtBytes(o.size).c_str());
    const bool uniform = cfg.priority.isUniform();
    std::vector<stats::ClassUsageRow> rows;
    for (const auto& c : classes) {
        auto row = classUsageRow(
            c, uniform ? "all (uniform)" : priorityTierName(c.tier));
        // Per-class slowdowns only make sense when classes are
        // separated: under the uniform policy (W = 1) class 0 mixes
        // both tenants (the per-tenant means print below).
        const TimeNs solo =
            c.tier == static_cast<int>(PriorityTier::Urgent)
                ? solo_hi.hi_mean
                : (c.tier == static_cast<int>(PriorityTier::Bulk)
                       ? solo_lo.lo_mean
                       : 0.0);
        if (!uniform && solo > 0.0)
            row.slowdown = c.mean_duration / solo;
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
    RunReport report("priority");
    report.setInfo("topology", topo.name());
    report.setInfo("policy", cfg.priority.describe());
    report.setNumber("contended_makespan_ns", both.makespan);
    report.setNumber("urgent_mean_ns", both.hi_mean);
    report.setNumber("urgent_solo_ns", solo_hi.hi_mean);
    report.setNumber("bulk_mean_ns", both.lo_mean);
    report.setNumber("bulk_solo_ns", solo_lo.lo_mean);
    report.addSection("classes", classesJson(classes));
    emitReport(report, o.report, &telem);
    return 0;
}

// ------------------------------------------------------- --jobs cluster

/**
 * --offset-search: CASSINI-style search over job phase offsets;
 * prints every candidate and returns the best offsets.
 */
std::vector<TimeNs>
searchOffsets(const Topology& topo, const runtime::RuntimeConfig& cfg,
              const std::vector<cluster::JobSpec>& specs, int threads)
{
    cluster::OffsetSearchOptions sopts;
    sopts.threads = threads;
    const auto res = cluster::searchPhaseOffsets(topo, cfg, specs, sopts);
    stats::TextTable t({"Phase fraction", "Aggregate iter time"});
    for (std::size_t i = 0; i < res.candidates.size(); ++i) {
        t.addRow({fmtDouble(static_cast<double>(i) /
                                res.candidates.size(),
                            3),
                  fmtTime(res.candidates[i].metric)});
    }
    std::printf("%s", t.render().c_str());
    std::printf("\n  offset search: zero-offset %s -> best %s (base "
                "period %s)\n\n",
                fmtTime(res.zero_metric).c_str(),
                fmtTime(res.best.metric).c_str(),
                fmtTime(res.base_period).c_str());
    return res.best.offsets;
}

/** Report fields every cluster run shares. */
RunReport
clusterReport(const Topology& topo, const runtime::RuntimeConfig& cfg,
              const char* run)
{
    RunReport report("jobs");
    report.setInfo("topology", topo.name());
    report.setInfo("scheduler", schedulerKindName(cfg.scheduler));
    report.setInfo("policy", cfg.priority.describe());
    report.setInfo("run", run);
    return report;
}

/**
 * Lockstep cluster run through the period-k convergence replay
 * engine; @p offsets apply as per-round phase delays (rounds restart
 * from quiescence, so arrival shifts cannot survive them).
 */
int
runClusterLockstep(const Options& o, const Topology& topo,
                   const runtime::RuntimeConfig& cfg,
                   cluster::JobScheduler sched,
                   const std::vector<TimeNs>& offsets, int rounds,
                   Telemetry& telem)
{
    const auto plan = sched.lockstepPlan(
        o.cycle_limit > 0 ? o.cycle_limit
                          : cluster::JobScheduler::kDefaultCycleLimit);
    if (!plan.eligible)
        THEMIS_FATAL("--jobs convergence run refused: " << plan.reason);

    sim::EventQueue queue;
    cluster::Cluster cl(queue, topo, cfg, std::move(sched));
    const double t0 = nowMs();
    const auto r = cl.runConverged(convergenceOptions(o, rounds), offsets);
    const double wall_ms = nowMs() - t0;
    printConvergenceRow(r, o, wall_ms);

    const auto jstats = cl.lockstepJobStats(r.iterations);
    std::vector<stats::JobUsageRow> jrows;
    for (std::size_t j = 0; j < jstats.size(); ++j) {
        stats::JobUsageRow row = jobUsageRow(jstats[j]);
        row.jct = r.total.total;
        // No per-job wire totals across replayed rounds.
        row.progressed = -1.0;
        row.utilization = -1.0;
        row.cycle_units =
            r.cycle_length > 0 ? r.cycle_length / plan.cadences[j] : -1;
        jrows.push_back(row);
    }
    std::printf("\n%s", stats::renderJobTable(jrows).c_str());

    std::printf("\n  cycle replay  : hyper-period %d round(s), cycle %s, "
                "%d simulated + %d replayed of %d rounds\n",
                r.hyper_period,
                r.cycle_length > 0 ? std::to_string(r.cycle_length).c_str()
                                   : "-",
                r.epochs_simulated, r.epochs_replayed, r.iterations);
    printSteadyState(r, o.exact, "steady cycle at round",
                     "steady cycle not confirmed; every round simulated",
                     "no steady cycle was confirmed, so nothing was "
                     "asserted; raise --iterations (the mix needs ~2x "
                     "its hyper-period of rounds) or --cycle-limit");
    if (!r.replay_refusal.empty())
        std::printf("  replay refused: %s\n", r.replay_refusal.c_str());
    cl.runtime().finalizeStats();

    RunReport report = clusterReport(topo, cfg, runLabel(o));
    report.setNumber("rounds", r.iterations);
    report.setNumber("simulated_rounds", r.simulated_iterations);
    report.setNumber("replayed_rounds", r.replayed_iterations);
    report.setNumber("cycle_length", r.cycle_length);
    report.setNumber("hyper_period", r.hyper_period);
    report.setNumber("total_ns", r.total.total);
    report.setNumber("utilization", r.utilization);
    report.setNumber("wall_ms", wall_ms);
    report.addSection("jobs", jobsJson(jstats));
    finishRun(o, topo, cl.runtime(), ", last simulated round", report,
              telem);
    return 0;
}

/** Free-running cluster co-simulation to completion. */
int
runClusterFree(const Options& o, const Topology& topo,
               const runtime::RuntimeConfig& cfg,
               cluster::JobScheduler sched, Telemetry& telem)
{
    sim::EventQueue queue;
    cluster::Cluster cl(queue, topo, cfg, std::move(sched));
    const auto elig = cl.replayEligibility();
    const auto rep = cl.run();

    std::vector<stats::JobUsageRow> rows;
    for (const auto& j : rep.jobs)
        rows.push_back(jobUsageRow(j));
    std::printf("%s", stats::renderJobTable(rows).c_str());
    std::vector<stats::ClassUsageRow> crows;
    for (const auto& c : rep.classes)
        if (c.issued > 0 || c.progressed > 0.0)
            crows.push_back(classUsageRow(c, priorityTierName(c.tier)));
    std::printf("\n%s", stats::renderClassTable(crows).c_str());
    std::printf("\n  makespan      : %s\n", fmtTime(rep.makespan).c_str());
    std::printf("  fabric util   : %s\n",
                fmtPercent(rep.fabric_utilization).c_str());
    std::printf("  bytes moved   : %s\n",
                fmtBytes(rep.total_bytes).c_str());
    std::printf("  replay        : %s\n",
                elig.eligible ? "eligible (lockstep training mix)"
                              : elig.reason.c_str());

    RunReport report = clusterReport(topo, cfg, "free-running");
    report.setNumber("makespan_ns", rep.makespan);
    report.setNumber("fabric_utilization", rep.fabric_utilization);
    report.setNumber("total_bytes", rep.total_bytes);
    report.addSection("jobs", jobsJson(rep.jobs));
    report.addSection("classes", classesJson(rep.classes));
    finishRun(o, topo, cl.runtime(), "", report, telem);
    return 0;
}

int
runCluster(const Options& o, Telemetry& telem)
{
    // Multi-job co-simulation on one shared fabric. Free-running by
    // default; --exact/--no-replay/--cycle-limit select the lockstep
    // convergence path through the period-k steady-cycle replay
    // engine.
    const Topology topo = resolveTopology(o.topo);
    runtime::RuntimeConfig cfg =
        clusterConfig(runConfig(o, topo, telem), o.tier_ratio);
    const int iterations = o.iterations > 0 ? o.iterations : 3;
    const std::vector<cluster::JobSpec> specs =
        parseJobSpecs(o.jobs_spec, iterations);
    PlanCache cache;
    cfg.plan_cache = &cache;

    std::printf("%s", topo.describe().c_str());
    std::printf("\n%zu-job cluster co-simulation (%s, policy %s):\n\n",
                specs.size(), schedulerKindName(cfg.scheduler).c_str(),
                cfg.priority.describe().c_str());

    cluster::JobScheduler sched(specs);
    const bool lockstep = o.exact || o.no_replay || o.cycle_limit > 0;
    std::vector<TimeNs> offsets;
    if (o.offset_search) {
        offsets = searchOffsets(topo, cfg, specs, o.jobs.value_or(0));
        if (!lockstep)
            sched.shiftArrivals(offsets);
    }
    if (lockstep)
        return runClusterLockstep(o, topo, cfg, std::move(sched), offsets,
                                  iterations, telem);
    return runClusterFree(o, topo, cfg, std::move(sched), telem);
}

// ------------------------------------------------------------- --serve

/** One --serve query line (grammar in README's --serve section). */
struct Query
{
    std::string line;
    std::string error; ///< non-empty: rejected at parse
    std::string key;
    std::optional<Topology> topo;
    std::size_t sched = 2; ///< schedulerSetups() index (scf)
    int chunks = 0;
    CollectiveType type = CollectiveType::AllReduce;
    Bytes size = 0.0;
    bool is_model = false;
    std::string model;
    int iters = 3;
};

/** Strict positive value of a query field; false when malformed. */
bool
positiveField(const std::string& v, bool integer, double& out)
{
    try {
        out = integer ? parseInt(v, "field") : parseNumber(v, "field");
    } catch (const ConfigError&) {
        return false;
    }
    return out > 0.0;
}

Query
parseQuery(const std::string& line, const Options& o)
{
    Query q;
    q.line = line;
    q.chunks = o.chunks;
    q.size = o.size;
    const auto fail = [&q](std::string error) {
        q.error = std::move(error);
        return q;
    };
    std::string topo_tok, type_tok = o.type;
    std::istringstream in(line);
    std::string tok;
    while (in >> tok) {
        const std::size_t eq = tok.find('=');
        if (eq == std::string::npos)
            return fail("token '" + tok + "' is not key=value");
        const std::string key = toLower(tok.substr(0, eq));
        const std::string val = tok.substr(eq + 1);
        if (val.find_first_of(";=") != std::string::npos)
            return fail("value '" + val +
                        "' contains a reserved ';' or '='");
        double num = 0.0;
        if (key == "topo") {
            topo_tok = val;
        } else if (key == "sched") {
            const auto s = schedIndex(toLower(val));
            if (!s)
                return fail("bad sched '" + val + "' (base|fifo|scf)");
            q.sched = *s;
        } else if (key == "chunks" || key == "iters") {
            if (!positiveField(val, true, num))
                return fail("bad " + key + " '" + val + "'");
            (key == "chunks" ? q.chunks : q.iters) = static_cast<int>(num);
        } else if (key == "type") {
            type_tok = toLower(val);
        } else if (key == "size") {
            if (!positiveField(val, false, num))
                return fail("bad size '" + val + "'");
            q.size = num;
        } else if (key == "model") {
            q.is_model = true;
            q.model = val;
        } else {
            return fail("unknown key '" + key +
                        "' (topo sched chunks type size model iters)");
        }
    }
    if (topo_tok.empty())
        return fail("topo= is required");
    try {
        validateChunkCount(q.chunks);
        workload::validateIterationCount(q.iters);
        q.topo = resolveTopology(topo_tok);
        if (q.is_model)
            (void)models::byName(q.model);
    } catch (const ConfigError& e) {
        return fail(e.what());
    }
    if (!q.is_model) {
        const auto type = collectiveType(type_tok);
        if (!type)
            return fail("bad type '" + type_tok + "' (ar|rs|ag|a2a)");
        q.type = *type;
    }
    q.key = resultKey(
        topo_tok, schedulerSetups()[q.sched], q.chunks, o.enforce,
        q.is_model ? std::vector<std::pair<std::string, std::string>>{
                         {"model", q.model},
                         {"iters", std::to_string(q.iters)}}
                   : collectiveFields(type_tok, q.size));
    return q;
}

/** Simulate one query: a collective, or a convergence replay. */
Values
evalQuery(const Query& q, const Options& o, PlanCache& cache,
          sim::EventQueue& queue)
{
    runtime::RuntimeConfig cfg =
        baseConfig(o, schedulerSetups()[q.sched].cfg);
    cfg.default_chunks = q.chunks;
    cfg.plan_cache = &cache;
    if (!q.is_model)
        return collectiveValues(queue, *q.topo, cfg, q.type, q.size);
    runtime::CommRuntime comm(queue, *q.topo, cfg);
    workload::TrainingLoop loop(comm, models::byName(q.model));
    workload::ConvergenceOptions copts;
    copts.iterations = q.iters;
    const auto r = workload::runConverged(comm, loop, copts);
    return {{"total_ns", r.total.total},
            {"iter_ns", r.last.total},
            {"util", r.utilization}};
}

/** The --serve loop's memo, warm plan cache and counters. */
struct ServeState
{
    std::unique_ptr<sim::ResultStore> store;
    std::unordered_map<std::string, sim::ResultRecord> session;
    PlanCache cache;
    std::size_t queries = 0, hits = 0, misses = 0, errors = 0;
    double hit_ms = 0.0, miss_ms = 0.0;

    const sim::ResultRecord*
    find(const std::string& key) const
    {
        if (store != nullptr)
            return store->find(key);
        const auto it = session.find(key);
        return it == session.end() ? nullptr : &it->second;
    }
};

/**
 * Answer one batch: its unique unanswered keys simulate in parallel;
 * everything else is a memoized hit.
 */
void
serveBatch(const std::vector<Query>& batch, ServeState& s,
           const Options& o, Telemetry& telem)
{
    if (batch.empty())
        return;
    std::vector<std::size_t> miss_idx;
    std::unordered_set<std::string> batch_keys;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const Query& q = batch[i];
        if (q.error.empty() && s.find(q.key) == nullptr &&
            batch_keys.insert(q.key).second)
            miss_idx.push_back(i);
    }
    const auto outs = sim::sweepIndexed(
        miss_idx.size(),
        [&](std::size_t j, sim::EventQueue& queue) {
            return timed([&] {
                return evalQuery(batch[miss_idx[j]], o, s.cache, queue);
            });
        },
        sim::SweepOptions{o.jobs.value_or(0)});
    std::unordered_map<std::string, double> simulated_ms;
    for (std::size_t j = 0; j < miss_idx.size(); ++j) {
        const std::string& key = batch[miss_idx[j]].key;
        simulated_ms[key] = outs[j].wall_ms;
        if (s.store != nullptr)
            s.store->append(makeRecord(key, outs[j]));
        else
            s.session.emplace(key, makeRecord(key, outs[j]));
    }
    auto& m = telem.metrics;
    for (const Query& q : batch) {
        ++s.queries;
        m.counter("serve.queries").add();
        if (!q.error.empty()) {
            ++s.errors;
            m.counter("serve.errors").add();
            std::printf("error: %s (query '%s')\n", q.error.c_str(),
                        q.line.c_str());
            continue;
        }
        const auto sim_it = simulated_ms.find(q.key);
        const bool miss = sim_it != simulated_ms.end();
        const double t0 = nowMs();
        const sim::ResultRecord* rec = s.find(q.key);
        double ms = nowMs() - t0;
        THEMIS_ASSERT(rec != nullptr,
                      "serve: evaluated query missing from the store");
        std::string vals;
        for (const auto& [name, v] : rec->values)
            vals += " " + name + "=" + sim::keyDouble(v);
        if (miss) {
            ms = sim_it->second;
            // Further repeats in this batch are hits.
            simulated_ms.erase(sim_it);
            ++s.misses;
            s.miss_ms += ms;
        } else {
            ++s.hits;
            s.hit_ms += ms;
        }
        m.counter(miss ? "serve.misses" : "serve.hits").add();
        m.histogram(miss ? "serve.miss_ns" : "serve.hit_ns")
            .record(ms * 1e6);
        m.histogram("serve.query_ns").record(ms * 1e6);
        std::printf("result %s ::%s (%s %.4f ms)\n", q.key.c_str(),
                    vals.c_str(), miss ? "miss" : "hit", ms);
    }
}

int
runServe(const Options& o, Telemetry& telem)
{
    // Memoized what-if query loop. Misses of each batch fan across the
    // sweep workers against one warm shared plan cache; repeats —
    // within a batch, across batches, or recorded by an earlier
    // grid/serve run in --results — are answered from the store
    // without re-simulating.
    ServeState s;
    if (!o.results.empty())
        s.store = std::make_unique<sim::ResultStore>(o.results);
    std::vector<Query> batch;
    std::string line;
    while (std::getline(std::cin, line)) {
        if (line.find_first_not_of(" \t\r") != std::string::npos) {
            batch.push_back(parseQuery(line, o));
            continue;
        }
        serveBatch(batch, s, o, telem);
        batch.clear();
    }
    serveBatch(batch, s, o, telem);

    const double mean_hit =
        s.hits > 0 ? s.hit_ms / static_cast<double>(s.hits) : 0.0;
    const double mean_miss =
        s.misses > 0 ? s.miss_ms / static_cast<double>(s.misses) : 0.0;
    std::printf("serve summary: queries=%zu hits=%zu misses=%zu "
                "errors=%zu mean_hit_ms=%.4f mean_miss_ms=%.3f",
                s.queries, s.hits, s.misses, s.errors, mean_hit,
                mean_miss);
    if (s.hits > 0 && s.misses > 0 && mean_hit > 0.0)
        std::printf(" warm_speedup=%.1fx", mean_miss / mean_hit);
    std::printf("\n");
    RunReport report("serve");
    std::printf("plan cache: %s\n", planCacheSummary(s.cache, report).c_str());
    report.setInfo("results_store", o.results);
    report.setNumber("queries", s.queries);
    report.setNumber("hits", s.hits);
    report.setNumber("misses", s.misses);
    report.setNumber("errors", s.errors);
    report.setNumber("mean_hit_ms", mean_hit);
    report.setNumber("mean_miss_ms", mean_miss);
    emitReport(report, o.report, &telem);
    return 0;
}

// ------------------------------------------------------ --grid/--sweep

/**
 * The grid's cells, enumerated topology-major by pure index
 * arithmetic — (topology, jobs mix, chunks, scheduler) — so every
 * process, whatever its --shard, agrees on cell order and keys.
 */
struct Grid
{
    std::vector<GridTopo> topos;
    std::vector<int> chunk_list;
    std::vector<JobsMix> mixes;

    std::size_t perMix() const { return chunk_list.size() * kSchedulers; }
    std::size_t perTopo() const
    {
        return (mixes.empty() ? 1 : mixes.size()) * perMix();
    }
    std::size_t cells() const { return topos.size() * perTopo(); }
    const GridTopo& topo(std::size_t i) const { return topos[i / perTopo()]; }
    std::size_t mix(std::size_t i) const { return i % perTopo() / perMix(); }
    int chunks(std::size_t i) const
    {
        return chunk_list[i % perMix() / kSchedulers];
    }
    const SchedulerSetup& sched(std::size_t i) const
    {
        return schedulerSetups()[i % kSchedulers];
    }
};

/** --grid topologies (or --topo), --sweep chunk counts, --jobs mixes. */
Grid
planGrid(const Options& o)
{
    Grid g;
    if (!o.grid.empty())
        g.topos = parseGridList(o.grid);
    else
        g.topos.push_back({o.topo, resolveTopology(o.topo)});
    if (o.sweep.empty())
        g.chunk_list.push_back(o.chunks);
    for (const auto& tok : o.sweep.empty() ? std::vector<std::string>{}
                                           : split(o.sweep, ',')) {
        const int c = parseInt(tok, "--sweep chunk count");
        if (c < 1)
            THEMIS_FATAL("bad --sweep chunk count list '" << o.sweep
                                                          << "'");
        g.chunk_list.push_back(c);
    }
    if (!o.jobs_spec.empty())
        g.mixes = parseJobsMixes(o.jobs_spec, 3);
    return g;
}

std::string
cellKey(const Grid& g, std::size_t i, const Options& o)
{
    if (g.mixes.empty())
        return resultKey(g.topo(i).token, g.sched(i), g.chunks(i),
                         o.enforce, collectiveFields(o.type, o.size));
    // Mix specs contain '=' (reserved in keys), so the jobs field is
    // a content hash of the mix.
    const std::string& mix = g.mixes[g.mix(i)].token;
    return resultKey(
        g.topo(i).token, g.sched(i), g.chunks(i), o.enforce,
        {{"jobs", sim::hex16(fnv1aBytes(mix.data(), mix.size()))},
         {"tiers", sim::keyDouble(o.tier_ratio)}});
}

Values
evalCell(const Grid& g, std::size_t i, const Options& o,
         PlanCache& cache, sim::EventQueue& queue)
{
    runtime::RuntimeConfig cfg = baseConfig(o, g.sched(i).cfg);
    cfg.default_chunks = g.chunks(i);
    cfg.plan_cache = &cache;
    const Topology& topo = g.topo(i).topo;
    if (g.mixes.empty())
        return collectiveValues(queue, topo, cfg, *collectiveType(o.type),
                                o.size);
    // One cluster co-simulation per cell, under the same tiered policy
    // the standalone cluster mode uses.
    cluster::Cluster cl(queue, topo, clusterConfig(cfg, o.tier_ratio),
                        g.mixes[g.mix(i)].specs);
    const auto rep = cl.run();
    return {{"makespan_ns", rep.makespan},
            {"fabric_util", rep.fabric_utilization},
            {"total_bytes", rep.total_bytes}};
}

/**
 * Print the table of every owned cell with a result (fresh, or
 * recorded in @p store); returns the --report "cells" section.
 */
std::string
printGridTable(const Grid& g, const Options& o,
               const std::vector<std::size_t>& owned,
               const std::vector<std::size_t>& pending,
               const std::vector<CellOutcome>& fresh,
               const sim::ResultStore* store)
{
    if (g.mixes.empty())
        std::printf("%s of %s, %zu-cell grid over %zu topologies:\n\n",
                    collectiveTypeName(*collectiveType(o.type)).c_str(),
                    fmtBytes(o.size).c_str(), g.cells(), g.topos.size());
    else
        std::printf("%zu-mix cluster grid, %zu cells over %zu topologies "
                    "(policy tiered(%g)):\n\n",
                    g.mixes.size(), g.cells(), g.topos.size(),
                    o.tier_ratio);
    stats::TextTable t(
        g.mixes.empty()
            ? std::vector<std::string>{"Topology", "Chunks", "Scheduler",
                                       "Time", "Avg BW util"}
            : std::vector<std::string>{"Topology", "Jobs", "Chunks",
                                       "Scheduler", "Makespan",
                                       "Fabric util"});
    const auto valueOf = [](const Values& vals, const char* name) {
        for (const auto& [n, v] : vals)
            if (n == name)
                return v;
        return 0.0;
    };
    stats::telemetry::JsonWriter cellw;
    cellw.beginArray();
    std::size_t jp = 0;
    for (std::size_t cell : owned) {
        const Values* vals = nullptr;
        if (jp < pending.size() && pending[jp] == cell) {
            vals = &fresh[jp].values;
            ++jp;
        } else if (store != nullptr) {
            const auto* rec = store->find(cellKey(g, cell, o));
            if (rec != nullptr)
                vals = &rec->values;
        }
        if (vals == nullptr)
            continue; // beyond the --max-cells cap
        cellw.beginObject();
        cellw.key("key").value(cellKey(g, cell, o));
        cellw.key("values").beginObject();
        for (const auto& [n, v] : *vals)
            cellw.key(n).value(v);
        cellw.endObject();
        cellw.endObject();
        const std::string topo_name = g.topo(cell).topo.name();
        const std::string chunks = std::to_string(g.chunks(cell));
        if (g.mixes.empty())
            t.addRow({topo_name, chunks, g.sched(cell).name,
                      fmtTime(valueOf(*vals, "time_ns")),
                      fmtPercent(valueOf(*vals, "util"))});
        else
            t.addRow({topo_name, g.mixes[g.mix(cell)].token, chunks,
                      g.sched(cell).name,
                      fmtTime(valueOf(*vals, "makespan_ns")),
                      fmtPercent(valueOf(*vals, "fabric_util"))});
    }
    cellw.endArray();
    std::printf("%s", t.render().c_str());
    return cellw.str();
}

int
runGrid(const Options& o, Telemetry& telem)
{
    // Every grid cell is one independent simulation; one plan cache is
    // shared read-mostly across the workers. --shard I/N owns the
    // strided subset, --results streams completed cells to a
    // crash-safe journal whose recorded cells are skipped on restart,
    // and --max-cells caps fresh work to interrupt a run
    // deterministically (resume testing).
    const Grid g = planGrid(o);
    const std::size_t cells = g.cells();
    sim::ShardSpec shard;
    if (!o.shard.empty())
        shard = sim::parseShardSpec(o.shard);
    const std::vector<std::size_t> owned = sim::shardCells(cells, shard);
    std::unique_ptr<sim::ResultStore> store;
    if (!o.results.empty())
        store = std::make_unique<sim::ResultStore>(o.results);

    std::vector<std::size_t> pending;
    for (std::size_t cell : owned)
        if (store == nullptr || !store->has(cellKey(g, cell, o)))
            pending.push_back(cell);
    const std::size_t resumed = owned.size() - pending.size();
    const bool interrupted =
        o.max_cells > 0 &&
        pending.size() > static_cast<std::size_t>(o.max_cells);
    if (interrupted)
        pending.resize(static_cast<std::size_t>(o.max_cells));

    PlanCache cache;
    const double t0 = nowMs();
    const auto fresh = sim::sweepIndexed(
        pending.size(),
        [&](std::size_t j, sim::EventQueue& queue) {
            return timed(
                [&] { return evalCell(g, pending[j], o, cache, queue); });
        },
        sim::SweepOptions{o.jobs.value_or(0)});
    const double wall_ms = nowMs() - t0;
    // Journal the fresh cells in canonical cell order (pending is
    // ascending), so independently produced shard journals merge
    // deterministically.
    for (std::size_t j = 0; store != nullptr && j < pending.size(); ++j)
        store->append(makeRecord(cellKey(g, pending[j], o), fresh[j]));

    const std::string cells_json =
        printGridTable(g, o, owned, pending, fresh, store.get());
    if (!shard.whole() || store != nullptr) {
        std::printf("\nshard %d/%d: %zu of %zu cells owned, %zu resumed "
                    "from store, %zu simulated%s",
                    shard.index, shard.count, owned.size(), cells, resumed,
                    pending.size(),
                    interrupted ? " (interrupted by --max-cells)" : "");
        if (store != nullptr)
            std::printf("; store %s (%zu records%s)",
                        store->path().c_str(), store->size(),
                        store->recoveredTruncatedTail()
                            ? ", truncated tail recovered"
                            : "");
        std::printf("\n");
    }
    RunReport report("grid");
    std::printf("\n%.1f ms wall (%.1f cells/sec over %zu simulated "
                "cells); plan cache %s\n",
                wall_ms, static_cast<double>(pending.size()) /
                             (wall_ms * 1e-3),
                pending.size(), planCacheSummary(cache, report).c_str());
    report.setInfo(o.grid.empty() ? "topology" : "grid",
                   o.grid.empty() ? o.topo : o.grid);
    if (!o.sweep.empty())
        report.setInfo("sweep", o.sweep);
    if (!o.jobs_spec.empty())
        report.setInfo("jobs", o.jobs_spec);
    if (!o.shard.empty())
        report.setInfo("shard", o.shard);
    const std::tuple<const char*, const char*, std::size_t> counts[] = {
        {"cells", "grid.cells.total", cells},
        {"owned", "grid.cells.owned", owned.size()},
        {"resumed", "grid.cells.resumed", resumed},
        {"simulated", "grid.cells.simulated", pending.size()}};
    for (const auto& [name, gauge, n] : counts) {
        telem.metrics.gauge(gauge).set(static_cast<double>(n));
        report.setNumber(name, n);
    }
    report.setNumber("wall_ms", wall_ms);
    report.addSection("cells", cells_json);
    emitReport(report, o.report, &telem);
    return 0;
}

// --------------------------------------------------------------- main

/**
 * A transfer ran out of retry budget: surface the structured report
 * as a readable diagnostic, replay the flight-recorder tail, persist
 * the partial artifacts, and exit distinctly (2) so scripts can tell
 * "fabric gave up" from a config mistake.
 */
int
retryExhausted(const runtime::RetryExhaustedError& e, const Options& o,
               const Telemetry& telem)
{
    const auto& r = e.report();
    std::fprintf(stderr,
                 "fatal: retry budget exhausted on dim%d (collective %d "
                 "chunk %d stage %d, %d attempts, %s re-sent); raise retry "
                 "max attempts or shorten the fault windows\n",
                 r.dim + 1, r.op.collective_id, r.op.chunk_id,
                 r.op.stage_index, r.attempts,
                 fmtBytes(r.lost_bytes).c_str());
    const auto events = telem.recorder.events();
    if (!events.empty()) {
        const std::size_t tail = std::min<std::size_t>(events.size(), 16);
        std::fprintf(stderr,
                     "flight recorder (last %zu of %llu event(s)):\n", tail,
                     static_cast<unsigned long long>(
                         telem.recorder.totalRecorded()));
        for (std::size_t i = events.size() - tail; i < events.size(); ++i)
            std::fprintf(
                stderr, "  %s\n",
                stats::telemetry::describeFlightEvent(events[i]).c_str());
    }
    if (telem.trace != nullptr) {
        telem.trace->writeFile(o.trace);
        std::fprintf(stderr, "trace (partial): %s\n", o.trace.c_str());
    }
    if (!o.report.empty()) {
        RunReport report("fatal");
        report.setInfo("error", "retry budget exhausted");
        report.setNumber("dim", r.dim);
        report.setNumber("attempts", r.attempts);
        report.setNumber("lost_bytes", r.lost_bytes);
        report.setNumber("collective", r.op.collective_id);
        report.setNumber("chunk", r.op.chunk_id);
        report.setNumber("stage", r.op.stage_index);
        report.attachMetrics(&telem.metrics);
        report.attachRecorder(&telem.recorder);
        report.writeFile(o.report);
        std::fprintf(stderr, "report (mode fatal): %s\n",
                     o.report.c_str());
    }
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    // The telemetry sink and trace writer outlive the try block so the
    // RetryExhaustedError path can dump the flight-recorder tail and
    // write a mode-"fatal" report / partial trace.
    Options o;
    Telemetry telem;
    stats::TraceWriter trace;
    try {
        o = parseArgs(argc, argv);
        if (!o.trace.empty())
            telem.trace = &trace;
        switch (o.mode) {
          case kMerge: return runMerge(o);
          case kServe: return runServe(o, telem);
          case kCluster: return runCluster(o, telem);
          case kIterations: return runIterations(o, telem);
          case kPriority: return runPriority(o, telem);
          case kGrid: return runGrid(o, telem);
          case kSingle: return runSingle(o, telem);
        }
        return 0;
    } catch (const runtime::RetryExhaustedError& e) {
        return retryExhausted(e, o, telem);
    } catch (const ConfigError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

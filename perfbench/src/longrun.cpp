/**
 * @file
 * longrun: converged 1000-iteration runs. ResNet-152, GNMT and DLRM on
 * the six next-gen platforms under Baseline and Themis+SCF; DLRM under
 * a fault timeline (degrade window, straggler, flap storm) with
 * adaptation on; and the 2:3 cluster mix (train:DLRM plus two periodic
 * tenants, a 6-round cycle). This loads the convergence, fault and
 * cluster layers: fingerprinting, cycle detection, phase-aware
 * re-detection and re-plans. Few events run and Transformer-1T is left
 * out, so an engine or event-queue gain shows little here.
 *
 * Runs go one after another on one thread, with a fresh plan cache
 * shared by every run of a pass. The seed picks the runs re-checked
 * with replay off; it does not alter the runs themselves. The event loop runs inside
 * runConverged, where the benchmark cannot count its events, so
 * sim.events and sim.run_ns_per_event read 0 on this workload.
 */

#include <cmath>
#include <functional>
#include <optional>

#include "cluster/cluster.hpp"
#include "common/hash.hpp"
#include "common/random.hpp"
#include "models/model_zoo.hpp"
#include "probes.hpp"
#include "sim/fault_timeline.hpp"
#include "topology/presets.hpp"
#include "workload/convergence.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace themis;

constexpr int kIterations = 1000;

/**
 * Replay cost per iteration, from outside: the DLRM Themis+SCF run at
 * kIterations and at kIterations + kExtraIterations, kReplayRepeats
 * times each, interleaved; the difference of the best times over the
 * extra iterations.
 */
constexpr int kExtraIterations = 20000;
constexpr int kReplayRepeats = 9;

/**
 * The fault timeline of every fault run, in the `--faults` grammar:
 * a degrade window, a straggler and a flap storm, all within the first
 * few iterations. It is fixed rather than drawn from the seed: some
 * seeded timelines make runConverged never return (see README.md),
 * and a run that does not end cannot be timed.
 */
constexpr const char* kFaultSpec =
    "degrade@2e5+4e5:dim=0,factor=0.5;straggler@1e6:dim=1,factor=0.8;"
    "storm@3e5+1e6:dim=1,flaps=6,down=2e4";

enum class Kind { Single, Fault, Mix };

struct RunSpec
{
    Kind kind = Kind::Single;
    std::size_t model = 0;  ///< into Setup::models; unused by Mix
    std::size_t topo = 0;   ///< into Setup::topos
    std::size_t scheme = 0; ///< into Setup::schemes: Baseline, Themis+SCF
};

struct Setup
{
    std::vector<workload::ModelGraph> models;
    std::vector<Topology> topos;
    std::vector<runtime::RuntimeConfig> schemes;
    sim::FaultTimeline faults;
    std::vector<cluster::JobSpec> mix;
    std::vector<RunSpec> runs;
    std::uint64_t digest = 0;
};

void
buildSetup(Setup& st)
{
    st.models.clear();
    for (const char* name : {"ResNet-152", "GNMT", "DLRM"})
        st.models.push_back(models::byName(name));
    st.topos = presets::nextGenTopologies();
    st.schemes = {runtime::baselineConfig(), runtime::themisScfConfig()};
    st.faults = sim::FaultTimeline::parse(kFaultSpec);
    st.mix.clear();
    st.mix.push_back(cluster::JobSpec::training(st.models[2], kIterations));
    st.mix.push_back(cluster::JobSpec::periodicInference(1.6e7, 2.0e5));
    st.mix.push_back(cluster::JobSpec::periodicInference(3.2e7, 3.0e5));

    st.runs.clear();
    for (std::size_t m = 0; m < st.models.size(); ++m)
        for (std::size_t t = 0; t < st.topos.size(); ++t)
            for (std::size_t s = 0; s < st.schemes.size(); ++s)
                st.runs.push_back({Kind::Single, m, t, s});
    for (std::size_t t = 0; t < st.topos.size(); ++t)
        st.runs.push_back({Kind::Fault, 2, t, 1});
    for (std::size_t t = 0; t < st.topos.size(); ++t)
        st.runs.push_back({Kind::Mix, 2, t, 1});

    Fnv1a h;
    for (const RunSpec& r : st.runs) {
        h.mix(static_cast<std::uint64_t>(r.kind));
        h.mix(static_cast<std::uint64_t>(r.model));
        h.mix(static_cast<std::uint64_t>(r.topo));
        h.mix(static_cast<std::uint64_t>(r.scheme));
    }
    for (const auto& e : st.faults.events()) {
        h.mix(e.at);
        h.mix(static_cast<std::uint64_t>(e.dim));
        h.mix(static_cast<std::uint64_t>(e.kind));
        h.mix(e.factor);
    }
    st.digest = h.value();
}

struct RunResult
{
    workload::ConvergenceReport report;
    double start_ns = 0.0;
    double end_ns = 0.0;
    std::uint64_t chunk_ops = 0;
    std::uint64_t retries = 0;
    std::uint64_t replans = 0;
    std::vector<double> per_dim_util;
    std::vector<runtime::CommRuntime::Record> records;
    bool ok = false;
};

/** Everything a run reads back from the runtime after it converged. */
void
collect(RunResult& r, runtime::CommRuntime& comm, bool keep_records)
{
    r.chunk_ops = chunkOps(comm);
    r.retries = retries(comm);
    r.replans = comm.replanCount();
    r.per_dim_util = comm.utilization().perDimUtilization();
    if (keep_records)
        r.records = comm.records();
}

RunResult
runOne(const Setup& st, const RunSpec& spec, PlanCache* cache, int iterations,
       bool replay, Trace& trace, std::uint64_t request, bool keep_records)
{
    const Topology& topo = st.topos[spec.topo];
    runtime::RuntimeConfig cfg = st.schemes[spec.scheme];
    cfg.plan_cache = cache;
    workload::ConvergenceOptions opts;
    opts.iterations = iterations;
    opts.replay = replay;
    RunResult r;
    sim::EventQueue queue;
    ScopedSpan root(trace, "run", request);
    if (spec.kind == Kind::Mix) {
        std::optional<cluster::Cluster> cl;
        {
            ScopedSpan span(trace, "runtime.issue", request);
            cl.emplace(queue, topo, cfg, st.mix);
        }
        {
            ScopedSpan span(trace, "cluster.converge", request);
            r.report = cl->runConverged(opts);
        }
        collect(r, cl->runtime(), keep_records);
        return r;
    }
    if (spec.kind == Kind::Fault) {
        cfg.faults = &st.faults;
        cfg.adaptation.enabled = true;
    }
    std::optional<runtime::CommRuntime> comm;
    std::optional<workload::TrainingLoop> loop;
    {
        ScopedSpan span(trace, "runtime.issue", request);
        comm.emplace(queue, topo, cfg);
        loop.emplace(*comm, st.models[spec.model]);
    }
    {
        ScopedSpan span(trace, "workload.converge", request);
        r.report = workload::runConverged(*comm, *loop, opts);
    }
    collect(r, *comm, keep_records);
    return r;
}

struct PassLog
{
    std::vector<RunResult> runs;
    double wall_ns = 0.0;
    PlanCache::Stats cache;
};

struct RunLog
{
    std::vector<PassLog> passes;
    /** [pass][run] latency in ms. */
    std::vector<std::vector<double>> run_ms;
    std::vector<double> pass_ns;
    Trace trace;
};

/** Passes until --seconds have passed; @p between runs after each. */
RunLog
runPasses(const Setup& st, const Args& args, bool traced, Outcome& out,
          const std::function<void()>& between)
{
    RunLog log;
    log.trace = Trace(traced);
    const double deadline = nowNs() + args.seconds * 1e9;
    for (std::uint64_t pass = 0; pass == 0 || nowNs() < deadline; ++pass) {
        PlanCache cache;
        PassLog p;
        const double t0 = nowNs();
        for (std::size_t i = 0; i < st.runs.size(); ++i) {
            const std::uint64_t request = pass * st.runs.size() + i;
            RunResult r;
            const double r0 = nowNs();
            try {
                r = runOne(st, st.runs[i], &cache, kIterations, true,
                           log.trace, request, pass == 0);
                r.ok = true;
            } catch (const std::exception& e) {
                out.fail("run " + std::to_string(i) + ": " + e.what());
            }
            r.start_ns = r0;
            r.end_ns = nowNs();
            p.runs.push_back(std::move(r));
        }
        p.wall_ns = nowNs() - t0;
        p.cache = cache.stats();
        out.attempted += p.runs.size();
        log.pass_ns.push_back(p.wall_ns);
        log.run_ms.emplace_back();
        for (std::size_t i = 0; i < p.runs.size(); ++i) {
            const RunResult& r = p.runs[i];
            log.run_ms.back().push_back((r.end_ns - r.start_ns) * 1e-6);
            if (!r.ok || pass == 0)
                continue;
            const RunResult& ref = log.passes.front().runs[i];
            if (ref.ok &&
                !workload::resultsBitIdentical(r.report, ref.report))
                out.fail("run " + std::to_string(i) + " pass " +
                         std::to_string(pass) + " differs from pass 0");
        }
        // Only the first pass keeps its results; later ones were
        // checked against it above.
        if (pass > 0)
            p.runs.clear();
        log.passes.push_back(std::move(p));
        if (between)
            between();
    }
    return log;
}

/** Re-run a seeded subset with replay off: totals must not move. */
void
verifyReplay(const Setup& st, const RunLog& log, const Args& args,
             Outcome& out)
{
    Rng rng(args.seed ^ 0x7265706cULL);
    std::vector<std::size_t> singles, others;
    for (std::size_t i = 0; i < st.runs.size(); ++i)
        (st.runs[i].kind == Kind::Single ? singles : others).push_back(i);
    rng.shuffle(singles);
    rng.shuffle(others);
    // One single-model run and one fault or cluster run.
    const std::vector<std::size_t> picks = {singles.front(), others.front()};
    Trace off;
    std::string names;
    for (const std::size_t i : picks) {
        const RunResult& ref = log.passes.front().runs[i];
        const RunResult full =
            runOne(st, st.runs[i], nullptr, kIterations, false, off, 0, false);
        if (!ref.ok ||
            !workload::resultsBitIdentical(ref.report, full.report))
            out.fail("run " + std::to_string(i) +
                     ": replay totals differ from replay = false");
        names += " " + std::to_string(i);
    }
    out.notes.push_back("checked: runs" + names +
                        " re-run with replay off");
}

void
endToEnd(const Setup& st, const RunLog& log, Outcome& out)
{
    auto& m = out.metrics;
    const double pass_s = best(log.pass_ns) * 1e-9;
    const PassLog& first = log.passes.front();
    double iterations = 0.0, sim_ns = 0.0;
    double util_base = 0.0, util_scf = 0.0, log_speedup = 0.0, pairs = 0.0;
    for (std::size_t i = 0; i < st.runs.size(); ++i) {
        const auto& rep = first.runs[i].report;
        iterations += rep.iterations;
        sim_ns += rep.total.total;
        if (st.runs[i].kind != Kind::Single || st.runs[i].scheme != 0)
            continue;
        // Singles are laid out Baseline then Themis+SCF.
        const auto& scf = first.runs[i + 1].report;
        util_base += rep.utilization;
        util_scf += scf.utilization;
        log_speedup += std::log(rep.total.total / scf.total.total);
        pairs += 1.0;
    }
    const double runs = static_cast<double>(st.runs.size());
    m["queries_per_sec"] = runs / pass_s;
    m["cells_per_sec"] = runs / pass_s;
    m["iters_per_sec"] = iterations / pass_s;
    const std::vector<double> latency = bestPerRequest(log.run_ms);
    m["query_p50_ms"] = quantile(latency, 0.50);
    m["query_p99_ms"] = quantile(latency, 0.99);
    m["sim_bw_util_gain"] = util_scf / util_base;
    m["sim_iter_speedup"] = std::exp(log_speedup / pairs);
    m["sim_train_time_s"] = sim_ns * 1e-9;
    out.notes.push_back("longrun: " + std::to_string(log.passes.size()) +
                        " passes of " + std::to_string(st.runs.size()) +
                        " runs, " + exact(iterations) +
                        " iterations per pass; latency percentiles over each "
                        "run's best pass");
}

/** ns per replayed iteration, by differencing two run lengths. */
double
replayNsPerIteration(const Setup& st)
{
    const RunSpec spec{Kind::Single, 2, 0, 1};
    Trace off;
    std::vector<double> short_ns, long_ns;
    for (int i = 0; i < kReplayRepeats; ++i)
        for (const int n : {kIterations, kIterations + kExtraIterations}) {
            PlanCache cache;
            const double t0 = nowNs();
            runOne(st, spec, &cache, n, true, off, 0, false);
            (n == kIterations ? short_ns : long_ns).push_back(nowNs() - t0);
        }
    return (best(long_ns) - best(short_ns)) / kExtraIterations;
}

void
perLayer(const Setup& st, const RunLog& plain, const RunLog& traced,
         Outcome& out)
{
    auto& m = out.metrics;
    const auto layers = layerTimes(traced.trace.spans());
    const double converge_ns = layers.at("workload.converge").total_ns +
                               layers.at("cluster.converge").total_ns;
    const auto& issue = layers.at("runtime.issue");
    m["runtime.issue_us"] =
        issue.total_ns / static_cast<double>(issue.count) * 1e-3;
    const auto& cl = layers.at("cluster.converge");
    m["cluster.converge_ms"] =
        cl.total_ns / static_cast<double>(cl.count) * 1e-6;
    double wall_ns = 0.0;
    for (const double ns : traced.pass_ns)
        wall_ns += ns;
    m["sim.sweep.worker_idle_frac"] =
        (wall_ns - layers.at("run").total_ns) / wall_ns;

    // Counts over the first traced pass: fixed work, exact repeats.
    const PassLog& first = traced.passes.front();
    std::uint64_t ops = 0, retry_count = 0, replans = 0;
    double simulated = 0.0, replayed = 0.0, exposed = 0.0, total = 0.0;
    PlanProbe probe;
    DimUtil dims;
    for (std::size_t i = 0; i < st.runs.size(); ++i) {
        const RunSpec& spec = st.runs[i];
        const RunResult& r = first.runs[i];
        ops += r.chunk_ops;
        retry_count += r.retries;
        replans += r.replans;
        simulated += r.report.epochs_simulated;
        replayed += r.report.epochs_replayed;
        runtime::RuntimeConfig cfg = st.schemes[spec.scheme];
        probe.addRecords(st.topos[spec.topo], cfg, r.records,
                         cfg.default_chunks);
        if (spec.kind == Kind::Single && spec.scheme == 1) {
            dims.add(st.topos[spec.topo].name(), r.per_dim_util);
            exposed += r.report.total.exposed_mp + r.report.total.exposed_dp;
            total += r.report.total.total;
        }
    }
    // Ops of the traced passes after the first repeat the first's.
    m["runtime.chunk_ops"] = static_cast<double>(ops);
    m["runtime.ns_per_chunk_op"] =
        converge_ns / (static_cast<double>(ops) *
                       static_cast<double>(traced.passes.size()));
    m["core.plan_ns_per_chunk"] = probe.nsPerChunk();
    m["core.plan_cache.hit_ratio"] =
        static_cast<double>(first.cache.plan_hits) /
        static_cast<double>(first.cache.plan_hits + first.cache.plan_misses);
    m["workload.epochs_simulated"] = simulated;
    m["workload.epochs_replayed"] = replayed;
    m["workload.replay_frac"] = replayed / (simulated + replayed);
    m["workload.replay_ns_per_iter"] = replayNsPerIteration(st);
    m["runtime.retries"] = static_cast<double>(retry_count);
    m["runtime.replans"] = static_cast<double>(replans);
    m["model.dim_util_min"] = dims.min();
    m["model.dim_util_max"] = dims.max();
    m["model.exposed_comm_frac"] = exposed / total;
    m["bench.trace_overhead"] = best(traced.pass_ns) / best(plain.pass_ns);
    out.notes.push_back("longrun: plan probe re-timed " +
                        std::to_string(probe.size()) +
                        " distinct collectives");
}

} // namespace

Outcome
runLongRun(const Args& args)
{
    Outcome out;
    Setup st, spare;
    SetupTimer setup;
    setup.initial([&] { buildSetup(st); });
    out.input_digest = st.digest;

    const RunLog plain = runPasses(st, args, false, out, [&] {
        setup.time([&] { buildSetup(spare); });
    });
    out.metrics["setup_s"] = setup.medianSeconds();
    endToEnd(st, plain, out);
    out.metrics["peak_rss_mb"] = peakRssMb();
    verifyReplay(st, plain, args, out);
    if (args.trace) {
        const RunLog traced = runPasses(st, args, true, out, {});
        perLayer(st, plain, traced, out);
        writeTrace(args.out_dir + "/longrun.trace.json", traced.trace.spans(),
                   "longrun", args.seed);
        out.notes.push_back(
            "traced run iters_per_sec " +
            exact(static_cast<double>(kIterations) *
                  static_cast<double>(st.runs.size()) /
                  (best(traced.pass_ns) * 1e-9)) +
            " vs untraced " + exact(out.metrics["iters_per_sec"]) +
            " (end-to-end metrics come from the untraced run)");
    }
    return out;
}

} // namespace perfbench

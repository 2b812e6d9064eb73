/**
 * @file
 * fig12: the paper's Fig 12 grid, 4 models x 6 next-gen platforms x
 * {Baseline, Themis+SCF, Ideal}, one iteration per cell, 72 cells in
 * the canonical order of bench_fig12_end_to_end, fanned across two
 * fixed sweep workers with a fresh shared plan cache per pass. The
 * seed does not alter the grid. DimensionEngine selection on long
 * ready queues dominates (Transformer-1T holds most of the time) and
 * the plan cache is hot, so planning is nearly absent: the opposite
 * mix to whatif.
 */

#include <cmath>
#include <functional>
#include <optional>

#include "common/hash.hpp"
#include "models/model_zoo.hpp"
#include "probes.hpp"
#include "sim/sweep_runner.hpp"
#include "topology/presets.hpp"
#include "workload/training_loop.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace themis;

constexpr int kWorkers = 2;

/**
 * FNV-1a over the five IterationBreakdown fields of all 72 cells, in
 * grid order, as bench_fig12_end_to_end computes them. Pins the grid's
 * simulated results: a change that only speeds the simulator up must
 * leave it as is.
 */
constexpr std::uint64_t kGridDigest = 0xee2cfa05ca84f849ULL;

/** Zero-latency one-dimension platform with all of @p topo's bandwidth. */
Topology
idealTopology(const Topology& topo)
{
    DimensionConfig d;
    d.kind = DimKind::Switch;
    d.size = static_cast<int>(topo.totalNpus());
    d.link_bw_gbps = bwToGbps(topo.totalBandwidth());
    d.links_per_npu = 1;
    d.step_latency_ns = 0.0;
    return Topology(topo.name() + "-ideal", {d});
}

struct Method
{
    const char* name;
    runtime::RuntimeConfig cfg;
    bool ideal;
};

struct Setup
{
    std::vector<std::string> model_names;
    std::vector<workload::ModelGraph> models;
    std::vector<Topology> topos;
    std::vector<Topology> ideal_topos;
    std::vector<Method> methods;
    std::uint64_t digest = 0;

    std::size_t
    cells() const
    {
        return models.size() * topos.size() * methods.size();
    }
};

void
buildSetup(Setup& st)
{
    st.model_names = models::paperWorkloads();
    st.models.clear();
    for (const auto& name : st.model_names)
        st.models.push_back(models::byName(name));
    st.topos = presets::nextGenTopologies();
    st.ideal_topos.clear();
    for (const auto& t : st.topos)
        st.ideal_topos.push_back(idealTopology(t));
    st.methods = {{"Baseline", runtime::baselineConfig(), false},
                  {"Themis+SCF", runtime::themisScfConfig(), false},
                  {"Ideal", runtime::themisScfConfig(), true}};
    Fnv1a h;
    auto mixName = [&](const std::string& s) {
        for (const char c : s)
            h.mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
        h.mix(std::uint64_t{0});
    };
    for (const auto& m : st.model_names)
        mixName(m);
    for (const auto& t : st.topos)
        mixName(t.name());
    for (const auto& m : st.methods)
        mixName(m.name);
    st.digest = h.value();
}

struct CellResult
{
    workload::IterationBreakdown it;
    double util = 0.0;
    std::vector<double> per_dim_util;
    double start_ns = 0.0;
    double end_ns = 0.0;
    std::uint64_t events = 0;
    std::uint64_t chunk_ops = 0;
    std::uint64_t retries = 0;
    std::vector<runtime::CommRuntime::Record> records;
    Trace trace;
};

struct PassLog
{
    std::vector<CellResult> cells;
    double wall_ns = 0.0;
    PlanCache::Stats cache;
};

PassLog
runPass(const Setup& st, bool traced, std::uint64_t pass, bool keep_records)
{
    PlanCache cache;
    const std::size_t per_model = st.topos.size() * st.methods.size();
    PassLog log;
    const double t0 = nowNs();
    log.cells = sim::sweepIndexed(
        st.cells(),
        [&](std::size_t i, sim::EventQueue& queue) {
            const std::size_t w = i / per_model;
            const std::size_t t = i % per_model / st.methods.size();
            const Method& method = st.methods[i % st.methods.size()];
            const Topology& topo =
                method.ideal ? st.ideal_topos[t] : st.topos[t];
            runtime::RuntimeConfig cfg = method.cfg;
            cfg.plan_cache = &cache;
            const std::uint64_t request = pass * st.cells() + i;

            CellResult r;
            r.trace = Trace(traced);
            r.start_ns = nowNs();
            {
                ScopedSpan cell(r.trace, "cell", request);
                std::optional<runtime::CommRuntime> comm;
                std::optional<workload::TrainingLoop> loop;
                {
                    ScopedSpan span(r.trace, "runtime.issue", request);
                    comm.emplace(queue, topo, cfg);
                    loop.emplace(*comm, st.models[w]);
                }
                {
                    // What TrainingLoop::runIteration does, split so
                    // the event loop gets its own span and count.
                    ScopedSpan span(r.trace, "workload.iteration", request);
                    loop->beginIterationAsync(
                        [&r](const workload::IterationBreakdown& b) {
                            r.it = b;
                        });
                    ScopedSpan run(r.trace, "sim.run", request);
                    r.events = queue.run();
                }
                comm->finalizeStats();
                r.util = comm->utilization().weightedUtilization();
                r.per_dim_util = comm->utilization().perDimUtilization();
                r.chunk_ops = chunkOps(*comm);
                r.retries = retries(*comm);
                if (keep_records)
                    r.records = comm->records();
            }
            r.end_ns = nowNs();
            return r;
        },
        sim::SweepOptions{kWorkers});
    log.wall_ns = nowNs() - t0;
    log.cache = cache.stats();
    return log;
}

std::uint64_t
gridDigest(const PassLog& pass)
{
    Fnv1a h;
    for (const CellResult& c : pass.cells) {
        h.mix(c.it.fwd_compute);
        h.mix(c.it.bwd_compute);
        h.mix(c.it.exposed_mp);
        h.mix(c.it.exposed_dp);
        h.mix(c.it.total);
    }
    return h.value();
}

struct RunLog
{
    std::vector<PassLog> passes;
    /** [pass][cell] latency in ms. */
    std::vector<std::vector<double>> cell_ms;
    std::vector<double> pass_ns;
};

/** Passes until --seconds have passed; @p between runs after each. */
RunLog
runPasses(const Setup& st, const Args& args, bool traced, Outcome& out,
          const std::function<void()>& between)
{
    RunLog log;
    const double deadline = nowNs() + args.seconds * 1e9;
    for (std::uint64_t pass = 0; pass == 0 || nowNs() < deadline; ++pass) {
        log.passes.push_back(runPass(st, traced, pass, traced && pass == 0));
        PassLog& p = log.passes.back();
        out.attempted += p.cells.size();
        log.pass_ns.push_back(p.wall_ns);
        log.cell_ms.emplace_back();
        for (const CellResult& c : p.cells)
            log.cell_ms.back().push_back((c.end_ns - c.start_ns) * 1e-6);

        // Each (model, platform) triple out of order fails its three
        // cells; a digest mismatch fails the whole pass.
        std::uint64_t unordered = 0;
        for (std::size_t i = 0; i < p.cells.size(); i += 3) {
            const double base = p.cells[i].it.total;
            const double scf = p.cells[i + 1].it.total;
            const double ideal = p.cells[i + 2].it.total;
            if (!(ideal <= scf && scf <= base)) {
                out.notes.push_back("cells " + std::to_string(i) +
                                    "..+2: not Ideal <= Themis+SCF <= "
                                    "Baseline");
                unordered += 3;
            }
        }
        const std::uint64_t digest = gridDigest(p);
        if (digest != kGridDigest)
            out.fail("pass " + std::to_string(pass) + " grid digest " +
                         hex16(digest) + " != pinned " + hex16(kGridDigest),
                     p.cells.size());
        else if (unordered > 0)
            out.fail("pass " + std::to_string(pass) + " has cells out of "
                     "order",
                     unordered);
        // Untraced passes keep only the first pass's cells, for the
        // simulated metrics; traced passes keep their spans.
        if (!traced && pass > 0)
            p.cells.clear();
        if (between)
            between();
    }
    return log;
}

void
endToEnd(const Setup& st, const RunLog& log, const PassLog& first,
         Outcome& out)
{
    auto& m = out.metrics;
    const double per_sec =
        static_cast<double>(st.cells()) / (best(log.pass_ns) * 1e-9);
    m["queries_per_sec"] = per_sec;
    m["cells_per_sec"] = per_sec;
    m["iters_per_sec"] = per_sec; // one iteration per cell
    const std::vector<double> latency = bestPerRequest(log.cell_ms);
    m["query_p50_ms"] = quantile(latency, 0.50);
    m["query_p99_ms"] = quantile(latency, 0.99);

    double util_base = 0.0, util_scf = 0.0, log_speedup = 0.0, sim_ns = 0.0;
    for (std::size_t i = 0; i < first.cells.size(); i += 3) {
        util_base += first.cells[i].util;
        util_scf += first.cells[i + 1].util;
        log_speedup +=
            std::log(first.cells[i].it.total / first.cells[i + 1].it.total);
        for (std::size_t k = 0; k < 3; ++k)
            sim_ns += first.cells[i + k].it.total;
    }
    const double pairs = static_cast<double>(first.cells.size() / 3);
    m["sim_bw_util_gain"] = util_scf / util_base;
    m["sim_iter_speedup"] = std::exp(log_speedup / pairs);
    m["sim_train_time_s"] = sim_ns * 1e-9;
    out.notes.push_back("fig12: " + std::to_string(log.passes.size()) +
                        " passes of " + std::to_string(st.cells()) +
                        " cells on " + std::to_string(kWorkers) +
                        " workers; latency percentiles over each cell's "
                        "best pass; grid digest " +
                        hex16(gridDigest(first)));
}

void
perLayer(const Setup& st, const RunLog& plain, const RunLog& traced,
         Outcome& out)
{
    auto& m = out.metrics;
    Trace all(true);
    std::uint64_t events = 0, ops = 0, retry_count = 0;
    double busy_ns = 0.0, capacity_ns = 0.0;
    for (const PassLog& p : traced.passes) {
        for (const CellResult& c : p.cells) {
            all.absorb(c.trace);
            events += c.events;
            ops += c.chunk_ops;
            busy_ns += c.end_ns - c.start_ns;
        }
        capacity_ns += kWorkers * p.wall_ns;
    }
    const auto layers = layerTimes(all.spans());
    const double run_ns = layers.at("sim.run").total_ns;
    m["sim.run_ns_per_event"] = run_ns / static_cast<double>(events);
    m["runtime.ns_per_chunk_op"] = run_ns / static_cast<double>(ops);
    const auto& issue = layers.at("runtime.issue");
    m["runtime.issue_us"] =
        issue.total_ns / static_cast<double>(issue.count) * 1e-3;
    m["sim.sweep.worker_idle_frac"] = (capacity_ns - busy_ns) / capacity_ns;

    // Iteration spans per model, told apart by their cell id.
    const std::size_t per_model = st.topos.size() * st.methods.size();
    std::vector<double> iter_ns(st.models.size(), 0.0);
    std::vector<double> iter_n(st.models.size(), 0.0);
    for (const Span& s : all.spans()) {
        if (std::string(s.name) != "workload.iteration")
            continue;
        const std::size_t w = s.request % st.cells() / per_model;
        iter_ns[w] += s.durationNs();
        iter_n[w] += 1.0;
    }
    for (std::size_t w = 0; w < st.models.size(); ++w)
        m["workload.iteration_ms." + st.model_names[w]] =
            iter_ns[w] / iter_n[w] * 1e-6;

    // Counts over the first traced pass: fixed work, exact repeats.
    const PassLog& first = traced.passes.front();
    std::uint64_t first_events = 0, first_ops = 0;
    PlanProbe probe;
    DimUtil dims;
    double exposed = 0.0, total = 0.0;
    for (std::size_t i = 0; i < first.cells.size(); ++i) {
        const CellResult& c = first.cells[i];
        first_events += c.events;
        first_ops += c.chunk_ops;
        retry_count += c.retries;
        const std::size_t t = i % per_model / st.methods.size();
        const Method& method = st.methods[i % st.methods.size()];
        probe.addRecords(method.ideal ? st.ideal_topos[t] : st.topos[t],
                         method.cfg, c.records, method.cfg.default_chunks);
        if (i % st.methods.size() == 1) {
            dims.add(st.topos[t].name(), c.per_dim_util);
            exposed += c.it.exposed_mp + c.it.exposed_dp;
            total += c.it.total;
        }
    }
    m["sim.events"] = static_cast<double>(first_events);
    m["runtime.chunk_ops"] = static_cast<double>(first_ops);
    m["core.plan_ns_per_chunk"] = probe.nsPerChunk();
    m["core.plan_cache.hit_ratio"] =
        static_cast<double>(first.cache.plan_hits) /
        static_cast<double>(first.cache.plan_hits + first.cache.plan_misses);
    m["workload.epochs_simulated"] = static_cast<double>(first.cells.size());
    m["runtime.retries"] = static_cast<double>(retry_count);
    m["model.dim_util_min"] = dims.min();
    m["model.dim_util_max"] = dims.max();
    m["model.exposed_comm_frac"] = exposed / total;
    m["bench.trace_overhead"] = best(traced.pass_ns) / best(plain.pass_ns);
    out.notes.push_back("fig12: plan probe re-timed " +
                        std::to_string(probe.size()) +
                        " distinct collectives");
}

} // namespace

Outcome
runFig12(const Args& args)
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
    endToEnd(st, plain, plain.passes.front(), out);
    out.metrics["peak_rss_mb"] = peakRssMb();
    if (args.trace) {
        const RunLog traced = runPasses(st, args, true, out, {});
        perLayer(st, plain, traced, out);
        Trace all(true);
        for (const CellResult& c : traced.passes.front().cells)
            all.absorb(c.trace);
        writeTrace(args.out_dir + "/fig12.trace.json", all.spans(), "fig12",
                   args.seed);
        out.notes.push_back(
            "traced run cells_per_sec " +
            exact(static_cast<double>(st.cells()) /
                  (best(traced.pass_ns) * 1e-9)) +
            " vs untraced " + exact(out.metrics["cells_per_sec"]) +
            " (end-to-end metrics come from the untraced run)");
    }
    return out;
}

} // namespace perfbench

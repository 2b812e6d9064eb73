/**
 * @file
 * Reproduces Fig 12: end-to-end training iteration time for
 * ResNet-152, GNMT, DLRM and Transformer-1T on the six next-gen
 * platforms, decomposed into forward/backward compute and exposed
 * MP/DP communication, for Baseline, Themis+SCF and Ideal. Times are
 * normalized to the baseline of each (workload, topology) cell.
 *
 * The Ideal method runs the same training loop on a synthetic
 * single-dimension platform whose bandwidth is the sum of all
 * dimensions and whose latency is zero — exactly Table 3's
 * "collective size / total BW" with the loop's overlap semantics.
 *
 * The paper reports 3 identical iterations; we simulate one (the
 * normalized decomposition is identical).
 *
 * The whole workload x topology x method grid fans across the sweep
 * harness with one shared plan cache. The run's wall clock is the
 * end-to-end sweep-throughput number tracked per PR in
 * bench_results/BENCH_e2e.json, and the grid's results must hash to
 * the pinned digest (tests/golden_test.cpp pins the same value).
 */

#include <cstdio>

#include "bench_util.hpp"
#include "common/hash.hpp"
#include "models/model_zoo.hpp"
#include "workload/training_loop.hpp"

using namespace themis;

namespace {

/**
 * FNV-1a over the five IterationBreakdown fields of every cell, in
 * grid order. A change that only speeds the simulator up must leave
 * it as is.
 */
constexpr std::uint64_t kGridDigest = 0xee2cfa05ca84f849ULL;

struct MethodDef
{
    const char* name;
    runtime::RuntimeConfig config;
    bool on_ideal_topology;
};

struct GridDef
{
    std::vector<std::string> workloads;
    std::vector<Topology> topologies;
    std::vector<Topology> ideal_topologies;
    std::vector<MethodDef> methods;

    std::size_t
    cellCount() const
    {
        return workloads.size() * topologies.size() * methods.size();
    }
};

struct GridRun
{
    std::vector<workload::IterationBreakdown> results;
    double wall_ms = 0.0;
    double cells_per_sec = 0.0;
    int threads = 0; ///< resolved worker count the sweep ran with
    PlanCache::Stats cache_stats;
    std::size_t cached_plans = 0;
};

/** Simulate every grid cell across the sweep workers. */
GridRun
runGrid(const GridDef& grid)
{
    PlanCache cache; // shared read-mostly across all workers
    sim::SweepOptions opts;
    // Pin the resolved worker count into the options so the reported
    // number is, by construction, the one the sweep runs with.
    opts.threads = sim::SweepRunner(opts).threads();
    const std::size_t per_workload =
        grid.topologies.size() * grid.methods.size();
    GridRun out;
    const double t0 = bench::nowNs();
    out.results = sim::sweepIndexed(
        grid.cellCount(),
        [&](std::size_t i, sim::EventQueue& queue) {
            const std::size_t w = i / per_workload;
            const std::size_t t =
                i % per_workload / grid.methods.size();
            const std::size_t m = i % grid.methods.size();
            const MethodDef& method = grid.methods[m];
            runtime::RuntimeConfig cfg = method.config;
            cfg.plan_cache = &cache;
            const Topology& topo = method.on_ideal_topology
                                       ? grid.ideal_topologies[t]
                                       : grid.topologies[t];
            runtime::CommRuntime comm(queue, topo, cfg);
            workload::TrainingLoop loop(
                comm, models::byName(grid.workloads[w]));
            return loop.runIteration();
        },
        opts);
    out.wall_ms = (bench::nowNs() - t0) / 1e6;
    out.cells_per_sec =
        static_cast<double>(grid.cellCount()) / (out.wall_ms * 1e-3);
    out.threads = opts.threads;
    out.cache_stats = cache.stats();
    out.cached_plans = cache.planCount();
    return out;
}

} // namespace

int
main()
{
    bench::printHeader(
        "End-to-end training iteration decomposition",
        "Fig 12 (paper avg speedups: ResNet-152 1.49x, GNMT 1.30x, "
        "DLRM 1.30x, Transformer-1T 1.25x)");

    GridDef grid;
    grid.workloads = models::paperWorkloads();
    grid.topologies = presets::nextGenTopologies();
    for (const auto& topo : grid.topologies)
        grid.ideal_topologies.push_back(presets::idealTopology(topo));
    grid.methods = {{"Baseline", runtime::baselineConfig(), false},
                    {"Themis+SCF", runtime::themisScfConfig(), false},
                    {"Ideal", runtime::themisScfConfig(), true}};

    const GridRun run = runGrid(grid);
    Fnv1a digest;
    for (const auto& it : run.results)
        workload::mixBreakdown(digest, it);
    THEMIS_ASSERT(digest.value() == kGridDigest,
                  "grid digest " << std::hex << digest.value()
                                 << " != pinned " << kGridDigest);

    stats::CsvWriter csv(bench::csvPath("fig12_end_to_end"));
    csv.writeRow({"workload", "topology", "method", "fwd_compute",
                  "bwd_compute", "exposed_mp", "exposed_dp", "total",
                  "normalized_total"});

    const std::size_t per_workload =
        grid.topologies.size() * grid.methods.size();
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        const std::string& workload = grid.workloads[w];
        std::printf("%s\n", workload.c_str());
        stats::TextTable t({"Topology", "Method", "Fwd", "Bwd",
                            "Exp MP", "Exp DP", "Total",
                            "Normalized"});
        double speedup_sum = 0.0, speedup_max = 0.0;
        double ideal_sum = 0.0;
        int cells = 0;
        for (std::size_t ti = 0; ti < grid.topologies.size(); ++ti) {
            const Topology& topo = grid.topologies[ti];
            const std::size_t cell0 =
                w * per_workload + ti * grid.methods.size();
            const auto& base = run.results[cell0];
            const auto& scf = run.results[cell0 + 1];
            const auto& ideal = run.results[cell0 + 2];

            struct RowDef
            {
                const char* method;
                const workload::IterationBreakdown* it;
            };
            const RowDef rows[] = {{"Baseline", &base},
                                   {"Themis+SCF", &scf},
                                   {"Ideal", &ideal}};
            for (const auto& row : rows) {
                const auto& it = *row.it;
                t.addRow({topo.name(), row.method,
                          fmtTime(it.fwd_compute),
                          fmtTime(it.bwd_compute),
                          fmtTime(it.exposed_mp),
                          fmtTime(it.exposed_dp), fmtTime(it.total),
                          fmtDouble(it.total / base.total, 3)});
                csv.writeRow({workload, topo.name(), row.method,
                              fmtDouble(it.fwd_compute, 1),
                              fmtDouble(it.bwd_compute, 1),
                              fmtDouble(it.exposed_mp, 1),
                              fmtDouble(it.exposed_dp, 1),
                              fmtDouble(it.total, 1),
                              fmtDouble(it.total / base.total, 5)});
            }
            const double speedup = base.total / scf.total;
            speedup_sum += speedup;
            speedup_max = std::max(speedup_max, speedup);
            ideal_sum += base.total / ideal.total;
            ++cells;
        }
        std::printf("%s", t.render().c_str());
        std::printf("  %s speedup: avg %.2fx, max %.2fx   (ideal "
                    "bound avg %.2fx)\n\n",
                    workload.c_str(), speedup_sum / cells, speedup_max,
                    ideal_sum / cells);
    }

    std::printf("sweep throughput (%zu cells, %d worker threads): "
                "%.1f ms (%.1f cells/sec), grid digest %#llx, plan "
                "cache: %zu plans, %llu hits / %llu misses\n",
                grid.cellCount(), run.threads, run.wall_ms,
                run.cells_per_sec,
                static_cast<unsigned long long>(digest.value()),
                run.cached_plans,
                static_cast<unsigned long long>(run.cache_stats.plan_hits),
                static_cast<unsigned long long>(
                    run.cache_stats.plan_misses));

    bench::BenchReport report("fig12_e2e");
    // The label predates the single-pass bench: it named the
    // "optimized" pass, which timed this same grid and plan cache.
    report.delta("e2e/optimized", run.cells_per_sec);
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(digest.value()));
    report.info("digest", hex);
    bench::JsonWriter g, pc;
    g.beginObject();
    g.key("workloads").value(grid.workloads.size());
    g.key("topologies").value(grid.topologies.size());
    g.key("methods").value(grid.methods.size());
    g.key("cells").value(grid.cellCount());
    g.key("threads").value(run.threads);
    g.key("wall_ms").value(run.wall_ms);
    report.section("grid", g.endObject().str());
    pc.beginObject();
    pc.key("plans").value(run.cached_plans);
    pc.key("hits").value(run.cache_stats.plan_hits);
    pc.key("misses").value(run.cache_stats.plan_misses);
    report.section("plan_cache", pc.endObject().str());
    report.write("BENCH_e2e.json");
    return 0;
}

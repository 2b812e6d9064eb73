/**
 * @file
 * Multi-iteration convergence-run benchmark: the steady-state
 * iteration replay engine against full per-iteration simulation.
 *
 * Three sections, all in one binary:
 *
 *  1. Headline: a 50-iteration Transformer-1T convergence run on a
 *     next-gen platform, once with replay and once fully simulated.
 *     The two runs must produce bit-identical totals (asserted); the
 *     wall-clock ratio is the replay speedup tracked per PR.
 *  2. Exactness proof: the replay engine's co-run mode on a smaller
 *     fig12-shaped cell (ResNet-152) — full simulation continues
 *     after steady-state detection and every subsequent iteration is
 *     asserted bit-identical to the replay prediction.
 *  3. Scale: the full fig12 grid (4 workloads x 6 platforms x
 *     3 methods = 72 cells) at 20 iterations per cell, fanned across
 *     the sweep harness with a shared plan cache.
 *
 * Writes bench_results/BENCH_convergence.json (README *Bench output*).
 */

#include <cstdio>

#include "bench_util.hpp"
#include "models/model_zoo.hpp"
#include "workload/convergence.hpp"
#include "workload/training_loop.hpp"

using namespace themis;

namespace {

struct ModeRun
{
    workload::ConvergenceReport report;
    double wall_ms = 0.0;
};

ModeRun
runTransformer(const Topology& topo, int iterations, bool replay)
{
    PlanCache cache;
    sim::EventQueue queue;
    runtime::RuntimeConfig cfg = runtime::themisScfConfig();
    cfg.plan_cache = &cache;
    runtime::CommRuntime comm(queue, topo, cfg);
    workload::TrainingLoop loop(comm,
                                models::byName("Transformer-1T"));
    workload::ConvergenceOptions opts;
    opts.iterations = iterations;
    opts.replay = replay;
    ModeRun out;
    const double t0 = bench::nowNs();
    out.report = workload::runConverged(comm, loop, opts);
    out.wall_ms = (bench::nowNs() - t0) / 1e6;
    return out;
}

stats::ConvergenceRunRow
rowOf(const char* label, const ModeRun& run)
{
    stats::ConvergenceRunRow row;
    row.label = label;
    row.iterations = run.report.iterations;
    row.simulated = run.report.simulated_iterations;
    row.replayed = run.report.replayed_iterations;
    row.total_time = run.report.total.total;
    row.last_iteration = run.report.last.total;
    row.utilization = run.report.utilization;
    row.wall_ms = run.wall_ms;
    return row;
}

} // namespace

int
main()
{
    bench::printHeader(
        "Multi-iteration convergence runs (steady-state replay)",
        "per-iteration cost amortized to ~O(1) simulated iterations");

    // ---- 1. Headline: 50-iteration Transformer-1T ------------------
    const auto topos = presets::nextGenTopologies();
    THEMIS_ASSERT(!topos.empty(), "no next-gen platforms");
    const Topology& headline_topo = topos.front();
    const int kIterations = 50;

    // Replay first: the full pass then runs on the warmer CPU,
    // biasing the reported speedup down, not up.
    const ModeRun replay =
        runTransformer(headline_topo, kIterations, true);
    const ModeRun full =
        runTransformer(headline_topo, kIterations, false);
    // Same "bit-identical" definition the exactness mode asserts with.
    const bool identical =
        workload::resultsBitIdentical(replay.report, full.report);
    THEMIS_ASSERT(identical,
                  "replayed and fully simulated convergence runs "
                  "diverged");
    const double speedup = full.wall_ms / replay.wall_ms;

    std::printf("Transformer-1T x %d iterations on %s:\n\n",
                kIterations, headline_topo.name().c_str());
    std::printf("%s", stats::renderConvergenceTable(
                          {rowOf("replay", replay),
                           rowOf("full simulation", full)})
                          .c_str());
    std::printf("\n  steady state at iteration %d (fingerprint "
                "%016llx), results bit-identical, speedup %.1fx\n\n",
                replay.report.steady_at,
                static_cast<unsigned long long>(
                    replay.report.steady_fingerprint),
                speedup);

    // ---- 2. Exactness proof ----------------------------------------
    double exact_wall_ms = 0.0;
    int exact_steady_at = -1;
    {
        PlanCache cache;
        sim::EventQueue queue;
        runtime::RuntimeConfig cfg = runtime::themisScfConfig();
        cfg.plan_cache = &cache;
        runtime::CommRuntime comm(queue, topos.front(), cfg);
        workload::TrainingLoop loop(comm, models::byName("ResNet-152"));
        workload::ConvergenceOptions opts;
        opts.iterations = 10;
        opts.exactness_check = true; // asserts on any divergence
        const double t0 = bench::nowNs();
        const auto r = workload::runConverged(comm, loop, opts);
        exact_wall_ms = (bench::nowNs() - t0) / 1e6;
        exact_steady_at = r.steady_at;
        THEMIS_ASSERT(r.steady_at >= 0,
                      "exactness run never reached steady state");
        std::printf("exactness mode: ResNet-152 x %d iterations "
                    "co-run and asserted bit-identical (steady at "
                    "iteration %d, %.1f ms)\n\n",
                    r.iterations, r.steady_at, exact_wall_ms);
    }

    // ---- 3. fig12 grid at 20 iterations/cell -----------------------
    struct MethodDef
    {
        const char* name;
        runtime::RuntimeConfig config;
        bool on_ideal_topology;
    };
    const std::vector<MethodDef> methods = {
        {"Baseline", runtime::baselineConfig(), false},
        {"Themis+SCF", runtime::themisScfConfig(), false},
        {"Ideal", runtime::themisScfConfig(), true}};
    const auto workloads = models::paperWorkloads();
    std::vector<Topology> ideal_topos;
    for (const auto& t : topos)
        ideal_topos.push_back(presets::idealTopology(t));
    const int kGridIterations = 20;
    const std::size_t cells =
        workloads.size() * topos.size() * methods.size();
    const std::size_t per_workload = topos.size() * methods.size();

    PlanCache grid_cache;
    sim::SweepOptions sweep_opts;
    sweep_opts.threads =
        sim::SweepRunner(sim::SweepOptions{}).threads();
    const double grid_t0 = bench::nowNs();
    const auto grid_results = sim::sweepIndexed(
        cells,
        [&](std::size_t i, sim::EventQueue& queue) {
            const std::size_t w = i / per_workload;
            const std::size_t t = i % per_workload / methods.size();
            const std::size_t m = i % methods.size();
            runtime::RuntimeConfig cfg = methods[m].config;
            cfg.plan_cache = &grid_cache;
            const Topology& topo = methods[m].on_ideal_topology
                                       ? ideal_topos[t]
                                       : topos[t];
            runtime::CommRuntime comm(queue, topo, cfg);
            workload::TrainingLoop loop(
                comm, models::byName(workloads[w]));
            workload::ConvergenceOptions opts;
            opts.iterations = kGridIterations;
            return workload::runConverged(comm, loop, opts);
        },
        sweep_opts);
    const double grid_wall_ms = (bench::nowNs() - grid_t0) / 1e6;
    const double grid_cells_per_sec =
        static_cast<double>(cells) / (grid_wall_ms * 1e-3);

    int grid_simulated = 0, grid_replayed = 0, grid_steady = 0;
    for (const auto& r : grid_results) {
        grid_simulated += r.simulated_iterations;
        grid_replayed += r.replayed_iterations;
        if (r.steady_at >= 0)
            ++grid_steady;
    }
    std::printf("fig12 grid: %zu cells x %d iterations on %d worker "
                "threads: %.1f ms (%.1f cells/sec)\n",
                cells, kGridIterations, sweep_opts.threads,
                grid_wall_ms, grid_cells_per_sec);
    std::printf("  %d iterations simulated, %d replayed "
                "(steady state in %d/%zu cells)\n",
                grid_simulated, grid_replayed, grid_steady, cells);

    // ---- report ----------------------------------------------------
    bench::BenchReport report("convergence_run");
    report.delta("convergence/grid_cells_per_sec", grid_cells_per_sec);
    // A ratio of two wall clocks with a tens-of-ms denominator:
    // historized, too noisy to gate.
    report.number("convergence/replay_speedup", speedup);
    bench::JsonWriter t, e, g;
    t.beginObject();
    t.key("topology").value(headline_topo.name());
    t.key("iterations").value(kIterations);
    t.key("full_wall_ms").value(full.wall_ms);
    t.key("replay_wall_ms").value(replay.wall_ms);
    t.key("simulated_iterations").value(replay.report.simulated_iterations);
    t.key("replayed_iterations").value(replay.report.replayed_iterations);
    t.key("steady_at").value(replay.report.steady_at);
    t.key("bit_identical").value(identical);
    report.section("transformer_1t", t.endObject().str());
    e.beginObject();
    e.key("workload").value("ResNet-152");
    e.key("iterations").value(10);
    e.key("steady_at").value(exact_steady_at);
    e.key("passed").value(true);
    e.key("wall_ms").value(exact_wall_ms);
    report.section("exactness", e.endObject().str());
    g.beginObject();
    g.key("cells").value(cells);
    g.key("iterations_per_cell").value(kGridIterations);
    g.key("threads").value(sweep_opts.threads);
    g.key("wall_ms").value(grid_wall_ms);
    g.key("iterations_simulated").value(grid_simulated);
    g.key("iterations_replayed").value(grid_replayed);
    g.key("steady_cells").value(grid_steady);
    report.section("grid", g.endObject().str());
    report.write("BENCH_convergence.json");
    return 0;
}

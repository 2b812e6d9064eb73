/**
 * @file
 * Telemetry overhead benchmark: the observability layer must be close
 * to free when armed and exactly free semantically.
 *
 * Three convergence-run cells (replayed training, fully simulated
 * training, and a faulted adaptive run — the cell where every
 * publisher fires: fault edges, retries, re-plans, epoch closes,
 * trace spans). Each cell runs twice per repeat: telemetry off
 * (null sink) and telemetry on (metrics registry + flight recorder +
 * TraceWriter). The binary asserts, per cell:
 *
 *  1. Bit-identity: the instrumented run's results — including the
 *     steady-state fingerprint — equal the bare run's exactly.
 *     Telemetry is a pure observer; any divergence is a bug.
 *  2. Throughput: aggregate simulated-ops/sec with telemetry on stays
 *     within kOverheadFloor (>= 0.90x, i.e. <= 10% overhead) of the
 *     bare runs. The gate is the median of kPairs per-pair ratios. In
 *     a pair, each cell alternates bare and armed passes until both
 *     have run for at least kMinSampleNs, and keeps each side's
 *     fastest pass: taking turns puts both sides under the same host
 *     state, and a preempted or down-clocked pass only ever reads
 *     slower, so it cannot decide the verdict.
 *
 * Writes bench_results/BENCH_telemetry.json, where the overhead
 * ratio is floor-gated (README *Bench output*).
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "models/model_zoo.hpp"
#include "sim/fault_timeline.hpp"
#include "stats/telemetry/telemetry.hpp"
#include "stats/trace_writer.hpp"
#include "topology/presets.hpp"
#include "workload/convergence.hpp"
#include "workload/training_loop.hpp"

using namespace themis;

namespace {

constexpr double kOverheadFloor = 0.90; // ops/sec on >= 0.90x off
constexpr int kPairs = 15;
constexpr double kMinSampleNs = 3.0e7; // 30 ms of passes per side

struct Cell
{
    std::string name;
    int iterations = 8;
    bool replay = true;
    const sim::FaultTimeline* faults = nullptr;
    bool adapt = false;
};

struct CellRun
{
    workload::ConvergenceReport report;
    double wall_ns = 0.0;
    std::size_t trace_events = 0;
    std::size_t metrics = 0;
};

CellRun
runCell(const Topology& topo, const Cell& cell, bool instrumented)
{
    stats::telemetry::Telemetry telem;
    stats::TraceWriter trace;
    telem.trace = &trace;

    sim::EventQueue queue;
    runtime::RuntimeConfig cfg = runtime::themisScfConfig();
    cfg.faults = cell.faults;
    cfg.adaptation.enabled = cell.adapt;
    if (instrumented)
        cfg.telemetry = &telem;
    runtime::CommRuntime comm(queue, topo, cfg);
    workload::TrainingLoop loop(comm, models::byName("DLRM"));
    workload::ConvergenceOptions opts;
    opts.iterations = cell.iterations;
    opts.replay = cell.replay;

    CellRun r;
    const double t0 = bench::nowNs();
    r.report = workload::runConverged(comm, loop, opts);
    r.wall_ns = bench::nowNs() - t0;
    comm.finalizeStats();
    r.trace_events = trace.eventCount();
    r.metrics = telem.metrics.size();
    return r;
}

/**
 * Fastest bare and armed pass walls of @p cell, [bare, armed]: passes
 * alternate, armed first when @p armed_first, until each side has run
 * for at least kMinSampleNs.
 */
std::array<double, 2>
sampleCell(const Topology& topo, const Cell& cell, bool armed_first)
{
    std::array<double, 2> best{}, spent{};
    while (std::min(spent[0], spent[1]) < kMinSampleNs) {
        for (int k = 0; k < 2; ++k) {
            const int side = (k == 1) != armed_first ? 1 : 0;
            const double ns = runCell(topo, cell, side == 1).wall_ns;
            best[side] = spent[side] == 0.0 ? ns : std::min(best[side], ns);
            spent[side] += ns;
        }
    }
    return best;
}

} // namespace

int
main()
{
    bench::printHeader(
        "Telemetry overhead (armed vs bare runs)",
        "observability extension: metrics registry, flight recorder "
        "and trace writer must observe without perturbing — "
        "bit-identical results at <= 10% throughput cost");

    const Topology topo = presets::byName("2D-SW_SW");

    sim::FaultTimeline faults;
    faults.addStraggler(0, 1.0e5, 0.5);
    faults.addFlap(1, 2.0e5, 2.0e4);

    std::vector<Cell> cells;
    cells.push_back({"replay", 12, true, nullptr, false});
    cells.push_back({"full-sim", 6, false, nullptr, false});
    cells.push_back({"faults-adapt", 8, true, &faults, true});

    // Bit-identity and liveness, once per cell.
    bool all_identical = true;
    std::vector<CellRun> armed;
    for (const auto& cell : cells) {
        const CellRun off = runCell(topo, cell, false);
        CellRun on = runCell(topo, cell, true);
        const bool identical =
            workload::resultsBitIdentical(off.report, on.report) &&
            off.report.steady_fingerprint ==
                on.report.steady_fingerprint;
        all_identical = all_identical && identical;
        THEMIS_ASSERT(identical,
                      "telemetry perturbed cell '" << cell.name
                                                   << "'");
        THEMIS_ASSERT(on.metrics > 0 && on.trace_events > 0,
                      "instrumented cell '"
                          << cell.name
                          << "' published nothing — dead telemetry "
                             "wiring, the comparison is vacuous");
        armed.push_back(std::move(on));
    }

    // Pairs: every cell's fastest bare and armed pass, bare first on
    // even pairs and armed first on odd ones. Both sides simulate the
    // same ops (asserted bit-identical above), so a pair's ops/sec
    // ratio is its bare wall over its armed wall.
    double ops_per_pass = 0.0;
    for (const auto& r : armed)
        ops_per_pass += static_cast<double>(r.report.ops);
    std::vector<double> ratios;
    std::vector<std::array<std::vector<double>, 2>> walls(cells.size());
    std::array<double, 2> wall_total{};
    for (int p = 0; p < kPairs; ++p) {
        std::array<double, 2> pair{}; // [bare, armed]
        for (std::size_t c = 0; c < cells.size(); ++c) {
            const auto best = sampleCell(topo, cells[c], p % 2 == 1);
            for (int side = 0; side < 2; ++side) {
                pair[side] += best[side];
                walls[c][side].push_back(best[side]);
            }
        }
        ratios.push_back(pair[0] / pair[1]);
        wall_total[0] += pair[0];
        wall_total[1] += pair[1];
    }

    bench::JsonWriter cells_json;
    cells_json.beginArray();
    for (std::size_t c = 0; c < cells.size(); ++c) {
        // Median over pairs of the fastest pass, bare and armed.
        const double off_wall = bench::median(walls[c][0]);
        const double on_wall = bench::median(walls[c][1]);
        std::printf("  %-13s %6.2f ms bare  %6.2f ms armed  "
                    "(%.2fx, %zu instrument(s), %zu trace event(s), "
                    "fingerprint %016llx)\n",
                    cells[c].name.c_str(), off_wall / 1e6, on_wall / 1e6,
                    off_wall / on_wall, armed[c].metrics,
                    armed[c].trace_events,
                    static_cast<unsigned long long>(
                        armed[c].report.steady_fingerprint));

        cells_json.beginObject();
        cells_json.key("cell").value(cells[c].name);
        cells_json.key("bare_wall_ns").value(off_wall);
        cells_json.key("armed_wall_ns").value(on_wall);
        cells_json.key("bit_identical").value(true);
        cells_json.endObject();
    }

    const double off_rate = ops_per_pass * kPairs / (wall_total[0] * 1e-9);
    const double on_rate = ops_per_pass * kPairs / (wall_total[1] * 1e-9);
    const double overhead_ratio = bench::median(ratios);
    const auto [lo, hi] = std::minmax_element(ratios.begin(), ratios.end());
    std::printf("\naggregate: %.0f ops/sec bare, %.0f ops/sec armed; "
                "median pair ratio %.3fx over %d pairs (range "
                "%.3f-%.3f; floor %.2fx, asserted); all cells "
                "bit-identical\n\n",
                off_rate, on_rate, overhead_ratio, kPairs, *lo, *hi,
                kOverheadFloor);

    bench::BenchReport report("telemetry_overhead");
    report.floor("telemetry/overhead_ratio", overhead_ratio,
                 kOverheadFloor);
    // The bare cells run the same fast path the other benches gate.
    report.delta("telemetry/events_per_sec_bare", off_rate);
    report.number("telemetry/events_per_sec_armed", on_rate);
    report.number("telemetry/bit_identical", all_identical);
    report.section("cells", cells_json.endArray().str());
    report.write("BENCH_telemetry.json");
    return 0;
}

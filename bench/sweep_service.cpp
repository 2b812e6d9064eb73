/**
 * @file
 * Sweep scale-out bench: sharded execution, checkpoint/restart and
 * memoized what-if queries on top of SweepRunner + PlanCache +
 * ResultStore (the themis_cli --shard/--results/--serve machinery).
 *
 * Three in-binary proofs/measurements, written to
 * bench_results/BENCH_sweep_service.json and gated per PR by
 * tools/bench_trend.py (sweep_service/cells_per_sec):
 *
 *  1. Shard scaling: the fig12-style collective grid (next-gen
 *     topologies x chunk counts x Table 3 schedulers) runs once as a
 *     single process and once split 2 ways by the canonical strided
 *     ShardSpec partition. Each shard runs with its own PlanCache
 *     (process isolation — shards share nothing), and the 2-shard
 *     wall is max(shard walls), modelling the two processes running
 *     concurrently. Each of kRounds rounds interleaves 1-process,
 *     shard-0 and shard-1 passes until each has run for at least
 *     kMinSampleNs and keeps each one's fastest pass; the gate is the
 *     median of the per-round scaling ratios, so host drift cancels
 *     within a round and one disturbed round cannot decide the
 *     verdict. Asserts >= 1.7x cells/sec at 2 shards.
 *
 *  2. Determinism: the merged 2-shard result stores are asserted
 *     byte-equal to the 1-process store (canonical bytes), and a
 *     shard-0 run interrupted mid-grid — including a partially
 *     written trailing record — resumes to canonical bytes identical
 *     to its uninterrupted run.
 *
 *  3. Warm-query speedup: answering a repeated what-if query from the
 *     results store vs re-simulating it cold (the 1-process pass wall
 *     per cell). Asserts >= 10x.
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "sim/grid_shard.hpp"
#include "sim/result_store.hpp"

using namespace themis;

namespace {

constexpr Bytes kCellSize = 1.0e8;
constexpr double kShardScalingFloor = 1.7; // 2-shard cells/sec ratio
constexpr double kWarmSpeedupFloor = 10.0; // cold over warm query
constexpr int kRounds = 15;
constexpr double kMinSampleNs = 3.0e7; // 30 ms of passes per part

/** The grid: topologies x chunk counts x Table 3 schedulers. */
struct Grid
{
    std::vector<Topology> topos;
    /** Odd cells-per-topology block (3 x 3), so the mod-2 stride's
     *  phase alternates across topology blocks and both shards see
     *  the same chunk-count cost mix. */
    std::vector<int> chunk_list{8, 16, 32};
    std::vector<bench::SchedulerSetup> setups =
        bench::table3Schedulers();

    std::size_t
    cells() const
    {
        return topos.size() * chunk_list.size() * setups.size();
    }

    /** Canonical decomposition (topology-major, like themis_cli). */
    std::size_t
    topoOf(std::size_t i) const
    {
        return i / (chunk_list.size() * setups.size());
    }
    int
    chunksOf(std::size_t i) const
    {
        return chunk_list[i % (chunk_list.size() * setups.size()) /
                          setups.size()];
    }
    std::size_t
    schedOf(std::size_t i) const
    {
        return i % setups.size();
    }

    std::string
    keyOf(std::size_t i) const
    {
        return sim::makeResultKey(
            {{"topo", topos[topoOf(i)].name()},
             {"sched", setups[schedOf(i)].name},
             {"chunks", std::to_string(chunksOf(i))},
             {"enforce", "0"},
             {"type", "ar"},
             {"size", sim::keyDouble(kCellSize)}});
    }
};

/** Simulate one cell with @p cache shared across the owning run. */
bench::CollectiveRun
evalCell(const Grid& grid, std::size_t i, PlanCache& cache)
{
    runtime::RuntimeConfig cfg = grid.setups[grid.schedOf(i)].config;
    cfg.plan_cache = &cache;
    return bench::runCollective(grid.topos[grid.topoOf(i)], cfg,
                                CollectiveType::AllReduce, kCellSize,
                                grid.chunksOf(i));
}

/**
 * Wall milliseconds to simulate @p cells sequentially with one fresh
 * PlanCache (one process / one shard worth of work). Results are
 * discarded: timing is separated from journaling so store I/O and
 * measurement noise cannot couple.
 */
double
timedPass(const Grid& grid, const std::vector<std::size_t>& cells)
{
    PlanCache cache;
    const double t0 = bench::nowNs();
    for (std::size_t i : cells)
        (void)evalCell(grid, i, cache);
    return (bench::nowNs() - t0) / 1e6;
}

using Parts = std::array<const std::vector<std::size_t>*, 3>;

/**
 * One round: a pass over each of @p parts in turn, repeated until each
 * part has run for at least kMinSampleNs; returns each part's fastest
 * pass wall. Taking turns puts the parts under the same host state,
 * and a preempted or down-clocked pass only ever reads slower.
 */
std::array<double, 3>
sampleRound(const Grid& grid, const Parts& parts)
{
    std::array<double, 3> best{}, spent{};
    while (*std::min_element(spent.begin(), spent.end()) * 1e6 <
           kMinSampleNs) {
        for (std::size_t p = 0; p < parts.size(); ++p) {
            const double ms = timedPass(grid, *parts[p]);
            best[p] = spent[p] == 0.0 ? ms : std::min(best[p], ms);
            spent[p] += ms;
        }
    }
    return best;
}

/** Journal @p cells into a fresh store at @p path (resume-aware). */
void
journalPass(const Grid& grid, const std::vector<std::size_t>& cells,
            const std::string& path, std::size_t max_cells = 0)
{
    sim::ResultStore store(path);
    PlanCache cache;
    std::size_t fresh = 0;
    for (std::size_t i : cells) {
        const std::string key = grid.keyOf(i);
        if (store.has(key))
            continue;
        if (max_cells > 0 && fresh == max_cells)
            return;
        ++fresh;
        const double c0 = bench::nowNs();
        const auto run = evalCell(grid, i, cache);
        sim::ResultRecord rec;
        rec.key = key;
        rec.values = {{"time_ns", run.time},
                      {"util", run.weighted_util}};
        rec.fingerprint = sim::valuesFingerprint(rec.values);
        rec.wall_ms = (bench::nowNs() - c0) / 1e6;
        store.append(std::move(rec));
    }
}

std::string
freshPath(const std::string& name)
{
    const std::string path = bench::resultPath(name);
    std::filesystem::remove(path); // stale journals would be "resumed"
    return path;
}

} // namespace

int
main()
{
    bench::printHeader(
        "Sharded, resumable, memoized sweep execution",
        "sweep scale-out layer (deterministic --shard partitioning, "
        "crash-safe --results store, --serve warm queries)");

    Grid grid;
    grid.topos = presets::nextGenTopologies();
    const std::size_t cells = grid.cells();

    const sim::ShardSpec whole{};
    const sim::ShardSpec half0{0, 2}, half1{1, 2};
    const auto all = sim::shardCells(cells, whole);
    const auto own0 = sim::shardCells(cells, half0);
    const auto own1 = sim::shardCells(cells, half1);
    THEMIS_ASSERT(own0.size() + own1.size() == cells,
                  "shards do not partition the grid");

    bench::BenchReport report("sweep_service");

    // --- 1. shard scaling (warmup untimed, then interleaved rounds) -
    (void)timedPass(grid, all);
    std::array<std::vector<double>, 3> walls; // 1 process, shards 0, 1
    std::vector<double> ratios;
    for (int r = 0; r < kRounds; ++r) {
        const auto ms = sampleRound(grid, {&all, &own0, &own1});
        for (std::size_t p = 0; p < ms.size(); ++p)
            walls[p].push_back(ms[p]);
        ratios.push_back(ms[0] / std::max(ms[1], ms[2]));
    }
    const double one_ms = bench::median(walls[0]);
    const double s0_ms = bench::median(walls[1]);
    const double s1_ms = bench::median(walls[2]);
    const double two_ms = std::max(s0_ms, s1_ms);
    const double one_cps = static_cast<double>(cells) / (one_ms * 1e-3);
    const double two_cps = static_cast<double>(cells) / (two_ms * 1e-3);
    const double scaling = bench::median(ratios);
    const auto [lo, hi] = std::minmax_element(ratios.begin(), ratios.end());
    std::printf("grid: %zu cells (%zu topologies x %zu chunk counts "
                "x %zu schedulers)\n",
                cells, grid.topos.size(), grid.chunk_list.size(),
                grid.setups.size());
    std::printf("  1 process : %8.1f ms (%7.1f cells/sec)\n", one_ms,
                one_cps);
    std::printf("  2 shards  : %8.1f ms max(%.1f, %.1f) "
                "(%7.1f cells/sec)\n",
                two_ms, s0_ms, s1_ms, two_cps);
    std::printf("  scaling   : %.2fx, median of %d rounds (range "
                "%.2f-%.2f; floor %.1fx, asserted)\n",
                scaling, kRounds, *lo, *hi, kShardScalingFloor);
    report.delta("sweep_service/cells_per_sec", one_cps);
    report.floor("sweep_service/shard_scaling", scaling,
                 kShardScalingFloor);

    // --- 2. merge + resume determinism ----------------------------
    const std::string one_path =
        freshPath("sweep_service_one.jsonl");
    const std::string s0_path =
        freshPath("sweep_service_shard0.jsonl");
    const std::string s1_path =
        freshPath("sweep_service_shard1.jsonl");
    journalPass(grid, all, one_path);
    journalPass(grid, own0, s0_path);
    journalPass(grid, own1, s1_path);
    const std::string merged =
        sim::ResultStore::canonicalMerge({s0_path, s1_path});
    const std::string one_canon =
        sim::ResultStore(one_path).canonicalBytes();
    const bool merge_identical = merged == one_canon;
    std::printf("  merged 2-shard stores vs 1-process store: %s "
                "(%zu canonical bytes)\n",
                merge_identical ? "byte-identical" : "DIVERGED",
                merged.size());
    THEMIS_ASSERT(merge_identical,
                  "merged shard stores diverged from the 1-process "
                  "store");

    // Interrupt shard 0 halfway, corrupt the tail the way a crash
    // mid-append would, resume, and require canonical equality.
    const std::string resume_path =
        freshPath("sweep_service_resume.jsonl");
    journalPass(grid, own0, resume_path, own0.size() / 2);
    {
        std::FILE* f = std::fopen(resume_path.c_str(), "ab");
        THEMIS_ASSERT(f != nullptr, "cannot corrupt " << resume_path);
        std::fputs("{\"key\": \"chunks=8;torn", f); // torn record
        std::fclose(f);
    }
    journalPass(grid, own0, resume_path);
    const bool resume_identical =
        sim::ResultStore(resume_path).canonicalBytes() ==
        sim::ResultStore(s0_path).canonicalBytes();
    std::printf("  interrupted+resumed shard 0 vs uninterrupted: "
                "%s\n",
                resume_identical ? "byte-identical" : "DIVERGED");
    THEMIS_ASSERT(resume_identical,
                  "resumed shard store diverged from the "
                  "uninterrupted run");

    // --- 3. warm-query speedup ------------------------------------
    // Cold: the mean full simulation. Warm: the same answer read out
    // of the results store, as themis_cli --serve does for repeats.
    const double cold_ms = one_ms / static_cast<double>(cells);
    sim::ResultStore store(one_path);
    constexpr int kLookups = 20000;
    std::uint64_t sink = 0;
    const double q0 = bench::nowNs();
    for (int r = 0; r < kLookups; ++r) {
        const auto* rec = store.find(grid.keyOf(
            static_cast<std::size_t>(r) % cells));
        THEMIS_ASSERT(rec != nullptr, "warm query missed the store");
        sink ^= rec->fingerprint;
    }
    const double warm_ms =
        (bench::nowNs() - q0) / 1e6 / kLookups;
    const double warm_speedup =
        warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;
    std::printf("  what-if query: cold %.3f ms -> warm %.5f ms "
                "(%.0fx, checksum %016llx)\n",
                cold_ms, warm_ms, warm_speedup,
                static_cast<unsigned long long>(sink));
    report.floor("sweep_service/warm_speedup", warm_speedup,
                 kWarmSpeedupFloor);

    // --- report ---------------------------------------------------
    report.number("sweep_service/merge_bit_identical", merge_identical);
    report.number("sweep_service/resume_bit_identical", resume_identical);
    bench::JsonWriter g, one, two, q;
    g.beginObject();
    g.key("topologies").value(grid.topos.size());
    g.key("chunk_counts").value(grid.chunk_list.size());
    g.key("schedulers").value(grid.setups.size());
    g.key("cells").value(cells);
    g.key("rounds").value(kRounds);
    report.section("grid", g.endObject().str());
    one.beginObject().key("wall_ms").value(one_ms).endObject();
    report.section("one_process", one.str());
    two.beginObject();
    two.key("wall_ms_shard0").value(s0_ms);
    two.key("wall_ms_shard1").value(s1_ms);
    two.key("wall_ms_max").value(two_ms);
    two.key("cells_per_sec").value(two_cps);
    report.section("two_shard", two.endObject().str());
    q.beginObject();
    q.key("cold_ms_mean").value(cold_ms);
    q.key("warm_ms_mean").value(warm_ms);
    report.section("query", q.endObject().str());
    std::printf("\n");
    report.write("BENCH_sweep_service.json");
    return 0;
}

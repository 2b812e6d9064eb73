/**
 * @file
 * Shared helpers for the figure/table reproduction harnesses: running
 * single collectives under the Table 3 scheduler configurations,
 * emitting aligned tables plus CSV files under bench_results/, and
 * writing the gated BENCH_*.json result files (BenchReport).
 */

#ifndef THEMIS_BENCH_BENCH_UTIL_HPP
#define THEMIS_BENCH_BENCH_UTIL_HPP

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "core/ideal_estimator.hpp"
#include "runtime/comm_runtime.hpp"
#include "sim/sweep_runner.hpp"
#include "stats/csv_writer.hpp"
#include "stats/summary.hpp"
#include "stats/telemetry/json_writer.hpp"
#include "stats/telemetry/run_report.hpp"
#include "topology/presets.hpp"

namespace themis::bench {

/** Monotonic wall clock in nanoseconds (bench timing). */
inline double
nowNs()
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** One Table 3 scheduling configuration. */
struct SchedulerSetup
{
    std::string name;
    runtime::RuntimeConfig config;
};

/** Baseline / Themis+FIFO / Themis+SCF (Table 3, simulated rows). */
inline std::vector<SchedulerSetup>
table3Schedulers()
{
    return {{"Baseline", runtime::baselineConfig()},
            {"Themis+FIFO", runtime::themisFifoConfig()},
            {"Themis+SCF", runtime::themisScfConfig()}};
}

/** Result of one simulated collective. */
struct CollectiveRun
{
    TimeNs time = 0.0;
    double weighted_util = 0.0;
    std::vector<double> per_dim_util;
};

/** Simulate one collective of @p type/@p size on @p topo in @p queue. */
inline CollectiveRun
runCollective(sim::EventQueue& queue, const Topology& topo,
              const runtime::RuntimeConfig& cfg, CollectiveType type,
              Bytes size, int chunks = 64)
{
    runtime::CommRuntime comm(queue, topo, cfg);
    CollectiveRequest req;
    req.type = type;
    req.size = size;
    req.chunks = chunks;
    const int id = comm.issue(req);
    queue.run();
    CollectiveRun out;
    out.time = comm.record(id).duration();
    out.weighted_util = comm.utilization().weightedUtilization();
    out.per_dim_util = comm.utilization().perDimUtilization();
    return out;
}

/** Simulate one collective on a private throwaway queue. */
inline CollectiveRun
runCollective(const Topology& topo, const runtime::RuntimeConfig& cfg,
              CollectiveType type, Bytes size, int chunks = 64)
{
    sim::EventQueue queue;
    return runCollective(queue, topo, cfg, type, size, chunks);
}

/** All-Reduce shorthand. */
inline CollectiveRun
runAllReduce(const Topology& topo, const runtime::RuntimeConfig& cfg,
             Bytes size, int chunks = 64)
{
    return runCollective(topo, cfg, CollectiveType::AllReduce, size,
                         chunks);
}

/** One cell of an independent-simulation grid. */
struct GridCell
{
    const Topology* topo = nullptr;
    runtime::RuntimeConfig config;
    CollectiveType type = CollectiveType::AllReduce;
    Bytes size = 0.0;
    int chunks = 64;
};

/**
 * Simulate every cell across the sweep harness's worker threads.
 * Results come back in cell order, so callers can print tables in
 * their natural loop order after the sweep completes.
 */
inline std::vector<CollectiveRun>
runGrid(const std::vector<GridCell>& cells, int threads = 0)
{
    return sim::sweepIndexed(
        cells.size(),
        [&cells](std::size_t i, sim::EventQueue& queue) {
            const GridCell& cell = cells[i];
            return runCollective(queue, *cell.topo, cell.config,
                                 cell.type, cell.size, cell.chunks);
        },
        sim::SweepOptions{threads});
}

/** The paper's microbenchmark size sweep, 100 MB to 1 GB. */
inline std::vector<Bytes>
microbenchSizes()
{
    return {100.0e6, 200.0e6, 300.0e6, 400.0e6, 500.0e6,
            600.0e6, 700.0e6, 800.0e6, 900.0e6, 1.0e9};
}

/** Median of @p v (non-empty). */
inline double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Ensure bench_results/ exists and return the path for @p filename. */
inline std::string
resultPath(const std::string& filename)
{
    const std::filesystem::path dir{"bench_results"};
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    return (dir / filename).string();
}

/** Ensure bench_results/ exists and return the CSV path for @p name. */
inline std::string
csvPath(const std::string& name)
{
    return resultPath(name + ".csv");
}

using stats::telemetry::JsonWriter;

/**
 * One bench's result file: a themis.run_report/1 in mode "bench",
 * which tools/bench_trend.py reads without knowing the bench.
 *
 *  - "numbers": every scalar, keyed by its trend label (historized);
 *  - "gates": {"delta": [labels diffed against the previous run],
 *              "floor": {label: minimum}}, declared by delta()/floor();
 *  - further sections: row lists and records, built with JsonWriter.
 */
class BenchReport
{
public:
    explicit BenchReport(const std::string& bench) : report_("bench")
    {
        report_.setInfo("bench", bench);
    }

    void info(const std::string& key, const std::string& value)
    {
        report_.setInfo(key, value);
    }

    /** Historized scalar, not gated. */
    void number(const std::string& label, double value)
    {
        report_.setNumber(label, value);
    }

    /** Throughput scalar gated against the previous run's value. */
    void delta(const std::string& label, double value)
    {
        number(label, value);
        delta_.push_back(label);
    }

    /** Scalar that must reach @p min: asserted here, checked again by
     *  the trend gate. */
    void floor(const std::string& label, double value, double min)
    {
        number(label, value);
        floors_.emplace_back(label, min);
        THEMIS_ASSERT(value >= min, label << " = " << value
                                          << " is under its floor "
                                          << min);
    }

    void section(const std::string& name, const std::string& json)
    {
        report_.addSection(name, json);
    }

    /** Declare the gates and write bench_results/@p filename. */
    void write(const std::string& filename)
    {
        JsonWriter w;
        w.beginObject().key("delta").beginArray();
        for (const std::string& label : delta_)
            w.value(label);
        w.endArray().key("floor").beginObject();
        for (const auto& [label, min] : floors_)
            w.key(label).value(min);
        w.endObject().endObject();
        report_.addSection("gates", w.str());
        const std::string path = resultPath(filename);
        report_.writeFile(path);
        std::printf("wrote %s\n", path.c_str());
    }

private:
    stats::telemetry::RunReport report_;
    std::vector<std::string> delta_;
    std::vector<std::pair<std::string, double>> floors_;
};

/** Print a standard bench header. */
inline void
printHeader(const std::string& title, const std::string& paper_ref)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("Reproduces: %s\n", paper_ref.c_str());
    std::printf("==============================================================\n\n");
}

} // namespace themis::bench

#endif // THEMIS_BENCH_BENCH_UTIL_HPP

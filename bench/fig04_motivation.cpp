/**
 * @file
 * Reproduces Fig 4: normalized end-to-end training runtime as a
 * function of average network bandwidth utilization, for ResNet-152,
 * GNMT and Transformer-1T on the current 2D platform plus the six
 * next-gen platforms. Bold dots mark the utilization the baseline
 * collective scheduling actually achieves.
 *
 * Methodology (as in the paper): compute time is fixed across
 * platforms; communication time scales inversely with the achieved
 * utilization, reaching the Ideal at 100% and pure compute at
 * infinite bandwidth. Runtimes are normalized to the slowest platform
 * (current 2D) at 10% utilization.
 */

#include <cstdio>

#include "bench_util.hpp"
#include "models/model_zoo.hpp"
#include "workload/training_loop.hpp"

using namespace themis;

namespace {

struct WorkloadPoint
{
    TimeNs compute = 0.0;       ///< fwd+bwd compute per iteration
    TimeNs ideal_comm = 0.0;    ///< exposed comm at 100% utilization
    TimeNs baseline_time = 0.0; ///< simulated baseline iteration
    double baseline_util = 0.0; ///< measured baseline avg BW util
};

WorkloadPoint
measure(const Topology& topo, const std::string& workload)
{
    WorkloadPoint p;
    {
        sim::EventQueue queue;
        runtime::CommRuntime comm(queue, topo,
                                  runtime::baselineConfig());
        workload::TrainingLoop loop(comm, models::byName(workload));
        const auto it = loop.runIteration();
        p.compute = it.fwd_compute + it.bwd_compute;
        p.baseline_time = it.total;
        p.baseline_util = comm.utilization().weightedUtilization();
        // Ideal communication: each issued collective at pooled BW.
        for (const auto& rec : comm.records()) {
            p.ideal_comm += idealCollectiveTime(
                rec.type, rec.size, comm.modelForScope(rec.scope));
        }
    }
    return p;
}

} // namespace

int
main()
{
    bench::printHeader(
        "Normalized runtime vs average BW utilization",
        "Fig 4 (runtime curves + baseline-scheduling dots)");

    const std::vector<std::string> workloads{"ResNet-152", "GNMT",
                                             "Transformer-1T"};
    const std::vector<double> utils{0.1, 0.2, 0.3, 0.4, 0.5,
                                    0.6, 0.7, 0.8, 0.9, 1.0};

    stats::CsvWriter csv(bench::csvPath("fig04_motivation"));
    csv.writeRow({"workload", "topology", "bw_util",
                  "normalized_runtime", "is_baseline_point"});

    for (const auto& workload : workloads) {
        std::printf("%s\n", workload.c_str());
        // Measure every platform; normalize to current-2D at 10%.
        std::vector<std::pair<Topology, WorkloadPoint>> points;
        for (const auto& topo : presets::allTopologies())
            points.emplace_back(topo, measure(topo, workload));
        const auto& current = points.front().second;
        const double norm = current.compute + current.ideal_comm / 0.1;

        std::vector<std::string> headers{"Topology"};
        for (double u : utils)
            headers.push_back(fmtPercent(u));
        headers.push_back("Inf");
        headers.push_back("Baseline dot (util -> runtime)");
        stats::TextTable t(headers);
        for (const auto& [topo, p] : points) {
            std::vector<std::string> row{topo.name()};
            for (double u : utils) {
                const double r = (p.compute + p.ideal_comm / u) / norm;
                row.push_back(fmtDouble(r, 3));
                csv.writeRow({workload, topo.name(), fmtDouble(u, 2),
                              fmtDouble(r, 5), "0"});
            }
            row.push_back(fmtDouble(p.compute / norm, 3));
            const double dot =
                (p.compute + p.ideal_comm / p.baseline_util) / norm;
            row.push_back(fmtPercent(p.baseline_util) + " -> " +
                          fmtDouble(dot, 3));
            csv.writeRow({workload, topo.name(),
                          fmtDouble(p.baseline_util, 4),
                          fmtDouble(dot, 5), "1"});
            t.addRow(row);
        }
        std::printf("%s\n", t.render().c_str());
    }
    std::printf(
        "Paper expectation: the current platform sits near ~98%% "
        "utilization (its dim1/dim2\nbandwidth gap hides dim2 "
        "underutilization); next-gen platforms with baseline\n"
        "scheduling land around 35-75%%, leaving a 1.26-1.54x ideal "
        "speedup on the table.\n");
    return 0;
}

/**
 * @file
 * Reproduces the paper's headline numbers (abstract / Sec 6):
 *
 *  - single All-Reduce: Themis+FIFO 1.58x and Themis+SCF 1.72x
 *    (2.70x max) average communication-time reduction; average BW
 *    utilization 56.31% (baseline) / 87.67% (FIFO) / 95.14% (SCF);
 *  - end-to-end: exposed-communication reduction 1.65x (Themis) vs
 *    1.72x (Ideal); iteration speedups 1.49x / 1.30x / 1.30x / 1.25x
 *    for ResNet-152 / GNMT / DLRM / Transformer-1T.
 */

#include <cstdio>

#include "bench_util.hpp"
#include "models/model_zoo.hpp"
#include "workload/training_loop.hpp"

using namespace themis;

int
main()
{
    bench::printHeader("Headline summary",
                       "Abstract + Sec 6.1/6.2 aggregate numbers");

    // ---- Microbenchmark aggregates over the Fig 8/11 grid.
    double util_sum[3] = {0, 0, 0};
    double speedup_sum[3] = {0, 0, 0};
    double scf_speedup_max = 0.0;
    int cells = 0;
    for (const auto& topo : presets::nextGenTopologies()) {
        for (Bytes size : bench::microbenchSizes()) {
            double base_time = 0.0;
            int i = 0;
            for (const auto& setup : bench::table3Schedulers()) {
                const auto run =
                    bench::runAllReduce(topo, setup.config, size);
                util_sum[i] += run.weighted_util;
                if (i == 0)
                    base_time = run.time;
                speedup_sum[i] += base_time / run.time;
                if (i == 2) {
                    scf_speedup_max = std::max(scf_speedup_max,
                                               base_time / run.time);
                }
                ++i;
            }
            ++cells;
        }
    }

    stats::TextTable micro({"Metric", "Measured", "Paper"});
    micro.addRow({"Baseline avg BW utilization",
                  fmtPercent(util_sum[0] / cells), "56.31%"});
    micro.addRow({"Themis+FIFO avg BW utilization",
                  fmtPercent(util_sum[1] / cells), "87.67%"});
    micro.addRow({"Themis+SCF avg BW utilization",
                  fmtPercent(util_sum[2] / cells), "95.14%"});
    micro.addRow({"Themis+FIFO avg All-Reduce speedup",
                  fmtDouble(speedup_sum[1] / cells, 2) + "x", "1.58x"});
    micro.addRow({"Themis+SCF avg All-Reduce speedup",
                  fmtDouble(speedup_sum[2] / cells, 2) + "x", "1.72x"});
    micro.addRow({"Themis+SCF max All-Reduce speedup",
                  fmtDouble(scf_speedup_max, 2) + "x", "2.70x"});
    std::printf("Single-collective microbenchmark (Fig 8/11 grid)\n%s\n",
                micro.render().c_str());

    // ---- End-to-end workload aggregates.
    struct PaperRow
    {
        const char* name;
        const char* avg;
        const char* max;
    };
    const PaperRow paper[] = {{"ResNet-152", "1.49x", "2.25x"},
                              {"GNMT", "1.30x", "1.78x"},
                              {"DLRM", "1.30x", "1.77x"},
                              {"Transformer-1T", "1.25x", "1.53x"}};

    stats::TextTable e2e({"Workload", "Speedup avg", "Speedup max",
                          "Paper avg", "Paper max"});
    double exposed_reduction_sum = 0.0;
    double ideal_reduction_sum = 0.0;
    int exposed_cells = 0;
    for (const auto& row : paper) {
        double sum = 0.0, mx = 0.0;
        int n = 0;
        for (const auto& topo : presets::nextGenTopologies()) {
            auto run = [&](const Topology& t,
                           const runtime::RuntimeConfig& cfg) {
                sim::EventQueue queue;
                runtime::CommRuntime comm(queue, t, cfg);
                workload::TrainingLoop loop(comm,
                                            models::byName(row.name));
                return loop.runIteration();
            };
            const auto base = run(topo, runtime::baselineConfig());
            const auto scf = run(topo, runtime::themisScfConfig());
            const auto ideal =
                run(presets::idealTopology(topo), runtime::themisScfConfig());
            const double speedup = base.total / scf.total;
            sum += speedup;
            mx = std::max(mx, speedup);
            ++n;
            const double base_exposed =
                base.exposed_mp + base.exposed_dp;
            const double scf_exposed = scf.exposed_mp + scf.exposed_dp;
            const double ideal_exposed =
                ideal.exposed_mp + ideal.exposed_dp;
            if (scf_exposed > 0.0 && ideal_exposed > 0.0) {
                exposed_reduction_sum += base_exposed / scf_exposed;
                ideal_reduction_sum += base_exposed / ideal_exposed;
                ++exposed_cells;
            }
        }
        e2e.addRow({row.name, fmtDouble(sum / n, 2) + "x",
                    fmtDouble(mx, 2) + "x", row.avg, row.max});
    }
    std::printf("End-to-end training iteration (Fig 12 grid)\n%s\n",
                e2e.render().c_str());
    std::printf("Exposed-communication reduction, avg across "
                "workloads/topologies:\n"
                "  Themis+SCF %.2fx (paper: 1.65x); Ideal %.2fx "
                "(paper: 1.72x)\n",
                exposed_reduction_sum / exposed_cells,
                ideal_reduction_sum / exposed_cells);
    return 0;
}

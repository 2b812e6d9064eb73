/**
 * @file
 * End-to-end training simulation: run iterations of one of the
 * paper's workloads on one of the Table 2 platforms and print the
 * Fig 12-style time decomposition.
 *
 * Usage:
 *   training_iteration [workload] [topology] [iterations]
 *   e.g. training_iteration GNMT 3D-SW_SW_SW_homo 3
 */

#include <cstdio>
#include <cstdlib>

#include "common/string_util.hpp"
#include "models/model_zoo.hpp"
#include "stats/summary.hpp"
#include "topology/presets.hpp"
#include "workload/training_loop.hpp"

using namespace themis;

int
main(int argc, char** argv)
{
    const std::string workload = argc > 1 ? argv[1] : "GNMT";
    const std::string topo_name =
        argc > 2 ? argv[2] : "3D-SW_SW_SW_homo";
    const int iterations = argc > 3 ? std::atoi(argv[3]) : 3;

    const Topology topo = presets::byName(topo_name);
    const auto model = models::byName(workload);
    std::printf("Workload: %s\n", model.describe().c_str());
    std::printf("Platform: %s (%s, %ld NPUs), %d iteration(s)\n\n",
                topo.name().c_str(), topo.sizeString().c_str(),
                topo.totalNpus(), iterations);

    stats::TextTable t({"Scheduler", "Fwd compute", "Bwd compute",
                        "Exposed MP", "Exposed DP", "Total",
                        "Avg BW util"});
    TimeNs baseline_total = 0.0;
    for (const auto& cfg : {runtime::baselineConfig(),
                           runtime::themisScfConfig()}) {
        sim::EventQueue queue;
        runtime::CommRuntime comm(queue, topo, cfg);
        workload::TrainingLoop loop(comm, model);
        const auto sum = loop.run(iterations);
        if (cfg.scheduler == SchedulerKind::Baseline)
            baseline_total = sum.total;
        t.addRow({schedulerKindName(cfg.scheduler),
                  fmtTime(sum.fwd_compute), fmtTime(sum.bwd_compute),
                  fmtTime(sum.exposed_mp), fmtTime(sum.exposed_dp),
                  fmtTime(sum.total),
                  fmtPercent(
                      comm.utilization().weightedUtilization())});
        if (cfg.scheduler == SchedulerKind::Themis) {
            std::printf("%s", t.render().c_str());
            std::printf("\nThemis speedup over baseline: %.2fx\n",
                        baseline_total / sum.total);
        }
    }
    return 0;
}

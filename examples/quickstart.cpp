/**
 * @file
 * Quickstart: simulate one 256 MB All-Reduce on a next-gen platform
 * with baseline scheduling and with Themis, and print what the
 * scheduler changed.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "common/string_util.hpp"
#include "core/ideal_estimator.hpp"
#include "runtime/comm_runtime.hpp"
#include "topology/presets.hpp"

using namespace themis;

int
main()
{
    // 1) Pick a platform (Table 2 preset, or build your own
    //    Topology from DimensionConfigs).
    const Topology topo = presets::make3DSwSwSwHomo();
    std::printf("Platform:\n%s\n", topo.describe().c_str());

    // 2) Describe the collective.
    CollectiveRequest request;
    request.type = CollectiveType::AllReduce;
    request.size = 256.0e6; // bytes per NPU
    request.chunks = 64;    // the paper's default CPC

    // 3) Simulate under both schedulers.
    for (const auto& cfg : {runtime::baselineConfig(),
                           runtime::themisScfConfig()}) {
        sim::EventQueue queue;
        runtime::CommRuntime comm(queue, topo, cfg);
        const int id = comm.issue(request);
        queue.run();

        const auto& rec = comm.record(id);
        std::printf("%-12s %s  (avg BW utilization %s",
                    schedulerKindName(cfg.scheduler).c_str(),
                    fmtTime(rec.duration()).c_str(),
                    fmtPercent(comm.utilization().weightedUtilization())
                        .c_str());
        const auto per_dim = comm.utilization().perDimUtilization();
        for (std::size_t d = 0; d < per_dim.size(); ++d)
            std::printf("%s dim%zu %s", d == 0 ? ";" : ",", d + 1,
                        fmtPercent(per_dim[d]).c_str());
        std::printf(")\n");
    }

    // 4) Compare against the Ideal lower estimate (Table 3).
    const auto model = LatencyModel::fromTopology(topo);
    std::printf("%-12s %s  (collective size x2 / total BW)\n", "Ideal",
                fmtTime(idealCollectiveTime(CollectiveType::AllReduce,
                                            request.size, model))
                    .c_str());
    return 0;
}

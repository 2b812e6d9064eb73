/**
 * @file
 * Reproduces Fig 5 (and the Fig 7 scenario it illustrates): a 256 MB
 * All-Reduce on a 4x4 2-dimensional network with BW(dim1) =
 * 2*BW(dim2), split into 4 chunks of 64 MB. The paper's worked
 * example: baseline scheduling needs 8 normalized time units (dim2
 * idles), Themis needs 7.
 */

#include <cstdio>

#include "bench_util.hpp"
#include "stats/telemetry/telemetry.hpp"
#include "stats/trace_writer.hpp"

using namespace themis;

namespace {

Topology
fig5Topology()
{
    DimensionConfig d1, d2;
    d1.kind = d2.kind = DimKind::Switch;
    d1.size = d2.size = 4;
    d1.link_bw_gbps = 384.0; // 48 GB/s -> 64MB RS = 1 unit (1 ms)
    d2.link_bw_gbps = 192.0; // half of dim1
    d1.links_per_npu = d2.links_per_npu = 1;
    d1.step_latency_ns = d2.step_latency_ns = 0.0;
    return Topology("Fig5-4x4", {d1, d2});
}

} // namespace

int
main()
{
    bench::printHeader(
        "Pipeline example: 256 MB All-Reduce on 4x4, BW ratio 2:1",
        "Fig 5 (paper: baseline 8 units, Themis 7 units)");

    const Topology topo = fig5Topology();
    const double unit_ns = 1.0e6; // 64MB RS on dim1

    stats::TextTable t({"Scheduler", "Total time [units]",
                        "Avg BW util", "dim1 util", "dim2 util"});
    stats::CsvWriter csv(bench::csvPath("fig05_pipeline_example"));
    csv.writeRow({"scheduler", "time_units", "avg_util", "dim1_util",
                  "dim2_util"});
    for (const auto& setup : bench::table3Schedulers()) {
        // Run with a trace attached so the Fig 5 time diagram can be
        // inspected interactively (chrome://tracing).
        stats::TraceWriter trace;
        stats::telemetry::Telemetry telem;
        telem.trace = &trace;
        runtime::RuntimeConfig cfg = setup.config;
        cfg.telemetry = &telem;
        sim::EventQueue queue;
        runtime::CommRuntime comm(queue, topo, cfg);
        CollectiveRequest req;
        req.type = CollectiveType::AllReduce;
        req.size = 256.0e6;
        req.chunks = 4;
        const int id = comm.issue(req);
        queue.run();
        const TimeNs time = comm.record(id).duration();
        const double util = comm.utilization().weightedUtilization();
        const auto per_dim = comm.utilization().perDimUtilization();

        std::string trace_name = setup.name;
        for (char& c : trace_name)
            if (c == '+')
                c = '_';
        trace.writeFile("bench_results/fig05_trace_" + trace_name +
                        ".json");

        t.addRow({setup.name, fmtDouble(time / unit_ns, 3),
                  fmtPercent(util), fmtPercent(per_dim[0]),
                  fmtPercent(per_dim[1])});
        csv.writeRow({setup.name, fmtDouble(time / unit_ns, 6),
                      fmtDouble(util, 6), fmtDouble(per_dim[0], 6),
                      fmtDouble(per_dim[1], 6)});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("Per-op timelines: bench_results/fig05_trace_*.json "
                "(open in chrome://tracing)\n\n");

    const auto model = LatencyModel::fromTopology(topo);
    std::printf("Ideal (Table 3, size/total BW): %.3f units\n\n",
                idealCollectiveTime(CollectiveType::AllReduce, 256.0e6,
                                    model) /
                    unit_ns);
    std::printf("Expected from the paper's worked example: baseline "
                "finishes in 8 units with dim2\nidling between chunk "
                "stages; Themis redistributes chunk schedules and "
                "finishes in 7.\n");
    return 0;
}

/**
 * @file
 * Reproduces Fig 9: per-dimension frontend activity rate over time
 * for a 1 GB All-Reduce on 3D-SW_SW_SW_homo, in 100 us buckets. The
 * paper: baseline leaves dim2/dim3 mostly inactive; Themis+FIFO
 * shows occasional starvation dips; Themis+SCF stays near-continuous
 * and finishes earliest.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hpp"

using namespace themis;

namespace {

void
runAndPrint(const Topology& topo, const bench::SchedulerSetup& setup,
            stats::CsvWriter& csv)
{
    // Each dimension's presence intervals, straight from its engine
    // (which only reports changes, so calls alternate on/off).
    const auto dims = static_cast<std::size_t>(topo.numDims());
    std::vector<stats::ActivitySpans> spans(dims);
    std::vector<TimeNs> since(dims, 0.0);
    sim::EventQueue queue;
    runtime::CommRuntime comm(queue, topo, setup.config);
    for (int d = 0; d < topo.numDims(); ++d)
        comm.engine(d).setPresenceListener(
            [&](int dim, bool present, TimeNs when) {
                const auto k = static_cast<std::size_t>(dim);
                if (present)
                    since[k] = when;
                else if (when > since[k])
                    spans[k].emplace_back(since[k], when);
            });
    CollectiveRequest req;
    req.type = CollectiveType::AllReduce;
    req.size = 1.0e9;
    req.chunks = 64;
    comm.issue(req);
    queue.run();

    const TimeNs end = queue.now();
    const TimeNs bucket = 100.0 * kUs;
    const auto rates = stats::activityRates(spans, bucket, end);

    std::printf("%s  (elapsed %s)\n", setup.name.c_str(),
                fmtTime(end).c_str());
    // Render each dimension's activity as a sparkline over time.
    const char* glyphs[] = {" ", ".", ":", "-", "=", "#"};
    for (std::size_t d = 0; d < rates.size(); ++d) {
        std::string line;
        for (std::size_t b = 0; b < rates[d].size(); ++b) {
            const double r = rates[d][b];
            const int g = r <= 0.0 ? 0
                                   : 1 + static_cast<int>(r * 4.999);
            line += glyphs[g > 5 ? 5 : g];
            csv.writeRow({setup.name, "dim" + std::to_string(d + 1),
                          fmtDouble(b * bucket / kUs, 0),
                          fmtDouble(r, 4)});
        }
        double avg = 0.0;
        for (double r : rates[d])
            avg += r;
        avg /= rates[d].empty() ? 1.0
                                : static_cast<double>(rates[d].size());
        std::printf("  dim%zu |%s| avg %s\n", d + 1, line.c_str(),
                    fmtPercent(avg).c_str());
    }
    std::printf("\n");
}

} // namespace

int
main()
{
    bench::printHeader(
        "Per-dimension frontend activity, 1 GB All-Reduce on "
        "3D-SW_SW_SW_homo (100 us buckets; '#'=100%, ' '=idle)",
        "Fig 9");

    stats::CsvWriter csv(bench::csvPath("fig09_activity"));
    csv.writeRow({"scheduler", "dim", "bucket_start_us",
                  "activity_rate"});

    const auto topo = presets::make3DSwSwSwHomo();
    for (const auto& setup : bench::table3Schedulers())
        runAndPrint(topo, setup, csv);

    std::printf("Paper expectation: baseline keeps dim2/dim3 largely "
                "idle (dim1 is the pipeline\nbottleneck); Themis+FIFO "
                "balances with occasional starvation dips; Themis+SCF\n"
                "sustains activity on all dimensions and finishes "
                "first.\n");
    return 0;
}

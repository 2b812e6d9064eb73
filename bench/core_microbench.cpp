/**
 * @file
 * Simulator-core microbenchmark with machine-readable output.
 *
 * Measures the discrete-event core on the hot patterns the figure
 * harnesses stress — channel completion cascades at high concurrency
 * and raw event-queue throughput — and writes
 * bench_results/BENCH_core.json so future PRs can track the perf
 * trajectory. Every channel run must progress exactly the bytes its
 * transfers began.
 *
 * The ns/event series over 16 -> 10k concurrent transfers is the
 * asymptotic check: the GPS virtual-time channel should stay near-flat
 * (O(log n)).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "sim/event_queue.hpp"
#include "sim/shared_channel.hpp"

using namespace themis;

namespace {

struct Measurement
{
    std::string impl;
    int transfers = 0;
    std::size_t events = 0;
    double wall_ns = 0.0;
    double ns_per_event = 0.0;
    double events_per_sec = 0.0;
    std::size_t peak_active = 0;
};

/**
 * The concurrency workload: @p n transfers of distinct sizes all
 * active at once, so every completion reshapes the shared rate. The
 * event count is ~n, making wall/events the per-event cost at that
 * concurrency level.
 */
Measurement
runChannelWorkload(int n)
{
    Measurement best;
    for (int rep = 0; rep < 3; ++rep) {
        sim::EventQueue queue;
        sim::SharedChannel channel(queue, 100.0);
        int completions = 0;
        Bytes begun = 0.0;
        const double t0 = bench::nowNs();
        for (int i = 0; i < n; ++i) {
            const Bytes bytes = 1000.0 * (i + 1);
            begun += bytes;
            channel.begin(bytes, [&completions] { ++completions; });
        }
        const std::size_t events = queue.run();
        const double wall = bench::nowNs() - t0;
        if (completions != n)
            THEMIS_PANIC("lost completions: " << completions << "/"
                                              << n);
        channel.sync();
        THEMIS_ASSERT(channel.progressedBytes() == begun,
                      "channel progressed " << channel.progressedBytes()
                                            << " of " << begun
                                            << " bytes begun at n=" << n);
        if (rep == 0 || wall < best.wall_ns) {
            best.impl = "gps";
            best.transfers = n;
            best.events = events;
            best.wall_ns = wall;
            best.ns_per_event =
                wall / static_cast<double>(events);
            best.events_per_sec =
                static_cast<double>(events) / (wall * 1e-9);
            best.peak_active = channel.peakActiveCount();
        }
    }
    return best;
}

/** Raw event-queue throughput: schedule-heavy, no channel involved. */
Measurement
runQueueWorkload(int n)
{
    Measurement best;
    for (int rep = 0; rep < 3; ++rep) {
        sim::EventQueue queue;
        long sum = 0;
        const double t0 = bench::nowNs();
        for (int i = 0; i < n; ++i) {
            queue.schedule(static_cast<double>((i * 37) % 1000),
                           [&sum, i] { sum += i; });
        }
        const std::size_t events = queue.run();
        const double wall = bench::nowNs() - t0;
        if (sum != static_cast<long>(n) * (n - 1) / 2)
            THEMIS_PANIC("event queue dropped handlers");
        if (rep == 0 || wall < best.wall_ns) {
            best.impl = "event_queue";
            best.transfers = n;
            best.events = events;
            best.wall_ns = wall;
            best.ns_per_event = wall / static_cast<double>(events);
            best.events_per_sec =
                static_cast<double>(events) / (wall * 1e-9);
        }
    }
    return best;
}

void
appendJson(std::string& out, const Measurement& m, bool last)
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"impl\": \"%s\", \"transfers\": %d, \"events\": %zu, "
        "\"wall_ns\": %.0f, \"ns_per_event\": %.1f, "
        "\"events_per_sec\": %.0f, \"peak_active\": %zu}%s\n",
        m.impl.c_str(), m.transfers, m.events, m.wall_ns,
        m.ns_per_event, m.events_per_sec, m.peak_active,
        last ? "" : ",");
    out += buf;
}

} // namespace

int
main()
{
    bench::printHeader(
        "Simulator-core microbenchmark (GPS channel, event queue)",
        "perf infrastructure (BENCH_core.json)");

    // n=16 sits exactly at the channel's inline finish-heap capacity:
    // the whole workload (including every rebase batch) runs without
    // a single pending-set heap allocation, so this row tracks the
    // small-vector fast path; the larger scales track the asymptote.
    const std::vector<int> scales{16, 100, 1000, 10000};
    std::vector<Measurement> gps;
    for (int n : scales)
        gps.push_back(runChannelWorkload(n));
    const Measurement queue_run = runQueueWorkload(200000);

    stats::TextTable t({"Concurrent transfers", "GPS ns/event",
                        "events", "peak active"});
    for (const Measurement& m : gps)
        t.addRow({std::to_string(m.transfers),
                  fmtDouble(m.ns_per_event, 1), std::to_string(m.events),
                  std::to_string(m.peak_active)});
    std::printf("%s\n", t.render().c_str());
    std::printf("event queue: %.0f events/sec (%.1f ns/event, "
                "%zu events)\n\n",
                queue_run.events_per_sec, queue_run.ns_per_event,
                queue_run.events);

    std::string json = "{\n  \"bench\": \"core_microbench\",\n";
    json += "  \"channel\": [\n";
    for (std::size_t i = 0; i < gps.size(); ++i)
        appendJson(json, gps[i], i + 1 == gps.size());
    json += "  ],\n  \"event_queue\": [\n";
    appendJson(json, queue_run, true);
    json += "  ]\n}\n";

    const std::string path = bench::resultPath("BENCH_core.json");
    std::FILE* f = std::fopen(path.c_str(), "w");
    THEMIS_ASSERT(f != nullptr, "cannot write " << path);
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return 0;
}

/**
 * @file
 * Simulator-core microbenchmark with machine-readable output.
 *
 * Measures the discrete-event core on the hot patterns the figure
 * harnesses stress — channel completion cascades at high concurrency,
 * raw event-queue throughput and one dimension engine draining a deep
 * SCF ready queue — and writes
 * bench_results/BENCH_core.json so future PRs can track the perf
 * trajectory. Every channel run must progress exactly the bytes its
 * transfers began.
 *
 * The ns/event series over 16 -> 10k concurrent transfers is the
 * asymptotic check: the GPS virtual-time channel should stay near-flat
 * (O(log n)).
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "runtime/dimension_engine.hpp"
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

struct EngineMeasurement
{
    int ops = 0;
    std::size_t events = 0;
    double wall_ns = 0.0;
    double ns_per_op = 0.0;
    double ops_per_sec = 0.0;
};

/**
 * One DimensionEngine alone on its channel: @p n SCF chunk ops of
 * distinct sizes, all queued at once and run to completion. The step
 * latency lets small ops run in parallel while large ones run alone,
 * so every refill pops the ready queue's head against live admission
 * aggregates. Ops are built before the clock starts; the wall covers
 * enqueue plus the event loop.
 */
EngineMeasurement
runEngineWorkload(int n)
{
    DimensionConfig dim;
    dim.kind = DimKind::Switch;
    dim.size = 8;
    dim.link_bw_gbps = 800.0;
    dim.links_per_npu = 1;
    dim.step_latency_ns = 1000.0;
    EngineMeasurement best;
    for (int rep = 0; rep < 3; ++rep) {
        sim::EventQueue queue;
        runtime::DimensionEngine engine(queue, dim, 0, IntraDimPolicy::Scf,
                                        runtime::AdmissionConfig{});
        int completions = 0;
        Bytes begun = 0.0;
        std::vector<runtime::ChunkOp> ops;
        ops.reserve(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
            // 37 is coprime to the power-of-two scales: distinct sizes
            // in an order unrelated to arrival.
            const Bytes entering = 1000.0 * (1 + (i * 37) % n);
            ops.push_back(runtime::makeChunkOp(
                runtime::OpTag{0, i, 0}, Phase::ReduceScatter, 0, 0,
                entering, dim,
                [&completions](const runtime::ChunkOp&) {
                    ++completions;
                }));
            for (const StepPlan& step : ops.back().steps)
                begun += step.bytes;
        }
        const double t0 = bench::nowNs();
        for (runtime::ChunkOp& op : ops)
            engine.enqueue(std::move(op));
        const std::size_t events = queue.run();
        const double wall = bench::nowNs() - t0;
        if (completions != n)
            THEMIS_PANIC("lost chunk ops: " << completions << "/" << n);
        engine.channel().sync();
        // Concurrent transfers share the rate, so progress is summed
        // in a different order than begun: equal to rounding.
        THEMIS_ASSERT(std::abs(engine.channel().progressedBytes() - begun) <=
                          1e-9 * begun,
                      "engine progressed "
                          << engine.channel().progressedBytes() << " of "
                          << begun << " bytes begun at n=" << n);
        if (rep == 0 || wall < best.wall_ns) {
            best.ops = n;
            best.events = events;
            best.wall_ns = wall;
            best.ns_per_op = wall / n;
            best.ops_per_sec = n / (wall * 1e-9);
        }
    }
    return best;
}

/** The "channel" / "event_queue" row of @p m. */
void
writeRow(bench::JsonWriter& w, const Measurement& m)
{
    w.beginObject();
    w.key("impl").value(m.impl);
    w.key("transfers").value(m.transfers);
    w.key("events").value(m.events);
    w.key("wall_ns").value(m.wall_ns);
    w.key("ns_per_event").value(m.ns_per_event);
    w.key("events_per_sec").value(m.events_per_sec);
    w.key("peak_active").value(m.peak_active);
    w.endObject();
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
    std::vector<EngineMeasurement> engine;
    for (int n : {1024, 16384})
        engine.push_back(runEngineWorkload(n));

    stats::TextTable t({"Concurrent transfers", "GPS ns/event",
                        "events", "peak active"});
    for (const Measurement& m : gps)
        t.addRow({std::to_string(m.transfers),
                  fmtDouble(m.ns_per_event, 1), std::to_string(m.events),
                  std::to_string(m.peak_active)});
    std::printf("%s\n", t.render().c_str());
    std::printf("event queue: %.0f events/sec (%.1f ns/event, "
                "%zu events)\n",
                queue_run.events_per_sec, queue_run.ns_per_event,
                queue_run.events);
    for (const EngineMeasurement& m : engine)
        std::printf("engine (SCF, %d ops): %.0f chunk ops/sec "
                    "(%.1f ns/op, %zu events)\n",
                    m.ops, m.ops_per_sec, m.ns_per_op, m.events);
    std::printf("\n");

    bench::BenchReport report("core_microbench");
    bench::JsonWriter channel, queue_rows, engine_rows;
    channel.beginArray();
    for (const Measurement& m : gps) {
        report.delta("channel/gps/" + std::to_string(m.transfers),
                     m.events_per_sec);
        writeRow(channel, m);
    }
    report.section("channel", channel.endArray().str());
    report.delta("event_queue/" + std::to_string(queue_run.transfers),
                 queue_run.events_per_sec);
    writeRow(queue_rows.beginArray(), queue_run);
    report.section("event_queue", queue_rows.endArray().str());
    engine_rows.beginArray();
    for (const EngineMeasurement& m : engine) {
        report.delta("engine/scf/" + std::to_string(m.ops), m.ops_per_sec);
        engine_rows.beginObject();
        engine_rows.key("impl").value("scf");
        engine_rows.key("ops").value(m.ops);
        engine_rows.key("events").value(m.events);
        engine_rows.key("wall_ns").value(m.wall_ns);
        engine_rows.key("ns_per_op").value(m.ns_per_op);
        engine_rows.key("ops_per_sec").value(m.ops_per_sec);
        engine_rows.endObject();
    }
    report.section("engine", engine_rows.endArray().str());
    report.write("BENCH_core.json");
    return 0;
}

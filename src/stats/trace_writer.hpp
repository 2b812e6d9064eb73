/**
 * @file
 * Chrome-trace export (chrome://tracing / Perfetto "trace event"
 * JSON). Originally one timeline row per network dimension with one
 * complete event per chunk operation — the interactive version of the
 * paper's Fig 5 diagrams. Now a general sink for the telemetry layer:
 *
 *  - pid 1 ("fabric"): per-dimension chunk-op spans, as before.
 *  - pid 2 ("jobs"): per-job rows with request / iteration spans from
 *    the cluster layer.
 *  - pid 3 ("run"): run-level rows carrying instant events for fault
 *    timeline edges, re-plans, retries and fatal exhaustion, plus
 *    replay-span metadata, so a whole `--jobs` run under
 *    `--faults --adapt` reads as one Perfetto timeline.
 *
 * Iteration epochs rebase the event queue to zero; the writer keeps an
 * absolute time base (advanced by the runtime at every epoch rebase
 * and replay skip) so multi-epoch traces stay monotonic. All record
 * calls take queue-relative times unless suffixed `Abs`.
 */

#ifndef THEMIS_STATS_TRACE_WRITER_HPP
#define THEMIS_STATS_TRACE_WRITER_HPP

#include <deque>
#include <map>
#include <string>
#include <utility>

#include "common/units.hpp"

namespace themis::stats {

/** Collects spans and instants and writes trace-event JSON. */
class TraceWriter
{
  public:
    /** Well-known trace processes (Perfetto groups rows by pid). */
    static constexpr int kFabricPid = 1;
    static constexpr int kJobsPid = 2;
    static constexpr int kRunPid = 3;

    /** Well-known rows in the run-level process. */
    static constexpr int kFaultTid = 1;
    static constexpr int kAdaptTid = 2;
    static constexpr int kReplayTid = 3;

    TraceWriter() = default;

    /**
     * Record one completed chunk operation on the fabric process.
     * Labels move (not copy) into the event store: this fires once
     * per chunk op and is the hottest telemetry path (gated at <=10%
     * throughput cost by bench/telemetry_overhead.cpp).
     * @param dim      global dimension index (becomes the trace row)
     * @param name     event label, e.g. "RS c3.s1"
     * @param start    simulation start time (ns, queue-relative)
     * @param end      simulation end time (ns, queue-relative)
     */
    void record(int dim, std::string name, TimeNs start, TimeNs end);

    /**
     * Single-hop fabric-span fast path: same event as record(), but
     * the label is taken as a raw char range and the event is built
     * in place (no intermediate std::string moves through the
     * span()/spanAbs() chain). The per-chunk-op hook uses this.
     */
    void recordFabricOp(int dim, const char* label, std::size_t len,
                        TimeNs start, TimeNs end);

    /** Record a span on an arbitrary pid/tid row (queue-relative). */
    void span(int pid, int tid, std::string name, TimeNs start,
              TimeNs end);

    /** Span with absolute timestamps (time base NOT added). */
    void spanAbs(int pid, int tid, std::string name, TimeNs start,
                 TimeNs end);

    /** Record an instant event (queue-relative time). */
    void instant(int pid, int tid, std::string name, TimeNs at);

    /** Instant with an absolute timestamp (time base NOT added). */
    void instantAbs(int pid, int tid, std::string name, TimeNs at);

    /** Name a trace process / row (emitted as metadata events). */
    void setProcessName(int pid, const std::string& name);
    void setThreadName(int pid, int tid, const std::string& name);

    /**
     * Fold @p elapsed queue time into the absolute base. The runtime
     * calls this at every iteration-epoch rebase and for every
     * replayed convergence round, keeping multi-epoch traces
     * monotonic.
     */
    void advanceTimeBase(TimeNs elapsed);
    TimeNs timeBase() const { return time_base_; }

    /** Number of recorded events (spans + instants). */
    std::size_t eventCount() const { return events_.size(); }
    std::size_t instantCount() const { return instant_count_; }

    /**
     * Serialize as Chrome trace-event JSON (microsecond timestamps).
     * Spans are "X" complete events, instants are "i" with global
     * scope; process/thread names become "M" metadata rows.
     */
    std::string toJson() const;

    /** Write the JSON to @p path; throws ConfigError on failure. */
    void writeFile(const std::string& path) const;

  private:
    struct Event
    {
        char phase; // 'X' or 'i'
        int pid;
        int tid;
        std::string name;
        TimeNs start; // absolute ns
        TimeNs dur;   // ns; unused for instants
    };

    /**
     * A deque, not a vector: growth never moves recorded events. A
     * vector's doubling copies were most of the armed-run cost
     * bench/telemetry_overhead.cpp gates.
     */
    std::deque<Event> events_;
    std::map<int, std::string> process_names_;
    std::map<std::pair<int, int>, std::string> thread_names_;
    TimeNs time_base_ = 0.0;
    std::size_t instant_count_ = 0;
};

} // namespace themis::stats

#endif // THEMIS_STATS_TRACE_WRITER_HPP

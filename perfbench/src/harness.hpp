/**
 * @file
 * Shared pieces of the benchmark binary: the metric catalogue, the
 * in-memory span trace, order statistics and the result line.
 *
 * The benchmark only calls the simulator's public API. Every span is
 * recorded here, around those calls, so measuring never changes the
 * code under test.
 */

#ifndef PERFBENCH_HARNESS_HPP
#define PERFBENCH_HARNESS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic host clock in nanoseconds. */
double nowNs();

/** Peak resident set size of this process, in MB. */
double peakRssMb();

/** Command-line arguments (see main.cpp for the grammar). */
struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    /** Directory for the store journal and the trace file. */
    std::string out_dir;
};

/** Catalogue entry: a metric's name and unit. */
struct MetricDef
{
    const char* name;
    const char* unit;
};

/** The end-to-end metrics every workload reports (trace 0). */
const std::vector<MetricDef>& endToEndMetrics();

/** The per-layer metrics every workload reports (trace 1). */
const std::vector<MetricDef>& perLayerMetrics();

/** What one workload run produced. */
struct Outcome
{
    /** Metric values by catalogue name. */
    std::map<std::string, double> metrics;

    /** Requests (queries, cells or runs) attempted. */
    std::uint64_t attempted = 0;

    /** Requests that threw or failed an output check. */
    std::uint64_t failed = 0;

    /** FNV-1a digest of the generated inputs. */
    std::uint64_t input_digest = 0;

    /** Human-readable lines printed before the result line. */
    std::vector<std::string> notes;

    /** Record a failed check on @p requests requests. */
    void fail(const std::string& what, std::uint64_t requests = 1);
};

/** One closed span: [start_ns, end_ns) of a call into one layer. */
struct Span
{
    const char* name = "";
    /** Index of the enclosing span in the same trace, or -1. */
    std::int64_t parent = -1;
    /** Query, cell or run id the span belongs to. */
    std::uint64_t request = 0;
    double start_ns = 0.0;
    double end_ns = 0.0;

    double durationNs() const { return end_ns - start_ns; }
};

/**
 * Spans kept in memory. A disabled trace records nothing and costs one
 * branch per span. Not thread-safe: each sweep worker fills its own
 * trace and the caller absorbs them in a fixed order.
 */
class Trace
{
  public:
    explicit Trace(bool enabled = false) : enabled_(enabled) {}

    /** Open a span under the innermost open one; -1 when disabled. */
    std::int64_t open(const char* name, std::uint64_t request);

    /** Close the span @p index returned by open(). */
    void close(std::int64_t index);

    /** Append @p other's spans, rebasing their parent links. */
    void absorb(const Trace& other);

    const std::vector<Span>& spans() const { return spans_; }

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<std::int64_t> open_;
};

/** RAII span on a possibly disabled trace. */
class ScopedSpan
{
  public:
    ScopedSpan(Trace& trace, const char* name, std::uint64_t request)
        : trace_(trace), index_(trace.open(name, request))
    {
    }
    ~ScopedSpan() { trace_.close(index_); }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    Trace& trace_;
    std::int64_t index_;
};

/** Per span name: count, total and self time (total minus children). */
struct LayerTime
{
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
};

std::map<std::string, LayerTime> layerTimes(const std::vector<Span>& spans);

/** Write @p spans and their layer times as JSON to @p path. */
void writeTrace(const std::string& path, const std::vector<Span>& spans,
                const std::string& workload, std::uint64_t seed);

/** Quantile @p q in [0, 1] with linear interpolation; 0 when empty. */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** Smallest of @p values; 0 when empty. */
double best(const std::vector<double>& values);

/**
 * Latency of each request as the best over the passes that repeated it:
 * @p passes[p][i] is request i's latency in pass p, and every pass holds
 * the same requests. The simulation is deterministic, so repeats differ
 * only by how much the host got in the way; the best repeat is the
 * figure that a busy neighbour moves least.
 */
std::vector<double>
bestPerRequest(const std::vector<std::vector<double>>& passes);

/** Exact rendering of a double ("%.17g"). */
std::string exact(double v);

/** "%016llx" rendering of a digest. */
std::string hex16(std::uint64_t v);

/**
 * Set-up time samples. A run sets up kSetupRepeats times before it
 * starts and once more between its passes, so the samples span the
 * whole run rather than one moment of it; the median is reported.
 */
class SetupTimer
{
  public:
    static constexpr int kSetupRepeats = 9;

    /** Time one call of @p build. */
    template <typename Build>
    void
    time(Build&& build)
    {
        const double t0 = nowNs();
        build();
        samples_.push_back(nowNs() - t0);
    }

    /** kSetupRepeats timed calls of @p build. */
    template <typename Build>
    void
    initial(Build&& build)
    {
        for (int i = 0; i < kSetupRepeats; ++i)
            time(build);
    }

    double medianSeconds() const { return median(samples_) * 1e-9; }

  private:
    std::vector<double> samples_;
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HPP

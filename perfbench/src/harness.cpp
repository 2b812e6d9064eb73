#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "stats/telemetry/json_writer.hpp"

namespace perfbench {

double
nowNs()
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

const std::vector<MetricDef>&
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"queries_per_sec", "1/s"},
        {"query_p50_ms", "ms"},
        {"query_p99_ms", "ms"},
        {"cells_per_sec", "1/s"},
        {"iters_per_sec", "1/s"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        {"sim_bw_util_gain", "ratio"},
        {"sim_iter_speedup", "ratio"},
        // Simulated, not host, seconds: its own unit keeps the two
        // apart for readers and tools.
        {"sim_train_time_s", "sim_s"},
    };
    return defs;
}

const std::vector<MetricDef>&
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"sim.run_ns_per_event", "ns"},
        {"sim.events", "count"},
        {"runtime.issue_us", "us"},
        {"core.plan_ns_per_chunk", "ns"},
        {"core.plan_cache.hit_ratio", "ratio"},
        {"runtime.chunk_ops", "count"},
        {"runtime.ns_per_chunk_op", "ns"},
        {"workload.iteration_ms.ResNet-152", "ms"},
        {"workload.iteration_ms.GNMT", "ms"},
        {"workload.iteration_ms.DLRM", "ms"},
        {"workload.iteration_ms.Transformer-1T", "ms"},
        {"sim.sweep.worker_idle_frac", "ratio"},
        {"workload.epochs_simulated", "count"},
        {"workload.epochs_replayed", "count"},
        {"workload.replay_frac", "ratio"},
        {"workload.replay_ns_per_iter", "ns"},
        {"runtime.retries", "count"},
        {"runtime.replans", "count"},
        {"cluster.converge_ms", "ms"},
        {"sim.result_store.find_us", "us"},
        {"sim.result_store.append_us", "us"},
        {"sim.result_store.hit_ratio", "ratio"},
        {"model.dim_util_min", "ratio"},
        {"model.dim_util_max", "ratio"},
        {"model.exposed_comm_frac", "ratio"},
        {"bench.trace_overhead", "ratio"},
    };
    return defs;
}

void
Outcome::fail(const std::string& what, std::uint64_t requests)
{
    // Keep the log short: the count carries the rest.
    if (failed < 8)
        notes.push_back("CHECK FAILED: " + what);
    failed += requests;
}

std::int64_t
Trace::open(const char* name, std::uint64_t request)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.request = request;
    s.start_ns = nowNs();
    spans_.push_back(s);
    const auto index = static_cast<std::int64_t>(spans_.size()) - 1;
    open_.push_back(index);
    return index;
}

void
Trace::close(std::int64_t index)
{
    if (index < 0)
        return;
    spans_[static_cast<std::size_t>(index)].end_ns = nowNs();
    if (!open_.empty() && open_.back() == index)
        open_.pop_back();
}

void
Trace::absorb(const Trace& other)
{
    const auto base = static_cast<std::int64_t>(spans_.size());
    const std::int64_t parent = open_.empty() ? -1 : open_.back();
    for (Span s : other.spans_) {
        s.parent = s.parent < 0 ? parent : s.parent + base;
        spans_.push_back(s);
    }
}

std::map<std::string, LayerTime>
layerTimes(const std::vector<Span>& spans)
{
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span& s : spans)
        if (s.parent >= 0)
            child_ns[static_cast<std::size_t>(s.parent)] += s.durationNs();
    std::map<std::string, LayerTime> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        LayerTime& t = out[spans[i].name];
        ++t.count;
        t.total_ns += spans[i].durationNs();
        t.self_ns += spans[i].durationNs() - child_ns[i];
    }
    return out;
}

void
writeTrace(const std::string& path, const std::vector<Span>& spans,
           const std::string& workload, std::uint64_t seed)
{
    using themis::stats::telemetry::JsonWriter;
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("perfbench.trace/1");
    w.key("workload").value(workload);
    w.key("seed").value(seed);
    w.key("layers").beginObject();
    for (const auto& [name, t] : layerTimes(spans)) {
        w.key(name).beginObject();
        w.key("count").value(t.count);
        w.key("total_ns").value(t.total_ns);
        w.key("self_ns").value(t.self_ns);
        w.endObject();
    }
    w.endObject();
    const double t0 = spans.empty() ? 0.0 : spans.front().start_ns;
    w.key("spans").beginArray();
    for (const Span& s : spans) {
        w.beginArray();
        w.value(s.name);
        w.value(s.start_ns - t0);
        w.value(s.end_ns - t0);
        w.value(static_cast<double>(s.parent));
        w.value(s.request);
        w.endArray();
    }
    w.endArray();
    w.endObject();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << w.str() << '\n';
    if (!out.good())
        throw std::runtime_error("cannot write trace " + path);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
best(const std::vector<double>& values)
{
    return values.empty() ? 0.0
                          : *std::min_element(values.begin(), values.end());
}

std::vector<double>
bestPerRequest(const std::vector<std::vector<double>>& passes)
{
    std::vector<double> out;
    if (passes.empty())
        return out;
    for (std::size_t i = 0; i < passes.front().size(); ++i) {
        double v = passes.front()[i];
        for (const auto& pass : passes)
            v = std::min(v, pass.at(i));
        out.push_back(v);
    }
    return out;
}

std::string
exact(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
hex16(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

} // namespace perfbench

#include "stats/summary.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace themis::stats {

std::vector<std::vector<double>>
activityRates(const std::vector<ActivitySpans>& spans, TimeNs bucket_ns,
              TimeNs end)
{
    THEMIS_ASSERT(bucket_ns > 0.0, "bucket must be positive");
    const auto buckets =
        static_cast<std::size_t>(std::ceil(end / bucket_ns));
    std::vector<std::vector<double>> rate(
        spans.size(), std::vector<double>(buckets, 0.0));
    for (std::size_t d = 0; d < spans.size(); ++d) {
        for (const auto& [s, e] : spans[d]) {
            // Spread the interval across the buckets it covers.
            std::size_t b0 = static_cast<std::size_t>(s / bucket_ns);
            std::size_t b1 = static_cast<std::size_t>(
                std::min(e / bucket_ns,
                         static_cast<double>(buckets - 1)));
            for (std::size_t b = b0; b <= b1 && b < buckets; ++b) {
                const TimeNs lo = std::max<TimeNs>(
                    s, static_cast<double>(b) * bucket_ns);
                const TimeNs hi = std::min<TimeNs>(
                    e, static_cast<double>(b + 1) * bucket_ns);
                if (hi > lo)
                    rate[d][b] += (hi - lo) / bucket_ns;
            }
        }
    }
    return rate;
}

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    THEMIS_ASSERT(!headers_.empty(), "table needs at least one column");
}

void
TextTable::addRow(const std::vector<std::string>& cells)
{
    THEMIS_ASSERT(cells.size() == headers_.size(),
                  "row arity " << cells.size() << " != header arity "
                               << headers_.size());
    rows_.push_back(cells);
}

std::string
TextTable::render() const
{
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        width[c] = headers_[c].size();
    for (const auto& row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    auto emit = [&](std::ostringstream& oss,
                    const std::vector<std::string>& cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            if (c > 0)
                oss << "  ";
            oss << cells[c];
            oss << std::string(width[c] - cells[c].size(), ' ');
        }
        oss << "\n";
    };

    std::ostringstream oss;
    emit(oss, headers_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < width.size(); ++c)
        total += width[c] + (c > 0 ? 2 : 0);
    oss << std::string(total, '-') << "\n";
    for (const auto& row : rows_)
        emit(oss, row);
    return oss.str();
}

std::string
renderClassTable(const std::vector<ClassUsageRow>& rows)
{
    TextTable t({"Class", "Weight", "Collectives", "Mean time",
                 "Bytes", "BW share", "Slowdown"});
    for (const auto& r : rows) {
        t.addRow({r.name, "x" + fmtDouble(r.weight, 1),
                  std::to_string(r.collectives),
                  r.collectives > 0 ? fmtTime(r.mean_duration) : "-",
                  fmtBytes(r.progressed), fmtPercent(r.utilization),
                  r.slowdown > 0.0 ? fmtDouble(r.slowdown, 2) + "x"
                                   : "-"});
    }
    return t.render();
}

std::string
renderJobTable(const std::vector<JobUsageRow>& rows)
{
    TextTable t({"Job", "Kind", "Arrival", "JCT", "Units",
                 "Mean unit", "p99 unit", "Max unit", "Exposed",
                 "Deadline", "Bytes", "BW share", "Cycle units"});
    for (const auto& r : rows) {
        t.addRow({r.name, r.kind, fmtTime(r.arrival), fmtTime(r.jct),
                  std::to_string(r.units),
                  r.units > 0 ? fmtTime(r.mean_unit) : "-",
                  r.unit_p99 >= 0.0 ? fmtTime(r.unit_p99) : "-",
                  r.unit_max >= 0.0 ? fmtTime(r.unit_max) : "-",
                  r.exposed_share >= 0.0 ? fmtPercent(r.exposed_share)
                                         : "-",
                  r.deadline_hit_rate >= 0.0
                      ? fmtPercent(r.deadline_hit_rate)
                      : "-",
                  r.progressed >= 0.0 ? fmtBytes(r.progressed) : "-",
                  r.utilization >= 0.0 ? fmtPercent(r.utilization)
                                       : "-",
                  r.cycle_units >= 0 ? std::to_string(r.cycle_units)
                                     : "-"});
    }
    return t.render();
}

std::string
renderConvergenceTable(const std::vector<ConvergenceRunRow>& rows)
{
    TextTable t({"Mode", "Iters", "Simulated", "Replayed", "Cycle",
                 "Sim time", "Iter time", "BW util", "Wall"});
    for (const auto& r : rows) {
        t.addRow({r.label, std::to_string(r.iterations),
                  std::to_string(r.simulated),
                  std::to_string(r.replayed),
                  r.cycle_length > 0 ? std::to_string(r.cycle_length)
                                     : "-",
                  fmtTime(r.total_time), fmtTime(r.last_iteration),
                  fmtPercent(r.utilization),
                  fmtDouble(r.wall_ms, 1) + " ms"});
    }
    return t.render();
}

std::string
renderFaultTable(const std::vector<FaultDimRow>& rows)
{
    TextTable t({"Dim", "Capacity steps", "Flaps", "Down time",
                 "Retries", "Backoff p99", "Backoff max",
                 "Lost bytes", "Fatal"});
    for (const auto& r : rows) {
        t.addRow({r.name, std::to_string(r.capacity_events),
                  std::to_string(r.flaps),
                  r.flaps > 0 ? fmtTime(r.down_time) : "-",
                  std::to_string(r.retries),
                  r.backoff_p99 >= 0.0 ? fmtTime(r.backoff_p99) : "-",
                  r.backoff_max >= 0.0 ? fmtTime(r.backoff_max) : "-",
                  r.retries > 0 ? fmtBytes(r.lost_bytes) : "-",
                  r.fatal_retries > 0 ? std::to_string(r.fatal_retries)
                                      : "-"});
    }
    return t.render();
}

} // namespace themis::stats

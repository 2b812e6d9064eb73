#include "probes.hpp"

#include <algorithm>
#include <limits>

#include "core/latency_model.hpp"
#include "core/scheduler.hpp"
#include "harness.hpp"

namespace perfbench {

using namespace themis;

std::uint64_t
chunkOps(runtime::CommRuntime& comm)
{
    std::uint64_t ops = 0;
    for (int d = 0; d < comm.topology().numDims(); ++d)
        ops += comm.engine(d).completedCount();
    return ops;
}

std::uint64_t
retries(runtime::CommRuntime& comm)
{
    std::uint64_t n = 0;
    for (int d = 0; d < comm.topology().numDims(); ++d)
        n += comm.engine(d).retryCount();
    return n;
}

void
PlanProbe::addRecords(const Topology& topo,
                      const runtime::RuntimeConfig& cfg,
                      const std::vector<runtime::CommRuntime::Record>& records,
                      int chunks)
{
    for (const auto& rec : records) {
        std::string key = topo.name() + "|" +
                          std::to_string(static_cast<int>(cfg.scheduler)) +
                          "|" + std::to_string(static_cast<int>(rec.type)) +
                          "|" + exact(rec.size) + "|" +
                          std::to_string(chunks);
        for (const auto& s : rec.scope)
            key += "|" + std::to_string(s.dim) + ":" +
                   std::to_string(s.participants);
        if (!seen_.insert(key).second)
            continue;
        items_.push_back(Item{&topo, cfg.scheduler, cfg.themis, rec.scope,
                              rec.type, rec.size, chunks});
    }
}

double
PlanProbe::nsPerChunk() const
{
    double ns = 0.0;
    double chunks = 0.0;
    for (const Item& it : items_) {
        const LatencyModel model = LatencyModel::fromScope(*it.topo, it.scope);
        const auto sched = makeScheduler(it.scheduler, model, it.themis);
        const Bytes size =
            schedulableSize(it.type, it.size, model.dimSizes());
        const double t0 = nowNs();
        const auto plan = sched->scheduleCollective(it.type, size, it.chunks);
        ns += nowNs() - t0;
        chunks += static_cast<double>(plan.size());
    }
    return chunks > 0.0 ? ns / chunks : 0.0;
}

void
DimUtil::add(const std::string& platform, const std::vector<double>& per_dim)
{
    for (std::size_t d = 0; d < per_dim.size(); ++d) {
        auto& [sum, n] = sums_[{platform, d}];
        sum += per_dim[d];
        ++n;
    }
}

double
DimUtil::min() const
{
    double v = std::numeric_limits<double>::infinity();
    for (const auto& [key, acc] : sums_)
        v = std::min(v, acc.first / static_cast<double>(acc.second));
    return sums_.empty() ? 0.0 : v;
}

double
DimUtil::max() const
{
    double v = 0.0;
    for (const auto& [key, acc] : sums_)
        v = std::max(v, acc.first / static_cast<double>(acc.second));
    return v;
}

} // namespace perfbench

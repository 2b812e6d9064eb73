/**
 * @file
 * Measurements taken from outside the simulator's layers: counters read
 * through public accessors, and planning re-timed on the collectives a
 * workload issued.
 */

#ifndef PERFBENCH_PROBES_HPP
#define PERFBENCH_PROBES_HPP

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "runtime/comm_runtime.hpp"

namespace perfbench {

/** Chunk ops completed by every dimension engine of @p comm. */
std::uint64_t chunkOps(themis::runtime::CommRuntime& comm);

/** Failed-transfer retries over every dimension engine of @p comm. */
std::uint64_t retries(themis::runtime::CommRuntime& comm);

/**
 * Re-times ThemisScheduler / BaselineScheduler::scheduleCollective
 * alone, with no plan cache, on distinct collectives a workload
 * issued. The collected set is deduplicated on everything a plan
 * depends on, so it is the work a cold cache would do.
 */
class PlanProbe
{
  public:
    /** Add @p records, issued under @p cfg on @p topo with @p chunks
     *  chunks each. @p topo must outlive the probe. */
    void addRecords(
        const themis::Topology& topo,
        const themis::runtime::RuntimeConfig& cfg,
        const std::vector<themis::runtime::CommRuntime::Record>& records,
        int chunks);

    /** Re-time every collected collective once; ns per chunk. */
    double nsPerChunk() const;

    std::size_t size() const { return items_.size(); }

  private:
    struct Item
    {
        const themis::Topology* topo;
        themis::SchedulerKind scheduler;
        themis::ThemisConfig themis;
        std::vector<themis::ScopeDim> scope;
        themis::CollectiveType type;
        themis::Bytes size;
        int chunks;
    };
    std::vector<Item> items_;
    std::set<std::string> seen_;
};

/**
 * Per-dimension bandwidth utilization, averaged per (platform, dim)
 * over the runs added; min and max are taken over those means.
 */
class DimUtil
{
  public:
    void add(const std::string& platform,
             const std::vector<double>& per_dim);
    double min() const;
    double max() const;

  private:
    std::map<std::pair<std::string, std::size_t>,
             std::pair<double, std::uint64_t>>
        sums_;
};

} // namespace perfbench

#endif // PERFBENCH_PROBES_HPP

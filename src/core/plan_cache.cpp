#include "core/plan_cache.hpp"

#include <mutex>

#include "common/hash.hpp"

namespace themis {

namespace {

// Doubles compare by bit pattern throughout: key equality must agree
// with the bit-pattern hashes below (unordered_map contract).
bool
themisConfigEquals(const ThemisConfig& a, const ThemisConfig& b)
{
    return a.use_threshold == b.use_threshold &&
           bitEquals(a.threshold_fraction, b.threshold_fraction) &&
           a.init_loads_with_fixed_delay ==
               b.init_loads_with_fixed_delay &&
           a.account_ag_pass == b.account_ag_pass &&
           a.carry_load_across_collectives ==
               b.carry_load_across_collectives;
}

} // namespace

PlanKey
PlanKey::make(SchedulerKind scheduler, const ThemisConfig& themis,
              CollectiveType type, Bytes size, int chunks,
              std::uint64_t model_fingerprint, int flow_tier,
              std::uint64_t priority_fingerprint,
              std::uint64_t capacity_fingerprint)
{
    PlanKey key;
    key.scheduler = scheduler;
    // The baseline scheduler ignores ThemisConfig entirely; keep the
    // defaults so every baseline request shares one entry per
    // (type, size, chunks, model).
    if (scheduler == SchedulerKind::Themis ||
        scheduler == SchedulerKind::ThemisPriority)
        key.themis = themis;
    // Only the priority-aware variant plans by flow class; every
    // other scheduler shares one entry across tiers and policies.
    // Its plans differ solely on the urgent threshold-bypass, so the
    // tier normalizes to that bit — Bulk and Standard requests of
    // the same shape share one entry instead of duplicating a full
    // plan derivation per tier.
    if (scheduler == SchedulerKind::ThemisPriority) {
        key.flow_tier =
            flow_tier >= static_cast<int>(PriorityTier::Urgent) ? 1
                                                                : 0;
        key.priority_fingerprint = priority_fingerprint;
    }
    key.type = type;
    key.size = size;
    key.chunks = chunks;
    key.model_fingerprint = model_fingerprint;
    key.capacity_fingerprint = capacity_fingerprint;
    return key;
}

bool
PlanKey::operator==(const PlanKey& o) const
{
    return scheduler == o.scheduler &&
           themisConfigEquals(themis, o.themis) && type == o.type &&
           bitEquals(size, o.size) && chunks == o.chunks &&
           model_fingerprint == o.model_fingerprint &&
           flow_tier == o.flow_tier &&
           priority_fingerprint == o.priority_fingerprint &&
           capacity_fingerprint == o.capacity_fingerprint;
}

bool
OrderKey::operator==(const OrderKey& o) const
{
    return plan == o.plan && intra_policy == o.intra_policy &&
           planner == o.planner &&
           max_parallel_ops == o.max_parallel_ops &&
           bitEquals(latency_headroom, o.latency_headroom);
}

std::uint64_t
planKeyHash(const PlanKey& k)
{
    Fnv1a h;
    h.mix(static_cast<std::uint64_t>(k.scheduler));
    h.mix(static_cast<std::uint64_t>(k.themis.use_threshold));
    h.mix(k.themis.threshold_fraction);
    h.mix(static_cast<std::uint64_t>(
        k.themis.init_loads_with_fixed_delay));
    h.mix(static_cast<std::uint64_t>(k.themis.account_ag_pass));
    h.mix(static_cast<std::uint64_t>(
        k.themis.carry_load_across_collectives));
    h.mix(static_cast<std::uint64_t>(k.type));
    h.mix(k.size);
    h.mix(static_cast<std::uint64_t>(k.chunks));
    h.mix(k.model_fingerprint);
    h.mix(static_cast<std::uint64_t>(k.flow_tier));
    h.mix(k.priority_fingerprint);
    h.mix(k.capacity_fingerprint);
    return h.value();
}

std::size_t
PlanCache::PlanKeyHash::operator()(const PlanKey& k) const
{
    return static_cast<std::size_t>(planKeyHash(k));
}

std::size_t
PlanCache::OrderKeyHash::operator()(const OrderKey& k) const
{
    Fnv1a h;
    h.mix(PlanKeyHash{}(k.plan));
    h.mix(static_cast<std::uint64_t>(k.intra_policy));
    h.mix(static_cast<std::uint64_t>(k.planner));
    h.mix(static_cast<std::uint64_t>(k.max_parallel_ops));
    h.mix(k.latency_headroom);
    return static_cast<std::size_t>(h.value());
}

PlanCache::PlanPtr
PlanCache::findPlan(const PlanKey& key) const
{
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        auto it = plans_.find(key);
        if (it != plans_.end()) {
            plan_hits_.fetch_add(1, std::memory_order_relaxed);
            return it->second;
        }
    }
    plan_misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
}

PlanCache::PlanPtr
PlanCache::storePlan(const PlanKey& key, std::vector<ChunkSchedule> plan)
{
    auto value = std::make_shared<const std::vector<ChunkSchedule>>(
        std::move(plan));
    std::unique_lock<std::shared_mutex> lock(mutex_);
    return plans_.try_emplace(key, std::move(value)).first->second;
}

PlanCache::OrderPtr
PlanCache::findOrders(const OrderKey& key) const
{
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        auto it = orders_.find(key);
        if (it != orders_.end()) {
            order_hits_.fetch_add(1, std::memory_order_relaxed);
            return it->second;
        }
    }
    order_misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
}

PlanCache::OrderPtr
PlanCache::storeOrders(const OrderKey& key,
                       std::vector<std::vector<OpKey>> orders)
{
    auto value =
        std::make_shared<const std::vector<std::vector<OpKey>>>(
            std::move(orders));
    std::unique_lock<std::shared_mutex> lock(mutex_);
    return orders_.try_emplace(key, std::move(value)).first->second;
}

std::size_t
PlanCache::planCount() const
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return plans_.size();
}

std::size_t
PlanCache::orderCount() const
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return orders_.size();
}

PlanCache::Stats
PlanCache::stats() const
{
    Stats s;
    s.plan_hits = plan_hits_.load(std::memory_order_relaxed);
    s.plan_misses = plan_misses_.load(std::memory_order_relaxed);
    s.order_hits = order_hits_.load(std::memory_order_relaxed);
    s.order_misses = order_misses_.load(std::memory_order_relaxed);
    return s;
}

} // namespace themis

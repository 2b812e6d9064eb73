#include "core/priority_policy.hpp"

#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace themis {

std::string
priorityTierName(int tier)
{
    switch (tier) {
      case static_cast<int>(PriorityTier::Bulk): return "bulk";
      case static_cast<int>(PriorityTier::Standard): return "standard";
      case static_cast<int>(PriorityTier::Urgent): return "urgent";
      default: break;
    }
    std::ostringstream out;
    out << "class" << tier;
    return out.str();
}

PriorityPolicy
PriorityPolicy::uniform()
{
    return PriorityPolicy{};
}

PriorityPolicy
PriorityPolicy::tiered(double ratio)
{
    if (!(std::isfinite(ratio) && ratio >= 1.0))
        THEMIS_FATAL("priority weight ratio must be a finite number "
                     ">= 1, got " << ratio);
    std::array<double, kNumPriorityTiers> weights{};
    double w = 1.0;
    for (double& weight : weights) {
        weight = w;
        w *= ratio;
    }
    return custom(weights);
}

PriorityPolicy
PriorityPolicy::custom(
    const std::array<double, kNumPriorityTiers>& weights)
{
    // Channels divide by sums of active weights, so an infinite
    // weight or sum would turn every rate into 0 or NaN.
    double sum = 0.0;
    for (double w : weights) {
        if (!(std::isfinite(w) && w > 0.0))
            THEMIS_FATAL("flow weight must be finite and positive, got "
                         << w);
        sum += w;
    }
    if (!std::isfinite(sum))
        THEMIS_FATAL("flow weights must have a finite sum, got " << sum);
    PriorityPolicy p;
    p.uniform_ = false;
    p.weights_ = weights;
    return p;
}

FlowClass
PriorityPolicy::flowFor(int tier) const
{
    if (uniform_)
        return FlowClass{0, 1.0};
    int t = tier;
    if (t < 0)
        t = 0;
    if (t >= kNumPriorityTiers)
        t = kNumPriorityTiers - 1;
    return FlowClass{t, weights_[static_cast<std::size_t>(t)]};
}

std::uint64_t
PriorityPolicy::fingerprint() const
{
    // Uniform policies collapse every tier to {0, 1.0}; one shared
    // fingerprint keeps their plan-cache keys identical no matter how
    // the policy object was constructed.
    Fnv1a h;
    h.mix(static_cast<std::uint64_t>(uniform_));
    if (!uniform_)
        for (double w : weights_)
            h.mix(w);
    return h.value();
}

std::string
PriorityPolicy::describe() const
{
    if (uniform_)
        return "uniform (priorities off)";
    std::ostringstream out;
    out << "tiered (";
    for (int t = 0; t < kNumPriorityTiers; ++t) {
        if (t > 0)
            out << ", ";
        out << priorityTierName(t) << "=x"
            << weights_[static_cast<std::size_t>(t)];
    }
    out << ")";
    return out.str();
}

} // namespace themis

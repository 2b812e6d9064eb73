#include "runtime/chunk_op.hpp"

#include "common/error.hpp"
#include "common/hash.hpp"

namespace themis::runtime {

namespace {

// Execution granularity follows the paper's cost model (Sec 4.4): one
// fixed delay A_K = steps * step_latency, then one bandwidth-occupying
// transfer of the full wire volume N_K. The per-step plan is summed
// into that lump; concurrent chunks hide each other's fixed delays
// through the shared channel.
StepSummary
sumSteps(Phase phase, Bytes entering, const DimensionConfig& dim)
{
    StepSummary summary;
    for (const auto& s : algorithmFor(dim).plan(phase, entering, dim)) {
        summary.fixed_delay += s.latency;
        summary.total_bytes += s.bytes;
    }
    return summary;
}

} // namespace

bool
StepMemo::Key::operator==(const Key& o) const
{
    return phase == o.phase && bitEquals(entering, o.entering) &&
           dim_fingerprint == o.dim_fingerprint;
}

std::size_t
StepMemo::KeyHash::operator()(const Key& k) const
{
    Fnv1a h;
    h.mix(static_cast<std::uint64_t>(k.phase));
    h.mix(k.entering);
    h.mix(k.dim_fingerprint);
    return static_cast<std::size_t>(h.value());
}

const StepSummary&
StepMemo::lump(Phase phase, Bytes entering, const DimensionConfig& dim,
               std::uint64_t dim_fingerprint)
{
    const Key key{phase, entering, dim_fingerprint};
    auto it = lumps_.find(key);
    if (it == lumps_.end())
        it = lumps_.emplace(key, sumSteps(phase, entering, dim)).first;
    return it->second;
}

ChunkOp
makeChunkOp(const OpTag& tag, Phase phase, int local_dim, int global_dim,
            Bytes entering, const DimensionConfig& dim,
            std::function<void(const ChunkOp&)> on_complete,
            FlowClass flow, StepMemo* step_memo,
            std::uint64_t dim_fingerprint)
{
    THEMIS_ASSERT(on_complete, "chunk op needs a completion callback");
    ChunkOp op;
    op.tag = tag;
    op.phase = phase;
    op.local_dim = local_dim;
    op.global_dim = global_dim;
    op.entering = entering;
    op.flow = flow;
    const StepSummary summary =
        step_memo != nullptr
            ? step_memo->lump(phase, entering, dim, dim_fingerprint)
            : sumSteps(phase, entering, dim);
    op.fixed_delay = summary.fixed_delay;
    op.transfer_time = summary.total_bytes / dim.bandwidth();
    op.steps.push_back(StepPlan{summary.fixed_delay,
                                summary.total_bytes});
    op.on_complete = std::move(on_complete);
    return op;
}

} // namespace themis::runtime

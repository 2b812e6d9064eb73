/**
 * @file
 * Runtime representation of one chunk operation: one phase (RS/AG/A2A)
 * of one chunk executing on one network dimension. Sessions create
 * ops; dimension engines execute them step by step on the event queue
 * and invoke the completion callback.
 *
 * Every op carries its collective's FlowClass (priority tier + GPS
 * weight), which the engines thread down to the shared channels —
 * priority is a first-class attribute from workload to wire.
 */

#ifndef THEMIS_RUNTIME_CHUNK_OP_HPP
#define THEMIS_RUNTIME_CHUNK_OP_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>

#include "collective/algorithms.hpp"
#include "common/error.hpp"
#include "core/chunk.hpp"
#include "core/priority_policy.hpp"

namespace themis::runtime {

/** Globally unique identity of a chunk operation. */
struct OpTag
{
    int collective_id = 0;
    int chunk_id = 0;
    int stage_index = 0;

    bool
    operator==(const OpTag& o) const
    {
        return collective_id == o.collective_id &&
               chunk_id == o.chunk_id && stage_index == o.stage_index;
    }

    bool
    operator<(const OpTag& o) const
    {
        if (collective_id != o.collective_id)
            return collective_id < o.collective_id;
        if (chunk_id != o.chunk_id)
            return chunk_id < o.chunk_id;
        return stage_index < o.stage_index;
    }
};

/**
 * Inline step storage. The cost model lumps every op into a single
 * (fixed delay, wire bytes) step (Sec 4.4), so a heap-allocated
 * vector per op was pure overhead on the hot path — ops are created
 * per stage per chunk per iteration. A small fixed array keeps the op
 * trivially movable with zero allocations while preserving the
 * engine's generic step iteration.
 */
class StepList
{
  public:
    static constexpr std::size_t kCapacity = 4;

    void
    push_back(const StepPlan& step)
    {
        THEMIS_ASSERT(count_ < kCapacity, "chunk op step overflow");
        items_[count_++] = step;
    }

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    const StepPlan&
    operator[](std::size_t i) const
    {
        return items_[i];
    }

    const StepPlan* begin() const { return items_; }
    const StepPlan* end() const { return items_ + count_; }

  private:
    StepPlan items_[kCapacity];
    std::size_t count_ = 0;
};

/** A schedulable chunk operation; see file comment. */
struct ChunkOp
{
    OpTag tag;
    Phase phase = Phase::ReduceScatter;

    /** Dimension index within the collective's scope. */
    int local_dim = 0;

    /** Dimension index within the full topology. */
    int global_dim = 0;

    /** Per-NPU data size entering this stage. */
    Bytes entering = 0.0;

    /** Flow class of the parent collective (tier + GPS weight). */
    FlowClass flow;

    /** Algorithm step plan (latency + bytes per step). */
    StepList steps;

    /** Sum of step transfer times at full bandwidth (N*B). */
    TimeNs transfer_time = 0.0;

    /** Sum of step latencies (A). */
    TimeNs fixed_delay = 0.0;

    /**
     * Failed execution attempts so far (link flaps). 0 on the first
     * start; each retry re-runs the op from step 0 after backoff.
     */
    int attempt = 0;

    /** Invoked by the engine when the op finishes. */
    std::function<void(const ChunkOp&)> on_complete;
};

/** Lumped step aggregate of one phase of one chunk on one dimension. */
struct StepSummary
{
    /** Sum of step latencies (A). */
    TimeNs fixed_delay = 0.0;

    /** Total wire volume (N). */
    Bytes total_bytes = 0.0;
};

/**
 * Memo of step lumps, one per CommRuntime. A lump is a pure function
 * of (phase, entering bytes, dimension parameters), and sessions
 * re-derive the same lumps per stage per iteration, so each is summed
 * once and then looked up. Keys use LatencyModel::dimFingerprint();
 * entering bytes compare by bit pattern. A runtime runs on one
 * thread, so lookups take no lock and touch no shared counter. Lumps
 * are history-free, so configurations that bypass the plan cache
 * (carry-load Themis, no cache at all) memoize them too.
 */
class StepMemo
{
  public:
    /** The lump of @p phase entering @p entering bytes on @p dim,
     *  whose dimFingerprint() is @p dim_fingerprint. */
    const StepSummary& lump(Phase phase, Bytes entering,
                            const DimensionConfig& dim,
                            std::uint64_t dim_fingerprint);

  private:
    struct Key
    {
        Phase phase;
        Bytes entering;
        std::uint64_t dim_fingerprint;

        bool operator==(const Key& o) const;
    };

    struct KeyHash
    {
        std::size_t operator()(const Key& k) const;
    };

    std::unordered_map<Key, StepSummary, KeyHash> lumps_;
};

/**
 * Build a ChunkOp for @p phase of chunk @p tag on dimension @p dim
 * (computes the step plan and time aggregates). @p flow is the parent
 * collective's flow class. When @p step_memo is non-null the step
 * lump comes from it, keyed by @p dim_fingerprint — pass
 * LatencyModel::dimFingerprint() of the stage's dimension.
 */
ChunkOp makeChunkOp(const OpTag& tag, Phase phase, int local_dim,
                    int global_dim, Bytes entering,
                    const DimensionConfig& dim,
                    std::function<void(const ChunkOp&)> on_complete,
                    FlowClass flow = {}, StepMemo* step_memo = nullptr,
                    std::uint64_t dim_fingerprint = 0);

} // namespace themis::runtime

#endif // THEMIS_RUNTIME_CHUNK_OP_HPP

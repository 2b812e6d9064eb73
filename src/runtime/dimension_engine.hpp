/**
 * @file
 * Per-dimension execution engine.
 *
 * Owns one SharedChannel (the dimension's aggregate bandwidth) and a
 * queue of pending chunk operations. Responsibilities:
 *
 *  - intra-dimension ordering: FIFO or Smallest-Chunk-First
 *    (paper Sec 4.3), or an *enforced* per-collective order produced
 *    by the consistency planner (Sec 4.6.2). Flow-class tiers rank
 *    above the policy: among eligible ops, higher tiers select
 *    first, with an anti-starvation age bound (below);
 *  - admission: one big chunk at a time saturates the bandwidth, but
 *    small operations (transfer time below their fixed latency) run
 *    in parallel so their latency gaps overlap — the paper's second
 *    provision in Sec 4.3;
 *  - step execution: each algorithm step waits its latency (no
 *    bandwidth held) and then transfers its bytes through the shared
 *    channel (processor sharing across concurrent ops).
 *
 * Storage is one slot pool: enqueue writes an op into a slot, and
 * the op stays there while it is queued, active or backing off after
 * a failure, until finish moves it out. The slot index, tagged with a
 * generation bumped on every free, is the op's exec id; freed slots
 * go on an intrusive free list, so after the first iteration has set
 * the pool's high-water mark, op churn allocates nothing.
 *
 * Selection is indexed: queued ops that are *eligible* (their
 * collective has no enforced order, or they are exactly its next
 * expected op) sit in two indexed binary heaps over slot ids — one
 * ordered by the intra-dimension policy key (ReadyCompare), one by
 * arrival (the oldest ready op, for the anti-starvation bound). Each
 * slot records its position in both, so taking the head of either or
 * erasing any ready op is O(log n). Ops of an enforced collective
 * that are not yet expected are parked per collective and promoted
 * when the order cursor reaches them.
 *
 * Refills take one loop: it starts the head of the ready heap (or the
 * oldest ready op, below) while admission allows, one op at a time,
 * so a start that promotes an enforced order's next op or moves the
 * bypass streak reshapes the very next pick.
 *
 * Anti-starvation: tier precedence alone would let a sustained
 * high-tier stream park a low-tier op forever. The engine counts
 * consecutive starts that jumped over an older, lower-tier waiting
 * op; once the streak reaches AdmissionConfig::max_priority_bypass,
 * the oldest waiting op is selected next regardless of tier. Lower
 * tiers are therefore delayed, never starved.
 */

#ifndef THEMIS_RUNTIME_DIMENSION_ENGINE_HPP
#define THEMIS_RUNTIME_DIMENSION_ENGINE_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "core/consistency_planner.hpp"
#include "core/intra_dim_policy.hpp"
#include "runtime/chunk_op.hpp"
#include "sim/event_queue.hpp"
#include "sim/shared_channel.hpp"
#include "stats/telemetry/metrics.hpp"

namespace themis::stats {
class TraceWriter;
} // namespace themis::stats

namespace themis::runtime {

/** Parallel-admission tunables (paper Sec 4.3 second provision). */
struct AdmissionConfig
{
    /** Hard cap on concurrently executing ops per dimension. */
    int max_parallel_ops = 64;

    /**
     * Admit another op while the active set's summed transfer time is
     * below latency_headroom x (the largest active fixed delay): the
     * batch's serialization work does not yet dwarf the latency it
     * must hide, so bandwidth would idle without more chunks. Large
     * chunks (transfer >> fixed delay) therefore run alone, while
     * small latency-bound chunks stack until the dimension saturates
     * — the paper's "multiple chunks per dimension should be run in
     * parallel to fully saturate". 9x headroom targets ~90% busy in
     * the worst (lock-step) case.
     *
     * The service demand is *weighted*: each active op's transfer
     * time counts scaled by its GPS weight relative to the
     * candidate's, i.e. admit while
     *   sum_i(transfer_i * w_i) < headroom * max_delay * w_candidate.
     * Under weighted GPS the active set's work drains past a
     * candidate of weight w_c at w_c's share, so a bulk backlog looks
     * small to an urgent candidate (admit) and an urgent burst looks
     * large to a bulk candidate (hold back). With uniform weights
     * every w is 1.0 and the check reduces to the plain transfer-time
     * sum.
     */
    double latency_headroom = 9.0;

    /**
     * Anti-starvation bound: after this many consecutive op starts
     * that bypassed an older, lower-tier waiting op, the oldest
     * waiting op starts next regardless of tier. Irrelevant under a
     * uniform priority policy (no op ever outranks another). 64
     * bounds low-tier waiting at roughly one collective's worth of
     * chunk ops while keeping forced inversions rare enough not to
     * perturb the urgent stream (a forced bulk transfer parks itself
     * in the shared channel for its full duration).
     */
    int max_priority_bypass = 64;
};

/**
 * Retry/backoff tunables for flapped transfers (fault engine). A
 * failed chunk op re-enters the ready set after exponential backoff:
 * attempt k (1-based) waits min(backoff_base_ns * 2^(k-1),
 * backoff_cap_ns) before requeueing — optionally spread by seeded
 * deterministic jitter — and exceeding max_attempts throws
 * RetryExhaustedError (the scenario out-flaps the retry budget).
 */
struct RetryConfig
{
    TimeNs backoff_base_ns = 1e4; ///< first-retry delay (10 us)
    TimeNs backoff_cap_ns = 1e6;  ///< backoff ceiling (1 ms)
    int max_attempts = 16;        ///< fatal beyond this many failures

    /**
     * Backoff jitter spread in [0, 1): each retry's delay is scaled
     * by a deterministic factor in [1 - jitter/2, 1 + jitter/2) drawn
     * by hashing (jitter_seed, dim, op identity, attempt). A link
     * flap fails every in-flight transfer at one instant; without
     * jitter they all back off to the same tick and re-collide
     * (a synchronized retry storm). 0 disables jitter entirely and
     * reproduces the unjittered timings bit for bit.
     */
    double jitter = 0.0;

    /** Seed for the jitter hash; same seed -> same retry timings. */
    std::uint64_t jitter_seed = 0x7e315c0dULL;
};

/**
 * Structured diagnostic of a transfer that ran out of retry budget:
 * which dimension and op gave up, after how many attempts, and the
 * dimension's cumulative re-sent bytes at that point.
 */
struct FatalRetryReport
{
    int dim = -1;        ///< global dimension index
    OpTag op{};          ///< the op that exhausted its budget
    int attempts = 0;    ///< failed attempts (== max_attempts + 1)
    Bytes lost_bytes = 0.0; ///< dim's cumulative re-sent bytes
};

/**
 * Thrown when a transfer exceeds RetryConfig::max_attempts. Derives
 * from ConfigError so existing catch sites keep working; carries the
 * FatalRetryReport so the CLI can print a readable diagnostic and
 * exit non-zero instead of surfacing a raw exception.
 */
class RetryExhaustedError : public ConfigError
{
  public:
    RetryExhaustedError(const std::string& what, FatalRetryReport report)
        : ConfigError(what), report_(report)
    {
    }

    const FatalRetryReport& report() const { return report_; }

  private:
    FatalRetryReport report_;
};

/** Executes chunk ops on one network dimension; see file comment. */
class DimensionEngine
{
  public:
    /** Presence callback: (global dim, has-ops, time). */
    using PresenceListener = std::function<void(int, bool, TimeNs)>;

    /** Start callback: fired whenever an op begins executing. */
    using StartListener = std::function<void(const OpTag&)>;

    /**
     * Retry callback: (global dim, lost bytes, backoff delay) per
     * failed attempt. The delay is the exponential-backoff wait the
     * attempt will requeue after (computed even for the attempt that
     * exhausts the budget, where no requeue follows).
     */
    using RetryListener = std::function<void(int, Bytes, TimeNs)>;

    /** Fired once, just before RetryExhaustedError is thrown. */
    using FatalRetryListener =
        std::function<void(const FatalRetryReport&)>;

    /**
     * @param queue       event queue driving the simulation
     * @param config      this dimension's network parameters
     * @param global_dim  index of this dimension in the full topology
     * @param policy      intra-dimension ordering policy
     * @param admission   parallel-admission tunables
     */
    DimensionEngine(sim::EventQueue& queue, DimensionConfig config,
                    int global_dim, IntraDimPolicy policy,
                    AdmissionConfig admission);

    DimensionEngine(const DimensionEngine&) = delete;
    DimensionEngine& operator=(const DimensionEngine&) = delete;

    /** Queue @p op; it starts when ordering and admission allow. */
    void enqueue(ChunkOp op);

    /**
     * Enforce a start order for the ops of @p collective_id on this
     * dimension (consistency planner output, Sec 4.6.2). Ops of that
     * collective then start exactly in this order; ops of other
     * collectives interleave by policy.
     *
     * Normally installed before the collective's session starts.
     * Replacing an existing order mid-flight is supported only if the
     * new order lists exclusively not-yet-started ops (the cursor
     * restarts at the new order's head; an already-started op named
     * there would be waited for forever).
     */
    void setEnforcedOrder(int collective_id, std::vector<OpKey> order);

    /** Drop the enforced order of @p collective_id (when it ends). */
    void clearEnforcedOrder(int collective_id);

    /**
     * Observe queue+active presence transitions (Fig 9 activity).
     * Repeats are dropped here, so the listener sees strictly
     * alternating present/absent calls, starting with present.
     */
    void setPresenceListener(PresenceListener listener);

    /** Observe op starts (shadow-simulation order capture). */
    void setStartListener(StartListener listener);

    /**
     * Emit one fabric-row span per completed chunk op into @p trace
     * (null detaches). A direct pointer, not a listener: this fires
     * on every op and a std::function dispatch alone is measurable
     * against the <=10% tracing budget bench/telemetry_overhead.cpp
     * enforces.
     */
    void attachTrace(stats::TraceWriter* trace);

    /**
     * Enable the fault path: transfers begun on the channel carry a
     * failure handler, and failed ops re-enter the ready set after
     * exponential backoff per @p retry. Arming changes no timing
     * while no fault fires — fault-free runs stay bit-identical.
     */
    void armFaults(const RetryConfig& retry);

    /** Observe failed attempts (per-dimension retry accounting). */
    void setRetryListener(RetryListener listener);

    /** Observe retry-budget exhaustion (structured failure report). */
    void setFatalRetryListener(FatalRetryListener listener);

    /**
     * Flap control (FaultDriver): @p down=true fails every transfer
     * in flight on the channel (each op backs off and retries) and
     * holds new starts; @p down=false releases the hold and refills.
     * Requires armFaults(). Idempotent per state.
     */
    void setLinkDown(bool down);

    /** True while the link is flapped down. */
    bool linkDown() const { return link_down_; }

    /**
     * Partial-link failure (FaultDriver): fail every transfer in
     * flight on the channel once (each backs off and retries) WITHOUT
     * holding new starts — the dimension's surviving links keep
     * serving at whatever capacity the driver set. Requires
     * armFaults(). Used when some but not all links of the dim go
     * down; a full outage uses setLinkDown(true) instead.
     */
    void failInFlight();

    /** Failed attempts so far (cumulative). */
    std::uint64_t retryCount() const { return retry_count_; }

    /**
     * Wire bytes moved by failed attempts (cumulative) — work that
     * will be re-sent. progressedBytes() of the channel equals the
     * useful schedule bytes plus exactly this amount.
     */
    Bytes lostBytes() const { return lost_bytes_; }

    /** The underlying bandwidth resource (stats access). */
    sim::SharedChannel& channel() { return channel_; }
    const sim::SharedChannel& channel() const { return channel_; }

    /** Dimension network parameters. */
    const DimensionConfig& config() const { return config_; }

    /** Index in the full topology. */
    int globalDim() const { return global_dim_; }

    /** Currently queued (not yet started) op count. */
    std::size_t queuedCount() const { return queued_; }

    /** Currently executing op count. */
    std::size_t activeCount() const { return active_.size(); }

    /** Total ops completed by this engine. */
    std::uint64_t completedCount() const { return completed_; }

    /**
     * Arm per-op event tracing into @p sink: every op start and
     * finish mixes (dimension, op identity, timestamp) into the
     * hash, in execution order. The caller's epoch reset restarts
     * collective ids and the clock, so the mixed values are
     * epoch-relative by construction. Disarmed engines pay a single
     * null check per op.
     */
    void armFingerprint(Fnv1a* sink) { fingerprint_ = sink; }

    /** Stop tracing into the fingerprint sink. */
    void disarmFingerprint() { fingerprint_ = nullptr; }

    /**
     * Iteration-epoch reset: requires an idle engine (no queued or
     * active ops) and an already-rebased event queue; rebases and
     * zeroes the shared channel (SharedChannel::epochReset()).
     */
    void beginIterationEpoch();

    /**
     * Anti-starvation streak carried across ops. Exposed so epoch
     * fingerprints can cover this one piece of cross-iteration
     * hidden scheduling state.
     */
    int bypassStreak() const { return bypass_streak_; }

    /**
     * Capacity of the slot pool, both ready heaps and the active list
     * (a flat value across epochs proves the pool reached its
     * high-water mark and op churn allocates nothing).
     */
    std::size_t
    poolCapacity() const
    {
        return slots_.capacity() + keys_.capacity() +
               heaps_[0].capacity() + heaps_[1].capacity() +
               active_.capacity();
    }

    /**
     * Publish this engine's cumulative observables as gauges under
     * `<prefix>.` dotted names (telemetry snapshot; pure observer).
     */
    void publishMetrics(stats::telemetry::MetricsRegistry& registry,
                        const std::string& prefix) const;

  private:
    /** Ready-heap key; ordering implements tier + policy tie-breaks. */
    struct ReadyKey
    {
        TimeNs service_time = 0.0;
        std::uint64_t arrival_seq = 0;
        int tier = 0;
        int chunk_id = 0;
    };

    struct ReadyCompare
    {
        IntraDimPolicy policy;

        bool
        operator()(const ReadyKey& a, const ReadyKey& b) const
        {
            // Higher flow-class tiers first; the policy orders within
            // a tier (matches pickNextOp's tier precedence).
            if (a.tier != b.tier)
                return a.tier > b.tier;
            if (policy == IntraDimPolicy::Scf) {
                if (a.service_time != b.service_time)
                    return a.service_time < b.service_time;
                if (a.arrival_seq != b.arrival_seq)
                    return a.arrival_seq < b.arrival_seq;
                return a.chunk_id < b.chunk_id;
            }
            return a.arrival_seq < b.arrival_seq;
        }
    };

    static constexpr std::uint32_t kNoPos = 0xffffffffu;
    /** Heap indexes into heaps_ / SlotKey::heap_pos. */
    static constexpr int kReadyHeap = 0;
    static constexpr int kAgeHeap = 1;

    enum class SlotState : std::uint8_t { Free, Queued, Active, Backoff };

    /** A slot's heap side, kept apart from the op in one dense array
     *  so sifts touch 32 bytes per slot. */
    struct SlotKey
    {
        /** Set each time the op (re)enters the queue. */
        ReadyKey key;
        /** Position in each heap while ready. */
        std::uint32_t heap_pos[2] = {0, 0};
    };

    /** One op from enqueue to finish; see file comment. */
    struct Slot
    {
        /** Position in active_ while active; next free slot while
         *  free. */
        std::uint32_t link = kNoPos;
        std::uint32_t gen = 0;
        SlotState state = SlotState::Free;
        std::uint32_t next_step = 0;
        TimeNs started_at = 0.0;
        ChunkOp op;
    };

    struct EnforcedOrder
    {
        std::vector<OpKey> order;
        std::size_t next = 0;
        /** Parked (not yet expected) ops: OpKey -> slot. */
        std::map<std::pair<int, int>, std::uint32_t> parked;
    };

    std::uint64_t
    execId(std::uint32_t id) const
    {
        return (std::uint64_t{slots_[id].gen} << 32) | id;
    }

    /** Slot of @p exec_id, which must be live and in @p state. */
    std::uint32_t
    liveSlot(std::uint64_t exec_id, SlotState state) const
    {
        const auto id = static_cast<std::uint32_t>(exec_id);
        THEMIS_ASSERT(id < slots_.size() &&
                          slots_[id].gen == (exec_id >> 32) &&
                          slots_[id].state == state,
                      "stale or unknown exec id " << exec_id << " on dim "
                                                  << global_dim_);
        return id;
    }
    /** Mark @p id queued under a fresh arrival number and key. */
    void queueSlot(std::uint32_t id);
    void readyInsert(std::uint32_t id);
    void readyErase(std::uint32_t id);
    template <int H> bool heapBefore(std::uint32_t a, std::uint32_t b) const;
    /** Sift @p id from hole @p i of heap H to its place. */
    template <int H> void heapPlace(std::size_t i, std::uint32_t id);
    template <int H> void heapErase(std::uint32_t id);
    /** Drop @p id from the active list and its aggregates. */
    void leaveActive(std::uint32_t id);

    /** Start ready ops while admission allows (see file comment). */
    void tryStart();
    bool admissionAllows(const ChunkOp& candidate) const;
    /** Promote @p eo's newly expected op from parked to ready. */
    void promoteExpected(EnforcedOrder& eo);
    void startOp(std::uint32_t id);
    void advance(std::uint64_t exec_id);
    void finish(std::uint64_t exec_id);
    /** Fault path: remove @p exec_id from the active set, account
     *  @p lost re-sent bytes, and schedule its backoff requeue. */
    void failOp(std::uint64_t exec_id, Bytes lost);

    /** Capped exponential backoff (plus jitter) for @p op's attempt. */
    TimeNs retryBackoffDelay(const ChunkOp& op) const;
    /** Backoff expiry: the op re-enters the ready heaps directly (an
     *  enforced order's cursor has already passed a started op). */
    void requeueRetry(std::uint64_t exec_id);
    void notifyPresence();

    sim::EventQueue& queue_ref_;
    DimensionConfig config_;
    int global_dim_;
    IntraDimPolicy policy_;
    AdmissionConfig admission_;
    sim::SharedChannel channel_;

    std::vector<Slot> slots_;
    std::vector<SlotKey> keys_; ///< parallel to slots_
    std::uint32_t free_head_ = kNoPos;
    /** Ready heaps over slot ids: kReadyHeap by ReadyCompare,
     *  kAgeHeap by arrival_seq. */
    std::vector<std::uint32_t> heaps_[2];
    /** Queued ops, ready and parked. */
    std::size_t queued_ = 0;
    /** Consecutive starts that bypassed an older lower-tier op. */
    int bypass_streak_ = 0;
    /** Active slots, unordered; never longer than max_parallel_ops. */
    std::vector<std::uint32_t> active_;
    /** Aggregates over active_, maintained incrementally so the
     *  admission check is O(1): the weight-scaled transfer-time sum
     *  (sum of transfer_i * w_i) and the largest fixed delay, which is
     *  recomputed over active_ only when the op holding it leaves. */
    TimeNs active_weighted_sum_ = 0.0;
    TimeNs active_max_delay_ = 0.0;
    std::uint64_t arrival_counter_ = 0;
    std::uint64_t completed_ = 0;

    /** Iteration-trace sink; null when disarmed. */
    Fnv1a* fingerprint_ = nullptr;

    /** Fault path state; see armFaults()/setLinkDown(). */
    bool faults_armed_ = false;
    RetryConfig retry_;
    RetryListener retry_listener_;
    FatalRetryListener fatal_retry_listener_;
    bool link_down_ = false;
    std::uint64_t retry_count_ = 0;
    Bytes lost_bytes_ = 0.0;

    std::map<int, EnforcedOrder> enforced_;

    PresenceListener presence_;
    StartListener start_listener_;
    /** Per-op span sink (attachTrace); null when tracing is off. */
    stats::TraceWriter* trace_ = nullptr;
    bool last_presence_ = false;
};

} // namespace themis::runtime

#endif // THEMIS_RUNTIME_DIMENSION_ENGINE_HPP

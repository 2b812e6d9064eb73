#include "runtime/dimension_engine.hpp"

#include <sstream>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "stats/trace_writer.hpp"

namespace themis::runtime {

namespace {

/** Append a non-negative int's digits at @p p; returns one past the
 *  last digit. snprintf replacement for the per-chunk-op trace label
 *  (the hottest telemetry path). */
char*
appendInt(char* p, int v)
{
    if (v >= 10)
        p = appendInt(p, v / 10);
    *p++ = static_cast<char>('0' + v % 10);
    return p;
}

std::pair<int, int>
parkKey(const OpKey& key)
{
    return {key.chunk_id, key.stage_index};
}

std::pair<int, int>
parkKey(const OpTag& tag)
{
    return {tag.chunk_id, tag.stage_index};
}

} // namespace

DimensionEngine::DimensionEngine(sim::EventQueue& queue,
                                 DimensionConfig config, int global_dim,
                                 IntraDimPolicy policy,
                                 AdmissionConfig admission)
    : queue_ref_(queue), config_(config), global_dim_(global_dim),
      policy_(policy), admission_(admission),
      channel_(queue, config.bandwidth())
{
    config_.validate();
    THEMIS_ASSERT(admission_.max_parallel_ops >= 1,
                  "max_parallel_ops must be >= 1");
    THEMIS_ASSERT(admission_.latency_headroom > 0.0,
                  "latency_headroom must be positive");
    THEMIS_ASSERT(admission_.max_priority_bypass >= 1,
                  "max_priority_bypass must be >= 1");
}

void
DimensionEngine::beginIterationEpoch()
{
    THEMIS_ASSERT(queued_ == 0 && active_.empty(),
                  "iteration epoch reset with ops in flight on dim "
                      << global_dim_);
    channel_.epochReset();
}

void
DimensionEngine::queueSlot(std::uint32_t id)
{
    Slot& s = slots_[id];
    s.state = SlotState::Queued;
    keys_[id].key = ReadyKey{s.op.transfer_time + s.op.fixed_delay,
                             arrival_counter_++, s.op.flow.tier,
                             s.op.tag.chunk_id};
    ++queued_;
}

template <int H>
bool
DimensionEngine::heapBefore(std::uint32_t a, std::uint32_t b) const
{
    const ReadyKey& ka = keys_[a].key;
    const ReadyKey& kb = keys_[b].key;
    if (H == kAgeHeap)
        return ka.arrival_seq < kb.arrival_seq;
    return ReadyCompare{policy_}(ka, kb);
}

template <int H>
void
DimensionEngine::heapPlace(std::size_t i, std::uint32_t id)
{
    // The one sift both heaps share (Floyd's): walk the hole down to
    // a leaf along the smaller children, then sift @p id up from
    // there, past @p i if it beats an ancestor. One comparison per
    // level on the way down, and @p id — usually the old last leaf —
    // rarely climbs far. Keys are unique (arrival_seq), so the head
    // is always the unique minimum.
    std::vector<std::uint32_t>& h = heaps_[H];
    const auto put = [&](std::size_t at, std::uint32_t v) {
        h[at] = v;
        keys_[v].heap_pos[H] = static_cast<std::uint32_t>(at);
    };
    for (std::size_t child = 2 * i + 1; child < h.size();
         child = 2 * i + 1) {
        if (child + 1 < h.size() && heapBefore<H>(h[child + 1], h[child]))
            ++child;
        put(i, h[child]);
        i = child;
    }
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!heapBefore<H>(id, h[parent]))
            break;
        put(i, h[parent]);
        i = parent;
    }
    put(i, id);
}

template <int H>
void
DimensionEngine::heapErase(std::uint32_t id)
{
    std::vector<std::uint32_t>& h = heaps_[H];
    const std::size_t at = keys_[id].heap_pos[H];
    const std::uint32_t last = h.back();
    h.pop_back();
    if (last != id)
        heapPlace<H>(at, last);
}

void
DimensionEngine::readyInsert(std::uint32_t id)
{
    heaps_[kReadyHeap].push_back(id);
    heapPlace<kReadyHeap>(heaps_[kReadyHeap].size() - 1, id);
    heaps_[kAgeHeap].push_back(id);
    heapPlace<kAgeHeap>(heaps_[kAgeHeap].size() - 1, id);
}

void
DimensionEngine::readyErase(std::uint32_t id)
{
    heapErase<kReadyHeap>(id);
    heapErase<kAgeHeap>(id);
}

void
DimensionEngine::setEnforcedOrder(int collective_id,
                                  std::vector<OpKey> order)
{
    // Replacing an existing order first releases its parked ops back
    // into the ready set so none are stranded; the re-scan below
    // re-parks them under the new order.
    auto old = enforced_.find(collective_id);
    if (old != enforced_.end()) {
        for (const auto& [key, id] : old->second.parked)
            readyInsert(id);
        enforced_.erase(old);
    }
    EnforcedOrder& eo = enforced_[collective_id];
    eo.order = std::move(order);
    // Ops of this collective may already be pending (normally the
    // order is installed before the session starts, so this loop sees
    // an empty set): park every one that is not the expected head.
    for (std::uint32_t id = 0; id < slots_.size(); ++id) {
        const ChunkOp& op = slots_[id].op;
        if (slots_[id].state != SlotState::Queued ||
            op.tag.collective_id != collective_id)
            continue;
        if (op.attempt > 0)
            continue; // retry waiting out a flap; cursor passed it
        THEMIS_ASSERT(eo.next < eo.order.size(),
                      "enforced order shorter than pending op count");
        if (parkKey(op.tag) != parkKey(eo.order[eo.next])) {
            readyErase(id);
            eo.parked.emplace(parkKey(op.tag), id);
        }
    }
    // A replacement may have made an op startable (released from the
    // old order's parking).
    tryStart();
}

void
DimensionEngine::clearEnforcedOrder(int collective_id)
{
    auto it = enforced_.find(collective_id);
    if (it == enforced_.end())
        return;
    for (const auto& [key, id] : it->second.parked)
        readyInsert(id);
    const bool unparked = !it->second.parked.empty();
    enforced_.erase(it);
    if (unparked)
        tryStart();
}

void
DimensionEngine::setPresenceListener(PresenceListener listener)
{
    presence_ = std::move(listener);
}

void
DimensionEngine::setStartListener(StartListener listener)
{
    start_listener_ = std::move(listener);
}

void
DimensionEngine::attachTrace(stats::TraceWriter* trace)
{
    trace_ = trace;
}

void
DimensionEngine::armFaults(const RetryConfig& retry)
{
    if (!(retry.backoff_base_ns > 0.0))
        THEMIS_FATAL("retry backoff_base_ns must be positive, got "
                     << retry.backoff_base_ns);
    if (retry.backoff_cap_ns < retry.backoff_base_ns)
        THEMIS_FATAL("retry backoff_cap_ns "
                     << retry.backoff_cap_ns << " is below base "
                     << retry.backoff_base_ns);
    if (retry.max_attempts < 1)
        THEMIS_FATAL("retry max_attempts must be >= 1, got "
                     << retry.max_attempts);
    if (retry.jitter < 0.0 || retry.jitter >= 1.0)
        THEMIS_FATAL("retry jitter must be in [0, 1), got "
                     << retry.jitter);
    faults_armed_ = true;
    retry_ = retry;
}

void
DimensionEngine::setRetryListener(RetryListener listener)
{
    retry_listener_ = std::move(listener);
}

void
DimensionEngine::setFatalRetryListener(FatalRetryListener listener)
{
    fatal_retry_listener_ = std::move(listener);
}

void
DimensionEngine::failInFlight()
{
    THEMIS_ASSERT(faults_armed_,
                  "failInFlight on an engine without armFaults()");
    if (link_down_)
        return; // full outage already failed (and holds) everything
    channel_.failActive();
    // Not a hold: ready ops may start immediately on the surviving
    // links' capacity (the driver has already rescaled the channel).
    tryStart();
}

void
DimensionEngine::setLinkDown(bool down)
{
    THEMIS_ASSERT(faults_armed_,
                  "setLinkDown on an engine without armFaults()");
    if (down == link_down_)
        return; // overlapping flaps are depth-counted by the driver
    link_down_ = down;
    if (down) {
        // Every transfer in flight fails; each failure handler runs
        // failOp(), which schedules the op's backoff requeue. Ops in
        // their latency phase are not on the channel — they fail at
        // the latency timer's do_transfer when it sees the link down.
        channel_.failActive();
    } else {
        tryStart();
    }
}

void
DimensionEngine::notifyPresence()
{
    const bool present = queued_ > 0 || !active_.empty();
    if (present == last_presence_)
        return;
    last_presence_ = present;
    if (presence_)
        presence_(global_dim_, present, queue_ref_.now());
}

void
DimensionEngine::enqueue(ChunkOp op)
{
    THEMIS_ASSERT(op.global_dim == global_dim_,
                  "op for dim " << op.global_dim << " enqueued on dim "
                                << global_dim_);
    THEMIS_ASSERT(op.flow.tier >= 0 && op.flow.tier < kNumPriorityTiers,
                  "flow tier " << op.flow.tier << " out of range");
    std::uint32_t id = free_head_;
    if (id == kNoPos) {
        THEMIS_ASSERT(slots_.size() < kNoPos, "slot pool exhausted");
        id = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
        keys_.emplace_back();
    } else {
        free_head_ = slots_[id].link;
    }
    slots_[id].op = std::move(op);
    queueSlot(id);
    const OpTag& tag = slots_[id].op.tag;
    auto eit = enforced_.find(tag.collective_id);
    if (eit != enforced_.end()) {
        EnforcedOrder& eo = eit->second;
        THEMIS_ASSERT(eo.next < eo.order.size(),
                      "enforced order exhausted but ops keep arriving");
        if (parkKey(tag) != parkKey(eo.order[eo.next])) {
            // Not the expected head: park until the cursor reaches it.
            // Nothing became startable, so no tryStart().
            eo.parked.emplace(parkKey(tag), id);
            notifyPresence();
            return;
        }
    }
    readyInsert(id);
    notifyPresence();
    tryStart();
}

bool
DimensionEngine::admissionAllows(const ChunkOp& candidate) const
{
    if (active_.empty())
        return true;
    if (static_cast<int>(active_.size()) >= admission_.max_parallel_ops)
        return false;
    // Weighted service demand as the candidate sees it under GPS:
    // admit while sum_i(t_i * w_i) < headroom * max_delay * w_cand.
    return active_weighted_sum_ <
           admission_.latency_headroom * active_max_delay_ *
               candidate.flow.weight;
}

void
DimensionEngine::promoteExpected(EnforcedOrder& eo)
{
    if (eo.next >= eo.order.size())
        return;
    auto it = eo.parked.find(parkKey(eo.order[eo.next]));
    if (it == eo.parked.end())
        return; // expected op has not arrived yet
    readyInsert(it->second);
    eo.parked.erase(it);
}

void
DimensionEngine::tryStart()
{
    if (link_down_)
        return; // flapped: holds until the driver raises the link
    while (!heaps_[kReadyHeap].empty()) {
        // Tier-then-policy head by default; the oldest waiting op
        // once the bypass streak hits the anti-starvation bound.
        std::uint32_t chosen = heaps_[kReadyHeap].front();
        const std::uint32_t oldest = heaps_[kAgeHeap].front();
        if (bypass_streak_ >= admission_.max_priority_bypass)
            chosen = oldest;
        const ChunkOp& op = slots_[chosen].op;
        if (!admissionAllows(op))
            return;
        if (chosen == oldest) {
            bypass_streak_ = 0;
        } else {
            // Only count genuine priority inversions: starting a
            // newer op of the same (or lower) tier is the policy's
            // own ordering, not a tier bypass.
            if (op.flow.tier > slots_[oldest].op.flow.tier)
                ++bypass_streak_;
            else
                bypass_streak_ = 0;
        }
        readyErase(chosen);
        // Retried ops (attempt > 0) already advanced their
        // collective's enforced cursor at their first start; bumping
        // it again would skip the true next op forever.
        if (op.attempt == 0 && !enforced_.empty()) {
            auto eit = enforced_.find(op.tag.collective_id);
            if (eit != enforced_.end()) {
                ++eit->second.next;
                promoteExpected(eit->second);
            }
        }
        startOp(chosen);
    }
}

void
DimensionEngine::startOp(std::uint32_t id)
{
    const ChunkOp& op = slots_[id].op;
    THEMIS_ASSERT(!op.steps.empty(), "op with no steps");
    if (fingerprint_ != nullptr) {
        // Event-trace component of the iteration fingerprint: op
        // starts in execution order, identified and timestamped in
        // the epoch frame (collective ids and the clock both restart
        // at the epoch reset).
        fingerprint_->mix(std::uint64_t{0x5354}); // "ST"
        fingerprint_->mix(static_cast<std::uint64_t>(global_dim_));
        fingerprint_->mix(
            static_cast<std::uint64_t>(op.tag.collective_id));
        fingerprint_->mix(static_cast<std::uint64_t>(op.tag.chunk_id));
        fingerprint_->mix(
            static_cast<std::uint64_t>(op.tag.stage_index));
        fingerprint_->mix(queue_ref_.now());
    }
    // phaseTag, not phaseName: logDebug formats nothing below Debug,
    // but a std::string argument would be built for every op anyway.
    logDebug("dim", global_dim_ + 1, " t=", queue_ref_.now(),
             " start chunk ", op.tag.chunk_id, " stage ",
             op.tag.stage_index, " (", phaseTag(op.phase), ", ",
             op.entering, " B in, ", active_.size(), " active)");
    if (start_listener_)
        start_listener_(op.tag);
    Slot& s = slots_[id];
    active_weighted_sum_ += s.op.transfer_time * s.op.flow.weight;
    if (s.op.fixed_delay > active_max_delay_)
        active_max_delay_ = s.op.fixed_delay;
    s.state = SlotState::Active;
    s.next_step = 0;
    s.started_at = queue_ref_.now();
    s.link = static_cast<std::uint32_t>(active_.size());
    active_.push_back(id);
    --queued_;
    advance(execId(id));
}

void
DimensionEngine::leaveActive(std::uint32_t id)
{
    Slot& s = slots_[id];
    slots_[active_.back()].link = s.link;
    active_[s.link] = active_.back();
    active_.pop_back();
    active_weighted_sum_ -= s.op.transfer_time * s.op.flow.weight;
    if (s.op.fixed_delay == active_max_delay_) {
        active_max_delay_ = 0.0;
        for (std::uint32_t a : active_)
            if (slots_[a].op.fixed_delay > active_max_delay_)
                active_max_delay_ = slots_[a].op.fixed_delay;
    }
    if (active_.empty())
        active_weighted_sum_ = 0.0; // shed fp drift at quiesce points
}

void
DimensionEngine::advance(std::uint64_t exec_id)
{
    Slot& a = slots_[liveSlot(exec_id, SlotState::Active)];
    if (a.next_step >= a.op.steps.size()) {
        finish(exec_id);
        return;
    }
    const StepPlan step = a.op.steps[a.next_step];
    const FlowClass flow = a.op.flow;
    ++a.next_step;
    auto do_transfer = [this, exec_id, step, flow] {
        if (faults_armed_ && link_down_) {
            // The latency phase ended under a flapped link: the wire
            // transfer cannot start. Fail the attempt on the spot (no
            // bytes moved) and back off like a mid-flight failure.
            failOp(exec_id, 0.0);
            return;
        }
        // Channel accounting is per (job, tier): job 0 — the single-
        // workload case — maps onto the plain tier indices. The fail
        // handler accounts the bytes a failed wire step DID move as
        // lost work: they get re-sent on retry.
        channel_.begin(
            step.bytes, flow.weight, [this, exec_id] { advance(exec_id); },
            accountingClass(flow),
            faults_armed_ ? sim::SharedChannel::FailCallback(
                                [this, exec_id, step](Bytes remaining) {
                                    failOp(exec_id,
                                           step.bytes - remaining);
                                })
                          : nullptr);
    };
    if (step.latency > 0.0) {
        queue_ref_.scheduleAfter(step.latency, do_transfer);
    } else {
        do_transfer();
    }
}

void
DimensionEngine::finish(std::uint64_t exec_id)
{
    const std::uint32_t id = liveSlot(exec_id, SlotState::Active);
    leaveActive(id);
    Slot& s = slots_[id];
    ChunkOp op = std::move(s.op);
    const TimeNs started_at = s.started_at;
    s.state = SlotState::Free;
    ++s.gen;
    s.link = free_head_;
    free_head_ = id;
    ++completed_;
    if (fingerprint_ != nullptr) {
        fingerprint_->mix(std::uint64_t{0x464e}); // "FN"
        fingerprint_->mix(static_cast<std::uint64_t>(global_dim_));
        fingerprint_->mix(
            static_cast<std::uint64_t>(op.tag.collective_id));
        fingerprint_->mix(static_cast<std::uint64_t>(op.tag.chunk_id));
        fingerprint_->mix(
            static_cast<std::uint64_t>(op.tag.stage_index));
        fingerprint_->mix(queue_ref_.now());
    }
    if (trace_ != nullptr) {
        // Hand-rolled "RS c3.s1" label: short enough for the string's
        // SSO buffer, so the whole per-op span is allocation-free.
        char label[32];
        char* p = label;
        for (const char* t = phaseTag(op.phase); *t != '\0';)
            *p++ = *t++;
        *p++ = ' ';
        *p++ = 'c';
        p = appendInt(p, op.tag.chunk_id);
        *p++ = '.';
        *p++ = 's';
        p = appendInt(p, op.tag.stage_index);
        trace_->recordFabricOp(global_dim_, label,
                               static_cast<std::size_t>(p - label),
                               started_at, queue_ref_.now());
    }
    // Completion may enqueue the chunk's next stage on another
    // dimension (or this one); notify first, then refill.
    op.on_complete(op);
    notifyPresence();
    tryStart();
}

void
DimensionEngine::failOp(std::uint64_t exec_id, Bytes lost)
{
    const std::uint32_t id = liveSlot(exec_id, SlotState::Active);
    Slot& a = slots_[id];
    THEMIS_ASSERT(a.next_step >= 1, "failOp before any step began");
    // Earlier steps of this attempt completed in full; the whole op
    // restarts from step 0 on retry, so their bytes are re-sent too.
    for (std::size_t s = 0; s + 1 < a.next_step; ++s)
        lost += a.op.steps[s].bytes;
    leaveActive(id);
    a.state = SlotState::Backoff;
    // The op waits out its backoff in its slot. The listeners below
    // may enqueue (and so move the pool): copy what they report.
    const int attempt = ++a.op.attempt;
    const OpTag tag = a.op.tag;
    const TimeNs delay = retryBackoffDelay(a.op);
    ++retry_count_;
    lost_bytes_ += lost;
    if (fingerprint_ != nullptr) {
        fingerprint_->mix(std::uint64_t{0x464c}); // "FL"
        fingerprint_->mix(static_cast<std::uint64_t>(global_dim_));
        fingerprint_->mix(static_cast<std::uint64_t>(tag.collective_id));
        fingerprint_->mix(static_cast<std::uint64_t>(tag.chunk_id));
        fingerprint_->mix(static_cast<std::uint64_t>(tag.stage_index));
        fingerprint_->mix(static_cast<std::uint64_t>(attempt));
        fingerprint_->mix(queue_ref_.now());
    }
    logDebug("dim", global_dim_ + 1, " t=", queue_ref_.now(),
             " FAIL chunk ", tag.chunk_id, " stage ", tag.stage_index,
             " attempt ", attempt, " (", lost, " B lost)");
    if (retry_listener_)
        retry_listener_(global_dim_, lost, delay);
    if (attempt > retry_.max_attempts) {
        FatalRetryReport report;
        report.dim = global_dim_;
        report.op = tag;
        report.attempts = attempt;
        report.lost_bytes = lost_bytes_;
        if (fatal_retry_listener_)
            fatal_retry_listener_(report);
        std::ostringstream oss;
        oss << "chunk " << tag.chunk_id << " stage " << tag.stage_index
            << " on dim " << global_dim_
            << " exceeded " << retry_.max_attempts
            << " retry attempts; raise retry max_attempts or shorten "
               "the flap windows";
        throw RetryExhaustedError(oss.str(), report);
    }
    queue_ref_.scheduleAfter(delay,
                             [this, exec_id] { requeueRetry(exec_id); });
    notifyPresence();
}

TimeNs
DimensionEngine::retryBackoffDelay(const ChunkOp& op) const
{
    // Exponential backoff, capped: base * 2^(attempt-1). The loop
    // form avoids pow()/overflow and is exact in doubles.
    TimeNs delay = retry_.backoff_base_ns;
    for (int k = 1; k < op.attempt && delay < retry_.backoff_cap_ns;
         ++k)
        delay *= 2.0;
    if (delay > retry_.backoff_cap_ns)
        delay = retry_.backoff_cap_ns;
    if (retry_.jitter > 0.0) {
        // Deterministic per-(op, attempt) spread so a flap's batch of
        // simultaneous failures fans out instead of re-colliding on
        // one backoff tick. Hash -> u in [0, 1) -> factor in
        // [1 - jitter/2, 1 + jitter/2).
        Fnv1a h;
        h.mix(retry_.jitter_seed);
        h.mix(static_cast<std::uint64_t>(global_dim_));
        h.mix(static_cast<std::uint64_t>(op.tag.collective_id));
        h.mix(static_cast<std::uint64_t>(op.tag.chunk_id));
        h.mix(static_cast<std::uint64_t>(op.tag.stage_index));
        h.mix(static_cast<std::uint64_t>(op.attempt));
        const double u =
            static_cast<double>(h.value() >> 11) * 0x1.0p-53;
        delay *= 1.0 + retry_.jitter * (u - 0.5);
    }
    return delay;
}

void
DimensionEngine::publishMetrics(
    stats::telemetry::MetricsRegistry& registry,
    const std::string& prefix) const
{
    registry.gauge(prefix + ".completed_ops")
        .set(static_cast<double>(completed_));
    registry.gauge(prefix + ".retries")
        .set(static_cast<double>(retry_count_));
    registry.gauge(prefix + ".lost_bytes").set(lost_bytes_);
    registry.gauge(prefix + ".bypass_streak")
        .set(static_cast<double>(bypass_streak_));
    channel_.publishMetrics(registry, prefix + ".channel");
}

void
DimensionEngine::requeueRetry(std::uint64_t exec_id)
{
    const std::uint32_t id = liveSlot(exec_id, SlotState::Backoff);
    queueSlot(id);
    readyInsert(id);
    notifyPresence();
    tryStart();
}

} // namespace themis::runtime

#include "sim/event_queue.hpp"

#include <algorithm>

namespace themis::sim {

std::uint32_t
EventQueue::allocSlot()
{
    if (free_head_ != kNoSlot) {
        const std::uint32_t idx = free_head_;
        free_head_ = slots_[idx].next_free;
        slots_[idx].next_free = kNoSlot;
        return idx;
    }
    THEMIS_ASSERT(slots_.size() < kNoSlot, "event slab exhausted");
    slots_.emplace_back();
    filed_.push_back(Filed{kNoBucket, 0});
    return static_cast<std::uint32_t>(slots_.size() - 1);
}

void
EventQueue::releaseSlot(std::uint32_t idx)
{
    Slot& slot = slots_[idx];
    slot.invoke = nullptr;
    slot.relocate = nullptr;
    slot.destroy = nullptr;
    ++slot.generation; // stale ids and pending entries now miss
    slot.next_free = free_head_;
    filed_[idx].bucket = kNoBucket;
    free_head_ = idx;
}

void
EventQueue::releaseAll()
{
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
        Slot& slot = slots_[i];
        if (slot.invoke != nullptr) {
            slot.destroy(slot.storage);
            releaseSlot(i);
        }
    }
    live_events_ = 0;
}

void
EventQueue::cancel(EventId id)
{
    if (id == 0)
        return;
    const std::uint64_t high = id >> 32;
    if (high == 0 || high > slots_.size())
        return;
    const auto idx = static_cast<std::uint32_t>(high - 1);
    const auto generation = static_cast<std::uint32_t>(id);
    Slot& slot = slots_[idx];
    if (slot.invoke == nullptr || slot.generation != generation)
        return; // already fired/cancelled (or slot since recycled)
    // Entries collected into a firing cohort are no longer filed;
    // releasing the slot makes the run loop skip them.
    const Filed where = filed_[idx];
    if (where.bucket != kNoBucket)
        removeAt(where.bucket, where.index);
    slot.destroy(slot.storage);
    releaseSlot(idx);
    --live_events_;
}

std::uint32_t
EventQueue::lowestBucket() const
{
    for (std::size_t w = 0; w < kMaskWords; ++w) {
        if (occupied_[w] != 0)
            return static_cast<std::uint32_t>(
                w * 64 + static_cast<std::size_t>(
                             __builtin_ctzll(occupied_[w])));
    }
    return kNoBucket;
}

void
EventQueue::markOccupied(std::uint32_t b)
{
    occupied_[b / 64] |= std::uint64_t{1} << (b % 64);
}

void
EventQueue::markEmpty(std::uint32_t b)
{
    occupied_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
}

void
EventQueue::file(std::uint32_t b, const Entry& e)
{
    auto& bucket = buckets_[b];
    filed_[e.slot] = Filed{b, static_cast<std::uint32_t>(bucket.size())};
    bucket.push_back(e);
    markOccupied(b);
}

void
EventQueue::pushEntry(const Entry& e)
{
    const std::uint64_t key = keyOf(e.when);
    THEMIS_ASSERT(key >= floor_, "timestamp " << e.when
                                              << " below the queue floor");
    const std::uint64_t diff = key ^ floor_;
    if (diff == 0) {
        file(0, e);
        return;
    }
    const unsigned high_bit = 63 - static_cast<unsigned>(__builtin_clzll(diff));
    const unsigned level = high_bit / kDigitBits;
    const std::uint64_t digit = (key >> (level * kDigitBits)) & (kRadix - 1);
    file(static_cast<std::uint32_t>(1 + level * kRadix + digit), e);
}

void
EventQueue::removeAt(std::uint32_t b, std::uint32_t index)
{
    auto& bucket = buckets_[b];
    THEMIS_ASSERT(index < bucket.size(), "bucket back-pointer out of range");
    filed_[bucket[index].slot].bucket = kNoBucket;
    if (index + 1 != bucket.size()) {
        // The moved entry's slot is live (no entry outlives its slot),
        // so its back-pointer is safe to fix.
        bucket[index] = bucket.back();
        filed_[bucket[index].slot].index = index;
    }
    bucket.pop_back();
    if (bucket.empty())
        markEmpty(b);
}

bool
EventQueue::earliestKey(std::uint64_t& key) const
{
    const std::uint32_t b = lowestBucket();
    if (b == kNoBucket)
        return false;
    if (b == 0) {
        key = floor_;
        return true;
    }
    key = keyOf(buckets_[b].front().when);
    for (const Entry& e : buckets_[b])
        key = std::min(key, keyOf(e.when));
    return true;
}

void
EventQueue::collectCohort(std::uint64_t key, std::vector<Entry>& cohort)
{
    if (key != floor_) {
        // Raise the floor to the minimum, which lives in the lowest
        // non-empty bucket; re-file that bucket against the new floor.
        // Its entries agree with both floors above their level and
        // with the new floor at it, so each lands in a strictly lower
        // bucket, and every other bucket stays valid untouched.
        const std::uint32_t b = lowestBucket();
        floor_ = key;
        refile_scratch_.swap(buckets_[b]);
        markEmpty(b);
        for (const Entry& e : refile_scratch_)
            pushEntry(e);
        refile_scratch_.clear();
    }
    // Bucket 0 now holds exactly the entries at the floor timestamp.
    cohort.swap(buckets_[0]);
    markEmpty(0);
    for (const Entry& e : cohort)
        filed_[e.slot].bucket = kNoBucket;
    // Appends and re-filing keep a bucket in sequence order; only
    // cancels (swap-removal) and re-pushed cohort remainders break it.
    const auto bySeq = [](const Entry& a, const Entry& c) {
        return a.seq < c.seq;
    };
    if (!std::is_sorted(cohort.begin(), cohort.end(), bySeq))
        std::sort(cohort.begin(), cohort.end(), bySeq);
}

std::size_t
EventQueue::runCohorts(TimeNs until, bool bounded)
{
    std::size_t fired = 0;
    // Steal the scratch buffer so a handler that re-enters run()
    // (never done today, but harmless) gets a fresh one.
    std::vector<Entry> cohort = std::move(cohort_scratch_);
    std::uint64_t key = 0;
    while (earliestKey(key)) {
        cohort.clear();
        if (bounded && timeOf(key) > until)
            break;
        collectCohort(key, cohort);
        THEMIS_ASSERT(!cohort.empty(), "earliest pending key " << key
                                           << " filed off bucket 0");
        now_ = cohort.front().when;
        // If a handler throws (sweep jobs legitimately propagate
        // ConfigError through run()), the not-yet-fired remainder of
        // the cohort goes back into the pending store so the queue
        // stays resumable — matching the pre-batching behavior where
        // unfired entries simply stayed queued.
        struct CohortGuard
        {
            EventQueue* queue;
            const std::vector<Entry>* cohort;
            std::size_t next = 0;
            bool armed = true;

            ~CohortGuard()
            {
                if (!armed)
                    return;
                for (std::size_t i = next; i < cohort->size(); ++i) {
                    const Entry& e = (*cohort)[i];
                    // Skip entries an earlier cohort member cancelled:
                    // re-filing one would write a back-pointer into a
                    // freed (possibly reallocated) slot.
                    if (!queue->entryStale(e))
                        queue->pushEntry(e);
                }
            }
        } cohort_guard{this, &cohort};
        for (std::size_t c = 0; c < cohort.size(); ++c) {
            const Entry& e = cohort[c];
            cohort_guard.next = c + 1;
            // Re-check liveness per event: an earlier cohort member's
            // handler may have cancelled this one.
            Slot& slot = slots_[e.slot];
            if (slot.invoke == nullptr || slot.generation != e.generation)
                continue;
            // Move the closure onto the stack before invoking: the
            // handler may schedule events, growing the slab and moving
            // the slot.
            alignas(std::max_align_t) unsigned char local[kInlineCapacity];
            auto* invoke = slot.invoke;
            auto* destroy = slot.destroy;
            slot.relocate(local, slot.storage);
            releaseSlot(e.slot);
            --live_events_;
            // Destroy the local copy even when the handler throws.
            struct Guard
            {
                void (*destroy)(void*);
                void* closure;
                ~Guard() { destroy(closure); }
            } guard{destroy, local};
            invoke(local);
            ++fired;
        }
        cohort_guard.armed = false;
    }
    cohort.clear();
    cohort_scratch_ = std::move(cohort);
    if (bounded && now_ < until)
        now_ = until;
    return fired;
}

std::size_t
EventQueue::run()
{
    return runCohorts(0.0, /*bounded=*/false);
}

std::size_t
EventQueue::runUntil(TimeNs until)
{
    return runCohorts(until, /*bounded=*/true);
}

void
EventQueue::rebaseToZero()
{
    THEMIS_ASSERT(live_events_ == 0,
                  "rebasing a queue with " << live_events_
                                           << " pending events");
    // cancel() removes entries eagerly and firing removes them on
    // collection, so an empty queue holds no filed entries.
    THEMIS_ASSERT(lowestBucket() == kNoBucket,
                  "buckets hold entries of no live event");
    now_ = 0.0;
    floor_ = 0;
}

void
EventQueue::reset()
{
    releaseAll();
    for (auto& bucket : buckets_)
        bucket.clear();
    occupied_ = {};
    floor_ = 0;
    slots_.clear();
    filed_.clear();
    free_head_ = kNoSlot;
    now_ = 0.0;
    next_seq_ = 1;
    cohort_scratch_.clear();
}

} // namespace themis::sim

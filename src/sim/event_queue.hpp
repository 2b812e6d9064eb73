/**
 * @file
 * Discrete-event simulation core.
 *
 * A single-threaded event queue with deterministic ordering: events
 * firing at the same timestamp run in scheduling order (FIFO by a
 * monotonic sequence number). Handlers may schedule or cancel further
 * events freely.
 *
 * Events live in a slab of fixed-size slots recycled through a free
 * list, so steady-state scheduling performs no heap allocation:
 * handlers whose closure fits kInlineCapacity bytes are constructed
 * in place inside the slot (larger ones fall back to a heap box).
 * Event ids are generation-tagged — an id encodes (slot, generation)
 * and a slot's generation bumps on every release — so cancellation is
 * O(1) and a stale id from a previous tenant of the slot can never
 * cancel the current one.
 *
 * The pending set is a radix heap (Ahuja, Mehlhorn, Orlin and Tarjan,
 * 1990) over the timestamps' bit patterns, with 16-way digits.
 * Simulated time never moves backwards, so every new timestamp is >=
 * the last one popped (the floor), and an entry is filed by the
 * highest digit in which its timestamp differs from the floor and by
 * its own value of that digit. Scheduling is O(1); popping re-files
 * only the lowest non-empty bucket, each entry at most once per
 * digit. Each slot records its entry's bucket and position, so
 * cancel() removes the entry eagerly in O(1) and no bucket holds a
 * cancelled event. The run loops pop whole same-timestamp cohorts at
 * once, in sequence order.
 */

#ifndef THEMIS_SIM_EVENT_QUEUE_HPP
#define THEMIS_SIM_EVENT_QUEUE_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"

namespace themis::sim {

/**
 * Deterministic discrete-event queue.
 *
 * Time never moves backwards; scheduling in the past is an internal
 * error (panics). run() executes until the queue drains.
 */
class EventQueue
{
  public:
    /**
     * Opaque handle for cancellation: (slot+1) in the high 32 bits,
     * slot generation in the low 32. Id 0 is never issued.
     */
    using EventId = std::uint64_t;

    /** Closure bytes stored in place; larger handlers are boxed. */
    static constexpr std::size_t kInlineCapacity = 48;

    EventQueue() = default;
    ~EventQueue() { releaseAll(); }

    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /** Current simulated time in nanoseconds. */
    TimeNs now() const { return now_; }

    /**
     * Schedule @p handler (any void() callable) to run at absolute
     * time @p when (>= now()).
     * @return handle usable with cancel().
     */
    template <typename F>
    EventId
    schedule(TimeNs when, F&& handler)
    {
        THEMIS_ASSERT(when >= now_ - 1e-9,
                      "scheduling into the past: when=" << when
                                                        << " now=" << now_);
        using Fn = std::decay_t<F>;
        // Nullable callables (std::function, function pointers) fail
        // fast here instead of crashing inside the run loop later.
        if constexpr (std::is_constructible_v<bool, const Fn&>)
            THEMIS_ASSERT(static_cast<bool>(handler),
                          "null event handler");
        if constexpr (sizeof(Fn) <= kInlineCapacity &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            return emplaceEvent<Fn>(when, std::forward<F>(handler));
        } else {
            // Closure too big for a slot: one boxing allocation.
            return emplaceEvent<Boxed<Fn>>(
                when, Boxed<Fn>{std::make_unique<Fn>(
                          std::forward<F>(handler))});
        }
    }

    /** Schedule @p handler @p delay nanoseconds from now (delay >= 0). */
    template <typename F>
    EventId
    scheduleAfter(TimeNs delay, F&& handler)
    {
        THEMIS_ASSERT(delay >= 0.0, "negative delay " << delay);
        return schedule(now_ + delay, std::forward<F>(handler));
    }

    /**
     * Cancel a pending event in O(log n); the pending set shrinks at
     * once. Cancelling an already-fired or unknown id is a harmless
     * no-op (completion races are normal).
     */
    void cancel(EventId id);

    /** True when no live (non-cancelled) events remain. */
    bool empty() const { return live_events_ == 0; }

    /** Number of live pending events. */
    std::size_t pendingCount() const { return live_events_; }

    /**
     * Run until the queue drains.
     * @return number of handlers executed.
     */
    std::size_t run();

    /**
     * Run events with timestamp <= @p until; afterwards now() ==
     * max(now, until) even if the queue drained earlier.
     * @return number of handlers executed.
     */
    std::size_t runUntil(TimeNs until);

    /** Drop all pending events and reset the clock to zero. */
    void reset();

    /**
     * Rebase the clock of an *empty* queue back to zero (asserts
     * emptiness). Unlike reset() this keeps the slab and the sequence
     * counter, so it is O(1) and the next events schedule with warm
     * storage. Iteration-epoch replay uses this so every training
     * iteration runs in the identical time frame — the precondition
     * for bit-identical steady-state trajectories regardless of how
     * much simulated time has passed.
     */
    void rebaseToZero();

  private:
    /** Heap indirection for closures beyond kInlineCapacity. */
    template <typename Fn>
    struct Boxed
    {
        std::unique_ptr<Fn> fn;
        void operator()() { (*fn)(); }
    };

    /**
     * One pooled event. `invoke` doubles as the liveness flag; the
     * closure lives in `storage`. Freed slots chain through
     * `next_free` and bump `generation` so stale ids miss.
     */
    struct Slot
    {
        alignas(std::max_align_t) unsigned char storage[kInlineCapacity];
        void (*invoke)(void*) = nullptr;
        /** Move-construct the closure into @p dst, destroy @p src. */
        void (*relocate)(void* dst, void* src) = nullptr;
        void (*destroy)(void*) = nullptr;
        std::uint32_t generation = 0;
        std::uint32_t next_free = kNoSlot;
    };

    /**
     * Where a slot's pending entry is filed, so cancel() removes it
     * eagerly (bucket kNoBucket = not filed, e.g. already collected
     * into a firing cohort). Kept apart from the slab: re-filing a
     * bucket touches this dense array, not one slot per entry.
     */
    struct Filed
    {
        std::uint32_t bucket;
        std::uint32_t index;
    };

    struct Entry
    {
        TimeNs when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t generation;
    };

    static constexpr std::uint32_t kNoSlot = 0xffffffffu;
    static constexpr std::uint32_t kNoBucket = 0xffffffffu;

    /**
     * Bucket geometry. Bucket 0 holds the entries at the floor
     * timestamp. A key that first differs from the floor in digit
     * `level` (counting kDigitBits-bit digits from the low end), where
     * its own digit is `d`, goes to bucket 1 + level * kRadix + d. So
     * every key in a bucket is below every key in a higher-numbered
     * one, and the lowest non-empty bucket holds the minimum. Wider
     * digits mean fewer re-filings per entry but more buckets to skip.
     */
    static constexpr unsigned kDigitBits = 4;
    static constexpr std::size_t kRadix = std::size_t{1} << kDigitBits;
    static constexpr std::size_t kBuckets = 1 + 64 / kDigitBits * kRadix;
    static constexpr std::size_t kMaskWords = (kBuckets + 63) / 64;

    /** Order-preserving key of a non-negative timestamp: its bit
     *  pattern (-0.0 folds onto +0.0). */
    static std::uint64_t
    keyOf(TimeNs when)
    {
        if (when == 0.0)
            return 0;
        std::uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(when), "double is 64-bit");
        std::memcpy(&bits, &when, sizeof(bits));
        return bits;
    }

    /** Inverse of keyOf(). */
    static TimeNs
    timeOf(std::uint64_t key)
    {
        TimeNs when = 0.0;
        std::memcpy(&when, &key, sizeof(when));
        return when;
    }

    static EventId
    makeId(std::uint32_t slot, std::uint32_t generation)
    {
        return (static_cast<EventId>(slot) + 1) << 32 | generation;
    }

    template <typename Fn, typename Arg>
    EventId
    emplaceEvent(TimeNs when, Arg&& fn)
    {
        static_assert(sizeof(Fn) <= kInlineCapacity,
                      "closure does not fit an event slot");
        const std::uint32_t idx = allocSlot();
        Slot& slot = slots_[idx];
        ::new (static_cast<void*>(slot.storage)) Fn(std::forward<Arg>(fn));
        slot.invoke = [](void* p) { (*static_cast<Fn*>(p))(); };
        slot.relocate = [](void* dst, void* src) {
            ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
            static_cast<Fn*>(src)->~Fn();
        };
        slot.destroy = [](void* p) { static_cast<Fn*>(p)->~Fn(); };
        pushEntry(Entry{when < now_ ? now_ : when, next_seq_++, idx,
                        slot.generation});
        ++live_events_;
        return makeId(idx, slot.generation);
    }

    std::uint32_t allocSlot();
    void releaseSlot(std::uint32_t idx);
    void releaseAll();

    /** True when the entry's event was cancelled or already fired. */
    bool
    entryStale(const Entry& e) const
    {
        const Slot& slot = slots_[e.slot];
        return slot.invoke == nullptr || slot.generation != e.generation;
    }

    /** Lowest non-empty bucket, or kNoBucket when all are empty. */
    std::uint32_t lowestBucket() const;
    void markOccupied(std::uint32_t b);
    void markEmpty(std::uint32_t b);
    /** File @p e (timestamp >= the floor) into its bucket. */
    void pushEntry(const Entry& e);
    /** Append @p e to bucket @p b and point its slot there. */
    void file(std::uint32_t b, const Entry& e);
    /** Remove the entry at (@p b, @p index), clearing its slot's
     *  back-pointer; the bucket's last entry fills the hole. */
    void removeAt(std::uint32_t b, std::uint32_t index);
    /**
     * Key of the earliest pending entry, or false when none is
     * pending. Reads only: the floor stays put, so a bounded run that
     * stops short never raises it past now().
     */
    bool earliestKey(std::uint64_t& key) const;
    /**
     * Raise the floor to @p key (the earliest pending key) and move
     * every entry at that timestamp into @p cohort, in sequence order.
     */
    void collectCohort(std::uint64_t key, std::vector<Entry>& cohort);
    /** Shared run loop; fires whole same-timestamp cohorts at once. */
    std::size_t runCohorts(TimeNs until, bool bounded);

    TimeNs now_ = 0.0;
    std::uint64_t next_seq_ = 1;
    std::size_t live_events_ = 0;
    std::vector<Slot> slots_;
    std::uint32_t free_head_ = kNoSlot;

    /** Per-slot back-pointers into buckets_ (see Filed). */
    std::vector<Filed> filed_;

    /** Pending entries by bucket, unordered within one. cancel()
     *  removes entries eagerly, so no entry ever outlives its slot —
     *  the invariant the back-pointer fix-ups rely on. */
    std::array<std::vector<Entry>, kBuckets> buckets_;
    /** Bit b % 64 of word b / 64 set iff bucket b is non-empty. */
    std::array<std::uint64_t, kMaskWords> occupied_{};
    /** Key of the last popped timestamp; every pending key is >= it. */
    std::uint64_t floor_ = 0;
    /** Holds a bucket's entries while they are re-filed. */
    std::vector<Entry> refile_scratch_;

    std::vector<Entry> cohort_scratch_;
};

} // namespace themis::sim

#endif // THEMIS_SIM_EVENT_QUEUE_HPP

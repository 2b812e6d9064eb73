/**
 * @file
 * Unit tests for the discrete-event queue: ordering, determinism,
 * cancellation and bounded runs, and randomized workloads checked
 * against a test-local reference model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"

namespace themis::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> fired;
    q.schedule(30.0, [&] { fired.push_back(3); });
    q.schedule(10.0, [&] { fired.push_back(1); });
    q.schedule(20.0, [&] { fired.push_back(2); });
    EXPECT_EQ(q.run(), 3u);
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(q.now(), 30.0);
}

TEST(EventQueue, SameTimeFifoBySchedulingOrder)
{
    EventQueue q;
    std::vector<int> fired;
    for (int i = 0; i < 10; ++i)
        q.schedule(5.0, [&fired, i] { fired.push_back(i); });
    q.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, HandlersCanScheduleMore)
{
    EventQueue q;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 5)
            q.scheduleAfter(10.0, chain);
    };
    q.scheduleAfter(0.0, chain);
    q.run();
    EXPECT_EQ(count, 5);
    EXPECT_DOUBLE_EQ(q.now(), 40.0);
}

TEST(EventQueue, CancelPreventsFiring)
{
    EventQueue q;
    bool fired = false;
    const auto id = q.schedule(10.0, [&] { fired = true; });
    q.cancel(id);
    EXPECT_TRUE(q.empty());
    q.run();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelUnknownIdIsNoop)
{
    EventQueue q;
    q.cancel(424242);
    SUCCEED();
}

TEST(EventQueue, CancelOneOfManyAtSameTime)
{
    EventQueue q;
    std::vector<int> fired;
    q.schedule(5.0, [&] { fired.push_back(1); });
    const auto id = q.schedule(5.0, [&] { fired.push_back(2); });
    q.schedule(5.0, [&] { fired.push_back(3); });
    q.cancel(id);
    q.run();
    EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueue, RunUntilStopsAtBoundary)
{
    EventQueue q;
    std::vector<int> fired;
    q.schedule(10.0, [&] { fired.push_back(1); });
    q.schedule(20.0, [&] { fired.push_back(2); });
    q.schedule(30.0, [&] { fired.push_back(3); });
    EXPECT_EQ(q.runUntil(20.0), 2u);
    EXPECT_EQ(fired, (std::vector<int>{1, 2}));
    EXPECT_DOUBLE_EQ(q.now(), 20.0);
    EXPECT_EQ(q.pendingCount(), 1u);
    q.run();
    EXPECT_EQ(fired.size(), 3u);
}

TEST(EventQueue, RunUntilAdvancesClockWhenIdle)
{
    EventQueue q;
    q.runUntil(500.0);
    EXPECT_DOUBLE_EQ(q.now(), 500.0);
}

TEST(EventQueue, ResetClearsEverything)
{
    EventQueue q;
    bool fired = false;
    q.schedule(10.0, [&] { fired = true; });
    q.runUntil(1.0);
    q.reset();
    EXPECT_TRUE(q.empty());
    EXPECT_DOUBLE_EQ(q.now(), 0.0);
    q.run();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue q;
    q.schedule(100.0, [] {});
    q.run();
    EXPECT_DEATH(q.schedule(50.0, [] {}), "past");
}

TEST(EventQueue, NegativeDelayPanics)
{
    EventQueue q;
    EXPECT_DEATH(q.scheduleAfter(-1.0, [] {}), "negative");
}

TEST(EventQueue, ManyEventsStressDeterminism)
{
    EventQueue q;
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        q.schedule(static_cast<double>((i * 37) % 1000),
                   [&sum, i] { sum += i; });
    }
    EXPECT_EQ(q.run(), 10000u);
    EXPECT_DOUBLE_EQ(sum, 10000.0 * 9999.0 / 2.0);
}

TEST(EventQueue, StaleIdCannotCancelSlotSuccessor)
{
    // The slab recycles slots through a free list; a stale id from a
    // previous tenant must miss the current one (generation tag).
    EventQueue q;
    bool first = false, second = false;
    const auto id_first = q.schedule(10.0, [&] { first = true; });
    q.cancel(id_first); // frees the slot
    const auto id_second = q.schedule(20.0, [&] { second = true; });
    EXPECT_NE(id_first, id_second);
    q.cancel(id_first); // stale generation: must be a no-op
    EXPECT_EQ(q.pendingCount(), 1u);
    q.run();
    EXPECT_FALSE(first);
    EXPECT_TRUE(second);
}

TEST(EventQueue, FiredIdCannotCancelSlotSuccessor)
{
    EventQueue q;
    int fired = 0;
    const auto id_first = q.schedule(10.0, [&] { ++fired; });
    q.run(); // slot released by firing, not by cancel
    const auto id_second = q.schedule(20.0, [&] { ++fired; });
    EXPECT_NE(id_first, id_second);
    q.cancel(id_first);
    q.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, IdReuseAcrossManyGenerations)
{
    // Drive one slot through many alloc/cancel cycles; every issued id
    // must stay unique and cancellation must only ever hit its own
    // event.
    EventQueue q;
    std::vector<EventQueue::EventId> issued;
    for (int round = 0; round < 100; ++round) {
        bool fired = false;
        const auto id = q.schedule(10.0, [&fired] { fired = true; });
        for (const auto old : issued)
            EXPECT_NE(old, id);
        for (const auto old : issued)
            q.cancel(old); // all stale: no-ops
        EXPECT_EQ(q.pendingCount(), 1u);
        q.cancel(id);
        EXPECT_TRUE(q.empty());
        issued.push_back(id);
    }
    q.run();
}

TEST(EventQueue, LargeClosureFallsBackToBox)
{
    // Closures beyond the inline slot capacity take the boxed path;
    // behavior (ordering, cancellation) must be identical.
    EventQueue q;
    struct Big
    {
        double payload[16];
    };
    Big big{};
    big.payload[0] = 1.0;
    big.payload[15] = 2.0;
    static_assert(sizeof(Big) > EventQueue::kInlineCapacity);
    double seen = 0.0;
    q.schedule(5.0, [big, &seen] {
        seen = big.payload[0] + big.payload[15];
    });
    bool cancelled_fired = false;
    const auto id = q.schedule(
        6.0, [big, &cancelled_fired] { cancelled_fired = big.payload[0] > 0.0; });
    q.cancel(id);
    q.run();
    EXPECT_DOUBLE_EQ(seen, 3.0);
    EXPECT_FALSE(cancelled_fired);
}

TEST(EventQueue, HandlerSchedulingManyEventsKeepsClosureValid)
{
    // A handler that grows the slab (forcing slot storage to move)
    // must keep executing its own closure safely: the queue relocates
    // the closure out of the slab before invoking it.
    EventQueue q;
    std::vector<int> fired;
    q.schedule(1.0, [&] {
        for (int i = 0; i < 1000; ++i)
            q.schedule(2.0 + i, [&fired, i] { fired.push_back(i); });
        fired.push_back(-1);
    });
    q.run();
    ASSERT_EQ(fired.size(), 1001u);
    EXPECT_EQ(fired.front(), -1);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(fired[static_cast<std::size_t>(i) + 1], i);
}

TEST(EventQueue, IdenticalRunsFireInIdenticalOrder)
{
    // Determinism contract: the same schedule/cancel sequence produces
    // the same firing order, run after run.
    auto drive = [] {
        EventQueue q;
        std::vector<int> order;
        std::vector<EventQueue::EventId> ids;
        for (int i = 0; i < 500; ++i) {
            ids.push_back(
                q.schedule(static_cast<double>((i * 131) % 97),
                           [&order, i] { order.push_back(i); }));
        }
        for (int i = 0; i < 500; i += 7)
            q.cancel(ids[static_cast<std::size_t>(i)]);
        q.run();
        return order;
    };
    const auto first = drive();
    const auto second = drive();
    EXPECT_EQ(first, second);
    EXPECT_FALSE(first.empty());
}

// ---------------------------------------------------------------------
// Reference model. RefQueue keeps pending events in a list sorted by
// (timestamp, scheduling sequence) and fires them one at a time. The
// queue under test must fire any workload in exactly that order: its
// same-timestamp cohorts are a batching of this sequence, not a
// different one.

/** Sorted-list reference with the EventQueue calls the drives use. */
class RefQueue
{
  public:
    using EventId = std::uint64_t;

    TimeNs now() const { return now_; }

    EventId
    schedule(TimeNs when, std::function<void()> handler)
    {
        const Pending p{when, ++last_seq_, std::move(handler)};
        pending_.insert(std::upper_bound(pending_.begin(), pending_.end(),
                                         p, earlier),
                        std::move(p));
        return last_seq_;
    }

    EventId
    scheduleAfter(TimeNs delay, std::function<void()> handler)
    {
        return schedule(now_ + delay, std::move(handler));
    }

    void
    cancel(EventId id)
    {
        pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                      [id](const Pending& p) {
                                          return p.seq == id;
                                      }),
                       pending_.end());
    }

    std::size_t pendingCount() const { return pending_.size(); }

    std::size_t
    run()
    {
        std::size_t fired = 0;
        while (!pending_.empty())
            fired += fireFront();
        return fired;
    }

    std::size_t
    runUntil(TimeNs until)
    {
        std::size_t fired = 0;
        while (!pending_.empty() && pending_.front().when <= until)
            fired += fireFront();
        if (now_ < until)
            now_ = until;
        return fired;
    }

  private:
    struct Pending
    {
        TimeNs when;
        std::uint64_t seq;
        std::function<void()> handler;
    };

    static bool
    earlier(const Pending& a, const Pending& b)
    {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }

    std::size_t
    fireFront()
    {
        Pending p = std::move(pending_.front());
        pending_.erase(pending_.begin());
        now_ = p.when;
        p.handler();
        return 1;
    }

    TimeNs now_ = 0.0;
    std::uint64_t last_seq_ = 0;
    std::vector<Pending> pending_;
};

using Trace = std::vector<std::pair<TimeNs, int>>;

/** (time, marker) trace of @p drive run on a fresh @p Queue. */
template <typename Queue, typename Drive>
Trace
traceOf(Drive&& drive)
{
    Queue q;
    Trace trace;
    drive(q, trace);
    return trace;
}

/** Traces of @p drive on EventQueue and on the reference; must match. */
template <typename Drive>
Trace
checkAgainstReference(Drive&& drive)
{
    const Trace got = traceOf<EventQueue>(drive);
    const Trace want = traceOf<RefQueue>(drive);
    EXPECT_EQ(got, want);
    EXPECT_FALSE(got.empty());
    return got;
}

/** Deterministic 31-bit pseudo-random stream. */
struct Lcg
{
    std::uint64_t state;

    std::uint64_t
    operator()()
    {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 33;
    }
};

TEST(EventQueue, MatchesReferenceOnRandomizedScheduleCancel)
{
    checkAgainstReference([](auto& q, Trace& trace) {
        // Pseudo-random times with duplicates and wide spread, plus a
        // cancellation pattern.
        std::vector<std::uint64_t> ids;
        Lcg next{42};
        for (int i = 0; i < 2000; ++i) {
            const double when = static_cast<double>(next() % 100000) * 0.5;
            ids.push_back(q.schedule(
                when, [&trace, &q, i] { trace.emplace_back(q.now(), i); }));
        }
        for (int i = 0; i < 2000; i += 3)
            q.cancel(ids[static_cast<std::size_t>(i)]);
        q.run();
    });
}

TEST(EventQueue, MatchesReferenceWithHandlerRescheduling)
{
    checkAgainstReference([](auto& q, Trace& trace) {
        // Handlers schedule follow-ups at the same and later times,
        // inserting into the cohort being fired.
        std::function<void(int)> chain = [&](int depth) {
            trace.emplace_back(q.now(), depth);
            if (depth >= 40)
                return;
            q.scheduleAfter(0.0, [&chain, depth] { chain(depth + 1); });
            q.scheduleAfter(static_cast<double>(depth * 13 % 7) * 25.0,
                            [&chain, depth] { chain(depth + 10); });
        };
        q.schedule(1.0, [&chain] { chain(0); });
        q.schedule(1.0, [&chain] { chain(1); });
        q.run();
    });
}

TEST(EventQueue, MatchesReferenceUnderRandomCancelRescheduleChurn)
{
    for (std::uint64_t seed : {1u, 7u, 1234u}) {
        checkAgainstReference([seed](auto& q, Trace& trace) {
            // Each firing cancels a random pending event and schedules
            // up to two more: at its own timestamp (joining the cohort
            // being fired), on a coarse grid that makes ties common,
            // or far in the future.
            std::vector<std::uint64_t> ids;
            Lcg next{seed};
            int budget = 3000;
            std::function<void(int)> fire = [&](int marker) {
                trace.emplace_back(q.now(), marker);
                if (!ids.empty())
                    q.cancel(ids[next() % ids.size()]);
                const int spawn = static_cast<int>(next() % 3);
                for (int k = 0; k < spawn && budget > 0; ++k, --budget) {
                    const std::uint64_t r = next() % 10;
                    const double delay =
                        r < 3 ? 0.0
                              : r < 9 ? static_cast<double>(next() % 8) * 50.0
                                      : 1.0e9 + static_cast<double>(r);
                    const int m = budget;
                    ids.push_back(
                        q.scheduleAfter(delay, [&fire, m] { fire(m); }));
                }
            };
            for (int i = 0; i < 64; ++i) {
                const double when = static_cast<double>(next() % 16) * 50.0;
                ids.push_back(q.schedule(when, [&fire, i] { fire(-i); }));
            }
            q.run();
        });
    }
}

TEST(EventQueue, MatchesReferenceAcrossRunUntilSteps)
{
    // Bounded runs that stop short of the next event, then schedule
    // between the clock and that event: the pending set must not have
    // moved past now(). Timestamps span zero (both signs), dense
    // duplicates and powers-of-two boundaries; handlers add more.
    checkAgainstReference([](auto& q, Trace& trace) {
        Lcg next{11};
        int marker = 0;
        auto fire = [&trace, &q](int m) {
            return [&trace, &q, m] { trace.emplace_back(q.now(), m); };
        };
        q.schedule(-0.0, fire(marker++));
        q.schedule(0.0, fire(marker++));
        q.schedule(4096.0, fire(marker++));
        for (int step = 0; step < 300; ++step) {
            for (int k = 0; k < 4; ++k) {
                const std::uint64_t r = next();
                const double delay =
                    r % 5 == 0 ? 0.0
                               : static_cast<double>(r % 4096) *
                                     (r % 3 == 0 ? 0.25 : 8.0);
                const int m = marker++;
                q.scheduleAfter(delay, [&trace, &q, m, delay, fire] {
                    trace.emplace_back(q.now(), m);
                    if (m % 7 == 0)
                        q.scheduleAfter(delay / 2, fire(-m));
                });
            }
            q.runUntil(q.now() + static_cast<double>(next() % 1500));
        }
        q.run();
    });
}

TEST(EventQueue, SparseFarApartEvents)
{
    // Exponentially growing gaps between consecutive events.
    EventQueue q;
    std::vector<int> order;
    double when = 1.0;
    for (int i = 0; i < 40; ++i) {
        q.schedule(when, [&order, i] { order.push_back(i); });
        when *= 2.5;
    }
    EXPECT_EQ(q.run(), 40u);
    for (int i = 0; i < 40; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, DensePopulationKeepsOrder)
{
    EventQueue q;
    Trace trace;
    for (int i = 0; i < 5000; ++i) {
        q.schedule(static_cast<double>((i * 911) % 1277),
                   [&trace, &q, i] { trace.emplace_back(q.now(), i); });
    }
    EXPECT_EQ(q.run(), 5000u);
    for (std::size_t i = 1; i < trace.size(); ++i) {
        EXPECT_LE(trace[i - 1].first, trace[i].first);
        if (trace[i - 1].first == trace[i].first) {
            EXPECT_LT(trace[i - 1].second, trace[i].second);
        }
    }
}

TEST(EventQueue, EagerCancelShrinksPendingSetAtOnce)
{
    // Cancelling a far-future event removes it from the pending set
    // immediately: the count drops, the clock never visits its
    // timestamp, and the drained queue can rebase to zero.
    EventQueue q;
    std::vector<int> fired;
    q.schedule(10.0, [&] { fired.push_back(1); });
    const auto far = q.schedule(1.0e15, [&] { fired.push_back(-1); });
    q.schedule(20.0, [&] { fired.push_back(2); });
    EXPECT_EQ(q.pendingCount(), 3u);
    q.cancel(far);
    EXPECT_EQ(q.pendingCount(), 2u);
    q.cancel(far); // already gone: no-op
    EXPECT_EQ(q.pendingCount(), 2u);
    EXPECT_EQ(q.run(), 2u);
    EXPECT_EQ(fired, (std::vector<int>{1, 2}));
    EXPECT_DOUBLE_EQ(q.now(), 20.0);
    q.rebaseToZero();
    EXPECT_DOUBLE_EQ(q.now(), 0.0);

    // Cancelling every event of a large population, far ones first,
    // leaves nothing behind.
    std::vector<EventQueue::EventId> ids;
    for (int i = 0; i < 1000; ++i)
        ids.push_back(q.schedule(static_cast<double>(1000 - i) * 1.0e9,
                                 [] { FAIL() << "cancelled event fired"; }));
    for (std::size_t i = 0; i < ids.size(); ++i) {
        q.cancel(ids[i]);
        EXPECT_EQ(q.pendingCount(), ids.size() - i - 1);
    }
    EXPECT_TRUE(q.empty());
    q.rebaseToZero();
    EXPECT_EQ(q.run(), 0u);
    EXPECT_DOUBLE_EQ(q.now(), 0.0);
}

TEST(EventQueue, CohortMemberCanCancelLaterSameTimeEvent)
{
    // Same-timestamp events fire as one batched cohort; an earlier
    // member cancelling a later one must still suppress it.
    EventQueue q;
    std::vector<int> fired;
    EventQueue::EventId victim = 0;
    q.schedule(5.0, [&] {
        fired.push_back(1);
        q.cancel(victim);
    });
    victim = q.schedule(5.0, [&] { fired.push_back(2); });
    q.schedule(5.0, [&] { fired.push_back(3); });
    q.run();
    EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueue, CohortHandlerSchedulesSameTimeEvent)
{
    // An event scheduled *at* the cohort's timestamp from inside it
    // fires after the cohort (FIFO by scheduling order) but before
    // any later-time event.
    EventQueue q;
    std::vector<int> fired;
    q.schedule(5.0, [&] {
        fired.push_back(1);
        q.scheduleAfter(0.0, [&] { fired.push_back(9); });
    });
    q.schedule(5.0, [&] { fired.push_back(2); });
    q.schedule(6.0, [&] { fired.push_back(3); });
    q.run();
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 9, 3}));
}

TEST(EventQueue, RunUntilBoundaryAndReset)
{
    EventQueue q;
    std::vector<int> fired;
    q.schedule(10.0, [&] { fired.push_back(1); });
    q.schedule(20.0, [&] { fired.push_back(2); });
    q.schedule(30.0, [&] { fired.push_back(3); });
    EXPECT_EQ(q.runUntil(20.0), 2u);
    EXPECT_EQ(fired, (std::vector<int>{1, 2}));
    EXPECT_DOUBLE_EQ(q.now(), 20.0);
    EXPECT_EQ(q.pendingCount(), 1u);
    q.reset();
    EXPECT_TRUE(q.empty());
    EXPECT_DOUBLE_EQ(q.now(), 0.0);
    bool again = false;
    q.schedule(1.0, [&] { again = true; });
    q.run();
    EXPECT_TRUE(again);
    EXPECT_TRUE(fired.size() == 2);
}

TEST(EventQueue, ThrowingHandlerLeavesQueueResumable)
{
    // Sweep jobs propagate ConfigError through run(); the thrown
    // handler is consumed but the rest of its same-timestamp cohort
    // must stay pending so a caller can resume (or reset) the queue.
    EventQueue q;
    std::vector<int> fired;
    EventQueue::EventId victim = 0;
    q.schedule(5.0, [&] {
        fired.push_back(1);
        q.cancel(victim); // cancelled mid-cohort, must stay dead
        throw std::runtime_error("boom");
    });
    q.schedule(5.0, [&] { fired.push_back(2); });
    victim = q.schedule(5.0, [&] { fired.push_back(4); });
    q.schedule(7.0, [&] { fired.push_back(3); });
    EXPECT_THROW(q.run(), std::runtime_error);
    EXPECT_EQ(q.pendingCount(), 2u);
    q.run();
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelChurnStaysConsistent)
{
    // The SharedChannel pattern: every completion cancels and
    // reschedules a pending event. Eager removal must keep the store
    // and counters consistent across thousands of churn cycles.
    EventQueue q;
    int fired = 0;
    EventQueue::EventId pending = 0;
    std::function<void()> step = [&] {
        ++fired;
        if (fired >= 3000)
            return;
        q.cancel(pending); // cancels an already-fired id: no-op
        pending = q.scheduleAfter(
            static_cast<double>(fired % 17) * 7.0 + 1.0, step);
        // Churn: schedule and immediately cancel a decoy.
        const auto decoy =
            q.scheduleAfter(5000.0, [] { FAIL() << "decoy fired"; });
        q.cancel(decoy);
    };
    q.schedule(0.0, step);
    q.run();
    EXPECT_EQ(fired, 3000);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pendingCount(), 0u);
}

// ---------------------------------------------------------------------
// Cohort cancel/re-push: while a same-timestamp cohort fires, its
// members cancel pending events (in the cohort and later) and push
// replacements at the cohort's own timestamp and later ones — the
// cancel/re-push pattern of the shared channels.

TEST(EventQueue, CohortCancelsSameAndLaterTimestamp)
{
    // The first member cancels a later same-timestamp event and a
    // next-timestamp event mid-pop.
    EventQueue q;
    std::vector<int> fired;
    EventQueue::EventId same_time = 0, next_time = 0;
    q.schedule(100.0, [&] {
        fired.push_back(1);
        q.cancel(same_time);
        q.cancel(next_time);
    });
    same_time = q.schedule(100.0, [&] { fired.push_back(2); });
    q.schedule(100.0, [&] { fired.push_back(3); });
    next_time = q.schedule(200.0, [&] { fired.push_back(4); });
    q.schedule(200.0, [&] { fired.push_back(5); });
    q.run();
    EXPECT_EQ(fired, (std::vector<int>{1, 3, 5}));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CohortRePushMatchesReference)
{
    // Replacements at the cohort's own timestamp fire after the
    // current cohort (FIFO by scheduling order); the later
    // replacement fires at its own time.
    const Trace got = checkAgainstReference([](auto& q, Trace& trace) {
        std::uint64_t victim = 0;
        q.schedule(200.0, [&] {
            trace.emplace_back(q.now(), 1);
            q.cancel(victim);
            q.schedule(200.0, [&] { trace.emplace_back(q.now(), 10); });
            q.schedule(300.0, [&] { trace.emplace_back(q.now(), 11); });
        });
        victim = q.schedule(200.0, [&] { trace.emplace_back(q.now(), 2); });
        q.schedule(200.0, [&] { trace.emplace_back(q.now(), 3); });
        q.schedule(300.0, [&] { trace.emplace_back(q.now(), 4); });
        q.run();
    });
    const Trace expected{
        {200.0, 1}, {200.0, 3}, {200.0, 10}, {300.0, 4}, {300.0, 11}};
    EXPECT_EQ(got, expected);
}

TEST(EventQueue, CohortCancelRePushChurnMatchesReference)
{
    // Every cohort cancels one pending event and re-pushes onto its
    // own timestamp and two steps ahead.
    checkAgainstReference([](auto& q, Trace& trace) {
        std::vector<std::uint64_t> victims(64, 0);
        for (int e = 1; e <= 40; ++e) {
            const double at = 100.0 * e;
            q.schedule(at, [&q, &trace, &victims, e] {
                trace.emplace_back(q.now(), e);
                q.cancel(victims[static_cast<std::size_t>(e % 64)]);
                if (e % 3 == 0) {
                    // Same-timestamp re-push from inside the cohort.
                    q.scheduleAfter(0.0, [&q, &trace, e] {
                        trace.emplace_back(q.now(), 1000 + e);
                    });
                }
                victims[static_cast<std::size_t>((e + 2) % 64)] =
                    q.schedule(q.now() + 200.0, [&q, &trace, e] {
                        trace.emplace_back(q.now(), 2000 + e);
                    });
            });
            q.schedule(at, [&q, &trace, e] {
                trace.emplace_back(q.now(), 100 + e);
            });
        }
        q.run();
    });
}

TEST(EventQueue, RebaseToZeroRestartsTheClock)
{
    EventQueue q;
    Trace trace;
    q.schedule(150.0, [&] { trace.emplace_back(q.now(), 1); });
    const auto cancelled =
        q.schedule(900.0, [&] { trace.emplace_back(q.now(), -1); });
    q.cancel(cancelled);
    q.run();
    q.rebaseToZero();
    EXPECT_DOUBLE_EQ(q.now(), 0.0);
    // The rebased frame replays identically: same times, FIFO order
    // preserved, the cancelled pre-rebase event gone for good.
    q.schedule(150.0, [&] { trace.emplace_back(q.now(), 2); });
    q.schedule(150.0, [&] { trace.emplace_back(q.now(), 3); });
    q.run();
    const Trace expected{{150.0, 1}, {150.0, 2}, {150.0, 3}};
    EXPECT_EQ(trace, expected);
    EXPECT_TRUE(q.empty());
}

} // namespace
} // namespace themis::sim

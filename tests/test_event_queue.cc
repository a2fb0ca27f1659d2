/** @file Event queue kernel tests. */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/event_queue.hh"

using namespace pcsim;

TEST(EventQueue, StartsAtZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.numPending(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&]() { order.push_back(3); });
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(20, [&]() { order.push_back(2); });
    EXPECT_EQ(eq.run(), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, TiesBreakInScheduleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i]() { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(100, [&]() {
        eq.scheduleIn(50, [&]() { seen = eq.curTick(); });
    });
    eq.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> chain = [&]() {
        if (++count < 10)
            eq.scheduleIn(1, chain);
    };
    eq.scheduleIn(1, chain);
    EXPECT_EQ(eq.run(), 10u);
    EXPECT_EQ(eq.curTick(), 10u);
}

TEST(EventQueue, RunHonoursLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&]() { ++fired; });
    eq.schedule(20, [&]() { ++fired; });
    eq.schedule(30, [&]() { ++fired; });
    EXPECT_EQ(eq.run(20), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.numPending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, StopRequestHaltsExecution)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&]() {
        ++fired;
        eq.requestStop();
    });
    eq.schedule(20, [&]() { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.numPending(), 1u);
}

TEST(EventQueue, StepExecutesOneEvent)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&]() { ++fired; });
    eq.schedule(2, [&]() { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ResetClearsEverything)
{
    EventQueue eq;
    eq.schedule(10, []() {});
    eq.schedule(5, []() {});
    eq.run(7);
    eq.reset();
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, []() {});
    eq.run();
    EXPECT_DEATH(eq.schedule(50, []() {}), "past");
}

TEST(EventQueue, SameTickSchedulingAllowed)
{
    EventQueue eq;
    bool ran = false;
    eq.schedule(10, [&]() {
        eq.schedule(10, [&]() { ran = true; }); // now is legal
    });
    eq.run();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, StepConsumesPendingStopWithoutExecuting)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&]() { ++fired; });
    eq.requestStop();
    EXPECT_TRUE(eq.stopRequested());
    // The pending request is consumed: step() returns false once and
    // leaves the event in place.
    EXPECT_FALSE(eq.step());
    EXPECT_FALSE(eq.stopRequested());
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(eq.numPending(), 1u);
    // With the request consumed, stepping resumes normally.
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, RunClearsStaleStopRequest)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&]() { ++fired; });
    // A request left over from before run() must not suppress it.
    eq.requestStop();
    EXPECT_EQ(eq.run(), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(eq.stopRequested());
}

TEST(EventQueue, FarFutureEventsCrossTheHorizon)
{
    // Deltas far beyond the 4096-tick horizon exercise the overflow
    // heap and migration into the ring.
    EventQueue eq;
    std::vector<Tick> seen;
    for (Tick t : {Tick(1), Tick(5000), Tick(70000), Tick(4096),
                   Tick(1000000), Tick(4095)})
        eq.schedule(t, [&seen, &eq]() { seen.push_back(eq.curTick()); });
    eq.run();
    EXPECT_EQ(seen, (std::vector<Tick>{1, 4095, 4096, 5000, 70000,
                                       1000000}));
    EXPECT_GT(eq.stats().overflowEvents, 0u);
    EXPECT_GT(eq.stats().windowAdvances, 0u);
}

TEST(EventQueue, SameTickFifoSurvivesHorizonMigration)
{
    // Two events on one tick beyond the horizon, interleaved with a
    // nearer event whose callback appends a third to the same tick.
    // All three must still fire in schedule order after migrating
    // from the overflow heap into the calendar ring.
    EventQueue eq;
    const Tick far = 123456;
    std::vector<int> order;
    eq.schedule(far, [&]() { order.push_back(0); });
    eq.schedule(10, [&]() {
        eq.schedule(far, [&]() { order.push_back(2); });
    });
    eq.schedule(far, [&]() { order.push_back(1); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, HorizonRollsWithTheCurrentTick)
{
    // At tick 4000, an event 100 ticks ahead crosses the aligned 4096
    // boundary but lies inside the rolling horizon: it takes the ring.
    EventQueue eq;
    std::vector<Tick> seen;
    eq.schedule(4000, [&]() {
        eq.schedule(4100, [&]() { seen.push_back(eq.curTick()); });
        eq.schedule(4000 + 4095, [&]() { seen.push_back(eq.curTick()); });
    });
    eq.run();
    EXPECT_EQ(seen, (std::vector<Tick>{4100, 8095}));
    EXPECT_EQ(eq.stats().overflowEvents, 0u);
    EXPECT_EQ(eq.stats().windowAdvances, 0u);
}

TEST(EventQueue, OverflowEventMigratesAheadOfLaterSameTickEvents)
{
    // Scheduled at tick 10, tick 4106 is exactly a horizon ahead: it
    // waits in the overflow heap. The advance to tick 11 migrates it
    // before the tick-11 event runs, so the same-tick event that one
    // schedules lands behind it.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&]() {
        eq.schedule(4106, [&]() { order.push_back(0); });
    });
    eq.schedule(11, [&]() {
        EXPECT_EQ(eq.stats().windowAdvances, 1u);
        eq.schedule(4106, [&]() { order.push_back(1); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(eq.stats().overflowEvents, 1u);
    EXPECT_EQ(eq.stats().windowAdvances, 1u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, ResetAllowsFullReuse)
{
    EventQueue eq;
    for (int round = 0; round < 3; ++round) {
        int fired = 0;
        eq.schedule(10, [&]() { ++fired; });
        eq.schedule(99999, [&]() { ++fired; }); // parked in overflow
        eq.run(50);                             // leaves one pending
        EXPECT_EQ(fired, 1);
        EXPECT_EQ(eq.numPending(), 1u);
        eq.reset();
        EXPECT_EQ(eq.curTick(), 0u);
        EXPECT_TRUE(eq.empty());
        EXPECT_EQ(eq.stats().scheduled, 0u);
    }
}

TEST(EventQueue, ResetDestroysPendingCallables)
{
    // Undelivered closures own resources; reset() must release them.
    auto token = std::make_shared<int>(42);
    EventQueue eq;
    eq.schedule(10, [token]() {});
    eq.schedule(999999, [token]() {}); // overflow copy
    EXPECT_EQ(token.use_count(), 3);
    eq.reset();
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, OversizedCallablesFallBackToHeap)
{
    EventQueue eq;
    std::array<std::uint64_t, 32> big{}; // 256 B > inlineCallbackBytes
    big[0] = 7;
    big[31] = 9;
    std::uint64_t sum = 0;
    auto token = std::make_shared<int>(0);
    eq.schedule(1, [big, token, &sum]() { sum = big[0] + big[31]; });
    EXPECT_EQ(eq.stats().heapCallbacks, 1u);
    eq.run();
    EXPECT_EQ(sum, 16u);
    EXPECT_EQ(token.use_count(), 1); // heap copy destroyed after run
}

TEST(EventQueue, StatsCountersTrackActivity)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.schedule(Tick(10 + i), []() {});
    EXPECT_EQ(eq.stats().scheduled, 5u);
    EXPECT_EQ(eq.stats().inlineCallbacks, 5u);
    EXPECT_EQ(eq.stats().peakPending, 5u);
    eq.run();
    EXPECT_EQ(eq.stats().executed, 5u);
}

namespace
{

/** Reference model: (tick, order, seq)-ordered std::priority_queue,
 *  which for events scheduled in order is plain (tick, seq). */
struct RefEvent
{
    Tick when;
    EventOrder order;
    std::uint64_t seq;
    int id;
};

struct RefLater
{
    bool
    operator()(const RefEvent &a, const RefEvent &b) const
    {
        if (a.when != b.when)
            return a.when > b.when;
        if (a.order != b.order)
            return a.order > b.order;
        return a.seq > b.seq;
    }
};

/** Deterministic xorshift so the stress test needs no <random>. */
struct XorShift
{
    std::uint64_t s;
    std::uint64_t
    next()
    {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    }
};

} // namespace

TEST(EventQueue, RandomizedStressMatchesReferenceModel)
{
    // Drive the calendar queue and a textbook priority queue with the
    // same randomized schedule (deltas inside, at the edge of and
    // beyond the 4096-tick horizon, same-tick bursts, events
    // scheduling events, scheduleAsIf insertions at earlier events'
    // child positions) and demand identical execution order, with
    // every tick's list sorted by EventOrder throughout.
    for (std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
        EventQueue eq;
        std::priority_queue<RefEvent, std::vector<RefEvent>, RefLater>
            ref;
        std::uint64_t refSeq = 0;
        XorShift rng{seed};
        std::vector<int> gotOrder, refOrder;
        std::vector<EventOrder> pastOrders;
        int nextId = 0;
        bool sorted = true;

        std::function<void(int, int)> spawn = [&](int id, int depth) {
            gotOrder.push_back(id);
            sorted = sorted && eq.sameTickOrderHolds();
            if (depth > 0 && (rng.next() & 3) == 0) {
                // Occasionally reschedule a child relative to now,
                // mirrored into the reference model with the same
                // delta and a fresh id.
                const std::uint64_t r = rng.next();
                Tick delta;
                switch (r & 3) {
                case 0: delta = r % 4096; break;            // ring
                case 1: delta = 4090 + r % 11; break;       // the edge
                case 2: delta = r % (3 * 4096); break;      // a few out
                default: delta = 4096 + r % 100000; break;  // far
                }
                const int child = nextId++;
                const EventOrder order = eq.childOrder();
                pastOrders.push_back(order);
                ref.push(RefEvent{eq.curTick() + delta, order, refSeq++,
                                  child});
                eq.scheduleIn(delta,
                              [&, child, depth]() {
                                  spawn(child, depth - 1);
                              });
            }
            if (depth > 0 && (rng.next() & 7) == 0 &&
                !pastOrders.empty()) {
                // Or insert one as if an earlier event had scheduled
                // it, at a later tick (any such order is valid there).
                const std::uint64_t r = rng.next();
                Tick delta;
                switch (r & 3) {
                case 0: delta = 1 + r % 4096; break;
                case 1: delta = 4090 + r % 11; break;
                case 2: delta = 1 + r % (3 * 4096); break;
                default: delta = 1 + r % 100000; break;
                }
                const EventOrder order =
                    pastOrders[rng.next() % pastOrders.size()];
                const int child = nextId++;
                ref.push(RefEvent{eq.curTick() + delta, order, refSeq++,
                                  child});
                eq.scheduleAsIf(eq.curTick() + delta, order,
                                [&, child, depth]() {
                                    spawn(child, depth - 1);
                                });
            }
        };

        for (int i = 0; i < 500; ++i) {
            const std::uint64_t r = rng.next();
            Tick when;
            switch (r & 3) {
            case 0: when = r % 64; break;            // same-tick bursts
            case 1: when = r % 4096; break;          // in the ring
            case 2: when = 4096 + r % 262144; break; // past the horizon
            default: when = r % 10000000; break;     // far future
            }
            const int id = nextId++;
            ref.push(RefEvent{when, eq.childOrder(), refSeq++, id});
            eq.schedule(when, [&, id]() { spawn(id, 3); });
        }
        EXPECT_TRUE(eq.sameTickOrderHolds()) << "seed " << seed;

        eq.run();

        while (!ref.empty()) {
            refOrder.push_back(ref.top().id);
            ref.pop();
        }
        // Children pushed into `ref` during execution drain here too:
        // the reference pop order is (when, seq), matching run().
        ASSERT_EQ(gotOrder.size(), refOrder.size()) << "seed " << seed;
        EXPECT_EQ(gotOrder, refOrder) << "seed " << seed;
        EXPECT_TRUE(sorted) << "seed " << seed;
        EXPECT_TRUE(eq.empty());
    }
}

namespace
{

/**
 * Three events at ticks 10, 20 and 30 each schedule one event, r0..r2,
 * at @p target; a fourth at tick 40 then inserts @p extra events with
 * scheduleAsIf. The three schedulers were scheduled before the run
 * (key 1), so r0..r2 carry orders {21, 1}, {41, 1} and {61, 1}.
 * Returns the order in which everything at @p target ran.
 */
std::vector<std::string>
runAsIf(Tick target,
        std::vector<std::pair<std::string, EventOrder>> extra)
{
    EventQueue eq;
    std::vector<std::string> ran;
    static const char *const names[] = {"r0", "r1", "r2"};
    for (int i = 0; i < 3; ++i) {
        eq.schedule(Tick(10 + 10 * i), [&, i]() {
            eq.schedule(target, [&, i]() { ran.push_back(names[i]); });
        });
    }
    eq.schedule(40, [&]() {
        for (auto &[name, order] : extra) {
            eq.scheduleAsIf(target, order,
                            [&ran, name = name]() { ran.push_back(name); });
        }
    });
    eq.run();
    return ran;
}

} // namespace

TEST(EventQueue, ScheduleAsIfLandsByOrderInsideTheHorizon)
{
    using V = std::vector<std::string>;
    EXPECT_EQ(runAsIf(100, {{"a", {51, 0}}}), (V{"r0", "r1", "a", "r2"}));
    EXPECT_EQ(runAsIf(100, {{"a", {1, 0}}}), (V{"a", "r0", "r1", "r2"}));
    EXPECT_EQ(runAsIf(100, {{"a", {79, 0}}}), (V{"r0", "r1", "r2", "a"}));
    // The parent key breaks key ties.
    EXPECT_EQ(runAsIf(100, {{"a", {41, 0}}}), (V{"r0", "a", "r1", "r2"}));
    EXPECT_EQ(runAsIf(100, {{"a", {41, 2}}}), (V{"r0", "r1", "a", "r2"}));
    // Several insertions keep their relative order too.
    EXPECT_EQ(runAsIf(100, {{"b", {61, 0}}, {"a", {31, 0}}}),
              (V{"r0", "a", "r1", "b", "r2"}));
}

TEST(EventQueue, ScheduleAsIfLandsByOrderBeyondTheHorizon)
{
    // Tick 5000 lies more than a horizon past ticks 10-40: both the
    // real events and the insertion wait in the overflow heap and
    // migrate into the calendar together.
    using V = std::vector<std::string>;
    EXPECT_EQ(runAsIf(5000, {{"a", {51, 0}}}), (V{"r0", "r1", "a", "r2"}));
    EXPECT_EQ(runAsIf(5000, {{"a", {1, 0}}}), (V{"a", "r0", "r1", "r2"}));
    EXPECT_EQ(runAsIf(5000, {{"a", {41, 0}}}), (V{"r0", "a", "r1", "r2"}));
    EXPECT_EQ(runAsIf(5000, {{"b", {61, 0}}, {"a", {31, 0}}}),
              (V{"r0", "a", "r1", "b", "r2"}));
}

TEST(EventQueue, ScheduleAsIfFollowsEqualOrders)
{
    // An exact tie falls back to schedule order, and the insertion is
    // scheduled last: it runs right after the event it ties.
    using V = std::vector<std::string>;
    EXPECT_EQ(runAsIf(100, {{"a", {41, 1}}}), (V{"r0", "r1", "a", "r2"}));
    EXPECT_EQ(runAsIf(5000, {{"a", {41, 1}}}), (V{"r0", "r1", "a", "r2"}));
    EXPECT_EQ(runAsIf(100, {{"a", {61, 1}}, {"b", {61, 1}}}),
              (V{"r0", "r1", "r2", "a", "b"}));
}

TEST(EventQueue, ScheduleAsIfAtTheCurrentTick)
{
    // Same-tick insertion behind the executing event (scheduled at
    // tick 7) but ahead of its sibling scheduled at tick 9.
    EventQueue eq;
    std::vector<int> ran;
    eq.schedule(5, [&]() {
        eq.schedule(50, [&]() { ran.push_back(1); });
    });
    eq.schedule(7, [&]() {
        eq.schedule(50, [&]() {
            ran.push_back(2);
            eq.scheduleAsIf(50, {EventQueue::appendKey(8, false), 0},
                            [&]() { ran.push_back(3); });
        });
    });
    eq.schedule(9, [&]() {
        eq.schedule(50, [&]() { ran.push_back(4); });
    });
    eq.run();
    EXPECT_EQ(ran, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, ExecutingReportsTheScheduledOrder)
{
    EventQueue eq;
    EventOrder stamped, seen;
    eq.schedule(3, [&]() {
        stamped = eq.childOrder();
        eq.schedulePhase0(8, [&]() {
            // Phase-0 schedulers stamp even keys.
            EXPECT_EQ(eq.childOrder().key, EventQueue::appendKey(8, true));
            eq.schedule(9, [&]() { seen = eq.executing(); });
        });
    });
    eq.run();
    EXPECT_EQ(stamped.key, 7u);
    EXPECT_EQ(seen.key, EventQueue::appendKey(8, true));
    EXPECT_EQ(seen.parent, stamped.key);
}

TEST(EventQueueDeath, ScheduleAsIfRejectsExecutedPositions)
{
    EventQueue eq;
    eq.schedule(10, [&]() {
        eq.schedule(20, [&]() {
            // Order {1, 0} at tick 20 sorts before this very event.
            eq.scheduleAsIf(20, {1, 0}, []() {});
        });
    });
    EXPECT_DEATH(eq.run(), "scheduleAsIf");
}

TEST(EventQueueDeath, ScheduleAsIfRejectsFutureSchedulers)
{
    EventQueue eq;
    eq.schedule(10, [&]() {
        // No event at tick 30 has run yet to schedule this.
        eq.scheduleAsIf(40, {EventQueue::appendKey(30, false), 0},
                        []() {});
    });
    EXPECT_DEATH(eq.run(), "scheduleAsIf");
}

TEST(EventQueue, Phase0RunsBeforeNormalEventsAtTheSameTick)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(10, [&]() { order.push_back(2); });
    // Scheduled last, still drains first: phase 0 models "the tick
    // begins" work like the network's arrival drains.
    eq.schedulePhase0(10, [&]() { order.push_back(0); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, Phase0KeepsFifoOrderWithinThePhase)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedulePhase0(5, [&order, i]() { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, Phase0InterleavesAcrossTicks)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&]() { order.push_back(11); });
    eq.schedulePhase0(20, [&]() { order.push_back(20); });
    eq.schedulePhase0(10, [&]() { order.push_back(10); });
    eq.schedule(20, [&]() { order.push_back(21); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{10, 11, 20, 21}));
}

TEST(EventQueue, Phase0SchedulesFromEventsAndFarFuture)
{
    EventQueue eq;
    std::vector<Tick> ticks;
    // A normal event books a far-future phase-0 event (overflow path)
    // plus in-horizon ones; each drains at the head of its tick.
    eq.schedule(1, [&]() {
        eq.schedulePhase0(1000000, [&]() {
            ticks.push_back(eq.curTick());
        });
        eq.schedulePhase0(50, [&]() { ticks.push_back(eq.curTick()); });
    });
    eq.schedule(50, [&]() { ticks.push_back(0); });
    eq.run();
    ASSERT_EQ(ticks.size(), 3u);
    EXPECT_EQ(ticks[0], 50u);
    EXPECT_EQ(ticks[1], 0u);
    EXPECT_EQ(ticks[2], 1000000u);
}

TEST(EventQueue, PeekNextTickSeesBothPhases)
{
    EventQueue eq;
    Tick when = 0;
    EXPECT_FALSE(eq.peekNextTick(when));
    eq.schedule(30, []() {});
    ASSERT_TRUE(eq.peekNextTick(when));
    EXPECT_EQ(when, 30u);
    eq.schedulePhase0(10, []() {});
    ASSERT_TRUE(eq.peekNextTick(when));
    EXPECT_EQ(when, 10u);
    eq.run();
    EXPECT_FALSE(eq.peekNextTick(when));
}

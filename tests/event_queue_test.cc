/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/time.hh"

namespace nmapsim {
namespace {

TEST(EventQueueTest, StartsEmptyAtTimeZero)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueueTest, ProcessesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    EventFunctionWrapper a([&] { order.push_back(1); }, "a");
    EventFunctionWrapper b([&] { order.push_back(2); }, "b");
    EventFunctionWrapper c([&] { order.push_back(3); }, "c");
    eq.schedule(&c, 30);
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30);
}

TEST(EventQueueTest, FifoWithinSameTick)
{
    EventQueue eq;
    std::vector<int> order;
    EventFunctionWrapper a([&] { order.push_back(1); }, "a");
    EventFunctionWrapper b([&] { order.push_back(2); }, "b");
    eq.schedule(&a, 5);
    eq.schedule(&b, 5);
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, DescheduleCancelsEvent)
{
    EventQueue eq;
    int fired = 0;
    EventFunctionWrapper ev([&] { ++fired; }, "ev");
    eq.schedule(&ev, 10);
    EXPECT_TRUE(ev.scheduled());
    eq.deschedule(&ev);
    EXPECT_FALSE(ev.scheduled());
    eq.runAll();
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(eq.numPending(), 0u);
}

TEST(EventQueueTest, DescheduleIsIdempotent)
{
    EventQueue eq;
    EventFunctionWrapper ev([] {}, "ev");
    eq.deschedule(&ev); // never scheduled: no-op
    eq.schedule(&ev, 10);
    eq.deschedule(&ev);
    eq.deschedule(&ev);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueTest, RescheduleMovesEvent)
{
    EventQueue eq;
    Tick fired_at = -1;
    EventFunctionWrapper ev([&] { fired_at = eq.now(); }, "ev");
    eq.schedule(&ev, 10);
    eq.reschedule(&ev, 50);
    eq.runAll();
    EXPECT_EQ(fired_at, 50);
    EXPECT_EQ(eq.numProcessed(), 1u);
}

TEST(EventQueueTest, ReschedulingManyTimesFiresOnce)
{
    EventQueue eq;
    int fired = 0;
    EventFunctionWrapper ev([&] { ++fired; }, "ev");
    eq.schedule(&ev, 10);
    for (Tick t = 11; t < 200; ++t)
        eq.reschedule(&ev, t);
    eq.runAll();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, ScheduleInThePastThrows)
{
    EventQueue eq;
    EventFunctionWrapper a([] {}, "a");
    EventFunctionWrapper b([] {}, "b");
    eq.schedule(&a, 100);
    eq.runAll();
    EXPECT_EQ(eq.now(), 100);
    EXPECT_THROW(eq.schedule(&b, 50), std::logic_error);
}

TEST(EventQueueTest, DoubleScheduleThrows)
{
    EventQueue eq;
    EventFunctionWrapper ev([] {}, "ev");
    eq.schedule(&ev, 10);
    EXPECT_THROW(eq.schedule(&ev, 20), std::logic_error);
    eq.deschedule(&ev);
}

TEST(EventQueueTest, RunUntilStopsAtBoundary)
{
    EventQueue eq;
    std::vector<Tick> fired;
    EventFunctionWrapper a([&] { fired.push_back(eq.now()); }, "a");
    EventFunctionWrapper b([&] { fired.push_back(eq.now()); }, "b");
    eq.schedule(&a, 10);
    eq.schedule(&b, 100);
    eq.runUntil(50);
    EXPECT_EQ(fired, (std::vector<Tick>{10}));
    EXPECT_EQ(eq.now(), 50);
    eq.runUntil(200);
    EXPECT_EQ(fired, (std::vector<Tick>{10, 100}));
    EXPECT_EQ(eq.now(), 200);
}

TEST(EventQueueTest, RunUntilProcessesEventAtBoundary)
{
    EventQueue eq;
    int fired = 0;
    EventFunctionWrapper ev([&] { ++fired; }, "ev");
    eq.schedule(&ev, 50);
    eq.runUntil(50);
    EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, EventsCanScheduleEvents)
{
    EventQueue eq;
    int chain = 0;
    EventFunctionWrapper second([&] { chain = 2; }, "second");
    EventFunctionWrapper first(
        [&] {
            chain = 1;
            eq.scheduleIn(&second, 5);
        },
        "first");
    eq.schedule(&first, 10);
    eq.runAll();
    EXPECT_EQ(chain, 2);
    EXPECT_EQ(eq.now(), 15);
}

TEST(EventQueueTest, SelfReschedulingEvent)
{
    EventQueue eq;
    int count = 0;
    EventFunctionWrapper tick(
        [&] {
            if (++count < 5)
                eq.scheduleIn(&tick, 10);
        },
        "tick");
    // Note: capturing the wrapper by reference inside its own lambda.
    eq.schedule(&tick, 0);
    eq.runAll();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.now(), 40);
}

TEST(EventQueueTest, PendingCountTracksState)
{
    EventQueue eq;
    EventFunctionWrapper a([] {}, "a");
    EventFunctionWrapper b([] {}, "b");
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    EXPECT_EQ(eq.numPending(), 2u);
    eq.deschedule(&a);
    EXPECT_EQ(eq.numPending(), 1u);
    eq.runAll();
    EXPECT_EQ(eq.numPending(), 0u);
    EXPECT_EQ(eq.numProcessed(), 1u);
}

TEST(EventQueueTest, ManyEventsStressOrdering)
{
    EventQueue eq;
    std::vector<std::unique_ptr<EventFunctionWrapper>> events;
    Tick last = -1;
    bool monotone = true;
    for (int i = 0; i < 1000; ++i) {
        events.push_back(std::make_unique<EventFunctionWrapper>(
            [&] {
                if (eq.now() < last)
                    monotone = false;
                last = eq.now();
            },
            "stress"));
        // Pseudo-scrambled times.
        eq.schedule(events.back().get(), (i * 7919) % 1000);
    }
    eq.runAll();
    EXPECT_TRUE(monotone);
    EXPECT_EQ(eq.numProcessed(), 1000u);
}

} // namespace
} // namespace nmapsim

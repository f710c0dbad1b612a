/**
 * @file
 * Unit tests for the simulated time helpers.
 */

#include <gtest/gtest.h>

#include "sim/time.hh"

namespace nmapsim {
namespace {

TEST(TimeTest, UnitConstants)
{
    EXPECT_EQ(kMicrosecond, 1000 * kNanosecond);
    EXPECT_EQ(kMillisecond, 1000 * kMicrosecond);
    EXPECT_EQ(kSecond, 1000 * kMillisecond);
}

TEST(TimeTest, Conversions)
{
    EXPECT_EQ(microseconds(10), 10000);
    EXPECT_EQ(milliseconds(1.5), 1500000);
    EXPECT_EQ(seconds(2), 2 * kSecond);
    EXPECT_DOUBLE_EQ(toSeconds(kSecond), 1.0);
    EXPECT_DOUBLE_EQ(toMilliseconds(kMillisecond), 1.0);
    EXPECT_DOUBLE_EQ(toMicroseconds(kMicrosecond), 1.0);
}

TEST(TimeTest, RoundTripThroughSeconds)
{
    Tick t = 123456789;
    EXPECT_NEAR(seconds(toSeconds(t)), t, 1);
}

TEST(TimeTest, TicksForCyclesRoundsUp)
{
    // 1 cycle at 3 GHz is 1/3 ns; must round up to 1 tick so work
    // never finishes early.
    EXPECT_EQ(ticksForCycles(1.0, 3e9), 1);
    // Exact division does not round up.
    EXPECT_EQ(ticksForCycles(1000.0, 1e9), 1000);
    // Large job at 1.2 GHz.
    Tick t = ticksForCycles(1.2e9, 1.2e9);
    EXPECT_EQ(t, kSecond);
}

TEST(TimeTest, TicksForCyclesZero)
{
    EXPECT_EQ(ticksForCycles(0.0, 1e9), 0);
}

TEST(TimeTest, WorkDurationScalesInverselyWithFrequency)
{
    double cycles = 5e6;
    Tick fast = ticksForCycles(cycles, 3.2e9);
    Tick slow = ticksForCycles(cycles, 1.2e9);
    EXPECT_NEAR(static_cast<double>(slow) / static_cast<double>(fast),
                3.2 / 1.2, 0.001);
}

} // namespace
} // namespace nmapsim

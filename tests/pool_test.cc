/**
 * @file
 * Lifecycle tests for Ring, the allocation-free FIFO in sim/pool.hh:
 * FIFO order through wraparound and growth, writes through at(),
 * steady-state zero allocation via the capacity high-water mark. The randomized stress
 * section doubles as the ASan workout CI runs it under.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>

#include "sim/pool.hh"
#include "sim/rng.hh"

namespace nmapsim {
namespace {

TEST(RingTest, FifoOrderThroughWraparound)
{
    Ring<int> ring(4);
    const std::size_t cap = ring.capacity();
    // Stay below capacity while sliding the window far past it: the
    // indices wrap, the order must not.
    int next_in = 0;
    int next_out = 0;
    for (int round = 0; round < 100; ++round) {
        while (ring.size() < cap - 1)
            ring.push_back(next_in++);
        while (ring.size() > 1) {
            ASSERT_EQ(ring.front(), next_out++);
            ring.pop_front();
        }
    }
    EXPECT_EQ(ring.capacity(), cap); // never grew
}

TEST(RingTest, GrowthPreservesOrderAndContents)
{
    Ring<int> ring(2);
    // Misalign head first so growth has to unwrap a split window.
    ring.push_back(-1);
    ring.push_back(-2);
    ring.pop_front();
    ring.pop_front();

    for (int i = 0; i < 1000; ++i)
        ring.push_back(i);
    EXPECT_EQ(ring.size(), 1000u);
    EXPECT_GE(ring.capacity(), 1024u);
    for (std::size_t i = 0; i < ring.size(); ++i)
        ASSERT_EQ(ring.at(i), static_cast<int>(i));
    for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(ring.front(), i);
        ring.pop_front();
    }
    EXPECT_TRUE(ring.empty());
}

TEST(RingTest, AtWritesThroughWraparoundAndGrowth)
{
    Ring<int> ring(4);
    // Slide the head so the next four elements wrap the buffer's end.
    for (int i = 0; i < 3; ++i)
        ring.push_back(-1);
    for (int i = 0; i < 3; ++i)
        ring.pop_front();
    for (int i = 0; i < 4; ++i)
        ring.push_back(i);
    ASSERT_EQ(ring.capacity(), 4u);
    for (std::size_t i = 0; i < ring.size(); ++i)
        ring.at(i) += 10;
    EXPECT_EQ(ring.front(), 10);

    // Growth unwraps the window; writes before it must survive, and
    // writes after it must land on the same logical elements.
    ring.push_back(14);
    ASSERT_GT(ring.capacity(), 4u);
    for (std::size_t i = 0; i < ring.size(); ++i)
        ASSERT_EQ(ring.at(i), 10 + static_cast<int>(i));
    for (std::size_t i = 0; i < ring.size(); ++i)
        ring.at(i) *= 2;
    for (int i = 0; i < 5; ++i) {
        ASSERT_EQ(ring.front(), 2 * (10 + i));
        ring.pop_front();
    }
    EXPECT_TRUE(ring.empty());
}

TEST(RingTest, CapacityIsPowerOfTwo)
{
    for (std::size_t req : {0u, 1u, 2u, 3u, 5u, 16u, 17u, 100u}) {
        Ring<int> ring(req);
        const std::size_t cap = ring.capacity();
        EXPECT_EQ(cap & (cap - 1), 0u) << "requested " << req;
        EXPECT_GE(cap, req);
    }
}

TEST(RingTest, ClearResetsWithoutShrinking)
{
    Ring<int> ring(4);
    for (int i = 0; i < 100; ++i)
        ring.push_back(i);
    const std::size_t cap = ring.capacity();
    ring.clear();
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.capacity(), cap);
    ring.push_back(7);
    EXPECT_EQ(ring.front(), 7);
}

/** Differential stress: Ring must behave exactly like std::deque. */
TEST(RingTest, MatchesDequeUnderRandomOps)
{
    Ring<std::uint64_t> ring;
    std::deque<std::uint64_t> ref;
    Rng rng(11);
    std::uint64_t next = 0;

    for (int op = 0; op < 50000; ++op) {
        if (ref.empty() || rng.bernoulli(0.52)) {
            ring.push_back(next);
            ref.push_back(next);
            ++next;
        } else {
            ASSERT_EQ(ring.front(), ref.front());
            ring.pop_front();
            ref.pop_front();
        }
        ASSERT_EQ(ring.size(), ref.size());
        ASSERT_EQ(ring.empty(), ref.empty());
        if (!ref.empty() && op % 97 == 0) {
            for (std::size_t i = 0; i < ref.size(); ++i)
                ASSERT_EQ(ring.at(i), ref[i]);
        }
    }
}

} // namespace
} // namespace nmapsim

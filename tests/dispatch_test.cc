/**
 * @file
 * Unit tests for the cluster dispatch registry and its built-in
 * policies (cluster/dispatch.hh, cluster/dispatch_policies.cc).
 *
 * Policies are exercised standalone — a DispatchContext with stubbed
 * outstanding-request feedback stands in for the switch — so each
 * steering property (affinity, weighted shares, argmin, packing,
 * remap stability) is checked without running a simulation.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/dispatch.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace nmapsim {
namespace {

Packet
flowPacket(std::uint32_t flow)
{
    Packet p;
    p.flowHash = flow;
    p.sizeBytes = 64;
    return p;
}

DispatchContext
context(int hosts, std::vector<double> weights = {})
{
    DispatchContext ctx;
    ctx.numHosts = hosts;
    ctx.weights = std::move(weights);
    ctx.outstanding = [](int) { return std::uint64_t{0}; };
    return ctx;
}

TEST(DispatchTest, RegistryHasAllBuiltins)
{
    const DispatchRegistry &reg = DispatchRegistry::instance();
    for (const char *name :
         {"flow-hash", "consistent-hash", "round-robin",
          "least-outstanding", "power-pack"})
        EXPECT_TRUE(reg.has(name)) << name;
    EXPECT_GE(reg.names().size(), 5u);
    EXPECT_FALSE(reg.help("power-pack").empty());
}

TEST(DispatchTest, ResolvesCaseInsensitively)
{
    const DispatchRegistry &reg = DispatchRegistry::instance();
    EXPECT_TRUE(reg.has("Flow-Hash"));
    EXPECT_TRUE(reg.has("ROUND-ROBIN"));
    EXPECT_FALSE(reg.has("no-such-policy"));
}

TEST(DispatchTest, UnknownNameFatals)
{
    DispatchContext ctx = context(2);
    EXPECT_THROW(DispatchRegistry::instance().make("no-such", ctx),
                 FatalError);
}

TEST(DispatchTest, RejectsBadWeights)
{
    DispatchContext zero = context(2, {1.0, 0.0});
    EXPECT_THROW(
        DispatchRegistry::instance().make("flow-hash", zero),
        FatalError);
    DispatchContext mismatch = context(3, {1.0, 1.0});
    EXPECT_THROW(
        DispatchRegistry::instance().make("round-robin", mismatch),
        FatalError);
}

TEST(DispatchTest, FlowHashIsDeterministicAffinity)
{
    DispatchContext ctx = context(4);
    auto a = DispatchRegistry::instance().make("flow-hash", ctx);
    auto b = DispatchRegistry::instance().make("flow-hash", ctx);
    for (std::uint32_t flow = 0; flow < 256; ++flow) {
        int host = a->pickHost(flowPacket(flow));
        ASSERT_GE(host, 0);
        ASSERT_LT(host, 4);
        // Same flow, same host — on repeat picks and on a fresh
        // instance (no hidden state).
        EXPECT_EQ(a->pickHost(flowPacket(flow)), host);
        EXPECT_EQ(b->pickHost(flowPacket(flow)), host);
    }
}

TEST(DispatchTest, FlowHashHonoursWeights)
{
    DispatchContext ctx = context(2, {3.0, 1.0});
    auto policy = DispatchRegistry::instance().make("flow-hash", ctx);
    int host0 = 0;
    const int flows = 20000;
    for (std::uint32_t flow = 0; flow < flows; ++flow)
        if (policy->pickHost(flowPacket(flow)) == 0)
            ++host0;
    double share = static_cast<double>(host0) / flows;
    EXPECT_NEAR(share, 0.75, 0.02);
}

TEST(DispatchTest, RoundRobinSpreadsWeightedEvenly)
{
    DispatchContext ctx = context(2, {2.0, 1.0});
    auto policy =
        DispatchRegistry::instance().make("round-robin", ctx);
    std::array<int, 2> served = {0, 0};
    for (int i = 0; i < 300; ++i)
        ++served[static_cast<std::size_t>(
            policy->pickHost(flowPacket(0)))];
    EXPECT_EQ(served[0], 200);
    EXPECT_EQ(served[1], 100);
}

TEST(DispatchTest, RoundRobinNeverStarvesUnweighted)
{
    DispatchContext ctx = context(3);
    auto policy =
        DispatchRegistry::instance().make("round-robin", ctx);
    std::array<int, 3> served = {0, 0, 0};
    for (int i = 0; i < 9; ++i)
        ++served[static_cast<std::size_t>(
            policy->pickHost(flowPacket(0)))];
    EXPECT_EQ(served[0], 3);
    EXPECT_EQ(served[1], 3);
    EXPECT_EQ(served[2], 3);
}

TEST(DispatchTest, LeastOutstandingPicksWeightedArgmin)
{
    std::array<std::uint64_t, 3> outstanding = {4, 1, 9};
    DispatchContext ctx = context(3);
    ctx.outstanding = [&outstanding](int host) {
        return outstanding[static_cast<std::size_t>(host)];
    };
    auto policy =
        DispatchRegistry::instance().make("least-outstanding", ctx);
    EXPECT_EQ(policy->pickHost(flowPacket(0)), 1);
    outstanding = {0, 5, 5};
    EXPECT_EQ(policy->pickHost(flowPacket(0)), 0);
    // Weight normalisation: host 2 with weight 4 and 8 in flight is
    // "lighter" (2 per unit) than host 0 with weight 1 and 3 in
    // flight.
    DispatchContext wctx = context(3, {1.0, 1.0, 4.0});
    wctx.outstanding = [&outstanding](int host) {
        return outstanding[static_cast<std::size_t>(host)];
    };
    auto weighted =
        DispatchRegistry::instance().make("least-outstanding", wctx);
    outstanding = {3, 4, 8};
    EXPECT_EQ(weighted->pickHost(flowPacket(0)), 2);
}

TEST(DispatchTest, LeastOutstandingRequiresFeedback)
{
    DispatchContext ctx = context(2);
    ctx.outstanding = nullptr;
    EXPECT_THROW(
        DispatchRegistry::instance().make("least-outstanding", ctx),
        FatalError);
    EXPECT_THROW(
        DispatchRegistry::instance().make("power-pack", ctx),
        FatalError);
}

TEST(DispatchTest, PowerPackFillsInIdOrderUpToTheKnee)
{
    std::array<std::uint64_t, 3> outstanding = {0, 0, 0};
    DispatchContext ctx = context(3);
    ctx.params.set("dispatch.pack_limit", 4.0);
    ctx.outstanding = [&outstanding](int host) {
        return outstanding[static_cast<std::size_t>(host)];
    };
    auto policy =
        DispatchRegistry::instance().make("power-pack", ctx);
    // Below the knee everything lands on host 0.
    EXPECT_EQ(policy->pickHost(flowPacket(0)), 0);
    outstanding = {3, 0, 0};
    EXPECT_EQ(policy->pickHost(flowPacket(0)), 0);
    // Host 0 at the knee spills to host 1; host 1 full spills to 2.
    outstanding = {4, 0, 0};
    EXPECT_EQ(policy->pickHost(flowPacket(0)), 1);
    outstanding = {4, 4, 1};
    EXPECT_EQ(policy->pickHost(flowPacket(0)), 2);
    // Everyone at/over the knee: degrade to least-outstanding.
    outstanding = {6, 4, 5};
    EXPECT_EQ(policy->pickHost(flowPacket(0)), 1);
}

TEST(DispatchTest, PowerPackRejectsNonPositiveKnee)
{
    DispatchContext ctx = context(2);
    ctx.params.set("dispatch.pack_limit", 0.0);
    EXPECT_THROW(
        DispatchRegistry::instance().make("power-pack", ctx),
        FatalError);
}

TEST(DispatchTest, QueuePoliciesAskTheHealthFeedAtMostTwicePerHost)
{
    // 16 hosts: all healthy, all but the last ejected, all ejected (the
    // guard then passes everyone). Deciding "is anyone healthy" once
    // per pick bounds a pick at 2N feed calls.
    constexpr int kHosts = 16;
    int healthy_from = 0; // hosts [healthy_from, kHosts) are healthy
    std::size_t calls = 0;
    for (const char *name :
         {"round-robin", "least-outstanding", "power-pack"}) {
        DispatchContext ctx = context(kHosts);
        ctx.healthy = [&healthy_from, &calls](int host) {
            ++calls;
            return host >= healthy_from;
        };
        auto policy = DispatchRegistry::instance().make(name, ctx);
        for (int from : {0, kHosts - 1, kHosts}) {
            SCOPED_TRACE(std::string(name) + ", healthy from host " +
                         std::to_string(from));
            healthy_from = from;
            for (int pick = 0; pick < 4; ++pick) {
                calls = 0;
                const int host = policy->pickHost(flowPacket(0));
                EXPECT_LE(calls, std::size_t{2} * kHosts);
                // Only a healthy host may win while there is one.
                EXPECT_GE(host, from < kHosts ? from : 0);
                EXPECT_LT(host, kHosts);
            }
        }
    }
}

TEST(DispatchTest, LeastOutstandingIsPowerPackWithAKneeBelowEveryLoad)
{
    // With the knee at or below the smallest nonzero weighted load
    // (one request on the heaviest host, 1 / 4), only idle hosts sit
    // under it, and the first idle host is also the first argmin: the
    // two policies must agree on every pick, with or without a health
    // feed.
    constexpr int kHosts = 6;
    std::array<std::uint64_t, kHosts> outstanding{};
    std::array<bool, kHosts> healthy{};
    Rng rng(2024);
    for (const bool with_feed : {false, true}) {
        SCOPED_TRACE(with_feed ? "health feed" : "no health feed");
        DispatchContext ctx =
            context(kHosts, {1.0, 2.0, 0.5, 4.0, 1.0, 2.0});
        ctx.outstanding = [&outstanding](int host) {
            return outstanding[static_cast<std::size_t>(host)];
        };
        if (with_feed) {
            ctx.healthy = [&healthy](int host) {
                return healthy[static_cast<std::size_t>(host)];
            };
        }
        auto least =
            DispatchRegistry::instance().make("least-outstanding", ctx);
        ctx.params.set("dispatch.pack_limit", 0.25);
        auto pack = DispatchRegistry::instance().make("power-pack", ctx);
        for (int step = 0; step < 1000; ++step) {
            for (int h = 0; h < kHosts; ++h) {
                const auto i = static_cast<std::size_t>(h);
                outstanding[i] =
                    static_cast<std::uint64_t>(rng.uniformInt(0, 6));
                healthy[i] = rng.uniformInt(0, 3) != 0;
            }
            ASSERT_EQ(least->pickHost(flowPacket(0)),
                      pack->pickHost(flowPacket(0)))
                << "step " << step;
        }
    }
}

TEST(DispatchTest, ConsistentHashCoversAllHosts)
{
    DispatchContext ctx = context(4);
    auto policy =
        DispatchRegistry::instance().make("consistent-hash", ctx);
    std::map<int, int> served;
    const int flows = 4000;
    for (std::uint32_t flow = 0; flow < flows; ++flow) {
        int host = policy->pickHost(flowPacket(flow));
        ASSERT_GE(host, 0);
        ASSERT_LT(host, 4);
        ++served[host];
    }
    // Vnode smoothing: every host owns a non-trivial share.
    for (int host = 0; host < 4; ++host)
        EXPECT_GT(served[host], flows / 20) << "host " << host;
}

TEST(DispatchTest, ConsistentHashIsStableUnderHostRemoval)
{
    // The (N-1)-host ring is exactly the N-host ring minus the removed
    // host's vnodes, so flows not on the removed host must not move.
    auto four = DispatchRegistry::instance().make("consistent-hash",
                                                  context(4));
    auto three = DispatchRegistry::instance().make("consistent-hash",
                                                   context(3));
    int moved = 0;
    int stayed_pool = 0;
    for (std::uint32_t flow = 0; flow < 2000; ++flow) {
        int before = four->pickHost(flowPacket(flow));
        if (before == 3)
            continue; // redistributed by design
        ++stayed_pool;
        if (three->pickHost(flowPacket(flow)) != before)
            ++moved;
    }
    EXPECT_GT(stayed_pool, 0);
    EXPECT_EQ(moved, 0);
}

TEST(DispatchTest, ConsistentHashRejectsBadVnodes)
{
    DispatchContext ctx = context(2);
    ctx.params.set("dispatch.vnodes", 0);
    EXPECT_THROW(
        DispatchRegistry::instance().make("consistent-hash", ctx),
        FatalError);
}

} // namespace
} // namespace nmapsim

/**
 * @file
 * Unit tests for the link model (serialisation + propagation).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/wire.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace nmapsim {
namespace {

Packet
makePacket(std::uint64_t id, std::uint32_t bytes)
{
    Packet p;
    p.requestId = id;
    p.sizeBytes = bytes;
    return p;
}

TEST(WireTest, DeliversAfterSerializationAndPropagation)
{
    EventQueue eq;
    Wire wire(eq, 10e9, microseconds(5));
    std::vector<Tick> arrivals;
    wire.setSink([&](const Packet &) { arrivals.push_back(eq.now()); });

    wire.send(makePacket(1, 1250)); // 1250 B at 10 Gb/s = 1 us
    eq.runAll();
    ASSERT_EQ(arrivals.size(), 1u);
    EXPECT_EQ(arrivals[0], microseconds(6));
}

TEST(WireTest, SerializesBackToBackAtLineRate)
{
    EventQueue eq;
    Wire wire(eq, 10e9, 0);
    std::vector<Tick> arrivals;
    wire.setSink([&](const Packet &) { arrivals.push_back(eq.now()); });

    // A train of 4 packets sent at the same instant leaves the wire
    // spaced by the serialisation time.
    for (int i = 0; i < 4; ++i)
        wire.send(makePacket(static_cast<std::uint64_t>(i), 1250));
    eq.runAll();
    ASSERT_EQ(arrivals.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(arrivals[static_cast<std::size_t>(i)],
                  microseconds(i + 1));
}

TEST(WireTest, PreservesFifoOrder)
{
    EventQueue eq;
    Wire wire(eq, 10e9, microseconds(2));
    std::vector<std::uint64_t> ids;
    wire.setSink([&](const Packet &p) { ids.push_back(p.requestId); });
    for (std::uint64_t i = 0; i < 10; ++i)
        wire.send(makePacket(i, 100));
    eq.runAll();
    ASSERT_EQ(ids.size(), 10u);
    for (std::uint64_t i = 0; i < 10; ++i)
        EXPECT_EQ(ids[i], i);
}

TEST(WireTest, IdleGapResetsPipeline)
{
    EventQueue eq;
    Wire wire(eq, 10e9, 0);
    std::vector<Tick> arrivals;
    wire.setSink([&](const Packet &) { arrivals.push_back(eq.now()); });
    wire.send(makePacket(1, 1250));
    eq.runAll();
    // Second send long after the first: full serialisation again,
    // starting from the send instant.
    Tick gap_start = eq.now() + milliseconds(1);
    EventFunctionWrapper sender(
        [&] { wire.send(makePacket(2, 1250)); }, "sender");
    eq.schedule(&sender, gap_start);
    eq.runAll();
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_EQ(arrivals[1], gap_start + microseconds(1));
}

TEST(WireTest, CountsDeliveredPackets)
{
    EventQueue eq;
    Wire wire(eq, 10e9, 0);
    wire.setSink([](const Packet &) {});
    for (int i = 0; i < 7; ++i)
        wire.send(makePacket(static_cast<std::uint64_t>(i), 64));
    eq.runAll();
    EXPECT_EQ(wire.packetsDelivered(), 7u);
}

TEST(WireTest, AccountsDeliveredBytes)
{
    EventQueue eq;
    Wire wire(eq, 10e9, 0);
    wire.setSink([](const Packet &) {});
    wire.send(makePacket(1, 100));
    wire.send(makePacket(2, 1250));
    eq.runAll();
    EXPECT_EQ(wire.packetsDelivered(), 2u);
    EXPECT_EQ(wire.bytesDelivered(), 1350u);
    EXPECT_EQ(wire.packetsDropped(), 0u);
    EXPECT_EQ(wire.bytesDropped(), 0u);
}

TEST(WireTest, QueueLimitDropsOverflowAndAccountsIt)
{
    EventQueue eq;
    Wire wire(eq, 10e9, microseconds(5));
    wire.setQueueLimit(3);
    wire.setSink([](const Packet &) {});
    // Five sends at the same instant against a 3-deep queue: the last
    // two are dropped (counted, never delivered).
    for (int i = 0; i < 5; ++i)
        wire.send(makePacket(static_cast<std::uint64_t>(i), 200));
    eq.runAll();
    EXPECT_EQ(wire.packetsDelivered(), 3u);
    EXPECT_EQ(wire.bytesDelivered(), 600u);
    EXPECT_EQ(wire.packetsDropped(), 2u);
    EXPECT_EQ(wire.bytesDropped(), 400u);
    // Once the queue drained, later traffic flows again.
    wire.send(makePacket(9, 200));
    eq.runAll();
    EXPECT_EQ(wire.packetsDelivered(), 4u);
    EXPECT_EQ(wire.packetsDropped(), 2u);
}

TEST(WireTest, SendBeforeSinkIsAFatalNamingTheWire)
{
    EventQueue eq;
    Wire wire(eq, 10e9, 0);
    wire.setLabel("switch->host3");
    // A dangling wire is a rig misconfiguration (config error), not a
    // model invariant violation: FatalError, naming the wire.
    try {
        wire.send(makePacket(1, 64));
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("switch->host3"),
                  std::string::npos)
            << err.what();
    }
}

TEST(WireTest, DownedLinkCountsSendsAsDropsNotErrors)
{
    EventQueue eq;
    Wire wire(eq, 10e9, 0);
    std::uint64_t delivered = 0;
    wire.setSink([&](const Packet &) { ++delivered; });
    wire.setLinkDown(true);
    wire.send(makePacket(1, 200));
    wire.send(makePacket(2, 200));
    eq.runAll();
    EXPECT_EQ(delivered, 0u);
    EXPECT_EQ(wire.packetsLinkDownLost(), 2u);
    EXPECT_EQ(wire.packetsDropped(), 0u); // distinct from queue drops

    wire.setLinkDown(false);
    wire.send(makePacket(3, 200));
    eq.runAll();
    EXPECT_EQ(delivered, 1u);
}

TEST(WireTest, DowningFlushesInFlightPackets)
{
    EventQueue eq;
    Wire wire(eq, 10e9, microseconds(5));
    std::uint64_t delivered = 0;
    wire.setSink([&](const Packet &) { ++delivered; });
    wire.send(makePacket(1, 1250));
    wire.send(makePacket(2, 1250));
    // Cut the link while both packets are still on it.
    EventFunctionWrapper cut([&] { wire.setLinkDown(true); }, "cut");
    eq.schedule(&cut, microseconds(1));
    eq.runAll();
    EXPECT_EQ(delivered, 0u);
    EXPECT_EQ(wire.packetsLinkDownLost(), 2u);
    EXPECT_EQ(wire.packetsInFlight(), 0u);
}

TEST(WireTest, FaultFilterDropsAndCorrupts)
{
    EventQueue eq;
    Wire wire(eq, 10e9, 0);
    std::uint64_t delivered = 0;
    wire.setSink([&](const Packet &) { ++delivered; });
    // Drop odd ids at ingress, corrupt id 2, deliver the rest.
    wire.setFaultFilter([](const Packet &p) {
        if (p.requestId % 2 == 1)
            return WireFault::kDrop;
        if (p.requestId == 2)
            return WireFault::kCorrupt;
        return WireFault::kNone;
    });
    for (std::uint64_t id = 1; id <= 4; ++id)
        wire.send(makePacket(id, 200));
    eq.runAll();
    EXPECT_EQ(delivered, 1u); // only id 4
    EXPECT_EQ(wire.packetsFaultLost(), 2u);    // ids 1, 3
    EXPECT_EQ(wire.packetsCorrupted(), 1u);    // id 2
    EXPECT_EQ(wire.packetsDelivered(), 1u);
    // Removing the filter restores clean delivery.
    wire.setFaultFilter(nullptr);
    wire.send(makePacket(5, 200));
    eq.runAll();
    EXPECT_EQ(delivered, 2u);
}

TEST(WireTest, SendReportsAcceptanceAndCountsEachLossOnItsOwn)
{
    EventQueue eq;
    Wire wire(eq, 10e9, microseconds(5));
    std::uint64_t delivered = 0;
    wire.setSink([&](const Packet &) { ++delivered; });
    wire.setQueueLimit(2);
    // Drop id 3 at ingress and corrupt id 2; the rest pass the filter.
    wire.setFaultFilter([](const Packet &p) {
        if (p.requestId == 3)
            return WireFault::kDrop;
        if (p.requestId == 2)
            return WireFault::kCorrupt;
        return WireFault::kNone;
    });
    struct Counts
    {
        std::uint64_t dropped, faultLost, linkDownLost;
        bool operator==(const Counts &) const = default;
    };
    const auto counts = [&wire] {
        return Counts{wire.packetsDropped(), wire.packetsFaultLost(),
                      wire.packetsLinkDownLost()};
    };

    EXPECT_TRUE(wire.send(makePacket(1, 200))); // delivered
    EXPECT_TRUE(wire.send(makePacket(2, 200))); // corrupt: takes the line
    EXPECT_EQ(counts(), (Counts{0, 0, 0}));
    EXPECT_FALSE(wire.send(makePacket(3, 200))); // fault-filter loss
    EXPECT_EQ(counts(), (Counts{0, 1, 0}));
    EXPECT_FALSE(wire.send(makePacket(4, 200))); // queue holds 1 and 2
    EXPECT_EQ(counts(), (Counts{1, 1, 0}));
    eq.runAll();
    EXPECT_EQ(delivered, 1u);
    EXPECT_EQ(wire.packetsCorrupted(), 1u);

    wire.setLinkDown(true);
    EXPECT_FALSE(wire.send(makePacket(5, 200))); // downed link
    EXPECT_EQ(counts(), (Counts{1, 1, 1}));
    wire.setLinkDown(false);
    EXPECT_TRUE(wire.send(makePacket(6, 200)));
    eq.runAll();
    EXPECT_EQ(delivered, 2u);
    EXPECT_EQ(counts(), (Counts{1, 1, 1}));
}

TEST(WireTest, TinyPacketStillTakesTime)
{
    EventQueue eq;
    Wire wire(eq, 10e9, 0);
    Tick arrival = -1;
    wire.setSink([&](const Packet &) { arrival = eq.now(); });
    wire.send(makePacket(1, 1));
    eq.runAll();
    EXPECT_GE(arrival, 1);
}

} // namespace
} // namespace nmapsim

/**
 * @file
 * Unit tests for the link model (serialisation + propagation).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
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

/** (request id, arrival tick) as a receiver saw them. */
using Arrivals = std::vector<std::pair<std::uint64_t, Tick>>;

TEST(WireTest, RecordingSinkSeesWhatAnEventSinkSees)
{
    // Two identical wires fed identical traffic: trains that serialise
    // back to back, gaps, and corrupted frames. The recording sink must
    // see the event sink's (packet, arrival) sequence, late.
    EventQueue eq;
    Wire events(eq, 10e9, microseconds(5));
    Wire recording(eq, 10e9, microseconds(5));
    Arrivals seen_by_events;
    Arrivals seen_by_recording;
    events.setSink([&](const Packet &p) {
        seen_by_events.emplace_back(p.requestId, eq.now());
    });
    recording.setRecordingSink([&](const Packet &p, Tick arrival) {
        EXPECT_LE(arrival, eq.now());
        seen_by_recording.emplace_back(p.requestId, arrival);
    });
    const auto corruptEveryFifth = [](const Packet &p) {
        return p.requestId % 5 == 3 ? WireFault::kCorrupt
                                    : WireFault::kNone;
    };
    events.setFaultFilter(corruptEveryFifth);
    recording.setFaultFilter(corruptEveryFifth);

    std::uint64_t next_id = 0;
    std::vector<std::unique_ptr<EventFunctionWrapper>> senders;
    const auto trainAt = [&](Tick at, int packets) {
        senders.push_back(std::make_unique<EventFunctionWrapper>(
            [&, packets] {
                for (int i = 0; i < packets; ++i) {
                    const Packet p = makePacket(next_id++, 1250);
                    events.send(p);
                    recording.send(p);
                }
            },
            "train"));
        eq.schedule(senders.back().get(), at);
    };
    trainAt(0, 4);                  // back to back: 6, 7, 8, 9 us
    trainAt(microseconds(2), 3);    // queues behind the first train
    trainAt(microseconds(40), 1);   // idle gap
    trainAt(microseconds(46), 2);   // lands on the previous arrival
    trainAt(milliseconds(1), 5);
    eq.runAll();
    recording.drain();

    ASSERT_EQ(seen_by_events.size(), 12u); // 15 sent, ids 3, 8, 13 corrupt
    EXPECT_EQ(seen_by_recording, seen_by_events);
    for (const auto &[id, arrival] : seen_by_recording)
        EXPECT_NE(id % 5, 3u) << "corrupt packet " << id << " handed over";
    EXPECT_EQ(seen_by_events[1].second, microseconds(7));
    EXPECT_EQ(recording.packetsCorrupted(), 3u);
    EXPECT_EQ(recording.packetsDelivered(), events.packetsDelivered());
    EXPECT_EQ(recording.bytesDelivered(), events.bytesDelivered());
    EXPECT_EQ(recording.packetsInFlight(), 0u);
}

TEST(WireTest, RecordingWireFiresNoEventAndCountsCorruptionAtHandOver)
{
    EventQueue eq;
    Wire wire(eq, 10e9, microseconds(5));
    Arrivals seen;
    wire.setRecordingSink([&](const Packet &p, Tick arrival) {
        seen.emplace_back(p.requestId, arrival);
    });
    wire.setFaultFilter([](const Packet &p) {
        return p.requestId == 2 ? WireFault::kCorrupt : WireFault::kNone;
    });
    for (std::uint64_t id = 1; id <= 3; ++id)
        wire.send(makePacket(id, 1250)); // arrive at 6, 7, 8 us
    eq.runAll();
    EXPECT_EQ(eq.numProcessed(), 0u);
    EXPECT_EQ(eq.now(), 0);
    // Nothing has arrived by now, so nothing is handed over or counted.
    wire.drain();
    EXPECT_TRUE(seen.empty());
    EXPECT_EQ(wire.packetsCorrupted(), 0u);
    EXPECT_EQ(wire.packetsInFlight(), 3u);

    eq.runUntil(microseconds(20));
    wire.drain();
    EXPECT_EQ(seen, (Arrivals{{1, microseconds(6)}, {3, microseconds(8)}}));
    EXPECT_EQ(wire.packetsCorrupted(), 1u);
    EXPECT_EQ(wire.packetsDelivered(), 2u);
}

TEST(WireTest, DrainHandsOverExactlyTheArrivalsUpToNow)
{
    EventQueue eq;
    Wire wire(eq, 10e9, microseconds(5));
    Arrivals seen;
    wire.setRecordingSink([&](const Packet &p, Tick arrival) {
        seen.emplace_back(p.requestId, arrival);
    });
    for (std::uint64_t id = 0; id < 4; ++id)
        wire.send(makePacket(id, 1250)); // arrive at 6, 7, 8, 9 us

    eq.runUntil(microseconds(7) - 1);
    wire.drain();
    EXPECT_EQ(seen, (Arrivals{{0, microseconds(6)}}));

    eq.runUntil(microseconds(8)); // an arrival exactly at now counts
    wire.drain();
    EXPECT_EQ(seen, (Arrivals{{0, microseconds(6)},
                              {1, microseconds(7)},
                              {2, microseconds(8)}}));
    EXPECT_EQ(wire.packetsInFlight(), 1u);

    // A send hands over what has arrived, too.
    eq.runUntil(microseconds(9));
    wire.send(makePacket(4, 1250));
    EXPECT_EQ(seen.size(), 4u);
    EXPECT_EQ(seen.back(), (std::pair<std::uint64_t, Tick>{
                               3, microseconds(9)}));
    EXPECT_EQ(wire.packetsInFlight(), 1u);
}

/** The PanicError message @p action raises; empty if it raises none. */
template <typename Action>
std::string
panicMessage(Action action)
{
    try {
        action();
    } catch (const PanicError &err) {
        return err.what();
    }
    return "";
}

TEST(WireTest, RecordingWireCannotBeBoundedOrDowned)
{
    EventQueue eq;
    const auto record = [](const Packet &, Tick) {};
    {
        Wire wire(eq, 10e9, 0);
        wire.setLabel("switch.port.clients");
        wire.setRecordingSink(record);
        wire.setQueueLimit(0); // unbounded stays legal
        EXPECT_NE(panicMessage([&] { wire.setQueueLimit(8); })
                      .find("switch.port.clients"),
                  std::string::npos);
        EXPECT_NE(panicMessage([&] { wire.setLinkDown(true); })
                      .find("switch.port.clients"),
                  std::string::npos);
        EXPECT_EQ(wire.queueLimit(), 0u);
        EXPECT_FALSE(wire.linkDown());
    }
    {
        Wire wire(eq, 10e9, 0);
        wire.setLabel("bounded");
        wire.setQueueLimit(8);
        EXPECT_NE(panicMessage([&] { wire.setRecordingSink(record); })
                      .find("bounded"),
                  std::string::npos);
    }
    {
        Wire wire(eq, 10e9, 0);
        wire.setLabel("downed");
        wire.setLinkDown(true);
        EXPECT_NE(panicMessage([&] { wire.setRecordingSink(record); })
                      .find("downed"),
                  std::string::npos);
    }
}

} // namespace
} // namespace nmapsim

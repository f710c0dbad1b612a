/**
 * @file
 * Tests for the cluster switch's health-aware failover: the silence
 * detector ejects only truly unresponsive hosts, ejected hosts stop
 * receiving requests, recovery leads to readmission, and write-off /
 * late-response accounting stays consistent. Also the response tap's
 * attribution of each response to the host that served it.
 *
 * The switch is driven directly with fake hosts (wire sinks calling
 * back into fromHost), so every test controls exactly which host is
 * silent and when.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/switch.hh"
#include "net/packet.hh"
#include "net/wire.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace nmapsim {
namespace {

/**
 * NOTE: the health detector reschedules itself forever, so these
 * tests always advance time with runUntil(), never runAll().
 */
class FailoverTest : public ::testing::Test
{
  protected:
    static constexpr int kHosts = 2;

    ~FailoverTest() override
    {
        for (auto &ev : events_)
            eq_.deschedule(ev.get());
    }

    /** Build the switch; call once per test, then attach fake hosts. */
    void
    makeSwitch(const std::string &dispatch)
    {
        SwitchConfig cfg;
        cfg.healthInterval = milliseconds(1);
        cfg.healthTimeout = milliseconds(3);
        cfg.ejectDuration = milliseconds(10);
        sw_ = std::make_unique<ClusterSwitch>(
            eq_, cfg, dispatch, std::vector<double>(kHosts, 1.0),
            PolicyParams{});
        sw_->clientPort().setSink(
            [this](const Packet &) { ++clientResponses_; });
        for (int id = 0; id < kHosts; ++id) {
            sw_->downlink(id).setSink([this, id](const Packet &pkt) {
                ++requestsSeen_[id];
                if (!silent_[id]) {
                    Packet resp = pkt;
                    resp.kind = Packet::Kind::kResponse;
                    sw_->fromHost(id, resp);
                }
            });
        }
    }

    /** Send @p n requests, one every @p gap, starting at @p start. */
    void
    offerLoad(Tick start, Tick gap, int n, std::uint32_t flow = 0)
    {
        for (int i = 0; i < n; ++i) {
            events_.push_back(std::make_unique<EventFunctionWrapper>(
                [this, flow, i] {
                    Packet pkt;
                    pkt.requestId = static_cast<std::uint64_t>(i) + 1;
                    pkt.flowHash = flow;
                    pkt.sizeBytes = 128;
                    sw_->fromClient(pkt);
                },
                "test.offer"));
            eq_.schedule(events_.back().get(),
                         start + static_cast<Tick>(i) * gap);
        }
    }

    EventQueue eq_;
    std::unique_ptr<ClusterSwitch> sw_;
    std::vector<std::unique_ptr<EventFunctionWrapper>> events_;
    std::uint64_t clientResponses_ = 0;
    std::uint64_t requestsSeen_[kHosts] = {0, 0};
    bool silent_[kHosts] = {false, false};
};

TEST_F(FailoverTest, DetectorRequiresBothTimeoutAndEjectDuration)
{
    SwitchConfig cfg;
    cfg.healthInterval = milliseconds(1); // timeout/duration missing
    EXPECT_THROW(ClusterSwitch(eq_, cfg, "round-robin",
                               std::vector<double>(kHosts, 1.0),
                               PolicyParams{}),
                 FatalError);
}

TEST_F(FailoverTest, SilentHostIsEjectedAndBypassedByQueuePolicies)
{
    makeSwitch("round-robin");
    silent_[1] = true;
    offerLoad(0, microseconds(500), 40); // 20 ms of load
    eq_.runUntil(milliseconds(8));

    EXPECT_TRUE(sw_->isEjected(1));
    EXPECT_FALSE(sw_->isEjected(0));
    EXPECT_EQ(sw_->ejections(1), 1u);
    // Write-off: the dead host's pending work no longer counts.
    EXPECT_EQ(sw_->outstanding(1), 0u);

    // No request reaches the ejected host while it is out.
    const std::uint64_t atEjection = requestsSeen_[1];
    const std::uint64_t host0AtEjection = requestsSeen_[0];
    eq_.runUntil(milliseconds(12));
    EXPECT_EQ(requestsSeen_[1], atEjection);
    EXPECT_GT(requestsSeen_[0], host0AtEjection); // host 0 absorbs all
}

TEST_F(FailoverTest, AffinityPoliciesRerouteAroundEjectedHost)
{
    makeSwitch("flow-hash");
    // Find a flow that hashes to host 1, then make host 1 silent.
    std::uint32_t flow = 0;
    {
        Packet probe;
        probe.sizeBytes = 128;
        for (std::uint32_t f = 0; f < 64; ++f) {
            probe.flowHash = f;
            sw_->fromClient(probe);
            eq_.runUntil(eq_.now() + microseconds(100));
            if (requestsSeen_[1] > 0) {
                flow = f;
                break;
            }
        }
        ASSERT_GT(requestsSeen_[1], 0u) << "no flow hashed to host 1";
        silent_[1] = true;
        requestsSeen_[0] = requestsSeen_[1] = 0;
    }

    offerLoad(eq_.now(), microseconds(500), 30, flow);
    eq_.runUntil(eq_.now() + milliseconds(20));

    EXPECT_GE(sw_->ejections(1), 1u);
    // Once ejected, the policy's pick is overridden toward a healthy
    // host and counted as a reroute.
    EXPECT_GT(sw_->counters().requestsRerouted, 0u);
    EXPECT_GT(requestsSeen_[0], 0u);
}

TEST_F(FailoverTest, RecoveredHostIsReadmittedAndServesAgain)
{
    makeSwitch("round-robin");
    silent_[1] = true;
    // Recover the host at 9 ms, well before readmission is due.
    events_.push_back(std::make_unique<EventFunctionWrapper>(
        [this] { silent_[1] = false; }, "test.recover"));
    eq_.schedule(events_.back().get(), milliseconds(9));
    offerLoad(0, microseconds(500), 60); // 30 ms of load
    eq_.runUntil(milliseconds(40));

    // Ejected once (~4 ms), readmitted (~14 ms), never re-ejected.
    EXPECT_EQ(sw_->ejections(1), 1u);
    EXPECT_FALSE(sw_->isEjected(1));
    EXPECT_GT(sw_->responsesReturned(1), 0u);
}

TEST_F(FailoverTest, LossyButAliveHostIsNeverEjected)
{
    makeSwitch("round-robin");
    // Host 1 answers only every other request: lossy, but never
    // silent, so the detector must leave it alone.
    std::uint64_t seen = 0;
    sw_->downlink(1).setSink([this, &seen](const Packet &pkt) {
        ++requestsSeen_[1];
        if (++seen % 2 == 0) {
            Packet resp = pkt;
            resp.kind = Packet::Kind::kResponse;
            sw_->fromHost(1, resp);
        }
    });
    // Keep the load flowing past the observation point: once traffic
    // (and with it the every-other response) stops, a backlogged host
    // really is silent and *should* eventually be ejected.
    offerLoad(0, microseconds(500), 80); // 40 ms of load
    eq_.runUntil(milliseconds(38));
    EXPECT_EQ(sw_->counters().ejections, 0u);
    EXPECT_FALSE(sw_->isEjected(1));
}

TEST_F(FailoverTest, LateResponseFromWrittenOffHostIsCounted)
{
    makeSwitch("round-robin");
    silent_[1] = true;
    offerLoad(0, microseconds(500), 20);
    eq_.runUntil(milliseconds(8));
    ASSERT_TRUE(sw_->isEjected(1));
    ASSERT_EQ(sw_->outstanding(1), 0u);

    // The host finally answers a written-off request.
    Packet resp;
    resp.kind = Packet::Kind::kResponse;
    resp.sizeBytes = 128;
    sw_->fromHost(1, resp);
    EXPECT_EQ(sw_->counters().lateResponses, 1u);
}

TEST_F(FailoverTest, SwitchTotalsSumThePerHostCounts)
{
    makeSwitch("round-robin");
    silent_[1] = true;
    offerLoad(0, microseconds(500), 40);
    eq_.runUntil(milliseconds(25));

    std::uint64_t forwarded = 0;
    std::uint64_t returned = 0;
    std::uint64_t ejections = 0;
    std::uint64_t transitions = 0;
    for (int id = 0; id < kHosts; ++id) {
        forwarded += sw_->requestsForwarded(id);
        returned += sw_->responsesReturned(id);
        ejections += sw_->ejections(id);
        transitions += sw_->breakerTransitions(id);
    }
    const SwitchCounters c = sw_->counters();
    EXPECT_EQ(c.requestsForwarded, forwarded);
    EXPECT_EQ(c.requestsForwarded, requestsSeen_[0] + requestsSeen_[1]);
    EXPECT_EQ(c.responsesReturned, returned);
    EXPECT_EQ(c.responsesReturned, clientResponses_);
    EXPECT_GT(c.ejections, 0u);
    EXPECT_EQ(c.ejections, ejections);
    EXPECT_EQ(c.breakerTransitions, transitions);
    EXPECT_EQ(c.switchPortDrops, 0u);
}

TEST_F(FailoverTest, AllHostsEjectedDegradesToHealthBlindDispatch)
{
    makeSwitch("round-robin");
    silent_[0] = true;
    silent_[1] = true;
    offerLoad(0, microseconds(500), 40);
    eq_.runUntil(milliseconds(8));
    EXPECT_TRUE(sw_->isEjected(0));
    EXPECT_TRUE(sw_->isEjected(1));

    // Requests still go somewhere (the policy's pick) rather than
    // being dropped on the floor by the switch itself.
    const std::uint64_t before =
        requestsSeen_[0] + requestsSeen_[1];
    eq_.runUntil(milliseconds(10));
    EXPECT_GT(requestsSeen_[0] + requestsSeen_[1], before);
}

TEST(SwitchResponseTapTest, NamesTheServingHostOfInterleavedResponses)
{
    // Three fake hosts answer after 3, 1 and 2 us, less than the
    // fabric's 2 us latency apart, so responses to a round-robin burst
    // share the egress fabric and leave it in another order than their
    // requests entered the switch.
    constexpr int kHosts = 3;
    const Tick delay[kHosts] = {microseconds(3), microseconds(1),
                                microseconds(2)};
    EventQueue eq;
    std::vector<std::unique_ptr<EventFunctionWrapper>> replies;
    ClusterSwitch sw(eq, SwitchConfig{}, "round-robin",
                     std::vector<double>(kHosts, 1.0), PolicyParams{});
    sw.clientPort().setSink([](const Packet &) {});
    std::map<std::uint64_t, int> served_by; // request id -> host
    for (int id = 0; id < kHosts; ++id) {
        sw.downlink(id).setSink([&, id](const Packet &pkt) {
            served_by[pkt.requestId] = id;
            Packet resp = pkt;
            resp.kind = Packet::Kind::kResponse;
            replies.push_back(std::make_unique<EventFunctionWrapper>(
                [&sw, id, resp] { sw.fromHost(id, resp); },
                "test.reply"));
            eq.schedule(replies.back().get(), eq.now() + delay[id]);
        });
    }
    std::vector<std::pair<std::uint64_t, int>> tapped; // (id, host)
    sw.setResponseTap([&tapped](int host, const Packet &pkt) {
        tapped.emplace_back(pkt.requestId, host);
    });
    constexpr std::uint64_t kRequests = 12;
    for (std::uint64_t id = 1; id <= kRequests; ++id) {
        Packet pkt;
        pkt.requestId = id;
        pkt.flowHash = static_cast<std::uint32_t>(id);
        pkt.sizeBytes = 1500;
        sw.fromClient(pkt);
    }
    eq.runAll();

    ASSERT_EQ(tapped.size(), kRequests);
    bool reordered = false;
    for (std::size_t k = 0; k < tapped.size(); ++k) {
        EXPECT_EQ(tapped[k].second, served_by.at(tapped[k].first))
            << "request " << tapped[k].first;
        reordered = reordered || tapped[k].first != k + 1;
    }
    EXPECT_TRUE(reordered);
    for (int id = 0; id < kHosts; ++id)
        EXPECT_EQ(sw.responsesReturned(id), kRequests / kHosts);
    // The stamp fits in padding: a Packet stays 72 bytes.
    EXPECT_EQ(sizeof(Packet), 72u);
}

} // namespace
} // namespace nmapsim

/**
 * @file
 * Client side: request emission and end-to-end latency measurement.
 *
 * Models the paper's 20 client threads on a separate machine. Each
 * client thread owns one connection (one RSS flow hash), so a train of
 * requests from one thread lands on one server core back-to-back. The
 * client timestamps requests, the server echoes the timestamp in the
 * response, and the client records end-to-end response time — the
 * quantity every latency figure in the paper reports.
 */

#ifndef NMAPSIM_WORKLOAD_CLIENT_HH_
#define NMAPSIM_WORKLOAD_CLIENT_HH_

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "harness/policy_params.hh"
#include "net/packet.hh"
#include "net/wire.hh"
#include "sim/event_queue.hh"
#include "sim/pool.hh"
#include "sim/time.hh"
#include "stats/latency_recorder.hh"
#include "workload/app_profile.hh"

namespace nmapsim {

/**
 * Per-request timeout/retransmission policy (`client.*` config keys).
 *
 * Disabled by default (timeout == 0): the client fires and forgets,
 * exactly the pre-fault behaviour. When enabled, every request is
 * tracked until its response arrives; a request unanswered after the
 * timeout is retransmitted with the wait doubling each attempt
 * (capped at backoffCap when nonzero) until maxRetries
 * retransmissions are spent, at which point the request is counted as
 * timed out. This is what turns injected loss into visible latency
 * instead of coordinated omission.
 */
struct ClientRetryPolicy {
    Tick timeout = 0;    //!< base per-request timeout; 0 disables
    int maxRetries = 0;  //!< retransmissions after the first attempt
    Tick backoffCap = 0; //!< upper bound on the backoff wait; 0 = none

    bool enabled() const { return timeout > 0; }

    /** Read and check the `client.*` keys of @p params
     *  (readParams). */
    static ClientRetryPolicy fromParams(const PolicyParams &params);

    /** The `client.*` params schema (harness/policy_params.hh). */
    template <typename Key>
    void
    visit(Key &&key)
    {
        key("client.timeout", timeout);
        key("client.retries", maxRetries);
        key("client.backoff_cap", backoffCap);
    }
};

/**
 * Spacing between independent clients' flow spaces sharing one
 * wire/NIC (colocation tenants, cluster client groups): client i uses
 * flow hashes [i * kFlowSpaceStride, i * kFlowSpaceStride +
 * connections), so `flowHash / kFlowSpaceStride` recovers the owner.
 */
constexpr std::uint32_t kFlowSpaceStride = 1024;

/** The load-generating client machine. */
class Client
{
  public:
    /**
     * @param to_server client->server wire (we send into it)
     * @param num_connections client threads / RSS flows (paper: 20)
     * @param flow_base offset added to connection ids to form flow
     *        hashes; lets several tenants share one wire/NIC with
     *        disjoint flow spaces (colocation)
     */
    Client(EventQueue &eq, Wire &to_server, const AppProfile &profile,
           int num_connections, std::uint32_t flow_base = 0);

    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /**
     * Enable request tracking with timeouts and retransmission; must
     * be set before the first request. With the default (disabled)
     * policy the send/receive paths are byte-identical to a client
     * built without retry support.
     */
    void setRetryPolicy(const ClientRetryPolicy &policy);

    /**
     * Cap retransmissions to a budget earned from successes
     * (resilience.retry_budget): the client starts with @p initial
     * tokens, banks @p ratio more per completed request up to @p cap,
     * and every retransmission spends one token. An exhausted budget
     * converts would-be retransmissions into timeouts — the
     * Finagle-style damper that keeps retry storms from amplifying an
     * overloaded tier. Must be set before traffic starts.
     */
    void setRetryBudget(double ratio, int initial, double cap);

    /**
     * Stamp every transmission with an absolute deadline of
     * send time + @p budget (resilience.deadline), so downstream hops
     * can shed work that can no longer complete in time. Must be set
     * before traffic starts.
     */
    void setDeadlineBudget(Tick budget);

    /**
     * Address requests to tier @p tier instead of tier 0
     * (topology.tier<i>.clients mid-chain entry). Must be set before
     * traffic starts.
     */
    void setEntryTier(int tier);

    int numConnections() const { return numConnections_; }

    /** Send one request on connection @p conn right now. */
    void sendRequest(int conn);

    /** Wire sink for server responses. */
    void onResponse(const Packet &pkt);

    /** All completed-request latencies (first send to completion). */
    LatencyRecorder &latencies() { return latencies_; }
    const LatencyRecorder &latencies() const { return latencies_; }

    /**
     * Latency of the *winning attempt* only (last transmission to
     * response); diverges from latencies() once retransmission kicks
     * in and shows what the network did, not what the user saw.
     */
    LatencyRecorder &attemptLatencies() { return attemptLatencies_; }
    const LatencyRecorder &attemptLatencies() const
    {
        return attemptLatencies_;
    }

    std::uint64_t requestsSent() const { return sent_; }
    std::uint64_t responsesReceived() const { return received_; }

    /** @name Retry/timeout accounting (all zero when retry is off) */
    /**@{*/
    std::uint64_t requestsTimedOut() const { return timedOut_; }
    std::uint64_t retransmits() const { return retransmits_; }
    std::uint64_t duplicateResponses() const { return duplicates_; }
    /**@}*/

    /** @name Resilience accounting (zero when resilience is off) */
    /**@{*/
    /** Requests answered with a shed notice (pkt.rejected). */
    std::uint64_t requestsShed() const { return shed_; }
    /** Retransmissions suppressed by an empty retry budget. */
    std::uint64_t retryBudgetExhausted() const
    {
        return budgetExhausted_;
    }
    /**@}*/

    /**
     * Requests sent but neither answered, shed, nor timed out.
     * Nonzero at the end of a run means the conservation identity
     * sent == received + timedOut + shed + inFlight has unfinished
     * business (lost without retry, or still on the wire).
     */
    std::uint64_t requestsInFlight() const;

    /**
     * Start recording completions into the feedback window that
     * windowP99AndReset() drains. Off by default, so only a client
     * with a feedback consumer keeps this second copy of its samples.
     */
    void watchWindow() { watchWindow_ = true; }

    /**
     * P99 of responses completed since the last call, then reset the
     * window — the feedback signal long-term controllers like Parties
     * consume. Returns 0 when the window is empty, and always without
     * watchWindow().
     */
    Tick windowP99AndReset();

  private:
    /** Book-keeping for one tracked request. */
    struct Outstanding {
        Tick firstSend = 0; //!< first transmission (completion base)
        Tick deadline = 0;  //!< when the current attempt expires
        int conn = 0;
        int attempts = 0;   //!< transmissions so far; 0 once settled
    };

    /** (deadline, request id): the order in which timeouts fire. */
    using Deadline = std::pair<Tick, std::uint64_t>;
    static constexpr Tick kNoDeadline = std::numeric_limits<Tick>::max();

    void transmit(std::uint64_t id, int conn);
    /** The unsettled entry for request @p id, or nullptr. */
    Outstanding *find(std::uint64_t id);
    /**
     * Answered, shed or given up: mark the request settled (which
     * retires its pending deadline) and trim settled entries off the
     * ring's front.
     */
    void settle(Outstanding &entry);
    /** Whether @p d is still its request's pending retry deadline. */
    bool liveRetry(const Deadline &d) const;
    /** The earliest pending deadline; first == kNoDeadline if none. */
    Deadline nextDeadline();
    void onTimeoutDeadline();
    void armTimeoutEvent();
    Tick backoffFor(int attempts) const;

    EventQueue &eq_;
    Wire &toServer_;
    AppProfile profile_;
    int numConnections_;
    std::uint32_t flowBase_;

    LatencyRecorder latencies_;
    LatencyRecorder attemptLatencies_;
    LatencyRecorder window_;
    bool watchWindow_ = false;
    std::uint64_t nextRequestId_ = 1;
    std::uint64_t sent_ = 0;
    std::uint64_t received_ = 0;

    ClientRetryPolicy retry_;
    bool budgetEnabled_ = false;
    double budgetRatio_ = 0.0;
    double budgetCap_ = 0.0;
    double budgetTokens_ = 0.0;
    Tick deadlineBudget_ = 0;
    int entryTier_ = 0;
    std::uint64_t shed_ = 0;
    std::uint64_t budgetExhausted_ = 0;
    /**
     * Every request sent with retries on, ids [frontId_,
     * nextRequestId_), indexed by id - frontId_; settled entries are
     * trimmed from the front.
     */
    Ring<Outstanding> outstanding_;
    std::uint64_t frontId_ = 1;
    /** Unsettled entries; counted, not derived from the other
     *  counters, so the conservation identity stays a check. */
    std::uint64_t inFlight_ = 0;
    /**
     * First attempts expire at send + timeout in id order, so a cursor
     * over the ring (the lowest id that may still await its first
     * expiry) orders them. Retransmissions' deadlines sit in a min-heap
     * on (deadline, id); an entry is live while its request is
     * unsettled, retrying and still holds that deadline, and stale
     * entries are dropped when they reach the top.
     */
    std::uint64_t firstAttemptId_ = 1;
    std::vector<Deadline> retryDeadlines_;
    std::uint64_t timedOut_ = 0;
    std::uint64_t retransmits_ = 0;
    std::uint64_t duplicates_ = 0;

    EventFunctionWrapper timeoutEvent_;
};

} // namespace nmapsim

#endif // NMAPSIM_WORKLOAD_CLIENT_HH_

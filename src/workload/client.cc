#include "workload/client.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace nmapsim {

ClientRetryPolicy
ClientRetryPolicy::fromParams(const PolicyParams &params)
{
    for (const auto &[key, value] : params) {
        (void)value;
        if (key.rfind("client.", 0) == 0 && key != "client.timeout" &&
            key != "client.retries" && key != "client.backoff_cap") {
            fatal("unknown client key '" + key + "'");
        }
    }
    ClientRetryPolicy policy;
    policy.timeout = params.getTick("client.timeout", 0);
    policy.maxRetries = params.getInt("client.retries", 0);
    policy.backoffCap = params.getTick("client.backoff_cap", 0);
    if (policy.timeout < 0)
        fatal("client.timeout must be >= 0");
    if (policy.maxRetries < 0 || policy.maxRetries > 30)
        fatal("client.retries must be in [0, 30]");
    if (policy.backoffCap < 0)
        fatal("client.backoff_cap must be >= 0");
    if (!policy.enabled() &&
        (policy.maxRetries > 0 || policy.backoffCap > 0)) {
        fatal("client.retries/client.backoff_cap require "
              "client.timeout");
    }
    if (policy.backoffCap > 0 && policy.backoffCap < policy.timeout)
        fatal("client.backoff_cap must be >= client.timeout");
    return policy;
}

Client::Client(EventQueue &eq, Wire &to_server, const AppProfile &profile,
               int num_connections, std::uint32_t flow_base)
    : eq_(eq), toServer_(to_server), profile_(profile),
      numConnections_(num_connections), flowBase_(flow_base),
      timeoutEvent_([this] { onTimeoutDeadline(); }, "client.timeout")
{
    if (num_connections < 1)
        fatal("Client requires at least one connection");
}

Client::~Client()
{
    eq_.deschedule(&timeoutEvent_);
}

void
Client::setRetryPolicy(const ClientRetryPolicy &policy)
{
    if (sent_ != 0)
        fatal("Client retry policy must be set before traffic starts");
    retry_ = policy;
}

void
Client::setRetryBudget(double ratio, int initial, double cap)
{
    if (sent_ != 0)
        fatal("Client retry budget must be set before traffic starts");
    budgetEnabled_ = true;
    budgetRatio_ = ratio;
    budgetCap_ = cap;
    budgetTokens_ =
        std::min(static_cast<double>(initial), cap);
}

void
Client::setDeadlineBudget(Tick budget)
{
    if (sent_ != 0)
        fatal("Client deadline budget must be set before traffic "
              "starts");
    deadlineBudget_ = budget;
}

void
Client::setEntryTier(int tier)
{
    if (sent_ != 0)
        fatal("Client entry tier must be set before traffic starts");
    entryTier_ = tier;
}

void
Client::sendRequest(int conn)
{
    Packet pkt;
    pkt.requestId = nextRequestId_++;
    pkt.kind = Packet::Kind::kRequest;
    pkt.flowHash = flowBase_ + static_cast<std::uint32_t>(conn);
    pkt.sizeBytes = profile_.requestBytes;
    pkt.sendTime = eq_.now();
    pkt.latencyCritical = true;
    pkt.tier = static_cast<std::uint8_t>(entryTier_);
    if (deadlineBudget_ > 0)
        pkt.deadline = eq_.now() + deadlineBudget_;
    ++sent_;
    if (retry_.enabled()) {
        Outstanding entry;
        entry.conn = conn;
        entry.firstSend = eq_.now();
        entry.lastSend = eq_.now();
        entry.attempts = 1;
        entry.deadline = eq_.now() + retry_.timeout;
        outstanding_.emplace(pkt.requestId, entry);
        deadlines_.emplace(entry.deadline, pkt.requestId);
        armTimeoutEvent();
    }
    toServer_.send(pkt);
}

void
Client::transmit(std::uint64_t id, Outstanding &entry)
{
    Packet pkt;
    pkt.requestId = id;
    pkt.kind = Packet::Kind::kRequest;
    pkt.flowHash = flowBase_ + static_cast<std::uint32_t>(entry.conn);
    pkt.sizeBytes = profile_.requestBytes;
    pkt.sendTime = eq_.now();
    pkt.latencyCritical = true;
    pkt.tier = static_cast<std::uint8_t>(entryTier_);
    if (deadlineBudget_ > 0)
        pkt.deadline = eq_.now() + deadlineBudget_;
    entry.lastSend = eq_.now();
    toServer_.send(pkt);
}

void
Client::onResponse(const Packet &pkt)
{
    if (pkt.kind != Packet::Kind::kResponse)
        panic("Client received a non-response packet");
    if (pkt.rejected) {
        // A shed notice is terminal: the request is accounted as shed,
        // never retransmitted, and never enters the latency
        // distribution (it carries no service result).
        if (!retry_.enabled()) {
            ++shed_;
            return;
        }
        auto it = outstanding_.find(pkt.requestId);
        if (it == outstanding_.end()) {
            ++duplicates_;
            return;
        }
        ++shed_;
        deadlines_.erase({it->second.deadline, pkt.requestId});
        outstanding_.erase(it);
        armTimeoutEvent();
        return;
    }
    if (!retry_.enabled()) {
        ++received_;
        Tick latency = eq_.now() - pkt.sendTime;
        latencies_.record(eq_.now(), latency);
        if (watchWindow_)
            window_.record(eq_.now(), latency);
        return;
    }
    auto it = outstanding_.find(pkt.requestId);
    if (it == outstanding_.end()) {
        // Response to a request we already gave up on (or a second
        // copy after retransmission raced the original): counted, not
        // recorded, so the latency distribution only sees completions.
        ++duplicates_;
        return;
    }
    const Outstanding &entry = it->second;
    ++received_;
    Tick completion = eq_.now() - entry.firstSend;
    latencies_.record(eq_.now(), completion);
    if (watchWindow_)
        window_.record(eq_.now(), completion);
    attemptLatencies_.record(eq_.now(), eq_.now() - pkt.sendTime);
    if (budgetEnabled_)
        budgetTokens_ =
            std::min(budgetTokens_ + budgetRatio_, budgetCap_);
    deadlines_.erase({entry.deadline, pkt.requestId});
    outstanding_.erase(it);
    armTimeoutEvent();
}

void
Client::onTimeoutDeadline()
{
    const Tick now = eq_.now();
    while (!deadlines_.empty() && deadlines_.begin()->first <= now) {
        const std::uint64_t id = deadlines_.begin()->second;
        deadlines_.erase(deadlines_.begin());
        auto it = outstanding_.find(id);
        if (it == outstanding_.end())
            continue;
        Outstanding &entry = it->second;
        if (entry.attempts > retry_.maxRetries) {
            // Retry ladder spent: surface the loss instead of letting
            // the request silently vanish (coordinated omission).
            ++timedOut_;
            outstanding_.erase(it);
            continue;
        }
        if (budgetEnabled_ && budgetTokens_ < 1.0) {
            // The retry budget is dry: give up instead of joining the
            // storm. Counted as timed out (the user saw no answer)
            // plus the dedicated exhaustion counter.
            ++budgetExhausted_;
            ++timedOut_;
            outstanding_.erase(it);
            continue;
        }
        if (budgetEnabled_)
            budgetTokens_ -= 1.0;
        ++entry.attempts;
        ++retransmits_;
        transmit(id, entry);
        entry.deadline = now + backoffFor(entry.attempts);
        deadlines_.emplace(entry.deadline, id);
    }
    armTimeoutEvent();
}

void
Client::armTimeoutEvent()
{
    if (timeoutEvent_.scheduled())
        eq_.deschedule(&timeoutEvent_);
    if (deadlines_.empty())
        return;
    eq_.schedule(&timeoutEvent_, deadlines_.begin()->first);
}

Tick
Client::backoffFor(int attempts) const
{
    // Wait before giving up on attempt N: timeout * 2^(N-1), bounded
    // by the cap. maxRetries <= 30 keeps the shift overflow-free.
    Tick wait = retry_.timeout;
    for (int i = 1; i < attempts; ++i) {
        wait *= 2;
        if (retry_.backoffCap > 0 && wait >= retry_.backoffCap)
            return retry_.backoffCap;
    }
    return wait;
}

std::uint64_t
Client::requestsInFlight() const
{
    if (retry_.enabled())
        return outstanding_.size();
    // Without tracking, unanswered = sent minus answered (including
    // shed notices); the feedback-client case (answers observed,
    // nothing sent) clamps to zero.
    return received_ + shed_ >= sent_ ? 0
                                      : sent_ - received_ - shed_;
}

Tick
Client::windowP99AndReset()
{
    Tick p99 = window_.percentile(99.0);
    window_.clear();
    return p99;
}

} // namespace nmapsim

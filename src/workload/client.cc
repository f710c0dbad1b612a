#include "workload/client.hh"

#include <algorithm>
#include <functional>

#include "sim/logging.hh"

namespace nmapsim {

ClientRetryPolicy
ClientRetryPolicy::fromParams(const PolicyParams &params)
{
    ClientRetryPolicy policy;
    readParams(params, "client", policy);
    if (policy.maxRetries < 0 || policy.maxRetries > 30)
        fatal("client.retries must be in [0, 30]");
    if (!policy.enabled() &&
        (policy.maxRetries > 0 || policy.backoffCap > 0)) {
        fatal("client.retries/client.backoff_cap require "
              "client.timeout");
    }
    if (policy.backoffCap > 0 && policy.backoffCap < policy.timeout)
        fatal("client.backoff_cap must be >= client.timeout");
    return policy;
}

REGISTER_PARAMS("client", &ClientRetryPolicy::fromParams, "client retries");

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
    const std::uint64_t id = nextRequestId_++;
    ++sent_;
    if (retry_.enabled()) {
        outstanding_.push_back(Outstanding{
            eq_.now(), eq_.now() + retry_.timeout, conn, 1});
        ++inFlight_;
        armTimeoutEvent();
    }
    transmit(id, conn);
}

void
Client::transmit(std::uint64_t id, int conn)
{
    Packet pkt;
    pkt.requestId = id;
    pkt.kind = Packet::Kind::kRequest;
    pkt.flowHash = flowBase_ + static_cast<std::uint32_t>(conn);
    pkt.sizeBytes = profile_.requestBytes;
    pkt.sendTime = eq_.now();
    pkt.latencyCritical = true;
    pkt.tier = static_cast<std::uint8_t>(entryTier_);
    if (deadlineBudget_ > 0)
        pkt.deadline = eq_.now() + deadlineBudget_;
    toServer_.send(pkt);
}

Client::Outstanding *
Client::find(std::uint64_t id)
{
    if (id < frontId_ || id >= nextRequestId_)
        return nullptr;
    Outstanding &entry = outstanding_.at(id - frontId_);
    return entry.attempts == 0 ? nullptr : &entry;
}

void
Client::settle(Outstanding &entry)
{
    entry.attempts = 0;
    --inFlight_;
    while (!outstanding_.empty() && outstanding_.front().attempts == 0) {
        outstanding_.pop_front();
        ++frontId_;
    }
}

bool
Client::liveRetry(const Deadline &d) const
{
    const auto [deadline, id] = d;
    if (id < frontId_)
        return false;
    const Outstanding &entry = outstanding_.at(id - frontId_);
    return entry.attempts > 1 && entry.deadline == deadline;
}

Client::Deadline
Client::nextDeadline()
{
    // First attempts expire in id order: move the cursor past entries
    // that are settled or already retrying.
    if (firstAttemptId_ < frontId_)
        firstAttemptId_ = frontId_;
    while (firstAttemptId_ < nextRequestId_ &&
           outstanding_.at(firstAttemptId_ - frontId_).attempts != 1)
        ++firstAttemptId_;
    Deadline next{kNoDeadline, 0};
    if (firstAttemptId_ < nextRequestId_)
        next = {outstanding_.at(firstAttemptId_ - frontId_).deadline,
                firstAttemptId_};
    // Retransmissions: drop stale entries off the heap's top.
    while (!retryDeadlines_.empty() &&
           !liveRetry(retryDeadlines_.front())) {
        std::pop_heap(retryDeadlines_.begin(), retryDeadlines_.end(),
                      std::greater<>());
        retryDeadlines_.pop_back();
    }
    if (!retryDeadlines_.empty() && retryDeadlines_.front() < next)
        next = retryDeadlines_.front();
    return next;
}

void
Client::onResponse(const Packet &pkt, Tick arrival)
{
    if (pkt.kind != Packet::Kind::kResponse)
        panic("Client received a non-response packet");
    if (arrival != eq_.now() && !recordsOnly())
        panic("a client that retries or watches its window must be "
              "handed each response on arrival");
    if (pkt.rejected) {
        // A shed notice is terminal: the request is accounted as shed,
        // never retransmitted, and never enters the latency
        // distribution (it carries no service result).
        if (!retry_.enabled()) {
            ++shed_;
            return;
        }
        Outstanding *entry = find(pkt.requestId);
        if (entry == nullptr) {
            ++duplicates_;
            return;
        }
        ++shed_;
        settle(*entry);
        armTimeoutEvent();
        return;
    }
    if (!retry_.enabled()) {
        ++received_;
        Tick latency = arrival - pkt.sendTime;
        latencies_.record(arrival, latency);
        if (watchWindow_)
            window_.record(arrival, latency);
        return;
    }
    Outstanding *entry = find(pkt.requestId);
    if (entry == nullptr) {
        // Response to a request we already gave up on (or a second
        // copy after retransmission raced the original): counted, not
        // recorded, so the latency distribution only sees completions.
        ++duplicates_;
        return;
    }
    ++received_;
    Tick completion = eq_.now() - entry->firstSend;
    latencies_.record(eq_.now(), completion);
    if (watchWindow_)
        window_.record(eq_.now(), completion);
    attemptLatencies_.record(eq_.now(), eq_.now() - pkt.sendTime);
    if (budgetEnabled_)
        budgetTokens_ =
            std::min(budgetTokens_ + budgetRatio_, budgetCap_);
    settle(*entry);
    armTimeoutEvent();
}

void
Client::onTimeoutDeadline()
{
    const Tick now = eq_.now();
    for (;;) {
        const auto [deadline, id] = nextDeadline();
        if (deadline > now)
            break;
        Outstanding &entry = outstanding_.at(id - frontId_);
        if (entry.attempts > retry_.maxRetries) {
            // Retry ladder spent: surface the loss instead of letting
            // the request silently vanish (coordinated omission).
            ++timedOut_;
            settle(entry);
            continue;
        }
        if (budgetEnabled_ && budgetTokens_ < 1.0) {
            // The retry budget is dry: give up instead of joining the
            // storm. Counted as timed out (the user saw no answer)
            // plus the dedicated exhaustion counter.
            ++budgetExhausted_;
            ++timedOut_;
            settle(entry);
            continue;
        }
        if (budgetEnabled_)
            budgetTokens_ -= 1.0;
        ++entry.attempts;
        ++retransmits_;
        transmit(id, entry.conn);
        entry.deadline = now + backoffFor(entry.attempts);
        retryDeadlines_.emplace_back(entry.deadline, id);
        std::push_heap(retryDeadlines_.begin(), retryDeadlines_.end(),
                       std::greater<>());
    }
    armTimeoutEvent();
}

void
Client::armTimeoutEvent()
{
    if (timeoutEvent_.scheduled())
        eq_.deschedule(&timeoutEvent_);
    const Tick next = nextDeadline().first;
    if (next == kNoDeadline)
        return;
    eq_.schedule(&timeoutEvent_, next);
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
        return inFlight_;
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

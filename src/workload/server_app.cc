#include "workload/server_app.hh"

#include "sim/logging.hh"

namespace nmapsim {

ServerApp::ServerApp(ServerOs &os, Nic &nic, const AppProfile &profile,
                     Rng rng, bool attach_deliver)
    : os_(os), nic_(nic), profile_(profile), rng_(rng)
{
    for (int core = 0; core < os_.numCores(); ++core) {
        threads_.push_back(std::make_unique<AppThread>(*this, core));
        os_.sched(core).addThread(threads_.back().get());
    }
    if (attach_deliver) {
        os_.setDeliver([this](int core, const Packet &pkt) {
            onPacket(core, pkt);
        });
    }
}

void
ServerApp::setServiceScale(double scale)
{
    if (scale <= 0.0)
        fatal("ServerApp service scale must be positive");
    serviceScale_ = scale;
}

void
ServerApp::setResilience(const ResiliencePlan &plan)
{
    if (received_ != 0)
        fatal("ServerApp resilience must be set before traffic starts");
    deadlineSheds_ = plan.wantsDeadline();
    if (plan.wantsAdmission()) {
        const AdmissionContext ctx{plan};
        for (int core = 0; core < os_.numCores(); ++core)
            admission_.push_back(
                AdmissionPolicyRegistry::instance().make(
                    plan.admission, ctx));
    }
    resilient_ = deadlineSheds_ || !admission_.empty();
}

Tick
ServerApp::now()
{
    return os_.core(0).eventQueue().now();
}

void
ServerApp::reject(int core, const PendingRequest &req)
{
    // Shed notice: a response-shaped control packet flagged rejected,
    // so the client accounts the request as shed instead of retrying
    // into the overload. Not goodput, hence control sizing.
    Packet resp;
    resp.requestId = req.requestId;
    resp.kind = Packet::Kind::kResponse;
    resp.flowHash = req.flowHash;
    resp.sizeBytes = 64;
    resp.sendTime = req.sendTime;
    resp.latencyCritical = req.latencyCritical;
    resp.tier = req.tier;
    resp.hops = req.hops;
    resp.hopStart = req.hopStart;
    resp.deadline = req.deadline;
    resp.control = true;
    resp.rejected = true;
    nic_.transmit(core, resp);
}

void
ServerApp::onPacket(int core, const Packet &pkt)
{
    ++received_;
    AppThread &thread = *threads_[static_cast<std::size_t>(core)];
    if (resilient_) {
        const Tick arrival = now();
        const PendingRequest stub{pkt.requestId, 0.0,      pkt.flowHash,
                                  pkt.sendTime, pkt.latencyCritical,
                                  pkt.tier,     pkt.hops,  pkt.hopStart,
                                  pkt.deadline, arrival};
        if (deadlineSheds_ && pkt.deadline > 0 &&
            arrival > pkt.deadline) {
            ++shedDeadline_;
            reject(core, stub);
            return;
        }
        AdmissionPolicy *gate =
            admission_.empty()
                ? nullptr
                : admission_[static_cast<std::size_t>(core)].get();
        if (gate != nullptr &&
            !gate->admit(arrival, thread.queue_.size())) {
            ++shedAdmission_;
            reject(core, stub);
            return;
        }
    }
    double cycles = profile_.sampleServiceCycles(rng_);
    // Guarded so a unit scale leaves the cycle stream bit-identical.
    if (serviceScale_ != 1.0)
        cycles *= serviceScale_;
    thread.queue_.push_back(PendingRequest{
        pkt.requestId,
        cycles,
        pkt.flowHash,
        pkt.sendTime,
        pkt.latencyCritical,
        pkt.tier,
        pkt.hops,
        pkt.hopStart,
        pkt.deadline,
        resilient_ ? now() : 0,
    });
    os_.sched(core).threadRunnable(&thread);
}

void
ServerApp::finishFront(int core)
{
    AppThread &thread = *threads_[static_cast<std::size_t>(core)];
    if (thread.queue_.empty())
        panic("ServerApp::finishFront on an empty queue");
    PendingRequest req = thread.queue_.front();
    thread.queue_.pop_front();
    ++completed_;

    Packet resp;
    resp.requestId = req.requestId;
    resp.flowHash = req.flowHash;
    resp.sendTime = req.sendTime; // echoed for client-side latency
    resp.latencyCritical = req.latencyCritical;
    resp.tier = req.tier;
    resp.hops = req.hops;
    resp.hopStart = req.hopStart;
    if (forward_) {
        // Forward-vs-reply contract: a forwarding tier re-emits the
        // request toward the next tier; the switch advances pkt.tier.
        resp.kind = Packet::Kind::kRequest;
        resp.sizeBytes = profile_.requestBytes;
        ++forwarded_;
    } else {
        resp.kind = Packet::Kind::kResponse;
        resp.sizeBytes = profile_.responseBytes;
    }
    resp.deadline = req.deadline;
    nic_.transmit(core, resp);

    if (!resilient_)
        return;
    // Serve-time shedding: before the scheduler sizes the next slice,
    // drop queued requests that are already hopeless (past deadline)
    // or that the sojourn law refuses — they cost a shed notice, not a
    // service time.
    const Tick serveAt = now();
    AdmissionPolicy *gate =
        admission_.empty()
            ? nullptr
            : admission_[static_cast<std::size_t>(core)].get();
    while (!thread.queue_.empty()) {
        const PendingRequest &next = thread.queue_.front();
        if (deadlineSheds_ && next.deadline > 0 &&
            serveAt > next.deadline) {
            ++shedDeadline_;
            reject(core, next);
            thread.queue_.pop_front();
            continue;
        }
        if (gate != nullptr && !gate->serve(serveAt, next.enqueuedAt)) {
            ++shedSojourn_;
            reject(core, next);
            thread.queue_.pop_front();
            continue;
        }
        break;
    }
}

std::size_t
ServerApp::queueDepth(int core) const
{
    return threads_[static_cast<std::size_t>(core)]->queue_.size();
}

std::size_t
ServerApp::totalQueued() const
{
    std::size_t n = 0;
    for (const auto &t : threads_)
        n += t->queue_.size();
    return n;
}

} // namespace nmapsim

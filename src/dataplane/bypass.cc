#include "dataplane/bypass.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace nmapsim {

PollThread::PollThread(BypassEngine &engine, ServerOs &os, Nic &nic,
                       int poll_core, std::vector<int> queues,
                       const DataplanePlan &plan,
                       std::unique_ptr<DataplanePolicy> policy)
    : engine_(engine), os_(os), nic_(nic),
      eq_(os.core(poll_core).eventQueue()), core_(poll_core),
      queues_(std::move(queues)), pollBatch_(plan.pollBatch),
      armIrq_(plan.sleepArmedIrq), rxCycles_(plan.rxPacketCycles),
      txCycles_(plan.txCompletionCycles), policy_(std::move(policy)),
      sleepEvent_(this, "pmd.sleepExpired")
{
}

PollThread::~PollThread()
{
    // The run can end mid-sleep; release the pending timer.
    eq_.deschedule(&sleepEvent_);
}

double
PollThread::beginSlice()
{
    if (pollInFlight_)
        panic("beginSlice while a poll batch is in flight");
    pollInFlight_ = true;

    stash_.clear();
    stashTx_ = 0;
    Packet pkt;
    const OsConfig &cfg = os_.config();
    for (int q : queues_) {
        // One burst can never carry more descriptors than the ring
        // holds, so a ring_degrade fault shrinking the ring between
        // polls bounds the very next harvest.
        std::size_t budget = std::min<std::size_t>(
            static_cast<std::size_t>(pollBatch_), nic_.rxRingSize());
        while (budget > 0 && nic_.popRx(q, pkt)) {
            stash_.push_back(pkt);
            --budget;
        }
        stashTx_ += nic_.consumeTx(
            q, static_cast<std::uint32_t>(cfg.txCleanBudget));
    }

    // Count at harvest time (the popRx/consumeTx accounting NAPI also
    // uses), so every descriptor taken off the NIC is attributed even
    // if the run — or a ring fault — lands mid-poll.
    std::uint32_t rx = static_cast<std::uint32_t>(stash_.size());
    harvestedRx_ += rx;
    harvestedTx_ += stashTx_;

    // Bypass per-packet pricing (DataplanePlan), not the kernel
    // stack's: the user-space datapath is what makes one poll core
    // worth several NAPI cores.
    double cycles = cfg.pollOverheadCycles;
    cycles += static_cast<double>(rx) * rxCycles_;
    cycles += static_cast<double>(stashTx_) * txCycles_;

    ++pollLoops_;
    totalCycles_ += cycles;
    if (rx == 0 && stashTx_ == 0) {
        ++emptyPolls_;
        emptyCycles_ += cycles;
    }
    return cycles;
}

void
PollThread::completeSlice()
{
    if (!pollInFlight_)
        panic("completeSlice without a poll batch in flight");
    pollInFlight_ = false;

    // Same ping-pong as NapiContext::completePoll(): delivery can
    // re-enter the scheduler, and a re-entrant beginSlice must not
    // clobber the batch being delivered.
    if (deliveryInFlight_)
        panic("re-entrant poll delivery");
    deliveryInFlight_ = true;
    delivering_.clear();
    delivering_.swap(stash_);
    std::uint32_t batch_tx = stashTx_;
    stashTx_ = 0;

    for (const Packet &p : delivering_) {
        if (p.kind == Packet::Kind::kRequest)
            engine_.deliver(p);
    }
    deliveryInFlight_ = false;

    DataplanePollStats stats;
    stats.now = eq_.now();
    stats.harvestedRx = static_cast<std::uint32_t>(delivering_.size());
    stats.harvestedTx = batch_tx;
    stats.pollBatch = pollBatch_;
    for (int q : queues_)
        stats.ringOccupancy += nic_.rxDepth(q);

    Tick sleep = policy_->sleepAfterPoll(stats);
    if (sleep > 0)
        goToSleep(sleep);
    // sleep == 0: still runnable; the scheduler re-enqueues us and the
    // PMD loop continues back to back.
}

void
PollThread::goToSleep(Tick duration)
{
    sleeping_ = true;
    sleepStart_ = eq_.now();
    ++sleeps_;
    // Schedule the timer before arming: arming can wake us
    // synchronously (pending work raises the interrupt at once), and
    // the wake path must find the timer to cancel.
    eq_.scheduleIn(&sleepEvent_, duration);
    if (armIrq_)
        armOwnedIrqs();
}

void
PollThread::sleepExpired()
{
    if (!sleeping_)
        return;
    wakeFromSleep();
    os_.sched(core_).threadRunnable(this);
}

void
PollThread::onIrqWake()
{
    // Spurious when a second armed queue's interrupt lands after the
    // first already woke us; the hardirq's cycle cost is still charged
    // by the scheduler, which is exactly the real-hardware penalty.
    if (!sleeping_)
        return;
    eq_.deschedule(&sleepEvent_);
    wakeFromSleep();
    os_.sched(core_).threadRunnable(this);
}

void
PollThread::wakeFromSleep()
{
    sleepResidency_ += eq_.now() - sleepStart_;
    sleeping_ = false;
    if (armIrq_)
        disarmOwnedIrqs();
}

void
PollThread::armOwnedIrqs()
{
    for (int q : queues_) {
        // enableIrq can synchronously raise and wake us mid-loop;
        // once awake, arming the rest would leak enabled interrupts
        // into the poll phase.
        if (!sleeping_)
            return;
        nic_.enableIrq(q);
    }
}

void
PollThread::disarmOwnedIrqs()
{
    for (int q : queues_)
        nic_.disableIrq(q);
}

BypassEngine::BypassEngine(ServerOs &os, Nic &nic,
                           const DataplanePlan &plan,
                           const PolicyParams &params)
    : os_(os), nic_(nic), plan_(plan)
{
    if (!plan_.bypass())
        fatal("BypassEngine requires dataplane.mode=bypass");
    if (plan_.pollCores >= os_.numCores())
        fatal("dataplane.poll_cores must leave at least one worker "
              "core (poll_cores=" + std::to_string(plan_.pollCores) +
              ", cores=" + std::to_string(os_.numCores()) + ")");

    DataplaneContext ctx{params};
    const int K = plan_.pollCores;
    for (int p = 0; p < K; ++p) {
        std::vector<int> queues;
        for (int q = p; q < nic_.numQueues(); q += K)
            queues.push_back(q);
        pollers_.push_back(std::make_unique<PollThread>(
            *this, os_, nic_, p, std::move(queues), plan_,
            DataplanePolicyRegistry::instance().make(plan_.policy,
                                                     ctx)));
        pollMeter_.addMeter(&os_.core(p).meter());
    }

    // Take over the interrupt plumbing: queue interrupts (only ever
    // armed during sleeps) land on the owning poll core, and that
    // core's hardirq wakes its poller instead of scheduling NAPI.
    nic_.setIrqHandler([this, K](int q) { os_.sched(q % K).handleIrq(); });
    for (int p = 0; p < K; ++p)
        os_.sched(p).setIrqDelegate(
            [t = pollers_[static_cast<std::size_t>(p)].get()] {
                t->onIrqWake();
            });
}

void
BypassEngine::start()
{
    for (int q = 0; q < nic_.numQueues(); ++q)
        nic_.disableIrq(q);
    // Kicks each idle poll core awake; the PMD loops run from t=0.
    for (int p = 0; p < pollCores(); ++p)
        os_.sched(p).threadRunnable(
            pollers_[static_cast<std::size_t>(p)].get());
}

void
BypassEngine::deliver(const Packet &pkt)
{
    int workers = workerCores();
    int worker =
        pollCores() +
        static_cast<int>(pkt.flowHash %
                         static_cast<std::uint32_t>(workers));
    os_.deliverToApp(worker, pkt);
}

void
BypassEngine::startMeasurement(Tick now)
{
    pollMeter_.startMeasurement(now);
}

double
BypassEngine::pollEnergyJoules(Tick now) const
{
    return pollMeter_.energyJoules(now);
}

double
BypassEngine::wastedPollEnergyJoules(Tick now) const
{
    double total = 0.0;
    double empty = 0.0;
    for (const auto &poller : pollers_) {
        total += poller->totalPollCycles();
        empty += poller->emptyPollCycles();
    }
    if (total <= 0.0)
        return 0.0;
    return pollEnergyJoules(now) * (empty / total);
}

BypassEngine::Stats
BypassEngine::stats() const
{
    Stats s;
    for (const auto &poller : pollers_) {
        s.pollLoops += poller->pollLoops();
        s.emptyPolls += poller->emptyPolls();
        s.sleeps += poller->sleeps();
        s.sleepResidency += poller->sleepResidency();
        s.pktsHarvested += poller->harvested();
    }
    return s;
}

} // namespace nmapsim

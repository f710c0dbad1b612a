#include "nmap/decision_engine.hh"

#include "sim/logging.hh"

namespace nmapsim {

DecisionEngine::DecisionEngine(EventQueue &eq, std::vector<Core *> cores,
                               OndemandGovernor &fallback,
                               ModeTransitionMonitor &monitor,
                               const NmapConfig &config)
    : eq_(eq), cores_(std::move(cores)), fallback_(fallback),
      monitor_(monitor), config_(config),
      domainCores_(config.chipWide ? static_cast<int>(cores_.size()) : 1),
      timerEvent_([this] { onTimer(); }, "nmap.timer")
{
    if (cores_.empty())
        fatal("DecisionEngine requires at least one core");
    for (int first = 0; first < static_cast<int>(cores_.size());
         first += domainCores_)
        domains_.push_back(Domain{first, first + domainCores_});
}

DecisionEngine::~DecisionEngine()
{
    eq_.deschedule(&timerEvent_);
}

void
DecisionEngine::start()
{
    eq_.scheduleIn(&timerEvent_, config_.timerInterval);
}

void
DecisionEngine::onNotification(int core)
{
    Domain &domain =
        domains_[static_cast<std::size_t>(core / domainCores_)];
    if (domain.ni)
        return;
    // Algorithm 2 lines 3-5: Network Intensive Mode — disable the
    // utilisation governor and maximise the current V/F, for the
    // notifying core first. Without per-core DVFS one overloaded core
    // drags the whole chip to P0.
    domain.ni = true;
    ++toNi_;
    const auto maximise = [this](int c) {
        fallback_.setEnabled(c, false);
        cores_[static_cast<std::size_t>(c)]->dvfs().requestPState(0);
    };
    maximise(core);
    for (int c = domain.first; c < domain.end; ++c)
        if (c != core)
            maximise(c);
}

bool
DecisionEngine::networkIntensive(int core) const
{
    return domains_[static_cast<std::size_t>(core / domainCores_)].ni;
}

void
DecisionEngine::onTimer()
{
    for (Domain &domain : domains_) {
        std::uint64_t poll = 0;
        std::uint64_t intr = 0;
        for (int c = domain.first; c < domain.end; ++c) {
            poll += monitor_.windowPollCount(c);
            intr += monitor_.windowIntrCount(c);
            monitor_.resetWindow(c);
        }
        const double ratio = static_cast<double>(poll) /
                             static_cast<double>(intr > 0 ? intr : 1);
        if (ratioHook_)
            ratioHook_(ratio, domain.ni);
        // Algorithm 2 lines 7-12: fall back to CPU Utilisation based
        // Mode when the polling-to-interrupt ratio has dropped.
        if (!domain.ni || !(ratio < config_.cuThreshold))
            continue;
        domain.ni = false;
        ++toCpu_;
        for (int c = domain.first; c < domain.end; ++c) {
            fallback_.enforceNow(c);
            fallback_.setEnabled(c, true);
        }
    }
    eq_.scheduleIn(&timerEvent_, config_.timerInterval);
}

} // namespace nmapsim

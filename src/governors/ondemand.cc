#include "governors/ondemand.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace nmapsim {

OndemandGovernor::OndemandGovernor(EventQueue &eq,
                                   std::vector<Core *> cores,
                                   const GovernorConfig &config)
    : eq_(eq), cores_(std::move(cores)), config_(config)
{
    if (cores_.empty())
        fatal("OndemandGovernor requires at least one core");
    lastBusy_.resize(cores_.size(), 0);
    lastUtil_.resize(cores_.size(), 0.0);
    enabled_.resize(cores_.size(), true);
    tickEvent_ = std::make_unique<EventFunctionWrapper>(
        [this] { tick(); }, "governor.tick");
}

OndemandGovernor::~OndemandGovernor()
{
    eq_.deschedule(tickEvent_.get());
}

void
OndemandGovernor::start()
{
    lastSample_ = eq_.now();
    for (std::size_t i = 0; i < cores_.size(); ++i)
        lastBusy_[i] = cores_[i]->busyTime();
    eq_.scheduleIn(tickEvent_.get(), config_.samplePeriod);
}

double
OndemandGovernor::sampleUtil(int core)
{
    std::size_t i = static_cast<std::size_t>(core);
    Tick busy = cores_[i]->busyTime();
    Tick period = eq_.now() - lastSample_;
    double util = period > 0 ? static_cast<double>(busy - lastBusy_[i]) /
                                   static_cast<double>(period)
                             : 0.0;
    lastBusy_[i] = busy;
    return std::clamp(util, 0.0, 1.0);
}

int
OndemandGovernor::stateForUtil(int core, double util) const
{
    return cores_[static_cast<std::size_t>(core)]
        ->profile()
        .pstates.indexForUtil(util, config_.upThreshold);
}

int
OndemandGovernor::decide(int core, double util)
{
    return stateForUtil(core, util);
}

void
OndemandGovernor::tick()
{
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        int core = static_cast<int>(i);
        double util = sampleUtil(core);
        lastUtil_[i] = util;
        if (enabled_[i])
            cores_[i]->dvfs().requestPState(decide(core, util));
    }
    lastSample_ = eq_.now();
    eq_.scheduleIn(tickEvent_.get(), config_.samplePeriod);
}

void
OndemandGovernor::setEnabled(int core, bool enabled)
{
    enabled_[static_cast<std::size_t>(core)] = enabled;
}

void
OndemandGovernor::enforceNow(int core)
{
    std::size_t i = static_cast<std::size_t>(core);
    cores_[i]->dvfs().requestPState(
        decide(core, lastUtil_[i]));
}

int
ConservativeGovernor::decide(int core, double util)
{
    Core *c = cores_[static_cast<std::size_t>(core)];
    int cur = c->dvfs().targetPState();
    if (util > config_.upThreshold)
        return cur - 1; // one step faster (clamped by the actuator)
    if (util < config_.downThreshold)
        return cur + 1; // one step slower
    return cur;
}

IntelPowersaveGovernor::IntelPowersaveGovernor(
    EventQueue &eq, std::vector<Core *> cores,
    const GovernorConfig &config)
    : OndemandGovernor(eq, std::move(cores), config)
{
    lastC0_.resize(cores_.size(), 0);
    smoothed_.resize(cores_.size(), 0.0);
}

double
IntelPowersaveGovernor::sampleUtil(int core)
{
    std::size_t i = static_cast<std::size_t>(core);
    // Consume the busy-time sample too so the base bookkeeping stays
    // coherent, but decide from C0 residency (APERF/MPERF analogue).
    OndemandGovernor::sampleUtil(core);

    Tick c0 = cores_[i]->cstates().residency(CState::kC0, eq_.now());
    Tick period = eq_.now() - lastSampleTime();
    double util = period > 0
                      ? static_cast<double>(c0 - lastC0_[i]) /
                            static_cast<double>(period)
                      : 0.0;
    lastC0_[i] = c0;
    util = std::clamp(util, 0.0, 1.0);
    smoothed_[i] = config_.ewmaAlpha * util +
                   (1.0 - config_.ewmaAlpha) * smoothed_[i];
    return smoothed_[i];
}

} // namespace nmapsim

// --- Policy-registry entries -------------------------------------------

#include "harness/policy_registry.hh"

namespace nmapsim {

namespace {

FreqPolicyInstance
makeOndemand(PolicyContext &ctx)
{
    return {std::make_unique<OndemandGovernor>(ctx.eq, ctx.cores,
                                               ctx.gov),
            nullptr};
}

FreqPolicyInstance
makeConservative(PolicyContext &ctx)
{
    return {std::make_unique<ConservativeGovernor>(ctx.eq, ctx.cores,
                                                   ctx.gov),
            nullptr};
}

FreqPolicyInstance
makeIntelPowersave(PolicyContext &ctx)
{
    return {std::make_unique<IntelPowersaveGovernor>(ctx.eq, ctx.cores,
                                                     ctx.gov),
            nullptr};
}

REGISTER_FREQ_POLICY(
    "ondemand", &makeOndemand,
    "CPU-utilisation sampling governor (cpufreq ondemand)");
REGISTER_FREQ_POLICY(
    "conservative", &makeConservative,
    "one P-state step per sample period (cpufreq conservative)");
REGISTER_FREQ_POLICY(
    "intel_powersave", &makeIntelPowersave,
    "C0-residency EWMA governor (intel_pstate powersave analogue)");

} // namespace
} // namespace nmapsim

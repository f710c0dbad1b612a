#include "baselines/ncap.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace nmapsim {

NcapGovernor::NcapGovernor(EventQueue &eq, std::vector<Core *> cores,
                           Nic &nic, const NcapConfig &config,
                           const GovernorConfig &gov_config)
    : eq_(eq), cores_(std::move(cores)), config_(config),
      tickEvent_([this] { tick(); }, "ncap.tick")
{
    if (cores_.empty())
        fatal("NcapGovernor requires at least one core");
    fallback_ =
        std::make_unique<OndemandGovernor>(eq, cores_, gov_config);
    // NCAP classifies latency-critical requests at the (programmable)
    // NIC; here that is the packet observer hook.
    nic.addPacketObserver([this](const Packet &pkt) {
        if (pkt.latencyCritical && pkt.kind == Packet::Kind::kRequest)
            onPacket();
    });
}

NcapGovernor::~NcapGovernor()
{
    eq_.deschedule(&tickEvent_);
}

void
NcapGovernor::start()
{
    fallback_->start();
    eq_.scheduleIn(&tickEvent_, config_.monitorPeriod);
}

void
NcapGovernor::onPacket()
{
    ++windowCount_;
}

void
NcapGovernor::applyChipWide(int idx)
{
    chipIdx_ = cores_.front()->profile().pstates.clampIndex(idx);
    for (Core *core : cores_)
        core->dvfs().requestPState(chipIdx_);
}

void
NcapGovernor::tick()
{
    double rps = static_cast<double>(windowCount_) /
                 toSeconds(config_.monitorPeriod);
    windowCount_ = 0;

    if (rps > config_.rpsThreshold) {
        if (!burstMode_) {
            burstMode_ = true;
            for (std::size_t i = 0; i < cores_.size(); ++i)
                fallback_->setEnabled(static_cast<int>(i), false);
            if (config_.disableSleepOnBurst && idleOvr_)
                idleOvr_->setForceAwake(true);
        }
        applyChipWide(0);
    } else if (burstMode_) {
        // Gradual decrease: one chip-wide state per period until the
        // utilisation governor's own choice is reached.
        int od_idx = 0;
        for (std::size_t i = 0; i < cores_.size(); ++i) {
            int core = static_cast<int>(i);
            od_idx = std::max(
                od_idx, fallback_->stateForUtil(
                            core, fallback_->lastUtil(core)));
        }
        int next = chipIdx_ + 1;
        if (next >= od_idx) {
            burstMode_ = false;
            if (config_.disableSleepOnBurst && idleOvr_)
                idleOvr_->setForceAwake(false);
            for (std::size_t i = 0; i < cores_.size(); ++i) {
                int core = static_cast<int>(i);
                fallback_->enforceNow(core);
                fallback_->setEnabled(core, true);
            }
        } else {
            applyChipWide(next);
        }
    }
    eq_.scheduleIn(&tickEvent_, config_.monitorPeriod);
}

} // namespace nmapsim

// --- Policy-registry entries -------------------------------------------

#include "harness/policy_registry.hh"

namespace nmapsim {

void
linkNcapPolicies()
{
}

namespace {

NcapConfig
ncapParams(const PolicyParams &params)
{
    NcapConfig config;
    readParams(params, "ncap", config);
    if (config.monitorPeriod <= 0)
        fatal("ncap.monitor_period must be > 0");
    return config;
}

REGISTER_PARAMS("ncap", &ncapParams, "NCAP and NCAP-menu tunables");

FreqPolicyInstance
makeNcapVariant(PolicyContext &ctx, bool disable_sleep_on_burst)
{
    NcapConfig config = ncapParams(ctx.params);
    config.disableSleepOnBurst = disable_sleep_on_burst;
    auto ncap = std::make_unique<NcapGovernor>(ctx.eq, ctx.cores,
                                               ctx.nic, config, ctx.gov);
    if (disable_sleep_on_burst)
        ncap->setIdleOverride(&ctx.requestSwitchableIdle());
    return {std::move(ncap), nullptr};
}

REGISTER_FREQ_POLICY(
    "NCAP",
    [](PolicyContext &ctx) { return makeNcapVariant(ctx, true); },
    "NCAP (HPCA'17): NIC-rate chip-wide DVFS, sleep disabled on burst");
REGISTER_FREQ_POLICY(
    "NCAP-menu",
    [](PolicyContext &ctx) { return makeNcapVariant(ctx, false); },
    "NCAP without the sleep-state override");

} // namespace
} // namespace nmapsim

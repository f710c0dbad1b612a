#include "nmap/nmap_governor.hh"

namespace nmapsim {

NmapGovernor::NmapGovernor(EventQueue &eq, std::vector<Core *> cores,
                           const NmapConfig &nmap_config,
                           const GovernorConfig &gov_config)
    : monitor_(static_cast<int>(cores.size()),
               nmap_config.niThreshold)
{
    fallback_ =
        std::make_unique<OndemandGovernor>(eq, cores, gov_config);
    engine_ = std::make_unique<DecisionEngine>(
        eq, std::move(cores), *fallback_, monitor_, nmap_config);
    monitor_.setNotify(
        [this](int core) { engine_->onNotification(core); });
}

void
NmapGovernor::start()
{
    fallback_->start();
    engine_->start();
}

void
NmapGovernor::onHardIrq(int core)
{
    monitor_.onHardIrq(core);
}

void
NmapGovernor::onPollProcessed(int core, std::uint32_t intr_pkts,
                              std::uint32_t poll_pkts)
{
    monitor_.onPollProcessed(core, intr_pkts, poll_pkts);
}

bool
NmapGovernor::networkIntensive(int core) const
{
    return engine_->networkIntensive(core);
}

NmapSimplGovernor::NmapSimplGovernor(EventQueue &eq,
                                     std::vector<Core *> cores,
                                     const GovernorConfig &gov_config)
    : cores_(std::move(cores)), niMode_(cores_.size(), false)
{
    fallback_ =
        std::make_unique<OndemandGovernor>(eq, cores_, gov_config);
}

void
NmapSimplGovernor::start()
{
    fallback_->start();
}

void
NmapSimplGovernor::onKsoftirqdWake(int core)
{
    std::size_t i = static_cast<std::size_t>(core);
    if (niMode_[i])
        return;
    // ksoftirqd waking means the softirq could not keep up: promote
    // Network Intensive Mode (Section 4.1).
    niMode_[i] = true;
    fallback_->setEnabled(core, false);
    cores_[i]->dvfs().requestPState(0);
}

void
NmapSimplGovernor::onKsoftirqdSleep(int core)
{
    std::size_t i = static_cast<std::size_t>(core);
    if (!niMode_[i])
        return;
    // ksoftirqd finished its backlog: fall back to the utilisation
    // governor (Section 4.1).
    niMode_[i] = false;
    fallback_->enforceNow(core);
    fallback_->setEnabled(core, true);
}

bool
NmapSimplGovernor::networkIntensive(int core) const
{
    return niMode_[static_cast<std::size_t>(core)];
}

} // namespace nmapsim

// --- Policy-registry entries -------------------------------------------

#include "harness/experiment.hh"
#include "harness/policy_registry.hh"

namespace nmapsim {

namespace {

/** The `nmap.*` keys; NI_TH = 0 asks for offline profiling. */
NmapConfig
nmapParams(const PolicyParams &params)
{
    NmapConfig config;
    readParams(params, "nmap", config);
    if (config.timerInterval <= 0)
        fatal("nmap.timer_interval must be > 0");
    if (!(config.niThreshold >= 0.0))
        fatal("nmap.ni_th must be >= 0 (0 asks for profiling)");
    if (!(config.cuThreshold >= 0.0))
        fatal("nmap.cu_th must be >= 0 (0 asks for profiling)");
    return config;
}

REGISTER_PARAMS("nmap", &nmapParams, "NMAP and NMAP-chipwide tunables");

/** Shared NMAP wiring: the thresholds from the params blob, or from
 *  the Section 4.2 offline profiling pass when NI_TH is unset and
 *  nmap.auto_profile (default true) allows it. */
FreqPolicyInstance
makeNmapVariant(PolicyContext &ctx, bool chip_wide)
{
    NmapConfig config = nmapParams(ctx.params);
    config.chipWide = chip_wide;
    if (config.niThreshold <= 0.0 && config.autoProfile) {
        if (!ctx.profileThresholds)
            fatal("colocated NMAP needs explicit thresholds (there is "
                  "no single application to profile)");
        auto [ni, cu] = ctx.profileThresholds();
        config.niThreshold = ni;
        config.cuThreshold = cu;
    }
    auto nmap = std::make_unique<NmapGovernor>(ctx.eq, ctx.cores,
                                               config, ctx.gov);
    ctx.addObserver(nmap.get());
    double ni_used = config.niThreshold;
    double cu_used = config.cuThreshold;
    return {std::move(nmap),
            [ni_used, cu_used](ServerCounters &result) {
                result.niThresholdUsed = ni_used;
                result.cuThresholdUsed = cu_used;
            }};
}

FreqPolicyInstance
makeNmapSimpl(PolicyContext &ctx)
{
    auto simpl =
        std::make_unique<NmapSimplGovernor>(ctx.eq, ctx.cores, ctx.gov);
    ctx.addObserver(simpl.get());
    return {std::move(simpl), nullptr};
}

REGISTER_FREQ_POLICY(
    "NMAP",
    [](PolicyContext &ctx) { return makeNmapVariant(ctx, false); },
    "NMAP (Section 4): per-core mode-transition DVFS; profiles "
    "nmap.ni_th/nmap.cu_th offline unless set");
REGISTER_FREQ_POLICY(
    "NMAP-chipwide",
    [](PolicyContext &ctx) { return makeNmapVariant(ctx, true); },
    "NMAP on a chip-wide DVFS package (Section 2.2 variant)");
REGISTER_FREQ_POLICY(
    "NMAP-simpl", &makeNmapSimpl,
    "simplified NMAP (Section 4.1): ksoftirqd-driven, no thresholds");

} // namespace
} // namespace nmapsim

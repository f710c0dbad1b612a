#include "nmap/adaptive.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace nmapsim {

OnlineThresholdEstimator::OnlineThresholdEstimator(
    const AdaptiveConfig &config, Rng rng)
    : config_(config), rng_(rng)
{
    if (config_.reservoirSize == 0)
        fatal("OnlineThresholdEstimator needs a non-empty reservoir");
    reservoir_.reserve(config_.reservoirSize);
}

void
OnlineThresholdEstimator::recordNiSession(std::uint64_t poll_count)
{
    ++sessions_;
    if (reservoir_.size() < config_.reservoirSize) {
        reservoir_.push_back(poll_count);
        return;
    }
    // Random replacement keeps an exponentially biased-to-recent sample
    // without storing timestamps: each new sample evicts a uniformly
    // random slot, so old observations decay geometrically.
    std::size_t slot = static_cast<std::size_t>(rng_.uniformInt(
        0, static_cast<std::int64_t>(config_.reservoirSize) - 1));
    reservoir_[slot] = poll_count;
}

void
OnlineThresholdEstimator::recordNiWindowRatio(double ratio)
{
    if (!haveRatio_) {
        ratioEwma_ = ratio;
        haveRatio_ = true;
        return;
    }
    ratioEwma_ = config_.ratioAlpha * ratio +
                 (1.0 - config_.ratioAlpha) * ratioEwma_;
}

double
OnlineThresholdEstimator::niThreshold() const
{
    if (sessions_ < static_cast<std::uint64_t>(config_.minSamples))
        return config_.bootstrapNiTh;
    std::vector<std::uint64_t> sorted(reservoir_);
    std::sort(sorted.begin(), sorted.end());
    std::size_t idx = static_cast<std::size_t>(
        config_.niQuantile * static_cast<double>(sorted.size() - 1));
    return std::max(1.0, config_.niMargin *
                             static_cast<double>(sorted[idx]));
}

double
OnlineThresholdEstimator::cuThreshold() const
{
    if (!haveRatio_)
        return config_.bootstrapCuTh;
    return std::max(0.05, config_.cuMargin * ratioEwma_);
}

namespace {

/** NMAP's tunables at the estimator's bootstrap thresholds. */
NmapConfig
bootstrapConfig(const AdaptiveConfig &config)
{
    NmapConfig nmap_config;
    nmap_config.timerInterval = config.timerInterval;
    nmap_config.niThreshold = config.bootstrapNiTh;
    nmap_config.cuThreshold = config.bootstrapCuTh;
    return nmap_config;
}

} // namespace

AdaptiveNmapGovernor::AdaptiveNmapGovernor(
    EventQueue &eq, std::vector<Core *> cores,
    const AdaptiveConfig &config, Rng rng,
    const GovernorConfig &gov_config)
    : NmapGovernor(eq, cores, bootstrapConfig(config), gov_config),
      cores_(std::move(cores)), est_(config, rng.fork()),
      sessionWasNi_(cores_.size(), false)
{
    // Learn CU_TH from the ratios of NI-mode windows; refresh the live
    // thresholds at the same cadence.
    engine_->setRatioHook([this](double ratio, bool ni) {
        if (ni)
            est_.recordNiWindowRatio(ratio);
        refreshThresholds();
    });
}

void
AdaptiveNmapGovernor::refreshThresholds()
{
    monitor_.setNiThreshold(est_.niThreshold());
    engine_->setCuThreshold(est_.cuThreshold());
}

void
AdaptiveNmapGovernor::onHardIrq(int core)
{
    // The hardirq closes the core's poll session, so read its polling
    // count before the monitor resets it. A session is a valid NI_TH
    // sample when it ran under profiling conditions: the core spent it
    // in NI mode, i.e. at the maximum V/F (the offline procedure's
    // environment).
    const std::size_t i = static_cast<std::size_t>(core);
    const std::uint64_t polled = monitor_.sessionPollCount(core);
    if (polled > 0 && sessionWasNi_[i] && cores_[i]->pstateIndex() == 0)
        est_.recordNiSession(polled);
    sessionWasNi_[i] = networkIntensive(core);
    NmapGovernor::onHardIrq(core);
}

void
AdaptiveNmapGovernor::onPollProcessed(int core, std::uint32_t intr_pkts,
                                      std::uint32_t poll_pkts)
{
    std::size_t i = static_cast<std::size_t>(core);
    sessionWasNi_[i] = sessionWasNi_[i] || networkIntensive(core);
    NmapGovernor::onPollProcessed(core, intr_pkts, poll_pkts);
}

} // namespace nmapsim

// --- Policy-registry entry ---------------------------------------------

#include "harness/experiment.hh"
#include "harness/policy_registry.hh"

namespace nmapsim {

namespace {

AdaptiveConfig
adaptiveParams(const PolicyParams &params)
{
    AdaptiveConfig config;
    readParams(params, "adaptive", config);
    if (config.timerInterval <= 0)
        fatal("adaptive.timer_interval must be > 0");
    if (!(config.niQuantile >= 0.0 && config.niQuantile <= 1.0))
        fatal("adaptive.ni_quantile must be in [0, 1]");
    if (!(config.niMargin > 0.0))
        fatal("adaptive.ni_margin must be > 0");
    if (!(config.cuMargin > 0.0))
        fatal("adaptive.cu_margin must be > 0");
    if (!(config.ratioAlpha > 0.0 && config.ratioAlpha <= 1.0))
        fatal("adaptive.ratio_alpha must be in (0, 1]");
    if (config.minSamples < 0)
        fatal("adaptive.min_samples must be >= 0");
    if (config.reservoirSize < 1)
        fatal("adaptive.reservoir_size must be >= 1");
    return config;
}

REGISTER_PARAMS("adaptive", &adaptiveParams, "NMAP-adaptive tunables");

FreqPolicyInstance
makeAdaptiveNmap(PolicyContext &ctx)
{
    const AdaptiveConfig config = adaptiveParams(ctx.params);
    auto adaptive = std::make_unique<AdaptiveNmapGovernor>(
        ctx.eq, ctx.cores, config, ctx.rng.fork(), ctx.gov);
    ctx.addObserver(adaptive.get());
    AdaptiveNmapGovernor *raw = adaptive.get();
    return {std::move(adaptive), [raw](ServerCounters &result) {
                result.niThresholdUsed = raw->currentNiThreshold();
                result.cuThresholdUsed = raw->currentCuThreshold();
            }};
}

REGISTER_FREQ_POLICY(
    "NMAP-adaptive", &makeAdaptiveNmap,
    "NMAP with online threshold learning (extension; no profiling "
    "pass)");

} // namespace
} // namespace nmapsim

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

AdaptiveNmapGovernor::AdaptiveNmapGovernor(
    EventQueue &eq, std::vector<Core *> cores,
    const AdaptiveConfig &config, Rng rng,
    const GovernorConfig &gov_config)
    : cores_(std::move(cores)), config_(config),
      est_(config, rng.fork()),
      monitor_(static_cast<int>(cores_.size()), config.bootstrapNiTh),
      sessionPoll_(cores_.size(), 0), sessionWasNi_(cores_.size(), false)
{
    fallback_ =
        std::make_unique<OndemandGovernor>(eq, cores_, gov_config);
    NmapConfig nmap_config;
    nmap_config.timerInterval = config_.timerInterval;
    nmap_config.niThreshold = config_.bootstrapNiTh;
    nmap_config.cuThreshold = config_.bootstrapCuTh;
    engine_ = std::make_unique<DecisionEngine>(
        eq, cores_, *fallback_, monitor_, nmap_config);
    monitor_.setNotify(
        [this](int core) { engine_->onNotification(core); });
    // Learn CU_TH from the ratios of NI-mode windows; refresh the live
    // thresholds at the same cadence.
    engine_->setRatioHook([this](int core, double ratio, bool ni) {
        (void)core;
        if (ni)
            est_.recordNiWindowRatio(ratio);
        refreshThresholds();
    });
}

void
AdaptiveNmapGovernor::start()
{
    fallback_->start();
    engine_->start();
}

void
AdaptiveNmapGovernor::closeSession(int core)
{
    std::size_t i = static_cast<std::size_t>(core);
    // A session is a valid NI_TH sample when it ran under profiling
    // conditions: the core spent it in NI mode, i.e. at the maximum
    // V/F (the offline procedure's environment).
    if (sessionPoll_[i] > 0 && sessionWasNi_[i] &&
        cores_[i]->pstateIndex() == 0) {
        est_.recordNiSession(sessionPoll_[i]);
    }
    sessionPoll_[i] = 0;
    sessionWasNi_[i] = engine_->networkIntensive(core);
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
    closeSession(core);
    monitor_.onHardIrq(core);
}

void
AdaptiveNmapGovernor::onPollProcessed(int core, std::uint32_t intr_pkts,
                                      std::uint32_t poll_pkts)
{
    std::size_t i = static_cast<std::size_t>(core);
    sessionPoll_[i] += poll_pkts;
    sessionWasNi_[i] =
        sessionWasNi_[i] || engine_->networkIntensive(core);
    monitor_.onPollProcessed(core, intr_pkts, poll_pkts);
}

bool
AdaptiveNmapGovernor::networkIntensive(int core) const
{
    return engine_->networkIntensive(core);
}

} // namespace nmapsim

// --- Policy-registry entry ---------------------------------------------

#include "harness/experiment.hh"
#include "harness/policy_registry.hh"

namespace nmapsim {

void
linkAdaptiveNmapPolicy()
{
}

namespace {

AdaptiveConfig
adaptiveParams(const PolicyParams &params)
{
    AdaptiveConfig config;
    readParams(params, "adaptive", config);
    if (config.timerInterval <= 0)
        fatal("adaptive.timer_interval must be > 0");
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

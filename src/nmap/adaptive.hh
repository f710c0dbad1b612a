/**
 * @file
 * Online threshold adaptation for NMAP.
 *
 * The paper derives NI_TH and CU_TH from a one-shot *offline* profiling
 * run and explicitly leaves "further exploration of on-line profiling
 * techniques as future work" (Section 4.2). This module implements that
 * extension: instead of a profiling pass, the thresholds are learned
 * continuously from the behaviour NMAP itself observes while serving.
 *
 * The key insight carries over from the offline procedure: both
 * thresholds describe *healthy* packet processing at the maximum V/F.
 * While a core is in Network Intensive Mode it runs at P0 — exactly the
 * conditions of the offline profiling run — so the sessions and window
 * ratios observed there are valid threshold samples:
 *
 *  - NI_TH <- a quantile of the per-session polling-mode packet counts
 *    sampled during NI mode (decayed reservoir, so the estimate tracks
 *    workload changes);
 *  - CU_TH <- a margin times the exponentially averaged window
 *    polling/interrupt ratio during NI mode.
 *
 * Until enough samples accumulate, bootstrap values keep the governor
 * conservative (a low NI_TH triggers NI mode readily, which both
 * protects the SLO and generates samples).
 */

#ifndef NMAPSIM_NMAP_ADAPTIVE_HH_
#define NMAPSIM_NMAP_ADAPTIVE_HH_

#include <cstdint>
#include <memory>
#include <vector>

#include "governors/freq_governor.hh"
#include "nmap/decision_engine.hh"
#include "nmap/monitor.hh"
#include "os/hooks.hh"
#include "sim/rng.hh"

namespace nmapsim {

/** Tunables of the online estimator. */
struct AdaptiveConfig
{
    Tick timerInterval = milliseconds(10); //!< engine check period
    double niQuantile = 0.95; //!< session-size quantile for NI_TH
    double niMargin = 1.0;    //!< NI_TH = margin * quantile
    double cuMargin = 1.0;    //!< CU_TH = margin * mean NI ratio
    double ratioAlpha = 0.05; //!< EWMA rate for the NI window ratio
    double bootstrapNiTh = 32.0; //!< NI_TH before minSamples sessions
    double bootstrapCuTh = 0.5;  //!< CU_TH before any NI windows
    int minSamples = 64;         //!< sessions before trusting NI_TH
    std::size_t reservoirSize = 256; //!< decayed session reservoir

    /** The `adaptive.*` params schema (harness/policy_params.hh). */
    template <typename Key>
    void
    visit(Key &&key)
    {
        key("adaptive.timer_interval", timerInterval);
        key("adaptive.ni_quantile", niQuantile);
        key("adaptive.ni_margin", niMargin);
        key("adaptive.cu_margin", cuMargin);
        key("adaptive.ratio_alpha", ratioAlpha);
        key("adaptive.bootstrap_ni_th", bootstrapNiTh);
        key("adaptive.bootstrap_cu_th", bootstrapCuTh);
        key("adaptive.min_samples", minSamples);
        key("adaptive.reservoir_size", reservoirSize);
    }
};

/** Streaming estimator of (NI_TH, CU_TH) from NI-mode observations. */
class OnlineThresholdEstimator
{
  public:
    OnlineThresholdEstimator(const AdaptiveConfig &config, Rng rng);

    /** Feed one completed NI-mode poll session's polling count. */
    void recordNiSession(std::uint64_t poll_count);

    /** Feed one NI-mode timer window's polling/interrupt ratio. */
    void recordNiWindowRatio(double ratio);

    /** Current NI_TH estimate (bootstrap until minSamples). */
    double niThreshold() const;

    /** Current CU_TH estimate (bootstrap until a ratio is seen). */
    double cuThreshold() const;

    std::uint64_t sessionsSeen() const { return sessions_; }

  private:
    AdaptiveConfig config_;
    Rng rng_;

    std::vector<std::uint64_t> reservoir_;
    std::uint64_t sessions_ = 0;
    double ratioEwma_ = 0.0;
    bool haveRatio_ = false;
};

/**
 * NMAP with online threshold adaptation: the Section 4 architecture
 * (Mode Transition Monitor + Decision Engine + ondemand fallback) with
 * thresholds refreshed from the estimator on every engine tick instead
 * of fixed by an offline profiling pass.
 */
class AdaptiveNmapGovernor : public FreqGovernor, public NapiObserver
{
  public:
    AdaptiveNmapGovernor(EventQueue &eq, std::vector<Core *> cores,
                         const AdaptiveConfig &config, Rng rng,
                         const GovernorConfig &gov_config = {});

    void start() override;
    std::string name() const override { return "NMAP-adaptive"; }

    /** @name NapiObserver */
    /**@{*/
    void onHardIrq(int core) override;
    void onPollProcessed(int core, std::uint32_t intr_pkts,
                         std::uint32_t poll_pkts) override;
    /**@}*/

    bool networkIntensive(int core) const;
    double currentNiThreshold() const { return monitor_.niThreshold(); }
    double currentCuThreshold() const { return engine_->cuThreshold(); }
    const OnlineThresholdEstimator &estimator() const { return est_; }

  private:
    void closeSession(int core);
    void refreshThresholds();

    std::vector<Core *> cores_;
    AdaptiveConfig config_;
    OnlineThresholdEstimator est_;
    ModeTransitionMonitor monitor_;
    std::unique_ptr<OndemandGovernor> fallback_;
    std::unique_ptr<DecisionEngine> engine_;
    std::vector<std::uint64_t> sessionPoll_;
    std::vector<bool> sessionWasNi_;
};

} // namespace nmapsim

#endif // NMAPSIM_NMAP_ADAPTIVE_HH_

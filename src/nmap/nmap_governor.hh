/**
 * @file
 * The NMAP governors (the paper's Section 4).
 *
 * NmapGovernor is the full proposal: a Mode Transition Monitor feeding a
 * Decision Engine, falling back to an internal ondemand governor in CPU
 * Utilisation based Mode. NmapSimplGovernor is the simplified variant
 * (Section 4.1) that keys Network Intensive Mode purely off ksoftirqd
 * wake/sleep events — no thresholds, no application profiling, but it
 * reacts later and oscillates during long bursts, which is why the paper
 * shows it failing the SLO at high load.
 *
 * Both are NapiObservers: register them with ServerOs::addObserver().
 */

#ifndef NMAPSIM_NMAP_NMAP_GOVERNOR_HH_
#define NMAPSIM_NMAP_NMAP_GOVERNOR_HH_

#include <memory>

#include "governors/freq_governor.hh"
#include "governors/ondemand.hh"
#include "nmap/decision_engine.hh"
#include "nmap/monitor.hh"
#include "os/hooks.hh"

namespace nmapsim {

/** NMAP: network packet processing mode aware power management. */
class NmapGovernor : public FreqGovernor, public NapiObserver
{
  public:
    NmapGovernor(EventQueue &eq, std::vector<Core *> cores,
                 const NmapConfig &nmap_config,
                 const GovernorConfig &gov_config = {});

    void start() override;
    std::string name() const override { return "NMAP"; }

    /** @name NapiObserver (the piggyback on NAPI) */
    /**@{*/
    void onHardIrq(int core) override;
    void onPollProcessed(int core, std::uint32_t intr_pkts,
                         std::uint32_t poll_pkts) override;
    /**@}*/

    bool networkIntensive(int core) const;
    const ModeTransitionMonitor &monitor() const { return monitor_; }
    const DecisionEngine &engine() const { return *engine_; }
    OndemandGovernor &fallback() { return *fallback_; }

  protected:
    ModeTransitionMonitor monitor_;
    std::unique_ptr<OndemandGovernor> fallback_;
    std::unique_ptr<DecisionEngine> engine_;
};

/** NMAP-simpl: Network Intensive Mode driven by ksoftirqd only. */
class NmapSimplGovernor : public FreqGovernor, public NapiObserver
{
  public:
    NmapSimplGovernor(EventQueue &eq, std::vector<Core *> cores,
                      const GovernorConfig &gov_config = {});

    void start() override;
    std::string name() const override { return "NMAP-simpl"; }

    /** @name NapiObserver */
    /**@{*/
    void onKsoftirqdWake(int core) override;
    void onKsoftirqdSleep(int core) override;
    /**@}*/

    bool networkIntensive(int core) const;
    OndemandGovernor &fallback() { return *fallback_; }

  private:
    std::vector<Core *> cores_;
    std::unique_ptr<OndemandGovernor> fallback_;
    std::vector<bool> niMode_;
};

} // namespace nmapsim

#endif // NMAPSIM_NMAP_NMAP_GOVERNOR_HH_

/**
 * @file
 * Software re-implementation of NCAP (Alian et al., HPCA 2017), the
 * paper's main state-of-the-art comparison (Section 6.3).
 *
 * NCAP watches the NIC: it classifies latency-critical request packets
 * and measures their arrival rate each monitoring period. When the rate
 * exceeds a threshold it maximises the V/F of *all* cores (chip-wide
 * DVFS) and — in the original variant — disables the sleep states;
 * when the rate falls it steps the chip-wide V/F down gradually until
 * it reaches the utilisation governor's level, then hands control back.
 * The paper's software version uses a slightly longer monitoring period
 * than the HPCA hardware, which we default to 1 ms.
 *
 * NCAP-menu is the same policy with the sleep-state override turned
 * off (menu governor stays active).
 */

#ifndef NMAPSIM_BASELINES_NCAP_HH_
#define NMAPSIM_BASELINES_NCAP_HH_

#include <memory>

#include "governors/freq_governor.hh"
#include "governors/ondemand.hh"
#include "governors/switchable_idle.hh"
#include "net/nic.hh"
#include "os/cpuidle.hh"
#include "sim/event_queue.hh"

namespace nmapsim {

/** NCAP tunables. */
struct NcapConfig
{
    Tick monitorPeriod = microseconds(500); //!< software-version period
                                            //!< (tuned to meet the SLO
                                            //!< at high load, 6.3)
    double rpsThreshold = 10e3; //!< latency-critical RPS burst trigger
    bool disableSleepOnBurst = true; //!< false for NCAP-menu

    /** The `ncap.*` params schema (harness/policy_params.hh). */
    template <typename Key>
    void
    visit(Key &&key)
    {
        key("ncap.monitor_period", monitorPeriod);
        key("ncap.rps_threshold", rpsThreshold);
    }
};

/** Chip-wide, NIC-driven power manager. */
class NcapGovernor : public FreqGovernor
{
  public:
    NcapGovernor(EventQueue &eq, std::vector<Core *> cores, Nic &nic,
                 const NcapConfig &config,
                 const GovernorConfig &gov_config = {});
    ~NcapGovernor() override;

    void start() override;

    std::string
    name() const override
    {
        return config_.disableSleepOnBurst ? "NCAP" : "NCAP-menu";
    }

    /** The sleep-state override NCAP drives; attach it as the OS's
     *  idle governor (wrap your menu instance). May stay null for
     *  NCAP-menu. */
    void setIdleOverride(SwitchableIdleGovernor *ovr) { idleOvr_ = ovr; }

    bool burstMode() const { return burstMode_; }
    int chipPState() const { return chipIdx_; }

    OndemandGovernor &fallback() { return *fallback_; }

  private:
    void onPacket();
    void tick();
    void applyChipWide(int idx);

    EventQueue &eq_;
    std::vector<Core *> cores_;
    NcapConfig config_;
    std::unique_ptr<OndemandGovernor> fallback_;
    SwitchableIdleGovernor *idleOvr_ = nullptr;

    std::uint64_t windowCount_ = 0;
    bool burstMode_ = false;
    int chipIdx_ = 0;

    EventFunctionWrapper tickEvent_;
};

} // namespace nmapsim

#endif // NMAPSIM_BASELINES_NCAP_HH_

/**
 * @file
 * The DVFS controller of Parties (Chen et al., ASPLOS 2019), as used in
 * the paper's Section 6.3 long-term comparison (Fig. 16).
 *
 * Parties is a feedback controller: every 500 ms it obtains the tail
 * latency measured at the clients and computes the slack against the
 * SLO. Negative slack raises the chip-wide V/F (more steps the worse
 * the violation); comfortable slack lowers it one step. The long
 * decision interval is inherent — tail latency must be accumulated from
 * clients — and is exactly why it cannot track 100 ms-scale bursts.
 */

#ifndef NMAPSIM_BASELINES_PARTIES_HH_
#define NMAPSIM_BASELINES_PARTIES_HH_

#include "governors/freq_governor.hh"
#include "sim/event_queue.hh"
#include "workload/client.hh"

namespace nmapsim {

/** Parties tunables. */
struct PartiesConfig
{
    Tick interval = milliseconds(500); //!< decision period (paper 6.3)
    Tick slo = milliseconds(1); //!< target P99; as a key, 0 = app SLO
    double downSlack = 0.35; //!< slack above which V/F steps down
    double upAggression = 1.0; //!< extra up-steps per unit of violation

    /** The `parties.*` params schema (harness/policy_params.hh). */
    template <typename Key>
    void
    visit(Key &&key)
    {
        key("parties.interval", interval);
        key("parties.slo", slo);
        key("parties.down_slack", downSlack);
        key("parties.up_aggression", upAggression);
    }
};

/** Slack-driven chip-wide DVFS controller. */
class PartiesGovernor : public FreqGovernor
{
  public:
    PartiesGovernor(EventQueue &eq, std::vector<Core *> cores,
                    Client &client, const PartiesConfig &config);
    ~PartiesGovernor() override;

    void start() override;
    std::string name() const override { return "Parties"; }

    int chipPState() const { return chipIdx_; }

    /** Slack computed at the last decision, in fractions of the SLO. */
    double lastSlack() const { return lastSlack_; }

  private:
    void tick();
    void applyChipWide(int idx);

    EventQueue &eq_;
    std::vector<Core *> cores_;
    Client &client_;
    PartiesConfig config_;

    int chipIdx_ = 0;
    double lastSlack_ = 0.0;

    EventFunctionWrapper tickEvent_;
};

} // namespace nmapsim

#endif // NMAPSIM_BASELINES_PARTIES_HH_

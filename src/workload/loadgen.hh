/**
 * @file
 * Open-loop bursty load generator.
 *
 * Reproduces the traffic structure of the paper's Section 3.1: the
 * client emits repetitive macro-bursts (ON windows at the configured
 * request rate) separated by idle periods, and inside a burst requests
 * leave in per-connection trains — a geometric number of back-to-back
 * requests on one connection — so one server core sees a line-rate
 * packet clump per train. Open loop: request emission never waits for
 * responses, which is what lets queues (and tail latency) blow up when
 * the server falls behind.
 */

#ifndef NMAPSIM_WORKLOAD_LOADGEN_HH_
#define NMAPSIM_WORKLOAD_LOADGEN_HH_

#include <memory>

#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/time.hh"
#include "workload/app_profile.hh"
#include "workload/client.hh"

namespace nmapsim {

/** Macro-burst (ON/OFF) envelope of the traffic. */
struct BurstConfig
{
    Tick period = milliseconds(100); //!< burst repetition period
    Tick onTime = milliseconds(40);  //!< burst duration within a period

    bool operator==(const BurstConfig &) const = default;
};

/** Drives a Client with bursty open-loop traffic. */
class LoadGenerator
{
  public:
    LoadGenerator(EventQueue &eq, Client &client,
                  const BurstConfig &burst, Rng rng);
    ~LoadGenerator();

    LoadGenerator(const LoadGenerator &) = delete;
    LoadGenerator &operator=(const LoadGenerator &) = delete;

    /** Set the in-burst request rate and train size; effective now. */
    void setLoad(double rps, double train_mean);
    void setLoad(const LoadLevelSpec &spec);

    /**
     * Skew the per-connection traffic distribution. 0 (default) picks
     * connections uniformly (RSS spreads load evenly, the paper's
     * setup); larger values concentrate trains onto low-numbered
     * connections (and therefore onto a subset of cores), the regime
     * where per-core DVFS beats chip-wide (bench/ablation_chipwide).
     */
    void setConnectionSkew(double skew);

    /** Begin the ON/OFF cycle (first ON starts immediately). */
    void start();

    /** Stop emitting (pending trains are cancelled). */
    void stop();

    /** True when @p t falls inside an ON window. */
    bool inBurst(Tick t) const;

    double rps() const { return rps_; }

  private:
    void scheduleNextTrain();
    void onTrain();

    EventQueue &eq_;
    Client &client_;
    BurstConfig burst_;
    Rng rng_;

    double rps_ = 0.0;
    double trainMean_ = 1.0;
    double connSkew_ = 0.0;
    Tick origin_ = 0;
    bool running_ = false;

    EventFunctionWrapper trainEvent_;
};

} // namespace nmapsim

#endif // NMAPSIM_WORKLOAD_LOADGEN_HH_

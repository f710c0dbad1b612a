/**
 * @file
 * Built-in dataplane sleep policies.
 *
 * `spin` is the DPDK default: the poll core never sleeps, burning a
 * full core per poll thread for the lowest possible latency. It is the
 * upper anchor of the energy-vs-latency frontier.
 *
 * `metronome` models Metronome's intermittent sleep-based packet
 * retrieval (arxiv 2103.13263): instead of busy-waiting between
 * arrivals, the poll thread sleeps for an adaptively-controlled
 * duration and harvests whatever accumulated when it wakes. The
 * controller targets a ring-occupancy setpoint — backlog above the
 * setpoint shrinks the sleep multiplicatively (catch up), backlog at
 * or below it grows the sleep (save energy), both clamped to
 * [min_sleep, max_sleep]. The paper's multi-thread variant hands out
 * "tickets" so N threads share the polling duty; with the duty rotated
 * the effective gap between polls is sleep/tickets, which is how the
 * `metronome.tickets` tunable enters the model.
 *
 * Both policies are pure functions of poll history — no RNG, no wall
 * clock — so bypass runs stay byte-reproducible.
 */

#include <algorithm>
#include <memory>

#include "dataplane/policy.hh"
#include "sim/logging.hh"
#include "sim/time.hh"

namespace nmapsim {
namespace {

/** Pure busy polling: never sleep, poll again immediately. */
class SpinPolicy : public DataplanePolicy
{
  public:
    Tick
    sleepAfterPoll(const DataplanePollStats &) override
    {
        return 0;
    }
};

std::unique_ptr<DataplanePolicy>
makeSpinPolicy(const DataplaneContext &)
{
    return std::make_unique<SpinPolicy>();
}

REGISTER_DATAPLANE_POLICY(
    "spin", &makeSpinPolicy,
    "DPDK-style pure busy poll; poll cores never sleep");

/** Metronome's tunables, the `metronome.*` params schema
 *  (harness/policy_params.hh). */
struct MetronomeConfig
{
    Tick minSleep = microseconds(1);
    Tick maxSleep = microseconds(64);
    double setpoint = 16.0; //!< ring-occupancy target
    double grow = 1.5;      //!< sleep multiplier at or below setpoint
    double shrink = 0.5;    //!< sleep multiplier above setpoint
    int tickets = 1;        //!< threads sharing the polling duty

    template <typename Key>
    void
    visit(Key &&key)
    {
        key("metronome.min_sleep", minSleep);
        key("metronome.max_sleep", maxSleep);
        key("metronome.setpoint", setpoint);
        key("metronome.grow", grow);
        key("metronome.shrink", shrink);
        key("metronome.tickets", tickets);
    }
};

MetronomeConfig
metronomeParams(const PolicyParams &params)
{
    MetronomeConfig config;
    readParams(params, "metronome", config);
    if (config.minSleep <= 0)
        fatal("metronome.min_sleep must be > 0");
    if (config.maxSleep < config.minSleep)
        fatal("metronome.max_sleep must be >= metronome.min_sleep");
    if (config.setpoint <= 0.0)
        fatal("metronome.setpoint must be > 0");
    if (config.grow <= 1.0)
        fatal("metronome.grow must be > 1");
    if (config.shrink <= 0.0 || config.shrink >= 1.0)
        fatal("metronome.shrink must be in (0, 1)");
    if (config.tickets < 1)
        fatal("metronome.tickets must be >= 1");
    return config;
}

REGISTER_PARAMS("metronome", &metronomeParams, "Metronome sleep control");

/** Metronome's adaptive intermittent sleep (arxiv 2103.13263). */
class MetronomePolicy : public DataplanePolicy
{
  public:
    explicit MetronomePolicy(const MetronomeConfig &config)
        : config_(config), sleep_(static_cast<double>(config.maxSleep))
    {
    }

    Tick
    sleepAfterPoll(const DataplanePollStats &stats) override
    {
        // Multiplicative control toward the occupancy setpoint: leftover
        // backlog means we slept too long, an under-full batch means we
        // can afford a longer nap.
        double occupancy = static_cast<double>(stats.ringOccupancy) +
                           static_cast<double>(stats.harvestedRx);
        if (occupancy > config_.setpoint)
            sleep_ *= config_.shrink;
        else
            sleep_ *= config_.grow;
        sleep_ = std::clamp(sleep_, static_cast<double>(config_.minSleep),
                            static_cast<double>(config_.maxSleep));
        // With N ticket-holding threads rotating the polling duty, the
        // per-thread sleep stays `sleep_` but the ring is visited every
        // sleep_/N — model the visit rate, which is what latency sees.
        return std::max<Tick>(1, static_cast<Tick>(sleep_) /
                                     static_cast<Tick>(config_.tickets));
    }

  private:
    const MetronomeConfig config_;
    double sleep_;
};

std::unique_ptr<DataplanePolicy>
makeMetronomePolicy(const DataplaneContext &ctx)
{
    return std::make_unique<MetronomePolicy>(metronomeParams(ctx.params));
}

REGISTER_DATAPLANE_POLICY(
    "metronome", &makeMetronomePolicy,
    "Metronome intermittent sleep: adaptive sleep toward a "
    "ring-occupancy setpoint (arxiv 2103.13263)");

} // namespace

} // namespace nmapsim

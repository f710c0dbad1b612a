/**
 * @file
 * Core sleep-state (C-state) controller.
 *
 * Models CC0 (active), CC1 (clock gated) and CC6 (deep sleep, private
 * caches flushed). Waking from a state costs the Table 2 exit latency;
 * waking from CC6 additionally costs a private-cache refill penalty
 * (Section 5.2), scaled by how much of the cache the workload actually
 * touches. The controller also tracks per-state residency, which both the
 * power model and the intel_powersave governor (C0-residency based
 * utilisation) consume.
 */

#ifndef NMAPSIM_CPU_CSTATE_HH_
#define NMAPSIM_CPU_CSTATE_HH_

#include <array>
#include <cstdint>

#include "cpu/cpu_profile.hh"
#include "sim/rng.hh"
#include "sim/time.hh"
#include "stats/timeseries.hh"

namespace nmapsim {

/** Core sleep states, shallow to deep. */
enum class CState : int
{
    kC0 = 0, //!< active
    kC1 = 1, //!< halted / clock gated
    kC6 = 2, //!< powered off, private caches flushed
};

/** Tracks one core's sleep state, wake latencies and residencies. */
class CStateController
{
  public:
    /**
     * @param profile       processor calibration (exit latencies, refill)
     * @param rng           private random stream for latency noise
     * @param cache_touch   fraction of the flushed private cache the
     *                      workload re-reads after a CC6 wake ([0, 1])
     */
    CStateController(const CpuProfile &profile, Rng rng,
                     double cache_touch = 1.0);

    /** Enter sleep state @p s at time @p now; must currently be in C0. */
    void enterSleep(CState s, Tick now);

    /**
     * Deepen the current sleep state to @p s without waking (cpuidle
     * promotion: an idle period outlasting the shallow prediction is
     * re-evaluated and demoted into a deeper state). No-op unless the
     * core is asleep in a shallower state than @p s.
     */
    void deepen(CState s, Tick now);

    /**
     * Wake the core at @p now; returns the wake-up penalty in ticks
     * (exit latency, plus the cache-refill share after CC6). The core is
     * in C0 once the caller has charged the returned penalty.
     */
    Tick wake(Tick now);

    CState state() const { return state_; }
    bool sleeping() const { return state_ != CState::kC0; }

    /** Cumulative residency of state @p s up to @p now. */
    Tick residency(CState s, Tick now) const;

    /** Ticks at which the core entered CC6 (Fig. 7 trace). */
    const EventMarkSeries &cc6Entries() const { return cc6Entries_; }

    /** Number of wake-ups from each state. */
    std::uint64_t wakeCount(CState s) const;

  private:
    void accumulate(Tick now);

    const CpuProfile &profile_;
    Rng rng_;
    double cacheTouch_;

    CState state_ = CState::kC0;
    Tick lastChange_ = 0;
    std::array<Tick, 3> residency_{};
    std::array<std::uint64_t, 3> wakes_{};
    EventMarkSeries cc6Entries_;
};

} // namespace nmapsim

#endif // NMAPSIM_CPU_CSTATE_HH_

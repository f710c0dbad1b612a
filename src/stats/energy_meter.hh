/**
 * @file
 * RAPL-style integrating energy meter.
 *
 * Components report power-level changes as they happen; the meter
 * integrates power over simulated time. The package meter sums the
 * per-core meters and the uncore meter, mirroring how the paper reads
 * the RAPL package counter.
 */

#ifndef NMAPSIM_STATS_ENERGY_METER_HH_
#define NMAPSIM_STATS_ENERGY_METER_HH_

#include <cstddef>
#include <vector>

#include "sim/time.hh"

namespace nmapsim {

/** Integrates a piecewise-constant power signal into joules. */
class EnergyMeter
{
  public:
    /**
     * Report that from @p now onwards the measured domain draws
     * @p watts. Ticks before the previous call are charged at the
     * previous level. @p now must not decrease across calls.
     */
    void setPower(Tick now, double watts);

    /** Current power level in watts. */
    double power() const { return watts_; }

    /** Energy accumulated up to @p now, in joules. */
    double energyJoules(Tick now) const;

  private:
    double joules_ = 0.0;
    double watts_ = 0.0;
    Tick lastUpdate_ = 0;
};

/**
 * Sums several EnergyMeters; the analogue of the RAPL package-energy
 * counter the paper reports.
 */
class PackageEnergyMeter
{
  public:
    /** Register a per-core meter; the pointer must outlive this object. */
    void addMeter(const EnergyMeter *meter) { meters_.push_back(meter); }

    /** Total package energy accumulated from startMeasurement() to
     *  @p now. */
    double energyJoules(Tick now) const;

    /** Begin measuring at @p now (discards earlier accumulation). */
    void startMeasurement(Tick now);

  private:
    std::vector<const EnergyMeter *> meters_;
    std::vector<double> baseline_;
};

} // namespace nmapsim

#endif // NMAPSIM_STATS_ENERGY_METER_HH_

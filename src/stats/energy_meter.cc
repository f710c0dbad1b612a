#include "stats/energy_meter.hh"

#include "sim/logging.hh"

namespace nmapsim {

void
EnergyMeter::setPower(Tick now, double watts)
{
    if (now < lastUpdate_)
        panic("EnergyMeter::setPower: time went backwards");
    joules_ += watts_ * toSeconds(now - lastUpdate_);
    watts_ = watts;
    lastUpdate_ = now;
}

double
EnergyMeter::energyJoules(Tick now) const
{
    double j = joules_;
    if (now > lastUpdate_)
        j += watts_ * toSeconds(now - lastUpdate_);
    return j;
}

double
PackageEnergyMeter::energyJoules(Tick now) const
{
    double j = 0.0;
    for (std::size_t i = 0; i < meters_.size(); ++i) {
        double base = i < baseline_.size() ? baseline_[i] : 0.0;
        j += meters_[i]->energyJoules(now) - base;
    }
    return j;
}

void
PackageEnergyMeter::startMeasurement(Tick now)
{
    baseline_.clear();
    baseline_.reserve(meters_.size());
    for (const EnergyMeter *m : meters_)
        baseline_.push_back(m->energyJoules(now));
}

} // namespace nmapsim

/**
 * @file
 * Unit tests for the integrating energy meters.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"
#include "sim/time.hh"
#include "stats/energy_meter.hh"

namespace nmapsim {
namespace {

TEST(EnergyMeterTest, ConstantPowerIntegratesLinearly)
{
    EnergyMeter m;
    m.setPower(0, 10.0); // 10 W
    EXPECT_DOUBLE_EQ(m.energyJoules(seconds(1)), 10.0);
    EXPECT_DOUBLE_EQ(m.energyJoules(seconds(2.5)), 25.0);
}

TEST(EnergyMeterTest, PiecewiseConstantPower)
{
    EnergyMeter m;
    m.setPower(0, 10.0);
    m.setPower(seconds(1), 2.0);
    // 10 J in the first second, then 2 W.
    EXPECT_DOUBLE_EQ(m.energyJoules(seconds(1)), 10.0);
    EXPECT_DOUBLE_EQ(m.energyJoules(seconds(3)), 14.0);
}

TEST(EnergyMeterTest, PowerReadback)
{
    EnergyMeter m;
    m.setPower(0, 7.5);
    EXPECT_DOUBLE_EQ(m.power(), 7.5);
}

TEST(EnergyMeterTest, TimeGoingBackwardsPanics)
{
    EnergyMeter m;
    m.setPower(seconds(1), 5.0);
    EXPECT_THROW(m.setPower(0, 1.0), PanicError);
}

TEST(PackageEnergyMeterTest, SumsRegisteredMeters)
{
    EnergyMeter core0;
    EnergyMeter core1;
    core0.setPower(0, 5.0);
    core1.setPower(0, 3.0);

    PackageEnergyMeter pkg;
    pkg.addMeter(&core0);
    pkg.addMeter(&core1);
    pkg.startMeasurement(0);
    EXPECT_DOUBLE_EQ(pkg.energyJoules(seconds(1)), 8.0);
}

TEST(PackageEnergyMeterTest, StartMeasurementDiscardsHistory)
{
    EnergyMeter core0;
    core0.setPower(0, 100.0); // expensive warm-up

    PackageEnergyMeter pkg;
    pkg.addMeter(&core0);
    pkg.startMeasurement(seconds(1));
    core0.setPower(seconds(1), 1.0);
    EXPECT_DOUBLE_EQ(pkg.energyJoules(seconds(2)), 1.0);
}

} // namespace
} // namespace nmapsim

/**
 * @file
 * Simulated time representation for nmapsim.
 *
 * The simulator measures time in integer nanoseconds ("ticks"). One tick
 * is one nanosecond; helpers convert between human units and ticks. All
 * durations and absolute times in the code base use the Tick type so unit
 * mistakes surface as type-free integer arithmetic in exactly one place.
 */

#ifndef NMAPSIM_SIM_TIME_HH_
#define NMAPSIM_SIM_TIME_HH_

#include <cstdint>

namespace nmapsim {

/** Absolute simulated time or a duration, in nanoseconds. */
using Tick = std::int64_t;

/** One nanosecond expressed in ticks. */
inline constexpr Tick kNanosecond = 1;
/** One microsecond expressed in ticks. */
inline constexpr Tick kMicrosecond = 1000 * kNanosecond;
/** One millisecond expressed in ticks. */
inline constexpr Tick kMillisecond = 1000 * kMicrosecond;
/** One second expressed in ticks. */
inline constexpr Tick kSecond = 1000 * kMillisecond;

/** Convert a value in nanoseconds to ticks. */
constexpr Tick
nanoseconds(double ns)
{
    return static_cast<Tick>(ns * kNanosecond);
}

/** Convert a value in microseconds to ticks. */
constexpr Tick
microseconds(double us)
{
    return static_cast<Tick>(us * kMicrosecond);
}

/** Convert a value in milliseconds to ticks. */
constexpr Tick
milliseconds(double ms)
{
    return static_cast<Tick>(ms * kMillisecond);
}

/** Convert a value in seconds to ticks. */
constexpr Tick
seconds(double s)
{
    return static_cast<Tick>(s * kSecond);
}

/** Convert ticks to floating-point seconds. */
constexpr double
toSeconds(Tick t)
{
    return static_cast<double>(t) / kSecond;
}

/** Convert ticks to floating-point milliseconds. */
constexpr double
toMilliseconds(Tick t)
{
    return static_cast<double>(t) / kMillisecond;
}

/** Convert ticks to floating-point microseconds. */
constexpr double
toMicroseconds(Tick t)
{
    return static_cast<double>(t) / kMicrosecond;
}

/**
 * Duration in ticks needed to execute @p cycles cycles at frequency
 * @p freq_hz, rounded up so that work never completes early.
 */
constexpr Tick
ticksForCycles(double cycles, double freq_hz)
{
    double ns = cycles / freq_hz * 1e9;
    Tick t = static_cast<Tick>(ns);
    return (static_cast<double>(t) < ns) ? t + 1 : t;
}

} // namespace nmapsim

#endif // NMAPSIM_SIM_TIME_HH_

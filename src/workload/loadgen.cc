#include "workload/loadgen.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace nmapsim {

LoadGenerator::LoadGenerator(EventQueue &eq, Client &client,
                             const BurstConfig &burst, Rng rng)
    : eq_(eq), client_(client), burst_(burst), rng_(rng),
      trainEvent_([this] { onTrain(); }, "loadgen.train")
{
    if (burst_.period <= 0 || burst_.onTime <= 0 ||
        burst_.onTime > burst_.period)
        fatal("LoadGenerator: invalid burst envelope");
}

LoadGenerator::~LoadGenerator()
{
    eq_.deschedule(&trainEvent_);
}

void
LoadGenerator::setLoad(double rps, double train_mean)
{
    if (rps < 0.0 || train_mean < 1.0)
        fatal("LoadGenerator: invalid load parameters");
    rps_ = rps;
    trainMean_ = train_mean;
    if (running_) {
        eq_.deschedule(&trainEvent_);
        scheduleNextTrain();
    }
}

void
LoadGenerator::setLoad(const LoadLevelSpec &spec)
{
    if (spec.duty <= 0.0 || spec.duty > 1.0)
        fatal("LoadGenerator: duty cycle must be in (0, 1]");
    burst_.onTime = std::max<Tick>(
        1, static_cast<Tick>(spec.duty *
                             static_cast<double>(burst_.period)));
    setLoad(spec.rps, spec.trainMean);
}

void
LoadGenerator::start()
{
    origin_ = eq_.now();
    running_ = true;
    scheduleNextTrain();
}

void
LoadGenerator::stop()
{
    running_ = false;
    eq_.deschedule(&trainEvent_);
}

bool
LoadGenerator::inBurst(Tick t) const
{
    if (t < origin_)
        return false;
    Tick pos = (t - origin_) % burst_.period;
    return pos < burst_.onTime;
}

void
LoadGenerator::scheduleNextTrain()
{
    if (!running_ || rps_ <= 0.0)
        return;
    // Poisson train arrivals at rate rps/trainMean during ON windows.
    double mean_gap_s = trainMean_ / rps_;
    Tick gap = std::max<Tick>(
        1, static_cast<Tick>(rng_.exponential(mean_gap_s) * kSecond));
    Tick t = eq_.now() + gap;
    // Project times landing in an OFF window onto the next ON start.
    Tick pos = (t - origin_) % burst_.period;
    if (pos >= burst_.onTime)
        t += burst_.period - pos;
    eq_.schedule(&trainEvent_, t);
}

void
LoadGenerator::setConnectionSkew(double skew)
{
    if (skew < 0.0)
        fatal("LoadGenerator: connection skew must be >= 0");
    connSkew_ = skew;
}

void
LoadGenerator::onTrain()
{
    auto size = rng_.geometric(1.0 / trainMean_);
    int n = client_.numConnections();
    int conn;
    if (connSkew_ <= 0.0) {
        conn = static_cast<int>(rng_.uniformInt(0, n - 1));
    } else {
        // Power-law pick: u^(1+skew) concentrates mass on connection 0.
        double u = rng_.uniform();
        double biased = std::pow(u, 1.0 + connSkew_);
        conn = std::min(n - 1, static_cast<int>(
                                   biased * static_cast<double>(n)));
    }
    for (std::int64_t i = 0; i < size; ++i)
        client_.sendRequest(conn);
    scheduleNextTrain();
}

} // namespace nmapsim

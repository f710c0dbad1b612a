#include "harness/sweep.hh"

#include <algorithm>
#include <cstdlib>

namespace nmapsim {

int
resolveJobs(int jobs, std::size_t num_points)
{
    if (jobs <= 0) {
        if (const char *env = std::getenv("NMAPSIM_JOBS"))
            jobs = std::atoi(env);
    }
    if (jobs <= 0) {
        unsigned hw = std::thread::hardware_concurrency();
        jobs = hw == 0 ? 1 : static_cast<int>(hw);
    }
    if (num_points > 0 &&
        static_cast<std::size_t>(jobs) > num_points)
        jobs = static_cast<int>(num_points);
    return std::max(jobs, 1);
}

bool
sweepProgressEnabled()
{
    const char *env = std::getenv("NMAPSIM_SWEEP_QUIET");
    return env == nullptr || std::atoi(env) == 0;
}

SweepRunner::SweepRunner(SweepOptions opts) : opts_(std::move(opts)) {}

std::vector<SweepOutcome>
SweepRunner::run(const std::vector<ExperimentConfig> &points) const
{
    std::vector<std::function<ExperimentResult()>> tasks;
    tasks.reserve(points.size());
    for (const ExperimentConfig &cfg : points)
        tasks.emplace_back([&cfg] { return Experiment(cfg).run(); });
    return runParallel(tasks, opts_);
}

std::vector<SweepSlot<std::pair<double, double>>>
SweepRunner::profile(const std::vector<ExperimentConfig> &points) const
{
    std::vector<std::function<std::pair<double, double>()>> tasks;
    tasks.reserve(points.size());
    for (const ExperimentConfig &cfg : points)
        tasks.emplace_back(
            [&cfg] { return Experiment::profileThresholds(cfg); });
    SweepOptions opts = opts_;
    opts.tag = opts_.tag + "/profile";
    return runParallel(tasks, opts);
}

std::vector<ExperimentConfig>
SweepSpec::build() const
{
    std::vector<ExperimentConfig> points;
    points.reserve(numPoints());
    for (std::size_t pi = 0; pi < numPolicies(); ++pi) {
        for (std::size_t ii = 0; ii < numIdlePolicies(); ++ii) {
            for (std::size_t li = 0; li < numLoads(); ++li) {
                for (std::size_t ri = 0; ri < numRps(); ++ri) {
                    for (std::size_t si = 0; si < numSeeds(); ++si) {
                        ExperimentConfig cfg = base_;
                        if (!policies_.empty())
                            cfg.freqPolicy = policies_[pi];
                        if (!idles_.empty())
                            cfg.idlePolicy = idles_[ii];
                        if (!loads_.empty())
                            cfg.load = loads_[li];
                        if (!rps_.empty())
                            cfg.rpsOverride = rps_[ri];
                        if (!seeds_.empty())
                            cfg.seed = seeds_[si];
                        points.push_back(std::move(cfg));
                    }
                }
            }
        }
    }
    return points;
}

} // namespace nmapsim

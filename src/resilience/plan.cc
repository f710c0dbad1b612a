#include "resilience/plan.hh"

#include "sim/logging.hh"
#include "sim/registry.hh"

namespace nmapsim {
namespace {

constexpr const char *kKnownKeys[] = {
    "resilience.admission",          "resilience.admit_target",
    "resilience.admit_interval",     "resilience.admit_rate",
    "resilience.admit_burst",        "resilience.retry_budget",
    "resilience.retry_min",          "resilience.retry_cap",
    "resilience.breaker_window",     "resilience.breaker_threshold",
    "resilience.breaker_min_volume", "resilience.breaker_open",
    "resilience.breaker_trials",     "resilience.deadline",
};

bool
isKnownResilienceKey(const std::string &key)
{
    for (const char *known : kKnownKeys)
        if (key == known)
            return true;
    return false;
}

void
validate(const ResiliencePlan &plan)
{
    // Names resolve case-insensitively, as in the registry.
    if (equalsIgnoreCase(plan.admission, "queue-deadline")) {
        if (plan.admitTarget <= 0)
            fatal("resilience.admit_target must be positive for "
                  "queue-deadline admission");
        if (plan.admitInterval <= 0)
            fatal("resilience.admit_interval must be positive for "
                  "queue-deadline admission");
    }
    if (equalsIgnoreCase(plan.admission, "token-bucket")) {
        if (plan.admitRate <= 0.0)
            fatal("resilience.admit_rate must be positive for "
                  "token-bucket admission");
        if (plan.admitBurst < 1.0)
            fatal("resilience.admit_burst must be >= 1");
    }
    if (plan.admitTarget < 0 || plan.admitInterval < 0)
        fatal("resilience.admit_target/admit_interval must be >= 0");

    if (plan.retryBudget < 0.0 || plan.retryBudget > 1.0)
        fatal("resilience.retry_budget must be in [0, 1]");
    if (plan.wantsRetryBudget()) {
        if (plan.retryMin < 0)
            fatal("resilience.retry_min must be >= 0");
        if (plan.retryCap < 1.0)
            fatal("resilience.retry_cap must be >= 1");
    }

    if (plan.breakerWindow < 0)
        fatal("resilience.breaker_window must be >= 0");
    if (plan.wantsBreakers()) {
        if (plan.breakerThreshold <= 0.0 || plan.breakerThreshold > 1.0)
            fatal("resilience.breaker_threshold must be in (0, 1]");
        if (plan.breakerMinVolume < 1)
            fatal("resilience.breaker_min_volume must be >= 1");
        if (plan.breakerOpen <= 0)
            fatal("resilience.breaker_open must be positive");
        if (plan.breakerTrials < 1)
            fatal("resilience.breaker_trials must be >= 1");
    }

    if (plan.deadline < 0)
        fatal("resilience.deadline must be >= 0");
}

} // namespace

bool
ResiliencePlan::enabled() const
{
    return wantsAdmission() || wantsRetryBudget() || wantsBreakers() ||
           wantsDeadline();
}

ResiliencePlan
ResiliencePlan::fromParams(const PolicyParams &params)
{
    for (const auto &[key, value] : params) {
        if (key.rfind("resilience.", 0) == 0 &&
            !isKnownResilienceKey(key))
            fatal("unknown resilience key '" + key + "'");
    }

    ResiliencePlan plan;
    plan.admission = params.raw("resilience.admission");
    plan.admitTarget =
        params.getTick("resilience.admit_target", milliseconds(1));
    plan.admitInterval =
        params.getTick("resilience.admit_interval", milliseconds(10));
    plan.admitRate = params.getDouble("resilience.admit_rate", 0.0);
    plan.admitBurst = params.getDouble("resilience.admit_burst", 16.0);
    plan.retryBudget = params.getDouble("resilience.retry_budget", 0.0);
    plan.retryMin = params.getInt("resilience.retry_min", 10);
    plan.retryCap = params.getDouble("resilience.retry_cap", 100.0);
    plan.breakerWindow =
        params.getTick("resilience.breaker_window", 0);
    plan.breakerThreshold =
        params.getDouble("resilience.breaker_threshold", 0.5);
    plan.breakerMinVolume =
        params.getInt("resilience.breaker_min_volume", 10);
    plan.breakerOpen =
        params.getTick("resilience.breaker_open", plan.breakerWindow);
    plan.breakerTrials = params.getInt("resilience.breaker_trials", 3);
    plan.deadline = params.getTick("resilience.deadline", 0);

    if (!plan.wantsAdmission() &&
        (params.has("resilience.admit_target") ||
         params.has("resilience.admit_interval") ||
         params.has("resilience.admit_rate") ||
         params.has("resilience.admit_burst")))
        fatal("resilience.admit_* keys require resilience.admission");
    if (!plan.wantsRetryBudget() &&
        (params.has("resilience.retry_min") ||
         params.has("resilience.retry_cap")))
        fatal("resilience.retry_min/retry_cap require "
              "resilience.retry_budget");
    if (!plan.wantsBreakers() &&
        (params.has("resilience.breaker_threshold") ||
         params.has("resilience.breaker_min_volume") ||
         params.has("resilience.breaker_open") ||
         params.has("resilience.breaker_trials")))
        fatal("resilience.breaker_* keys require "
              "resilience.breaker_window");
    validate(plan);
    return plan;
}

} // namespace nmapsim

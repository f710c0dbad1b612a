#include "resilience/plan.hh"

#include "sim/logging.hh"
#include "sim/registry.hh"

namespace nmapsim {
namespace {

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

    if (plan.retryBudget < 0.0 || plan.retryBudget > 1.0)
        fatal("resilience.retry_budget must be in [0, 1]");
    if (plan.wantsRetryBudget()) {
        if (plan.retryMin < 0)
            fatal("resilience.retry_min must be >= 0");
        if (plan.retryCap < 1.0)
            fatal("resilience.retry_cap must be >= 1");
    }

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
    ResiliencePlan plan;
    readParams(params, "resilience", plan);
    if (!params.has("resilience.breaker_open"))
        plan.breakerOpen = plan.breakerWindow;

    // A mechanism's knobs without the key that arms it are a typo.
    for (const auto &[key, value] : params) {
        if (!plan.wantsAdmission() && key.rfind("resilience.admit_", 0) == 0)
            fatal("resilience.admit_* keys require resilience.admission");
        if (!plan.wantsRetryBudget() &&
            (key == "resilience.retry_min" || key == "resilience.retry_cap"))
            fatal("resilience.retry_min/retry_cap require "
                  "resilience.retry_budget");
        if (!plan.wantsBreakers() &&
            key.rfind("resilience.breaker_", 0) == 0 &&
            key != "resilience.breaker_window")
            fatal("resilience.breaker_* keys require "
                  "resilience.breaker_window");
    }
    validate(plan);
    return plan;
}

REGISTER_PARAMS("resilience", &ResiliencePlan::fromParams, "overload control");

} // namespace nmapsim

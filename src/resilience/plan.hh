/**
 * @file
 * Declarative overload-control plan: how the rig sheds, budgets and
 * short-circuits work when demand outruns capacity.
 *
 * A ResiliencePlan is parsed from the ordinary key=value config
 * pipeline (`resilience.*` namespace in ExperimentConfig::params),
 * validated once, and handed to the components that execute it: the
 * server app consults an AdmissionPolicy at the ingress queue, the
 * client throttles retransmissions through a retry budget, the cluster
 * switch runs per-host circuit breakers, and every forwarding hop
 * sheds requests already past their propagated deadline. The plan
 * holds no state and draws no randomness, so identical (seed, plan)
 * pairs replay byte-identically.
 *
 * An empty plan (`enabled() == false`) is the zero-resilience bypass:
 * no admission policy is constructed, no breaker state is allocated,
 * and the simulation is bit-for-bit the same as before the resilience
 * subsystem existed.
 */

#ifndef NMAPSIM_RESILIENCE_PLAN_HH_
#define NMAPSIM_RESILIENCE_PLAN_HH_

#include <string>

#include "harness/policy_params.hh"
#include "sim/time.hh"

namespace nmapsim {

/** Validated overload-control plan (see `resilience.*` config keys). */
struct ResiliencePlan {
    /** Admission policy name; empty = no admission control. */
    std::string admission;
    /** queue-deadline: sojourn above this sheds (CoDel target). */
    Tick admitTarget = milliseconds(1);
    /** queue-deadline: how long sojourn must stay high (CoDel interval). */
    Tick admitInterval = milliseconds(10);
    /** token-bucket: sustained admitted requests per second. */
    double admitRate = 0.0;
    /** token-bucket: bucket capacity in requests. */
    double admitBurst = 16.0;

    /** Retry tokens earned per success; 0 disables retry budgets. */
    double retryBudget = 0.0;
    /** Tokens each client group starts with (cold-start allowance). */
    int retryMin = 10;
    /** Ceiling on banked retry tokens. */
    double retryCap = 100.0;

    /** Breaker error-rate window; 0 disables circuit breakers. */
    Tick breakerWindow = 0;
    /** Failure fraction in the window that trips the breaker, (0, 1]. */
    double breakerThreshold = 0.5;
    /** Outcomes the window must hold before the breaker may trip. */
    int breakerMinVolume = 10;
    /** How long an open breaker blocks before probing half-open;
     *  unset, breakerWindow. */
    Tick breakerOpen = 0;
    /** Successful half-open probes required to close again. */
    int breakerTrials = 3;

    /** End-to-end request budget carried across hops; 0 disables. */
    Tick deadline = 0;

    /** True when any mechanism is configured; false = bypass. */
    bool enabled() const;

    bool wantsAdmission() const { return !admission.empty(); }
    bool wantsRetryBudget() const { return retryBudget > 0.0; }
    bool wantsBreakers() const { return breakerWindow > 0; }
    bool wantsDeadline() const { return deadline > 0; }

    /** Read and check the `resilience.*` keys of @p params
     *  (readParams); without them the plan is disabled. */
    static ResiliencePlan fromParams(const PolicyParams &params);

    /** The `resilience.*` params schema (harness/policy_params.hh). */
    template <typename Key>
    void
    visit(Key &&key)
    {
        key("resilience.admission", admission);
        key("resilience.admit_target", admitTarget);
        key("resilience.admit_interval", admitInterval);
        key("resilience.admit_rate", admitRate);
        key("resilience.admit_burst", admitBurst);
        key("resilience.retry_budget", retryBudget);
        key("resilience.retry_min", retryMin);
        key("resilience.retry_cap", retryCap);
        key("resilience.breaker_window", breakerWindow);
        key("resilience.breaker_threshold", breakerThreshold);
        key("resilience.breaker_min_volume", breakerMinVolume);
        key("resilience.breaker_open", breakerOpen);
        key("resilience.breaker_trials", breakerTrials);
        key("resilience.deadline", deadline);
    }
};

} // namespace nmapsim

#endif // NMAPSIM_RESILIENCE_PLAN_HH_

/**
 * @file
 * Unit tests for the overload-control subsystem: ResiliencePlan
 * parsing and validation, the AdmissionPolicyRegistry and its built-in
 * gates (none, queue-deadline, token-bucket), and the CircuitBreaker
 * state machine (error-rate trip, half-open probing, probe re-lease,
 * force-open).
 */

#include <gtest/gtest.h>

#include <memory>

#include "resilience/admission.hh"
#include "resilience/breaker.hh"
#include "resilience/plan.hh"
#include "sim/logging.hh"

namespace nmapsim {
namespace {

// --- ResiliencePlan parsing ----------------------------------------

TEST(ResiliencePlanTest, NoResilienceKeysYieldsDisabledPlan)
{
    PolicyParams params;
    params.set("nmap.ni_th", "400"); // non-resilience keys are ignored
    const ResiliencePlan plan = ResiliencePlan::fromParams(params);
    EXPECT_FALSE(plan.enabled());
    EXPECT_FALSE(plan.wantsAdmission());
    EXPECT_FALSE(plan.wantsRetryBudget());
    EXPECT_FALSE(plan.wantsBreakers());
    EXPECT_FALSE(plan.wantsDeadline());
}

TEST(ResiliencePlanTest, ReadsEveryKey)
{
    PolicyParams params;
    params.set("resilience.admission", "queue-deadline");
    params.setTick("resilience.admit_target", microseconds(500));
    params.setTick("resilience.admit_interval", milliseconds(5));
    params.set("resilience.retry_budget", "0.1");
    params.set("resilience.retry_min", 4);
    params.set("resilience.retry_cap", "50");
    params.setTick("resilience.breaker_window", milliseconds(10));
    params.set("resilience.breaker_threshold", "0.4");
    params.set("resilience.breaker_min_volume", 5);
    params.setTick("resilience.breaker_open", milliseconds(2));
    params.set("resilience.breaker_trials", 2);
    params.setTick("resilience.deadline", milliseconds(3));
    const ResiliencePlan plan = ResiliencePlan::fromParams(params);
    EXPECT_TRUE(plan.enabled());
    EXPECT_EQ(plan.admission, "queue-deadline");
    EXPECT_EQ(plan.admitTarget, microseconds(500));
    EXPECT_EQ(plan.admitInterval, milliseconds(5));
    EXPECT_DOUBLE_EQ(plan.retryBudget, 0.1);
    EXPECT_EQ(plan.retryMin, 4);
    EXPECT_DOUBLE_EQ(plan.retryCap, 50.0);
    EXPECT_EQ(plan.breakerWindow, milliseconds(10));
    EXPECT_DOUBLE_EQ(plan.breakerThreshold, 0.4);
    EXPECT_EQ(plan.breakerMinVolume, 5);
    EXPECT_EQ(plan.breakerOpen, milliseconds(2));
    EXPECT_EQ(plan.breakerTrials, 2);
    EXPECT_EQ(plan.deadline, milliseconds(3));
}

TEST(ResiliencePlanTest, BreakerOpenDefaultsToWindow)
{
    PolicyParams params;
    params.setTick("resilience.breaker_window", milliseconds(7));
    const ResiliencePlan plan = ResiliencePlan::fromParams(params);
    EXPECT_TRUE(plan.wantsBreakers());
    EXPECT_EQ(plan.breakerOpen, milliseconds(7));
}

TEST(ResiliencePlanTest, UnknownResilienceKeyIsFatal)
{
    PolicyParams params;
    params.set("resilience.admision", "none"); // typo
    EXPECT_THROW(ResiliencePlan::fromParams(params), FatalError);
}

TEST(ResiliencePlanTest, AdmitKnobsWithoutAdmissionAreFatal)
{
    PolicyParams params;
    params.setTick("resilience.admit_target", microseconds(100));
    EXPECT_THROW(ResiliencePlan::fromParams(params), FatalError);
}

TEST(ResiliencePlanTest, RetryKnobsWithoutBudgetAreFatal)
{
    PolicyParams params;
    params.set("resilience.retry_min", 4);
    EXPECT_THROW(ResiliencePlan::fromParams(params), FatalError);
}

TEST(ResiliencePlanTest, BreakerKnobsWithoutWindowAreFatal)
{
    PolicyParams params;
    params.set("resilience.breaker_trials", 2);
    EXPECT_THROW(ResiliencePlan::fromParams(params), FatalError);
}

TEST(ResiliencePlanTest, TokenBucketRequiresRate)
{
    PolicyParams params;
    params.set("resilience.admission", "token-bucket");
    EXPECT_THROW(ResiliencePlan::fromParams(params), FatalError);
}

TEST(ResiliencePlanTest, RetryBudgetAboveOneIsFatal)
{
    PolicyParams params;
    params.set("resilience.retry_budget", "1.5");
    EXPECT_THROW(ResiliencePlan::fromParams(params), FatalError);
}

TEST(ResiliencePlanTest, BreakerThresholdAboveOneIsFatal)
{
    PolicyParams params;
    params.setTick("resilience.breaker_window", milliseconds(10));
    params.set("resilience.breaker_threshold", "1.5");
    EXPECT_THROW(ResiliencePlan::fromParams(params), FatalError);
}

// --- AdmissionPolicyRegistry ---------------------------------------

TEST(AdmissionRegistryTest, BuiltinsAreRegistered)
{
    AdmissionPolicyRegistry &reg = AdmissionPolicyRegistry::instance();
    EXPECT_TRUE(reg.has("none"));
    EXPECT_TRUE(reg.has("queue-deadline"));
    EXPECT_TRUE(reg.has("token-bucket"));
    EXPECT_FALSE(reg.has("nope"));
    EXPECT_FALSE(reg.help("queue-deadline").empty());
}

TEST(AdmissionRegistryTest, NamesAreSorted)
{
    const std::vector<std::string> names =
        AdmissionPolicyRegistry::instance().names();
    ASSERT_GE(names.size(), 3u);
    for (std::size_t i = 1; i < names.size(); ++i)
        EXPECT_LT(names[i - 1], names[i]);
}

TEST(AdmissionRegistryTest, UnknownNameIsFatalAndListsKnown)
{
    ResiliencePlan plan;
    try {
        AdmissionPolicyRegistry::instance().make("nope",
                                                 AdmissionContext{plan});
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("unknown admission policy"),
                  std::string::npos);
        EXPECT_NE(msg.find("queue-deadline"), std::string::npos);
    }
}

// --- Built-in admission gates --------------------------------------

std::unique_ptr<AdmissionPolicy>
makeGate(const ResiliencePlan &plan)
{
    return AdmissionPolicyRegistry::instance().make(
        plan.admission, AdmissionContext{plan});
}

TEST(AdmissionGateTest, NoneAdmitsAndServesEverything)
{
    ResiliencePlan plan;
    plan.admission = "none";
    std::unique_ptr<AdmissionPolicy> gate = makeGate(plan);
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(gate->admit(microseconds(i), 1000));
        EXPECT_TRUE(gate->serve(seconds(1), 0));
    }
}

TEST(AdmissionGateTest, QueueDeadlineShedsSustainedSojourn)
{
    ResiliencePlan plan;
    plan.admission = "queue-deadline";
    plan.admitTarget = microseconds(100);
    plan.admitInterval = milliseconds(1);
    std::unique_ptr<AdmissionPolicy> gate = makeGate(plan);

    // Sojourn below target: always served.
    for (int i = 0; i < 50; ++i) {
        const Tick now = microseconds(10) * (i + 1);
        EXPECT_TRUE(gate->serve(now, now - microseconds(50)));
    }
    // Sojourn above target must persist a full interval before the
    // first shed...
    Tick now = milliseconds(10);
    EXPECT_TRUE(gate->serve(now, now - milliseconds(2)));
    // ...still above through the interval: the next serve sheds.
    now += plan.admitInterval + 1;
    EXPECT_FALSE(gate->serve(now, now - milliseconds(2)));
    // A sub-target sojourn resets the control law.
    now += microseconds(10);
    EXPECT_TRUE(gate->serve(now, now - microseconds(10)));
    now += microseconds(10);
    EXPECT_TRUE(gate->serve(now, now - milliseconds(2)));
}

TEST(AdmissionGateTest, QueueDeadlineShedSpacingTightens)
{
    ResiliencePlan plan;
    plan.admission = "queue-deadline";
    plan.admitTarget = microseconds(100);
    plan.admitInterval = milliseconds(1);
    std::unique_ptr<AdmissionPolicy> gate = makeGate(plan);

    // Keep the queue persistently late and count sheds over a fixed
    // horizon: the inverse-sqrt law sheds more than one per interval.
    int sheds = 0;
    for (Tick now = 0; now < milliseconds(20); now += microseconds(50))
        if (!gate->serve(now, now - milliseconds(2)))
            ++sheds;
    EXPECT_GT(sheds, 20); // more than one shed per interval elapsed
}

TEST(AdmissionGateTest, TokenBucketEnforcesSustainedRate)
{
    ResiliencePlan plan;
    plan.admission = "token-bucket";
    plan.admitRate = 1000.0; // one token per millisecond
    plan.admitBurst = 2.0;
    std::unique_ptr<AdmissionPolicy> gate = makeGate(plan);

    // The bucket starts full: the burst is admitted...
    EXPECT_TRUE(gate->admit(0, 0));
    EXPECT_TRUE(gate->admit(0, 0));
    // ...then an immediate third request finds no tokens.
    EXPECT_FALSE(gate->admit(0, 0));
    // One refill period later exactly one more fits.
    EXPECT_TRUE(gate->admit(milliseconds(1), 0));
    EXPECT_FALSE(gate->admit(milliseconds(1), 0));
    // A long idle stretch caps at the burst size, not the elapsed time.
    EXPECT_TRUE(gate->admit(seconds(1), 0));
    EXPECT_TRUE(gate->admit(seconds(1), 0));
    EXPECT_FALSE(gate->admit(seconds(1), 0));
}

// --- CircuitBreaker -------------------------------------------------

BreakerConfig
testBreaker()
{
    BreakerConfig cfg;
    cfg.window = milliseconds(10);
    cfg.threshold = 0.5;
    cfg.minVolume = 4;
    cfg.openFor = milliseconds(2);
    cfg.trials = 2;
    return cfg;
}

TEST(CircuitBreakerTest, StaysClosedBelowMinVolume)
{
    CircuitBreaker breaker(testBreaker());
    // Three failures: 100% failure rate but below minVolume.
    for (int i = 0; i < 3; ++i)
        breaker.onOutcome(microseconds(i), true);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
    EXPECT_TRUE(breaker.allow(microseconds(10)));
}

TEST(CircuitBreakerTest, TripsAtThresholdWithVolume)
{
    CircuitBreaker breaker(testBreaker());
    breaker.onOutcome(microseconds(1), false);
    breaker.onOutcome(microseconds(2), false);
    breaker.onOutcome(microseconds(3), true);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
    breaker.onOutcome(microseconds(4), true); // 2/4 = threshold
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
    EXPECT_EQ(breaker.transitions(), 1u);
    EXPECT_FALSE(breaker.allow(microseconds(5)));
    EXPECT_FALSE(breaker.wouldAllow(microseconds(5)));
}

TEST(CircuitBreakerTest, OldOutcomesAgeOutOfTheWindow)
{
    CircuitBreaker breaker(testBreaker());
    breaker.onOutcome(microseconds(1), true);
    breaker.onOutcome(microseconds(2), true);
    // Much later: the old failures have aged out, so two successes and
    // two fresh failures stay under minVolume-with-threshold.
    const Tick later = milliseconds(100);
    breaker.onOutcome(later + 1, false);
    breaker.onOutcome(later + 2, false);
    breaker.onOutcome(later + 3, false);
    breaker.onOutcome(later + 4, true);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenProbesThenCloses)
{
    CircuitBreaker breaker(testBreaker());
    for (int i = 0; i < 4; ++i)
        breaker.onOutcome(microseconds(i), true);
    ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

    const Tick probeAt = microseconds(4) + milliseconds(2);
    EXPECT_FALSE(breaker.allow(microseconds(5))); // still open
    EXPECT_TRUE(breaker.allow(probeAt));          // first probe
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
    EXPECT_TRUE(breaker.allow(probeAt + 1)); // second probe slot
    EXPECT_FALSE(breaker.allow(probeAt + 2)); // no third slot yet

    breaker.onOutcome(probeAt + 10, false);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
    breaker.onOutcome(probeAt + 11, false);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
    EXPECT_TRUE(breaker.allow(probeAt + 12));
    // open -> half-open -> closed on top of the original trip.
    EXPECT_EQ(breaker.transitions(), 3u);
}

TEST(CircuitBreakerTest, ProbeFailureReopens)
{
    CircuitBreaker breaker(testBreaker());
    for (int i = 0; i < 4; ++i)
        breaker.onOutcome(microseconds(i), true);
    const Tick probeAt = microseconds(4) + milliseconds(2);
    ASSERT_TRUE(breaker.allow(probeAt));
    breaker.onOutcome(probeAt + 1, true);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
    EXPECT_FALSE(breaker.allow(probeAt + 2));
}

TEST(CircuitBreakerTest, SilentProbesAreReleased)
{
    CircuitBreaker breaker(testBreaker());
    for (int i = 0; i < 4; ++i)
        breaker.onOutcome(microseconds(i), true);
    const Tick probeAt = microseconds(4) + milliseconds(2);
    ASSERT_TRUE(breaker.allow(probeAt));
    ASSERT_TRUE(breaker.allow(probeAt + 1));
    // Probes never resolve (silent backend). After another openFor the
    // breaker re-leases probe slots instead of wedging half-open.
    EXPECT_FALSE(breaker.allow(probeAt + 2));
    EXPECT_TRUE(breaker.allow(probeAt + milliseconds(2)));
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
}

TEST(CircuitBreakerTest, ForceOpenBlocksImmediately)
{
    CircuitBreaker breaker(testBreaker());
    EXPECT_TRUE(breaker.allow(0));
    breaker.forceOpen(microseconds(1));
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
    EXPECT_FALSE(breaker.allow(microseconds(2)));
    EXPECT_EQ(breaker.transitions(), 1u);
    // It probes again after openFor like any other trip.
    EXPECT_TRUE(
        breaker.allow(microseconds(1) + milliseconds(2)));
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
}

TEST(CircuitBreakerTest, OpenIgnoresStragglerOutcomes)
{
    CircuitBreaker breaker(testBreaker());
    for (int i = 0; i < 4; ++i)
        breaker.onOutcome(microseconds(i), true);
    ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
    // In-flight responses landing after the trip don't perturb it.
    breaker.onOutcome(microseconds(10), false);
    breaker.onOutcome(microseconds(11), true);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
    EXPECT_EQ(breaker.transitions(), 1u);
}

} // namespace
} // namespace nmapsim

#include "fault/plan.hh"

#include "sim/logging.hh"

namespace nmapsim {
namespace {

void
validate(const FaultPlan &plan)
{
    if (plan.wireLoss < 0.0 || plan.wireLoss >= 1.0)
        fatal("fault.wire_loss must be in [0, 1)");
    if (plan.wireCorrupt < 0.0 || plan.wireCorrupt >= 1.0)
        fatal("fault.wire_corrupt must be in [0, 1)");
    if (plan.wireLoss + plan.wireCorrupt >= 1.0)
        fatal("fault.wire_loss + fault.wire_corrupt must stay below 1");

    if (plan.flapCycles < 0)
        fatal("fault.flap_cycles must be >= 0");
    if (plan.flapCycles > 0) {
        if (plan.flapDown <= 0)
            fatal("fault.flap_down must be positive when flapping");
        if (plan.flapCycles > 1 && plan.flapPeriod <= plan.flapDown)
            fatal("fault.flap_period must exceed fault.flap_down");
    }
    if (plan.flapHost < -1)
        fatal("fault.flap_host must be -1 (all hosts) or a host id");

    if (plan.ringSize > 0 && plan.ringRestoreAt != 0 &&
        plan.ringRestoreAt <= plan.ringDegradeAt) {
        fatal("fault.ring_restore_at must come after "
              "fault.ring_degrade_at");
    }

    for (int host : plan.crashHosts)
        if (host < 0)
            fatal("fault.crash_host entries must be host ids (>= 0), "
                  "or a single -1 for none");
    if (!plan.crashHosts.empty() && plan.crashAt == 0)
        fatal("fault.crash_host requires fault.crash_at");
    if (!plan.crashHosts.empty() && plan.recoverAt != 0 &&
        plan.recoverAt <= plan.crashAt) {
        fatal("fault.recover_at must come after fault.crash_at");
    }
}

} // namespace

bool
FaultPlan::enabled() const
{
    return wantsLoss() || wantsFlap() || wantsRingDegrade() ||
           wantsCrash();
}

FaultPlan
FaultPlan::fromParams(const PolicyParams &params)
{
    FaultPlan plan;
    readParams(params, "fault", plan);
    if (!params.has("fault.flap_cycles") && plan.flapDown > 0)
        plan.flapCycles = 1;
    // fault.crash_host: one host id, a comma-separated list of ids
    // (all crash and recover together), or a single -1 for none.
    if (plan.crashHosts == std::vector<int>{-1})
        plan.crashHosts.clear();
    validate(plan);
    return plan;
}

REGISTER_PARAMS("fault", &FaultPlan::fromParams, "injected fault schedule");

} // namespace nmapsim

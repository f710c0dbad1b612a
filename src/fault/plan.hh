/**
 * @file
 * Declarative fault schedule: what goes wrong, where, and when.
 *
 * A FaultPlan is parsed from the ordinary key=value config pipeline
 * (`fault.*` namespace in ExperimentConfig::params), validated once,
 * and handed to a FaultInjector that executes it against a rig. The
 * plan itself holds no state and draws no randomness; all probabilistic
 * decisions happen inside the injector from a forked Rng stream, so
 * identical (seed, plan) pairs replay byte-identically.
 *
 * An empty plan (`enabled() == false`) is the zero-fault bypass: no
 * injector is constructed, no Rng stream is forked, and the simulation
 * is bit-for-bit the same as before the fault subsystem existed.
 */

#ifndef NMAPSIM_FAULT_PLAN_HH_
#define NMAPSIM_FAULT_PLAN_HH_

#include <cstddef>
#include <vector>

#include "harness/policy_params.hh"
#include "sim/time.hh"

namespace nmapsim {

/** Seeded, reproducible fault schedule (see `fault.*` config keys). */
struct FaultPlan {
    /** Per-packet loss probability on faulted wires, [0, 1). */
    double wireLoss = 0.0;
    /** Per-packet corruption (FCS-drop) probability, [0, 1). */
    double wireCorrupt = 0.0;

    /** First link-down edge of the flap schedule (absolute tick). */
    Tick flapStart = 0;
    /** Length of each down window. 0 disables flapping. */
    Tick flapDown = 0;
    /** Down-edge to down-edge period; must exceed flapDown. */
    Tick flapPeriod = 0;
    /** Number of down/up cycles to run; unset, 1 once flapDown is. */
    int flapCycles = 0;
    /** Cluster host whose access links flap; -1 flaps every host. */
    int flapHost = -1;

    /** When to shrink NIC rx rings. 0 disables degradation. */
    Tick ringDegradeAt = 0;
    /** Degraded rx ring size (slots); 0 disables degradation. */
    std::size_t ringSize = 0;
    /** When to restore the original ring size; 0 = never. */
    Tick ringRestoreAt = 0;

    /**
     * Cluster hosts to fail-stop together (`fault.crash_host` takes a
     * single id or a comma-separated list); empty = no crash. All
     * listed hosts go dark at crashAt and return at recoverAt.
     */
    std::vector<int> crashHosts;
    /** When the crash cuts the hosts' access links. */
    Tick crashAt = 0;
    /** When the hosts' links come back; 0 = stays down. */
    Tick recoverAt = 0;

    /** True when any fault is scheduled; false = zero-fault bypass. */
    bool enabled() const;

    bool wantsLoss() const { return wireLoss > 0.0 || wireCorrupt > 0.0; }
    bool wantsFlap() const { return flapDown > 0 && flapCycles > 0; }
    bool wantsRingDegrade() const { return ringSize > 0; }
    bool wantsCrash() const { return !crashHosts.empty(); }

    /** Read and check the `fault.*` keys of @p params (readParams);
     *  without them the plan is disabled. */
    static FaultPlan fromParams(const PolicyParams &params);

    /** The `fault.*` params schema (harness/policy_params.hh). */
    template <typename Key>
    void
    visit(Key &&key)
    {
        key("fault.wire_loss", wireLoss);
        key("fault.wire_corrupt", wireCorrupt);
        key("fault.flap_start", flapStart);
        key("fault.flap_down", flapDown);
        key("fault.flap_period", flapPeriod);
        key("fault.flap_cycles", flapCycles);
        key("fault.flap_host", flapHost);
        key("fault.ring_degrade_at", ringDegradeAt);
        key("fault.ring_size", ringSize);
        key("fault.ring_restore_at", ringRestoreAt);
        key("fault.crash_host", crashHosts);
        key("fault.crash_at", crashAt);
        key("fault.recover_at", recoverAt);
    }
};

} // namespace nmapsim

#endif // NMAPSIM_FAULT_PLAN_HH_

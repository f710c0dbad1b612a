/**
 * @file
 * Executes a FaultPlan against the hosts of a rig: installs
 * loss/corruption filters on their access links, schedules link flap
 * windows, NIC ring degradation and whole-host crash/recovery on the
 * event queue.
 *
 * Determinism contract: the injector owns a forked Rng stream and is
 * the only consumer of randomness in the fault path; the stream is
 * forked *after* every pre-existing component's stream, so enabling a
 * plan never perturbs the workload/service-time draws, and a disabled
 * plan forks nothing at all. All scheduled events are owned here and
 * descheduled on destruction.
 */

#ifndef NMAPSIM_FAULT_INJECTOR_HH_
#define NMAPSIM_FAULT_INJECTOR_HH_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fault/plan.hh"
#include "net/nic.hh"
#include "net/wire.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace nmapsim {

/** Runtime executor for a validated FaultPlan. */
class FaultInjector
{
  public:
    /** Where one host's faults land. */
    struct Host
    {
        Wire &toward; //!< the link carrying traffic to the host
        Wire &from;   //!< the link carrying the host's traffic out
        Nic &nic;
    };

    /**
     * Apply @p plan to @p hosts, indexed by host id (every host the
     * plan names must be present):
     *   - loss and corruption filter every host's two links, with one
     *     uniform draw per packet;
     *   - a flap downs and restores the links of `fault.flap_host`
     *     (every host's when -1) together, on the plan's schedule;
     *   - ring degradation shrinks and restores every host's NIC ring;
     *   - a crash downs both links of each `fault.crash_host` at
     *     crashAt (the host itself keeps simulating) and restores them
     *     at recoverAt (never when 0).
     * The attach and schedule order (loss filters, the flap, rings by
     * host, crashes in list order) is part of the determinism
     * contract.
     */
    FaultInjector(EventQueue &eq, const FaultPlan &plan, Rng rng,
                  const std::vector<Host> &hosts);
    ~FaultInjector();

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /** @name Aggregated accounting over every faulted wire */
    /**@{*/
    std::uint64_t packetsFaultLost() const;
    std::uint64_t packetsCorrupted() const;
    std::uint64_t packetsLinkDownLost() const;
    /**@}*/

  private:
    /** Count @p wire in the aggregated accounting (once). */
    void track(Wire &wire);
    void addLossyWire(Wire &wire);
    /** Run @p action at @p when from an event this injector owns. */
    void at(Tick when, std::function<void()> action, const char *name);
    void flapEdge();

    EventQueue &eq_;
    FaultPlan plan_;
    Rng rng_;
    std::vector<Wire *> wires_;
    std::vector<Wire *> flapping_;
    int flapCycle_ = 0;
    bool flapDown_ = false;
    EventFunctionWrapper flapEvent_;
    std::vector<std::unique_ptr<EventFunctionWrapper>> events_;
};

} // namespace nmapsim

#endif // NMAPSIM_FAULT_INJECTOR_HH_

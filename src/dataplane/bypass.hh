/**
 * @file
 * Kernel-bypass busy-poll dataplane: dedicated PMD poll cores that
 * harvest the NIC rings directly, no interrupts, no softirq.
 *
 * The BypassEngine repartitions a host's cores: cores [0, poll_cores)
 * each run one PollThread in a constant-rate poll loop (DPDK's PMD
 * model, grounded in "Enabling Kernel Bypass Networking on gem5" —
 * the poll loop is cycle-priced work on an ordinary core, so DVFS and
 * C-states keep their meaning), and the remaining cores serve the
 * application. Every NIC queue is owned by exactly one poll core
 * (queue q → poll core q % poll_cores), so worker-core Tx completions
 * are reaped by the pollers too and the NAPI conservation identity
 * carries over: in bypass mode every harvested descriptor counts as
 * polling-mode work and interrupt-mode counts stay zero.
 *
 * After each poll the thread consults its DataplanePolicy: 0 means
 * keep spinning; a positive sleep lets the core idle through the
 * ordinary scheduler path, so cpuidle governors, C-state residency and
 * wake penalties apply to poll cores exactly as to worker cores. With
 * `dataplane.sleep_armed_irq=true` the owned queues' interrupts are
 * re-armed for the duration of the sleep, and an arrival ends the
 * sleep early through the normal hardirq path (CoreScheduler's IRQ
 * delegate routes it here instead of into NAPI).
 *
 * The engine claims the NIC's interrupt handler and the poll cores'
 * IRQ delegates at construction; nothing here runs — and no state
 * changes — unless the engine is constructed, which is what keeps
 * `dataplane.mode=napi` byte-identical to the pre-subsystem simulator.
 */

#ifndef NMAPSIM_DATAPLANE_BYPASS_HH_
#define NMAPSIM_DATAPLANE_BYPASS_HH_

#include <cstdint>
#include <memory>
#include <vector>

#include "dataplane/plan.hh"
#include "dataplane/policy.hh"
#include "net/nic.hh"
#include "os/server_os.hh"
#include "os/thread.hh"
#include "sim/event_queue.hh"
#include "stats/energy_meter.hh"

namespace nmapsim {

class BypassEngine;

/** One poll core's PMD loop, scheduled as an ordinary SimThread. */
class PollThread : public SimThread
{
  public:
    PollThread(BypassEngine &engine, ServerOs &os, Nic &nic,
               int poll_core, std::vector<int> queues,
               const DataplanePlan &plan,
               std::unique_ptr<DataplanePolicy> policy);
    ~PollThread() override;

    /** @name SimThread interface */
    /**@{*/
    bool runnable() const override { return !sleeping_; }
    double beginSlice() override;
    void completeSlice() override;
    std::string name() const override { return "pmd-poll"; }
    /**@}*/

    /** IRQ delegate: an armed queue interrupt fired on our core. */
    void onIrqWake();

    /** @name Counters */
    /**@{*/
    std::uint64_t pollLoops() const { return pollLoops_; }
    std::uint64_t emptyPolls() const { return emptyPolls_; }
    std::uint64_t sleeps() const { return sleeps_; }
    Tick sleepResidency() const { return sleepResidency_; }
    std::uint64_t harvested() const { return harvestedRx_ + harvestedTx_; }
    double totalPollCycles() const { return totalCycles_; }
    double emptyPollCycles() const { return emptyCycles_; }
    /**@}*/

  private:
    void sleepExpired();
    void goToSleep(Tick duration);
    /** End the sleep now: residency, irq disarm; caller re-enqueues. */
    void wakeFromSleep();
    void armOwnedIrqs();
    void disarmOwnedIrqs();

    BypassEngine &engine_;
    ServerOs &os_;
    Nic &nic_;
    EventQueue &eq_;
    const int core_;
    const std::vector<int> queues_;
    const int pollBatch_;
    const bool armIrq_;
    const double rxCycles_;
    const double txCycles_;
    std::unique_ptr<DataplanePolicy> policy_;

    // Harvest staging; same ping-pong protocol as NapiContext so
    // delivery re-entrancy can never clobber an in-flight batch.
    std::vector<Packet> stash_;
    std::vector<Packet> delivering_;
    std::uint32_t stashTx_ = 0;
    bool pollInFlight_ = false;
    bool deliveryInFlight_ = false;

    bool sleeping_ = false;
    Tick sleepStart_ = 0;

    std::uint64_t pollLoops_ = 0;
    std::uint64_t emptyPolls_ = 0;
    std::uint64_t sleeps_ = 0;
    Tick sleepResidency_ = 0;
    std::uint64_t harvestedRx_ = 0;
    std::uint64_t harvestedTx_ = 0;
    double totalCycles_ = 0.0;
    double emptyCycles_ = 0.0;

    MemberEvent<PollThread, &PollThread::sleepExpired> sleepEvent_;
};

/** Assembles and owns the bypass dataplane of one host. */
class BypassEngine
{
  public:
    /** Aggregated poll-core metrics for result records. */
    struct Stats
    {
        std::uint64_t pollLoops = 0;     //!< poll iterations run
        std::uint64_t emptyPolls = 0;    //!< iterations harvesting nothing
        std::uint64_t sleeps = 0;        //!< policy-initiated sleeps
        Tick sleepResidency = 0;         //!< total time spent in sleeps
        std::uint64_t pktsHarvested = 0; //!< Rx + Tx taken off the NIC
    };

    /**
     * Claims @p nic's interrupt handler and the poll cores' IRQ
     * delegates. @p plan must have mode=bypass and leave at least one
     * worker core. Construction takes no RNG fork and schedules no
     * events; nothing runs until start().
     */
    BypassEngine(ServerOs &os, Nic &nic, const DataplanePlan &plan,
                 const PolicyParams &params);

    /** Mask every queue interrupt and launch the poll loops; call
     *  after ServerOs::start(). */
    void start();

    /** Deliver a harvested request to its worker core's application. */
    void deliver(const Packet &pkt);

    /** Restart the poll-core energy window (warm-up trimming). */
    void startMeasurement(Tick now);

    /**
     * Poll-core energy spent on polls that harvested nothing — the
     * busy-poll tax Metronome's sleeps reclaim. Prorated over the
     * measurement window by cumulative empty-poll cycle share.
     */
    double wastedPollEnergyJoules(Tick now) const;

    int pollCores() const { return static_cast<int>(pollers_.size()); }
    int workerCores() const { return os_.numCores() - pollCores(); }

    Stats stats() const;

  private:
    /** Poll-core-only energy since startMeasurement(), in joules. */
    double pollEnergyJoules(Tick now) const;

    ServerOs &os_;
    Nic &nic_;
    DataplanePlan plan_;
    std::vector<std::unique_ptr<PollThread>> pollers_;
    PackageEnergyMeter pollMeter_;
};

} // namespace nmapsim

#endif // NMAPSIM_DATAPLANE_BYPASS_HH_

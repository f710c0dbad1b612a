/**
 * @file
 * One simulated server, as every harness builds it.
 *
 * The paper studies one server: Xeon cores with per-core DVFS and
 * C-states, a multi-queue NIC with RSS, the NAPI/ksoftirqd network
 * stack and a frequency + sleep policy. A ServerRig owns exactly that —
 * the cores, the NIC, ServerOs, the registry-resolved idle, switchable
 * and frequency policies, a ksoftirqd wake counter, package energy
 * metering and, for `dataplane.mode=bypass`, the BypassEngine — and
 * reports it through one ServerCounters struct. The single-host and
 * cluster harnesses differ only in what they wire around it: wires,
 * applications (one per tenant), clients, load generators, the fault
 * injector and the switch.
 *
 * Assembly takes two steps so that each harness keeps its Rng fork
 * order, and with it its output bytes:
 *   1. the constructor builds the hardware and the OS; each core forks
 *      its streams from the caller's Rng, in core order;
 *   2. after the caller has built its application(s), clients and load
 *      generators (which fork next), attachPolicies() resolves the
 *      idle and frequency policies (a frequency policy may fork, e.g.
 *      NMAP-adaptive) and then adds the observers, the energy meters
 *      and the bypass engine, none of which fork or schedule anything.
 *
 * Configuration errors never reach either step: every harness
 * constructor runs ServerRig::validate() on each server configuration
 * it will build.
 */

#ifndef NMAPSIM_HARNESS_SERVER_RIG_HH_
#define NMAPSIM_HARNESS_SERVER_RIG_HH_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "dataplane/plan.hh"
#include "harness/policy_registry.hh"
#include "sim/time.hh"

namespace nmapsim {

class BypassEngine;
class Client;
class PackageEnergyMeter;
class PackagePower;
class Wire;
struct ExperimentConfig;

/**
 * Everything one server measured. ExperimentResult and
 * ClusterHostResult derive from it, so a counter has one name in every
 * harness.
 */
struct ServerCounters
{
    double energyJoules = 0.0;  //!< package energy over the measurement
    double avgPowerWatts = 0.0; //!< energy / measurement window
    double busyFraction = 0.0;  //!< mean core busy time / wall time

    std::uint64_t nicRx = 0;          //!< packets the NIC accepted
    std::uint64_t nicDrops = 0;       //!< NIC ring overflows
    std::uint64_t nicRxHarvested = 0; //!< Rx packets pulled off rings
    std::uint64_t nicTxConsumed = 0;  //!< Tx completions consumed

    std::uint64_t pktsIntrMode = 0;
    std::uint64_t pktsPollMode = 0;
    std::uint64_t ksoftirqdWakes = 0;
    std::uint64_t pstateTransitions = 0;
    std::uint64_t cc6Wakes = 0;
    std::uint64_t cc1Wakes = 0;

    /** Thresholds the frequency policy ran with (NMAP variants). */
    double niThresholdUsed = 0.0;
    double cuThresholdUsed = 0.0;

    /** @name Bypass dataplane metrics (all zero under the default
     *  dataplane.mode=napi; serialised only for bypass servers) */
    /**@{*/
    bool bypass = false;                //!< ran dataplane.mode=bypass
    std::uint64_t bypassPollLoops = 0;  //!< PMD poll iterations run
    std::uint64_t bypassEmptyPolls = 0; //!< polls that harvested nothing
    std::uint64_t bypassSleeps = 0;     //!< policy-initiated poll sleeps
    Tick bypassSleepResidency = 0;      //!< total poll-core sleep time
    /** Poll-core energy spent on empty polls (busy-poll tax), joules. */
    double bypassWastedPollEnergy = 0.0;
    /**@}*/
};

/** Cores, NIC, OS, policies and energy of one simulated server. */
class ServerRig
{
  public:
    /**
     * Check that @p config describes a server that can be built: at
     * least one core, a positive sampling period, `os.` and `nic.`
     * knobs in range, registered frequency and sleep policies, params
     * that every registered namespace's schema parses (a key of an
     * unregistered namespace is fatal), and a bypass dataplane whose
     * policy is registered and which leaves a worker core. fatal() on the first error;
     * otherwise returns the parsed dataplane plan. No policy is
     * instantiated (the NMAP factory would run a whole profiling
     * simulation); the schemas raise their parameter errors instead.
     */
    static DataplanePlan validate(const ExperimentConfig &config);

    /**
     * Step 1: cores, NIC (transmitting into @p tx) and ServerOs. Each
     * core forks its streams from @p rng. @p config must have passed
     * validate() and must outlive the rig (policies keep references
     * into it).
     */
    ServerRig(EventQueue &eq, const ExperimentConfig &config, Rng &rng,
              Wire &tx);
    ~ServerRig();

    ServerRig(const ServerRig &) = delete;
    ServerRig &operator=(const ServerRig &) = delete;

    /**
     * Step 2, after the caller's applications, clients and load
     * generators exist: resolve the sleep policy and its switchable
     * wrapper, then the frequency policy (which may fork @p rng); then
     * attach the ksoftirqd counter and config.extraObservers, package
     * energy and, for a bypass @p dataplane, the BypassEngine.
     * @param feedback client latency feed (Parties); null when the
     *                 server has no single feed (colocated tenants)
     * @param profile  offline NMAP threshold profiling; empty when
     *                 there is no single application to profile
     */
    void attachPolicies(Rng &rng, const DataplanePlan &dataplane,
                        Client *feedback,
                        std::function<std::pair<double, double>()> profile);

    /** Start the OS idle loops, the poll loops and the frequency policy. */
    void start();

    /** Begin the measurement window: restart the energy meters. */
    void beginMeasurement(Tick now);

    /** Overwrite @p out with the counters over [measurement start,
     *  @p end], including what the frequency policy reports on
     *  finalize. */
    void collect(Tick end, ServerCounters &out) const;

    Nic &nic() { return *nic_; }
    ServerOs &os() { return *os_; }
    Core &core(int id) { return *cores_[static_cast<std::size_t>(id)]; }

  private:
    class KsoftirqdCounter;

    EventQueue &eq_;
    const ExperimentConfig &config_;
    const CpuProfile &profile_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<Core *> corePtrs_;
    std::unique_ptr<Nic> nic_;
    std::unique_ptr<ServerOs> os_;

    std::unique_ptr<CpuIdleGovernor> idle_;
    std::unique_ptr<SwitchableIdleGovernor> switchable_;
    FreqPolicyInstance policy_;
    std::unique_ptr<KsoftirqdCounter> ksoft_;

    std::unique_ptr<PackagePower> uncore_;
    std::unique_ptr<PackageEnergyMeter> package_;
    /** Only constructed for dataplane.mode=bypass. */
    std::unique_ptr<BypassEngine> bypass_;
    Tick measureStart_ = 0;
};

} // namespace nmapsim

#endif // NMAPSIM_HARNESS_SERVER_RIG_HH_

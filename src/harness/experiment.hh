/**
 * @file
 * End-to-end experiment harness.
 *
 * An Experiment assembles the paper's full evaluation rig — one
 * ServerRig (Xeon Gold 6134 cores, multi-queue NIC with RSS, the OS
 * network stack, one frequency policy and one sleep policy), a server
 * application, 10 GbE wires, the client connection pool (24 by
 * default; see ExperimentConfig::numConnections) and the bursty load
 * generator — runs it, and reports the metrics the paper's figures
 * plot: P99 latency, SLO violation fraction, package energy, NAPI mode
 * counters and optional traces.
 *
 * Policies are referenced by name and resolved through the policy
 * registries (see harness/policy_registry.hh); the harness itself
 * knows no concrete governor. Policy-specific tunables travel in
 * ExperimentConfig::params.
 *
 * Every bench binary and example is a thin wrapper over this class.
 *
 * RunPlan and RunCounters are what the single-host and cluster
 * harnesses share around their servers, the run-level counterparts of
 * ServerRig::validate and ServerCounters: the `fault.*`, `client.*`,
 * `resilience.*` and `topology.*` plans, parsed once at construction,
 * and what the clients measured, collected once.
 */

#ifndef NMAPSIM_HARNESS_EXPERIMENT_HH_
#define NMAPSIM_HARNESS_EXPERIMENT_HH_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/topology.hh"
#include "fault/plan.hh"
#include "governors/freq_governor.hh"
#include "harness/policy_params.hh"
#include "harness/server_rig.hh"
#include "harness/trace_collector.hh"
#include "net/nic.hh"
#include "os/hooks.hh"
#include "os/os_config.hh"
#include "resilience/plan.hh"
#include "stats/latency_recorder.hh"
#include "stats/timeseries.hh"
#include "workload/app_profile.hh"
#include "workload/client.hh"
#include "workload/loadgen.hh"

namespace nmapsim {

class FaultInjector;

/** A timed load change (Fig. 16's varying-load scenario). */
struct LoadChange
{
    Tick at;            //!< absolute simulation time
    LoadLevelSpec spec; //!< new in-burst rate / train size

    bool operator==(const LoadChange &) const = default;
};

/** @p app's in-burst load at @p level, each positive override replacing
 *  the level's rate, train mean or duty. */
LoadLevelSpec loadSpec(const AppProfile &app, LoadLevel level,
                       double rps_override, double train_mean_override,
                       double duty_override);

/** Declarative description of one run. */
struct ExperimentConfig
{
    std::string cpuProfile = "Xeon Gold 6134";
    int numCores = 8;

    AppProfile app = AppProfile::memcached();
    LoadLevel load = LoadLevel::kHigh;
    double rpsOverride = 0.0;       //!< >0 replaces the level's rate
    double trainMeanOverride = 0.0; //!< >0 replaces the level's trains
    double dutyOverride = 0.0;      //!< >0 replaces the level's duty
    BurstConfig burst{};
    double connectionSkew = 0.0; //!< >0 concentrates load on few cores
    std::vector<LoadChange> loadSchedule; //!< optional varying load

    /** Frequency policy, by FreqPolicyRegistry name (e.g. "ondemand",
     *  "performance", "NMAP", "NCAP", "Parties"). */
    std::string freqPolicy = "ondemand";
    /** Sleep policy, by IdlePolicyRegistry name ("menu", "disable",
     *  "c6only", "teo"). */
    std::string idlePolicy = "menu";
    /** Policy and plan tunables ("nmap.ni_th", "fault.wire_loss"),
     *  each checked by its namespace's schema at construction. */
    PolicyParams params;

    GovernorConfig gov{}; //!< shared sampling-governor tunables

    OsConfig os{};
    NicConfig nic{};            //!< numQueues forced to numCores
    /** Client threads / RSS flows. The paper uses 20 client threads
     *  and reports that RSS distributes load evenly; 24 (divisible by
     *  the 8 queues) gives that even split exactly. */
    int numConnections = 24;

    Tick warmup = milliseconds(200);
    Tick duration = seconds(1);
    std::uint64_t seed = 42;

    bool collectTraces = false;         //!< Fig. 2/7/9 time series
    Tick traceBucket = milliseconds(1);
    bool collectLatencyTrace = false;   //!< Fig. 3/4/10/11/16 data
    int watchCore = 0;

    /** Extra NAPI observers. Borrowed, never owned: each pointer must
     *  stay valid until Experiment::run() returns (the harness
     *  attaches them for the run and drops them with the rig; they are
     *  not serialised and do not survive into the result). They see
     *  this run only: an auto-profiled NMAP run's offline profiling
     *  pass (Experiment::profileThresholds) attaches none of them. */
    std::vector<NapiObserver *> extraObservers;

    bool operator==(const ExperimentConfig &) const = default;
};

/** fatal() unless @p config's load can drive a LoadGenerator: a burst
 *  envelope with 0 < burst.on_time <= burst.period, a non-negative
 *  connection_skew, and a duty_override of at most 1 and a
 *  train_mean_override of at least 1 when set. Both harnesses call it
 *  at construction. */
void validateLoad(const ExperimentConfig &config);

/** What a run wires around its servers: the run-scoped plans, parsed
 *  and cross-checked once, at harness construction. */
struct RunPlan
{
    FaultPlan fault;
    ClientRetryPolicy retry;
    ResiliencePlan resilience;
    TopologyPlan topology;

    /**
     * Parse the four blocks from @p params and check the rules that
     * span them and that the admission policy is registered. fatal()
     * on the first error.
     */
    static RunPlan fromParams(const PolicyParams &params);

    /** True when @p key belongs to one of the four blocks. The run
     *  wires these; a server's own config never carries them. */
    static bool owns(const std::string &key);

    /** Arm @p client with the retry policy, the retry budget and the
     *  request deadline; a disabled plan changes nothing. */
    void configure(Client &client) const;
};

/**
 * Everything the clients of one run measured, plus its fault and
 * overload accounting. ExperimentResult and ClusterResult derive from
 * it, so a client-side counter has one name in every harness.
 */
struct RunCounters
{
    /** @name Latency over every completed request, end to end at the
     *  clients */
    /**@{*/
    Tick p50 = 0;
    Tick p99 = 0;
    Tick maxLatency = 0;
    double meanLatency = 0.0;
    double fracOverSlo = 0.0;
    Tick slo = 0;
    /**@}*/

    std::uint64_t requestsSent = 0;
    std::uint64_t responsesReceived = 0;

    /** @name Fault/robustness accounting (all zero in fault-free runs) */
    /**@{*/
    std::uint64_t requestsTimedOut = 0;   //!< client retry budget spent
    std::uint64_t retransmits = 0;        //!< client retransmissions
    std::uint64_t requestsInFlight = 0;   //!< unanswered at sim end
    std::uint64_t duplicateResponses = 0; //!< answers after give-up
    std::uint64_t faultPacketsLost = 0;   //!< injected wire loss
    std::uint64_t faultPacketsCorrupted = 0; //!< injected corruption
    std::uint64_t linkDownDrops = 0;      //!< lost to downed links
    /** Completed / sent; 1 when nothing was sent. */
    double availability = 1.0;
    /** P99 of the winning attempt only (0 without client retry). */
    Tick attemptP99 = 0;
    /**@}*/

    /** @name Resilience accounting (all zero — and not serialised —
     *  without a `resilience.*` plan) */
    /**@{*/
    bool resilient = false; //!< the run had a resilience plan
    /** Requests rejected back to the clients (every shed site, counted
     *  client-side; terminal, never retried). */
    std::uint64_t requestsShed = 0;
    /** Retransmissions the client retry budget refused to fund. */
    std::uint64_t retryBudgetExhausted = 0;
    std::uint64_t shedAdmission = 0; //!< server admission-gate refusals
    std::uint64_t shedSojourn = 0;   //!< server sojourn (CoDel) sheds
    std::uint64_t shedDeadline = 0;  //!< server past-deadline sheds
    /**@}*/

    /** @name Engine counters (perfbench only; never serialised —
     *  they describe the simulator, not the simulated system) */
    /**@{*/
    std::uint64_t eventsProcessed = 0; //!< kernel events fired, whole run
    /**@}*/

    /**
     * Fill a fresh result: sums over @p clients, latency over
     * @p latencies judged against @p run_slo, the attempt p99 of
     * @p attempts, the counters of @p injector (null when the run
     * injects no faults) and whether @p plan is resilient. The
     * servers' shed counters and eventsProcessed are the harness's.
     */
    void collect(const std::vector<const Client *> &clients,
                 const LatencySet &latencies,
                 const LatencySet &attempts, Tick run_slo,
                 const FaultInjector *injector, const RunPlan &plan);
};

/** Everything a run produces: the server's counters (see ServerRig)
 *  plus what the clients measured (see RunCounters). */
struct ExperimentResult : ServerCounters, RunCounters
{
    /** Time-series traces (only with collectTraces). */
    std::shared_ptr<TraceCollector> traces;
    /** CC6 entry times on the watched core (with collectTraces). */
    std::vector<Tick> cc6Entries;
    /** Per-request latency trace (with collectLatencyTrace). */
    std::vector<LatencySample> latencyTrace;
    /** Empirical latency CDF, 200 points (with collectLatencyTrace). */
    std::vector<std::pair<Tick, double>> cdf;
};

/** Builds, runs and tears down one configured simulation. */
class Experiment
{
  public:
    explicit Experiment(ExperimentConfig config);

    /** Execute the run and collect results. */
    ExperimentResult run();

    /**
     * Offline NMAP threshold profiling (Section 4.2): observe one burst
     * at the application's SLO-inflection (high) load under the
     * performance governor and derive (NI_TH, CU_TH).
     */
    static std::pair<double, double>
    profileThresholds(const ExperimentConfig &config);

    const ExperimentConfig &config() const { return config_; }

  private:
    ExperimentConfig config_;
    RunPlan plan_;
    DataplanePlan dataplane_;
};

} // namespace nmapsim

#endif // NMAPSIM_HARNESS_EXPERIMENT_HH_

/**
 * @file
 * Colocation harness: several latency-critical applications sharing
 * one server.
 *
 * This is the deployment Parties (the paper's long-term baseline) was
 * actually built for, and a stress case the paper leaves open for
 * NMAP: its thresholds are profiled per *application*, so when two
 * applications with different SLOs and packet profiles share the cores
 * there is no single "correct" (NI_TH, CU_TH) pair. The colocation
 * bench compares offline thresholds from either tenant against the
 * online-adaptive extension, which sidesteps the question.
 *
 * Tenants share everything the paper's testbed would share: cores,
 * NIC queues (disjoint RSS flow spaces, both striped over all cores),
 * the OS network stack and the package power budget. Each tenant has
 * its own client connections, load generator, SLO and latency
 * accounting.
 */

#ifndef NMAPSIM_HARNESS_COLOCATION_HH_
#define NMAPSIM_HARNESS_COLOCATION_HH_

#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace nmapsim {

/** One colocated application's workload description. */
struct TenantConfig
{
    AppProfile app = AppProfile::memcached();
    LoadLevel load = LoadLevel::kMed;
    double rpsOverride = 0.0;
    double dutyOverride = 0.0;
    double trainMeanOverride = 0.0;
    int numConnections = 24;
};

/** Per-tenant results of a colocated run. */
struct TenantResult
{
    std::string appName;
    Tick slo = 0;
    Tick p99 = 0;
    double fracOverSlo = 0.0;
    std::uint64_t requestsSent = 0;
    std::uint64_t responsesReceived = 0;
};

/** Declarative description of a colocated run. */
struct ColocationConfig
{
    std::string cpuProfile = "Xeon Gold 6134";
    int numCores = 8;

    std::vector<TenantConfig> tenants;

    /** Frequency policy, by FreqPolicyRegistry name. There is no single
     *  application to profile and no single client latency feed, so
     *  policies needing either ("NMAP" without explicit thresholds,
     *  "Parties") are fatal here. */
    std::string freqPolicy = "NMAP";
    /** Sleep policy, by IdlePolicyRegistry name. */
    std::string idlePolicy = "menu";
    /** Policy tunables; NMAP must carry explicit "nmap.ni_th" /
     *  "nmap.cu_th". The keys of blocks the colocation rig does not
     *  wire (`dataplane.*`, `fault.*`, `client.*`, `resilience.*`,
     *  `topology.*`) are rejected at construction. */
    PolicyParams params;

    GovernorConfig gov{};
    OsConfig os{};
    NicConfig nic{};

    Tick warmup = milliseconds(200);
    Tick duration = seconds(1);
    std::uint64_t seed = 42;
};

/** Results of a colocated run: the shared server's counters plus one
 *  entry per tenant. */
struct ColocationResult : ServerCounters
{
    std::vector<TenantResult> tenants;
};

/** Builds and runs one colocated simulation. */
class ColocationExperiment
{
  public:
    explicit ColocationExperiment(ColocationConfig config);

    ColocationResult run();

  private:
    ColocationConfig config_;
    /** The shared server as the rig sees it: the colocation hardware,
     *  policies and params, with the first tenant's app profile (its
     *  cache footprint and SLO feed the cores and the policies). */
    ExperimentConfig server_;
};

} // namespace nmapsim

#endif // NMAPSIM_HARNESS_COLOCATION_HH_

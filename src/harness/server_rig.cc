#include "harness/server_rig.hh"

#include <algorithm>
#include <cmath>

#include "cpu/cpu_profile.hh"
#include "cpu/package_power.hh"
#include "dataplane/bypass.hh"
#include "dataplane/policy.hh"
#include "harness/experiment.hh"
#include "sim/logging.hh"
#include "stats/energy_meter.hh"

namespace nmapsim {

/** Counts ksoftirqd wake-ups across the server's cores. */
class ServerRig::KsoftirqdCounter : public NapiObserver
{
  public:
    void
    onKsoftirqdWake(int core) override
    {
        (void)core;
        ++wakes_;
    }

    std::uint64_t wakes() const { return wakes_; }

  private:
    std::uint64_t wakes_ = 0;
};

DataplanePlan
ServerRig::validate(const ExperimentConfig &config)
{
    if (config.numCores < 1)
        fatal("a server requires at least one core (cores=" +
              std::to_string(config.numCores) + ")");
    if (config.gov.samplePeriod <= 0)
        fatal("gov.sample_period must be > 0");
    if (!(config.gov.upThreshold > 0.0 && config.gov.upThreshold <= 1.0))
        fatal("gov.up_threshold must be in (0, 1]");
    // A zero poll budget harvests nothing: every packet would sit in
    // the ring until the NIC drops it. A zero Tx budget reaps no
    // completion, so no NAPI session ever completes, and a zero-slot
    // ring drops every packet.
    if (config.os.napiWeight < 1)
        fatal("os.napi_weight must be >= 1");
    if (config.os.txCleanBudget < 1)
        fatal("os.tx_clean_budget must be >= 1");
    if (config.nic.rxRingSize < 1)
        fatal("nic.rx_ring_size must be >= 1");
    // An idle core whose policy sets no C6 promotion delay re-checks
    // it every jiffy; at zero it re-checks at the same tick forever.
    if (config.os.jiffy <= 0)
        fatal("os.jiffy must be > 0");
    // NAPI counts a softirq iteration before it compares the cap, so
    // every cap below 1, like a zero time budget, hands every repoll
    // to ksoftirqd exactly as a cap of 1 does.
    if (config.os.maxSoftirqIters < 1)
        fatal("os.max_softirq_iters must be >= 1");
    if (config.os.maxSoftirqTime <= 0)
        fatal("os.max_softirq_time must be > 0");
    const std::pair<const char *, double> cycle_costs[] = {
        {"os.irq_cycles", config.os.irqCycles},
        {"os.poll_overhead_cycles", config.os.pollOverheadCycles},
        {"os.rx_packet_cycles", config.os.rxPacketCycles},
        {"os.tx_completion_cycles", config.os.txCompletionCycles},
    };
    for (const auto &[key, cycles] : cycle_costs)
        if (!(cycles >= 0.0 && std::isfinite(cycles)))
            fatal(std::string(key) + " must be finite and >= 0");

    FreqPolicyRegistry::instance().require(config.freqPolicy);
    IdlePolicyRegistry::instance().require(config.idlePolicy);

    // Every key belongs to a registered namespace (each src/ file
    // registers its own during static initialisation), and every
    // namespace parses, whether or not this server's policies read it.
    const ParamsRegistry &schemas = ParamsRegistry::instance();
    const std::vector<std::string> namespaces = schemas.names();
    for (const auto &[key, value] : config.params) {
        const std::string ns = key.substr(0, key.find('.'));
        if (!std::binary_search(namespaces.begin(), namespaces.end(), ns)) {
            std::string known;
            for (const std::string &name : namespaces)
                known += (known.empty() ? "" : ", ") + name;
            fatal("unknown config key '" + key + "': no component reads '" +
                  ns + ".*' (known: " + known + ")");
        }
    }
    for (const std::string &ns : namespaces)
        schemas.make(ns, config.params);

    DataplanePlan dplan = DataplanePlan::fromParams(config.params);
    if (dplan.bypass()) {
        DataplanePolicyRegistry::instance().require(dplan.policy);
        if (dplan.pollCores >= config.numCores)
            fatal("dataplane.poll_cores must leave at least one worker "
                  "core (poll_cores=" +
                  std::to_string(dplan.pollCores) +
                  ", cores=" + std::to_string(config.numCores) + ")");
    }
    return dplan;
}

ServerRig::ServerRig(EventQueue &eq, const ExperimentConfig &config,
                     Rng &rng, Wire &tx)
    : eq_(eq), config_(config),
      profile_(CpuProfile::byName(config.cpuProfile))
{
    for (int i = 0; i < config_.numCores; ++i) {
        cores_.push_back(std::make_unique<Core>(
            i, eq, profile_, rng, config_.app.cacheTouch));
        corePtrs_.push_back(cores_.back().get());
    }

    NicConfig nic_config = config_.nic;
    nic_config.numQueues = config_.numCores;
    nic_ = std::make_unique<Nic>(eq, nic_config);
    nic_->setTxWire(&tx);

    os_ = std::make_unique<ServerOs>(corePtrs_, *nic_, config_.os);
}

ServerRig::~ServerRig() = default;

void
ServerRig::attachPolicies(
    Rng &rng, const DataplanePlan &dataplane, Client *feedback,
    std::function<std::pair<double, double>()> profile)
{
    IdleContext idle_ctx{profile_, config_.numCores, config_.params};
    idle_ = IdlePolicyRegistry::instance().make(config_.idlePolicy,
                                                idle_ctx);
    switchable_ = std::make_unique<SwitchableIdleGovernor>(*idle_);

    PolicyContext policy_ctx{eq_,
                             corePtrs_,
                             *nic_,
                             *os_,
                             config_.app,
                             rng,
                             config_.gov,
                             config_.params,
                             feedback,
                             std::move(profile),
                             switchable_.get(),
                             /*switchableRequested_=*/false};
    policy_ = FreqPolicyRegistry::instance().make(config_.freqPolicy,
                                                  policy_ctx);
    os_->setIdleGovernor(
        policy_ctx.switchableRequested()
            ? static_cast<CpuIdleGovernor *>(switchable_.get())
            : idle_.get());

    ksoft_ = std::make_unique<KsoftirqdCounter>();
    os_->addObserver(ksoft_.get());
    for (NapiObserver *obs : config_.extraObservers)
        os_->addObserver(obs);

    uncore_ = std::make_unique<PackagePower>(eq_, corePtrs_);
    package_ = std::make_unique<PackageEnergyMeter>();
    package_->addMeter(&uncore_->meter());
    for (Core *core : corePtrs_)
        package_->addMeter(&core->meter());

    // A bypass server repurposes its first poll_cores cores as PMD
    // pollers; the default NAPI plan constructs nothing. The engine
    // forks no random stream and schedules nothing until start().
    if (dataplane.bypass())
        bypass_ = std::make_unique<BypassEngine>(*os_, *nic_, dataplane,
                                                 config_.params);
}

void
ServerRig::start()
{
    os_->start();
    if (bypass_)
        bypass_->start();
    policy_.governor->start();
}

void
ServerRig::beginMeasurement(Tick now)
{
    measureStart_ = now;
    package_->startMeasurement(now);
    if (bypass_)
        bypass_->startMeasurement(now);
}

void
ServerRig::collect(Tick end, ServerCounters &out) const
{
    ServerCounters c;
    c.energyJoules = package_->energyJoules(end);
    c.avgPowerWatts = c.energyJoules / toSeconds(end - measureStart_);

    c.nicRx = nic_->packetsReceived();
    c.nicDrops = nic_->packetsDropped();
    c.nicRxHarvested = nic_->rxHarvested();
    c.nicTxConsumed = nic_->txConsumed();
    c.ksoftirqdWakes = ksoft_->wakes();
    for (int i = 0; i < config_.numCores; ++i) {
        Core *core = corePtrs_[static_cast<std::size_t>(i)];
        c.pktsIntrMode += os_->napi(i).pktsInterruptMode();
        c.pktsPollMode += os_->napi(i).pktsPollingMode();
        c.pstateTransitions += core->dvfs().numTransitions();
        c.cc6Wakes += core->cstates().wakeCount(CState::kC6);
        c.cc1Wakes += core->cstates().wakeCount(CState::kC1);
        c.busyFraction += static_cast<double>(core->busyTime()) /
                          static_cast<double>(end) /
                          static_cast<double>(config_.numCores);
    }

    if (bypass_) {
        // Bypass harvests are polling-mode work by definition; the NAPI
        // contexts stayed dormant, so pktsIntrMode is zero and the
        // NAPI conservation identity (intr + poll == rx harvested + tx
        // consumed) carries over unchanged.
        BypassEngine::Stats dp = bypass_->stats();
        c.bypass = true;
        c.pktsPollMode += dp.pktsHarvested;
        c.bypassPollLoops = dp.pollLoops;
        c.bypassEmptyPolls = dp.emptyPolls;
        c.bypassSleeps = dp.sleeps;
        c.bypassSleepResidency = dp.sleepResidency;
        c.bypassWastedPollEnergy = bypass_->wastedPollEnergyJoules(end);
    }

    // Policy-specific outputs (e.g. the thresholds NMAP resolved).
    if (policy_.finalize)
        policy_.finalize(c);
    out = c;
}

} // namespace nmapsim

/**
 * @file
 * Unit and rig tests for the kernel-bypass dataplane subsystem:
 * DataplanePlan parsing/validation, the policy registry and the two
 * built-in sleep policies, PollThread/BypassEngine behaviour on a
 * hand-built mini rig, and the end-to-end Experiment integration
 * (mode selection, conservation, faulted-ring interaction, rerun
 * determinism).
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cpu/core.hh"
#include "dataplane/bypass.hh"
#include "dataplane/plan.hh"
#include "dataplane/policy.hh"
#include "harness/experiment.hh"
#include "net/nic.hh"
#include "os/server_os.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace nmapsim {
namespace {

// ---------------------------------------------------------------- plan

TEST(DataplanePlanTest, DefaultsToNapi)
{
    PolicyParams params;
    DataplanePlan plan = DataplanePlan::fromParams(params);
    EXPECT_FALSE(plan.bypass());
    EXPECT_EQ(plan.mode, DataplanePlan::Mode::kNapi);
}

TEST(DataplanePlanTest, ParsesBypassKeys)
{
    PolicyParams params;
    params.set("dataplane.mode", "bypass");
    params.set("dataplane.poll_cores", 2);
    params.set("dataplane.poll_batch", 64);
    params.set("dataplane.policy", "metronome");
    params.set("dataplane.sleep_armed_irq", "true");
    params.set("dataplane.rx_packet_cycles", "1000");
    params.set("dataplane.tx_completion_cycles", "80");
    DataplanePlan plan = DataplanePlan::fromParams(params);
    EXPECT_TRUE(plan.bypass());
    EXPECT_EQ(plan.pollCores, 2);
    EXPECT_EQ(plan.pollBatch, 64);
    EXPECT_EQ(plan.policy, "metronome");
    EXPECT_TRUE(plan.sleepArmedIrq);
    EXPECT_DOUBLE_EQ(plan.rxPacketCycles, 1000.0);
    EXPECT_DOUBLE_EQ(plan.txCompletionCycles, 80.0);
}

TEST(DataplanePlanTest, UnknownDataplaneKeyIsFatal)
{
    PolicyParams params;
    params.set("dataplane.mode", "bypass");
    params.set("dataplane.burst", 4); // typo'd key
    EXPECT_THROW(DataplanePlan::fromParams(params), FatalError);
}

TEST(DataplanePlanTest, BadModeIsFatal)
{
    PolicyParams params;
    params.set("dataplane.mode", "dpdk");
    EXPECT_THROW(DataplanePlan::fromParams(params), FatalError);
}

TEST(DataplanePlanTest, BypassKeysUnderNapiAreFatal)
{
    // Every non-mode key requires mode=bypass: a config that tunes the
    // bypass engine but forgot to flip the mode is an error, not a
    // silently-NAPI run.
    for (const char *key :
         {"dataplane.poll_cores", "dataplane.poll_batch",
          "dataplane.policy", "dataplane.sleep_armed_irq",
          "dataplane.rx_packet_cycles",
          "dataplane.tx_completion_cycles"}) {
        PolicyParams params;
        params.set(key, "1");
        EXPECT_THROW(DataplanePlan::fromParams(params), FatalError)
            << key;
    }
}

TEST(DataplanePlanTest, OutOfRangeValuesAreFatal)
{
    auto bypassWith = [](const std::string &key,
                         const std::string &value) {
        PolicyParams params;
        params.set("dataplane.mode", "bypass");
        params.set(key, value);
        return DataplanePlan::fromParams(params);
    };
    EXPECT_THROW(bypassWith("dataplane.poll_cores", "0"), FatalError);
    EXPECT_THROW(bypassWith("dataplane.poll_batch", "0"), FatalError);
    EXPECT_THROW(bypassWith("dataplane.policy", ""), FatalError);
    EXPECT_THROW(bypassWith("dataplane.rx_packet_cycles", "0"),
                 FatalError);
    EXPECT_THROW(bypassWith("dataplane.tx_completion_cycles", "-1"),
                 FatalError);
}

// -------------------------------------------------------- policies

TEST(DataplanePolicyRegistryTest, BuiltinsRegisteredWithHelp)
{
    DataplanePolicyRegistry &reg = DataplanePolicyRegistry::instance();
    EXPECT_TRUE(reg.has("spin"));
    EXPECT_TRUE(reg.has("metronome"));
    EXPECT_FALSE(reg.help("spin").empty());
    EXPECT_FALSE(reg.help("metronome").empty());
}

TEST(DataplanePolicyRegistryTest, UnknownPolicyIsFatal)
{
    PolicyParams params;
    DataplaneContext ctx{params};
    EXPECT_THROW(DataplanePolicyRegistry::instance().make("nave", ctx),
                 FatalError);
}

TEST(DataplanePolicyRegistryTest, DuplicateRegistrationIsFatal)
{
    EXPECT_THROW(DataplanePolicyRegistry::instance().add(
                     "spin",
                     [](const DataplaneContext &)
                         -> std::unique_ptr<DataplanePolicy> {
                         return nullptr;
                     }),
                 FatalError);
}

TEST(SpinPolicyTest, NeverSleeps)
{
    PolicyParams params;
    DataplaneContext ctx{params};
    auto spin = DataplanePolicyRegistry::instance().make("spin", ctx);
    DataplanePollStats stats;
    EXPECT_EQ(spin->sleepAfterPoll(stats), 0);
    stats.harvestedRx = 1000;
    stats.ringOccupancy = 1000;
    EXPECT_EQ(spin->sleepAfterPoll(stats), 0);
}

TEST(MetronomePolicyTest, ConvergesTowardSetpoint)
{
    PolicyParams params;
    DataplaneContext ctx{params};
    auto policy =
        DataplanePolicyRegistry::instance().make("metronome", ctx);

    // Idle ring: the sleep grows to (and clamps at) max_sleep.
    DataplanePollStats idle;
    Tick s = policy->sleepAfterPoll(idle);
    EXPECT_EQ(s, microseconds(64));

    // Sustained backlog above the setpoint: the sleep shrinks
    // multiplicatively down to min_sleep.
    DataplanePollStats busy;
    busy.harvestedRx = 32;
    busy.ringOccupancy = 64;
    Tick prev = s;
    for (int i = 0; i < 20; ++i) {
        s = policy->sleepAfterPoll(busy);
        EXPECT_LE(s, prev);
        prev = s;
    }
    EXPECT_EQ(s, microseconds(1));

    // Backlog cleared: the sleep grows again, never past max_sleep.
    for (int i = 0; i < 30; ++i)
        s = policy->sleepAfterPoll(idle);
    EXPECT_EQ(s, microseconds(64));
}

TEST(MetronomePolicyTest, TicketsDivideTheVisitGap)
{
    PolicyParams params;
    params.set("metronome.tickets", 4);
    DataplaneContext ctx{params};
    auto policy =
        DataplanePolicyRegistry::instance().make("metronome", ctx);
    DataplanePollStats idle;
    // Per-thread sleep clamps at max_sleep; with 4 ticket-holders the
    // ring is visited every max_sleep / 4.
    EXPECT_EQ(policy->sleepAfterPoll(idle), microseconds(64) / 4);
}

TEST(MetronomePolicyTest, BadParamsAreFatal)
{
    auto makeWith = [](const std::string &key,
                       const std::string &value) {
        PolicyParams params;
        params.set(key, value);
        DataplaneContext ctx{params};
        return DataplanePolicyRegistry::instance().make("metronome",
                                                        ctx);
    };
    EXPECT_THROW(makeWith("metronome.min_sleep", "0"), FatalError);
    EXPECT_THROW(makeWith("metronome.max_sleep", "1ns"), FatalError);
    EXPECT_THROW(makeWith("metronome.setpoint", "0"), FatalError);
    EXPECT_THROW(makeWith("metronome.grow", "1.0"), FatalError);
    EXPECT_THROW(makeWith("metronome.shrink", "1.0"), FatalError);
    EXPECT_THROW(makeWith("metronome.tickets", "0"), FatalError);
}

// -------------------------------------------------------- mini rig

/** Hand-built 4-core host (mirrors ServerOsTest) with a bypass engine
 *  in front: poll core 0 owns all four queues, cores 1-3 work. A plain
 *  struct, not a fixture, so tests can stand up twin rigs. */
struct BypassRig
{
    void
    build(const PolicyParams &params)
    {
        for (int i = 0; i < 4; ++i) {
            cores_.push_back(std::make_unique<Core>(
                i, eq_, CpuProfile::xeonGold6134(), rng_));
            ptrs_.push_back(cores_.back().get());
        }
        nic_config_.numQueues = 4;
        nic_ = std::make_unique<Nic>(eq_, nic_config_);
        os_ = std::make_unique<ServerOs>(ptrs_, *nic_, OsConfig{});
        os_->setDeliver([this](int core, const Packet &p) {
            delivered_.push_back({core, p.flowHash});
        });
        plan_ = DataplanePlan::fromParams(params);
        engine_ = std::make_unique<BypassEngine>(*os_, *nic_, plan_,
                                                 params);
        os_->start();
        engine_->start();
    }

    static PolicyParams
    bypassParams(const std::string &policy)
    {
        PolicyParams params;
        params.set("dataplane.mode", "bypass");
        params.set("dataplane.policy", policy);
        return params;
    }

    void
    sendToFlow(std::uint32_t flow)
    {
        Packet p;
        p.kind = Packet::Kind::kRequest;
        p.flowHash = flow;
        p.sizeBytes = 128;
        nic_->receive(p);
    }

    EventQueue eq_;
    Rng rng_{55};
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<Core *> ptrs_;
    NicConfig nic_config_;
    std::unique_ptr<Nic> nic_;
    std::unique_ptr<ServerOs> os_;
    DataplanePlan plan_;
    std::unique_ptr<BypassEngine> engine_;
    std::vector<std::pair<int, std::uint32_t>> delivered_;
};

TEST(BypassRigTest, RequiresBypassModeAndAWorkerCore)
{
    BypassRig rig;
    PolicyParams napi;
    rig.build(BypassRig::bypassParams("spin"));
    EXPECT_THROW(BypassEngine(*rig.os_, *rig.nic_,
                              DataplanePlan::fromParams(napi), napi),
                 FatalError);

    PolicyParams greedy = BypassRig::bypassParams("spin");
    greedy.set("dataplane.poll_cores", 4); // all 4 cores polling
    EXPECT_THROW(BypassEngine(*rig.os_, *rig.nic_,
                              DataplanePlan::fromParams(greedy),
                              greedy),
                 FatalError);
}

TEST(BypassRigTest, DeliversOnlyToWorkerCores)
{
    BypassRig rig;
    rig.build(BypassRig::bypassParams("spin"));
    for (std::uint32_t flow = 0; flow < 32; ++flow)
        rig.sendToFlow(flow);
    rig.eq_.runUntil(milliseconds(1));
    ASSERT_EQ(rig.delivered_.size(), 32u);
    for (const auto &[core, flow] : rig.delivered_) {
        // Poll cores never run application work; the worker is picked
        // by flow hash over the non-poll cores.
        EXPECT_GE(core, rig.engine_->pollCores());
        EXPECT_EQ(core,
                  rig.engine_->pollCores() +
                      static_cast<int>(
                          flow % static_cast<std::uint32_t>(
                                     rig.engine_->workerCores())));
    }
}

TEST(BypassRigTest, NapiStaysColdAndConservationHolds)
{
    BypassRig rig;
    rig.build(BypassRig::bypassParams("spin"));
    for (std::uint32_t flow = 0; flow < 100; ++flow)
        rig.sendToFlow(flow);
    rig.eq_.runUntil(milliseconds(2));

    // Interrupt-mode NAPI never ran: no hardirq-driven napiSchedule,
    // no softirq sessions, zero packets in either NAPI mode.
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(rig.os_->napi(i).pktsInterruptMode(), 0u);
        EXPECT_EQ(rig.os_->napi(i).pktsPollingMode(), 0u);
    }
    // Bypass-side conservation: every descriptor taken off the NIC is
    // attributed to exactly one poll harvest.
    BypassEngine::Stats s = rig.engine_->stats();
    EXPECT_EQ(s.pktsHarvested,
              rig.nic_->rxHarvested() + rig.nic_->txConsumed());
    EXPECT_EQ(rig.nic_->rxHarvested(), 100u);
    EXPECT_EQ(rig.delivered_.size(), 100u);
}

TEST(BypassRigTest, SpinNeverSleepsMetronomeDoes)
{
    BypassRig rig;
    rig.build(BypassRig::bypassParams("spin"));
    rig.eq_.runUntil(milliseconds(1));
    BypassEngine::Stats spin = rig.engine_->stats();
    EXPECT_GT(spin.pollLoops, 0u);
    EXPECT_EQ(spin.sleeps, 0u);
    EXPECT_EQ(spin.sleepResidency, 0);
    // An idle spin loop is all empty polls, so it wastes energy.
    EXPECT_EQ(spin.emptyPolls, spin.pollLoops);
    const double spin_wasted =
        rig.engine_->wastedPollEnergyJoules(rig.eq_.now());
    EXPECT_GT(spin_wasted, 0.0);

    BypassRig metro;
    metro.build(BypassRig::bypassParams("metronome"));
    metro.eq_.runUntil(milliseconds(1));
    BypassEngine::Stats m = metro.engine_->stats();
    EXPECT_GT(m.sleeps, 0u);
    EXPECT_GT(m.sleepResidency, 0);
    // Intermittent sleep trades poll loops for residency: far fewer
    // iterations than the spin loop managed in the same window, and
    // less of the busy-poll tax.
    EXPECT_LT(m.pollLoops, spin.pollLoops / 10);
    EXPECT_LT(metro.engine_->wastedPollEnergyJoules(metro.eq_.now()),
              spin_wasted);
}

TEST(BypassRigTest, ArmedIrqCutsTheSleepShort)
{
    BypassRig rig;
    PolicyParams params = BypassRig::bypassParams("metronome");
    params.set("dataplane.sleep_armed_irq", "true");
    // A long fixed sleep makes the early wake unmistakable.
    params.set("metronome.min_sleep", "100us");
    params.set("metronome.max_sleep", "100us");
    rig.build(params);

    // Let the poller drain into its steady sleep...
    rig.eq_.runUntil(microseconds(150));
    BypassEngine::Stats before = rig.engine_->stats();
    EXPECT_GT(before.sleeps, 0u);

    // ...then land a packet mid-sleep: the armed queue interrupt wakes
    // the poller, which harvests and delivers well before the 100 us
    // sleep would have expired on its own.
    const Tick arrival = rig.eq_.now();
    rig.sendToFlow(7);
    rig.eq_.runUntil(arrival + microseconds(50));
    EXPECT_EQ(rig.delivered_.size(), 1u);
    EXPECT_EQ(rig.engine_->stats().pktsHarvested,
              rig.nic_->rxHarvested() + rig.nic_->txConsumed());
}

TEST(BypassRigTest, UnarmedSleepWaitsOutTheTimer)
{
    BypassRig rig;
    PolicyParams params = BypassRig::bypassParams("metronome");
    params.set("metronome.min_sleep", "100us");
    params.set("metronome.max_sleep", "100us");
    rig.build(params);

    rig.eq_.runUntil(microseconds(150));
    const Tick arrival = rig.eq_.now();
    rig.sendToFlow(7);
    // Without armed interrupts the packet sits in the ring until the
    // sleep timer expires; 50 us later it is still undelivered.
    rig.eq_.runUntil(arrival + microseconds(50));
    EXPECT_EQ(rig.delivered_.size(), 0u);
    // The full sleep later, it has been harvested.
    rig.eq_.runUntil(arrival + microseconds(250));
    EXPECT_EQ(rig.delivered_.size(), 1u);
}

TEST(BypassRigTest, RingShrinkMidRunKeepsAccountingExact)
{
    // Satellite: Nic::setRxRingSize x bypass harvest. Shrinking the
    // ring under a live poll loop must not strand or double-count
    // descriptors — harvests are counted at pop time and each burst is
    // capped by the live ring bound.
    BypassRig rig;
    PolicyParams params = BypassRig::bypassParams("spin");
    params.set("dataplane.poll_batch", 64);
    rig.build(params);

    for (std::uint32_t flow = 0; flow < 200; ++flow)
        rig.sendToFlow(flow);
    rig.eq_.runUntil(microseconds(50));
    rig.nic_->setRxRingSize(4); // degrade: burst cap drops to 4
    for (std::uint32_t flow = 0; flow < 200; ++flow)
        rig.sendToFlow(flow);
    rig.eq_.runUntil(milliseconds(2));

    BypassEngine::Stats s = rig.engine_->stats();
    EXPECT_EQ(s.pktsHarvested,
              rig.nic_->rxHarvested() + rig.nic_->txConsumed());
    // Everything harvested was delivered (no Tx wire in this rig), and
    // harvested + dropped covers everything received.
    EXPECT_EQ(rig.delivered_.size(), rig.nic_->rxHarvested());
    EXPECT_EQ(rig.nic_->rxHarvested() + rig.nic_->packetsDropped(),
              rig.nic_->packetsReceived());
    // The degraded ring actually bit.
    EXPECT_GT(rig.nic_->packetsDropped(), 0u);
}

TEST(BypassRigTest, DestructionMidSleepIsClean)
{
    BypassRig rig;
    rig.build(BypassRig::bypassParams("metronome"));
    rig.eq_.runUntil(microseconds(100));
    // At least one poller is now asleep with its timer scheduled; the
    // engine (and its threads) must release the pending event instead
    // of panicking in ~Event.
    EXPECT_GT(rig.engine_->stats().sleeps, 0u);
    rig.engine_.reset();
}

TEST(BypassRigTest, IdenticalRigsReplayByteIdenticalCounters)
{
    PolicyParams params = BypassRig::bypassParams("metronome");
    params.set("dataplane.sleep_armed_irq", "true");
    BypassRig rig;
    rig.build(params);
    BypassRig twin;
    twin.build(params);

    auto drive = [](BypassRig &r) {
        for (std::uint32_t flow = 0; flow < 64; ++flow)
            r.sendToFlow(flow * 3);
        r.eq_.runUntil(milliseconds(1));
    };
    drive(rig);
    drive(twin);

    BypassEngine::Stats a = rig.engine_->stats();
    BypassEngine::Stats b = twin.engine_->stats();
    EXPECT_EQ(a.pollLoops, b.pollLoops);
    EXPECT_EQ(a.emptyPolls, b.emptyPolls);
    EXPECT_EQ(a.sleeps, b.sleeps);
    EXPECT_EQ(a.sleepResidency, b.sleepResidency);
    EXPECT_EQ(a.pktsHarvested, b.pktsHarvested);
    EXPECT_EQ(rig.delivered_, twin.delivered_);
}

// ---------------------------------------------------- experiment rig

ExperimentConfig
bypassExperiment(const std::string &policy)
{
    ExperimentConfig cfg;
    cfg.app = AppProfile::memcached();
    cfg.freqPolicy = "ondemand";
    cfg.load = LoadLevel::kMed;
    cfg.numCores = 4;
    cfg.warmup = milliseconds(20);
    cfg.duration = milliseconds(100);
    cfg.params.set("dataplane.mode", "bypass");
    cfg.params.set("dataplane.policy", policy);
    return cfg;
}

TEST(BypassExperimentTest, ModeSelectionShiftsAllWorkToPolling)
{
    ExperimentResult r = Experiment(bypassExperiment("spin")).run();
    // Bypass mode: zero interrupt-mode packets, zero softirq handoffs,
    // and the conservation identity carries over with the polling
    // counter doing all the work.
    EXPECT_EQ(r.pktsIntrMode, 0u);
    EXPECT_GT(r.pktsPollMode, 0u);
    EXPECT_EQ(r.pktsPollMode, r.nicRxHarvested + r.nicTxConsumed);
    EXPECT_EQ(r.ksoftirqdWakes, 0u);
    EXPECT_GT(r.responsesReceived, 0u);
    EXPECT_GT(r.bypassPollLoops, 0u);
    EXPECT_EQ(r.bypassSleeps, 0u);
    EXPECT_GT(r.bypassWastedPollEnergy, 0.0);
}

TEST(BypassExperimentTest, MetronomeTradesLoopsForResidency)
{
    ExperimentResult spin =
        Experiment(bypassExperiment("spin")).run();
    ExperimentConfig mcfg = bypassExperiment("metronome");
    mcfg.params.set("dataplane.sleep_armed_irq", "true");
    ExperimentResult metro = Experiment(mcfg).run();

    EXPECT_GT(metro.bypassSleeps, 0u);
    EXPECT_GT(metro.bypassSleepResidency, 0);
    EXPECT_LT(metro.bypassPollLoops, spin.bypassPollLoops);
    EXPECT_LT(metro.bypassWastedPollEnergy,
              spin.bypassWastedPollEnergy);
    EXPECT_EQ(metro.pktsIntrMode, 0u);
    EXPECT_EQ(metro.pktsPollMode,
              metro.nicRxHarvested + metro.nicTxConsumed);
}

TEST(BypassExperimentTest, UnknownPolicyFailsAtConstruction)
{
    ExperimentConfig cfg = bypassExperiment("no-such-policy");
    EXPECT_THROW(Experiment{cfg}, FatalError);
}

TEST(BypassExperimentTest, PollCoresMustLeaveAWorker)
{
    ExperimentConfig cfg = bypassExperiment("spin");
    cfg.params.set("dataplane.poll_cores", 4);
    EXPECT_THROW(Experiment{cfg}, FatalError);
}

TEST(BypassExperimentTest, FaultedRingConservesUnderBypass)
{
    // ring_degrade mid-run under a live bypass poll loop: drops may
    // spike, but the mode/harvest identity must stay exact.
    ExperimentConfig cfg = bypassExperiment("metronome");
    cfg.params.setTick("fault.ring_degrade_at", milliseconds(50));
    cfg.params.set("fault.ring_size", 8);
    cfg.params.setTick("fault.ring_restore_at", milliseconds(90));
    ExperimentResult r = Experiment(cfg).run();

    EXPECT_EQ(r.pktsIntrMode, 0u);
    EXPECT_EQ(r.pktsPollMode, r.nicRxHarvested + r.nicTxConsumed);
    EXPECT_GE(r.requestsSent, r.responsesReceived + r.nicDrops);
    EXPECT_GT(r.responsesReceived, 0u);
}

TEST(BypassExperimentTest, RerunIsDeterministic)
{
    ExperimentConfig cfg = bypassExperiment("metronome");
    cfg.params.set("dataplane.sleep_armed_irq", "true");
    ExperimentResult a = Experiment(cfg).run();
    ExperimentResult b = Experiment(cfg).run();
    EXPECT_EQ(a.requestsSent, b.requestsSent);
    EXPECT_EQ(a.responsesReceived, b.responsesReceived);
    EXPECT_EQ(a.pktsPollMode, b.pktsPollMode);
    EXPECT_EQ(a.bypassPollLoops, b.bypassPollLoops);
    EXPECT_EQ(a.bypassSleeps, b.bypassSleeps);
    EXPECT_EQ(a.bypassSleepResidency, b.bypassSleepResidency);
    EXPECT_EQ(a.energyJoules, b.energyJoules);
}

} // namespace
} // namespace nmapsim

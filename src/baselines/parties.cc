#include "baselines/parties.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace nmapsim {

PartiesGovernor::PartiesGovernor(EventQueue &eq,
                                 std::vector<Core *> cores,
                                 Client &client,
                                 const PartiesConfig &config)
    : eq_(eq), cores_(std::move(cores)), client_(client),
      config_(config), tickEvent_([this] { tick(); }, "parties.tick")
{
    if (cores_.empty())
        fatal("PartiesGovernor requires at least one core");
    client_.watchWindow();
}

PartiesGovernor::~PartiesGovernor()
{
    eq_.deschedule(&tickEvent_);
}

void
PartiesGovernor::start()
{
    // Parties begins from a mid-range allocation and lets feedback
    // settle it.
    applyChipWide(cores_.front()->profile().pstates.maxIndex() / 2);
    eq_.scheduleIn(&tickEvent_, config_.interval);
}

void
PartiesGovernor::applyChipWide(int idx)
{
    chipIdx_ = cores_.front()->profile().pstates.clampIndex(idx);
    for (Core *core : cores_)
        core->dvfs().requestPState(chipIdx_);
}

void
PartiesGovernor::tick()
{
    Tick p99 = client_.windowP99AndReset();
    if (p99 > 0) {
        double slack = static_cast<double>(config_.slo - p99) /
                       static_cast<double>(config_.slo);
        lastSlack_ = slack;
        if (slack < 0.0) {
            int steps = 1 + static_cast<int>(std::ceil(
                                -slack * config_.upAggression));
            applyChipWide(chipIdx_ - steps);
        } else if (slack > config_.downSlack) {
            applyChipWide(chipIdx_ + 1);
        }
    } else {
        // No completed requests this window: idle, drift down.
        applyChipWide(chipIdx_ + 1);
    }
    eq_.scheduleIn(&tickEvent_, config_.interval);
}

} // namespace nmapsim

// --- Policy-registry entry ---------------------------------------------

#include "harness/policy_registry.hh"
#include "workload/client.hh"

namespace nmapsim {

namespace {

PartiesConfig
partiesParams(const PolicyParams &params)
{
    PartiesConfig config;
    readParams(params, "parties", config);
    if (config.interval <= 0)
        fatal("parties.interval must be > 0");
    if (!(config.downSlack >= 0.0))
        fatal("parties.down_slack must be >= 0");
    return config;
}

REGISTER_PARAMS("parties", &partiesParams, "Parties controller tunables");

FreqPolicyInstance
makeParties(PolicyContext &ctx)
{
    if (!ctx.client)
        fatal("Parties needs a client-side tail-latency feed, which "
              "this harness does not provide");
    PartiesConfig config = partiesParams(ctx.params);
    if (!ctx.params.has("parties.slo") || config.slo == 0)
        config.slo = ctx.app.slo;
    return {std::make_unique<PartiesGovernor>(ctx.eq, ctx.cores,
                                              *ctx.client, config),
            nullptr};
}

REGISTER_FREQ_POLICY(
    "Parties", &makeParties,
    "Parties (ASPLOS'19) slack-driven chip-wide DVFS controller");

} // namespace
} // namespace nmapsim

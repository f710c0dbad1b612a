#include "dataplane/plan.hh"

#include "sim/logging.hh"

namespace nmapsim {

void
parseConfigField(const std::string &text, const std::string &key,
                 DataplanePlan::Mode &mode)
{
    if (text.empty() || text == "napi")
        mode = DataplanePlan::Mode::kNapi;
    else if (text == "bypass")
        mode = DataplanePlan::Mode::kBypass;
    else
        fatal(key + " must be 'napi' or 'bypass', got '" + text + "'");
}

DataplanePlan
DataplanePlan::fromParams(const PolicyParams &params)
{
    DataplanePlan plan;
    readParams(params, "dataplane", plan);
    if (plan.pollCores < 1)
        fatal("dataplane.poll_cores must be >= 1");
    if (plan.pollBatch < 1)
        fatal("dataplane.poll_batch must be >= 1");
    if (plan.policy.empty())
        fatal("dataplane.policy must name a registered policy");
    if (plan.rxPacketCycles <= 0)
        fatal("dataplane.rx_packet_cycles must be > 0");
    if (plan.txCompletionCycles <= 0)
        fatal("dataplane.tx_completion_cycles must be > 0");

    // The non-mode keys only steer the bypass engine; rejecting them
    // under NAPI catches configs that meant to flip the mode.
    if (!plan.bypass()) {
        for (const auto &[key, value] : params) {
            if (key.rfind("dataplane.", 0) == 0 && key != "dataplane.mode")
                fatal("'" + key + "' requires dataplane.mode=bypass");
        }
    }
    return plan;
}

REGISTER_PARAMS("dataplane", &DataplanePlan::fromParams, "the packet path");

} // namespace nmapsim

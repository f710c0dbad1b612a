#include "harness/result_io.hh"

namespace nmapsim {

void
appendBypassColumns(ResultWriter::Record &rec, const std::string &prefix,
                    const ServerCounters &counters)
{
    if (!counters.bypass)
        return;
    rec.set(prefix + "bypass_poll_loops", counters.bypassPollLoops)
        .set(prefix + "bypass_empty_polls", counters.bypassEmptyPolls)
        .set(prefix + "bypass_sleeps", counters.bypassSleeps)
        .set(prefix + "bypass_sleep_residency_ns",
             static_cast<std::int64_t>(counters.bypassSleepResidency))
        .set(prefix + "bypass_wasted_poll_energy_j",
             counters.bypassWastedPollEnergy);
}

ResultWriter::Record &
appendResultRecord(ResultWriter &writer, const ExperimentConfig &config,
                   const ExperimentResult &result)
{
    ResultWriter::Record &rec = writer.add();

    // Config dimensions identifying the point.
    rec.set("app", config.app.name)
        .set("load", loadLevelName(config.load))
        .set("freq_policy", config.freqPolicy)
        .set("idle_policy", config.idlePolicy)
        .set("cores", config.numCores)
        .set("connections", config.numConnections)
        .set("rps_override", config.rpsOverride)
        .set("warmup_ns", static_cast<std::int64_t>(config.warmup))
        .set("duration_ns", static_cast<std::int64_t>(config.duration))
        .set("seed", config.seed);
    for (const auto &[key, value] : config.params)
        rec.set(key, value);

    // Measured metrics.
    rec.set("p50_ns", static_cast<std::int64_t>(result.p50))
        .set("p99_ns", static_cast<std::int64_t>(result.p99))
        .set("max_latency_ns",
             static_cast<std::int64_t>(result.maxLatency))
        .set("mean_latency_ns", result.meanLatency)
        .set("slo_ns", static_cast<std::int64_t>(result.slo))
        .set("frac_over_slo", result.fracOverSlo)
        .set("energy_j", result.energyJoules)
        .set("avg_power_w", result.avgPowerWatts)
        .set("requests_sent", result.requestsSent)
        .set("responses_received", result.responsesReceived)
        .set("nic_drops", result.nicDrops)
        .set("nic_rx_harvested", result.nicRxHarvested)
        .set("nic_tx_consumed", result.nicTxConsumed)
        .set("pkts_intr_mode", result.pktsIntrMode)
        .set("pkts_poll_mode", result.pktsPollMode)
        .set("ksoftirqd_wakes", result.ksoftirqdWakes)
        .set("pstate_transitions", result.pstateTransitions)
        .set("cc6_wakes", result.cc6Wakes)
        .set("cc1_wakes", result.cc1Wakes)
        .set("busy_fraction", result.busyFraction)
        .set("ni_threshold_used", result.niThresholdUsed)
        .set("cu_threshold_used", result.cuThresholdUsed)
        .set("requests_timed_out", result.requestsTimedOut)
        .set("retransmits", result.retransmits)
        .set("requests_in_flight", result.requestsInFlight)
        .set("duplicate_responses", result.duplicateResponses)
        .set("fault_pkts_lost", result.faultPacketsLost)
        .set("fault_pkts_corrupted", result.faultPacketsCorrupted)
        .set("link_down_drops", result.linkDownDrops)
        .set("availability", result.availability)
        .set("attempt_p99_ns",
             static_cast<std::int64_t>(result.attemptP99));

    appendBypassColumns(rec, "", result);

    // Resilience counters only exist when a resilience.* plan is
    // configured; gating them the same way keeps every pre-resilience
    // record byte-identical.
    if (result.resilient) {
        rec.set("requests_shed", result.requestsShed)
            .set("retry_budget_exhausted", result.retryBudgetExhausted)
            .set("shed_admission", result.shedAdmission)
            .set("shed_sojourn", result.shedSojourn)
            .set("shed_deadline", result.shedDeadline);
    }
    return rec;
}

} // namespace nmapsim

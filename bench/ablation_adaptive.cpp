/**
 * @file
 * Extension evaluation: online threshold adaptation (the paper's
 * Section 4.2 future work) vs the offline profiling procedure.
 *
 * For each application, three variants:
 *  1. offline NMAP with the application's own profiled thresholds
 *     (the paper's deployment),
 *  2. offline NMAP with *stale* thresholds profiled for the other
 *     application — the paper requires "resetting the values via the
 *     profiling for running another application"; this row shows what
 *     happens when that reset is skipped,
 *  3. NMAP-adaptive, which needs no profiling pass at all.
 *
 * The dangerous stale direction is inheriting thresholds that are too
 * *high* for the new application (NI_TH above anything its sessions
 * reach): the Network Intensive trigger then fires late or never.
 *
 * Both profiling passes and all 18 variant runs fan out on the sweep
 * pool.
 */

#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "stats/table.hh"

using namespace nmapsim;

namespace {

using bench::Variant;

std::vector<ExperimentConfig>
appPoints(const AppProfile &app, const std::vector<Variant> &variants)
{
    std::vector<ExperimentConfig> points;
    for (const Variant &v : variants) {
        for (LoadLevel load :
             {LoadLevel::kLow, LoadLevel::kMed, LoadLevel::kHigh}) {
            ExperimentConfig cfg = bench::cellConfig(app, load,
                                                     v.policy);
            v.pinThresholds(cfg.params);
            points.push_back(cfg);
        }
    }
    return points;
}

void
printApp(const AppProfile &app, double own_ni, double own_cu,
         double stale_ni, double stale_cu,
         const std::vector<Variant> &variants,
         const std::vector<ExperimentResult> &results,
         std::size_t offset)
{
    std::printf("\n--- %s (SLO %.0f ms; own NI_TH=%.1f CU_TH=%.2f, "
                "stale NI_TH=%.1f CU_TH=%.2f) ---\n",
                app.name.c_str(), toMilliseconds(app.slo), own_ni,
                own_cu, stale_ni, stale_cu);

    Table table({"variant", "load", "P99 (us)", "xSLO", "> SLO (%)",
                 "energy (J)", "NI_TH end", "CU_TH end"});
    std::size_t idx = offset;
    for (const Variant &v : variants) {
        for (LoadLevel load :
             {LoadLevel::kLow, LoadLevel::kMed, LoadLevel::kHigh}) {
            const ExperimentResult &r = results[idx++];
            table.addRow({
                v.name,
                loadLevelName(load),
                Table::num(toMicroseconds(r.p99), 0),
                Table::num(static_cast<double>(r.p99) /
                               static_cast<double>(app.slo),
                           2),
                Table::num(r.fracOverSlo * 100.0, 2),
                Table::num(r.energyJoules, 1),
                Table::num(r.niThresholdUsed, 1),
                Table::num(r.cuThresholdUsed, 2),
            });
        }
    }
    table.print(std::cout);
}

} // namespace

int
main()
{
    bench::banner("Ablation",
                  "offline vs stale vs online NMAP thresholds");

    AppProfile mc = AppProfile::memcached();
    AppProfile ng = AppProfile::nginx();
    std::vector<std::pair<double, double>> thresholds =
        bench::profileApps({mc, ng}, "ablation_adaptive");
    auto [mc_ni, mc_cu] = thresholds[0];
    auto [ng_ni, ng_cu] = thresholds[1];

    const std::vector<Variant> mc_variants = {
        {"offline (correct)", "NMAP", mc_ni, mc_cu},
        {"offline (stale)", "NMAP", ng_ni, ng_cu},
        {"online adaptive", "NMAP-adaptive", 0, 0},
    };
    const std::vector<Variant> ng_variants = {
        {"offline (correct)", "NMAP", ng_ni, ng_cu},
        {"offline (stale)", "NMAP", mc_ni, mc_cu},
        {"online adaptive", "NMAP-adaptive", 0, 0},
    };

    std::vector<ExperimentConfig> points = appPoints(mc, mc_variants);
    const std::size_t ng_offset = points.size();
    std::vector<ExperimentConfig> ng_points =
        appPoints(ng, ng_variants);
    points.insert(points.end(), ng_points.begin(), ng_points.end());
    std::vector<ExperimentResult> results =
        bench::runAll(points, "ablation_adaptive");

    printApp(mc, mc_ni, mc_cu, ng_ni, ng_cu, mc_variants, results, 0);
    printApp(ng, ng_ni, ng_cu, mc_ni, mc_cu, ng_variants, results,
             ng_offset);

    std::cout
        << "\nExpected: the adaptive variant meets the SLO on both "
           "applications with no profiling pass (thresholds converge "
           "during the run). Stale thresholds are harmless when they "
           "are too low (over-eager NI trigger, slight energy cost) "
           "but degrade the tail when too high for the application's "
           "session sizes — the case the paper's per-application "
           "re-profiling requirement exists for and the adaptive "
           "variant eliminates.\n";
    return 0;
}

/**
 * @file
 * Reproduces Fig. 11: CDF of response latency with NMAP at high load.
 * The paper reports that only 0.92% (memcached) and 0.06% (nginx) of
 * requests exceed the 1 ms / 10 ms SLOs. Both apps run concurrently.
 */

#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "stats/table.hh"

using namespace nmapsim;

int
main()
{
    bench::banner("Fig. 11", "CDF of response latency with NMAP");

    const std::vector<AppProfile> apps = {AppProfile::memcached(),
                                          AppProfile::nginx()};
    std::vector<ExperimentConfig> points;
    for (const AppProfile &app : apps) {
        ExperimentConfig cfg =
            bench::cellConfig(app, LoadLevel::kHigh, "NMAP");
        cfg.collectLatencyTrace = true; // fills the CDF
        points.push_back(cfg);
    }
    std::vector<ExperimentResult> results =
        bench::runAll(points, "fig11");

    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
        const AppProfile &app = apps[ai];
        const ExperimentResult &r = results[ai];

        std::printf("\n--- %s, NMAP ---\n", app.name.c_str());
        Table table({"latency (us)", "CDF"});
        std::size_t step = r.cdf.size() / 20;
        if (step == 0)
            step = 1;
        for (std::size_t i = step - 1; i < r.cdf.size(); i += step)
            table.addRow(
                {Table::num(toMicroseconds(r.cdf[i].first), 0),
                 Table::num(r.cdf[i].second, 3)});
        table.print(std::cout);
        std::printf("requests over the %.0f ms SLO: %.2f%% "
                    "(paper: %.2f%%), P99 = %.0f us\n",
                    toMilliseconds(app.slo), r.fracOverSlo * 100.0,
                    app.name == "memcached" ? 0.92 : 0.06,
                    toMicroseconds(r.p99));
    }
    std::cout << "\nPaper shape: under 1% of requests exceed the SLO "
                 "for both applications, i.e. the P99 target holds.\n";
    return 0;
}

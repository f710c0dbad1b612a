/**
 * @file
 * Regenerates the golden-output files determinism_test pins
 * (the .golden files under tests/golden/). Run it only when the record
 * format or a pinned config intentionally changes, and review the
 * golden diff as part of that change:
 *
 *   ./build/tests/golden_gen tests/golden
 *
 * An engine change must NOT need a regeneration — byte-identical
 * output across engine rewrites is the whole point of the pin.
 */

#include <cstdio>
#include <fstream>
#include <string>

#include "golden_configs.hh"

namespace {

int
writeFile(const std::string &path, const std::string &contents)
{
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "golden_gen: cannot write %s\n",
                     path.c_str());
        return 1;
    }
    out << contents;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: golden_gen <output-dir>\n");
        return 2;
    }
    const std::string dir = argv[1];
    using namespace nmapsim;

    int rc = 0;
    rc |= writeFile(dir + "/single_host.golden",
                    golden::renderSingleHost(golden::smallSingleHost()));
    rc |= writeFile(dir + "/cluster.golden",
                    golden::renderCluster(golden::smallCluster()));
    rc |= writeFile(dir + "/faulted_single_host.golden",
                    golden::renderSingleHost(golden::faultedSingleHost()));
    rc |= writeFile(dir + "/faulted_cluster.golden",
                    golden::renderCluster(golden::faultedCluster()));
    rc |= writeFile(dir + "/faulted_bypass.golden",
                    golden::renderSingleHost(golden::faultedBypassHost()));
    rc |= writeFile(dir + "/tiered_cluster.golden",
                    golden::renderCluster(golden::tieredCluster()));
    rc |= writeFile(dir + "/nfv_chain.golden",
                    golden::renderCluster(golden::nfvChain()));
    rc |= writeFile(dir + "/resilient_cascade.golden",
                    golden::renderCluster(golden::resilientCascade()));
    rc |= writeFile(dir + "/bounded_port.golden",
                    golden::renderCluster(golden::boundedPortCluster()));
    if (rc == 0)
        std::printf("golden_gen: wrote 9 goldens to %s\n", dir.c_str());
    return rc;
}

#include "cluster/topology.hh"

#include "sim/logging.hh"

namespace nmapsim {
namespace {

[[noreturn]] void
badTierKey(const std::string &key)
{
    fatal("unknown topology key '" + key +
          "' (expected topology.tiers or one of: " +
          schemaKeyList(TierSpec{}) + ")");
}

/**
 * Split "topology.tier<i>.<field>" into (i, the key's schema spelling
 * "topology.tier<i>.<field>"); fatal on any other shape.
 */
std::pair<int, std::string>
splitTierKey(const std::string &key)
{
    const std::string prefix = "topology.tier";
    if (key.rfind(prefix, 0) != 0)
        badTierKey(key);
    const std::string rest = key.substr(prefix.size());
    const std::size_t dot = rest.find('.');
    if (dot == std::string::npos || dot == 0)
        badTierKey(key);
    const std::string index = rest.substr(0, dot);
    for (char c : index) {
        if (c < '0' || c > '9')
            badTierKey(key);
    }
    return {parseConfigNumber<int>(index, key),
            prefix + "<i>" + rest.substr(dot)};
}

void
validate(const TopologyPlan &plan)
{
    for (int t = 0; t < plan.numTiers(); ++t) {
        const TierSpec &tier = plan.tiers[t];
        const std::string label =
            "topology.tier" + std::to_string(t);
        if (tier.name.empty())
            fatal(label + ".name must not be empty");
        if (tier.hosts < 1)
            fatal(label + ".hosts must be >= 1");
        if (tier.serviceScale <= 0.0)
            fatal(label + ".service_scale must be positive");
        if (tier.clients < 0)
            fatal(label + ".clients must be >= 0");
        for (int u = 0; u < t; ++u) {
            if (plan.tiers[u].name == tier.name)
                fatal("duplicate topology tier name '" + tier.name +
                      "'");
        }
    }
}

} // namespace

int
TopologyPlan::totalHosts() const
{
    int total = 0;
    for (const TierSpec &tier : tiers)
        total += tier.hosts;
    return total;
}

int
TopologyPlan::firstHostOf(int tier) const
{
    int first = 0;
    for (int t = 0; t < tier; ++t)
        first += tiers[t].hosts;
    return first;
}

int
TopologyPlan::tierOf(int host) const
{
    int first = 0;
    for (int t = 0; t < numTiers(); ++t) {
        first += tiers[t].hosts;
        if (host < first)
            return t;
    }
    fatal("host id " + std::to_string(host) + " beyond topology");
    return -1;
}

TopologyPlan
TopologyPlan::fromParams(const PolicyParams &params)
{
    // The tier count sizes the tier vector, so it is read first.
    TopologyPlan plan;
    int numTiers = 0;
    bool sawTopologyKey = false;
    for (const auto &[name, value] : params) {
        if (name.rfind("topology.", 0) != 0)
            continue;
        sawTopologyKey = true;
        ConfigKeySetter key{name, value};
        key("topology.tiers", numTiers);
    }
    if (!sawTopologyKey)
        return plan;

    if (numTiers < 1)
        fatal("topology.tiers must be >= 1 when topology keys are set");
    if (numTiers > 16)
        fatal("topology.tiers must be <= 16");

    plan.tiers.resize(static_cast<std::size_t>(numTiers));
    for (int t = 0; t < numTiers; ++t)
        plan.tiers[t].name = "tier" + std::to_string(t);

    for (const auto &[key, value] : params) {
        if (key.rfind("topology.", 0) != 0 || key == "topology.tiers")
            continue;
        const auto [index, form] = splitTierKey(key);
        if (index >= numTiers) {
            fatal("'" + key + "' names tier " + std::to_string(index) +
                  " but topology.tiers=" + std::to_string(numTiers));
        }
        bool found = false;
        plan.tiers[static_cast<std::size_t>(index)].visit(
            [&](const char *name, auto &field) {
                if (form == name) {
                    parseConfigField(value, key, field);
                    found = true;
                }
            });
        if (!found)
            badTierKey(key);
    }
    validate(plan);
    return plan;
}

REGISTER_PARAMS("topology", &TopologyPlan::fromParams, "service tiers");

} // namespace nmapsim

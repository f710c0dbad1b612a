#include "harness/config_io.hh"

#include <charconv>
#include <sstream>

#include "sim/logging.hh"

namespace nmapsim {

namespace {

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

/** Every schema key once, in print order. */
template <typename Config, typename Key>
void
experimentKeys(Config &c, Key &&key)
{
    key("cpu_profile", c.cpuProfile);
    key("cores", c.numCores);
    key("app", c.app);
    key("load", c.load);
    key("rps_override", c.rpsOverride);
    key("train_mean_override", c.trainMeanOverride);
    key("duty_override", c.dutyOverride);
    key("burst.period", c.burst.period);
    key("burst.on_time", c.burst.onTime);
    key("connection_skew", c.connectionSkew);
    key("freq_policy", c.freqPolicy);
    key("idle_policy", c.idlePolicy);
    key("gov.sample_period", c.gov.samplePeriod);
    key("gov.up_threshold", c.gov.upThreshold);
    key("gov.down_threshold", c.gov.downThreshold);
    key("gov.ewma_alpha", c.gov.ewmaAlpha);
    key("os.irq_cycles", c.os.irqCycles);
    key("os.poll_overhead_cycles", c.os.pollOverheadCycles);
    key("os.rx_packet_cycles", c.os.rxPacketCycles);
    key("os.tx_completion_cycles", c.os.txCompletionCycles);
    key("os.napi_weight", c.os.napiWeight);
    key("os.tx_clean_budget", c.os.txCleanBudget);
    key("os.max_softirq_iters", c.os.maxSoftirqIters);
    key("os.jiffy", c.os.jiffy);
    key("os.max_softirq_time", c.os.maxSoftirqTime);
    key("nic.rx_ring_size", c.nic.rxRingSize);
    key("nic.itr", c.nic.itr);
    key("nic.dma_latency", c.nic.dmaLatency);
    key("connections", c.numConnections);
    key("warmup", c.warmup);
    key("duration", c.duration);
    key("seed", c.seed);
    key("collect_traces", c.collectTraces);
    key("trace_bucket", c.traceBucket);
    key("collect_latency_trace", c.collectLatencyTrace);
    key("watch_core", c.watchCore);
}

} // namespace

int
parseConfigInt(const std::string &text, const std::string &key)
{
    int v = 0;
    const char *b = text.data();
    const char *e = b + text.size();
    auto res = std::from_chars(b, e, v);
    if (res.ec != std::errc() || res.ptr != e)
        fatal("config key '" + key + "': not an integer: '" + text +
              "'");
    return v;
}

std::uint64_t
parseConfigUint(const std::string &text, const std::string &key)
{
    std::uint64_t v = 0;
    const char *b = text.data();
    const char *e = b + text.size();
    auto res = std::from_chars(b, e, v);
    if (res.ec != std::errc() || res.ptr != e)
        fatal("config key '" + key +
              "': not an unsigned integer: '" + text + "'");
    return v;
}

bool
parseConfigBool(const std::string &text, const std::string &key)
{
    if (text == "true" || text == "1")
        return true;
    if (text == "false" || text == "0")
        return false;
    fatal("config key '" + key + "': not a bool: '" + text +
          "' (use true/false)");
}

LoadLevel
parseConfigLoadLevel(const std::string &text, const std::string &key)
{
    if (text == "low")
        return LoadLevel::kLow;
    if (text == "med")
        return LoadLevel::kMed;
    if (text == "high")
        return LoadLevel::kHigh;
    fatal("config key '" + key + "': unknown load level '" + text +
          "' (known: low, med, high)");
}

void
readConfigLines(const std::string &text, const ConfigLineSink &apply)
{
    std::istringstream is(text);
    std::string line;
    int lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        std::string t = trim(line);
        if (t.empty() || t[0] == '#')
            continue;
        std::size_t eq = t.find('=');
        if (eq == std::string::npos)
            fatal("config line " + std::to_string(lineno) +
                  ": expected key=value, got '" + t + "'");
        std::string key = trim(t.substr(0, eq));
        if (key.empty())
            fatal("config line " + std::to_string(lineno) +
                  ": empty key");
        apply(key, trim(t.substr(eq + 1)));
    }
}

std::string
printConfig(const ExperimentConfig &c)
{
    std::ostringstream os;
    experimentKeys(c, ConfigKeyPrinter{os});
    for (const auto &[key, value] : c.params)
        os << key << "=" << value << "\n";
    return os.str();
}

void
setConfigValue(ExperimentConfig &c, const std::string &key,
               const std::string &value)
{
    ConfigKeySetter set{key, value};
    experimentKeys(c, set);
    if (set.found)
        return;

    // Policy params passthrough.
    std::size_t dot = key.find('.');
    if (dot == std::string::npos || dot == 0)
        fatal("unknown config key '" + key + "'");
    std::string prefix = key.substr(0, dot);
    if (prefix == "gov" || prefix == "burst" || prefix == "os" ||
        prefix == "nic")
        fatal("unknown config key '" + key + "'");
    c.params.set(key, value);
}

ExperimentConfig
parseConfig(const std::string &text)
{
    ExperimentConfig config;
    readConfigLines(text, [&config](const std::string &key,
                                    const std::string &value) {
        setConfigValue(config, key, value);
    });
    return config;
}

} // namespace nmapsim

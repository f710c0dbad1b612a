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

bool
parseBool(const std::string &text, const std::string &key)
{
    if (text == "true" || text == "1")
        return true;
    if (text == "false" || text == "0")
        return false;
    fatal("config key '" + key + "': not a bool: '" + text +
          "' (use true/false)");
}

LoadLevel
parseLoadLevel(const std::string &text, const std::string &key)
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

// Reuse the params-blob scalar grammar for doubles and durations.
double
parseDouble(const std::string &text, const std::string &key)
{
    return PolicyParams::parseDouble(text, key);
}

Tick
parseTick(const std::string &text, const std::string &key)
{
    return PolicyParams::parseTick(text, key);
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

std::string
formatConfigTick(Tick t)
{
    return std::to_string(t) + "ns";
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
    auto put = [&os](const std::string &key, const std::string &value) {
        os << key << "=" << value << "\n";
    };
    auto fd = [](double v) { return PolicyParams::formatDouble(v); };

    put("cpu_profile", c.cpuProfile);
    put("cores", std::to_string(c.numCores));
    put("app", c.app.name);
    put("load", loadLevelName(c.load));
    put("rps_override", fd(c.rpsOverride));
    put("train_mean_override", fd(c.trainMeanOverride));
    put("duty_override", fd(c.dutyOverride));
    put("burst.period", formatConfigTick(c.burst.period));
    put("burst.on_time", formatConfigTick(c.burst.onTime));
    put("connection_skew", fd(c.connectionSkew));
    put("freq_policy", c.freqPolicy);
    put("idle_policy", c.idlePolicy);
    put("gov.sample_period", formatConfigTick(c.gov.samplePeriod));
    put("gov.up_threshold", fd(c.gov.upThreshold));
    put("gov.down_threshold", fd(c.gov.downThreshold));
    put("gov.ewma_alpha", fd(c.gov.ewmaAlpha));
    put("os.irq_cycles", fd(c.os.irqCycles));
    put("os.poll_overhead_cycles", fd(c.os.pollOverheadCycles));
    put("os.rx_packet_cycles", fd(c.os.rxPacketCycles));
    put("os.tx_completion_cycles", fd(c.os.txCompletionCycles));
    put("os.napi_weight", std::to_string(c.os.napiWeight));
    put("os.tx_clean_budget", std::to_string(c.os.txCleanBudget));
    put("os.max_softirq_iters", std::to_string(c.os.maxSoftirqIters));
    put("os.jiffy", formatConfigTick(c.os.jiffy));
    put("os.max_softirq_time", formatConfigTick(c.os.maxSoftirqTime));
    put("nic.rx_ring_size", std::to_string(c.nic.rxRingSize));
    put("nic.itr", formatConfigTick(c.nic.itr));
    put("nic.dma_latency", formatConfigTick(c.nic.dmaLatency));
    put("connections", std::to_string(c.numConnections));
    put("warmup", formatConfigTick(c.warmup));
    put("duration", formatConfigTick(c.duration));
    put("seed", std::to_string(c.seed));
    put("collect_traces", c.collectTraces ? "true" : "false");
    put("trace_bucket", formatConfigTick(c.traceBucket));
    put("collect_latency_trace",
        c.collectLatencyTrace ? "true" : "false");
    put("watch_core", std::to_string(c.watchCore));

    for (const auto &[key, value] : c.params)
        put(key, value);

    return os.str();
}

void
setConfigValue(ExperimentConfig &c, const std::string &key,
               const std::string &value)
{
    // --- Flat keys ----------------------------------------------------
    if (key == "cpu_profile") {
        c.cpuProfile = value;
    } else if (key == "cores") {
        c.numCores = parseConfigInt(value, key);
    } else if (key == "app") {
        c.app = AppProfile::byName(value);
    } else if (key == "load") {
        c.load = parseLoadLevel(value, key);
    } else if (key == "rps_override") {
        c.rpsOverride = parseDouble(value, key);
    } else if (key == "train_mean_override") {
        c.trainMeanOverride = parseDouble(value, key);
    } else if (key == "duty_override") {
        c.dutyOverride = parseDouble(value, key);
    } else if (key == "connection_skew") {
        c.connectionSkew = parseDouble(value, key);
    } else if (key == "freq_policy") {
        c.freqPolicy = value;
    } else if (key == "idle_policy") {
        c.idlePolicy = value;
    } else if (key == "connections") {
        c.numConnections = parseConfigInt(value, key);
    } else if (key == "warmup") {
        c.warmup = parseTick(value, key);
    } else if (key == "duration") {
        c.duration = parseTick(value, key);
    } else if (key == "seed") {
        c.seed = parseConfigUint(value, key);
    } else if (key == "collect_traces") {
        c.collectTraces = parseBool(value, key);
    } else if (key == "trace_bucket") {
        c.traceBucket = parseTick(value, key);
    } else if (key == "collect_latency_trace") {
        c.collectLatencyTrace = parseBool(value, key);
    } else if (key == "watch_core") {
        c.watchCore = parseConfigInt(value, key);

        // --- burst.* --------------------------------------------------
    } else if (key == "burst.period") {
        c.burst.period = parseTick(value, key);
    } else if (key == "burst.on_time") {
        c.burst.onTime = parseTick(value, key);

        // --- gov.* ----------------------------------------------------
    } else if (key == "gov.sample_period") {
        c.gov.samplePeriod = parseTick(value, key);
    } else if (key == "gov.up_threshold") {
        c.gov.upThreshold = parseDouble(value, key);
    } else if (key == "gov.down_threshold") {
        c.gov.downThreshold = parseDouble(value, key);
    } else if (key == "gov.ewma_alpha") {
        c.gov.ewmaAlpha = parseDouble(value, key);

        // --- os.* -----------------------------------------------------
    } else if (key == "os.irq_cycles") {
        c.os.irqCycles = parseDouble(value, key);
    } else if (key == "os.poll_overhead_cycles") {
        c.os.pollOverheadCycles = parseDouble(value, key);
    } else if (key == "os.rx_packet_cycles") {
        c.os.rxPacketCycles = parseDouble(value, key);
    } else if (key == "os.tx_completion_cycles") {
        c.os.txCompletionCycles = parseDouble(value, key);
    } else if (key == "os.napi_weight") {
        c.os.napiWeight = parseConfigInt(value, key);
    } else if (key == "os.tx_clean_budget") {
        c.os.txCleanBudget = parseConfigInt(value, key);
    } else if (key == "os.max_softirq_iters") {
        c.os.maxSoftirqIters = parseConfigInt(value, key);
    } else if (key == "os.jiffy") {
        c.os.jiffy = parseTick(value, key);
    } else if (key == "os.max_softirq_time") {
        c.os.maxSoftirqTime = parseTick(value, key);

        // --- nic.* ----------------------------------------------------
    } else if (key == "nic.rx_ring_size") {
        c.nic.rxRingSize =
            static_cast<std::size_t>(parseConfigUint(value, key));
    } else if (key == "nic.itr") {
        c.nic.itr = parseTick(value, key);
    } else if (key == "nic.dma_latency") {
        c.nic.dmaLatency = parseTick(value, key);

        // --- Policy params passthrough --------------------------------
    } else {
        std::size_t dot = key.find('.');
        if (dot == std::string::npos || dot == 0)
            fatal("unknown config key '" + key + "'");
        std::string prefix = key.substr(0, dot);
        if (prefix == "gov" || prefix == "burst" || prefix == "os" ||
            prefix == "nic")
            fatal("unknown config key '" + key + "'");
        c.params.set(key, value);
    }
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

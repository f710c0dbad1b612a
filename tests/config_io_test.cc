/**
 * @file
 * Round-trip and rejection tests for the declarative config format.
 *
 * The core property: `parseConfig(printConfig(c)) == c` for any config
 * whose members are serialisable (everything except loadSchedule,
 * colocated and extraObservers). Checked over randomized configs so the schema, the
 * printer and the parser cannot drift apart silently. The rejection
 * half pins down that unknown keys and malformed values are fatal
 * rather than silently ignored.
 */

#include <gtest/gtest.h>

#include <string>

#include "harness/config_io.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace nmapsim {
namespace {

ExperimentConfig
randomConfig(Rng &rng)
{
    ExperimentConfig c;
    const char *apps[] = {"memcached", "nginx", "keyvalue-us"};
    c.app = AppProfile::byName(apps[rng.uniformInt(0, 2)]);
    c.numCores = static_cast<int>(rng.uniformInt(1, 8));
    c.load = static_cast<LoadLevel>(rng.uniformInt(0, 2));
    if (rng.bernoulli(0.5))
        c.rpsOverride = rng.uniform(1e4, 1e6);
    if (rng.bernoulli(0.3))
        c.trainMeanOverride = rng.uniform(1.0, 8.0);
    if (rng.bernoulli(0.3))
        c.dutyOverride = rng.uniform(0.1, 0.9);
    c.burst.period = microseconds(rng.uniformInt(1000, 200000));
    c.burst.onTime = c.burst.period / 2;
    if (rng.bernoulli(0.3))
        c.connectionSkew = rng.uniform(0.0, 1.0);

    const char *policies[] = {"performance", "powersave",  "ondemand",
                              "NMAP",        "NMAP-simpl", "NCAP",
                              "Parties"};
    c.freqPolicy = policies[rng.uniformInt(0, 6)];
    const char *idles[] = {"menu", "disable", "c6only", "teo"};
    c.idlePolicy = idles[rng.uniformInt(0, 3)];

    c.gov.samplePeriod = milliseconds(rng.uniformInt(1, 50));
    c.gov.upThreshold = rng.uniform(0.5, 0.95);
    c.gov.downThreshold = rng.uniform(0.05, 0.4);
    c.gov.ewmaAlpha = rng.uniform(0.1, 0.9);

    c.os.irqCycles = rng.uniform(500.0, 3000.0);
    c.os.rxPacketCycles = rng.uniform(2000.0, 9000.0);
    c.os.napiWeight = static_cast<int>(rng.uniformInt(8, 64));
    c.os.jiffy = milliseconds(rng.uniformInt(1, 10));

    c.nic.rxRingSize =
        static_cast<std::size_t>(rng.uniformInt(256, 4096));
    c.nic.itr = microseconds(rng.uniformInt(0, 200));

    c.numConnections = static_cast<int>(rng.uniformInt(8, 64));
    c.warmup = milliseconds(rng.uniformInt(0, 500));
    c.duration = milliseconds(rng.uniformInt(50, 2000));
    c.seed = rng.next();
    c.collectTraces = rng.bernoulli(0.5);
    c.traceBucket = microseconds(rng.uniformInt(100, 5000));
    c.collectLatencyTrace = rng.bernoulli(0.5);
    c.watchCore = static_cast<int>(rng.uniformInt(0, 7));

    // Policy tunables ride through the params blob verbatim.
    if (rng.bernoulli(0.7)) {
        c.params.set("nmap.ni_th", rng.uniform(5.0, 30.0));
        c.params.set("nmap.cu_th", rng.uniform(0.2, 0.8));
    }
    if (rng.bernoulli(0.3))
        c.params.setTick("nmap.timer_interval",
                         microseconds(rng.uniformInt(50, 500)));
    if (rng.bernoulli(0.3))
        c.params.set("userspace.pstate",
                     static_cast<int>(rng.uniformInt(0, 5)));
    if (rng.bernoulli(0.2))
        c.params.set("nmap.auto_profile", false);
    return c;
}

TEST(ConfigIoTest, DefaultConfigRoundTrips)
{
    ExperimentConfig def;
    EXPECT_EQ(parseConfig(printConfig(def)), def);
}

TEST(ConfigIoTest, RandomConfigsRoundTrip)
{
    Rng rng(20260807);
    for (int i = 0; i < 50; ++i) {
        ExperimentConfig cfg = randomConfig(rng);
        std::string text = printConfig(cfg);
        SCOPED_TRACE("iteration " + std::to_string(i) + "\n" + text);
        EXPECT_EQ(parseConfig(text), cfg);
    }
}

TEST(ConfigIoTest, PrintIsStableUnderReparse)
{
    Rng rng(7);
    ExperimentConfig cfg = randomConfig(rng);
    std::string once = printConfig(cfg);
    EXPECT_EQ(printConfig(parseConfig(once)), once);
}

TEST(ConfigIoTest, CommentsAndBlankLinesAreSkipped)
{
    ExperimentConfig cfg = parseConfig("# a comment\n"
                                       "\n"
                                       "  cores = 4  \n"
                                       "   # indented comment\n"
                                       "freq_policy=NMAP\n");
    EXPECT_EQ(cfg.numCores, 4);
    EXPECT_EQ(cfg.freqPolicy, "NMAP");
}

TEST(ConfigIoTest, PolicyTunablesPassThrough)
{
    ExperimentConfig cfg = parseConfig("nmap.ni_th=13.5\n"
                                       "custom.knob=whatever\n");
    EXPECT_DOUBLE_EQ(cfg.params.getDouble("nmap.ni_th", 0.0), 13.5);
    EXPECT_EQ(cfg.params.raw("custom.knob"), "whatever");
    // The text parser keeps the key verbatim; building a harness
    // rejects it, since no component registers the `custom.` namespace.
    EXPECT_THROW(Experiment{cfg}, FatalError);
}

/** A params schema as a policy declares one; the visit order is not
 *  the sorted order. */
struct ProbeSchema
{
    double knob = 1.5;
    Tick period = microseconds(5);

    template <typename Key>
    void
    visit(Key &&key)
    {
        key("probe.period", period);
        key("probe.knob", knob);
    }
};

TEST(ConfigIoTest, ReadParamsKeepsTheDefaultOfAnAbsentKey)
{
    PolicyParams params;
    params.set("probe.knob", 2.5);
    ProbeSchema schema;
    readParams(params, "probe", schema);
    EXPECT_DOUBLE_EQ(schema.knob, 2.5);
    EXPECT_EQ(schema.period, microseconds(5));
}

TEST(ConfigIoTest, ReadParamsNamesUnknownKeyAndSortedKnownKeys)
{
    PolicyParams params;
    params.set("probe.typo", 3);
    ProbeSchema schema;
    try {
        readParams(params, "probe", schema);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "unknown probe key 'probe.typo' (known: "
                               "probe.knob, probe.period)");
    }
}

TEST(ConfigIoTest, ReadParamsIgnoresOtherNamespaces)
{
    PolicyParams params;
    params.set("prober.knob", "not a number");
    params.set("nmap.typo", 3);
    ProbeSchema schema;
    readParams(params, "probe", schema);
    EXPECT_DOUBLE_EQ(schema.knob, 1.5);
    EXPECT_EQ(schema.period, microseconds(5));
}

TEST(ConfigIoTest, DurationsAreFiniteNonNegativeTicks)
{
    for (const char *text : {"duration=nan\n", "duration=inf\n",
                             "duration=1e30s\n", "warmup=-5ms\n"}) {
        SCOPED_TRACE(text);
        EXPECT_THROW(parseConfig(text), FatalError);
    }
    EXPECT_EQ(parseConfig("duration=0\n").duration, 0);
    EXPECT_EQ(parseConfig("duration=1500ns\n").duration, 1500);
    EXPECT_EQ(parseConfig("duration=1.5us\n").duration, 1500);
}

TEST(ConfigIoTest, UnknownFlatKeyIsFatal)
{
    ExperimentConfig cfg;
    EXPECT_THROW(setConfigValue(cfg, "coers", "4"), FatalError);
    EXPECT_THROW(parseConfig("bogus_key=1\n"), FatalError);
}

TEST(ConfigIoTest, UnknownHarnessStructKeyIsFatal)
{
    // Dotted keys under the fixed harness prefixes must match the
    // schema exactly; only other prefixes pass through to params.
    ExperimentConfig cfg;
    EXPECT_THROW(setConfigValue(cfg, "gov.bogus", "1"), FatalError);
    EXPECT_THROW(setConfigValue(cfg, "os.irq_cycle", "1"), FatalError);
    EXPECT_THROW(setConfigValue(cfg, "nic.ringsize", "1"), FatalError);
    EXPECT_THROW(setConfigValue(cfg, "burst.up", "1"), FatalError);
    EXPECT_THROW(setConfigValue(cfg, ".leading_dot", "1"), FatalError);
    // The NIC always gets one queue per core, so the queue count is
    // not a key.
    EXPECT_THROW(setConfigValue(cfg, "nic.num_queues", "4"), FatalError);
}

TEST(ConfigIoTest, MalformedValuesAreFatal)
{
    ExperimentConfig cfg;
    EXPECT_THROW(setConfigValue(cfg, "cores", "four"), FatalError);
    EXPECT_THROW(setConfigValue(cfg, "cores", "4x"), FatalError);
    EXPECT_THROW(setConfigValue(cfg, "seed", "-1"), FatalError);
    EXPECT_THROW(setConfigValue(cfg, "rps_override", "fast"),
                 FatalError);
    EXPECT_THROW(setConfigValue(cfg, "duration", "10parsecs"),
                 FatalError);
    EXPECT_THROW(setConfigValue(cfg, "collect_traces", "maybe"),
                 FatalError);
    EXPECT_THROW(setConfigValue(cfg, "load", "extreme"), FatalError);
    EXPECT_THROW(setConfigValue(cfg, "app", "postgres"), FatalError);
}

TEST(ConfigIoTest, MalformedLinesAreFatal)
{
    EXPECT_THROW(parseConfig("cores 4\n"), FatalError);
    EXPECT_THROW(parseConfig("=5\n"), FatalError);
}

} // namespace
} // namespace nmapsim

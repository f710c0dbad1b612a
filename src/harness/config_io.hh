/**
 * @file
 * Declarative ExperimentConfig <-> key=value text round trip.
 *
 * printConfig() emits one `key=value` line per serialisable field;
 * parseConfig() reads the same format back, starting from a
 * default-constructed config, so `parseConfig(printConfig(c)) == c`
 * for any config without in-memory-only members. Blank lines and
 * `#` comments are skipped.
 *
 * Key space:
 *   - flat keys (`cores`, `app`, `freq_policy`, ...) and dotted
 *     harness-struct keys (`gov.*`, `burst.*`, `os.*`, `nic.*`) are
 *     fixed by the schema below; unknown ones are fatal();
 *   - any other dotted key (`nmap.ni_th`, `parties.interval`, ...) is
 *     passed through verbatim into ExperimentConfig::params, so a
 *     newly registered policy's tunables need no parser changes;
 *   - durations accept ns/us/ms/s suffixes and print as integer ns;
 *   - `app` is the AppProfile name (see AppProfile::byName).
 *
 * Not serialised (in-memory-only, documented on ExperimentConfig):
 * loadSchedule and extraObservers.
 */

#ifndef NMAPSIM_HARNESS_CONFIG_IO_HH_
#define NMAPSIM_HARNESS_CONFIG_IO_HH_

#include <functional>
#include <string>

#include "harness/experiment.hh"

namespace nmapsim {

/** Serialise every schema field as `key=value` lines. */
std::string printConfig(const ExperimentConfig &config);

/** Parse `key=value` lines onto a default config; fatal() on unknown
 *  keys or malformed values. */
ExperimentConfig parseConfig(const std::string &text);

/** Apply one key/value onto @p config; fatal() on unknown keys or
 *  malformed values. The CLI's `--set key=value` uses this. */
void setConfigValue(ExperimentConfig &config, const std::string &key,
                    const std::string &value);

using ConfigLineSink =
    std::function<void(const std::string &key, const std::string &value)>;

/**
 * The one `key=value` line reader: skips blank lines and `#` comments,
 * trims keys and values, and calls @p apply once per pair, in order.
 * fatal() with `config line N: ...` on a line without '=' or with an
 * empty key. parseConfig(), parseClusterConfig() and
 * `nmapsim_run --config` all read through it.
 */
void readConfigLines(const std::string &text, const ConfigLineSink &apply);

/** An integer config value; fatal() names @p key. */
int parseConfigInt(const std::string &text, const std::string &key);

/** A duration as configs print it: integer nanoseconds ("1500ns"). */
std::string formatConfigTick(Tick t);

} // namespace nmapsim

#endif // NMAPSIM_HARNESS_CONFIG_IO_HH_

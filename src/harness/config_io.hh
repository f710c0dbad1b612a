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
 *     fixed by the schema in config_io.cc; unknown ones are fatal();
 *   - any other dotted key (`nmap.ni_th`, ...) is kept verbatim in
 *     ExperimentConfig::params; its namespace's schema checks it when
 *     a harness is built (harness/policy_params.hh);
 *   - values go through the codec in harness/policy_params.hh.
 *
 * Not serialised (in-memory-only, documented on ExperimentConfig):
 * loadSchedule, colocated and extraObservers.
 */

#ifndef NMAPSIM_HARNESS_CONFIG_IO_HH_
#define NMAPSIM_HARNESS_CONFIG_IO_HH_

#include <functional>
#include <ostream>
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

/** The codec (harness/policy_params.hh) on a load level (low/med/high)
 *  and an AppProfile, by name. */
void parseConfigField(const std::string &text, const std::string &key,
                      LoadLevel &field);
inline void
parseConfigField(const std::string &text, const std::string &,
                 AppProfile &field)
{
    field = AppProfile::byName(text);
}
inline std::string
formatConfigField(LoadLevel field)
{
    return loadLevelName(field);
}
inline std::string
formatConfigField(const AppProfile &field)
{
    return field.name;
}

/**
 * Key visitor that prints each field as one `key=value` line. A config
 * schema lists each key once, as `key("cores", c.numCores)`, in print
 * order; printing (this) and parsing (ConfigKeySetter) walk that list.
 */
struct ConfigKeyPrinter
{
    std::ostream &os;

    template <typename Field>
    void
    operator()(const char *key, const Field &field) const
    {
        os << key << "=" << formatConfigField(field) << "\n";
    }
};

} // namespace nmapsim

#endif // NMAPSIM_HARNESS_CONFIG_IO_HH_

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

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <type_traits>

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

/** A non-negative integer config value; fatal() names @p key. */
std::uint64_t parseConfigUint(const std::string &text,
                              const std::string &key);

/** A bool config value (true/false/1/0); fatal() names @p key. */
bool parseConfigBool(const std::string &text, const std::string &key);

/** A load level by name (low/med/high); fatal() names @p key. */
LoadLevel parseConfigLoadLevel(const std::string &text,
                               const std::string &key);

/**
 * Parse @p text into @p field by the field's type: doubles and
 * durations (ns/us/ms/s suffixes) take the params-blob grammar, an
 * AppProfile its name. fatal() names @p key on a malformed value.
 */
template <typename Field>
void
parseConfigField(const std::string &text, const std::string &key,
                 Field &field)
{
    if constexpr (std::is_same_v<Field, bool>)
        field = parseConfigBool(text, key);
    else if constexpr (std::is_same_v<Field, int>)
        field = parseConfigInt(text, key);
    else if constexpr (std::is_unsigned_v<Field>)
        field = static_cast<Field>(parseConfigUint(text, key));
    else if constexpr (std::is_same_v<Field, double>)
        field = PolicyParams::parseDouble(text, key);
    else if constexpr (std::is_same_v<Field, Tick>)
        field = PolicyParams::parseTick(text, key);
    else if constexpr (std::is_same_v<Field, LoadLevel>)
        field = parseConfigLoadLevel(text, key);
    else if constexpr (std::is_same_v<Field, AppProfile>)
        field = AppProfile::byName(text);
    else
        field = text;
}

/** Format @p field as parseConfigField() reads it back; durations
 *  print as integer nanoseconds ("1500ns"). */
template <typename Field>
std::string
formatConfigField(const Field &field)
{
    if constexpr (std::is_same_v<Field, bool>)
        return field ? "true" : "false";
    else if constexpr (std::is_same_v<Field, double>)
        return PolicyParams::formatDouble(field);
    else if constexpr (std::is_same_v<Field, Tick>)
        return std::to_string(field) + "ns";
    else if constexpr (std::is_integral_v<Field>)
        return std::to_string(field);
    else if constexpr (std::is_same_v<Field, LoadLevel>)
        return loadLevelName(field);
    else if constexpr (std::is_same_v<Field, AppProfile>)
        return field.name;
    else
        return field;
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

/** Key visitor that parses @c value into the field named @c key;
 *  @c found tells whether the schema lists that key. */
struct ConfigKeySetter
{
    const std::string &key;
    const std::string &value;
    bool found = false;

    template <typename Field>
    void
    operator()(const char *name, Field &field)
    {
        if (!found && key == name) {
            parseConfigField(value, key, field);
            found = true;
        }
    }
};

} // namespace nmapsim

#endif // NMAPSIM_HARNESS_CONFIG_IO_HH_

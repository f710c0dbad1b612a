/**
 * @file
 * Per-policy configuration blob, the one value codec, and the params
 * schemas that read the blob.
 *
 * Policies and the run plans read their tunables from a PolicyParams
 * blob, an ordered string map, so adding a governor never touches the
 * harness config struct. A key's first dotted segment names the
 * namespace that owns it (`nmap.ni_th`). Each namespace declares its
 * keys once, in a schema: a struct whose visit() lists every key with
 * the member it sets, as `key("mine.knob", knob)`; the member
 * initialiser is the default. Its parse function (readParams plus
 * range checks) registers with REGISTER_PARAMS, and ServerRig::validate
 * runs every registered parse on every server config, so a bad key or
 * value fails at construction whether or not a policy reads it.
 *
 * The codec reads and writes integers, bools (true/false/1/0),
 * doubles (never NaN), durations (ns/us/ms/s suffix, bare numbers are ns; finite,
 * >= 0 and within a Tick; printed as integer ns), strings and
 * comma-separated integer lists. Other types (LoadLevel, AppProfile,
 * DataplanePlan::Mode) overload parseConfigField, and formatConfigField
 * where printed, next to their declaration; argument-dependent lookup
 * finds them.
 */

#ifndef NMAPSIM_HARNESS_POLICY_PARAMS_HH_
#define NMAPSIM_HARNESS_POLICY_PARAMS_HH_

#include <charconv>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "sim/logging.hh"
#include "sim/registry.hh"
#include "sim/time.hh"

namespace nmapsim {

/** fatal() with the codec's one message shape. */
[[noreturn]] inline void
badConfigValue(const std::string &key, const std::string &what,
               const std::string &text)
{
    fatal("config key '" + key + "': " + what + ": '" + text + "'");
}

/** The whole of @p text as a number of type @p Number; never NaN,
 *  which from_chars accepts and no tunable means. */
template <typename Number>
Number
parseConfigNumber(const std::string &text, const std::string &key)
{
    Number v = 0;
    const char *e = text.data() + text.size();
    auto res = std::from_chars(text.data(), e, v);
    bool nan = false;
    if constexpr (std::is_floating_point_v<Number>)
        nan = std::isnan(v);
    if (res.ec != std::errc() || res.ptr != e || nan)
        badConfigValue(key,
                       std::is_integral_v<Number> ? "not an integer"
                                                  : "not a number",
                       text);
    return v;
}

/** Parse @p text into @p field by the field's type; fatal() names
 *  @p key on a malformed value. */
template <typename Field>
void
parseConfigField(const std::string &text, const std::string &key,
                 Field &field)
{
    if constexpr (std::is_same_v<Field, bool>) {
        if (text != "true" && text != "1" && text != "false" && text != "0")
            badConfigValue(key, "not a bool (use true/false)", text);
        field = text == "true" || text == "1";
    } else if constexpr (std::is_same_v<Field, Tick>) {
        // A number with optional ns/us/ms/s suffix; bare numbers are ns.
        double v = 0.0;
        const char *e = text.data() + text.size();
        auto res = std::from_chars(text.data(), e, v);
        const std::string suffix(res.ptr, e);
        if (res.ec != std::errc())
            badConfigValue(key, "not a duration", text);
        else if (suffix == "us")
            v *= 1e3;
        else if (suffix == "ms")
            v *= 1e6;
        else if (suffix == "s")
            v *= 1e9;
        else if (suffix != "" && suffix != "ns")
            badConfigValue(key, "bad duration suffix (use ns/us/ms/s)",
                           text);
        // NaN fails both comparisons; 0x1p63 is the first value past Tick.
        if (!(v >= 0.0 && v < 0x1p63))
            badConfigValue(key, "need a finite duration >= 0 within a Tick",
                           text);
        field = static_cast<Tick>(v);
    } else if constexpr (std::is_arithmetic_v<Field>) {
        field = parseConfigNumber<Field>(text, key);
    } else if constexpr (std::is_same_v<Field, std::vector<int>>) {
        field.clear();
        for (std::string rest = text; !rest.empty();) {
            const std::size_t comma = rest.find(',');
            field.push_back(
                parseConfigNumber<int>(rest.substr(0, comma), key));
            rest = comma == std::string::npos ? std::string()
                                              : rest.substr(comma + 1);
        }
    } else {
        field = text;
    }
}

/** Format @p field as parseConfigField() reads it back; doubles take
 *  their shortest round-trip form. */
template <typename Field>
std::string
formatConfigField(const Field &field)
{
    if constexpr (std::is_same_v<Field, bool>) {
        return field ? "true" : "false";
    } else if constexpr (std::is_same_v<Field, double>) {
        char buf[64];
        auto res = std::to_chars(buf, buf + sizeof(buf), field);
        return std::string(buf, res.ptr);
    } else if constexpr (std::is_same_v<Field, Tick>) {
        return std::to_string(field) + "ns";
    } else if constexpr (std::is_integral_v<Field>) {
        return std::to_string(field);
    } else {
        return field;
    }
}

/** Ordered, string-typed per-policy parameter blob. */
class PolicyParams
{
  public:
    PolicyParams() = default;

    bool operator==(const PolicyParams &) const = default;

    bool has(const std::string &key) const { return values_.count(key) != 0; }
    void erase(const std::string &key) { values_.erase(key); }

    /** Raw value; empty string when absent. */
    std::string
    raw(const std::string &key) const
    {
        auto it = values_.find(key);
        return it == values_.end() ? std::string() : it->second;
    }

    /** Store @p value as the codec formats it. */
    template <typename Value>
    PolicyParams &
    set(const std::string &key, const Value &value)
    {
        values_[key] = formatConfigField(value);
        return *this;
    }

    /** Store a duration as integer nanoseconds. */
    PolicyParams &
    setTick(const std::string &key, Tick value)
    {
        return set(key, value);
    }

    /** @name One value through the codec, @p fallback when absent
     *  (for callers outside a schema) */
    /**@{*/
    double
    getDouble(const std::string &key, double fallback) const
    {
        if (has(key))
            parseConfigField(raw(key), key, fallback);
        return fallback;
    }

    bool
    getBool(const std::string &key, bool fallback) const
    {
        if (has(key))
            parseConfigField(raw(key), key, fallback);
        return fallback;
    }

    Tick
    getTick(const std::string &key, Tick fallback) const
    {
        if (has(key))
            parseConfigField(raw(key), key, fallback);
        return fallback;
    }
    /**@}*/

    auto begin() const { return values_.begin(); }
    auto end() const { return values_.end(); }

  private:
    std::map<std::string, std::string> values_;
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

/** The keys @p schema lists, sorted, comma-separated. */
template <typename Schema>
std::string
schemaKeyList(Schema schema)
{
    std::set<std::string> keys;
    schema.visit([&keys](const char *key, auto &) { keys.insert(key); });
    std::string out;
    for (const std::string &key : keys)
        out += (out.empty() ? "" : ", ") + key;
    return out;
}

/**
 * Set every field of @p schema that a `<ns>.*` key of @p params names;
 * absent keys keep their defaults, other namespaces are ignored.
 * fatal() on a malformed value, or on a key the schema does not list:
 * `unknown <ns> key '<key>' (known: <sorted keys>)`.
 */
template <typename Schema>
void
readParams(const PolicyParams &params, const std::string &ns,
           Schema &schema)
{
    const std::string prefix = ns + ".";
    for (const auto &[key, value] : params) {
        if (key.compare(0, prefix.size(), prefix) != 0)
            continue;
        ConfigKeySetter set{key, value};
        schema.visit(set);
        if (!set.found)
            fatal("unknown " + ns + " key '" + key +
                  "' (known: " + schemaKeyList(schema) + ")");
    }
}

/** Params namespaces by name ("nmap", "fault", ...), each with the
 *  function that parses and checks its keys (sim/registry.hh). */
using ParamsRegistry = Registry<void(const PolicyParams &), "params">;

/**
 * Register a namespace's parse function from its own TU, as
 * `REGISTER_PARAMS("mine", &mineParams, "one-line help")`; the schema
 * it returns is dropped. Both strings must be nonempty literals
 * (nmaplint rule register-hygiene).
 */
#define REGISTER_PARAMS(ns, parse, help)                               \
    static const ::nmapsim::ParamsRegistry::Registrar                  \
        NMAPSIM_REGISTRAR_CONCAT(nmapsimParamsRegistrar_,              \
                                 __COUNTER__)(ns, parse, help)

} // namespace nmapsim

#endif // NMAPSIM_HARNESS_POLICY_PARAMS_HH_

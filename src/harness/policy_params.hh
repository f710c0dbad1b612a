/**
 * @file
 * Per-policy configuration blob: an ordered string key/value map with
 * typed accessors.
 *
 * Registered policies read their tunables from here instead of from
 * dedicated ExperimentConfig members, so adding a governor never
 * touches the harness config struct. Keys are dotted and policy-scoped
 * by convention (`nmap.ni_th`, `parties.interval`, `userspace.pstate`);
 * values are stored as strings so the blob round-trips through the
 * key=value config format losslessly.
 *
 * Durations accept an optional ns/us/ms/s suffix ("10ms", "500us");
 * ticks written programmatically are stored as integer nanoseconds.
 * Doubles are stored in shortest-round-trip form.
 */

#ifndef NMAPSIM_HARNESS_POLICY_PARAMS_HH_
#define NMAPSIM_HARNESS_POLICY_PARAMS_HH_

#include <charconv>
#include <cstdint>
#include <map>
#include <string>
#include <system_error>

#include "sim/logging.hh"
#include "sim/time.hh"

namespace nmapsim {

/** Ordered, string-typed per-policy parameter blob. */
class PolicyParams
{
  public:
    PolicyParams() = default;

    bool operator==(const PolicyParams &) const = default;

    bool empty() const { return values_.empty(); }
    std::size_t size() const { return values_.size(); }
    bool has(const std::string &key) const { return values_.count(key) != 0; }
    void erase(const std::string &key) { values_.erase(key); }

    /** Raw value; empty string when absent. */
    std::string
    raw(const std::string &key) const
    {
        auto it = values_.find(key);
        return it == values_.end() ? std::string() : it->second;
    }

    PolicyParams &
    set(const std::string &key, const std::string &value)
    {
        values_[key] = value;
        return *this;
    }

    PolicyParams &
    set(const std::string &key, const char *value)
    {
        values_[key] = value;
        return *this;
    }

    PolicyParams &
    set(const std::string &key, double value)
    {
        values_[key] = formatDouble(value);
        return *this;
    }

    PolicyParams &
    set(const std::string &key, int value)
    {
        values_[key] = std::to_string(value);
        return *this;
    }

    PolicyParams &
    set(const std::string &key, bool value)
    {
        values_[key] = value ? "true" : "false";
        return *this;
    }

    /** Store a duration as integer nanoseconds. */
    PolicyParams &
    setTick(const std::string &key, Tick value)
    {
        values_[key] = std::to_string(value) + "ns";
        return *this;
    }

    double
    getDouble(const std::string &key, double fallback) const
    {
        auto it = values_.find(key);
        if (it == values_.end())
            return fallback;
        return parseDouble(it->second, key);
    }

    int
    getInt(const std::string &key, int fallback) const
    {
        auto it = values_.find(key);
        if (it == values_.end())
            return fallback;
        int v = 0;
        const char *b = it->second.data();
        const char *e = b + it->second.size();
        auto res = std::from_chars(b, e, v);
        if (res.ec != std::errc() || res.ptr != e)
            fatal("param '" + key + "': not an integer: '" +
                  it->second + "'");
        return v;
    }

    bool
    getBool(const std::string &key, bool fallback) const
    {
        auto it = values_.find(key);
        if (it == values_.end())
            return fallback;
        const std::string &v = it->second;
        if (v == "true" || v == "1")
            return true;
        if (v == "false" || v == "0")
            return false;
        fatal("param '" + key + "': not a bool: '" + v + "'");
        return fallback; // unreachable
    }

    /** Duration with optional ns/us/ms/s suffix; bare numbers are ns. */
    Tick
    getTick(const std::string &key, Tick fallback) const
    {
        auto it = values_.find(key);
        if (it == values_.end())
            return fallback;
        return parseTick(it->second, key);
    }

    auto begin() const { return values_.begin(); }
    auto end() const { return values_.end(); }

    /** Shortest string that parses back to exactly @p value. */
    static std::string
    formatDouble(double value)
    {
        char buf[64];
        auto res = std::to_chars(buf, buf + sizeof(buf), value);
        return std::string(buf, res.ptr);
    }

    static double
    parseDouble(const std::string &text, const std::string &key)
    {
        double v = 0.0;
        const char *b = text.data();
        const char *e = b + text.size();
        auto res = std::from_chars(b, e, v);
        if (res.ec != std::errc() || res.ptr != e)
            fatal("param '" + key + "': not a number: '" + text + "'");
        return v;
    }

    static Tick
    parseTick(const std::string &text, const std::string &key)
    {
        double v = 0.0;
        const char *b = text.data();
        const char *e = b + text.size();
        auto res = std::from_chars(b, e, v);
        if (res.ec != std::errc())
            fatal("param '" + key + "': not a duration: '" + text +
                  "'");
        std::string suffix(res.ptr, e);
        double mult = 1.0;
        if (suffix == "" || suffix == "ns")
            mult = 1.0;
        else if (suffix == "us")
            mult = 1e3;
        else if (suffix == "ms")
            mult = 1e6;
        else if (suffix == "s")
            mult = 1e9;
        else
            fatal("param '" + key + "': bad duration suffix: '" + text +
                  "' (use ns/us/ms/s)");
        return static_cast<Tick>(v * mult);
    }

  private:
    std::map<std::string, std::string> values_;
};

} // namespace nmapsim

#endif // NMAPSIM_HARNESS_POLICY_PARAMS_HH_

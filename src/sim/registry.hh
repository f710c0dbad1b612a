/**
 * @file
 * Registry: the string-keyed factory table behind every named policy
 * family.
 *
 * nmapsim resolves five families of policies by name: frequency and
 * sleep policies (harness/policy_registry.hh), switch dispatch
 * (cluster/dispatch.hh), the bypass poll-core sleep policy
 * (dataplane/policy.hh) and admission control (resilience/admission.hh).
 * Each family header declares its product and context types and one
 * alias of this template, e.g.
 *
 *     using DispatchRegistry =
 *         Registry<std::unique_ptr<DispatchPolicy>(
 *                      const DispatchContext &),
 *                  "dispatch">;
 *
 * plus a REGISTER_* macro that declares a static Registrar. The
 * template owns everything the families share:
 *   - a map from name to (factory, one-line help), sorted by name, so
 *     names() and every known-name list are byte-stable across
 *     compilers and link orders;
 *   - registration that fatal()s on a duplicate name;
 *   - one lookup rule: an exact match first, then a unique
 *     case-insensitive match ("nmap" finds "NMAP");
 *   - unknown names fatal() with the sorted known-name list:
 *     `unknown <label> policy '<name>' (known: a, b, c)`.
 *
 * Each alias is a Meyers singleton, so a policy registers from its
 * own translation unit, whatever the order of static initialisation.
 * src/ builds as one object library whose every file links into every
 * executable, so all registrations complete before main().
 */

#ifndef NMAPSIM_SIM_REGISTRY_HH_
#define NMAPSIM_SIM_REGISTRY_HH_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace nmapsim {

/** ASCII case-insensitive string equality. */
inline bool
equalsIgnoreCase(const std::string &a, const std::string &b)
{
    auto lower = [](char c) {
        return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a')
                                    : c;
    };
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [&](char x, char y) { return lower(x) == lower(y); });
}

/** A string literal usable as a template argument: the family word in
 *  a registry's messages ("frequency", "dispatch", ...). */
template <std::size_t N>
struct RegistryLabel
{
    constexpr RegistryLabel(const char (&text)[N])
    {
        std::copy_n(text, N, value);
    }

    char value[N] = {};
};

template <typename Signature, RegistryLabel Label>
class Registry;

/** String-keyed factories producing @p Product from @p Context. */
template <typename Product, typename Context, RegistryLabel Label>
class Registry<Product(Context), Label>
{
  public:
    using Factory = std::function<Product(Context)>;

    static Registry &
    instance()
    {
        static Registry registry;
        return registry;
    }

    /** Register @p name; fatal() on duplicates. */
    void
    add(const std::string &name, Factory factory, std::string help = "")
    {
        if (!entries_.emplace(name, Entry{std::move(factory),
                                          std::move(help)})
                 .second)
            fatal(std::string("duplicate ") + Label.value +
                  " policy registration: '" + name + "'");
    }

    bool has(const std::string &name) const
    {
        return resolve(name) != entries_.end();
    }

    /**
     * fatal() with the known-name list unless @p name resolves. @p where
     * (e.g. " in topology tier 'web'") follows the quoted name.
     */
    void
    require(const std::string &name, const std::string &where = "") const
    {
        (void)find(name, where);
    }

    /** Instantiate a policy; fatal() on unknown names. */
    Product
    make(const std::string &name, Context ctx) const
    {
        return find(name, "")->second.factory(ctx);
    }

    /** Registered names, sorted. */
    std::vector<std::string>
    names() const
    {
        std::vector<std::string> out;
        out.reserve(entries_.size());
        for (const auto &[name, entry] : entries_)
            out.push_back(name);
        return out;
    }

    /** One-line help of a registered name; "" when it does not
     *  resolve. */
    std::string
    help(const std::string &name) const
    {
        auto it = resolve(name);
        return it == entries_.end() ? std::string() : it->second.help;
    }

    /** Registers a policy at static-initialisation time. */
    struct Registrar
    {
        Registrar(const std::string &name, Factory factory,
                  std::string help = "")
        {
            instance().add(name, std::move(factory), std::move(help));
        }
    };

  private:
    struct Entry
    {
        Factory factory;
        std::string help;
    };

    using Map = std::map<std::string, Entry>;

    Registry() = default;

    typename Map::const_iterator
    resolve(const std::string &name) const
    {
        auto it = entries_.find(name);
        if (it != entries_.end())
            return it;
        auto match = entries_.end();
        for (auto i = entries_.begin(); i != entries_.end(); ++i) {
            if (equalsIgnoreCase(i->first, name)) {
                if (match != entries_.end())
                    return entries_.end(); // ambiguous
                match = i;
            }
        }
        return match;
    }

    typename Map::const_iterator
    find(const std::string &name, const std::string &where) const
    {
        auto it = resolve(name);
        if (it == entries_.end()) {
            std::string known;
            for (const auto &[n, entry] : entries_)
                known += (known.empty() ? "" : ", ") + n;
            fatal(std::string("unknown ") + Label.value + " policy '" +
                  name + "'" + where + " (known: " + known + ")");
        }
        return it;
    }

    Map entries_;
};

/** Pastes a unique registrar variable name for the REGISTER_* macros. */
#define NMAPSIM_REGISTRAR_CONCAT_(a, b) a##b
#define NMAPSIM_REGISTRAR_CONCAT(a, b) NMAPSIM_REGISTRAR_CONCAT_(a, b)

} // namespace nmapsim

#endif // NMAPSIM_SIM_REGISTRY_HH_

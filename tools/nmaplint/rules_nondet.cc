/**
 * @file
 * Rule `nondet-source`: ban nondeterminism sources in simulator code.
 *
 * Everything sim-visible must derive from the seeded Rng (sim/rng.hh)
 * and the simulated clock (sim/time.hh). Wall-clock reads, the C
 * random API and environment reads make runs diverge between hosts and
 * invocations, silently breaking the bit-reproducibility contract that
 * the pinned bench stdouts and determinism_test rely on.
 *
 * Scope: src/ and bench/. getenv is additionally allowed in
 * src/harness/ and bench/ (runner knobs like NMAPSIM_JOBS deliberately
 * come from the environment; they must never steer simulated state).
 * Waive sim-invisible uses (progress timers, log timestamps) with
 * `// lint: nondet-ok(<reason>)`.
 */

#include "lint.hh"

namespace nmaplint {
namespace {

/** A banned construct and how to report it. */
struct Ban
{
    const char *token;
    bool callOnly; //!< match only `token (`-style direct calls
    const char *message;
};

constexpr Ban kBans[] = {
    {"random_device", false,
     "std::random_device is nondeterministic; seed a sim/rng.hh Rng "
     "from the experiment config instead"},
    {"rand", true,
     "rand() draws from hidden global state; use sim/rng.hh (Rng)"},
    {"srand", true,
     "srand() reseeds hidden global state; use sim/rng.hh (Rng)"},
    {"time", true,
     "time() reads the wall clock; simulated time comes from "
     "sim/time.hh (Tick)"},
    {"clock_gettime", true,
     "clock_gettime() reads the wall clock; use simulated Ticks"},
    {"gettimeofday", true,
     "gettimeofday() reads the wall clock; use simulated Ticks"},
    {"system_clock", false,
     "std::chrono::system_clock reads the wall clock; simulated time "
     "comes from sim/time.hh (Tick)"},
    {"steady_clock", false,
     "std::chrono::steady_clock reads host time; simulated time comes "
     "from sim/time.hh (Tick)"},
    {"high_resolution_clock", false,
     "std::chrono::high_resolution_clock reads host time; simulated "
     "time comes from sim/time.hh (Tick)"},
};

class NondetRule : public LintRule
{
  public:
    bool
    appliesTo(const FileContext &file) const override
    {
        return file.under("src/") || file.under("bench/");
    }

    void
    check(const FileContext &file, const std::string &id,
          Sink &sink) const override
    {
        const bool envOk =
            file.under("src/harness/") || file.under("bench/");
        const std::vector<std::string> &code = file.code();
        for (std::size_t i = 0; i < code.size(); ++i) {
            const std::string &line = code[i];
            for (const Ban &ban : kBans) {
                const std::size_t pos =
                    ban.callOnly ? findCall(line, ban.token)
                                 : findToken(line, ban.token);
                if (pos != std::string::npos)
                    sink.report(static_cast<int>(i + 1), id,
                                ban.message);
            }
            if (!envOk && findCall(line, "getenv") != std::string::npos)
                sink.report(static_cast<int>(i + 1), id,
                            "getenv() outside src/harness/ and bench/ "
                            "lets the environment steer simulated "
                            "state; plumb knobs through the config");
        }
    }
};

std::unique_ptr<LintRule>
makeNondetRule()
{
    return std::make_unique<NondetRule>();
}

REGISTER_LINT_RULE(
    "nondet-source", &makeNondetRule, "nondet-ok",
    "bans wall-clock, C-random and environment reads in src/ + bench/");

} // namespace

} // namespace nmaplint

/**
 * @file
 * Rule `assert-in-model`: ban bare assert() in simulator code.
 *
 * assert() compiles away under NDEBUG, so a Release build silently
 * skips the very invariant checks that keep a corrupted simulation
 * from producing plausible-looking numbers. Model code must use
 * panic() (invariant violations) or fatal() (config/user errors) from
 * sim/logging.hh instead: both throw typed exceptions that survive
 * every build type and carry a message.
 *
 * Scope: src/. static_assert is fine (it is a different token and
 * fires at compile time). Waive genuinely debug-only checks with
 * `// lint: assert-ok(<reason>)`.
 */

#include "lint.hh"

namespace nmaplint {
namespace {

class AssertRule : public LintRule
{
  public:
    bool
    appliesTo(const FileContext &file) const override
    {
        return file.under("src/");
    }

    void
    check(const FileContext &file, const std::string &id,
          Sink &sink) const override
    {
        const std::vector<std::string> &code = file.code();
        for (std::size_t i = 0; i < code.size(); ++i) {
            if (findCall(code[i], "assert") != std::string::npos)
                sink.report(static_cast<int>(i + 1), id,
                            "assert() vanishes under NDEBUG; model "
                            "invariants must hold in Release too — "
                            "use panic() (invariants) or fatal() "
                            "(config errors) from sim/logging.hh");
        }
    }
};

std::unique_ptr<LintRule>
makeAssertRule()
{
    return std::make_unique<AssertRule>();
}

REGISTER_LINT_RULE(
    "assert-in-model", &makeAssertRule, "assert-ok",
    "bans bare assert() in src/ (use panic()/fatal(); NDEBUG-proof)");

} // namespace

} // namespace nmaplint

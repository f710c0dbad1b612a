/**
 * @file
 * Rule `raw-output`: simulator code must not write stdout directly.
 *
 * Bench stdouts are pinned byte-for-byte across refactors, and all
 * machine-readable results flow through ResultWriter. A stray
 * std::cout or printf in a governor or harness interleaves with (and
 * corrupts) that contract. Results go through ResultWriter and the
 * stats pipeline; diagnostics go to stderr.
 *
 * Scope: src/ except src/stats/ (the table/CSV/JSON renderers are the
 * sanctioned formatting layer). stderr writes (fprintf(stderr, ...),
 * std::cerr) are allowed: diagnostics never mix into captured
 * results. Waive deliberate stdout writers with
 * `// lint: raw-output-ok(<reason>)`.
 */

#include "lint.hh"

namespace nmaplint {
namespace {

class RawOutputRule : public LintRule
{
  public:
    bool
    appliesTo(const FileContext &file) const override
    {
        return file.under("src/") && !file.under("src/stats/");
    }

    void
    check(const FileContext &file, const std::string &id,
          Sink &sink) const override
    {
        const std::vector<std::string> &code = file.code();
        for (std::size_t i = 0; i < code.size(); ++i) {
            const std::string &line = code[i];
            const int lineNo = static_cast<int>(i + 1);
            if (hasToken(line, "cout"))
                sink.report(lineNo, id,
                            "std::cout in simulator code; route output "
                            "through ResultWriter or stderr");
            for (const char *fn : {"printf", "puts", "putchar"}) {
                if (findCall(line, fn) != std::string::npos)
                    sink.report(lineNo, id,
                                std::string(fn) +
                                    "() writes stdout; route output "
                                    "through ResultWriter or stderr");
            }
            const std::size_t fp = findCall(line, "fprintf");
            if (fp != std::string::npos) {
                const std::size_t open = line.find('(', fp);
                const std::size_t comma = line.find(',', open);
                const std::string firstArg =
                    comma == std::string::npos
                        ? line.substr(open + 1)
                        : line.substr(open + 1, comma - open - 1);
                if (hasToken(firstArg, "stdout"))
                    sink.report(lineNo, id,
                                "fprintf(stdout, ...) in simulator "
                                "code; route output through "
                                "ResultWriter or stderr");
            }
        }
    }
};

std::unique_ptr<LintRule>
makeRawOutputRule()
{
    return std::make_unique<RawOutputRule>();
}

REGISTER_LINT_RULE(
    "raw-output", &makeRawOutputRule, "raw-output-ok",
    "bans std::cout/printf-to-stdout in src/ outside stats/; route "
    "output through ResultWriter or stderr");

} // namespace

} // namespace nmaplint

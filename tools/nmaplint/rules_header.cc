/**
 * @file
 * Rule `header-hygiene`: src/ headers carry an include guard and live
 * in namespace nmapsim.
 *
 * A guard-less header breaks under the umbrella includes the benches
 * use; a header outside `namespace nmapsim` leaks simulator names into
 * the global namespace where they collide with libc symbols the other
 * rules ban (`time`, `rand`). Accepts either a classic
 * `#ifndef/#define` pair or `#pragma once`.
 *
 * Scope: src/ headers (.h/.hh/.hpp). Waive deliberate exceptions
 * (e.g. a macro-only x-macros header) with
 * `// lint: header-ok(<reason>)` on line 1.
 */

#include "lint.hh"

namespace nmaplint {
namespace {

class HeaderHygieneRule : public LintRule
{
  public:
    bool
    appliesTo(const FileContext &file) const override
    {
        return file.under("src/") && file.isHeader();
    }

    void
    check(const FileContext &file, const std::string &id,
          Sink &sink) const override
    {
        const std::string &code = file.codeText();

        bool pragmaOnce = false;
        bool sawIfndef = false;
        bool guarded = false;
        for (const std::string &line : file.code()) {
            const std::size_t hash = line.find('#');
            if (hash == std::string::npos)
                continue;
            const std::string directive = line.substr(hash);
            if (directive.find("pragma") != std::string::npos &&
                directive.find("once") != std::string::npos)
                pragmaOnce = true;
            if (directive.find("ifndef") != std::string::npos)
                sawIfndef = true;
            else if (sawIfndef &&
                     directive.find("define") != std::string::npos)
                guarded = true;
        }
        if (!pragmaOnce && !guarded)
            sink.report(1, id,
                        "header has no include guard; add "
                        "#ifndef/#define or #pragma once");

        std::size_t ns = findToken(code, "namespace");
        bool inNmapsim = false;
        while (ns != std::string::npos) {
            std::size_t p = ns + 9;
            while (p < code.size() &&
                   (code[p] == ' ' || code[p] == '\t' ||
                    code[p] == '\n'))
                ++p;
            if (tokenAt(code, p, "nmapsim")) {
                inNmapsim = true;
                break;
            }
            ns = findToken(code, "namespace", ns + 1);
        }
        if (!inNmapsim)
            sink.report(1, id,
                        "src/ header does not declare namespace "
                        "nmapsim; simulator names must not leak into "
                        "the global namespace");
    }
};

std::unique_ptr<LintRule>
makeHeaderHygieneRule()
{
    return std::make_unique<HeaderHygieneRule>();
}

REGISTER_LINT_RULE(
    "header-hygiene", &makeHeaderHygieneRule, "header-ok",
    "src/ headers need an include guard and namespace nmapsim");

} // namespace

} // namespace nmaplint

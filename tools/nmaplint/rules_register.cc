/**
 * @file
 * Rule `register-hygiene`: every registry registration names itself
 * and documents itself.
 *
 * The self-registering registries (the five aliases of the simulator's
 * Registry template, nmaplint's own LintRuleRegistry) key everything on
 * a string literal and surface a help line in `--list-policies` /
 * `--list-rules`. A registration with an empty or non-literal name is
 * unreachable from configs; one without a doc string is invisible in
 * the listings. The rule checks every `REGISTER_*(...)` macro use and
 * every direct registrar declaration (`FooRegistry::Registrar
 * name(...)`, `LintRuleRegistrar name(...)`): the first argument must
 * be a nonempty string literal and the last argument a nonempty
 * doc-string literal.
 *
 * Scope: src/, tools/ and tests/. Waive intentionally anonymous
 * registrations with `// lint: register-ok(<reason>)`.
 */

#include "lint.hh"

#include <cctype>

namespace nmaplint {
namespace {

/** Registrar type names: the Registry template's nested Registrar
 *  (reached through any family alias) and nmaplint's own. */
constexpr const char *kRegistrars[] = {
    "Registrar",
    "LintRuleRegistrar",
};

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** Lines belonging to preprocessor directives (incl. continuations):
 *  the REGISTER_* macro definitions themselves live there. */
std::vector<bool>
preprocLines(const FileContext &file)
{
    const std::vector<std::string> &raw = file.raw();
    std::vector<bool> preproc(raw.size(), false);
    bool continued = false;
    for (std::size_t i = 0; i < raw.size(); ++i) {
        std::size_t p = 0;
        while (p < raw[i].size() &&
               std::isspace(static_cast<unsigned char>(raw[i][p])))
            ++p;
        preproc[i] =
            continued || (p < raw[i].size() && raw[i][p] == '#');
        continued =
            preproc[i] && !raw[i].empty() && raw[i].back() == '\\';
    }
    return preproc;
}

/** Is @p arg (code view, literal contents blanked) a nonempty string
 *  literal? `"  "` yes, `""` no, `kName` no. */
bool
nonemptyStringLiteral(const std::string &arg)
{
    return arg.size() > 2 && arg.front() == '"' && arg.back() == '"';
}

class RegisterHygieneRule : public LintRule
{
  public:
    bool
    appliesTo(const FileContext &file) const override
    {
        return file.under("src/") || file.under("tools/") ||
               file.under("tests/");
    }

    void
    check(const FileContext &file, const std::string &id,
          Sink &sink) const override
    {
        const std::string &code = file.codeText();
        const std::vector<bool> preproc = preprocLines(file);

        auto checkArgsAt = [&](std::size_t open, int line,
                               const std::string &what) {
            const std::size_t end = matchParen(code, open);
            if (end == std::string::npos)
                return;
            const std::vector<std::string> args = splitTopLevelArgs(
                std::string_view(code).substr(open + 1,
                                              end - open - 2));
            if (args.size() < 2) {
                sink.report(line, id,
                            what + " needs at least a name literal "
                                   "and a doc string");
                return;
            }
            if (!nonemptyStringLiteral(args.front()))
                sink.report(line, id,
                            what + ": first argument must be a "
                                   "nonempty registry-name string "
                                   "literal");
            if (!nonemptyStringLiteral(args.back()))
                sink.report(line, id,
                            what + ": last argument must be a "
                                   "nonempty doc-string literal (it "
                                   "surfaces in the registry "
                                   "listings)");
        };

        // REGISTER_*(...) macro uses.
        for (std::size_t pos = code.find("REGISTER_");
             pos != std::string::npos;
             pos = code.find("REGISTER_", pos + 1)) {
            if (pos > 0 && isIdentChar(code[pos - 1]))
                continue;
            std::size_t p = pos;
            while (p < code.size() && isIdentChar(code[p]))
                ++p;
            const std::string name = code.substr(pos, p - pos);
            while (p < code.size() &&
                   std::isspace(static_cast<unsigned char>(code[p])))
                ++p;
            if (p >= code.size() || code[p] != '(')
                continue;
            const int line = file.lineOf(pos);
            if (preproc[static_cast<std::size_t>(line - 1)])
                continue; // the macro's own #define
            checkArgsAt(p, line, name);
        }

        // Direct `<X>Registrar variable(...)` declarations. The
        // constructor *declaration* inside the registrar struct has
        // '(' directly after the class name and is skipped by
        // requiring a declarator identifier in between.
        for (const char *registrar : kRegistrars) {
            for (std::size_t pos = findToken(code, registrar);
                 pos != std::string::npos;
                 pos = findToken(code, registrar, pos + 1)) {
                std::size_t p =
                    pos + std::string_view(registrar).size();
                while (p < code.size() &&
                       std::isspace(
                           static_cast<unsigned char>(code[p])))
                    ++p;
                std::size_t declStart = p;
                while (p < code.size() && isIdentChar(code[p]))
                    ++p;
                if (p == declStart)
                    continue; // no declarator: a ctor decl or cast
                while (p < code.size() &&
                       std::isspace(
                           static_cast<unsigned char>(code[p])))
                    ++p;
                if (p >= code.size() || code[p] != '(')
                    continue;
                const int line = file.lineOf(pos);
                if (preproc[static_cast<std::size_t>(line - 1)])
                    continue;
                checkArgsAt(p, line, std::string(registrar));
            }
        }
    }
};

std::unique_ptr<LintRule>
makeRegisterHygieneRule()
{
    return std::make_unique<RegisterHygieneRule>();
}

REGISTER_LINT_RULE(
    "register-hygiene", &makeRegisterHygieneRule, "register-ok",
    "REGISTER_* uses and registrar declarations need a nonempty name "
    "literal and doc string");

} // namespace

void linkRegisterHygieneRule() {}

} // namespace nmaplint

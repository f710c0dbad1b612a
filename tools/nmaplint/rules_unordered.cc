/**
 * @file
 * Rule `unordered-iter`: flag range-for iteration over unordered
 * containers in src/.
 *
 * Hash-table iteration order is implementation-defined and may vary
 * with libstdc++ version, insertion history or pointer values; once it
 * reaches anything sim-visible (ResultWriter records, stdout tables,
 * event ordering) bit-reproducibility is gone. The rule tracks
 * variables declared with an `unordered_*` type in the same file —
 * enough context for the idioms this codebase uses — and flags any
 * range-for whose range expression names one of them (or names an
 * `unordered_*` type inline).
 *
 * Lookups (`find`, `count`, `operator[]`) are fine and not flagged.
 * When the iteration provably cannot reach sim-visible state, waive it
 * with `// lint: ordered-ok(<reason>)`.
 */

#include "lint.hh"

#include <cctype>
#include <set>

namespace nmaplint {
namespace {

constexpr const char *kUnorderedTypes[] = {
    "unordered_map",
    "unordered_set",
    "unordered_multimap",
    "unordered_multiset",
};

bool
isIdentChar(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_';
}

/** Offset just past a balanced `<...>` starting at @p open. */
std::size_t
matchAngle(std::string_view code, std::size_t open)
{
    if (open >= code.size() || code[open] != '<')
        return std::string_view::npos;
    int depth = 0;
    for (std::size_t i = open; i < code.size(); ++i) {
        if (code[i] == '<')
            ++depth;
        else if (code[i] == '>' && --depth == 0)
            return i + 1;
        else if (code[i] == ';')
            return std::string_view::npos; // statement ended: not a
                                           // template argument list
    }
    return std::string_view::npos;
}

/** Names of variables declared with an unordered container type. */
std::set<std::string>
collectUnorderedNames(const std::string &code)
{
    std::set<std::string> names;
    for (const char *type : kUnorderedTypes) {
        for (std::size_t pos = findToken(code, type);
             pos != std::string::npos;
             pos = findToken(code, type, pos + 1)) {
            std::size_t p = pos + std::string_view(type).size();
            while (p < code.size() && std::isspace(
                       static_cast<unsigned char>(code[p])))
                ++p;
            if (p >= code.size() || code[p] != '<')
                continue;
            p = matchAngle(code, p);
            if (p == std::string_view::npos)
                continue;
            // Skip declarator decorations and whitespace.
            while (p < code.size() &&
                   (std::isspace(static_cast<unsigned char>(code[p])) ||
                    code[p] == '&' || code[p] == '*'))
                ++p;
            std::size_t start = p;
            while (p < code.size() && isIdentChar(code[p]))
                ++p;
            if (p > start)
                names.insert(code.substr(start, p - start));
        }
    }
    return names;
}

class UnorderedIterRule : public LintRule
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
        const std::string &code = file.codeText();
        const std::set<std::string> unordered =
            collectUnorderedNames(code);

        for (std::size_t pos = findToken(code, "for");
             pos != std::string::npos;
             pos = findToken(code, "for", pos + 1)) {
            std::size_t open = pos + 3;
            while (open < code.size() && std::isspace(
                       static_cast<unsigned char>(code[open])))
                ++open;
            if (open >= code.size() || code[open] != '(')
                continue;
            const std::size_t end = matchParen(code, open);
            if (end == std::string::npos)
                continue;
            const std::string head =
                code.substr(open + 1, end - open - 2);

            // Range-for: a top-level ':' that is not part of '::'.
            std::size_t colon = std::string::npos;
            int depth = 0;
            for (std::size_t i = 0; i < head.size(); ++i) {
                const char c = head[i];
                if (c == '(' || c == '{' || c == '[')
                    ++depth;
                else if (c == ')' || c == '}' || c == ']')
                    --depth;
                else if (c == ':' && depth == 0 &&
                         (i + 1 >= head.size() || head[i + 1] != ':') &&
                         (i == 0 || head[i - 1] != ':')) {
                    colon = i;
                    break;
                }
            }
            if (colon == std::string::npos)
                continue;
            const std::string range = head.substr(colon + 1);

            bool flagged = false;
            for (const char *type : kUnorderedTypes)
                flagged = flagged || hasToken(range, type);
            std::string culprit;
            for (const std::string &name : unordered) {
                if (hasToken(range, name)) {
                    flagged = true;
                    culprit = name;
                }
            }
            if (flagged)
                sink.report(
                    file.lineOf(pos), id,
                    "range-for over unordered container" +
                        (culprit.empty() ? std::string()
                                         : " '" + culprit + "'") +
                        " can leak hash order into simulator state; "
                        "use an ordered container, sort first, or "
                        "waive with // lint: ordered-ok(<reason>)");
        }
    }
};

std::unique_ptr<LintRule>
makeUnorderedIterRule()
{
    return std::make_unique<UnorderedIterRule>();
}

REGISTER_LINT_RULE(
    "unordered-iter", &makeUnorderedIterRule, "ordered-ok",
    "flags range-for over unordered containers in src/");

} // namespace

} // namespace nmaplint

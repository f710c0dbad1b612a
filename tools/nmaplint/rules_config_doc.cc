/**
 * @file
 * Project rule `config-doc-sync`: the config-key surface and the
 * README key-reference tables must agree, both directions.
 *
 * Code-side keys are harvested from four places:
 *
 *   1. the `key("...", field)` schema entries and `key == "..."`
 *      comparisons in src/harness/config_io.cc and
 *      src/harness/cluster_io.cc (plus cluster_io's `rest == "..."`
 *      per-host suffixes, documented as `host<i>.<suffix>`),
 *   2. dotted `key("...", field)` entries anywhere under src/: the
 *      params schemas, one per namespace (harness/policy_params.hh),
 *   3. PolicyParams `has`/`raw` calls anywhere under src/ whose first
 *      argument is a dotted string literal, and
 *   4. template-form literals like "topology.tier<i>.name" anywhere
 *      under src/ (key-grammar characters only, containing `<i>`),
 *      which is how families of numbered keys name themselves.
 *
 * Doc-side keys are the backticked tokens in the first column of
 * every README.md table whose header row starts with `| Key |`.
 * A key parsed but undocumented is a finding at the parse site
 * (waivable, `config-doc-ok`); a key documented but never parsed is
 * a finding at the README row (not waivable — fix the doc).
 *
 * Literal contents are blanked in the code view, so every harvest
 * recovers the actual text from the raw view at the same byte
 * offsets (the two views are length-preserving by construction).
 */

#include "lint.hh"

#include <cctype>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace nmaplint {
namespace {

bool
isSpace(char c)
{
    return std::isspace(static_cast<unsigned char>(c)) != 0;
}

/** Key grammar: identifier chars, dots and the `<i>` placeholder;
 *  a key never starts or ends with a dot (that rejects bare prefix
 *  constants like "topology.tier<i>."). */
bool
keyGrammar(const std::string &s)
{
    if (s.empty() || s.front() == '.' || s.back() == '.')
        return false;
    bool alpha = false;
    for (char c : s) {
        if (std::isalnum(static_cast<unsigned char>(c)) != 0 ||
            c == '_' || c == '.' || c == '<' || c == '>') {
            alpha = alpha ||
                    std::isalpha(static_cast<unsigned char>(c)) != 0;
            continue;
        }
        return false;
    }
    return alpha;
}

/** First harvest site per key, smallest (file, line) wins. */
class KeySet
{
  public:
    void
    add(const std::string &key, const std::string &file, int line)
    {
        auto it = keys_.find(key);
        if (it == keys_.end()) {
            keys_.emplace(key, std::make_pair(file, line));
            return;
        }
        if (std::make_pair(file, line) < it->second)
            it->second = {file, line};
    }

    bool has(const std::string &key) const
    {
        return keys_.count(key) > 0;
    }

    const std::map<std::string, std::pair<std::string, int>> &
    all() const
    {
        return keys_;
    }

  private:
    std::map<std::string, std::pair<std::string, int>> keys_;
};

/** Raw contents of the string literal opening at code-view offset
 *  @p quote; true when [quote, argEnd) is exactly one literal plus
 *  whitespace. */
bool
literalAt(const FileContext &file, std::size_t quote,
          std::size_t argEnd, std::string &out)
{
    const std::string &code = file.codeText();
    std::size_t p = quote;
    while (p < argEnd && isSpace(code[p]))
        ++p;
    if (p >= argEnd || code[p] != '"')
        return false;
    const std::size_t close = code.find('"', p + 1);
    if (close == std::string::npos || close >= argEnd)
        return false;
    for (std::size_t i = close + 1; i < argEnd; ++i) {
        if (!isSpace(code[i]))
            return false;
    }
    out = file.rawSlice(p + 1, close);
    return true;
}

/** Harvest `<var> == "literal"` comparisons. */
void
harvestComparisons(const FileContext &file, const std::string &var,
                   const std::string &prefix, KeySet &keys)
{
    const std::string &code = file.codeText();
    for (std::size_t pos = findToken(code, var);
         pos != std::string::npos;
         pos = findToken(code, var, pos + 1)) {
        std::size_t p = pos + var.size();
        while (p < code.size() && isSpace(code[p]))
            ++p;
        if (code.compare(p, 2, "==") != 0)
            continue;
        p += 2;
        while (p < code.size() && isSpace(code[p]))
            ++p;
        if (p >= code.size() || code[p] != '"')
            continue;
        const std::size_t close = code.find('"', p + 1);
        if (close == std::string::npos)
            continue;
        const std::string literal = file.rawSlice(p + 1, close);
        if (keyGrammar(literal))
            keys.add(prefix + literal, file.path(), file.lineOf(pos));
    }
}

/** Harvest string-literal first arguments of calls to @p fns; with
 *  @p dottedOnly, only the dotted ones. */
void
harvestCalls(const FileContext &file,
             std::initializer_list<const char *> fns, bool dottedOnly,
             KeySet &keys)
{
    const std::string &code = file.codeText();
    for (const char *fn : fns) {
        for (std::size_t pos = findCall(code, fn);
             pos != std::string::npos;
             pos = findCall(code, fn, pos + 1)) {
            const std::size_t open = code.find('(', pos);
            const std::size_t end = matchParen(code, open);
            if (end == std::string::npos)
                continue;
            // First top-level argument span.
            std::size_t argEnd = end - 1;
            int depth = 0;
            for (std::size_t i = open + 1; i < end - 1; ++i) {
                const char c = code[i];
                if (c == '(' || c == '[' || c == '{')
                    ++depth;
                else if (c == ')' || c == ']' || c == '}')
                    --depth;
                else if (c == ',' && depth == 0) {
                    argEnd = i;
                    break;
                }
            }
            std::string literal;
            if (!literalAt(file, open + 1, argEnd, literal))
                continue;
            if ((!dottedOnly ||
                 literal.find('.') != std::string::npos) &&
                keyGrammar(literal))
                keys.add(literal, file.path(), file.lineOf(pos));
        }
    }
}

/** Harvest `<i>`-template literals (families of numbered keys). */
void
harvestTemplates(const FileContext &file, KeySet &keys)
{
    const std::string &code = file.codeText();
    std::size_t p = 0;
    while ((p = code.find('"', p)) != std::string::npos) {
        const std::size_t close = code.find('"', p + 1);
        if (close == std::string::npos)
            break;
        const std::string literal = file.rawSlice(p + 1, close);
        if (keyGrammar(literal) &&
            literal.find("<i>") != std::string::npos &&
            literal.find('.') != std::string::npos)
            keys.add(literal, file.path(),
                     file.lineOf(p));
        p = close + 1;
    }
}

/** Backticked key tokens in the first column of README `| Key |`
 *  tables, with the 1-based line of each row. */
std::map<std::string, int>
docKeys(const std::string &readme)
{
    std::map<std::string, int> keys;
    bool inKeyTable = false;
    int lineNo = 0;
    std::string::size_type start = 0;
    while (start <= readme.size()) {
        std::string::size_type nl = readme.find('\n', start);
        if (nl == std::string::npos)
            nl = readme.size();
        std::string line = readme.substr(start, nl - start);
        ++lineNo;
        start = nl + 1;

        std::size_t first = 0;
        while (first < line.size() && isSpace(line[first]))
            ++first;
        if (first >= line.size() || line[first] != '|') {
            inKeyTable = false;
            continue;
        }
        // First cell: between the leading '|' and the next '|'.
        const std::size_t bar = line.find('|', first + 1);
        std::string cell = line.substr(
            first + 1,
            bar == std::string::npos ? std::string::npos
                                     : bar - first - 1);
        while (!cell.empty() && isSpace(cell.front()))
            cell.erase(cell.begin());
        while (!cell.empty() && isSpace(cell.back()))
            cell.pop_back();
        if (cell == "Key") {
            inKeyTable = true;
            continue;
        }
        if (!inKeyTable)
            continue;
        // Every backticked token in the first cell that parses as a
        // key; separator rows have no backticks and fall through.
        std::size_t p = 0;
        while ((p = cell.find('`', p)) != std::string::npos) {
            const std::size_t close = cell.find('`', p + 1);
            if (close == std::string::npos)
                break;
            const std::string token =
                cell.substr(p + 1, close - p - 1);
            if (keyGrammar(token) && keys.find(token) == keys.end())
                keys.emplace(token, lineNo);
            p = close + 1;
        }
    }
    return keys;
}

class ConfigDocRule : public ProjectRule
{
  public:
    void
    check(const ProjectContext &project, const std::string &id,
          ProjectSink &sink) const override
    {
        std::string readme;
        if (!project.readDoc("README.md", readme))
            return; // partial scans without a README stay quiet

        KeySet code;
        for (const FileContext *file : project.files()) {
            if (!file->under("src/"))
                continue;
            const bool ioFile =
                file->path() == "src/harness/config_io.cc" ||
                file->path() == "src/harness/cluster_io.cc";
            if (ioFile) {
                harvestComparisons(*file, "key", "", code);
                harvestCalls(*file, {"key"}, false, code);
            }
            if (file->path() == "src/harness/cluster_io.cc")
                harvestComparisons(*file, "rest", "host<i>.", code);
            harvestCalls(*file, {"key", "has", "raw"}, true, code);
            harvestTemplates(*file, code);
        }

        const std::map<std::string, int> docs = docKeys(readme);

        for (const auto &[key, site] : code.all()) {
            if (docs.count(key) > 0)
                continue;
            sink.report(site.first, site.second, id,
                        "config key '" + key +
                            "' is parsed here but missing from the "
                            "README.md key tables");
        }
        for (const auto &[key, line] : docs) {
            if (code.has(key))
                continue;
            sink.report("README.md", line, id,
                        "README.md documents config key '" + key +
                            "' but no code under src/ reads it");
        }
    }
};

std::unique_ptr<ProjectRule>
makeConfigDocRule()
{
    return std::make_unique<ConfigDocRule>();
}

REGISTER_PROJECT_RULE(
    "config-doc-sync", &makeConfigDocRule, "config-doc-ok",
    "every config key the code parses must appear in a README key "
    "table and every documented key must be parsed by the code");

} // namespace

// Anchor for ensureBuiltinRules().
void linkConfigDocRule() {}

} // namespace nmaplint

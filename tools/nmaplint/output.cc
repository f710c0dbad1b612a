/**
 * @file
 * Output emitters: text and SARIF 2.1.0 renderings of a sorted
 * finding list. Both are byte-stable — field order is fixed, rule
 * metadata is sorted, and nothing depends on scan order — so
 * golden-file tests can pin them.
 */

#include "lint.hh"

#include <set>
#include <string>
#include <vector>

namespace nmaplint {

namespace {

/** Minimal JSON string escaping (quotes, backslashes, control). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                static const char kHex[] = "0123456789abcdef";
                out += "\\u00";
                out += kHex[(c >> 4) & 0xf];
                out += kHex[c & 0xf];
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
quoted(const std::string &s)
{
    return "\"" + jsonEscape(s) + "\"";
}

/** Help text for @p ruleId; pseudo-rules that never register
 *  (bad-waiver, io-error) get synthesized descriptions so SARIF rule
 *  metadata is complete for every result. */
std::string
ruleHelp(const std::string &ruleId)
{
    if (ruleId == "bad-waiver")
        return "malformed, unknown or reason-less lint waiver comment";
    if (ruleId == "io-error")
        return "a file handed to the linter could not be read";
    for (const auto &info : LintRuleRegistry::instance().rules()) {
        if (info.id == ruleId)
            return info.help;
    }
    return "nmaplint rule";
}

} // namespace

std::string
renderText(const std::vector<Finding> &findings)
{
    std::string out;
    for (const Finding &f : findings) {
        out += f.file;
        out += ':';
        out += std::to_string(f.line);
        out += ": ";
        out += f.rule;
        out += ": ";
        out += f.message;
        out += '\n';
    }
    return out;
}

std::string
renderSarif(const std::vector<Finding> &findings)
{
    // Rule metadata only for rules that actually fired: findings are
    // sorted by (file, line, rule), so gathering through a std::set
    // keeps the descriptor order independent of scan order too.
    std::set<std::string> fired;
    for (const Finding &f : findings)
        fired.insert(f.rule);

    std::string out;
    out +=
        "{\n"
        "  \"$schema\": \"https://json.schemastore.org/"
        "sarif-2.1.0.json\",\n"
        "  \"version\": \"2.1.0\",\n"
        "  \"runs\": [\n"
        "    {\n"
        "      \"tool\": {\n"
        "        \"driver\": {\n"
        "          \"name\": \"nmaplint\",\n"
        "          \"informationUri\": "
        "\"https://github.com/nmapsim/nmapsim\",\n"
        "          \"rules\": [\n";
    std::size_t ri = 0;
    for (const std::string &rule : fired) {
        out += "            {\"id\": " + quoted(rule) +
               ", \"shortDescription\": {\"text\": " +
               quoted(ruleHelp(rule)) + "}}";
        if (++ri < fired.size())
            out += ',';
        out += '\n';
    }
    out +=
        "          ]\n"
        "        }\n"
        "      },\n"
        "      \"results\": [\n";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        // SARIF regions are 1-based; io-error findings carry line 0
        // (whole file), which maps to startLine 1.
        const int line = f.line > 0 ? f.line : 1;
        out += "        {\"ruleId\": " + quoted(f.rule) +
               ", \"level\": \"error\", \"message\": {\"text\": " +
               quoted(f.message) +
               "}, \"locations\": [{\"physicalLocation\": "
               "{\"artifactLocation\": {\"uri\": " +
               quoted(f.file) +
               "}, \"region\": {\"startLine\": " +
               std::to_string(line) + "}}}]}";
        if (i + 1 < findings.size())
            out += ',';
        out += '\n';
    }
    out +=
        "      ]\n"
        "    }\n"
        "  ]\n"
        "}\n";
    return out;
}

} // namespace nmaplint

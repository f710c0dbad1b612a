/**
 * @file
 * nmaplint core implementation: code-view stripping, token matching,
 * the rule registry, waiver handling and the two-phase driver (the
 * per-file pass, then the project pass).
 */

#include "lint.hh"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace nmaplint {

namespace {

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/**
 * Blank comments and literal contents out of @p text. Comment bodies
 * (including the delimiters) become spaces; string and char literals
 * keep their quote characters but their contents become spaces. Raw
 * strings R"delim(...)delim" are handled; newlines always survive so
 * line numbering is unchanged.
 */
std::string
stripToCode(const std::string &text)
{
    std::string out(text.size(), ' ');
    enum class St
    {
        kCode,
        kLineComment,
        kBlockComment,
        kString,
        kChar,
        kRawString,
    };
    St st = St::kCode;
    std::string rawEnd; // ")delim\"" terminator for raw strings
    std::size_t i = 0;
    const std::size_t n = text.size();
    while (i < n) {
        const char c = text[i];
        if (c == '\n') {
            out[i] = '\n';
            if (st == St::kLineComment)
                st = St::kCode;
            ++i;
            continue;
        }
        switch (st) {
        case St::kCode:
            if (c == '/' && i + 1 < n && text[i + 1] == '/') {
                // Keep the delimiter: waiver detection anchors on a
                // real line-comment start in the code view.
                out[i] = '/';
                out[i + 1] = '/';
                st = St::kLineComment;
                i += 2;
            } else if (c == '/' && i + 1 < n && text[i + 1] == '*') {
                st = St::kBlockComment;
                i += 2;
            } else if (c == '"' && i >= 1 && text[i - 1] == 'R' &&
                       (i < 2 || !isIdentChar(text[i - 2]))) {
                // R"delim( ... )delim"
                std::size_t open = text.find('(', i + 1);
                if (open == std::string::npos) {
                    out[i] = c;
                    ++i;
                    break;
                }
                // append(str, pos, n) sidesteps GCC 12's -Wrestrict
                // misfire on string-concatenation chains (PR105651).
                rawEnd.assign(1, ')');
                rawEnd.append(text, i + 1, open - i - 1);
                rawEnd.push_back('"');
                out[i] = '"';
                st = St::kRawString;
                i = open + 1;
            } else if (c == '"') {
                out[i] = '"';
                st = St::kString;
                ++i;
            } else if (c == '\'') {
                out[i] = '\'';
                st = St::kChar;
                ++i;
            } else {
                out[i] = c;
                ++i;
            }
            break;
        case St::kLineComment:
            ++i;
            break;
        case St::kBlockComment:
            if (c == '*' && i + 1 < n && text[i + 1] == '/') {
                st = St::kCode;
                i += 2;
            } else {
                ++i;
            }
            break;
        case St::kString:
            if (c == '\\' && i + 1 < n) {
                i += 2;
            } else if (c == '"') {
                out[i] = '"';
                st = St::kCode;
                ++i;
            } else {
                ++i;
            }
            break;
        case St::kChar:
            if (c == '\\' && i + 1 < n) {
                i += 2;
            } else if (c == '\'') {
                out[i] = '\'';
                st = St::kCode;
                ++i;
            } else {
                ++i;
            }
            break;
        case St::kRawString:
            if (text.compare(i, rawEnd.size(), rawEnd) == 0) {
                i += rawEnd.size();
                out[i - 1] = '"';
                st = St::kCode;
            } else {
                ++i;
            }
            break;
        }
    }
    return out;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::string::size_type start = 0;
    while (start <= text.size()) {
        std::string::size_type nl = text.find('\n', start);
        if (nl == std::string::npos) {
            lines.push_back(text.substr(start));
            break;
        }
        lines.push_back(text.substr(start, nl - start));
        start = nl + 1;
    }
    return lines;
}

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

/** A parsed `// lint: token(reason)` waiver comment. */
struct Waiver
{
    bool parsed = false;  //!< syntactically well-formed
    std::string token;
    std::string reason;
};

/**
 * Parse a waiver on 0-based line @p i of @p file. A waiver is a real
 * line comment (block-comment prose and string literals cannot match:
 * only genuine `//` delimiters survive into the code view) whose text
 * starts with `lint:`. Returns false when the line carries no waiver
 * marker; out.parsed reports whether it was well-formed.
 */
bool
findWaiver(const FileContext &file, std::size_t i, Waiver &out)
{
    const std::size_t slash = file.code()[i].find("//");
    if (slash == std::string::npos)
        return false;
    const std::string &rawLine = file.raw()[i];
    std::size_t mark = slash + 2;
    while (mark < rawLine.size() &&
           std::isspace(static_cast<unsigned char>(rawLine[mark])))
        ++mark;
    if (rawLine.compare(mark, 5, "lint:") != 0)
        return false;
    std::size_t p = mark + 5;
    while (p < rawLine.size() &&
           std::isspace(static_cast<unsigned char>(rawLine[p])))
        ++p;
    std::size_t tokStart = p;
    while (p < rawLine.size() &&
           (isIdentChar(rawLine[p]) || rawLine[p] == '-'))
        ++p;
    out.token = rawLine.substr(tokStart, p - tokStart);
    while (p < rawLine.size() &&
           std::isspace(static_cast<unsigned char>(rawLine[p])))
        ++p;
    if (out.token.empty() || p >= rawLine.size() || rawLine[p] != '(') {
        out.parsed = false;
        return true;
    }
    std::size_t close = rawLine.rfind(')');
    if (close == std::string::npos || close <= p) {
        out.parsed = false;
        return true;
    }
    out.reason = trim(rawLine.substr(p + 1, close - p - 1));
    out.parsed = true;
    return true;
}

/** True when 1-based @p line holds no code (blank or comment-only;
 *  a lone surviving `//` delimiter still counts as comment-only). */
bool
commentOnly(const FileContext &file, int line)
{
    if (line < 1 || line > static_cast<int>(file.code().size()))
        return false;
    const std::string t = trim(file.code()[line - 1]);
    return t.empty() || t == "//";
}

/** Well-formed waiver with token @p token on 1-based @p line? */
bool
waiverAt(const FileContext &file, int line, const std::string &token)
{
    if (line < 1 || line > static_cast<int>(file.raw().size()))
        return false;
    Waiver w;
    if (!findWaiver(file, static_cast<std::size_t>(line - 1), w))
        return false;
    return w.parsed && w.token == token && !w.reason.empty();
}

/**
 * First line of the multi-line statement containing 1-based @p line:
 * walk upward while the previous line is a continuation — nonempty
 * code that is not comment-only, not a preprocessor line, and does
 * not end a statement or open/close a scope (`;`, `{`, `}`, `:`).
 * A single-line statement returns @p line itself.
 */
int
statementStart(const FileContext &file, int line)
{
    int start = line;
    while (start > 1) {
        const std::string prev = trim(file.code()[start - 2]);
        if (prev.empty() || prev == "//")
            break;
        if (prev[0] == '#')
            break;
        const char last = prev.back();
        if (last == ';' || last == '{' || last == '}' || last == ':')
            break;
        --start;
    }
    return start;
}

/**
 * 1-based line of the waiver comment suppressing token @p token for a
 * finding on @p line, or 0 when none applies. Acceptance sites, in
 * order: the finding's own line, an immediately preceding comment-only
 * line, and — for findings inside a multi-line statement — the
 * statement's first line (so a waiver can trail the opening line of a
 * wrapped call whose offending argument lands lines later).
 */
int
waiverLineFor(const FileContext &file, int line,
              const std::string &token)
{
    if (waiverAt(file, line, token))
        return line;
    if (commentOnly(file, line - 1) && waiverAt(file, line - 1, token))
        return line - 1;
    const int start = statementStart(file, line);
    if (start < line && waiverAt(file, start, token))
        return start;
    return 0;
}

} // namespace

FileContext::FileContext(std::string relPath, const std::string &text)
    : path_(std::move(relPath))
{
    raw_ = splitLines(text);
    rawText_ = text;
    codeText_ = stripToCode(text);
    code_ = splitLines(codeText_);
    lineStart_.reserve(code_.size());
    std::size_t off = 0;
    for (const std::string &line : code_) {
        lineStart_.push_back(off);
        off += line.size() + 1;
    }
}

int
FileContext::lineOf(std::size_t pos) const
{
    auto it = std::upper_bound(lineStart_.begin(), lineStart_.end(), pos);
    return static_cast<int>(it - lineStart_.begin());
}

bool
FileContext::under(std::string_view prefix) const
{
    return path_.compare(0, prefix.size(), prefix) == 0;
}

bool
FileContext::isHeader() const
{
    auto ends = [this](std::string_view suf) {
        return path_.size() >= suf.size() &&
               path_.compare(path_.size() - suf.size(), suf.size(),
                             suf) == 0;
    };
    return ends(".hh") || ends(".h") || ends(".hpp");
}

std::string
FileContext::rawSlice(std::size_t begin, std::size_t end) const
{
    if (begin >= rawText_.size() || end <= begin)
        return std::string();
    end = std::min(end, rawText_.size());
    return rawText_.substr(begin, end - begin);
}

bool
tokenAt(std::string_view code, std::size_t pos, std::string_view tok)
{
    if (pos + tok.size() > code.size())
        return false;
    if (code.compare(pos, tok.size(), tok) != 0)
        return false;
    if (pos > 0 && isIdentChar(code[pos - 1]))
        return false;
    std::size_t after = pos + tok.size();
    return after >= code.size() || !isIdentChar(code[after]);
}

std::size_t
findToken(std::string_view code, std::string_view tok, std::size_t from)
{
    for (std::size_t pos = code.find(tok, from);
         pos != std::string_view::npos; pos = code.find(tok, pos + 1)) {
        if (tokenAt(code, pos, tok))
            return pos;
    }
    return std::string_view::npos;
}

bool
hasToken(std::string_view code, std::string_view tok)
{
    return findToken(code, tok) != std::string_view::npos;
}

std::size_t
findCall(std::string_view code, std::string_view fn, std::size_t from)
{
    for (std::size_t pos = findToken(code, fn, from);
         pos != std::string_view::npos;
         pos = findToken(code, fn, pos + 1)) {
        std::size_t p = pos + fn.size();
        while (p < code.size() &&
               std::isspace(static_cast<unsigned char>(code[p])))
            ++p;
        if (p < code.size() && code[p] == '(')
            return pos;
    }
    return std::string_view::npos;
}

std::size_t
matchParen(std::string_view code, std::size_t open)
{
    if (open >= code.size() || code[open] != '(')
        return std::string_view::npos;
    int depth = 0;
    for (std::size_t i = open; i < code.size(); ++i) {
        if (code[i] == '(')
            ++depth;
        else if (code[i] == ')' && --depth == 0)
            return i + 1;
    }
    return std::string_view::npos;
}

std::vector<std::string>
splitTopLevelArgs(std::string_view inside)
{
    std::vector<std::string> args;
    int paren = 0, brace = 0, angle = 0, bracket = 0;
    std::string cur;
    for (char c : inside) {
        switch (c) {
        case '(': ++paren; break;
        case ')': --paren; break;
        case '{': ++brace; break;
        case '}': --brace; break;
        case '<': ++angle; break;
        case '>': if (angle > 0) --angle; break;
        case '[': ++bracket; break;
        case ']': --bracket; break;
        default: break;
        }
        if (c == ',' && paren == 0 && brace == 0 && angle == 0 &&
            bracket == 0) {
            args.push_back(trim(cur));
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!trim(cur).empty() || !args.empty())
        args.push_back(trim(cur));
    return args;
}

std::vector<WaiverInfo>
waiversIn(const FileContext &file)
{
    std::vector<WaiverInfo> out;
    for (std::size_t i = 0; i < file.raw().size(); ++i) {
        Waiver w;
        if (!findWaiver(file, i, w))
            continue;
        out.push_back(WaiverInfo{static_cast<int>(i + 1), w.parsed,
                                 w.token, w.reason});
    }
    return out;
}

LintRuleRegistry &
LintRuleRegistry::instance()
{
    static LintRuleRegistry registry;
    return registry;
}

void
LintRuleRegistry::registerToken(const std::string &id,
                                const std::string &waiverToken)
{
    if (!tokenToRule_.emplace(waiverToken, id).second)
        throw std::logic_error("duplicate waiver token: " + waiverToken);
}

void
LintRuleRegistry::registerRule(const std::string &id, Factory factory,
                               const std::string &waiverToken,
                               const std::string &help)
{
    Entry entry;
    entry.factory = std::move(factory);
    entry.waiverToken = waiverToken;
    entry.help = help;
    if (!rules_.emplace(id, std::move(entry)).second)
        throw std::logic_error("duplicate lint rule: " + id);
    registerToken(id, waiverToken);
}

void
LintRuleRegistry::registerProjectRule(const std::string &id,
                                      ProjectFactory factory,
                                      const std::string &waiverToken,
                                      const std::string &help)
{
    Entry entry;
    entry.projectFactory = std::move(factory);
    entry.waiverToken = waiverToken;
    entry.help = help;
    if (!rules_.emplace(id, std::move(entry)).second)
        throw std::logic_error("duplicate lint rule: " + id);
    registerToken(id, waiverToken);
}

std::vector<LintRuleRegistry::RuleInfo>
LintRuleRegistry::rules() const
{
    std::vector<RuleInfo> out;
    out.reserve(rules_.size());
    for (const auto &[id, entry] : rules_)
        out.push_back(RuleInfo{id, entry.waiverToken, entry.help,
                               static_cast<bool>(entry.projectFactory)});
    return out;
}

std::string
LintRuleRegistry::waiverToken(const std::string &ruleId) const
{
    auto it = rules_.find(ruleId);
    return it == rules_.end() ? std::string() : it->second.waiverToken;
}

std::string
LintRuleRegistry::ruleForToken(const std::string &token) const
{
    auto it = tokenToRule_.find(token);
    return it == tokenToRule_.end() ? std::string() : it->second;
}

std::vector<std::pair<std::string, std::unique_ptr<LintRule>>>
LintRuleRegistry::instantiate() const
{
    std::vector<std::pair<std::string, std::unique_ptr<LintRule>>> out;
    out.reserve(rules_.size());
    for (const auto &[id, entry] : rules_) {
        if (entry.factory)
            out.emplace_back(id, entry.factory());
    }
    return out;
}

std::vector<std::pair<std::string, std::unique_ptr<ProjectRule>>>
LintRuleRegistry::instantiateProject() const
{
    std::vector<std::pair<std::string, std::unique_ptr<ProjectRule>>>
        out;
    for (const auto &[id, entry] : rules_) {
        if (entry.projectFactory && id != "stale-waiver")
            out.emplace_back(id, entry.projectFactory());
    }
    // stale-waiver audits the waiver consumption every other rule's
    // suppression produces, so it must observe a complete record.
    auto it = rules_.find("stale-waiver");
    if (it != rules_.end() && it->second.projectFactory)
        out.emplace_back(it->first, it->second.projectFactory());
    return out;
}

void
lintFile(const FileContext &file, std::vector<Finding> &out,
         std::vector<int> *usedWaiverLines)
{
    const LintRuleRegistry &registry = LintRuleRegistry::instance();

    std::vector<Finding> candidates;
    Sink sink(file, candidates);
    for (const auto &[id, rule] : registry.instantiate()) {
        if (rule->appliesTo(file))
            rule->check(file, id, sink);
    }

    // Apply waivers; record which waiver comments earned their keep
    // (input to the stale-waiver project rule).
    for (Finding &f : candidates) {
        const std::string token = registry.waiverToken(f.rule);
        const int waiverLine =
            token.empty() ? 0 : waiverLineFor(file, f.line, token);
        if (waiverLine == 0) {
            out.push_back(std::move(f));
            continue;
        }
        if (usedWaiverLines != nullptr)
            usedWaiverLines->push_back(waiverLine);
    }

    // Validate every waiver comment in the file: unknown tokens,
    // missing parens and empty reasons are findings themselves.
    for (std::size_t i = 0; i < file.raw().size(); ++i) {
        Waiver w;
        if (!findWaiver(file, i, w))
            continue;
        const int line = static_cast<int>(i + 1);
        if (!w.parsed) {
            out.push_back(Finding{
                file.path(), line, "bad-waiver",
                "malformed waiver comment; expected "
                "`// lint: <token>(<reason>)`"});
        } else if (registry.ruleForToken(w.token).empty()) {
            out.push_back(Finding{file.path(), line, "bad-waiver",
                                  "unknown waiver token '" + w.token +
                                      "' (see --list-rules)"});
        } else if (w.reason.empty()) {
            out.push_back(Finding{
                file.path(), line, "bad-waiver",
                "waiver '" + w.token +
                    "' has an empty reason; every waiver must say why"});
        }
    }
}

namespace {

/** Per-file phase output for one input path, slotted by input index
 *  so the merge below is independent of worker scheduling (the
 *  SweepRunner idiom from src/harness/sweep.cc). */
struct FileResult
{
    std::unique_ptr<FileContext> file; //!< null on read failure
    std::vector<Finding> findings;
    std::vector<int> usedWaiverLines;
};

FileResult
lintOnePath(const std::string &path, const std::string &rootPrefix)
{
    std::string rel = path;
    if (rel.compare(0, rootPrefix.size(), rootPrefix) == 0)
        rel = rel.substr(rootPrefix.size());
    while (rel.compare(0, 2, "./") == 0)
        rel = rel.substr(2);

    FileResult result;
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        result.findings.push_back(
            Finding{rel, 0, "io-error", "cannot read file"});
        return result;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    result.file = std::make_unique<FileContext>(rel, ss.str());
    lintFile(*result.file, result.findings, &result.usedWaiverLines);
    return result;
}

} // namespace

std::vector<Finding>
lintPaths(const std::vector<std::string> &files, const std::string &root,
          const LintOptions &options)
{
    std::string prefix = root;
    if (!prefix.empty() && prefix.back() != '/')
        prefix += '/';

    // Phase 1: per-file rules, one file at a time.
    std::vector<FileResult> results;
    results.reserve(files.size());
    for (const std::string &file : files)
        results.push_back(lintOnePath(file, prefix));

    std::vector<Finding> findings;
    for (FileResult &r : results)
        findings.insert(findings.end(),
                        std::make_move_iterator(r.findings.begin()),
                        std::make_move_iterator(r.findings.end()));

    // Phase 2: project rules over the whole loaded tree.
    if (options.project) {
        ProjectContext project(root);
        for (FileResult &r : results) {
            if (!r.file)
                continue;
            const std::string &rel = r.file->path();
            for (int line : r.usedWaiverLines)
                project.markWaiverUsed(rel, line);
            project.addFile(std::move(r.file));
        }
        project.finalize();

        const LintRuleRegistry &registry = LintRuleRegistry::instance();
        // stale-waiver is ordered last by instantiateProject(); the
        // waiver consumption of every earlier project rule is folded
        // into the context before it runs.
        for (const auto &[id, rule] : registry.instantiateProject()) {
            std::vector<Finding> candidates;
            ProjectSink sink(candidates);
            rule->check(project, id, sink);
            const std::string token = registry.waiverToken(id);
            for (Finding &f : candidates) {
                const FileContext *ctx = project.file(f.file);
                const int waiverLine =
                    (ctx != nullptr && !token.empty() && f.line > 0)
                        ? waiverLineFor(*ctx, f.line, token)
                        : 0;
                if (waiverLine == 0) {
                    findings.push_back(std::move(f));
                    continue;
                }
                project.markWaiverUsed(f.file, waiverLine);
            }
        }
    }

    std::sort(findings.begin(), findings.end());
    return findings;
}

std::string
waiverComment(const std::string &ruleIdOrToken, const std::string &reason)
{
    const LintRuleRegistry &registry = LintRuleRegistry::instance();
    std::string token = registry.waiverToken(ruleIdOrToken);
    if (token.empty() &&
        !registry.ruleForToken(ruleIdOrToken).empty())
        token = ruleIdOrToken;
    if (token.empty())
        return std::string();
    return "// lint: " + token + "(" + reason + ")";
}

} // namespace nmaplint

/**
 * @file
 * Project rule `shared-mutable-state`: the parallel-readiness audit.
 *
 * The ROADMAP's parallel-cluster item will shard hosts across
 * threads; any mutable state shared between simulator instances
 * becomes a data race the day that lands. This rule keeps the race
 * surface machine-verifiably empty *now*: under src/ it flags
 *
 *   - mutable namespace-scope variables (including file-`static` and
 *     `inline` globals), and
 *   - non-`const` `static` locals and static data members,
 *
 * while blessing the two idioms the codebase is built on: Meyer
 * singletons inside an `instance()` accessor (the policy registries —
 * construction is C++11 thread-safe and every registration finishes
 * during static initialisation, so the maps are frozen before
 * `main`), and `thread_local` storage (per-thread by construction).
 *
 * This is a token-level scanner, not a compiler: `const`-ness is
 * judged by a `const`/`constexpr`/`constinit` token anywhere in the
 * declaration, and a namespace-scope declarator using direct paren
 * initialization (`Foo x(1);`) is indistinguishable from a function
 * declaration and so is not flagged. Both edges are acceptable for
 * this tree: globals here are either absent or registrar/constant
 * data, and the rule's job is to keep it that way.
 */

#include "lint.hh"

#include <cctype>
#include <string>
#include <vector>

namespace nmaplint {
namespace {

bool
isSpace(char c)
{
    return std::isspace(static_cast<unsigned char>(c)) != 0;
}

std::string
trimCopy(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && isSpace(s[b]))
        ++b;
    while (e > b && isSpace(s[e - 1]))
        --e;
    return s.substr(b, e - b);
}

/** First '=' that is an assignment/init (not ==, <=, >=, !=, +=...),
 *  at top nesting level of @p s; npos when none. */
std::size_t
topLevelInitEq(const std::string &s)
{
    int paren = 0, bracket = 0, brace = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (c == '(')
            ++paren;
        else if (c == ')')
            --paren;
        else if (c == '[')
            ++bracket;
        else if (c == ']')
            --bracket;
        else if (c == '{')
            ++brace;
        else if (c == '}')
            --brace;
        else if (c == '=' && paren == 0 && bracket == 0 && brace == 0) {
            const char prev = i > 0 ? s[i - 1] : '\0';
            const char next = i + 1 < s.size() ? s[i + 1] : '\0';
            if (prev == '=' || prev == '!' || prev == '<' ||
                prev == '>' || prev == '+' || prev == '-' ||
                prev == '*' || prev == '/' || prev == '%' ||
                prev == '&' || prev == '|' || prev == '^' ||
                next == '=')
                continue;
            return i;
        }
    }
    return std::string::npos;
}

/** '(' before the init '=' (or anywhere when there is no init) marks
 *  a function declaration / direct-init, which this rule skips. */
bool
looksLikeFunctionDecl(const std::string &head)
{
    const std::size_t eq = topLevelInitEq(head);
    const std::size_t paren = head.find('(');
    if (paren == std::string::npos)
        return false;
    return eq == std::string::npos || paren < eq;
}

bool
hasAnyToken(const std::string &head,
            std::initializer_list<const char *> tokens)
{
    for (const char *tok : tokens) {
        if (hasToken(head, tok))
            return true;
    }
    return false;
}

/** More ')' than '(' means the head is the tail of an enclosing
 *  expression whose earlier parts were consumed by brace boundaries —
 *  e.g. the `, "help")` left over after a lambda argument's closing
 *  brace in a REGISTER_* call — never a declaration. */
bool
unbalancedContinuation(const std::string &head)
{
    int depth = 0;
    for (char c : head) {
        if (c == '(')
            ++depth;
        else if (c == ')' && --depth < 0)
            return true;
    }
    return false;
}

/** Declaration text fit for a one-line finding message: whitespace
 *  runs collapsed, long tails elided. */
std::string
displayDecl(const std::string &decl)
{
    std::string out;
    bool pendingSpace = false;
    for (char c : decl) {
        if (isSpace(c)) {
            pendingSpace = !out.empty();
            continue;
        }
        if (pendingSpace) {
            out += ' ';
            pendingSpace = false;
        }
        out += c;
    }
    if (out.size() > 60) {
        out.resize(57);
        out += "...";
    }
    return out;
}

/** Statement keywords that make a namespace-scope `...;` statement
 *  something other than a variable definition. */
bool
nonVariableStatement(const std::string &head)
{
    return hasAnyToken(head,
                       {"using", "typedef", "extern", "friend",
                        "template", "static_assert", "namespace",
                        "operator", "class", "struct", "enum", "union",
                        "concept", "requires", "return", "goto"});
}

bool
immutableDecl(const std::string &head)
{
    return hasAnyToken(head,
                       {"const", "constexpr", "constinit",
                        "thread_local"});
}

/** What a `{` opens, judged from the statement head before it. */
enum class Ctx
{
    kNamespace,
    kType,
    kFunction,
    kBlock, //!< control blocks, lambdas, bare blocks
    kInit,  //!< brace initializer after `=`
};

struct Frame
{
    Ctx ctx;
    std::string functionName; //!< set for kFunction
    std::string pendingDecl;  //!< namespace-scope head before a
                              //!< kInit/kBlock brace (x = {...})
};

/** Name before the first '(' of a function-definition head. */
std::string
functionNameOf(const std::string &head)
{
    const std::size_t paren = head.find('(');
    if (paren == std::string::npos)
        return std::string();
    std::size_t e = paren;
    while (e > 0 && isSpace(head[e - 1]))
        --e;
    std::size_t b = e;
    while (b > 0 && (std::isalnum(static_cast<unsigned char>(
                         head[b - 1])) != 0 ||
                     head[b - 1] == '_'))
        --b;
    return head.substr(b, e - b);
}

Ctx
classifyBrace(const std::string &head)
{
    const std::string t = trimCopy(head);
    if (hasToken(t, "namespace"))
        return Ctx::kNamespace;
    if (!t.empty() && t.back() == ')')
        return hasAnyToken(t, {"if", "for", "while", "switch", "catch"})
                   ? Ctx::kBlock
                   : Ctx::kFunction;
    // `void f() const noexcept {`, `...) override {` and friends.
    if (t.find('(') != std::string::npos &&
        topLevelInitEq(t) == std::string::npos &&
        hasAnyToken(t, {"const", "noexcept", "override", "final"}))
        return Ctx::kFunction;
    if (topLevelInitEq(t) != std::string::npos)
        return Ctx::kInit;
    if (hasAnyToken(t, {"class", "struct", "union", "enum"}))
        return Ctx::kType;
    return Ctx::kBlock;
}

class SharedStateRule : public ProjectRule
{
  public:
    void
    check(const ProjectContext &project, const std::string &id,
          ProjectSink &sink) const override
    {
        for (const FileContext *file : project.files()) {
            if (!file->under("src/"))
                continue;
            scanFile(*file, id, sink);
        }
    }

  private:
    /** Code view with preprocessor lines blanked: `#define`/`#if`
     *  bodies are not declarations. */
    static std::string
    maskPreprocessor(const FileContext &file)
    {
        std::string text = file.codeText();
        std::size_t lineStart = 0;
        while (lineStart < text.size()) {
            std::size_t nl = text.find('\n', lineStart);
            if (nl == std::string::npos)
                nl = text.size();
            std::size_t first = lineStart;
            while (first < nl && isSpace(text[first]))
                ++first;
            if (first < nl && text[first] == '#') {
                for (std::size_t i = lineStart; i < nl; ++i)
                    text[i] = ' ';
            }
            lineStart = nl + 1;
        }
        return text;
    }

    void
    scanFile(const FileContext &file, const std::string &id,
             ProjectSink &sink) const
    {
        const std::string text = maskPreprocessor(file);
        std::vector<Frame> stack;
        std::string head;
        std::size_t headStart = 0;

        auto atNamespaceScope = [&]() {
            for (const Frame &f : stack) {
                if (f.ctx != Ctx::kNamespace)
                    return false;
            }
            return true;
        };
        auto inBlessedFunction = [&]() {
            for (const Frame &f : stack) {
                if (f.ctx != Ctx::kFunction)
                    continue;
                if (f.functionName == "instance")
                    return true;
            }
            return false;
        };
        auto innermostIsType = [&]() {
            for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
                if (it->ctx == Ctx::kType)
                    return true;
                if (it->ctx == Ctx::kFunction ||
                    it->ctx == Ctx::kBlock || it->ctx == Ctx::kInit)
                    return false;
            }
            return false;
        };
        auto declLine = [&](const std::string &statement) {
            std::size_t off = 0;
            while (off < statement.size() && isSpace(statement[off]))
                ++off;
            return file.lineOf(headStart + off);
        };

        auto checkNamespaceDecl = [&](const std::string &statement) {
            const std::string t = trimCopy(statement);
            if (t.empty() || unbalancedContinuation(t) ||
                nonVariableStatement(t) || immutableDecl(t) ||
                looksLikeFunctionDecl(t))
                return;
            sink.report(file.path(), declLine(statement), id,
                        "mutable namespace-scope state '" +
                            displayDecl(t) +
                            "' is a data race once engines run on "
                            "concurrent threads; make it const, "
                            "thread_local or per-instance");
        };
        auto checkLocalStatic = [&](const std::string &statement) {
            const std::string t = trimCopy(statement);
            if (!hasToken(t, "static") || unbalancedContinuation(t) ||
                immutableDecl(t) || looksLikeFunctionDecl(t) ||
                inBlessedFunction())
                return;
            const bool member = innermostIsType();
            sink.report(
                file.path(), declLine(statement), id,
                std::string(member ? "mutable static data member"
                                   : "non-const function-local "
                                     "static") +
                    " '" + displayDecl(t) +
                    "' is shared across simulator instances; make it "
                    "const, thread_local or per-instance");
        };

        for (std::size_t i = 0; i < text.size(); ++i) {
            const char c = text[i];
            if (c == '{') {
                const Ctx ctx = classifyBrace(head);
                Frame frame;
                frame.ctx = ctx;
                if (ctx == Ctx::kFunction) {
                    frame.functionName = functionNameOf(head);
                } else if ((ctx == Ctx::kInit || ctx == Ctx::kBlock) &&
                           atNamespaceScope()) {
                    // `Foo x = {...};` / `Foo x{...};` at namespace
                    // scope: judge the declarator once `};` closes.
                    frame.pendingDecl = head;
                }
                if (!atNamespaceScope() && ctx != Ctx::kFunction)
                    checkLocalStatic(head);
                stack.push_back(std::move(frame));
                head.clear();
                headStart = i + 1;
            } else if (c == '}') {
                std::string pending;
                if (!stack.empty()) {
                    pending = stack.back().pendingDecl;
                    stack.pop_back();
                }
                head.clear();
                headStart = i + 1;
                if (!pending.empty() && atNamespaceScope()) {
                    // Peek past the brace for the closing ';'.
                    std::size_t j = i + 1;
                    while (j < text.size() && isSpace(text[j]))
                        ++j;
                    if (j < text.size() && text[j] == ';')
                        checkNamespaceDecl(pending);
                }
            } else if (c == ';') {
                if (atNamespaceScope())
                    checkNamespaceDecl(head);
                else
                    checkLocalStatic(head);
                head.clear();
                headStart = i + 1;
            } else {
                head += c;
            }
        }
    }
};

std::unique_ptr<ProjectRule>
makeSharedStateRule()
{
    return std::make_unique<SharedStateRule>();
}

REGISTER_PROJECT_RULE(
    "shared-mutable-state", &makeSharedStateRule, "shared-state-ok",
    "src/ must hold no mutable namespace-scope or static-storage "
    "state outside blessed instance() singletons: the "
    "parallel-engine roadmap item needs an empty race surface");

} // namespace

} // namespace nmaplint

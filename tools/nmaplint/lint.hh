/**
 * @file
 * nmaplint core: a repo-aware determinism & model-integrity linter.
 *
 * nmapsim's central promise is that every experiment is
 * bit-reproducible: the same config produces byte-identical
 * ResultWriter output on every run, which is what lets the bench
 * stdouts be pinned across refactors and NMAP be compared fairly
 * against the baselines. nmaplint turns that convention into a checked
 * property with a small set of source-level rules (banned wall-clock /
 * random / environment reads, unordered-container iteration, raw
 * stdout writes, header hygiene, registration hygiene).
 *
 * The tool is a line/token scanner, not a compiler frontend: each file
 * is loaded once and split into a raw view (for waiver comments) and a
 * code view in which comments are blanked and string/char literal
 * *contents* are blanked while the quotes survive — so rules can match
 * tokens and balance parentheses without tripping over prose in doc
 * comments or literals.
 *
 * The pass runs in two phases:
 *
 *  1. Per-file rules (LintRule) see one FileContext at a time and run
 *     embarrassingly parallel under `--jobs N`.
 *  2. Project rules (ProjectRule) see the whole loaded tree through a
 *     ProjectContext — the `#include` graph, every file's waiver
 *     usage, and non-source documents like README.md — and check
 *     cross-translation-unit properties: the module layering DAG,
 *     the shared-mutable-state race surface, config-key/doc sync and
 *     stale waivers.
 *
 * Rules self-register through LintRuleRegistry, mirroring the
 * simulator's Registry idiom (src/sim/registry.hh):
 *
 *     // in tools/nmaplint/rules_<mine>.cc
 *     namespace {
 *     class MyRule : public LintRule { ... };
 *     REGISTER_LINT_RULE("my-rule", &makeMyRule, "my-ok",
 *                        "one-line description");
 *     } // namespace
 *
 * Project rules use REGISTER_PROJECT_RULE with the same shape; both
 * families share one id and waiver-token namespace.
 *
 * Every rule has a waiver token: a finding on line L is suppressed iff
 * a `// lint: <token>(<reason>)` comment with a nonempty reason sits
 * on line L, on an immediately preceding comment-only line, or
 * trailing the first line of the multi-line statement containing L.
 * Reason-less or unknown-token waivers are themselves findings (rule
 * `bad-waiver`), and a well-formed waiver that no longer suppresses
 * anything is flagged by the `stale-waiver` project rule — waiving is
 * cheap but always leaves a live audit trail.
 */

#ifndef NMAPSIM_TOOLS_NMAPLINT_LINT_HH_
#define NMAPSIM_TOOLS_NMAPLINT_LINT_HH_

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nmaplint {

/** One reported problem: `file:line: rule-id: message`. */
struct Finding
{
    std::string file; //!< repo-relative path, '/'-separated
    int line = 0;     //!< 1-based
    std::string rule;
    std::string message;

    /** Sort key: file, then line, then rule id. */
    friend bool
    operator<(const Finding &a, const Finding &b)
    {
        if (a.file != b.file)
            return a.file < b.file;
        if (a.line != b.line)
            return a.line < b.line;
        return a.rule < b.rule;
    }
};

/** A loaded source file with raw and literal-blanked views. */
class FileContext
{
  public:
    /** @param relPath repo-relative path with forward slashes.
     *  @param text    full file contents. */
    FileContext(std::string relPath, const std::string &text);

    const std::string &path() const { return path_; }

    /** Original lines (waiver comments live here). 0-based index. */
    const std::vector<std::string> &raw() const { return raw_; }

    /** Lines with comments blanked and literal contents blanked
     *  (quote characters survive, so `""` vs `"x"` is decidable). */
    const std::vector<std::string> &code() const { return code_; }

    /** The code view joined with '\n' for cross-line matching. */
    const std::string &codeText() const { return codeText_; }

    /** 1-based line number holding codeText() offset @p pos. */
    int lineOf(std::size_t pos) const;

    /** True when path() starts with @p prefix (e.g. "src/"). */
    bool under(std::string_view prefix) const;

    /** True for .h / .hh / .hpp files. */
    bool isHeader() const;

    /** Raw literal/comment text behind code-view offsets
     *  [@p begin, @p end): the code and raw views are byte-aligned, so
     *  blanked literal contents can be recovered exactly. */
    std::string rawSlice(std::size_t begin, std::size_t end) const;

  private:
    std::string path_;
    std::vector<std::string> raw_;
    std::string rawText_;
    std::vector<std::string> code_;
    std::string codeText_;
    std::vector<std::size_t> lineStart_; //!< codeText_ offsets
};

/** @name Token matching on the code view
 * Identifier-boundary-aware search: `findToken(s, "time")` matches
 * `time` and `std::time` but neither `wallTime` nor `time_point`.
 */
/**@{*/

/** True iff an identifier token equal to @p tok starts at @p pos. */
bool tokenAt(std::string_view code, std::size_t pos,
             std::string_view tok);

/** Offset of the first token match at or after @p from, or npos. */
std::size_t findToken(std::string_view code, std::string_view tok,
                      std::size_t from = 0);

bool hasToken(std::string_view code, std::string_view tok);

/** First occurrence of token @p fn directly invoked: `fn (`.
 *  Returns npos when @p fn never appears as a call. */
std::size_t findCall(std::string_view code, std::string_view fn,
                     std::size_t from = 0);

/** Offset just past the ')' matching the '(' at @p open, balancing
 *  nested parens; npos when unbalanced. Works on the code view, so
 *  parens inside literals/comments cannot desynchronise it. */
std::size_t matchParen(std::string_view code, std::size_t open);

/** Split the text between a call's parens into top-level
 *  comma-separated arguments (nested (), {}, <> and [] respected),
 *  each trimmed. */
std::vector<std::string> splitTopLevelArgs(std::string_view inside);

/**@}*/

/** A `// lint: token(reason)` comment found in a file. */
struct WaiverInfo
{
    int line = 0;        //!< 1-based
    bool wellFormed = false;
    std::string token;
    std::string reason;
};

/** Every waiver comment in @p file, in line order. */
std::vector<WaiverInfo> waiversIn(const FileContext &file);

/** Reported-finding sink handed to per-file rules. */
class Sink
{
  public:
    explicit Sink(const FileContext &file, std::vector<Finding> &out)
        : file_(file), out_(out)
    {
    }

    /** Report @p message at 1-based @p line under @p rule. */
    void
    report(int line, const std::string &rule, const std::string &message)
    {
        out_.push_back(Finding{file_.path(), line, rule, message});
    }

  private:
    const FileContext &file_;
    std::vector<Finding> &out_;
};

/** One lint rule; stateless, instantiated per run. */
class LintRule
{
  public:
    virtual ~LintRule() = default;

    /** Whether the rule scans @p file at all (path scoping). */
    virtual bool appliesTo(const FileContext &file) const = 0;

    /** Scan @p file; report findings through @p sink with this rule's
     *  registered id (passed in so the id lives only at the
     *  registration site). */
    virtual void check(const FileContext &file, const std::string &id,
                       Sink &sink) const = 0;
};

/** One `#include "..."` directive in a loaded file. */
struct IncludeEdge
{
    int line = 0;        //!< 1-based line of the directive
    std::string text;    //!< include path exactly as written
    /** Loaded file the include resolves to (tried as src/<text>,
     *  <dir-of-includer>/<text>, then <text> relative to the repo
     *  root); nullptr when the target was not part of the scan. */
    const FileContext *target = nullptr;
};

/**
 * Everything a project rule can see: the loaded tree, its include
 * graph, per-waiver usage from the per-file phase, and root-relative
 * documents (README.md) for doc-sync rules.
 */
class ProjectContext
{
  public:
    explicit ProjectContext(std::string root);

    /** @name Driver wiring (lintPaths builds the context). */
    /**@{*/
    void addFile(std::unique_ptr<FileContext> file);
    void markWaiverUsed(const std::string &file, int line);
    /** Sorts the file list and builds the include graph. */
    void finalize();
    /**@}*/

    /** Loaded files, sorted by path (iteration order is part of the
     *  deterministic-output contract). */
    const std::vector<const FileContext *> &files() const
    {
        return sorted_;
    }

    /** Loaded file by repo-relative path; nullptr when absent. */
    const FileContext *file(const std::string &relPath) const;

    /** Quoted includes of @p file, in line order. */
    const std::vector<IncludeEdge> &includesOf(
        const FileContext &file) const;

    /** Did any finding consume the waiver comment on (file, line)? */
    bool waiverUsed(const std::string &file, int line) const;

    const std::string &root() const { return root_; }

    /** Read a root-relative non-source file (e.g. "README.md").
     *  Returns false when unreadable; contents are cached. */
    bool readDoc(const std::string &relPath, std::string &out) const;

  private:
    std::string root_;
    std::vector<std::unique_ptr<FileContext>> owned_;
    std::vector<const FileContext *> sorted_;
    std::map<std::string, const FileContext *> byPath_;
    std::map<const FileContext *, std::vector<IncludeEdge>> includes_;
    std::set<std::pair<std::string, int>> usedWaivers_;
    mutable std::map<std::string, std::pair<bool, std::string>> docs_;
};

/** Reported-finding sink handed to project rules (findings may span
 *  any file in the project, including non-source docs). */
class ProjectSink
{
  public:
    explicit ProjectSink(std::vector<Finding> &out) : out_(out) {}

    void
    report(const std::string &file, int line, const std::string &rule,
           const std::string &message)
    {
        out_.push_back(Finding{file, line, rule, message});
    }

  private:
    std::vector<Finding> &out_;
};

/** One project-scoped rule; stateless, instantiated per run. */
class ProjectRule
{
  public:
    virtual ~ProjectRule() = default;

    /** Scan the whole project; report findings through @p sink with
     *  this rule's registered id. */
    virtual void check(const ProjectContext &project,
                       const std::string &id,
                       ProjectSink &sink) const = 0;
};

/** String-keyed lint-rule factories; mirrors the simulator's Registry
 *  template (src/sim/registry.hh). Per-file and project rules share
 *  one id and waiver-token namespace. */
class LintRuleRegistry
{
  public:
    using Factory = std::function<std::unique_ptr<LintRule>()>;
    using ProjectFactory =
        std::function<std::unique_ptr<ProjectRule>()>;

    static LintRuleRegistry &instance();

    /** Register per-file rule @p id; throws std::logic_error on
     *  duplicates and on duplicate waiver tokens. */
    void registerRule(const std::string &id, Factory factory,
                      const std::string &waiverToken,
                      const std::string &help);

    /** Register project rule @p id; same uniqueness contract. */
    void registerProjectRule(const std::string &id,
                             ProjectFactory factory,
                             const std::string &waiverToken,
                             const std::string &help);

    struct RuleInfo
    {
        std::string id;
        std::string waiverToken;
        std::string help;
        bool project = false;
    };

    /** Registered rules (both phases), sorted by id (listing output
     *  never depends on registration order). */
    std::vector<RuleInfo> rules() const;

    /** Waiver token for @p ruleId; empty when unknown. */
    std::string waiverToken(const std::string &ruleId) const;

    /** Rule id owning waiver token @p token; empty when unknown. */
    std::string ruleForToken(const std::string &token) const;

    /** Instantiate every registered per-file rule, sorted by id. */
    std::vector<std::pair<std::string, std::unique_ptr<LintRule>>>
    instantiate() const;

    /** Instantiate every registered project rule, sorted by id —
     *  except `stale-waiver`, which always comes last: it audits the
     *  waiver usage every other rule's suppression produces. */
    std::vector<std::pair<std::string, std::unique_ptr<ProjectRule>>>
    instantiateProject() const;

  private:
    struct Entry
    {
        Factory factory;               //!< set for per-file rules
        ProjectFactory projectFactory; //!< set for project rules
        std::string waiverToken;
        std::string help;
    };

    LintRuleRegistry() = default;

    void registerToken(const std::string &id,
                       const std::string &waiverToken);

    std::map<std::string, Entry> rules_;
    std::map<std::string, std::string> tokenToRule_;
};

/** Registers a lint rule at static-initialisation time. */
struct LintRuleRegistrar
{
    LintRuleRegistrar(const std::string &id,
                      LintRuleRegistry::Factory factory,
                      const std::string &waiverToken,
                      const std::string &help)
    {
        LintRuleRegistry::instance().registerRule(id, std::move(factory),
                                                  waiverToken, help);
    }
};

/** Registers a project-scoped lint rule at static-init time. */
struct ProjectRuleRegistrar
{
    ProjectRuleRegistrar(const std::string &id,
                         LintRuleRegistry::ProjectFactory factory,
                         const std::string &waiverToken,
                         const std::string &help)
    {
        LintRuleRegistry::instance().registerProjectRule(
            id, std::move(factory), waiverToken, help);
    }
};

/**
 * Registration shorthand; the lint pass itself checks (rule
 * register-hygiene) that every REGISTER_* use carries a nonempty name
 * literal first and a nonempty doc string last — including these.
 */
#define NMAPLINT_CONCAT_(a, b) a##b
#define NMAPLINT_CONCAT(a, b) NMAPLINT_CONCAT_(a, b)
#define REGISTER_LINT_RULE(id, factory, waiverToken, help)             \
    static const ::nmaplint::LintRuleRegistrar NMAPLINT_CONCAT(        \
        lintRuleRegistrar_, __COUNTER__)(id, factory, waiverToken, help)
#define REGISTER_PROJECT_RULE(id, factory, waiverToken, help)          \
    static const ::nmaplint::ProjectRuleRegistrar NMAPLINT_CONCAT(     \
        projectRuleRegistrar_, __COUNTER__)(id, factory, waiverToken,  \
                                            help)

/**
 * Force the rule TUs' registrar statics out of a static archive (same
 * linker dance as ensureBuiltinPolicies()). Idempotent.
 */
void ensureBuiltinRules();

/**
 * Lint one already-loaded file: run every applicable per-file rule,
 * apply same-line / preceding-comment-line / statement-first-line
 * waivers, and validate waiver comments themselves (`bad-waiver`).
 * Appends to @p out. When @p usedWaiverLines is non-null, the 1-based
 * line of every waiver comment that suppressed at least one finding
 * is appended to it (input to the stale-waiver project rule).
 */
void lintFile(const FileContext &file, std::vector<Finding> &out,
              std::vector<int> *usedWaiverLines = nullptr);

/** Scan controls for lintPaths(). */
struct LintOptions
{
    /** Worker threads for the per-file phase; findings are merged and
     *  sorted afterwards, so output is byte-identical for any value. */
    int jobs = 1;
    /** Run the project phase (include graph + ProjectRules) after the
     *  per-file phase. */
    bool project = false;
};

/**
 * Load and lint @p files (absolute or cwd-relative paths). @p root is
 * the repo root used to derive the repo-relative paths that rules
 * scope on and findings report. Returns findings sorted by
 * (file, line, rule). Unreadable files produce an `io-error` finding.
 */
std::vector<Finding> lintPaths(const std::vector<std::string> &files,
                               const std::string &root,
                               const LintOptions &options = {});

/** Exact waiver comment to paste for @p ruleIdOrToken; empty when the
 *  rule is unknown. */
std::string waiverComment(const std::string &ruleIdOrToken,
                          const std::string &reason);

/** @name Output emitters
 * All emitters consume sorted findings and produce byte-stable text:
 * field order is fixed and nothing depends on scan order or thread
 * count.
 */
/**@{*/

/** `file:line: rule: message` lines, one per finding. */
std::string renderText(const std::vector<Finding> &findings);

/** A stable JSON array of {file, line, rule, message} objects. */
std::string renderJson(const std::vector<Finding> &findings);

/** A SARIF 2.1.0 log: one run, driver "nmaplint", one result per
 *  finding; rule metadata is emitted for every rule that fired. */
std::string renderSarif(const std::vector<Finding> &findings);

/**@}*/

} // namespace nmaplint

#endif // NMAPSIM_TOOLS_NMAPLINT_LINT_HH_

/**
 * @file
 * nmaplint CLI.
 *
 *     nmaplint [--root DIR] [options] [PATH...]
 *     nmaplint --list-rules                rules, waiver tokens, help
 *     nmaplint --waive RULE REASON...     print the waiver comment
 *
 * Options:
 *     --format text|sarif       output format (default text)
 *     --changed                 lint only git-modified files (fast
 *                               pre-commit loop; per-file phase only)
 *     --project                 force the project phase for explicit
 *                               PATH arguments
 *
 * With no PATH arguments the default source set under --root (src/,
 * bench/, tools/, tests/, examples/) is scanned — both phases:
 * per-file rules, then the project rules over the include graph —
 * excluding build trees and tests/lint_fixtures (whose files violate
 * rules on purpose). Explicit PATHs and --changed lint just those
 * files with per-file rules, since project properties are only
 * meaningful over the whole tree; --project opts a path scan back in
 * (the fixture tests use this on miniature trees). Findings print as
 * `file:line: rule-id: message` sorted by (file, line, rule); exit
 * code 1 when any finding survives waivers, 2 on usage errors, 0
 * when clean.
 */

#include "lint.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

constexpr const char *kDefaultDirs[] = {
    "src", "bench", "tools", "tests", "examples",
};

constexpr const char *kExtensions[] = {
    ".cc", ".hh", ".cpp", ".hpp", ".h",
};

bool
lintableFile(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return std::find(std::begin(kExtensions), std::end(kExtensions),
                     ext) != std::end(kExtensions);
}

bool
excludedDir(const fs::path &p)
{
    const std::string name = p.filename().string();
    return name == ".git" || name == "lint_fixtures" ||
           name.compare(0, 5, "build") == 0;
}

void
collectDir(const fs::path &dir, std::vector<std::string> &out)
{
    if (!fs::exists(dir))
        return;
    for (fs::recursive_directory_iterator
             it(dir, fs::directory_options::skip_permission_denied),
         end;
         it != end; ++it) {
        if (it->is_directory() && excludedDir(it->path())) {
            it.disable_recursion_pending();
            continue;
        }
        if (it->is_regular_file() && lintableFile(it->path()))
            out.push_back(it->path().lexically_normal().string());
    }
}

/**
 * Lintable files touched per `git status --porcelain` under @p root:
 * staged, unstaged and untracked, renames resolved to their new
 * path. Deleted and non-lintable paths are dropped, as is anything
 * under the fixture/build exclusions.
 */
std::vector<std::string>
changedFiles(const std::string &root)
{
    std::vector<std::string> out;
    const std::string cmd =
        "git -C '" + root + "' status --porcelain 2>/dev/null";
    FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return out;
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = fread(buf, 1, sizeof buf, pipe)) > 0)
        text.append(buf, n);
    pclose(pipe);

    std::string::size_type start = 0;
    while (start < text.size()) {
        std::string::size_type nl = text.find('\n', start);
        if (nl == std::string::npos)
            nl = text.size();
        std::string line = text.substr(start, nl - start);
        start = nl + 1;
        // Porcelain v1: two status chars, a space, then the path;
        // renames read `R  old -> new`.
        if (line.size() < 4)
            continue;
        std::string path = line.substr(3);
        const std::string::size_type arrow = path.find(" -> ");
        if (arrow != std::string::npos)
            path = path.substr(arrow + 4);
        if (path.size() >= 2 && path.front() == '"' &&
            path.back() == '"')
            path = path.substr(1, path.size() - 2);
        const fs::path full = fs::path(root) / path;
        if (!lintableFile(full) || !fs::is_regular_file(full))
            continue;
        bool excluded = false;
        for (const fs::path &part : fs::path(path)) {
            if (excludedDir(part)) {
                excluded = true;
                break;
            }
        }
        if (!excluded)
            out.push_back(full.lexically_normal().string());
    }
    return out;
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--root DIR] [--format text|sarif]\n"
        "       %*s [--changed] [--project] [PATH...]\n"
        "       %s --list-rules\n"
        "       %s --waive RULE REASON...\n"
        "\n"
        "Lints nmapsim sources for determinism and model-integrity\n"
        "hazards: per-file rules first, then project rules (layering\n"
        "DAG, shared mutable state, config/doc sync, stale waivers)\n"
        "over the whole tree. With no PATH, scans src/ bench/ tools/\n"
        "tests/ examples/ under --root (default: cwd) with both\n"
        "phases; explicit PATHs and --changed run the per-file phase\n"
        "only unless --project is given. Exit code: 0 clean,\n"
        "1 findings, 2 usage error.\n",
        argv0, static_cast<int>(std::string(argv0).size()), "", argv0,
        argv0);
    return 2;
}

int
listRules()
{
    for (const auto &rule :
         nmaplint::LintRuleRegistry::instance().rules()) {
        std::printf("%-20s %s waive: // lint: %s(<reason>)\n    %s\n",
                    rule.id.c_str(),
                    rule.project ? "[project]" : "[file]   ",
                    rule.waiverToken.c_str(), rule.help.c_str());
    }
    return 0;
}

int
printWaiver(const std::string &rule, const std::string &reason)
{
    if (reason.empty()) {
        std::fprintf(stderr,
                     "nmaplint: --waive needs a reason: every waiver "
                     "must say why the rule does not apply\n");
        return 2;
    }
    const std::string comment =
        nmaplint::waiverComment(rule, reason);
    if (comment.empty()) {
        std::fprintf(stderr,
                     "nmaplint: unknown rule or waiver token '%s' "
                     "(see --list-rules)\n",
                     rule.c_str());
        return 2;
    }
    std::printf("%s\n", comment.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string root = fs::current_path().string();
    std::string format = "text";
    std::vector<std::string> paths;
    bool changed = false;
    bool forceProject = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--list-rules") {
            return listRules();
        } else if (arg == "--waive") {
            if (i + 1 >= argc)
                return usage(argv[0]);
            std::string reason;
            for (int j = i + 2; j < argc; ++j) {
                if (!reason.empty())
                    reason += ' ';
                reason += argv[j];
            }
            return printWaiver(argv[i + 1], reason);
        } else if (arg == "--root") {
            if (++i >= argc)
                return usage(argv[0]);
            root = argv[i];
        } else if (arg == "--format") {
            if (++i >= argc)
                return usage(argv[0]);
            format = argv[i];
            if (format != "text" && format != "sarif") {
                std::fprintf(stderr,
                             "nmaplint: unknown format '%s'\n",
                             format.c_str());
                return 2;
            }
        } else if (arg == "--changed") {
            changed = true;
        } else if (arg == "--project") {
            forceProject = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "nmaplint: unknown option '%s'\n",
                         arg.c_str());
            return usage(argv[0]);
        } else {
            paths.push_back(arg);
        }
    }

    root = fs::path(root).lexically_normal().string();

    std::vector<std::string> files;
    nmaplint::LintOptions options;
    if (changed) {
        files = changedFiles(root);
        options.project = forceProject;
    } else if (paths.empty()) {
        for (const char *dir : kDefaultDirs)
            collectDir(fs::path(root) / dir, files);
        // The whole tree is in view: project properties (include
        // graph, config/doc sync, waiver liveness) are meaningful,
        // so the full scan always runs both phases.
        options.project = true;
    } else {
        for (const std::string &p : paths) {
            if (fs::is_directory(p))
                collectDir(p, files);
            else
                files.push_back(p);
        }
        options.project = forceProject;
    }
    // Deterministic scan order regardless of directory enumeration.
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());

    const std::vector<nmaplint::Finding> findings =
        nmaplint::lintPaths(files, root, options);

    const std::string rendered = format == "sarif"
                                     ? nmaplint::renderSarif(findings)
                                     : nmaplint::renderText(findings);
    std::fwrite(rendered.data(), 1, rendered.size(), stdout);

    if (findings.empty()) {
        std::fprintf(stderr, "nmaplint: %zu files clean\n",
                     files.size());
        return 0;
    }
    std::fprintf(stderr, "nmaplint: %zu finding%s in %zu files\n",
                 findings.size(), findings.size() == 1 ? "" : "s",
                 files.size());
    return 1;
}

/**
 * @file
 * Project rule `layering`: the module DAG over src/ first-path
 * segments, machine-checked.
 *
 * The simulator is layered so that the deterministic core never
 * depends on the experiment plumbing above it: `sim` (events, time,
 * RNG, logging) sits at the bottom; `params` (the PolicyParams bag,
 * physically src/harness/policy_params.hh) just above; the device and
 * kernel models (`net`, `cpu`, `os`, `stats`) in the middle; policy
 * families (`governors`, `nmap`, `baselines`, `dataplane`, `fault`,
 * `workload`) above those; `cluster` (the switch fabric, which sees
 * only packets, wires and resilience state) beside them; and `harness`
 * (server rig, experiment harnesses, config I/O, sweeps) on top of
 * everything. An include that reaches *up* this DAG — or any include
 * cycle among src/ files — is a finding. DESIGN.md ("Module layering")
 * is the prose version of the table below; keep the two in sync.
 *
 * Exemption: a `.cc` file may include `harness/policy_registry.hh`
 * and `harness/experiment.hh` regardless of its module — that is the
 * registration-hub inversion the self-registering policy families are
 * built on (the *type* dependency still flows downward; only the
 * registrar call reaches up).
 */

#include "lint.hh"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace nmaplint {
namespace {

/** Modules each module may include (besides itself). Keep in sync
 *  with DESIGN.md "Module layering". */
const std::map<std::string, std::set<std::string>> &
allowedDeps()
{
    static const std::map<std::string, std::set<std::string>> kDeps = {
        {"sim", {}},
        {"params", {"sim"}},
        {"stats", {"sim"}},
        {"net", {"sim"}},
        {"cpu", {"sim", "stats"}},
        {"os", {"sim", "net", "cpu"}},
        {"workload",
         {"sim", "net", "os", "stats", "resilience", "params"}},
        {"governors", {"sim", "cpu", "os", "params"}},
        {"nmap", {"sim", "cpu", "os", "governors", "params"}},
        {"baselines",
         {"sim", "net", "cpu", "os", "workload", "governors",
          "params"}},
        {"fault", {"sim", "net", "params"}},
        {"resilience", {"sim", "net", "params"}},
        {"dataplane", {"sim", "net", "os", "stats", "params"}},
        {"cluster", {"sim", "net", "resilience", "params"}},
        {"harness",
         {"sim", "net", "cpu", "os", "stats", "workload", "governors",
          "nmap", "baselines", "fault", "dataplane", "cluster",
          "resilience", "params"}},
    };
    return kDeps;
}

/**
 * Module of a src-relative path or include text; "" when outside the
 * layered tree (no directory, or not a declared module). The
 * PolicyParams header is carved out of `harness` into the virtual
 * `params` module: it is the one harness file the policy families
 * below harness are allowed to see.
 */
std::string
moduleOf(std::string path)
{
    if (path.compare(0, 4, "src/") == 0)
        path = path.substr(4);
    if (path == "harness/policy_params.hh")
        return "params";
    const std::size_t slash = path.find('/');
    if (slash == std::string::npos)
        return std::string();
    return path.substr(0, slash);
}

/** The registration-hub carve-out (see file comment). */
bool
registrationHubInclude(const FileContext &file, const std::string &inc)
{
    return !file.isHeader() && (inc == "harness/policy_registry.hh" ||
                                inc == "harness/experiment.hh");
}

class LayeringRule : public ProjectRule
{
  public:
    void
    check(const ProjectContext &project, const std::string &id,
          ProjectSink &sink) const override
    {
        const auto &deps = allowedDeps();

        // Downward-edge check: every quoted include of a src/ file
        // must stay within its module or reach a lower layer.
        for (const FileContext *file : project.files()) {
            if (!file->under("src/"))
                continue;
            const std::string from = moduleOf(file->path());
            if (from.empty() || deps.find(from) == deps.end())
                continue;
            const std::set<std::string> &allowed = deps.at(from);
            for (const IncludeEdge &edge :
                 project.includesOf(*file)) {
                if (registrationHubInclude(*file, edge.text))
                    continue;
                const std::string to = moduleOf(edge.text);
                if (to.empty() || to == from ||
                    deps.find(to) == deps.end())
                    continue;
                if (allowed.count(to) > 0)
                    continue;
                sink.report(
                    file->path(), edge.line, id,
                    "module '" + from + "' may not include '" +
                        edge.text + "' (module '" + to +
                        "' is not below it in the layering DAG; see "
                        "DESIGN.md \"Module layering\")");
            }
        }

        reportCycles(project, id, sink);
    }

  private:
    /**
     * Include cycles among loaded src/ files (resolved edges only),
     * via iterative Tarjan SCC over the path-sorted file list — the
     * component set and the reported anchor are deterministic. One
     * finding per cycle, anchored at the sorted-first member's edge
     * into the component.
     */
    void
    reportCycles(const ProjectContext &project, const std::string &id,
                 ProjectSink &sink) const
    {
        std::vector<const FileContext *> nodes;
        for (const FileContext *file : project.files()) {
            if (file->under("src/"))
                nodes.push_back(file);
        }
        std::map<const FileContext *, int> index;
        for (std::size_t i = 0; i < nodes.size(); ++i)
            index[nodes[i]] = static_cast<int>(i);

        auto neighbors = [&](int u) {
            std::vector<int> out;
            for (const IncludeEdge &edge :
                 project.includesOf(*nodes[static_cast<size_t>(u)])) {
                if (edge.target == nullptr)
                    continue;
                auto it = index.find(edge.target);
                if (it != index.end())
                    out.push_back(it->second);
            }
            return out;
        };

        const int n = static_cast<int>(nodes.size());
        std::vector<int> low(static_cast<size_t>(n), -1);
        std::vector<int> disc(static_cast<size_t>(n), -1);
        std::vector<bool> onStack(static_cast<size_t>(n), false);
        std::vector<int> stack;
        std::vector<std::vector<int>> components;
        int timer = 0;

        // Iterative Tarjan: frame = (node, next-neighbor cursor).
        for (int start = 0; start < n; ++start) {
            if (disc[static_cast<size_t>(start)] != -1)
                continue;
            std::vector<std::pair<int, std::size_t>> frames{{start, 0}};
            while (!frames.empty()) {
                auto &[u, cursor] = frames.back();
                const auto su = static_cast<size_t>(u);
                if (cursor == 0) {
                    disc[su] = low[su] = timer++;
                    stack.push_back(u);
                    onStack[su] = true;
                }
                const std::vector<int> adj = neighbors(u);
                if (cursor < adj.size()) {
                    const int v = adj[cursor++];
                    const auto sv = static_cast<size_t>(v);
                    if (disc[sv] == -1) {
                        frames.emplace_back(v, 0);
                    } else if (onStack[sv]) {
                        low[su] = std::min(low[su], disc[sv]);
                    }
                    continue;
                }
                if (low[su] == disc[su]) {
                    std::vector<int> comp;
                    while (true) {
                        const int w = stack.back();
                        stack.pop_back();
                        onStack[static_cast<size_t>(w)] = false;
                        comp.push_back(w);
                        if (w == u)
                            break;
                    }
                    if (comp.size() > 1)
                        components.push_back(std::move(comp));
                }
                frames.pop_back();
                if (!frames.empty()) {
                    const auto pu =
                        static_cast<size_t>(frames.back().first);
                    low[pu] = std::min(low[pu], low[su]);
                }
            }
        }

        for (std::vector<int> &comp : components) {
            std::vector<std::string> paths;
            std::set<const FileContext *> members;
            for (int u : comp) {
                paths.push_back(nodes[static_cast<size_t>(u)]->path());
                members.insert(nodes[static_cast<size_t>(u)]);
            }
            std::sort(paths.begin(), paths.end());
            const FileContext *anchor = project.file(paths.front());
            int line = 1;
            for (const IncludeEdge &edge :
                 project.includesOf(*anchor)) {
                if (edge.target != nullptr &&
                    members.count(edge.target) > 0) {
                    line = edge.line;
                    break;
                }
            }
            std::string joined;
            for (const std::string &p : paths) {
                if (!joined.empty())
                    joined += ", ";
                joined += p;
            }
            sink.report(anchor->path(), line, id,
                        "include cycle among: " + joined);
        }
    }
};

std::unique_ptr<ProjectRule>
makeLayeringRule()
{
    return std::make_unique<LayeringRule>();
}

REGISTER_PROJECT_RULE(
    "layering", &makeLayeringRule, "layering-ok",
    "include edges between src/ modules must follow the layering DAG "
    "declared in DESIGN.md, and src/ include cycles are banned");

} // namespace

// Anchor for ensureBuiltinRules(): forces this TU's registrar out of
// the static archive.
void linkLayeringRule() {}

} // namespace nmaplint

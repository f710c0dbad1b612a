/**
 * @file
 * Project rule `stale-waiver`: a waiver that suppresses nothing is
 * itself a finding.
 *
 * Waivers are cheap on purpose — any rule can be silenced with one
 * reasoned comment — so the counterweight is that every waiver must
 * keep earning its place. The driver records which waiver comments
 * actually suppressed a finding (per-file phase first, then every
 * project rule; this rule is always ordered last so it observes the
 * complete consumption record). A well-formed waiver with a known
 * token that consumed nothing has outlived the violation it excused
 * and must be deleted, not left to mask a future regression.
 *
 * Malformed or unknown-token waivers are `bad-waiver` findings in the
 * per-file phase and are skipped here; `stale-ok` waivers are exempt
 * (auditing the auditor would never reach a fixpoint).
 */

#include "lint.hh"

#include <memory>
#include <string>

namespace nmaplint {
namespace {

class StaleWaiverRule : public ProjectRule
{
  public:
    void
    check(const ProjectContext &project, const std::string &id,
          ProjectSink &sink) const override
    {
        const LintRuleRegistry &registry =
            LintRuleRegistry::instance();
        for (const FileContext *file : project.files()) {
            for (const WaiverInfo &w : waiversIn(*file)) {
                if (!w.wellFormed || w.reason.empty())
                    continue; // bad-waiver's department
                if (w.token == "stale-ok")
                    continue;
                const std::string rule =
                    registry.ruleForToken(w.token);
                if (rule.empty())
                    continue; // bad-waiver's department
                if (project.waiverUsed(file->path(), w.line))
                    continue;
                sink.report(file->path(), w.line, id,
                            "waiver '" + w.token + "' (rule '" +
                                rule +
                                "') no longer suppresses anything; "
                                "delete it");
            }
        }
    }
};

std::unique_ptr<ProjectRule>
makeStaleWaiverRule()
{
    return std::make_unique<StaleWaiverRule>();
}

REGISTER_PROJECT_RULE(
    "stale-waiver", &makeStaleWaiverRule, "stale-ok",
    "a reasoned waiver whose rule no longer fires on that line must "
    "be deleted so it cannot mask a future regression");

} // namespace

} // namespace nmaplint

#include "governors/cpuidle_policies.hh"

#include "sim/logging.hh"

namespace nmapsim {

MenuIdleGovernor::MenuIdleGovernor(const CpuProfile &profile,
                                   int num_cores)
    : profile_(profile),
      history_(static_cast<std::size_t>(num_cores))
{
    if (num_cores < 1)
        fatal("MenuIdleGovernor requires at least one core");
}

void
MenuIdleGovernor::recordIdle(int core, Tick duration)
{
    History &h = history_[static_cast<std::size_t>(core)];
    h.recent[h.next] = duration;
    h.next = (h.next + 1) % kWindow;
    h.filled = std::min(h.filled + 1, kWindow);
}

Tick
MenuIdleGovernor::predictedIdle(int core) const
{
    const History &h = history_[static_cast<std::size_t>(core)];
    if (h.filled == 0) {
        // No history yet: optimistically assume a long idle, like menu
        // does when the next timer is far away.
        return profile_.cstates.c6TargetResidency * 2;
    }
    // Median of the window: robust to the occasional outlier, which is
    // the property menu's typical-interval detection is after.
    std::array<Tick, kWindow> sorted{};
    std::copy_n(h.recent.begin(), h.filled, sorted.begin());
    // Simple insertion sort over the filled prefix (kWindow is tiny and
    // this avoids libstdc++ false-positive bounds warnings).
    for (std::size_t i = 1; i < h.filled; ++i) {
        Tick v = sorted[i];
        std::size_t j = i;
        while (j > 0 && sorted[j - 1] > v) {
            sorted[j] = sorted[j - 1];
            --j;
        }
        sorted[j] = v;
    }
    return sorted[h.filled / 2];
}

CState
MenuIdleGovernor::selectState(int core, Tick now)
{
    (void)now;
    Tick predicted = predictedIdle(core);
    if (predicted >= profile_.cstates.c6TargetResidency)
        return CState::kC6;
    if (predicted >= profile_.cstates.c1TargetResidency)
        return CState::kC1;
    return CState::kC1; // menu never busy-spins; C1 is nearly free
}

TeoIdleGovernor::TeoIdleGovernor(const CpuProfile &profile,
                                 int num_cores)
    : profile_(profile),
      history_(static_cast<std::size_t>(num_cores))
{
    if (num_cores < 1)
        fatal("TeoIdleGovernor requires at least one core");
}

void
TeoIdleGovernor::recordIdle(int core, Tick duration)
{
    History &h = history_[static_cast<std::size_t>(core)];
    h.fitC6[h.next] =
        duration >= profile_.cstates.c6TargetResidency;
    h.next = (h.next + 1) % kWindow;
    h.filled = std::min(h.filled + 1, kWindow);
}

double
TeoIdleGovernor::c6HitRate(int core) const
{
    const History &h = history_[static_cast<std::size_t>(core)];
    if (h.filled == 0)
        return 1.0; // optimistic, like an empty menu history
    std::size_t hits = 0;
    for (std::size_t i = 0; i < h.filled; ++i)
        hits += h.fitC6[i] ? 1 : 0;
    return static_cast<double>(hits) / static_cast<double>(h.filled);
}

CState
TeoIdleGovernor::selectState(int core, Tick now)
{
    (void)now;
    return c6HitRate(core) >= 0.5 ? CState::kC6 : CState::kC1;
}

} // namespace nmapsim

// --- Policy-registry entries -------------------------------------------

#include "harness/policy_registry.hh"

namespace nmapsim {

namespace {

REGISTER_IDLE_POLICY(
    "menu",
    [](const IdleContext &ctx) -> std::unique_ptr<CpuIdleGovernor> {
        return std::make_unique<MenuIdleGovernor>(ctx.profile,
                                                  ctx.numCores);
    },
    "Linux menu governor: history-based idle prediction");
REGISTER_IDLE_POLICY(
    "disable",
    [](const IdleContext &) -> std::unique_ptr<CpuIdleGovernor> {
        return std::make_unique<DisableIdleGovernor>();
    },
    "never sleep: idle cores spin in C0");
REGISTER_IDLE_POLICY(
    "c6only",
    [](const IdleContext &) -> std::unique_ptr<CpuIdleGovernor> {
        return std::make_unique<C6OnlyIdleGovernor>();
    },
    "always take the deepest sleep state (CC6)");
REGISTER_IDLE_POLICY(
    "teo",
    [](const IdleContext &ctx) -> std::unique_ptr<CpuIdleGovernor> {
        return std::make_unique<TeoIdleGovernor>(ctx.profile,
                                                 ctx.numCores);
    },
    "timer-events-oriented governor: C6 only when hits dominate");

} // namespace
} // namespace nmapsim

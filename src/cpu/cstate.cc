#include "cpu/cstate.hh"

#include "sim/logging.hh"

namespace nmapsim {

CStateController::CStateController(const CpuProfile &profile, Rng rng,
                                   double cache_touch)
    : profile_(profile), rng_(rng), cacheTouch_(cache_touch)
{
    if (cache_touch < 0.0 || cache_touch > 1.0)
        fatal("cache_touch fraction must be within [0, 1]");
}

void
CStateController::accumulate(Tick now)
{
    residency_[static_cast<int>(state_)] += now - lastChange_;
    lastChange_ = now;
}

void
CStateController::enterSleep(CState s, Tick now)
{
    if (state_ != CState::kC0)
        panic("enterSleep: core is already sleeping");
    if (s == CState::kC0)
        return; // governors may legitimately pick "stay awake"
    accumulate(now);
    state_ = s;
    if (s == CState::kC6)
        cc6Entries_.mark(now);
}

void
CStateController::deepen(CState s, Tick now)
{
    if (state_ == CState::kC0 ||
        static_cast<int>(s) <= static_cast<int>(state_))
        return;
    accumulate(now);
    state_ = s;
    if (s == CState::kC6)
        cc6Entries_.mark(now);
}

Tick
CStateController::wake(Tick now)
{
    if (state_ == CState::kC0)
        return 0;
    accumulate(now);
    CState from = state_;
    state_ = CState::kC0;
    ++wakes_[static_cast<int>(from)];

    const TransitionAnchor &a = from == CState::kC6
                                    ? profile_.cstates.c6Exit
                                    : profile_.cstates.c1Exit;
    double us = rng_.truncatedNormal(a.meanUs, a.stdevUs, 0.05);
    Tick penalty = static_cast<Tick>(us * kMicrosecond);
    if (from == CState::kC6) {
        penalty += static_cast<Tick>(
            cacheTouch_ *
            static_cast<double>(profile_.cstates.c6CacheRefillWorst));
    }
    return penalty;
}

Tick
CStateController::residency(CState s, Tick now) const
{
    Tick r = residency_[static_cast<int>(s)];
    if (s == state_)
        r += now - lastChange_;
    return r;
}

std::uint64_t
CStateController::wakeCount(CState s) const
{
    return wakes_[static_cast<int>(s)];
}

} // namespace nmapsim

/**
 * @file
 * Differential test pinning the calendar EventQueue to the reference
 * binary-heap implementation it replaced.
 *
 * ReferenceEventQueue below is the old production queue (token-based
 * lazy deschedule over a std::priority_queue) with the same (tick,
 * insertion sequence) ordering contract. Both queues are driven through
 * identical seeded operation scripts — schedules, deschedules,
 * reschedules, steps, bounded runs, and events that schedule other
 * events from inside process() — and must produce bit-identical firing
 * order, now() progression and pending counts. Any divergence in the
 * trace log is a contract break in the calendar queue, because the
 * heap's semantics are definitionally correct.
 *
 * The scripts deliberately stress the calendar queue's corner cases:
 * same-tick FIFO ties, stale entries from deschedule/reschedule
 * (including reschedule to the same tick), schedules into the active
 * bucket being consumed, bucket- and
 * window-boundary ticks, far-future events that wait in the far ring
 * and cascade into the wheel, events beyond the ring that ride the
 * overflow heap across epoch re-basing, a client-timeout-style re-arm
 * storm, and runUntil() ends that land between events. Two
 * deterministic cases pin the far ring's traps: a far window whose
 * entries are all stale, and a runUntil() that stops inside a far
 * window before its first entry.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace nmapsim {
namespace {

/**
 * The pre-calendar EventQueue: a min-heap of (when, seq) entries with
 * token-invalidation descheduling. Kept here, not in
 * src/, because its only remaining job is to define correct ordering
 * for this test. It manages its own event records (the production
 * Event bookkeeping fields are private to the production queue).
 */
class ReferenceEventQueue
{
  public:
    using Callback = std::function<void(int)>;

    ReferenceEventQueue(int num_events, Callback on_fire)
        : events_(static_cast<std::size_t>(num_events)),
          onFire_(std::move(on_fire))
    {
    }

    Tick now() const { return now_; }
    std::size_t numPending() const { return numPending_; }
    std::uint64_t numProcessed() const { return numProcessed_; }
    bool scheduled(int id) const { return events_[id].scheduled; }

    void
    schedule(int id, Tick when)
    {
        Rec &ev = events_[id];
        ASSERT_FALSE(ev.scheduled);
        ASSERT_GE(when, now_);
        ev.when = when;
        ev.token = nextToken_++;
        ev.scheduled = true;
        heap_.push(Entry{when, nextSeq_++, ev.token, id});
        ++numPending_;
    }

    void
    deschedule(int id)
    {
        Rec &ev = events_[id];
        if (!ev.scheduled)
            return;
        // Lazy removal: invalidate the token; the heap entry is
        // dropped when popped.
        ev.scheduled = false;
        ev.token = 0;
        --numPending_;
    }

    void
    reschedule(int id, Tick when)
    {
        deschedule(id);
        schedule(id, when);
    }

    bool
    step()
    {
        while (!heap_.empty()) {
            Entry e = heap_.top();
            heap_.pop();
            Rec &ev = events_[e.id];
            if (!ev.scheduled || ev.token != e.token)
                continue; // stale entry from a deschedule/reschedule
            now_ = e.when;
            ev.scheduled = false;
            ev.token = 0;
            --numPending_;
            ++numProcessed_;
            onFire_(e.id);
            return true;
        }
        return false;
    }

    void
    runUntil(Tick end)
    {
        while (!heap_.empty()) {
            const Entry &top = heap_.top();
            const Rec &ev = events_[top.id];
            if (!ev.scheduled || ev.token != top.token) {
                heap_.pop();
                continue;
            }
            if (top.when > end)
                break;
            step();
        }
        if (now_ < end)
            now_ = end;
    }

  private:
    struct Rec
    {
        Tick when = 0;
        std::uint64_t token = 0;
        bool scheduled = false;
    };

    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        std::uint64_t token;
        int id;

        bool
        operator>(const Entry &o) const
        {
            if (when != o.when)
                return when > o.when;
            return seq > o.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>
        heap_;
    std::vector<Rec> events_;
    Callback onFire_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t nextToken_ = 1;
    std::size_t numPending_ = 0;
    std::uint64_t numProcessed_ = 0;
};

/** Adapter giving the production EventQueue the same id-based API. */
class CalendarRig
{
  public:
    using Callback = std::function<void(int)>;

    CalendarRig(int num_events, Callback on_fire)
        : onFire_(std::move(on_fire))
    {
        events_.reserve(static_cast<std::size_t>(num_events));
        for (int i = 0; i < num_events; ++i)
            events_.push_back(std::make_unique<DiffEvent>(*this, i));
    }

    ~CalendarRig()
    {
        for (auto &ev : events_)
            eq_.deschedule(ev.get());
    }

    Tick now() const { return eq_.now(); }
    std::size_t numPending() const { return eq_.numPending(); }
    std::uint64_t numProcessed() const { return eq_.numProcessed(); }
    bool scheduled(int id) const { return events_[id]->scheduled(); }

    void schedule(int id, Tick when) { eq_.schedule(events_[id].get(), when); }
    void deschedule(int id) { eq_.deschedule(events_[id].get()); }
    void reschedule(int id, Tick when)
    {
        eq_.reschedule(events_[id].get(), when);
    }
    bool step() { return eq_.step(); }
    void runUntil(Tick end) { eq_.runUntil(end); }

  private:
    class DiffEvent : public Event
    {
      public:
        DiffEvent(CalendarRig &rig, int id) : rig_(rig), id_(id) {}

        void process() override { rig_.onFire_(id_); }
        std::string name() const override { return "diff"; }

      private:
        CalendarRig &rig_;
        int id_;
    };

    EventQueue eq_;
    std::vector<std::unique_ptr<DiffEvent>> events_;
    Callback onFire_;
};

/**
 * Delay distribution shaped around the calendar geometry: same-tick,
 * same-bucket (< 512 ticks), in-window (< 2^17 ticks, ~131 us), the
 * far ring (2^17 to 2^25 ticks, ~33.5 ms), and beyond it, far enough
 * to land in the overflow heap and force epoch re-basing.
 */
Tick
drawDelay(Rng &rng)
{
    switch (rng.uniformInt(0, 11)) {
      case 0:
        return 0; // same tick: pure FIFO tie-break
      case 1:
      case 2:
        return rng.uniformInt(1, (1 << 9) - 1); // inside one bucket
      case 3:
      case 4:
      case 5:
      case 6:
        return rng.uniformInt(1, (1 << 17) - 1); // inside the window
      case 7:
        // Bucket-boundary ticks, where the slot index rolls over.
        return static_cast<Tick>(rng.uniformInt(1, 255)) << 9;
      case 8:
        return rng.uniformInt(1 << 17, 1 << 25); // the far ring
      case 9:
        // Window-boundary ticks, where the far slot index rolls over.
        return static_cast<Tick>(rng.uniformInt(1, 255)) << 17;
      case 10:
        return rng.uniformInt(1 << 25, 1 << 28); // overflow heap
      default:
        return rng.uniformInt(1 << 17, 1 << 28); // either side of it
    }
}

/**
 * Drive @p rig through the operation script derived from @p seed,
 * recording every fire and every post-op observable into a trace.
 * Runs on both queue implementations; the traces must match exactly.
 */
template <typename Rig>
std::string
runScript(std::uint64_t seed, int num_events, int num_ops)
{
    std::string log;
    Rng rng(seed);

    Rig *rig_ptr = nullptr;
    Tick last_when = 0; // reuse to force exact same-tick collisions
    auto on_fire = [&](int id) {
        log += "F" + std::to_string(id) + "@" +
               std::to_string(rig_ptr->now()) + "\n";
        // Events scheduling events from inside process() is the
        // simulator's normal mode; reschedule-from-handler creates
        // entries into the bucket currently being consumed.
        if (rng.uniformInt(0, 9) < 3) {
            const int j =
                static_cast<int>(rng.uniformInt(0, num_events - 1));
            const Tick when = rig_ptr->now() + drawDelay(rng);
            if (!rig_ptr->scheduled(j)) {
                rig_ptr->schedule(j, when);
                last_when = when;
            }
        }
    };

    Rig rig(num_events, on_fire);
    rig_ptr = &rig;

    for (int op = 0; op < num_ops; ++op) {
        const int id =
            static_cast<int>(rng.uniformInt(0, num_events - 1));
        switch (rng.uniformInt(0, 19)) {
          case 0:
          case 1:
          case 2:
          case 3:
          case 4: // schedule at a drawn delay
            if (!rig.scheduled(id)) {
                last_when = rig.now() + drawDelay(rng);
                rig.schedule(id, last_when);
            }
            break;
          case 5: // schedule at the exact tick of a previous schedule
            if (!rig.scheduled(id) && last_when >= rig.now())
                rig.schedule(id, last_when);
            break;
          case 6:
          case 7: // deschedule (often a no-op; that is part of the API)
            rig.deschedule(id);
            break;
          case 8:
          case 9: // reschedule regardless of current state
            last_when = rig.now() + drawDelay(rng);
            if (rig.scheduled(id))
                rig.reschedule(id, last_when);
            else
                rig.schedule(id, last_when);
            break;
          case 10: // reschedule to the same tick (fresh seq, same when)
            if (rig.scheduled(id))
                rig.reschedule(id, last_when >= rig.now()
                                       ? last_when
                                       : rig.now());
            break;
          case 11:
          case 12: // bounded run ending between events
            rig.runUntil(rig.now() + drawDelay(rng));
            break;
          default: // step
            rig.step();
            break;
        }
        log += "op" + std::to_string(op) + " now=" +
               std::to_string(rig.now()) + " pend=" +
               std::to_string(rig.numPending()) + "\n";
    }

    // Drain: every remaining event fires in contract order.
    while (rig.step()) {
        log += "drain now=" + std::to_string(rig.now()) + "\n";
    }
    log += "end now=" + std::to_string(rig.now()) + " proc=" +
           std::to_string(rig.numProcessed()) + "\n";
    return log;
}

/** First line where the two traces diverge, for readable failures. */
std::string
firstDivergence(const std::string &a, const std::string &b)
{
    std::size_t line = 1;
    std::size_t i = 0;
    const std::size_t n = std::min(a.size(), b.size());
    for (; i < n && a[i] == b[i]; ++i)
        if (a[i] == '\n')
            ++line;
    return "traces diverge at line " + std::to_string(line);
}

TEST(EventQueueDiffTest, RandomScriptsMatchReferenceHeap)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const std::string ref =
            runScript<ReferenceEventQueue>(seed, 48, 4000);
        const std::string cal = runScript<CalendarRig>(seed, 48, 4000);
        ASSERT_EQ(ref, cal) << firstDivergence(ref, cal)
                            << " (seed " << seed << ")";
        // The script must actually have exercised the queue.
        ASSERT_NE(ref.find("F"), std::string::npos);
    }
}

TEST(EventQueueDiffTest, DenseSameTickCollisions)
{
    // Few events, tiny delays: almost every tick hosts a collision, so
    // the seq tie-break carries the whole ordering.
    for (std::uint64_t seed = 100; seed < 104; ++seed) {
        const std::string ref =
            runScript<ReferenceEventQueue>(seed, 6, 3000);
        const std::string cal = runScript<CalendarRig>(seed, 6, 3000);
        ASSERT_EQ(ref, cal) << firstDivergence(ref, cal)
                            << " (seed " << seed << ")";
    }
}

TEST(EventQueueDiffTest, ManyEventsFewOps)
{
    // Wide pending set: most events sit in the wheel or overflow for a
    // long time before firing, crossing many epoch re-basings.
    for (std::uint64_t seed = 200; seed < 203; ++seed) {
        const std::string ref =
            runScript<ReferenceEventQueue>(seed, 300, 2500);
        const std::string cal = runScript<CalendarRig>(seed, 300, 2500);
        ASSERT_EQ(ref, cal) << firstDivergence(ref, cal)
                            << " (seed " << seed << ")";
    }
}

/**
 * Deterministic pin of the tie-break contract, independent of the
 * random scripts: same tick, interleaved stale entries — the firing
 * order is insertion order, with descheduled/rescheduled entries taking
 * their *new* sequence position.
 */
TEST(EventQueueDiffTest, SameTickFifoAndStaleTokenOrder)
{
    std::vector<int> fired;
    CalendarRig rig(5, [&](int id) { fired.push_back(id); });

    const Tick t = 1000;
    rig.schedule(0, t);
    rig.schedule(1, t);
    rig.schedule(2, t);
    rig.schedule(3, t);
    rig.schedule(4, t);

    // Stale churn: id 1 is rescheduled to the same tick (moves behind
    // ids 2, 3 and 4 in insertion order); id 4 is descheduled entirely.
    rig.reschedule(1, t);
    rig.deschedule(4);
    EXPECT_EQ(rig.numPending(), 4u);

    rig.runUntil(t);
    EXPECT_EQ(rig.now(), t);
    // Insertion order, the rescheduled 1 last; 4 never fires.
    EXPECT_EQ(fired, (std::vector<int>{0, 2, 3, 1}));
}

/**
 * The client.timeout pattern: event 0 is re-armed at now + 2 ms on most
 * operations, and sometimes to the tick it already holds, while the
 * other events schedule, fire and run. Each re-arm leaves a stale entry
 * in a far slot ~15 windows ahead; when event 0 does fire, its handler
 * re-arms it, as the client does after processing its deadlines.
 */
template <typename Rig>
std::string
runRearmStorm(std::uint64_t seed, int num_events, int num_ops)
{
    constexpr Tick kTimeout = 2'000'000;
    std::string log;
    Rng rng(seed);

    Rig *rig_ptr = nullptr;
    Tick armed = kTimeout; // event 0's tick while it is scheduled
    bool storming = true;
    auto on_fire = [&](int id) {
        log += "F" + std::to_string(id) + "@" +
               std::to_string(rig_ptr->now()) + "\n";
        if (id == 0) {
            if (storming) {
                armed = rig_ptr->now() + kTimeout;
                rig_ptr->schedule(0, armed);
            }
            return;
        }
        if (rng.uniformInt(0, 9) < 4) {
            const int j =
                static_cast<int>(rng.uniformInt(1, num_events - 1));
            if (!rig_ptr->scheduled(j))
                rig_ptr->schedule(j, rig_ptr->now() + drawDelay(rng));
        }
    };

    Rig rig(num_events, on_fire);
    rig_ptr = &rig;
    rig.schedule(0, armed);

    for (int op = 0; op < num_ops; ++op) {
        const std::int64_t rearm = rng.uniformInt(0, 19);
        if (rearm < 14) {
            armed = rig.now() + kTimeout;
            rig.reschedule(0, armed);
        } else if (rearm < 16 && rig.scheduled(0)) {
            rig.reschedule(0, armed); // same tick, fresh sequence
        }
        const int id =
            static_cast<int>(rng.uniformInt(1, num_events - 1));
        switch (rng.uniformInt(0, 9)) {
          case 0:
          case 1:
            if (!rig.scheduled(id))
                rig.schedule(id, rig.now() + drawDelay(rng));
            break;
          case 2:
            rig.deschedule(id);
            break;
          case 3:
            rig.runUntil(rig.now() + drawDelay(rng));
            break;
          default:
            rig.step();
            break;
        }
        log += "op" + std::to_string(op) + " now=" +
               std::to_string(rig.now()) + " pend=" +
               std::to_string(rig.numPending()) + "\n";
    }

    storming = false;
    while (rig.step()) {
        log += "drain now=" + std::to_string(rig.now()) + "\n";
    }
    log += "end now=" + std::to_string(rig.now()) + " proc=" +
           std::to_string(rig.numProcessed()) + "\n";
    return log;
}

TEST(EventQueueDiffTest, TimeoutRearmStormMatchesReferenceHeap)
{
    for (std::uint64_t seed = 300; seed < 304; ++seed) {
        const std::string ref =
            runRearmStorm<ReferenceEventQueue>(seed, 24, 6000);
        const std::string cal = runRearmStorm<CalendarRig>(seed, 24, 6000);
        ASSERT_EQ(ref, cal) << firstDivergence(ref, cal)
                            << " (seed " << seed << ")";
    }
}

/** Log every fire and the observables after each call of @p script. */
template <typename Rig, typename Script>
std::string
runTrap(int num_events, Script script)
{
    std::string log;
    Rig *rig_ptr = nullptr;
    Rig rig(num_events, [&](int id) {
        log += "F" + std::to_string(id) + "@" +
               std::to_string(rig_ptr->now()) + "\n";
    });
    rig_ptr = &rig;
    script(rig, log);
    while (rig.step()) {
    }
    log += "end now=" + std::to_string(rig.now()) + " proc=" +
           std::to_string(rig.numProcessed()) + "\n";
    return log;
}

/** One window of the wheel, in ticks: a far slot's span. */
constexpr Tick kWindow = Tick{1} << 17;

/**
 * Trap (a): a far window whose entries were all descheduled holds
 * nothing to fire, so draining past it must not move the window.
 * Otherwise step() returns false with the window ahead of now(), and
 * the next schedule(now() + 1) lands behind it.
 */
TEST(EventQueueDiffTest, AllStaleFarWindowLeavesTheWindowAtNow)
{
    auto script = [](auto &rig, std::string &log) {
        rig.runUntil(1000);
        rig.schedule(0, 3 * kWindow + 70);
        rig.schedule(1, 3 * kWindow + 900);
        rig.schedule(2, 5 * kWindow);
        rig.deschedule(0);
        rig.deschedule(1);
        rig.deschedule(2);
        log += rig.step() ? "stepped\n" : "drained\n";
        log += "now=" + std::to_string(rig.now()) + "\n";
        rig.schedule(0, rig.now() + 1);
        rig.schedule(1, rig.now() + 2 * kWindow);
        log += rig.step() ? "stepped\n" : "drained\n";
    };
    const std::string ref = runTrap<ReferenceEventQueue>(3, script);
    const std::string cal = runTrap<CalendarRig>(3, script);
    ASSERT_EQ(ref, cal) << firstDivergence(ref, cal);
    EXPECT_NE(ref.find("drained\nnow=1000\nF0@1001\nstepped"),
              std::string::npos)
        << ref;
}

/**
 * Trap (b): runUntil() may enter a far window only once end reaches the
 * window's start, so that now() = end keeps the window at or behind
 * now(). Both an end inside the window (before its first entry) and an
 * end short of the window must leave schedule(now() + 1) valid.
 */
TEST(EventQueueDiffTest, RunUntilStoppingShortOfAFarEntryKeepsNowValid)
{
    for (const Tick end : {4 * kWindow + 100, 4 * kWindow - 100}) {
        auto script = [end](auto &rig, std::string &log) {
            rig.schedule(0, 4 * kWindow + 5000);
            rig.runUntil(end);
            log += "now=" + std::to_string(rig.now()) + "\n";
            rig.schedule(1, rig.now() + 1);
            rig.runUntil(rig.now() + 2);
            log += "now=" + std::to_string(rig.now()) + "\n";
        };
        const std::string ref = runTrap<ReferenceEventQueue>(2, script);
        const std::string cal = runTrap<CalendarRig>(2, script);
        ASSERT_EQ(ref, cal) << firstDivergence(ref, cal);
        EXPECT_NE(ref.find("F1@" + std::to_string(end + 1)),
                  std::string::npos)
            << ref;
    }
}

/** runUntil to a tick with no events still advances now() on both. */
TEST(EventQueueDiffTest, RunUntilAdvancesTimeWithEmptyWindow)
{
    std::vector<int> fired;
    CalendarRig rig(1, [&](int id) { fired.push_back(id); });
    rig.runUntil(5'000'000);
    EXPECT_EQ(rig.now(), 5'000'000);
    // Scheduling after the jump still works (window re-based).
    rig.schedule(0, 5'000'001);
    rig.runUntil(6'000'000);
    EXPECT_EQ(fired, std::vector<int>{0});
    EXPECT_EQ(rig.now(), 6'000'000);
}

} // namespace
} // namespace nmapsim

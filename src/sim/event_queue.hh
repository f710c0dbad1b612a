/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The EventQueue orders Event objects by (tick, insertion sequence) and
 * processes them one at a time: events due at the same tick fire in the
 * order they were scheduled. Components own their events (usually as
 * data members) and schedule/deschedule them on the queue; descheduling
 * is O(1) via lazy invalidation tokens, which keeps the hot
 * reschedule-heavy paths (CPU slice preemption, interrupt moderation)
 * cheap.
 *
 * Internally the queue is a three-level calendar queue, not a binary
 * heap:
 *  - the wheel: 2^8 buckets of 2^9 ticks each, one ~131 us window of
 *    512 ns buckets, sorted a bucket at a time as it is consumed;
 *  - the far ring: one unsorted slot per later window, 2^8 slots
 *    (~33.5 ms), cascaded into the wheel when the wheel runs dry;
 *  - an overflow min-heap for anything beyond the ring.
 * Near-term scheduling, the simulator's overwhelmingly common case, is
 * O(1) bucket insertion plus a small per-bucket sort at consumption
 * time. The common far-future event is a client's per-request timeout,
 * re-armed on every send and response; it is one node linked into a far
 * slot instead of an O(log n) heap sift. The ordering contract is
 * identical to the old heap and is pinned by
 * tests/event_queue_diff_test.cc, which drives this queue and a
 * reference heap implementation through randomized schedules and
 * demands bit-identical firing order (see DESIGN.md).
 */

#ifndef NMAPSIM_SIM_EVENT_QUEUE_HH_
#define NMAPSIM_SIM_EVENT_QUEUE_HH_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/time.hh"

namespace nmapsim {

class EventQueue;

/**
 * Base class for all simulation events.
 *
 * An event may be scheduled on at most one queue at a time. Lifetime is
 * managed by the owning component; the queue never deletes events.
 */
class Event
{
  public:
    Event() = default;
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked by the queue when the event fires. */
    virtual void process() = 0;

    /** Human-readable identifier for tracing. */
    virtual std::string name() const { return "event"; }

    /** True if currently pending on a queue. */
    bool scheduled() const { return scheduled_; }

    /** Tick at which the event will fire; only valid when scheduled. */
    Tick when() const { return when_; }

  private:
    friend class EventQueue;

    Tick when_ = 0;
    /** Sequence number of the live calendar entry; doubles as the
     *  stale-detection token (each schedule() gets a fresh one). */
    std::uint64_t seq_ = 0;
    bool scheduled_ = false;
};

/**
 * Event whose action is a std::function, for components that do not want
 * a named Event subclass per callback.
 */
class EventFunctionWrapper : public Event
{
  public:
    EventFunctionWrapper(std::function<void()> callback, std::string name);

    void process() override { callback_(); }
    std::string name() const override { return name_; }

  private:
    std::function<void()> callback_;
    std::string name_;
};

/**
 * Event bound to a member function at compile time. Fires through one
 * virtual dispatch straight into (usually inlined) @p Method — no
 * std::function indirection or closure storage. Use for events that
 * fire millions of times per run (wire delivery, scheduler slices);
 * EventFunctionWrapper remains the right tool everywhere else.
 */
template <typename T, void (T::*Method)()>
class MemberEvent : public Event
{
  public:
    MemberEvent(T *obj, const char *name) : obj_(obj), name_(name) {}

    void process() override { (obj_->*Method)(); }
    std::string name() const override { return name_; }

  private:
    T *obj_;
    const char *name_;
};

/** MemberEvent variant carrying one int argument (e.g. a queue index). */
template <typename T, void (T::*Method)(int)>
class IndexedMemberEvent : public Event
{
  public:
    IndexedMemberEvent(T *obj, int arg, const char *name)
        : obj_(obj), arg_(arg), name_(name)
    {
    }

    void process() override { (obj_->*Method)(arg_); }
    std::string name() const override { return name_; }

  private:
    T *obj_;
    int arg_;
    const char *name_;
};

/**
 * The global event queue for one simulation.
 *
 * All simulated components in one experiment share a single queue; time
 * advances only by processing events.
 */
class EventQueue
{
  public:
    EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p ev to fire at absolute tick @p when (>= now).
     * The event must not already be scheduled.
     */
    void schedule(Event *ev, Tick when);

    /** Schedule @p ev to fire @p delay ticks from now. */
    void scheduleIn(Event *ev, Tick delay) { schedule(ev, now_ + delay); }

    /**
     * Remove a pending event lazily: it stops counting as pending and
     * its calendar entry is dropped when reached. A no-op when @p ev
     * is not scheduled.
     */
    void deschedule(Event *ev);

    /** Deschedule (if needed) then schedule at @p when. */
    void reschedule(Event *ev, Tick when);

    /** True when no events are pending. */
    bool empty() const { return numPending_ == 0; }

    /** Number of events currently pending. */
    std::size_t numPending() const { return numPending_; }

    /** Process a single event; returns false if the queue was empty. */
    bool step();

    /**
     * Run until the queue is empty or simulated time would exceed
     * @p end. Events exactly at @p end are processed; afterwards now()
     * is max(now, end).
     */
    void runUntil(Tick end);

    /** Run until the queue is empty. */
    void runAll();

    /** Total number of events processed since construction. */
    std::uint64_t numProcessed() const { return numProcessed_; }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Event *event;

        bool
        operator<(const Entry &o) const
        {
            if (when != o.when)
                return when < o.when;
            return seq < o.seq;
        }

        bool operator>(const Entry &o) const { return o < *this; }
    };

    /** Where the next fresh (non-stale) entry lives. */
    enum class Next
    {
        kNone,     //!< queue drained (pending entries were all stale)
        kActive,   //!< active_[activePos_] is fresh
        kFar,      //!< wheel empty; far slot farNext_ holds a fresh entry
        kOverflow, //!< wheel and ring empty; overflow_.front() is fresh
    };

    /** log2 of the bucket width: 2^9 ticks = 512 ns per bucket. */
    static constexpr int kBucketShift = 9;
    /** log2 of the buckets per wheel window. */
    static constexpr int kWindowBits = 8;
    /**
     * Buckets per wheel window: 2^8 (window spans ~131 us). Sized so
     * the slot headers and occupancy bitmaps stay cache-resident: the
     * simulation's hot events (slices, ITR, DMA, wire times) all land
     * within tens of microseconds, while client timeouts, jiffies and
     * health checks take the far ring instead.
     */
    static constexpr int kBucketCount = 1 << kWindowBits;
    static constexpr int kSlotMask = kBucketCount - 1;
    /** log2 of the window width: 2^17 ticks, ~131 us. */
    static constexpr int kWindowShift = kBucketShift + kWindowBits;
    /** Far slots, one per window: the ring spans ~33.5 ms. */
    static constexpr int kFarCount = 1 << 8;
    static constexpr int kFarMask = kFarCount - 1;

    /** A far-ring entry, chained into its slot's list or the free list. */
    struct FarNode
    {
        Entry entry;
        std::uint32_t next; //!< next node in the same list
    };
    static constexpr std::uint32_t kNoNode = ~std::uint32_t{0};

    /** Occupancy bits of 256 slots: wheel buckets or far windows. */
    class Occupancy
    {
      public:
        static constexpr int kSlots = 256;

        void set(int slot);
        void clear(int slot);
        /** First occupied slot >= @p from, or kSlots if none. */
        int first(int from) const;

      private:
        std::array<std::uint64_t, kSlots / 64> words_{};
    };
    static_assert(kBucketCount == Occupancy::kSlots &&
                  kFarCount == Occupancy::kSlots);

    bool
    stale(const Entry &e) const
    {
        return !e.event->scheduled_ || e.event->seq_ != e.seq;
    }

    /** The current window, as an absolute window number. */
    std::int64_t window() const { return epochBase_ >> kWindowBits; }
    /** The absolute window far slot @p slot holds. */
    std::int64_t farWindow(int slot) const;

    /** Route an entry at or after the current window to its level. */
    void place(const Entry &e);
    /** Place an entry whose bucket lies inside the current window. */
    void insertWheel(const Entry &e, std::int64_t bucket);
    /** Return the active bucket's unconsumed tail to its wheel slot. */
    void flushActive();
    /** Purge stale entries until the next fresh one is located. */
    Next findNext();
    /**
     * First far slot after the current window holding a fresh entry;
     * -1 if none. All-stale slots on the way are released without
     * moving the epoch.
     */
    int findFar();
    /** Return far slot @p slot's nodes to the free list. */
    void releaseFar(int slot);
    /** Re-base the window at far slot @p slot and cascade it in. */
    void advanceFar(int slot);
    /** Re-base the window at the overflow minimum. */
    void advanceEpoch();
    /** Move overflow entries now inside the ring's span down a level. */
    void pullOverflow();
    /** Fire active_[activePos_]; caller guarantees it is fresh. */
    void fireFront();

    std::vector<std::vector<Entry>> buckets_;
    Occupancy wheelBits_;
    /**
     * Entries of windows 1..255 ahead, slot = window & kFarMask, each
     * slot a list of nodes in one pool. The pool grows to the peak
     * number of stored far entries, then recycles nodes through the
     * free list. The current window's slot is always empty.
     */
    std::vector<FarNode> farNodes_;
    std::array<std::uint32_t, kFarCount> farHead_;
    std::uint32_t farFree_ = kNoNode;
    Occupancy farBits_;
    /** The far slot findNext() located when it returned kFar. */
    int farNext_ = -1;
    /** Events beyond the ring; min-heap ordered by (when, seq). */
    std::vector<Entry> overflow_;

    /** The bucket being consumed, sorted; activePos_ is the read head. */
    std::vector<Entry> active_;
    std::size_t activePos_ = 0;
    bool activeValid_ = false;
    std::int64_t activeBucket_ = -1; //!< absolute bucket number

    /** Window start as an absolute bucket number, kBucketCount-aligned;
     *  invariant: epochBase_ <= (now_ >> kBucketShift). */
    std::int64_t epochBase_ = 0;
    /** Next wheel slot to examine, in [0, kBucketCount]. */
    int cursorSlot_ = 0;

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::size_t numPending_ = 0;
    std::uint64_t numProcessed_ = 0;
};

} // namespace nmapsim

#endif // NMAPSIM_SIM_EVENT_QUEUE_HH_

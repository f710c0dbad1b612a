#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "sim/logging.hh"

namespace nmapsim {

Event::~Event()
{
    // Owning components must deschedule before destruction; firing a
    // destroyed event would be use-after-free. The queue tolerates the
    // stale calendar entry (token mismatch) but only while the object
    // lives. panic() from a destructor reaches std::terminate — the
    // intended fail-stop, and unlike assert() it survives Release.
    if (scheduled_)
        panic("event destroyed while scheduled");
}

EventFunctionWrapper::EventFunctionWrapper(std::function<void()> callback,
                                           std::string name)
    : callback_(std::move(callback)), name_(std::move(name))
{
}

EventQueue::EventQueue()
    : buckets_(kBucketCount)
{
    farHead_.fill(kNoNode);
}

void
EventQueue::Occupancy::set(int slot)
{
    words_[static_cast<std::size_t>(slot >> 6)] |=
        std::uint64_t{1} << (slot & 63);
}

void
EventQueue::Occupancy::clear(int slot)
{
    words_[static_cast<std::size_t>(slot >> 6)] &=
        ~(std::uint64_t{1} << (slot & 63));
}

int
EventQueue::Occupancy::first(int from) const
{
    if (from >= kSlots)
        return kSlots;
    int w = from >> 6;
    std::uint64_t word = words_[static_cast<std::size_t>(w)] &
                         (~std::uint64_t{0} << (from & 63));
    for (;;) {
        if (word != 0)
            return (w << 6) + std::countr_zero(word);
        if (++w == kSlots / 64)
            return kSlots;
        word = words_[static_cast<std::size_t>(w)];
    }
}

std::int64_t
EventQueue::farWindow(int slot) const
{
    return window() + ((slot - window()) & kFarMask);
}

void
EventQueue::place(const Entry &e)
{
    const std::int64_t ahead = (e.when >> kWindowShift) - window();
    if (ahead == 0) {
        insertWheel(e, e.when >> kBucketShift);
    } else if (ahead < kFarCount) {
        const int slot = static_cast<int>((e.when >> kWindowShift) &
                                          kFarMask);
        std::uint32_t &head = farHead_[static_cast<std::size_t>(slot)];
        std::uint32_t node = farFree_;
        if (node == kNoNode) {
            node = static_cast<std::uint32_t>(farNodes_.size());
            farNodes_.push_back(FarNode{e, head});
        } else {
            farFree_ = farNodes_[node].next;
            farNodes_[node] = FarNode{e, head};
        }
        head = node;
        farBits_.set(slot);
    } else {
        overflow_.push_back(e);
        std::push_heap(overflow_.begin(), overflow_.end(),
                       std::greater<Entry>{});
    }
}

void
EventQueue::insertWheel(const Entry &e, std::int64_t bucket)
{
    if (activeValid_) {
        if (bucket == activeBucket_) {
            // An event landing in the bucket currently being consumed
            // must still fire in (when, seq) order relative to the
            // *unconsumed* tail — e.g. an earlier-tick event scheduled
            // from inside process() fires before later ones already
            // queued, exactly as it would have popped from a heap.
            active_.insert(
                std::upper_bound(
                    active_.begin() +
                        static_cast<std::ptrdiff_t>(activePos_),
                    active_.end(), e),
                e);
            return;
        }
        if (bucket < activeBucket_)
            flushActive();
    }
    const int slot = static_cast<int>(bucket & kSlotMask);
    buckets_[static_cast<std::size_t>(slot)].push_back(e);
    wheelBits_.set(slot);
    if (slot < cursorSlot_)
        cursorSlot_ = slot;
}

void
EventQueue::flushActive()
{
    // The consumption cursor moved past this bucket's slot, but an
    // insert now targets an earlier bucket (possible only from harness
    // code between runs — e.g. after runUntil() stopped short of the
    // active bucket). Hand the unconsumed tail back to the wheel and
    // rewind; the slots in between are empty, so the rescan is free.
    const int slot = static_cast<int>(activeBucket_ & kSlotMask);
    std::vector<Entry> &bucket = buckets_[static_cast<std::size_t>(slot)];
    for (std::size_t i = activePos_; i < active_.size(); ++i)
        bucket.push_back(active_[i]);
    if (!bucket.empty())
        wheelBits_.set(slot);
    active_.clear();
    activePos_ = 0;
    activeValid_ = false;
    if (slot < cursorSlot_)
        cursorSlot_ = slot;
}

EventQueue::Next
EventQueue::findNext()
{
    for (;;) {
        while (activePos_ < active_.size()) {
            if (!stale(active_[activePos_]))
                return Next::kActive;
            ++activePos_; // stale entry from a deschedule/reschedule
        }
        if (activeValid_) {
            active_.clear();
            activePos_ = 0;
            activeValid_ = false;
        }
        const int slot = wheelBits_.first(cursorSlot_);
        if (slot < kBucketCount) {
            active_.swap(buckets_[static_cast<std::size_t>(slot)]);
            wheelBits_.clear(slot);
            // A bucket holds a handful of entries; inline insertion
            // sort beats the std::sort call at those sizes. (Entries
            // never compare equal — seq is unique — so the sorts
            // cannot differ.)
            if (active_.size() > 16) {
                std::sort(active_.begin(), active_.end());
            } else {
                for (std::size_t i = 1; i < active_.size(); ++i) {
                    const Entry key = active_[i];
                    std::size_t j = i;
                    for (; j > 0 && key < active_[j - 1]; --j)
                        active_[j] = active_[j - 1];
                    active_[j] = key;
                }
            }
            activePos_ = 0;
            activeValid_ = true;
            activeBucket_ = epochBase_ + slot;
            cursorSlot_ = slot + 1;
            continue;
        }
        cursorSlot_ = kBucketCount;
        farNext_ = findFar();
        if (farNext_ >= 0)
            return Next::kFar;
        while (!overflow_.empty() && stale(overflow_.front())) {
            std::pop_heap(overflow_.begin(), overflow_.end(),
                          std::greater<Entry>{});
            overflow_.pop_back();
        }
        return overflow_.empty() ? Next::kNone : Next::kOverflow;
    }
}

int
EventQueue::findFar()
{
    // The current window's slot is empty, so scanning from the slot
    // after it and wrapping once meets the later windows in order.
    const int current = static_cast<int>(window() & kFarMask);
    for (;;) {
        int slot = farBits_.first(current + 1);
        if (slot == Occupancy::kSlots)
            slot = farBits_.first(0);
        if (slot == Occupancy::kSlots)
            return -1;
        for (std::uint32_t n = farHead_[static_cast<std::size_t>(slot)];
             n != kNoNode; n = farNodes_[n].next) {
            if (!stale(farNodes_[n].entry))
                return slot;
        }
        // Nothing fresh: release the slot but keep the epoch. Moving it
        // with nothing to fire would leave the window ahead of now(),
        // and the next schedule(now() + 1) would land behind it.
        releaseFar(slot);
    }
}

void
EventQueue::releaseFar(int slot)
{
    std::uint32_t &head = farHead_[static_cast<std::size_t>(slot)];
    while (head != kNoNode) {
        const std::uint32_t node = head;
        head = farNodes_[node].next;
        farNodes_[node].next = farFree_;
        farFree_ = node;
    }
    farBits_.clear(slot);
}

void
EventQueue::advanceFar(int slot)
{
    // Caller guarantees the wheel is empty and the slot holds a fresh
    // entry. Re-base the window at the slot's window and spread its
    // fresh entries over the wheel's buckets; the bucket sort at
    // activation restores (when, seq) order.
    epochBase_ = farWindow(slot) << kWindowBits;
    for (std::uint32_t n = farHead_[static_cast<std::size_t>(slot)];
         n != kNoNode; n = farNodes_[n].next) {
        const Entry &e = farNodes_[n].entry;
        if (!stale(e))
            insertWheel(e, e.when >> kBucketShift);
    }
    releaseFar(slot);
    pullOverflow();
}

void
EventQueue::advanceEpoch()
{
    // Caller guarantees the wheel and the ring are empty and
    // overflow_.front() is fresh. Re-base the window at that event's
    // (aligned) epoch; the front event fires immediately afterwards,
    // which restores the epochBase_ <= bucket(now_) invariant before
    // any user code runs.
    const std::int64_t front =
        overflow_.front().when >> kBucketShift;
    epochBase_ = front & ~static_cast<std::int64_t>(kSlotMask);
    pullOverflow();
}

void
EventQueue::pullOverflow()
{
    // Every overflow entry lies at least kFarCount windows past the
    // window before this re-base; those the window's move brought
    // within reach drop into the ring, or into the wheel.
    const std::int64_t limit = window() + kFarCount;
    while (!overflow_.empty() &&
           (overflow_.front().when >> kWindowShift) < limit) {
        const Entry e = overflow_.front();
        std::pop_heap(overflow_.begin(), overflow_.end(),
                      std::greater<Entry>{});
        overflow_.pop_back();
        if (!stale(e))
            place(e);
    }
}

void
EventQueue::fireFront()
{
    const Entry &e = active_[activePos_++];
    Event *ev = e.event;
    if (e.when < now_)
        panic("event queue went backwards in time");
    now_ = e.when;
    ev->scheduled_ = false;
    --numPending_;
    ++numProcessed_;
    ev->process();
}

void
EventQueue::schedule(Event *ev, Tick when)
{
    if (ev->scheduled_)
        throw std::logic_error("schedule: event already scheduled: " +
                               ev->name());
    if (when < now_)
        throw std::logic_error("schedule: tick in the past: " + ev->name());

    ev->when_ = when;
    ev->seq_ = nextSeq_;
    ev->scheduled_ = true;
    if ((when >> kBucketShift) < epochBase_)
        panic("event queue window behind now");
    place(Entry{when, nextSeq_++, ev});
    ++numPending_;
}

void
EventQueue::deschedule(Event *ev)
{
    if (!ev->scheduled_)
        return;
    // Lazy removal: clear the scheduled flag; the calendar entry is
    // dropped when reached (and a reschedule changes seq_, so the old
    // entry stays stale even once the flag is set again).
    ev->scheduled_ = false;
    --numPending_;
}

void
EventQueue::reschedule(Event *ev, Tick when)
{
    deschedule(ev);
    schedule(ev, when);
}

bool
EventQueue::step()
{
    for (;;) {
        switch (findNext()) {
        case Next::kNone:
            return false;
        case Next::kFar:
            advanceFar(farNext_);
            continue;
        case Next::kOverflow:
            advanceEpoch();
            continue;
        case Next::kActive:
            fireFront();
            return true;
        }
    }
}

void
EventQueue::runUntil(Tick end)
{
    for (;;) {
        const Next next = findNext();
        if (next == Next::kNone)
            break;
        if (next == Next::kFar) {
            // Enter the window only once end reaches its start, so
            // the closing now_ = max(now_, end) keeps the window at or
            // behind now().
            if ((farWindow(farNext_) << kWindowShift) > end)
                break;
            advanceFar(farNext_);
            continue;
        }
        if (next == Next::kOverflow) {
            // Skipping stale entries (inside findNext) never advances
            // time; stopping short of a future event does not either.
            if (overflow_.front().when > end)
                break;
            advanceEpoch();
            continue;
        }
        if (active_[activePos_].when > end)
            break;
        fireFront();
    }
    if (now_ < end)
        now_ = end;
}

void
EventQueue::runAll()
{
    while (step()) {
    }
}

} // namespace nmapsim

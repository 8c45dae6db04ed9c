#include "sim/event_queue.hh"

#include <atomic>
#include <chrono>

#include "common/logging.hh"
#include "common/trace.hh"

namespace tcpni
{

namespace evprof
{

namespace
{
thread_local bool tl_enabled = false;
thread_local Profile tl_profile;
} // namespace

void
setEnabled(bool on)
{
    tl_enabled = on;
}

bool
enabled()
{
    return tl_enabled;
}

Profile
take()
{
    Profile out = std::move(tl_profile);
    tl_profile.clear();
    return out;
}

void
detail::account(const std::string &type, double seconds)
{
    TypeStats &s = tl_profile[type];
    ++s.count;
    s.seconds += seconds;
}

} // namespace evprof

namespace
{
/** Allocator for EventQueue::queueId(): 1-based, never reused. */
std::atomic<uint64_t> nextQueueId{1};
} // namespace

Event::~Event()
{
    // Callers must deschedule an event before destroying it; the queue
    // cannot detect the violation here without risking a throw from a
    // destructor.
}

EventQueue::EventQueue()
    : queueId_(nextQueueId.fetch_add(1)), profile_(evprof::enabled()),
      ring_(ringSize_)
{}

void
EventQueue::schedule(Event *ev, Tick when)
{
    tcpni_assert(ev != nullptr);
    if (ev->scheduled_)
        panic("event '%s' scheduled twice", ev->name().c_str());
    if (when < curTick_) {
        panic("event '%s' scheduled in the past (%llu < %llu)",
              ev->name().c_str(),
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(curTick_));
    }
    ev->when_ = when;
    ev->seq_ = nextSeq_++;
    ev->scheduled_ = true;
    if (when < windowEnd())
        ringInsert(ev);
    else
        overflow_.push({when, ev->priority_, ev->seq_, ev});
    ++nscheduled_;
}

void
EventQueue::deschedule(Event *ev)
{
    tcpni_assert(ev != nullptr);
    if (!ev->scheduled_)
        panic("deschedule of unscheduled event '%s'", ev->name().c_str());
    // A ring event leaves its bucket now; an overflow entry goes
    // stale (scheduled_ is false, and a later schedule() bumps seq_)
    // and is dropped when it reaches the heap's top.
    if (ev->inRing_)
        ringRemove(ev);
    ev->scheduled_ = false;
    --nscheduled_;
}

void
EventQueue::reschedule(Event *ev, Tick when)
{
    if (ev->scheduled())
        deschedule(ev);
    schedule(ev, when);
}

void
EventQueue::ringInsert(Event *ev)
{
    Bucket &b = ring_[ev->when_ & ringMask_];
    // Append, unless the bucket's tick is being drained right now:
    // then the event goes to its sorted place, which for a new
    // schedule (the newest seq) is after every event of its priority.
    Event *after = b.tail;
    if (b.sortedAt == ev->when_)
        while (after && firesBefore(ev, after))
            after = after->prev_;
    ev->prev_ = after;
    ev->next_ = after ? after->next_ : b.head;
    (ev->next_ ? ev->next_->prev_ : b.tail) = ev;
    (after ? after->next_ : b.head) = ev;
    ev->inRing_ = true;
    ++ringCount_;
}

void
EventQueue::ringRemove(Event *ev)
{
    Bucket &b = ring_[ev->when_ & ringMask_];
    (ev->prev_ ? ev->prev_->next_ : b.head) = ev->next_;
    (ev->next_ ? ev->next_->prev_ : b.tail) = ev->prev_;
    ev->inRing_ = false;
    --ringCount_;
}

void
EventQueue::sortBucket(Bucket &b)
{
    // Appends in schedule order at one priority -- the common case --
    // are already sorted.
    Event *e = b.head;
    while (e->next_ && !firesBefore(e->next_, e))
        e = e->next_;
    if (!e->next_)
        return;

    // Bottom-up merge sort: merge adjacent runs of width 1, 2, 4, ...
    // until one pass makes a single merge.  Relinks in place, so it
    // allocates nothing.
    Event *list = b.head;
    for (size_t width = 1;; width *= 2) {
        Event *p = list;
        Event *tail = nullptr;
        list = nullptr;
        size_t merges = 0;
        while (p) {
            ++merges;
            Event *q = p;
            size_t np = 0;
            while (np < width && q) {
                ++np;
                q = q->next_;
            }
            size_t nq = width;
            while (np > 0 || (nq > 0 && q)) {
                Event *take;
                if (np > 0 && (nq == 0 || !q || !firesBefore(q, p))) {
                    take = p;
                    p = p->next_;
                    --np;
                } else {
                    take = q;
                    q = q->next_;
                    --nq;
                }
                take->prev_ = tail;
                (tail ? tail->next_ : list) = take;
                tail = take;
            }
            p = q;
        }
        tail->next_ = nullptr;
        if (merges == 1) {
            b.head = list;
            b.tail = tail;
            return;
        }
    }
}

void
EventQueue::migrateOverflow()
{
    while (!overflow_.empty()) {
        const Entry &top = overflow_.top();
        if (live(top)) {
            if (top.when >= windowEnd())
                break;
            ringInsert(top.ev);
        }
        overflow_.pop();
    }
}

Event *
EventQueue::popNext(Tick bound)
{
    // Migrate overflow entries whose tick has entered the ring window.
    migrateOverflow();

    const Tick end = windowEnd();
    for (Tick t = curTick_; t < end && ringCount_ > 0; ++t) {
        // Anything at t > bound stays put (the overflow minimum is
        // >= windowEnd() > bound here, so it cannot be next either).
        if (t > bound)
            return nullptr;
        Bucket &b = ring_[t & ringMask_];
        if (!b.head)
            continue;
        if (b.sortedAt != t) {
            // First pop at this tick: order the bucket once.
            sortBucket(b);
            b.sortedAt = t;
        }
        Event *ev = b.head;
        ringRemove(ev);
        curTick_ = t;
        return ev;
    }

    // The window is clear: the overflow top (if any) is the global
    // minimum, beyond the window by at least a full ring.
    while (!overflow_.empty()) {
        const Entry top = overflow_.top();
        if (!live(top)) {
            overflow_.pop();
            continue;
        }
        if (top.when > bound)
            return nullptr;
        overflow_.pop();
        curTick_ = top.when;
        return top.ev;
    }
    return nullptr;
}

void
EventQueue::observe(QueueObserver *obs, Tick interval)
{
    tcpni_assert(obs != nullptr && interval > 0);
    observer_ = obs;
    observeInterval_ = interval;
    nextObserve_ = curTick_ + interval;
}

void
EventQueue::observeBefore(Tick t)
{
    const Tick now = curTick_;
    while (nextObserve_ < t) {
        // Nothing happens between the last event before t and t, so
        // the state seen here is the state at the boundary.
        curTick_ = nextObserve_;
        observedAt_ = nextObserve_;
        nextObserve_ += observeInterval_;
        observer_->observe();
    }
    curTick_ = now;
}

void
EventQueue::fire(Event *ev)
{
    if (ev->when_ > nextObserve_)
        observeBefore(ev->when_);
    ev->scheduled_ = false;
    --nscheduled_;
    ++numProcessed_;
    TCPNI_TRACE_AT(EVENT, ev->when_, "eventq", "fire %s pri=%d",
                   ev->name().c_str(), ev->priority_);
    if (profile_) {
        // Take the name first: process() may invalidate the event.
        std::string type = ev->name();
        auto start = std::chrono::steady_clock::now();
        ev->process();
        std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - start;
        evprof::detail::account(type, dt.count());
        return;
    }
    ev->process();
}

bool
EventQueue::step()
{
    Event *ev = popNext(maxTick);
    if (!ev)
        return false;
    fire(ev);
    return true;
}

Tick
EventQueue::run(Tick max_tick)
{
    while (Event *ev = popNext(max_tick))
        fire(ev);
    if (observer_) {
        // Every event at or before the current tick has fired.
        observeBefore(curTick_ + 1);
        if (nscheduled_ == 0 && observedAt_ != curTick_) {
            observedAt_ = curTick_;
            observer_->observe();
        }
    }
    return curTick_;
}

} // namespace tcpni

#include "sim/event_queue.hh"

#include <algorithm>
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
    : queueId_(nextQueueId.fetch_add(1)), profile_(evprof::enabled())
{
    ring_.resize(ringSize_);
    // Pre-reserve every bucket to the keep threshold (~2 MB per
    // queue): stores at or below it never retire, so without this a
    // bucket's first growth past its construction-time capacity could
    // land mid-run with nothing circulating in the pool to serve it --
    // a heap allocation the steady-state guarantee
    // (tests/system/alloc_test.cc) forbids.  Above the threshold every
    // store retires on drain, so larger capacity is always in
    // circulation once first reached.
    for (auto &b : ring_)
        b.reserve(bucketKeepCap_);
    // maxTick never appears as a ring entry's tick (the window is
    // exclusive of it), so it doubles as "never sorted".
    ringSortedAt_.assign(ringSize_, maxTick);
    ringCapHint_.assign(ringSize_, 0);
}

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
    Entry e{when, ev->priority_, ev->seq_, ev};
    if (when < windowEnd())
        ringInsert(e);
    else
        overflow_.push(e);
    ++nscheduled_;
    // A new earliest event only lowers the memoized peek.
    if (peekValid_ && when < peekCache_)
        peekCache_ = when;
}

void
EventQueue::deschedule(Event *ev)
{
    tcpni_assert(ev != nullptr);
    if (!ev->scheduled_)
        panic("deschedule of unscheduled event '%s'", ev->name().c_str());
    // Lazy deletion: the stored entry becomes stale (its seq no longer
    // matches once the event is rescheduled, and scheduled_ is false
    // until then).
    ev->scheduled_ = false;
    --nscheduled_;
    // The memoized peek may have named this event's tick.
    if (peekValid_ && ev->when_ == peekCache_)
        peekValid_ = false;
}

void
EventQueue::reschedule(Event *ev, Tick when)
{
    if (ev->scheduled())
        deschedule(ev);
    schedule(ev, when);
}

namespace
{

/** Smallest k with 2^k >= v (v >= 1). */
unsigned
ceilLog2(size_t v)
{
    return v <= 1 ? 0
                  : 64u - static_cast<unsigned>(
                              __builtin_clzll(v - 1));
}

} // namespace

void
EventQueue::growBucket(std::vector<Entry> &b, size_t idx)
{
    // The bucket is full: swap in a larger store instead of letting
    // the vector reallocate, preferring a retired store from the
    // pool.  The capacity hint jumps a hot bucket straight back to
    // its working size, so in steady state the drain/refill cycle of
    // every bucket is served entirely from the pool.
    const size_t need = b.size() + 1;
    const size_t target =
        std::max({need, b.capacity() * 2,
                  static_cast<size_t>(ringCapHint_[idx]), size_t(8)});
    std::vector<Entry> store = acquireStore(target);
    if (store.capacity() < target) {
        // The pool has nothing big enough.  Before allocating,
        // reclaim capacity stranded in idle buckets -- stores at or
        // below bucketKeepCap_ never retire on drain, so a quiet
        // stretch can leave the pool dry while the ring holds plenty.
        if (store.capacity() > 0)
            poolStore(std::move(store));
        scavengeStores(idx);
        store = acquireStore(target);
    }
    if (store.capacity() < target)
        store.reserve(target);
    store.assign(b.begin(), b.end());
    std::swap(b, store);
    ringCapHint_[idx] = static_cast<uint32_t>(b.capacity());
    if (store.capacity() > 0)
        poolStore(std::move(store));
}

void
EventQueue::retireStore(std::vector<Entry> &b, size_t idx)
{
    ringCapHint_[idx] = static_cast<uint32_t>(b.capacity());
    std::vector<Entry> old;
    std::swap(old, b);
    poolStore(std::move(old));
}

std::vector<EventQueue::Entry>
EventQueue::acquireStore(size_t target)
{
    for (unsigned k = ceilLog2(target); k < spareBinCount_; ++k) {
        if (!spareBins_[k].empty()) {
            std::vector<Entry> s = std::move(spareBins_[k].back());
            spareBins_[k].pop_back();
            return s;
        }
    }
    return {};
}

void
EventQueue::scavengeStores(size_t keep_idx)
{
    for (size_t i = 0; i < ringSize_; ++i) {
        if (i == keep_idx)
            continue;
        std::vector<Entry> &b = ring_[i];
        if (!b.empty() || b.capacity() == 0)
            continue;
        ringCapHint_[i] = static_cast<uint32_t>(b.capacity());
        std::vector<Entry> old;
        std::swap(old, b);
        poolStore(std::move(old));
    }
}

void
EventQueue::poolStore(std::vector<Entry> &&s)
{
    s.clear();
    // floor(log2(capacity)): every store in bin k has capacity
    // >= 2^k, so an acquire for target t may take from any bin at or
    // above ceilLog2(t).
    unsigned k = 63u - static_cast<unsigned>(
                           __builtin_clzll(s.capacity()));
    if (k >= spareBinCount_)
        k = spareBinCount_ - 1;
    spareBins_[k].push_back(std::move(s));
}

void
EventQueue::ringInsert(const Entry &e)
{
    const size_t idx = e.when & ringMask_;
    std::vector<Entry> &b = ring_[idx];
    if (b.size() == b.capacity())
        growBucket(b, idx);
    if (ringSortedAt_[idx] == e.when) {
        // The bucket's tick is being drained right now; keep the
        // descending order so the minimum stays at the back.
        b.insert(std::upper_bound(b.begin(), b.end(), e, BucketCmp{}),
                 e);
    } else {
        b.push_back(e);
    }
    ++ringCount_;
}

void
EventQueue::migrateOverflow()
{
    while (!overflow_.empty()) {
        const Entry &top = overflow_.top();
        if (!live(top)) {
            overflow_.pop();
            continue;
        }
        if (top.when >= windowEnd())
            break;
        ringInsert(top);
        overflow_.pop();
    }
}

bool
EventQueue::popNext(Tick bound, Entry &out)
{
    // Migrate overflow entries whose tick has entered the ring window.
    migrateOverflow();

    // Scan the window from the current tick; every slot before the
    // next live entry holds only stale entries, which the prune
    // empties in passing (this keeps the one-tick-per-bucket
    // invariant as the window slides forward).
    const Tick end = windowEnd();
    for (Tick t = curTick_; t < end && ringCount_ > 0; ++t) {
        // Anything at t > bound stays put (the overflow minimum is
        // >= windowEnd() > bound here, so it cannot be next either).
        if (t > bound)
            return false;
        const size_t idx = t & ringMask_;
        std::vector<Entry> &b = ring_[idx];
        if (b.empty())
            continue;
        if (ringSortedAt_[idx] != t) {
            // First pop at this tick: order the bucket once.
            std::sort(b.begin(), b.end(), BucketCmp{});
            ringSortedAt_[idx] = t;
        }
        while (!b.empty() && !live(b.back())) {
            b.pop_back();
            --ringCount_;
        }
        if (b.empty()) {
            if (b.capacity() > bucketKeepCap_)
                retireStore(b, idx);
            continue;
        }
        out = b.back();
        b.pop_back();
        --ringCount_;
        if (b.empty() && b.capacity() > bucketKeepCap_)
            retireStore(b, idx);
        curTick_ = t;
        peekValid_ = false;
        return true;
    }

    // The window is clear: the overflow top (if any) is the global
    // minimum, beyond the window by at least a full ring.
    while (!overflow_.empty()) {
        const Entry &top = overflow_.top();
        if (!live(top)) {
            overflow_.pop();
            continue;
        }
        if (top.when > bound)
            return false;
        out = top;
        overflow_.pop();
        curTick_ = out.when;
        peekValid_ = false;
        return true;
    }
    return false;
}

Tick
EventQueue::peek()
{
    migrateOverflow();

    const Tick end = windowEnd();
    for (Tick t = curTick_; t < end && ringCount_ > 0; ++t) {
        const size_t idx = t & ringMask_;
        std::vector<Entry> &b = ring_[idx];
        if (b.empty())
            continue;
        for (const Entry &e : b)
            if (live(e))
                return t;
        // All-stale bucket: empty it so the scan never revisits it.
        ringCount_ -= b.size();
        b.clear();
        if (b.capacity() > bucketKeepCap_)
            retireStore(b, idx);
    }

    while (!overflow_.empty() && !live(overflow_.top()))
        overflow_.pop();
    return overflow_.empty() ? maxTick : overflow_.top().when;
}

Tick
EventQueue::nextEventTick()
{
    if (nscheduled_ == 0)
        return maxTick;
    if (!peekValid_) {
        peekCache_ = peek();
        peekValid_ = true;
    }
    return peekCache_;
}

void
EventQueue::fire(const Entry &e)
{
    e.ev->scheduled_ = false;
    --nscheduled_;
    ++numProcessed_;
    TCPNI_TRACE_AT(EVENT, e.when, "eventq", "fire %s pri=%d",
                   e.ev->name().c_str(), e.priority);
    if (profile_) {
        // Take the name first: process() may invalidate the event.
        std::string type = e.ev->name();
        auto start = std::chrono::steady_clock::now();
        e.ev->process();
        std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - start;
        evprof::detail::account(type, dt.count());
        return;
    }
    e.ev->process();
}

bool
EventQueue::step()
{
    Entry e;
    if (!popNext(maxTick, e))
        return false;
    fire(e);
    return true;
}

Tick
EventQueue::run(Tick max_tick)
{
    Entry e;
    while (popNext(max_tick, e))
        fire(e);
    return curTick_;
}

Tick
EventQueue::runWindow(Tick bound, const bool &stop)
{
    Entry e;
    Tick eff = bound;
    while (popNext(eff, e)) {
        fire(e);
        if (stop) {
            // Finish the tick in flight, then hand back to the
            // engine: anything we made visible to another shard
            // lands at curTick_ + 1, which may now precede eff.
            eff = curTick_;
        }
    }
    return curTick_;
}

} // namespace tcpni

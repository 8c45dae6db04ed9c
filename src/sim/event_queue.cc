#include "sim/event_queue.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <new>

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

/**
 * The upstream of every queue's bucket arena: the chunks a dead
 * queue's arena releases wait here for the next queue's arena instead
 * of going back to malloc.  Freed to malloc, one short run's chunks
 * (up to about 1.6 MB) let glibc trim the top of the heap, and later
 * runs fault the pages back in: about 256 page faults (1 MB) per
 * perfbench `paper_models` pass, a cost that depends on the host's
 * memory state, not on the simulation.  Arenas ask for the same 1.5x
 * chunk sizes every time, so an exact-size match almost always
 * hits.
 *
 * Shared by all threads (sweep workers build queues concurrently)
 * behind one mutex, taken once per chunk.  It holds at most
 * maxChunks chunks and maxBytes bytes, the most recently freed; an
 * older chunk that no longer fits goes back to malloc.  It lives in
 * static storage and is never destroyed, so building the first queue
 * allocates nothing for it and a queue that dies during static
 * destruction can still release into it.
 */
class ChunkCache final : public std::pmr::memory_resource
{
  public:
    static ChunkCache &
    instance()
    {
        alignas(ChunkCache) static unsigned char storage[sizeof(
            ChunkCache)];
        static ChunkCache *cache = new (storage) ChunkCache;
        return *cache;
    }

  private:
    struct Chunk
    {
        void *p;
        size_t bytes;
        size_t align;
    };

    static constexpr size_t maxChunks = 64;
    static constexpr size_t maxBytes = size_t(8) << 20;

    void *
    do_allocate(size_t bytes, size_t align) override
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            // Newest first: the most recently freed chunk is the one
            // most likely still in the CPU caches.
            for (size_t i = count_; i-- > 0;)
                if (held_[i].bytes == bytes && held_[i].align == align)
                    return remove(i).p;
        }
        return std::pmr::new_delete_resource()->allocate(bytes, align);
    }

    void
    do_deallocate(void *p, size_t bytes, size_t align) override
    {
        std::pmr::memory_resource *heap = std::pmr::new_delete_resource();
        if (bytes > maxBytes) {
            heap->deallocate(p, bytes, align);
            return;
        }
        std::lock_guard<std::mutex> lock(mu_);
        // Make room by freeing the oldest chunks, so the cache follows
        // the current workload's chunk sizes.
        while (count_ == maxChunks || heldBytes_ + bytes > maxBytes) {
            Chunk old = remove(0);
            heap->deallocate(old.p, old.bytes, old.align);
        }
        held_[count_++] = {p, bytes, align};
        heldBytes_ += bytes;
    }

    /** Take entry @p i out, keeping the rest oldest first. */
    Chunk
    remove(size_t i)
    {
        Chunk c = held_[i];
        std::copy(held_.begin() + i + 1, held_.begin() + count_,
                  held_.begin() + i);
        --count_;
        heldBytes_ -= c.bytes;
        return c;
    }

    bool
    do_is_equal(const std::pmr::memory_resource &other) const
        noexcept override
    {
        return this == &other;
    }

    std::mutex mu_;
    std::array<Chunk, maxChunks> held_{};
    size_t count_ = 0;
    size_t heldBytes_ = 0;
};
} // namespace

Event::~Event()
{
    // Callers must deschedule an event before destroying it; the queue
    // cannot detect the violation here without risking a throw from a
    // destructor.
}

EventQueue::EventQueue()
    : queueId_(nextQueueId.fetch_add(1)), profile_(evprof::enabled()),
      arena_(arenaInitialBytes_, &ChunkCache::instance())
{
    // Buckets start without storage; each gets its keep-size store
    // from arena_ on first use (growBucket), so constructing a queue
    // costs O(1) allocations however large the ring.
    ring_.reserve(ringSize_);
    for (size_t i = 0; i < ringSize_; ++i)
        ring_.emplace_back(&arena_);
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
EventQueue::growBucket(Bucket &b, size_t idx)
{
    if (ringCapHint_[idx] == 0) {
        // First use: the keep-size store, straight from the arena.
        // Stores at or below bucketKeepCap_ never retire, so once
        // every bucket has been used this never runs again -- and the
        // pool is not consulted, since a dry pool would cost an
        // O(ring) scavenge per first use.
        b.reserve(bucketKeepCap_);
        ringCapHint_[idx] = static_cast<uint32_t>(b.capacity());
        return;
    }
    // The bucket is full: swap in a larger store instead of letting
    // the vector reallocate, preferring a retired store from the
    // pool.  The capacity hint jumps a hot bucket straight back to
    // its working size, so in steady state the drain/refill cycle of
    // every bucket is served entirely from the pool.
    const size_t need = b.size() + 1;
    const size_t target =
        std::max({need, b.capacity() * 2,
                  static_cast<size_t>(ringCapHint_[idx]), size_t(8)});
    Bucket store = acquireStore(target);
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
EventQueue::retireStore(Bucket &b, size_t idx)
{
    ringCapHint_[idx] = static_cast<uint32_t>(b.capacity());
    Bucket old(&arena_);
    std::swap(old, b);
    poolStore(std::move(old));
}

EventQueue::Bucket
EventQueue::acquireStore(size_t target)
{
    for (unsigned k = ceilLog2(target); k < spareBinCount_; ++k) {
        if (!spareBins_[k].empty()) {
            Bucket s = std::move(spareBins_[k].back());
            spareBins_[k].pop_back();
            return s;
        }
    }
    return Bucket(&arena_);
}

void
EventQueue::scavengeStores(size_t keep_idx)
{
    for (size_t i = 0; i < ringSize_; ++i) {
        if (i == keep_idx)
            continue;
        Bucket &b = ring_[i];
        if (!b.empty() || b.capacity() == 0)
            continue;
        ringCapHint_[i] = static_cast<uint32_t>(b.capacity());
        Bucket old(&arena_);
        std::swap(old, b);
        poolStore(std::move(old));
    }
}

void
EventQueue::poolStore(Bucket &&s)
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
    Bucket &b = ring_[idx];
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
        Bucket &b = ring_[idx];
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
        return true;
    }
    return false;
}

Tick
EventQueue::nextEventTick()
{
    if (nscheduled_ == 0)
        return maxTick;
    migrateOverflow();

    const Tick end = windowEnd();
    for (Tick t = curTick_; t < end && ringCount_ > 0; ++t) {
        const size_t idx = t & ringMask_;
        Bucket &b = ring_[idx];
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
EventQueue::fire(const Entry &e)
{
    if (e.when > nextObserve_)
        observeBefore(e.when);
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

/**
 * @file
 * The discrete-event kernel.
 *
 * A single EventQueue orders Events by (tick, priority, insertion
 * sequence).  Events scheduled for the same tick and priority fire in
 * the order they were scheduled, which keeps multi-node simulations
 * deterministic.
 *
 * The queue is a two-tier calendar queue.  A ring of per-tick buckets
 * covers the near future [curTick, curTick + ringSize); events beyond
 * the window go to an overflow binary heap and migrate into the ring
 * as time advances.  Most simulator events are scheduled a handful of
 * ticks ahead, so scheduling and firing are O(1) amortized instead of
 * O(log n).  The differential fuzz (tests/sim/event_kernel_fuzz_test.cc)
 * checks its firing order against a test-only binary-heap reference.
 *
 * Each EventQueue also allocates the message trace ids for its
 * simulation (see nextTraceId()), so independent simulations -- e.g.
 * parameter sweeps fanned across worker threads -- produce identical,
 * reproducible id sequences with no shared state.
 */

#ifndef TCPNI_SIM_EVENT_QUEUE_HH
#define TCPNI_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory_resource>
#include <queue>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace tcpni
{

class EventQueue;

/**
 * Host-side event-kernel self-profiling.
 *
 * When enabled on a thread (before its EventQueues are constructed),
 * every queue times each Event::process() call with the host's steady
 * clock and attributes the wall time to the event's name().  The
 * accumulated per-type profile is thread-local; take() moves it out.
 * Intended for BENCH_host-style runs only -- the per-event name()
 * call and clock reads are far too slow to leave on by default, which
 * is why each queue latches the flag once at construction.
 */
namespace evprof
{

struct TypeStats
{
    uint64_t count = 0;
    double seconds = 0;
};

using Profile = std::map<std::string, TypeStats>;

/** Enable or disable profiling for queues later constructed on this
 *  thread. */
void setEnabled(bool on);
bool enabled();

/** Move out (and clear) this thread's accumulated profile. */
Profile take();

namespace detail
{
void account(const std::string &type, double seconds);
} // namespace detail

} // namespace evprof

/**
 * An event that can be scheduled on an EventQueue.
 *
 * Subclasses override process().  An event may be rescheduled from
 * within its own process() method.  Events are externally owned; the
 * queue never deletes them.
 */
class Event
{
  public:
    /** Default priority bands; lower fires first within a tick. */
    enum Priority : int
    {
        networkPri = 10,
        niPri = 20,
        cpuPri = 30,
        defaultPri = 50,
    };

    explicit Event(int priority = defaultPri) : priority_(priority) {}
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Called when the event fires. */
    virtual void process() = 0;

    /** A name for tracing and error messages. */
    virtual std::string name() const { return "anon-event"; }

    bool scheduled() const { return scheduled_; }
    Tick when() const { return when_; }
    int priority() const { return priority_; }

  private:
    friend class EventQueue;

    Tick when_ = 0;
    /** Sequence number of the latest schedule() of this event; queue
     *  entries carrying an older number are stale and skipped. */
    uint64_t seq_ = 0;
    int priority_;
    bool scheduled_ = false;
};

/** A convenience Event wrapping a std::function callback. */
class LambdaEvent : public Event
{
  public:
    explicit LambdaEvent(std::function<void()> fn,
                         int priority = defaultPri)
        : Event(priority), fn_(std::move(fn))
    {}

    void process() override { fn_(); }
    std::string name() const override { return "lambda-event"; }

  private:
    std::function<void()> fn_;
};

/**
 * A passive periodic observer of one EventQueue (the metrics
 * Sampler).  It is not an event: it never advances the clock, never
 * counts as processed and never keeps the queue alive, so attaching
 * one cannot change a simulated result.
 */
class QueueObserver
{
  public:
    virtual ~QueueObserver() = default;

    /** Called with the queue's curTick() at the observed tick, once
     *  every event at or before that tick has fired. */
    virtual void observe() = 0;
};

/** The global event queue for one simulation. */
class EventQueue
{
  public:
    EventQueue();

    /** Current simulated time. */
    Tick curTick() const { return curTick_; }

    /**
     * Schedule @p ev at absolute tick @p when.
     * Scheduling in the past, or double-scheduling, is a simulator bug.
     */
    void schedule(Event *ev, Tick when);

    /** Remove a scheduled event; it will not fire. */
    void deschedule(Event *ev);

    /** Deschedule (if needed) and reschedule at a new time. */
    void reschedule(Event *ev, Tick when);

    /** True when no events remain. */
    bool empty() const { return nscheduled_ == 0; }

    /** Number of scheduled (non-squashed) events. */
    size_t size() const { return nscheduled_; }

    /**
     * Run until the queue empties or @p max_tick passes.
     * @return the tick of the last processed event.
     */
    Tick run(Tick max_tick = maxTick);

    /**
     * Attach @p obs, observed at every multiple of @p interval past
     * the current tick once that tick's events have all fired, and
     * at the current tick whenever run() drains the queue (the final
     * sample of a run).  One observer per queue; it must outlive any
     * further run of the queue.
     */
    void observe(QueueObserver *obs, Tick interval);

    /** Process exactly one event, if any. @return true if one fired. */
    bool step();

    /**
     * Tick of the earliest live event, or maxTick when empty.  May
     * prune stale entries and migrate overflow entries (both
     * order-preserving).
     */
    Tick nextEventTick();

    /** Total number of events processed so far. */
    uint64_t numProcessed() const { return numProcessed_; }

    /**
     * Allocate the next message trace id of this simulation
     * (monotonic, starts at 1; 0 means untagged).  Per-queue so that
     * every run of the same configuration yields the same id
     * sequence, even when many simulations execute concurrently.
     */
    uint64_t
    nextTraceId()
    {
        return nextTraceId_++;
    }

    /**
     * Process-unique id of this queue (monotonic, never reused).
     * Lets observers distinguish "a new simulation started" from "the
     * same stack slot was reused for another EventQueue", which raw
     * addresses cannot.  The id is never part of simulation output,
     * so its process-global allocation order does not perturb
     * determinism.
     */
    uint64_t queueId() const { return queueId_; }

  private:
    struct Entry
    {
        Tick when;
        int priority;
        uint64_t seq;
        Event *ev;
    };

    /** Min-heap order for the overflow heap. */
    struct Cmp
    {
        bool operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            return a.seq > b.seq;
        }
    };

    /** Min-heap order for same-tick bucket entries. */
    struct BucketCmp
    {
        bool operator()(const Entry &a, const Entry &b) const
        {
            if (a.priority != b.priority)
                return a.priority > b.priority;
            return a.seq > b.seq;
        }
    };

    /** True when a queued entry still refers to a live schedule. */
    static bool
    live(const Entry &e)
    {
        return e.ev->scheduled_ && e.ev->seq_ == e.seq;
    }

    /** Ticks covered by the near-future bucket ring (power of two). */
    static constexpr size_t ringSize_ = 1024;
    static constexpr Tick ringMask_ = ringSize_ - 1;

    /** Exclusive upper tick of the ring window, saturating at
     *  maxTick so the window never wraps. */
    Tick
    windowEnd() const
    {
        return curTick_ > maxTick - ringSize_ ? maxTick
                                              : curTick_ + ringSize_;
    }

    /** Buckets keep their backing store across drains up to this
     *  capacity.  Larger stores are returned to the spare-store pool
     *  when the bucket empties and re-acquired when a bucket grows,
     *  so big same-tick bursts share storage instead of ratcheting
     *  every bucket's vector up independently -- that sharing is what
     *  makes the steady-state schedule/fire cycle allocation-free
     *  (tests/system/alloc_test.cc).  The threshold trades pool
     *  traffic against stranded capacity: stores at or below it stay
     *  put across drains (no retire/acquire churn for the common
     *  population), and the rare growth the quiescent pool cannot
     *  serve scavenges idle buckets before allocating.  A bucket gets
     *  its keep-size store on first use, carved from arena_ (see
     *  DESIGN.md section 13). */
    static constexpr size_t bucketKeepCap_ = 64;

    /** First arena chunk: the keep-size stores of 16 buckets.  Later
     *  chunks grow geometrically, so a run that touches n buckets
     *  makes O(log n) upstream allocations. */
    static constexpr size_t arenaInitialBytes_ =
        16 * bucketKeepCap_ * sizeof(Entry);

    /** Every bucket store lives in arena_, so stores can move between
     *  buckets and the pool (pmr vectors swap only within one
     *  resource). */
    using Bucket = std::pmr::vector<Entry>;

    /** Number of capacity size classes in the spare-store pool. */
    static constexpr unsigned spareBinCount_ = 34;

    void ringInsert(const Entry &e);

    /** Give full bucket @p b (index @p idx) room for one more entry:
     *  its keep-size store on first use, else a larger store swapped
     *  in, reusing a pooled store when one is big enough. */
    void growBucket(Bucket &b, size_t idx);

    /** Move empty bucket @p b's oversized store into the pool. */
    void retireStore(Bucket &b, size_t idx);

    /** Return a cleared store to its capacity size class. */
    void poolStore(Bucket &&s);

    /** Take the smallest pooled store with capacity >= @p target;
     *  empty vector (capacity 0) when none is pooled. */
    Bucket acquireStore(size_t target);

    /** Retire every idle bucket's store (except bucket @p keep_idx)
     *  into the pool.  Called only when a growth would otherwise
     *  heap-allocate: capacity stranded in buckets whose tick has
     *  passed becomes available to the bucket that needs it now. */
    void scavengeStores(size_t keep_idx);

    /** Move overflow entries whose tick entered the window into the
     *  ring (dropping stale ones in passing). */
    void migrateOverflow();

    /**
     * Extract the next live entry with when <= @p bound into @p out.
     * @return false if none exists (events beyond @p bound stay put).
     * On success curTick_ has been advanced to the entry's tick.
     */
    bool popNext(Tick bound, Entry &out);

    void fire(const Entry &e);

    /** Observe every pending boundary before @p t, each with the
     *  clock set to the boundary; the clock is restored after. */
    void observeBefore(Tick t);

    uint64_t queueId_;
    /** Latched evprof::enabled() at construction (hot-path guard). */
    bool profile_;
    Tick curTick_ = 0;
    uint64_t nextSeq_ = 0;
    uint64_t numProcessed_ = 0;
    uint64_t nextTraceId_ = 1;

    QueueObserver *observer_ = nullptr;
    Tick observeInterval_ = 0;
    /** Next boundary to observe; maxTick with no observer, so the
     *  hot-path test in fire() is one compare. */
    Tick nextObserve_ = maxTick;
    /** Tick of the latest observation (maxTick: none yet). */
    Tick observedAt_ = maxTick;
    size_t nscheduled_ = 0;

    // Bucket t & ringMask_ holds the entries of tick t; all ring
    // entries satisfy curTick_ <= when < windowEnd().  ringCount_
    // counts physical ring entries, stale included.
    //
    // Buckets fill as cheap unsorted push_backs and are sorted once,
    // lazily, on the first pop at their tick (descending BucketCmp,
    // so the minimum pops from the back in O(1)).  ringSortedAt_
    // remembers the tick a bucket was last sorted for: while the
    // drain of tick t is in progress, a same-tick insert (rare --
    // e.g. an interrupt wakeup scheduled at the current tick) keeps
    // the order with a binary-search insertion instead of a resort.
    // Ticks never repeat, so a marker matching the entry's tick
    // always means "sorted for this very drain".  This replaces the
    // per-entry push_heap/pop_heap of the original design, whose
    // cost grew noticeably with bucket population (the 512 -> 4096
    // pending-event regression in BENCH_host.json).
    //
    // arena_ backs every bucket store, so it is declared before the
    // buckets and the pool and outlives them.  It frees nothing
    // before the queue dies, and need not: a store, once carved, is
    // in a bucket or in the pool for the rest of the queue's life.
    // Its chunks come from, and at the queue's death go back to, a
    // process-wide chunk cache (event_queue.cc), so building and
    // destroying queues run after run returns nothing to malloc.
    std::pmr::monotonic_buffer_resource arena_;
    std::vector<Bucket> ring_;
    std::vector<Tick> ringSortedAt_;
    size_t ringCount_ = 0;
    /** Retired bucket stores, binned by floor(log2(capacity)) so
     *  every pool operation is an O(1) push/pop at a bin's back (a
     *  flat sorted pool would memmove O(pool) vector headers per
     *  retire/acquire, which dominated the event kernel when many
     *  buckets cycle through the pool every tick). */
    std::array<std::vector<Bucket>, spareBinCount_> spareBins_;
    /** Last store capacity per bucket: a hot bucket re-acquires its
     *  working size in one step instead of doubling up to it.  0
     *  until the bucket's first use. */
    std::vector<uint32_t> ringCapHint_;
    std::priority_queue<Entry, std::vector<Entry>, Cmp> overflow_;
};

} // namespace tcpni

#endif // TCPNI_SIM_EVENT_QUEUE_HH

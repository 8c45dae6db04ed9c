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
 * as time advances.  A bucket is an intrusive list threaded through
 * the Events themselves, so scheduling, descheduling and firing in
 * the window are O(1) and allocate nothing; a bucket is put in
 * (priority, sequence) order once, at its tick's first pop.  Most
 * simulator events are scheduled a handful of ticks ahead, so
 * scheduling and firing are O(1) amortized instead of O(log n).  The
 * differential fuzz (tests/sim/event_kernel_fuzz_test.cc) checks its
 * firing order against a test-only binary-heap reference.
 *
 * Each EventQueue also allocates the message trace ids for its
 * simulation (see nextTraceId()), so independent simulations -- e.g.
 * parameter sweeps fanned across worker threads -- produce identical,
 * reproducible id sequences with no shared state.
 */

#ifndef TCPNI_SIM_EVENT_QUEUE_HH
#define TCPNI_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <map>
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
    /** Sequence number of the latest schedule() of this event; orders
     *  same-tick, same-priority events, and overflow-heap entries
     *  carrying an older number are stale and skipped. */
    uint64_t seq_ = 0;
    int priority_;
    bool scheduled_ = false;
    /** Linked into a ring bucket (else in the overflow heap, or not
     *  scheduled). */
    bool inRing_ = false;
    /** Neighbours in the ring bucket, while inRing_. */
    Event *prev_ = nullptr;
    Event *next_ = nullptr;
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
    /** An overflow-heap entry; stale once its event is descheduled
     *  or scheduled again (seq mismatch), and then skipped. */
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

    /** True when an overflow entry still refers to a live schedule. */
    static bool
    live(const Entry &e)
    {
        return e.ev->scheduled_ && e.ev->seq_ == e.seq;
    }

    /** The events of one ring tick, linked through Event::prev_/next_. */
    struct Bucket
    {
        Event *head = nullptr;
        Event *tail = nullptr;
        /** The tick the list was last sorted for; maxTick (never a
         *  ring tick) until the first sort. */
        Tick sortedAt = maxTick;
    };

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

    /** Link @p ev into the bucket of its tick (ev->when_ must lie in
     *  the window). */
    void ringInsert(Event *ev);

    /** Unlink ring event @p ev from its bucket. */
    void ringRemove(Event *ev);

    /** Same-tick firing order: (priority, seq). */
    static bool
    firesBefore(const Event *a, const Event *b)
    {
        return a->priority_ != b->priority_ ? a->priority_ < b->priority_
                                            : a->seq_ < b->seq_;
    }

    /** Put bucket @p b in (priority, seq) order, relinking in place. */
    static void sortBucket(Bucket &b);

    /** Move overflow entries whose tick entered the window into the
     *  ring (dropping stale ones in passing). */
    void migrateOverflow();

    /**
     * Remove and return the next event with when <= @p bound, or
     * nullptr if none exists (events beyond @p bound stay put).  On
     * success curTick_ has been advanced to the event's tick.
     */
    Event *popNext(Tick bound);

    void fire(Event *ev);

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

    // Bucket t & ringMask_ links exactly the scheduled events of tick
    // t that are in the ring; every ring event satisfies curTick_ <=
    // when < windowEnd(), so a bucket never mixes ticks.  An event is
    // linked iff its inRing_ is set, and deschedule() unlinks it, so
    // the ring holds no stale events; ringCount_ counts them.
    //
    // A bucket fills by appending at its tail and is sorted once, on
    // the first pop at its tick (sortedAt records that tick).  While
    // the drain of tick t is in progress, a same-tick insert goes
    // straight to its sorted place instead.  Ticks never repeat, so
    // a marker matching the event's tick always means "sorted for
    // this very drain".
    std::vector<Bucket> ring_;
    size_t ringCount_ = 0;
    std::priority_queue<Entry, std::vector<Entry>, Cmp> overflow_;
};

} // namespace tcpni

#endif // TCPNI_SIM_EVENT_QUEUE_HH

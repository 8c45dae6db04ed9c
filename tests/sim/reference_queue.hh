/**
 * @file
 * A test-only reference event queue: the classic single binary heap
 * ordered by (tick, priority, schedule sequence), with lazy deletion.
 *
 * It is deliberately the simplest structure that defines the event
 * kernel's firing order, so the differential fuzz can use it as the
 * oracle for the calendar queue in src/sim.  It drives ordinary Events
 * (only their public priority() and process() are used) and keeps the
 * scheduled/live bookkeeping itself, so ask the queue -- not the
 * event -- whether an event is scheduled.
 */

#ifndef TCPNI_TESTS_SIM_REFERENCE_QUEUE_HH
#define TCPNI_TESTS_SIM_REFERENCE_QUEUE_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "sim/event_queue.hh"

namespace tcpni
{

class ReferenceQueue
{
  public:
    Tick curTick() const { return curTick_; }

    void
    schedule(Event *ev, Tick when)
    {
        if (scheduled(ev))
            panic("event '%s' scheduled twice", ev->name().c_str());
        if (when < curTick_)
            panic("event '%s' scheduled in the past", ev->name().c_str());
        const uint64_t seq = nextSeq_++;
        live_[ev] = seq;
        heap_.push({when, ev->priority(), seq, ev});
    }

    void
    deschedule(Event *ev)
    {
        if (live_.erase(ev) == 0)
            panic("deschedule of unscheduled event '%s'",
                  ev->name().c_str());
    }

    void
    reschedule(Event *ev, Tick when)
    {
        if (scheduled(ev))
            deschedule(ev);
        schedule(ev, when);
    }

    bool scheduled(const Event *ev) const { return live_.count(ev) != 0; }
    bool empty() const { return live_.empty(); }
    size_t size() const { return live_.size(); }
    uint64_t numProcessed() const { return numProcessed_; }

    Tick
    run(Tick max_tick = maxTick)
    {
        while (popAndFire(max_tick)) {
        }
        return curTick_;
    }

    bool step() { return popAndFire(maxTick); }

  private:
    struct Entry
    {
        Tick when;
        int priority;
        uint64_t seq;
        Event *ev;

        bool
        operator>(const Entry &o) const
        {
            if (when != o.when)
                return when > o.when;
            if (priority != o.priority)
                return priority > o.priority;
            return seq > o.seq;
        }
    };

    /** Fire the earliest live entry with when <= @p bound. */
    bool
    popAndFire(Tick bound)
    {
        while (!heap_.empty()) {
            const Entry top = heap_.top();
            auto it = live_.find(top.ev);
            if (it == live_.end() || it->second != top.seq) {
                heap_.pop();    // stale: descheduled or rescheduled
                continue;
            }
            if (top.when > bound)
                return false;
            heap_.pop();
            live_.erase(it);
            curTick_ = top.when;
            ++numProcessed_;
            top.ev->process();
            return true;
        }
        return false;
    }

    Tick curTick_ = 0;
    uint64_t nextSeq_ = 0;
    uint64_t numProcessed_ = 0;
    /** Scheduled events -> sequence number of their live entry. */
    std::unordered_map<const Event *, uint64_t> live_;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
};

} // namespace tcpni

#endif // TCPNI_TESTS_SIM_REFERENCE_QUEUE_HH

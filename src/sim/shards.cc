#include "sim/shards.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tcpni
{

ShardedEngine::ShardedEngine(unsigned shards)
{
    tcpni_assert(shards >= 1);
    queues_.reserve(shards);
    for (unsigned s = 0; s < shards; ++s) {
        queues_.push_back(std::make_unique<EventQueue>());
        if (shards > 1)
            queues_.back()->setTraceIdLane(s + 1, shards);
    }
}

Tick
ShardedEngine::curTick() const
{
    Tick t = 0;
    for (const auto &q : queues_)
        t = std::max(t, q->curTick());
    return t;
}

bool
ShardedEngine::empty() const
{
    for (const auto &q : queues_)
        if (!q->empty())
            return false;
    return true;
}

uint64_t
ShardedEngine::numProcessed() const
{
    uint64_t n = 0;
    for (const auto &q : queues_)
        n += q->numProcessed();
    return n;
}

Tick
ShardedEngine::run(Tick max_tick)
{
    const unsigned S = numShards();
    if (S == 1) {
        // Degenerate case: exactly the classic single-queue loop.
        return queues_[0]->run(max_tick);
    }

    for (;;) {
        // Earliest (t1, owned by s1) and second-earliest (t2) next
        // event ticks across the shards.  nextEventTick() is
        // memoized, so shards that did not run since the last round
        // answer in O(1).
        Tick t1 = maxTick;
        Tick t2 = maxTick;
        unsigned s1 = 0;
        for (unsigned s = 0; s < S; ++s) {
            const Tick t = queues_[s]->nextEventTick();
            if (t < t1) {
                t2 = t1;
                t1 = t;
                s1 = s;
            } else if (t < t2) {
                t2 = t;
            }
        }
        if (t1 == maxTick || t1 > max_tick)
            break;

        if (t2 > t1 + 1) {
            // Solo window: only shard s1 has work before t2, and no
            // other shard can make state visible to it before t2 + 1
            // (one tick of link latency past its earliest event).
            // Let it run ahead to min(t2 - 1, max_tick), collapsing
            // the window as soon as it pushes across a shard
            // boundary.
            ++soloWindows_;
            stop_ = false;
            const Tick bound =
                std::min(t2 == maxTick ? max_tick : t2 - 1, max_tick);
            queues_[s1]->runWindow(bound, stop_);
        } else {
            // Lockstep round at t1: every shard with events at t1
            // runs its batch, in ascending shard order (== global
            // router order, reproducing the single-queue schedule).
            ++rounds_;
            for (unsigned s = 0; s < S; ++s) {
                if (queues_[s]->nextEventTick() == t1)
                    queues_[s]->run(t1);
            }
        }
    }
    return curTick();
}

} // namespace tcpni

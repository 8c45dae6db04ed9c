/**
 * @file
 * The sharded simulation engine: conservative-lookahead scheduling
 * over several EventQueues.
 *
 * A ShardedEngine partitions one simulation across S event queues
 * (shard s owns a contiguous band of mesh rows; see ShardPlan) and
 * advances them cooperatively on one host thread:
 *
 *  - Lockstep rounds.  When several shards have events at the global
 *    minimum tick T, each of them runs its tick-T batch, in ascending
 *    shard order.  Because shard order equals router order (rows are
 *    assigned to shards monotonically) and the only cross-shard state
 *    is the mesh's boundary router buffers -- written only by mesh
 *    tick events, which a single global queue would also fire in
 *    ascending router order at networkPri -- the sharded execution
 *    reproduces the single-queue execution exactly.
 *
 *  - Solo windows.  When exactly one shard has events before the
 *    second-earliest tick W, the mesh link latency (one tick per hop)
 *    is a conservative lookahead horizon: no other shard can make
 *    state visible to it before W + 1, so it may run ahead to W - 1
 *    without synchronizing.  The window collapses early if the shard
 *    itself pushes a message across a shard boundary
 *    (noteCrossShardPush()), because the neighbouring shard then has
 *    an event at tick + 1 and the running shard may not advance past
 *    it (a later reply could otherwise land in this shard's past).
 *
 * Determinism: the schedule above is a pure function of the queues'
 * contents, shard results merge in fixed (ascending shard) order, and
 * trace ids come from per-shard lanes (shard s draws s+1, s+1+S, ...),
 * so a sharded run is bit-reproducible.  With S = 1 the engine
 * degenerates to EventQueue::run() on the single queue -- the
 * single-shard configuration is bit-identical to the pre-sharding
 * simulator by construction.
 */

#ifndef TCPNI_SIM_SHARDS_HH
#define TCPNI_SIM_SHARDS_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace tcpni
{

/**
 * Row-contiguous assignment of a width x height mesh to S shards.
 * Row r belongs to shard r * S / height, so every shard owns a
 * contiguous, non-empty band of rows and shard order equals row
 * (and therefore router) order.
 */
struct ShardPlan
{
    unsigned width = 1;
    unsigned height = 1;
    unsigned shards = 1;

    /** Build a plan, clamping @p shards into [1, height]. */
    static ShardPlan
    rows(unsigned width, unsigned height, unsigned shards)
    {
        ShardPlan p;
        p.width = width;
        p.height = height;
        p.shards = shards < 1 ? 1 : (shards > height ? height : shards);
        return p;
    }

    unsigned
    shardOfRow(unsigned row) const
    {
        return static_cast<unsigned>(
            static_cast<uint64_t>(row) * shards / height);
    }

    unsigned shardOfNode(NodeId n) const { return shardOfRow(n / width); }

    /** First row owned by shard @p s. */
    unsigned
    firstRow(unsigned s) const
    {
        return static_cast<unsigned>(
            (static_cast<uint64_t>(s) * height + shards - 1) / shards);
    }
};

class ShardedEngine
{
  public:
    explicit ShardedEngine(unsigned shards = 1);

    unsigned
    numShards() const
    {
        return static_cast<unsigned>(queues_.size());
    }

    EventQueue &shard(unsigned s) { return *queues_.at(s); }
    const EventQueue &shard(unsigned s) const { return *queues_.at(s); }

    /** Tick of the last processed event (max over shards). */
    Tick curTick() const;

    bool empty() const;

    /** Total events processed across all shards. */
    uint64_t numProcessed() const;

    /** Events processed by one shard. */
    uint64_t
    shardProcessed(unsigned s) const
    {
        return queues_.at(s)->numProcessed();
    }

    /**
     * Advance every shard until all queues empty or @p max_tick
     * passes (events at @p max_tick inclusive, like
     * EventQueue::run()).  @return the tick of the last processed
     * event.
     */
    Tick run(Tick max_tick = maxTick);

    /**
     * A component just made state visible to a different shard
     * (e.g. the mesh pushed a message into a boundary router owned by
     * a neighbouring shard).  Collapses the current solo window, if
     * any; always counted.
     */
    void
    noteCrossShardPush()
    {
        stop_ = true;
        ++crossPushes_;
    }

    /** @{ Scheduler self-metrics. */
    uint64_t rounds() const { return rounds_; }
    uint64_t soloWindows() const { return soloWindows_; }
    uint64_t crossShardPushes() const { return crossPushes_; }
    /** @} */

  private:
    std::vector<std::unique_ptr<EventQueue>> queues_;
    /** Set by noteCrossShardPush(); watched by solo windows. */
    bool stop_ = false;
    uint64_t rounds_ = 0;
    uint64_t soloWindows_ = 0;
    uint64_t crossPushes_ = 0;
};

} // namespace tcpni

#endif // TCPNI_SIM_SHARDS_HH

/**
 * @file
 * The full-system harness: a mesh of nodes, each with a processor, a
 * network interface (any of the six models), and local memory.
 *
 * This is the configuration the examples and integration tests run:
 * real assembled handler programs executing on every node, messages
 * crossing a backpressured mesh, and the NI flow-control machinery
 * (queue thresholds, stall-on-full, privileged escrow) exercised
 * end-to-end.
 */

#ifndef TCPNI_SYSTEM_SYSTEM_HH
#define TCPNI_SYSTEM_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "cpu/cpu.hh"
#include "hpu/hpu.hh"
#include "mem/memory.hh"
#include "ni/network_interface.hh"
#include "noc/mesh.hh"
#include "sim/event_queue.hh"
#include "transport/fabric.hh"

namespace tcpni
{

// ---- perfbench compatibility: do not use elsewhere ----------------
// perfbench/ is frozen against the retired sharded engine, so it still
// names the machine's queue ShardedEngine and reads its scheduler
// counters.  Every System runs on exactly one queue: one shard, no
// lockstep rounds, no solo windows, no cross-shard pushes.
struct ShardedEngine : EventQueue
{
    unsigned numShards() const { return 1; }
    uint64_t rounds() const { return 0; }
    uint64_t soloWindows() const { return 0; }
    uint64_t crossShardPushes() const { return 0; }
};
// ---- end perfbench compatibility -----------------------------------

namespace sys
{

/** Per-node configuration. */
struct NodeConfig
{
    Addr memBytes = 1 << 20;
    ni::NiConfig ni;
    CpuConfig cpu;
    HpuConfig hpu;      //!< used only by On-NI placements
};

/**
 * One node: memory + NI + CPU -- plus an HPU when the node's
 * placement executes handlers on the interface itself (a mesh can mix
 * On-NI server nodes with plain clients; heterogeneous NodeConfig
 * vectors are first-class).
 */
class Node
{
  public:
    Node(const std::string &name, EventQueue &eq, NodeId id,
         Network &net, const NodeConfig &cfg);

    Memory &mem() { return *mem_; }
    ni::NetworkInterface &ni() { return *ni_; }
    Cpu &cpu() { return *cpu_; }
    NodeId id() const { return id_; }

    /** The node's HPU; null unless the placement is On-NI. */
    Hpu *hpu() { return hpu_.get(); }

    /** The node's transport policy; null under the default "naive"
     *  (the NI output path is then the paper's, untouched). */
    transport::Policy *transportPolicy() { return tpolicy_.get(); }

    /**
     * Load a program and prepare the node's handler engine to run
     * from @p entry: the CPU normally, the HPU on On-NI nodes (where
     * the handler loop belongs to the interface; use bootHost() for
     * the CPU-side program).  Fatal on a machine of more than
     * maxAddressableNodes nodes, whose ids a global word cannot carry.
     */
    void boot(const isa::Program &prog, Addr entry);

    /** Load a program onto the host CPU explicitly (On-NI nodes run
     *  the proxy service loop -- or anything else -- here).  Fatal
     *  under the same condition as boot(). */
    void bootHost(const isa::Program &prog, Addr entry);

  private:
    void checkAddressable() const;

    NodeId id_;
    unsigned machineNodes_;
    std::unique_ptr<Memory> mem_;
    std::unique_ptr<ni::NetworkInterface> ni_;
    std::unique_ptr<transport::Policy> tpolicy_;
    std::unique_ptr<Cpu> cpu_;
    std::unique_ptr<Hpu> hpu_;
};

/**
 * A width x height mesh machine.
 *
 * Every node's components, the mesh and the credit fabric share one
 * EventQueue: the paper's machine is one synchronous mesh clock
 * driving a processor-interface pair per node.
 */
class System
{
  public:
    System(std::string name, unsigned width, unsigned height,
           const NodeConfig &cfg);

    /** Same configuration on every node except where overridden.
     *  @p shards is ignored (perfbench compatibility, see below). */
    System(std::string name, unsigned width, unsigned height,
           const std::vector<NodeConfig> &cfgs, unsigned shards = 1);

    unsigned numNodes() const
    {
        return static_cast<unsigned>(nodes_.size());
    }

    Node &node(NodeId id) { return *nodes_.at(id); }

    /** The machine's event queue; harness events go here. */
    EventQueue &eventq() { return eq_; }

    MeshNetwork &mesh() { return *mesh_; }

    /** Tick of the last processed event. */
    Tick curTick() const { return eq_.curTick(); }

    /**
     * Run until every booted CPU halts and the network drains, or
     * @p max_ticks elapse.  @return true if the machine quiesced.
     */
    bool run(Tick max_ticks = 10'000'000);

    // ---- perfbench compatibility: do not use elsewhere ------------
    // engine() is the machine's one queue under the retired engine's
    // name (see ShardedEngine above); the queue is declared with that
    // type for this reason only.
    ShardedEngine &engine() { return eq_; }

  private:
    ShardedEngine eq_;
    // ---- end perfbench compatibility -------------------------------

    std::unique_ptr<MeshNetwork> mesh_;
    std::vector<std::unique_ptr<Node>> nodes_;
    std::unique_ptr<transport::CreditFabric> creditFabric_;
};

} // namespace sys
} // namespace tcpni

#endif // TCPNI_SYSTEM_SYSTEM_HH

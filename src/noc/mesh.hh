/**
 * @file
 * A 2D-mesh packet network with finite buffering and backpressure.
 *
 * The paper's machines (J-Machine, CM-5, *T) used low-dimensional
 * direct networks; we model a W x H mesh with dimension-order (XY)
 * routing.  Each router has five input queues (local inject, N, S, E,
 * W) of configurable depth.  Every cycle each output port forwards at
 * most one message from a competing input queue (round-robin
 * arbitration), and only if the downstream queue has space; ejection at
 * the destination is subject to the node sink accepting the message.
 * A full NI input queue therefore backs the network up exactly as
 * Section 2.1.1 describes, eventually refusing injections and filling
 * sender output queues.
 *
 * Messages are transferred whole (store-and-forward at message
 * granularity): a hop takes one cycle and holds its link for that
 * cycle only, whatever the message's length.  This is coarser than a
 * flit-level wormhole model but preserves the property the paper's
 * architecture interacts with: finite buffering with backpressure and
 * in-order delivery per source-destination pair.  The paper's cycle
 * counts leave the network out (DESIGN.md section 2), so the mesh
 * models no link occupancy beyond that cycle.
 *
 * A message lives in one pooled packet from offer() until it is
 * ejected: router input queues hold packet pointers, so a hop moves a
 * pointer and the payload never moves.  Every router's five queues
 * are windows into one shared array of nodes * 5 * depth slots, each
 * with a small head index and length in its router's state, so
 * building a mesh costs a fixed handful of allocations however many
 * routers it has, and the forwarding path performs none once the
 * packet pool reaches its high-water mark.  A packet still in flight
 * when the mesh is destroyed is released with it.
 *
 * One tick event fires each cycle while any message is in flight and
 * visits only the routers in the active set: a bitset with one bit
 * per router, set whenever a message enters the router (inject or
 * hop) and cleared after a visit that leaves all five input queues
 * empty.  Set bits are walked in ascending router order, the order a
 * walk over every router would use, so the schedule is unchanged.
 * Each message's output port at the router it sits in is routed
 * once, when it enters; a per-router head summary (each input head's
 * cached port and the cycle it last moved) lets arbitration read one
 * small struct and touch a packet only for a head that moves.  A
 * refused injection marks its router, and the cycle the local input
 * queue's head leaves wakes the node's injector
 * (Network::setInjectWaker), at that same tick.
 */

#ifndef TCPNI_NOC_MESH_HH
#define TCPNI_NOC_MESH_HH

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "metrics/metrics.hh"
#include "noc/network.hh"
#include "sim/pool.hh"

namespace tcpni
{

/** A W x H mesh network. */
class MeshNetwork : public Network
{
  public:
    /**
     * @param width,height mesh dimensions; node n is at
     *                     (n % width, n / width)
     * @param buffer_depth capacity of each router input queue, in
     *                     [1, maxBufferDepth]
     */
    MeshNetwork(std::string name, EventQueue &eq, unsigned width,
                unsigned height, unsigned buffer_depth = 4);

    ~MeshNetwork() override;

    bool offer(NodeId src, const Message &msg) override;
    bool idle() const override;

    unsigned width() const { return width_; }
    unsigned height() const { return height_; }

    /** Next-hop port (exposed for routing unit tests). */
    enum class Port : uint8_t { local = 0, north, south, east, west };
    static constexpr unsigned numPorts = 5;
    /** Deepest router input queue: each queue's head index and
     *  length are 8-bit counters. */
    static constexpr unsigned maxBufferDepth = 255;
    Port route(NodeId here, NodeId dest) const;

    /** One router's routing state (for tests). */
    struct RouterProbe
    {
        bool active = false;    //!< in the active set
        /** Per input queue: the head summary's cached port (nullopt
         *  when the summary says empty), and every resident message's
         *  (destination, cached port), front first. */
        std::optional<Port> headOut[numPorts];
        std::vector<std::pair<NodeId, Port>> resident[numPorts];
    };
    RouterProbe probe(NodeId node) const;

    uint64_t injected() const { return injected_; }
    const metrics::Histogram &latencyDist() const { return latency_; }

  private:
    /** Per-link metric series are dropped above this size: a 64k-node
     *  mesh would intern ~a million series names for a heatmap nobody
     *  can render. */
    static constexpr unsigned maxLinkStatNodes = 4096;

    /** One message in the fabric, in its pool slot from offer() to
     *  eject. */
    struct Packet
    {
        Message msg;
        Tick injectTick;    //!< when the message entered the fabric
        Tick movedAt;       //!< last cycle this message advanced a hop
        Port out;           //!< output port at the router it sits in
    };

    /** headOut value of an empty input queue. */
    static constexpr uint8_t noHead = 0xff;

    struct RouterState
    {
        // Head summary, kept equal to each queue's front: the head's
        // movedAt and output port (noHead when the queue is empty).
        Tick headMoved[numPorts] = {0, 0, 0, 0, 0};
        uint8_t headOut[numPorts] = {noHead, noHead, noHead, noHead,
                                     noHead};
        // Round-robin arbitration pointer per output port.
        uint8_t rr[numPorts] = {0, 0, 0, 0, 0};
        // Each input queue's front slot and length in slots_.
        uint8_t qHead[numPorts] = {0, 0, 0, 0, 0};
        uint8_t qLen[numPorts] = {0, 0, 0, 0, 0};
        // offer() refused an injection: wake the injector when the
        // local input queue's head leaves.
        bool injectWaiting = false;
    };

    /** x and y of a node, so routing needs no division. */
    struct Coord
    {
        unsigned x, y;
    };

    class TickEvent : public Event
    {
      public:
        explicit TickEvent(MeshNetwork &net)
            : Event(networkPri), net_(net)
        {}
        void process() override { net_.tick(); }
        std::string name() const override { return "mesh-tick"; }

      private:
        MeshNetwork &net_;
    };

    void registerMetrics();

    void tick();
    static Port inputPortFor(Port out);

    /** Index in slots_ of slot @p i of router @p r's input @p in;
     *  the queue is a ring of bufferDepth_ slots read from
     *  RouterState::qHead. */
    size_t slot(NodeId r, unsigned in, unsigned i) const
    {
        return (static_cast<size_t>(r) * numPorts + in) * bufferDepth_ + i;
    }

    /** Append @p p to input @p in of router @p r, routing it there,
     *  and put @p r in the active set. */
    void enqueue(NodeId r, unsigned in, Packet *p);
    /** Remove the front packet of router @p r's input @p in and
     *  reload its head summary. */
    void popFront(NodeId r, unsigned in);

    unsigned width_, height_, bufferDepth_;
    std::vector<RouterState> routers_;
    /** Every router input queue's slots, router-major. */
    std::vector<Packet *> slots_;
    ObjectPool<Packet> packets_;
    std::vector<Coord> coord_;
    /** Node id offset of the neighbor through each output port. */
    int stride_[numPorts];
    /** The active set: bit r % 64 of word r / 64 is set whenever
     *  router r holds a message. */
    std::vector<uint64_t> active_;

    TickEvent tickEvent_;

    uint64_t injected_ = 0;
    metrics::Histogram latency_;

    /** @{ Per-link accounting (index router * numPorts + port),
     *     maintained only when telemetry is on -- the tick loop is
     *     the simulator's hottest path.  A transfer holds its link
     *     for one cycle, so the busy_cycles series reads the xfers. */
    bool linkStats_ = false;
    std::vector<uint64_t> linkXfers_;    //!< messages moved per link
    std::vector<uint64_t> linkBlocked_;  //!< cycles a waiter stalled
    /** @} */

    std::shared_ptr<metrics::Group> mgroup_;
};

} // namespace tcpni

#endif // TCPNI_NOC_MESH_HH

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
 * granularity); a hop takes one cycle.  This is coarser than a
 * flit-level wormhole model but preserves the property the paper's
 * architecture interacts with: finite buffering with backpressure and
 * in-order delivery per source-destination pair.
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
 * small struct and touch a ring buffer only for a head that moves.
 * Router buffers are fixed-capacity rings, so the forwarding path
 * performs no heap allocation.
 */

#ifndef TCPNI_NOC_MESH_HH
#define TCPNI_NOC_MESH_HH

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/ring.hh"
#include "metrics/metrics.hh"
#include "noc/network.hh"

namespace tcpni
{

/** A W x H mesh network. */
class MeshNetwork : public Network
{
  public:
    /**
     * @param width,height    mesh dimensions; node n is at
     *                        (n % width, n / width)
     * @param buffer_depth    capacity of each router input queue
     * @param cycles_per_word link serialization: a message occupies
     *                        the link it traverses for
     *                        length * cycles_per_word cycles (0 =
     *                        message-granularity transfers, the
     *                        default).  With serialization on, long
     *                        SCROLL-OUT messages hold links longer,
     *                        the way multi-flit wormhole packets do.
     */
    MeshNetwork(std::string name, EventQueue &eq, unsigned width,
                unsigned height, unsigned buffer_depth = 4,
                unsigned cycles_per_word = 0);

    ~MeshNetwork() override;

    bool offer(NodeId src, const Message &msg) override;
    bool idle() const override;

    unsigned width() const { return width_; }
    unsigned height() const { return height_; }

    /** Next-hop port (exposed for routing unit tests). */
    enum class Port : uint8_t { local = 0, north, south, east, west };
    static constexpr unsigned numPorts = 5;
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

    struct InFlight
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
        // output port (noHead when the queue is empty) and movedAt.
        uint8_t headOut[numPorts] = {noHead, noHead, noHead, noHead,
                                     noHead};
        // Round-robin arbitration pointer per output port.
        uint8_t rr[numPorts] = {0, 0, 0, 0, 0};
        Tick headMoved[numPorts] = {0, 0, 0, 0, 0};
        // Link serialization: the output port is busy until this tick.
        Tick busyUntil[numPorts] = {0, 0, 0, 0, 0};
        FixedRing<InFlight> inq[numPorts];
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

    /** Append @p m to input @p in of router @p r, routing it there,
     *  and put @p r in the active set. */
    void enqueue(NodeId r, unsigned in, InFlight m);
    /** Reload the head summary of @p router's input @p in. */
    static void refreshHead(RouterState &router, unsigned in);

    unsigned width_, height_, bufferDepth_;
    unsigned cyclesPerWord_;
    std::vector<RouterState> routers_;
    std::vector<Coord> coord_;
    /** Node id offset of the neighbor through each output port. */
    int stride_[numPorts];
    /** The active set: bit r % 64 of word r / 64 is set whenever
     *  router r holds a message. */
    std::vector<uint64_t> active_;

    TickEvent tickEvent_;
    /** Messages resident in router buffers. */
    uint64_t occupied_ = 0;

    uint64_t injected_ = 0;
    metrics::Histogram latency_;

    /** @{ Per-link accounting (index router * numPorts + port),
     *     maintained only when telemetry is on -- the tick loop is
     *     the simulator's hottest path. */
    bool linkStats_ = false;
    std::vector<uint64_t> linkXfers_;    //!< messages moved per link
    std::vector<uint64_t> linkBusy_;     //!< busy (flit-)cycles
    std::vector<uint64_t> linkBlocked_;  //!< cycles a waiter stalled
    /** @} */

    std::shared_ptr<metrics::Group> mgroup_;
};

} // namespace tcpni

#endif // TCPNI_NOC_MESH_HH

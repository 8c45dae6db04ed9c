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
 * One tick event walks every router each cycle while any message is
 * in flight, skipping routers whose five input queues are empty (an
 * empty router changes no arbitration pointer, link reservation or
 * link counter, so the skip is exact).  Router buffers are
 * fixed-capacity rings, so the forwarding path performs no heap
 * allocation.
 */

#ifndef TCPNI_NOC_MESH_HH
#define TCPNI_NOC_MESH_HH

#include <memory>
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
    Port route(NodeId here, NodeId dest) const;

    /** Occupancy of a router input queue (for tests). */
    size_t queueDepth(NodeId node, Port port) const;

    uint64_t injected() const { return injected_; }
    const metrics::Histogram &latencyDist() const { return latency_; }

  private:
    static constexpr unsigned numPorts = 5;

    /** Per-link metric series are dropped above this size: a 64k-node
     *  mesh would intern ~a million series names for a heatmap nobody
     *  can render. */
    static constexpr unsigned maxLinkStatNodes = 4096;

    struct InFlight
    {
        Message msg;
        Tick injectTick;    //!< when the message entered the fabric
        Tick movedAt;       //!< last cycle this message advanced a hop
    };

    struct RouterState
    {
        FixedRing<InFlight> inq[numPorts];
        // Round-robin arbitration pointer per output port.
        unsigned rr[numPorts] = {0, 0, 0, 0, 0};
        // Link serialization: the output port is busy until this tick.
        Tick busyUntil[numPorts] = {0, 0, 0, 0, 0};

        bool
        empty() const
        {
            for (const auto &q : inq)
                if (!q.empty())
                    return false;
            return true;
        }
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
    NodeId neighbor(NodeId here, Port out) const;
    static Port inputPortFor(Port out);

    /** True when some head wants output @p out of router @p r and has
     *  not already advanced this cycle (link-contention accounting). */
    bool hasWaiter(const RouterState &router, NodeId r, Port out,
                   Tick now) const;

    unsigned width_, height_, bufferDepth_;
    unsigned cyclesPerWord_;
    std::vector<RouterState> routers_;

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

#include "noc/mesh.hh"

#include <bit>

#include "common/logging.hh"
#include "common/trace.hh"

namespace tcpni
{

MeshNetwork::MeshNetwork(std::string name, EventQueue &eq, unsigned width,
                         unsigned height, unsigned buffer_depth)
    : Network(std::move(name), eq, width * height), width_(width),
      height_(height), bufferDepth_(buffer_depth),
      routers_(width * height), coord_(width * height),
      stride_{0, -static_cast<int>(width), static_cast<int>(width), 1,
              -1},
      active_((width * height + 63) / 64, 0), tickEvent_(*this)
{
    tcpni_assert(width_ > 0 && height_ > 0);
    if (bufferDepth_ < 1 || bufferDepth_ > maxBufferDepth) {
        fatal("mesh '%s': buffer_depth %u is outside [1, %u] (router "
              "queue heads and lengths are 8-bit counters)",
              this->name().c_str(), bufferDepth_, maxBufferDepth);
    }
    slots_.assign(static_cast<size_t>(numNodes()) * numPorts *
                      bufferDepth_,
                  nullptr);
    for (NodeId n = 0; n < numNodes(); ++n)
        coord_[n] = {n % width_, n / width_};
    registerMetrics();
}

void
MeshNetwork::registerMetrics()
{
    if (auto *reg = metrics::registry()) {
        mgroup_ = reg->addGroup(this->name(), eventq());
        mgroup_->addCounter("injected", [this] { return injected_; },
                            "messages accepted into the fabric");
        mgroup_->addGauge("occupied",
                          [this] { return packets_.live(); },
                          "messages resident in router queues");
        mgroup_->addHistogram("latency", &latency_,
                              "inject to eject (cycles)");

        if (numNodes() > maxLinkStatNodes)
            return;

        // Per-link utilization counters: these feed the congestion
        // heatmap, one series triple per (router, output port).
        linkStats_ = true;
        linkXfers_.assign(numNodes() * numPorts, 0);
        linkBlocked_.assign(numNodes() * numPorts, 0);
        static const char *const port_names[numPorts] = {
            "local", "north", "south", "east", "west"};
        for (NodeId r = 0; r < numNodes(); ++r) {
            for (unsigned p = 0; p < numPorts; ++p) {
                const size_t li = r * numPorts + p;
                const std::string base = "node" + std::to_string(r) +
                                         "." + port_names[p];
                mgroup_->addCounter(
                    base + ".xfers",
                    [this, li] { return linkXfers_[li]; },
                    "messages forwarded over this link");
                mgroup_->addCounter(
                    base + ".busy_cycles",
                    [this, li] { return linkXfers_[li]; },
                    "cycles this link spent transferring");
                mgroup_->addCounter(
                    base + ".blocked_cycles",
                    [this, li] { return linkBlocked_[li]; },
                    "cycles a ready message waited for this link");
            }
        }
    }
}

MeshNetwork::~MeshNetwork()
{
    if (mgroup_)
        mgroup_->retire();
    // The pool frees its slabs without running destructors: release
    // every packet still in flight, and the extra words it owns.
    for (NodeId r = 0; r < numNodes(); ++r) {
        for (unsigned in = 0; in < numPorts; ++in) {
            while (routers_[r].qLen[in] > 0) {
                Packet *p = slots_[slot(r, in, routers_[r].qHead[in])];
                popFront(r, in);
                packets_.release(p);
            }
        }
    }
}

MeshNetwork::Port
MeshNetwork::route(NodeId here, NodeId dest) const
{
    tcpni_assert(here < numNodes() && dest < numNodes());
    const Coord h = coord_[here], d = coord_[dest];
    // Dimension-order: correct X first, then Y.
    if (d.x > h.x)
        return Port::east;
    if (d.x < h.x)
        return Port::west;
    if (d.y > h.y)
        return Port::south;
    if (d.y < h.y)
        return Port::north;
    return Port::local;
}

MeshNetwork::Port
MeshNetwork::inputPortFor(Port out)
{
    // A message leaving my east port arrives on the neighbor's west
    // input, and so on.
    switch (out) {
      case Port::east: return Port::west;
      case Port::west: return Port::east;
      case Port::north: return Port::south;
      case Port::south: return Port::north;
      default: panic("inputPortFor(local)");
    }
}

MeshNetwork::RouterProbe
MeshNetwork::probe(NodeId node) const
{
    const RouterState &router = routers_.at(node);
    RouterProbe p;
    p.active = (active_[node / 64] >> (node % 64)) & 1;
    for (unsigned in = 0; in < numPorts; ++in) {
        if (router.headOut[in] != noHead)
            p.headOut[in] = static_cast<Port>(router.headOut[in]);
        for (unsigned i = 0; i < router.qLen[in]; ++i) {
            const Packet *pk = slots_[slot(
                node, in, (router.qHead[in] + i) % bufferDepth_)];
            p.resident[in].emplace_back(pk->msg.dest(), pk->out);
        }
    }
    return p;
}

void
MeshNetwork::enqueue(NodeId r, unsigned in, Packet *p)
{
    p->out = route(r, p->msg.dest());
    RouterState &router = routers_[r];
    unsigned tail = router.qHead[in] + router.qLen[in];
    if (tail >= bufferDepth_)
        tail -= bufferDepth_;
    slots_[slot(r, in, tail)] = p;
    if (++router.qLen[in] == 1) {
        router.headOut[in] = static_cast<uint8_t>(p->out);
        router.headMoved[in] = p->movedAt;
    }
    active_[r / 64] |= uint64_t(1) << (r % 64);
}

void
MeshNetwork::popFront(NodeId r, unsigned in)
{
    RouterState &router = routers_[r];
    router.qHead[in] = router.qHead[in] + 1u == bufferDepth_
                           ? 0
                           : static_cast<uint8_t>(router.qHead[in] + 1);
    if (--router.qLen[in] == 0) {
        router.headOut[in] = noHead;
        return;
    }
    const Packet *front = slots_[slot(r, in, router.qHead[in])];
    router.headOut[in] = static_cast<uint8_t>(front->out);
    router.headMoved[in] = front->movedAt;
}

bool
MeshNetwork::offer(NodeId src, const Message &msg)
{
    tcpni_assert(src < numNodes());
    if (msg.dest() >= numNodes()) {
        panic("message addressed to nonexistent node %u: %s", msg.dest(),
              msg.toString().c_str());
    }
    const Tick now = curTick();
    const unsigned local = static_cast<unsigned>(Port::local);
    if (routers_[src].qLen[local] >= bufferDepth_) {
        TCPNI_TRACE(NOC, "refuse injection at node %u (buffer full)",
                    src);
        routers_[src].injectWaiting = true;
        return false;
    }
    TCPNI_TRACE(NOC, "accept id=%llu at node %u for node %u",
                static_cast<unsigned long long>(msg.traceId), src,
                msg.dest());
    enqueue(src, local, packets_.acquire(msg, now, now, Port::local));
    ++injected_;
    if (!tickEvent_.scheduled())
        eventq().schedule(&tickEvent_, now + 1);
    return true;
}

bool
MeshNetwork::idle() const
{
    return packets_.live() == 0;
}

void
MeshNetwork::tick()
{
    const Tick now = curTick();

    // Routers that join the active set during the walk hold only
    // messages with movedAt == now, which cannot move again this
    // cycle, so visiting or skipping them is the same.
    for (size_t w = 0; w < active_.size(); ++w) {
        for (uint64_t bits = active_[w]; bits; bits &= bits - 1) {
            const NodeId r =
                static_cast<NodeId>(w * 64 + std::countr_zero(bits));
            RouterState &router = routers_[r];

            // The output ports some head is ready to take (it did not
            // already advance this cycle).
            unsigned wanted = 0;
            for (unsigned in = 0; in < numPorts; ++in) {
                if (router.headOut[in] != noHead &&
                    router.headMoved[in] != now)
                    wanted |= 1u << router.headOut[in];
            }

            // Each output port, in ascending order, forwards at most
            // one message per cycle.  A head exposed by a move may
            // still take a later port this cycle.
            while (wanted) {
                const unsigned out = std::countr_zero(wanted);
                wanted &= wanted - 1;
                const size_t li = r * numPorts + out;
                // A refused hop leaves the downstream queue full for
                // every other candidate too.
                NodeId dst = r;
                unsigned dst_in = 0;
                const bool eject = out == static_cast<unsigned>(Port::local);
                if (!eject) {
                    dst = r + stride_[out];
                    tcpni_assert(dst < numNodes());
                    dst_in = static_cast<unsigned>(
                        inputPortFor(static_cast<Port>(out)));
                    if (routers_[dst].qLen[dst_in] >= bufferDepth_) {
                        if (linkStats_)
                            ++linkBlocked_[li];
                        continue;
                    }
                }
                // Round-robin over input ports for this output.
                bool moved = false;
                unsigned in = router.rr[out];
                for (unsigned k = 0; k < numPorts && !moved;
                     ++k, in = in + 1 == numPorts ? 0 : in + 1) {
                    if (router.headOut[in] != out ||
                        router.headMoved[in] == now)
                        continue;
                    Packet *head = slots_[slot(r, in, router.qHead[in])];
                    if (eject) {
                        if (!deliver(head->msg))
                            continue;
                        latency_.record(now - head->injectTick);
                        TCPNI_TRACE(NOC, "eject id=%llu at node %u "
                                    "(%llu cycles in fabric)",
                                    static_cast<unsigned long long>(
                                        head->msg.traceId), r,
                                    static_cast<unsigned long long>(
                                        now - head->injectTick));
                        popFront(r, in);
                        packets_.release(head);
                    } else {
                        popFront(r, in);
                        head->movedAt = now;
                        if (auto *s = trace::sink())
                            s->record(head->msg.traceId,
                                      trace::Stage::hop, dst, now,
                                      head->msg.type,
                                      eventq().queueId());
                        TCPNI_TRACE(NOC, "hop id=%llu node %u -> %u",
                                    static_cast<unsigned long long>(
                                        head->msg.traceId), r, dst);
                        enqueue(dst, dst_in, head);
                    }
                    moved = true;
                    if (in == static_cast<unsigned>(Port::local) &&
                        router.injectWaiting) {
                        router.injectWaiting = false;
                        wakeInjector(r);
                    }
                    if (router.headOut[in] != noHead &&
                        router.headOut[in] > out &&
                        router.headMoved[in] != now)
                        wanted |= 1u << router.headOut[in];
                    router.rr[out] = in + 1 == numPorts ? 0 : in + 1;
                    if (linkStats_)
                        ++linkXfers_[li];
                }
                // A ready head wanted this output but nothing moved:
                // charge one contention cycle to the link.
                if (linkStats_ && !moved)
                    ++linkBlocked_[li];
            }

            bool empty = true;
            for (unsigned in = 0; in < numPorts; ++in)
                empty = empty && router.headOut[in] == noHead;
            if (empty)
                active_[w] &= ~(uint64_t(1) << (r % 64));
        }
    }

    // A sink that offered from inside deliver() has already scheduled
    // the next tick.
    if (packets_.live() > 0 && !tickEvent_.scheduled())
        eventq().schedule(&tickEvent_, now + 1);
}

} // namespace tcpni

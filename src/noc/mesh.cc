#include "noc/mesh.hh"

#include <bit>

#include "common/logging.hh"
#include "common/trace.hh"

namespace tcpni
{

MeshNetwork::MeshNetwork(std::string name, EventQueue &eq, unsigned width,
                         unsigned height, unsigned buffer_depth,
                         unsigned cycles_per_word)
    : Network(std::move(name), eq, width * height), width_(width),
      height_(height), bufferDepth_(buffer_depth),
      cyclesPerWord_(cycles_per_word), routers_(width * height),
      coord_(width * height),
      stride_{0, -static_cast<int>(width), static_cast<int>(width), 1,
              -1},
      active_((width * height + 63) / 64, 0), tickEvent_(*this)
{
    tcpni_assert(width_ > 0 && height_ > 0);
    tcpni_assert(bufferDepth_ > 0);
    for (auto &router : routers_)
        for (auto &q : router.inq)
            q.reset(bufferDepth_);
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
        mgroup_->addGauge("occupied", [this] { return occupied_; },
                          "messages resident in router queues");
        mgroup_->addHistogram("latency", &latency_,
                              "inject to eject (cycles)");

        if (numNodes() > maxLinkStatNodes)
            return;

        // Per-link utilization counters: these feed the congestion
        // heatmap, one series triple per (router, output port).
        linkStats_ = true;
        linkXfers_.assign(numNodes() * numPorts, 0);
        linkBusy_.assign(numNodes() * numPorts, 0);
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
                    [this, li] { return linkBusy_[li]; },
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
        const auto &q = router.inq[in];
        for (size_t i = 0; i < q.size(); ++i)
            p.resident[in].emplace_back(q[i].msg.dest(), q[i].out);
    }
    return p;
}

void
MeshNetwork::refreshHead(RouterState &router, unsigned in)
{
    const auto &q = router.inq[in];
    if (q.empty()) {
        router.headOut[in] = noHead;
        return;
    }
    router.headOut[in] = static_cast<uint8_t>(q.front().out);
    router.headMoved[in] = q.front().movedAt;
}

void
MeshNetwork::enqueue(NodeId r, unsigned in, InFlight m)
{
    m.out = route(r, m.msg.dest());
    auto &q = routers_[r].inq[in];
    q.push_back(std::move(m));
    if (q.size() == 1)
        refreshHead(routers_[r], in);
    active_[r / 64] |= uint64_t(1) << (r % 64);
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
    if (routers_[src].inq[local].size() >= bufferDepth_) {
        TCPNI_TRACE(NOC, "refuse injection at node %u (buffer full)",
                    src);
        return false;
    }
    TCPNI_TRACE(NOC, "accept id=%llu at node %u for node %u",
                static_cast<unsigned long long>(msg.traceId), src,
                msg.dest());
    enqueue(src, local, {msg, now, now, Port::local});
    ++injected_;
    ++occupied_;
    if (!tickEvent_.scheduled())
        eventq().schedule(&tickEvent_, now + 1);
    return true;
}

bool
MeshNetwork::idle() const
{
    return occupied_ == 0;
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
                // Link serialization: a long message holds the port.
                if (router.busyUntil[out] > now) {
                    if (linkStats_)
                        ++linkBlocked_[li];
                    continue;
                }
                // A refused hop leaves the downstream queue full for
                // every other candidate too.
                NodeId dst = r;
                unsigned dst_in = 0;
                FixedRing<InFlight> *dq = nullptr;
                if (out != static_cast<unsigned>(Port::local)) {
                    dst = r + stride_[out];
                    tcpni_assert(dst < numNodes());
                    dst_in = static_cast<unsigned>(
                        inputPortFor(static_cast<Port>(out)));
                    dq = &routers_[dst].inq[dst_in];
                    if (dq->size() >= bufferDepth_) {
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
                    auto &q = router.inq[in];
                    InFlight &head = q.front();
                    const size_t head_len = head.msg.length();
                    if (!dq) {
                        if (!deliver(head.msg))
                            continue;
                        latency_.record(now - head.injectTick);
                        TCPNI_TRACE(NOC, "eject id=%llu at node %u "
                                    "(%llu cycles in fabric)",
                                    static_cast<unsigned long long>(
                                        head.msg.traceId), r,
                                    static_cast<unsigned long long>(
                                        now - head.injectTick));
                        q.pop_front();
                        --occupied_;
                    } else {
                        InFlight m = std::move(head);
                        q.pop_front();
                        m.movedAt = now;
                        if (auto *s = trace::sink())
                            s->record(m.msg.traceId, trace::Stage::hop,
                                      dst, now, m.msg.type,
                                      eventq().queueId());
                        TCPNI_TRACE(NOC, "hop id=%llu node %u -> %u",
                                    static_cast<unsigned long long>(
                                        m.msg.traceId), r, dst);
                        enqueue(dst, dst_in, std::move(m));
                    }
                    moved = true;
                    refreshHead(router, in);
                    if (router.headOut[in] != noHead &&
                        router.headOut[in] > out &&
                        router.headMoved[in] != now)
                        wanted |= 1u << router.headOut[in];
                    router.rr[out] = in + 1 == numPorts ? 0 : in + 1;
                    if (cyclesPerWord_ > 0) {
                        router.busyUntil[out] =
                            now + static_cast<Tick>(cyclesPerWord_) *
                                      head_len;
                    }
                    if (linkStats_) {
                        ++linkXfers_[li];
                        linkBusy_[li] +=
                            cyclesPerWord_ > 0
                                ? static_cast<uint64_t>(
                                      cyclesPerWord_) * head_len
                                : 1;
                    }
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

    if (occupied_ > 0)
        eventq().schedule(&tickEvent_, now + 1);
}

} // namespace tcpni

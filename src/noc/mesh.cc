#include "noc/mesh.hh"

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
      tickEvent_(*this)
{
    tcpni_assert(width_ > 0 && height_ > 0);
    tcpni_assert(bufferDepth_ > 0);
    for (auto &router : routers_)
        for (auto &q : router.inq)
            q.reset(bufferDepth_);
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
    unsigned hx = here % width_, hy = here / width_;
    unsigned dx = dest % width_, dy = dest / width_;
    // Dimension-order: correct X first, then Y.
    if (dx > hx)
        return Port::east;
    if (dx < hx)
        return Port::west;
    if (dy > hy)
        return Port::south;
    if (dy < hy)
        return Port::north;
    return Port::local;
}

NodeId
MeshNetwork::neighbor(NodeId here, Port out) const
{
    unsigned hx = here % width_, hy = here / width_;
    switch (out) {
      case Port::east:
        tcpni_assert(hx + 1 < width_);
        return here + 1;
      case Port::west:
        tcpni_assert(hx > 0);
        return here - 1;
      case Port::south:
        tcpni_assert(hy + 1 < height_);
        return here + width_;
      case Port::north:
        tcpni_assert(hy > 0);
        return here - width_;
      default:
        panic("neighbor() of local port");
    }
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

size_t
MeshNetwork::queueDepth(NodeId node, Port port) const
{
    return routers_.at(node).inq[static_cast<unsigned>(port)].size();
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
    auto &q = routers_[src].inq[static_cast<unsigned>(Port::local)];
    if (q.size() >= bufferDepth_) {
        TCPNI_TRACE(NOC, "refuse injection at node %u (buffer full)",
                    src);
        return false;
    }
    TCPNI_TRACE(NOC, "accept id=%llu at node %u for node %u",
                static_cast<unsigned long long>(msg.traceId), src,
                msg.dest());
    q.push_back({msg, now, now});
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

bool
MeshNetwork::hasWaiter(const RouterState &router, NodeId r, Port out,
                       Tick now) const
{
    for (unsigned in = 0; in < numPorts; ++in) {
        const auto &q = router.inq[in];
        if (q.empty())
            continue;
        const InFlight &head = q.front();
        if (head.movedAt == now)
            continue;
        if (route(r, head.msg.dest()) == out)
            return true;
    }
    return false;
}

void
MeshNetwork::tick()
{
    const Tick now = curTick();

    for (NodeId r = 0; r < numNodes(); ++r) {
        RouterState &router = routers_[r];
        if (router.empty())
            continue;
        // Consider each output port in a fixed order; each forwards at
        // most one message per cycle.
        static const Port outputs[] = {Port::local, Port::north,
                                       Port::south, Port::east,
                                       Port::west};
        for (Port out : outputs) {
            unsigned out_idx = static_cast<unsigned>(out);
            // Link serialization: a long message holds the port.
            if (router.busyUntil[out_idx] > now) {
                if (linkStats_ && hasWaiter(router, r, out, now))
                    ++linkBlocked_[r * numPorts + out_idx];
                continue;
            }
            bool moved_any = false;
            bool contended = false;
            // Round-robin over input ports for this output.
            for (unsigned k = 0; k < numPorts; ++k) {
                unsigned in_idx = (router.rr[out_idx] + k) % numPorts;
                auto &q = router.inq[in_idx];
                if (q.empty())
                    continue;
                InFlight &head = q.front();
                // A message that already advanced this cycle (a router
                // with a lower index pushed it downstream) must wait
                // for the next cycle: one hop per cycle.
                if (head.movedAt == now)
                    continue;
                if (route(r, head.msg.dest()) != out)
                    continue;
                contended = true;
                const size_t head_len = head.msg.length();

                bool moved = false;
                if (out == Port::local) {
                    if (deliver(head.msg)) {
                        latency_.record(now - head.injectTick);
                        TCPNI_TRACE(NOC, "eject id=%llu at node %u "
                                    "(%llu cycles in fabric)",
                                    static_cast<unsigned long long>(
                                        head.msg.traceId), r,
                                    static_cast<unsigned long long>(
                                        now - head.injectTick));
                        q.pop_front();
                        --occupied_;
                        moved = true;
                    }
                } else {
                    NodeId dst = neighbor(r, out);
                    auto &dq = routers_[dst]
                        .inq[static_cast<unsigned>(inputPortFor(out))];
                    if (dq.size() < bufferDepth_) {
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
                        dq.push_back(std::move(m));
                        moved = true;
                    }
                }
                if (moved) {
                    router.rr[out_idx] = (in_idx + 1) % numPorts;
                    if (cyclesPerWord_ > 0) {
                        router.busyUntil[out_idx] =
                            now + static_cast<Tick>(cyclesPerWord_) *
                                      head_len;
                    }
                    if (linkStats_) {
                        const size_t li = r * numPorts + out_idx;
                        ++linkXfers_[li];
                        linkBusy_[li] +=
                            cyclesPerWord_ > 0
                                ? static_cast<uint64_t>(
                                      cyclesPerWord_) * head_len
                                : 1;
                    }
                    moved_any = true;
                    break;
                }
            }
            // A ready head wanted this output but nothing moved:
            // charge one contention cycle to the link.
            if (linkStats_ && contended && !moved_any)
                ++linkBlocked_[r * numPorts + out_idx];
        }
    }

    if (occupied_ > 0)
        eventq().schedule(&tickEvent_, now + 1);
}

} // namespace tcpni

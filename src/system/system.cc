#include "system/system.hh"

#include "common/logging.hh"
#include "ni/placement_policy.hh"

namespace tcpni
{
namespace sys
{

Node::Node(const std::string &name, EventQueue &eq, NodeId id,
           Network &net, const NodeConfig &cfg)
    : id_(id), machineNodes_(net.numNodes())
{
    cfg.ni.validate();
    mem_ = std::make_unique<Memory>(cfg.memBytes);
    ni_ = std::make_unique<ni::NetworkInterface>(name + ".ni", eq, id,
                                                 net, cfg.ni);
    if (cfg.ni.transport.policy != "naive") {
        tpolicy_ = transport::makePolicy(cfg.ni.transport);
        tpolicy_->attachMetrics(name + ".transport", eq);
        ni_->setTransportPolicy(tpolicy_.get());
    }
    if (cfg.ni.policy().handlersOnNi()) {
        hpu_ = std::make_unique<Hpu>(name + ".hpu", eq, *mem_, *ni_,
                                     cfg.hpu);
    }
    // The CPU comes last so its interrupt sink is the one installed
    // (the HPU registers none: it *is* the reception path).
    cpu_ = std::make_unique<Cpu>(name + ".cpu", eq, *mem_, ni_.get(),
                                 cfg.cpu);
}

void
Node::checkAddressable() const
{
    // Kernels name nodes through global words, whose node field holds
    // nodeBits bits: on a larger machine node ids would silently wrap
    // (node 300 reads back as node 44).
    if (machineNodes_ > maxAddressableNodes) {
        fatal("cannot boot a kernel on node %u of a %u-node machine: "
              "global words address at most %u nodes",
              id_, machineNodes_, maxAddressableNodes);
    }
}

void
Node::boot(const isa::Program &prog, Addr entry)
{
    checkAddressable();
    if (hpu_) {
        hpu_->loadProgram(prog);
        hpu_->reset(entry);
        hpu_->start();
        return;
    }
    cpu_->loadProgram(prog);
    cpu_->reset(entry);
    cpu_->start();
}

void
Node::bootHost(const isa::Program &prog, Addr entry)
{
    checkAddressable();
    cpu_->loadProgram(prog);
    cpu_->reset(entry);
    cpu_->start();
}

System::System(std::string name, unsigned width, unsigned height,
               const NodeConfig &cfg)
    : System(std::move(name), width, height,
             std::vector<NodeConfig>(width * height, cfg))
{
}

System::System(std::string name, unsigned width, unsigned height,
               const std::vector<NodeConfig> &cfgs)
    : System(std::move(name), width, height, cfgs, 1)
{
}

System::System(std::string name, unsigned width, unsigned height,
               const std::vector<NodeConfig> &cfgs, unsigned shards)
    : plan_(ShardPlan::rows(width, height, shards)),
      engine_(plan_.shards)
{
    tcpni_assert(cfgs.size() == static_cast<size_t>(width) * height);
    mesh_ = std::make_unique<MeshNetwork>(name + ".mesh", engine_,
                                          plan_);
    for (NodeId id = 0; id < width * height; ++id) {
        nodes_.push_back(std::make_unique<Node>(
            name + ".node" + std::to_string(id),
            engine_.shard(plan_.shardOfNode(id)), id, *mesh_,
            cfgs[id]));
    }

    // Wire the credit-return fabric when any node runs a
    // credit-consuming transport policy.  Every interface reports
    // deliveries to the fabric (it ignores senders without a slot), so
    // a mesh can mix windowed and unwindowed nodes freely.
    bool any_credits = false;
    for (auto &n : nodes_) {
        auto *p = n->transportPolicy();
        if (p && p->wantsCredits())
            any_credits = true;
    }
    if (any_credits) {
        creditFabric_ =
            std::make_unique<transport::CreditFabric>(engine_, plan_);
        for (auto &n : nodes_) {
            auto *p = n->transportPolicy();
            if (p && p->wantsCredits()) {
                creditFabric_->addSender(n->id(), p,
                                         queueForNode(n->id()));
            }
            n->ni().setCreditFabric(creditFabric_.get());
        }
    }
}

bool
System::run(Tick max_ticks)
{
    // Run until the event queue empties (all CPUs halted and the
    // fabric drained -- halted CPUs schedule no further events) or the
    // deadline passes (e.g. a server is still polling).
    Tick deadline = engine_.curTick() + max_ticks;
    engine_.run(deadline);

    bool quiesced = true;
    for (auto &n : nodes_) {
        if (n->cpu().instructions() > 0 && !n->cpu().halted())
            quiesced = false;
        if (n->hpu() && n->hpu()->instructions() > 0 &&
            !n->hpu()->halted())
            quiesced = false;
        if (n->ni().outputQueueLen() > 0)
            quiesced = false;
    }
    if (!mesh_->idle())
        quiesced = false;
    return quiesced;
}

} // namespace sys
} // namespace tcpni

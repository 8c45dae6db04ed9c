#include "cost/table1.hh"

#include <memory>

#include "common/logging.hh"
#include "cpu/cpu.hh"
#include "hpu/hpu.hh"
#include "msg/protocol.hh"
#include "ni/network_interface.hh"
#include "ni/placement_policy.hh"
#include "noc/network.hh"

namespace tcpni
{
namespace cost
{

using msg::Kind;

namespace
{

// Local addresses used by the measurement workload on the server node.
constexpr Addr frameAddr = 0x2000;      //!< Send-message target frame
constexpr Addr readVarAddr = 0x2100;    //!< Read/Write target word
constexpr Addr elemBase = 0x2200;       //!< I-structure elements
constexpr Addr nodeHeap = 0x30000;      //!< preallocated deferred nodes
constexpr Addr allocHeap = 0x40000;     //!< bump-allocator arena

constexpr unsigned kSmall = 4;
constexpr unsigned kLarge = 12;

Addr
elemAddr(unsigned k)
{
    return elemBase + k * msg::istructElemSize;
}

/**
 * The node memory of every run on this thread, cleared for the run
 * that takes it.  A run writes a few pages of it, so clearing those
 * costs far less than zero-filling a fresh 1 MB memory per run.  It
 * is per thread, not per harness, so that building a harness stays
 * free of it; runs never nest, so one memory per thread suffices.
 */
Memory &
runMemory()
{
    thread_local Memory mem(1 << 20);
    mem.clear();
    return mem;
}

} // namespace

std::string
procCaseName(ProcCase c)
{
    const ProcCaseInfo &pc = procCaseInfo(c);
    std::string name = msg::kindInfo(pc.kind).name;
    if (pc.state)
        name = name + " (" + pc.state + ")";
    return name;
}

Table1Harness::Table1Harness(ni::Model model, bool basic_sw_checks,
                             bool no_overlap)
    : model_(model),
      handlerProg_(&msg::cachedKernel(
          msg::handlerProgram(model_, basic_sw_checks, no_overlap)))
{
    if (model_.policy().handlersOnNi)
        hostProg_ = &msg::cachedKernel(msg::hostProxyProgram(model_));
}

ni::NiConfig
Table1Harness::config() const
{
    ni::NiConfig cfg = model_.config();
    cfg.inputQueueDepth = 64;
    cfg.outputQueueDepth = 64;
    // Thresholds high enough that the preloaded stream never trips the
    // iafull/oafull variants.
    cfg.inputThreshold = 255;
    cfg.outputThreshold = 255;
    return cfg;
}

std::vector<Message>
Table1Harness::makeMsgs(ProcCase c, unsigned k)
{
    const bool opt = model_.optimized;
    std::vector<Message> msgs;

    auto craft = [&](uint8_t type, unsigned basic_id,
                     const std::array<Word, 4> &w) {
        Message m;
        m.words = {w[0], w[1], w[2], w[3], opt ? 0u : basic_id};
        m.type = opt ? type : 0;
        m.src = 0;
        m.setDestFromWord0();
        return m;
    };

    // Continuations point back at node 0 (a plain NI absorbs replies).
    const Word reply_fp = globalWord(0, 0x50);
    const Word reply_ip = 0x60;

    const Kind kind = procCaseInfo(c).kind;
    const msg::KindInfo &info = msg::kindInfo(kind);
    // Basic models dispatch a Send by its id alone.
    const Word send_ip =
        opt && info.inlet ? handlerProg_->addrOf(info.inlet) : 0x60;
    for (unsigned i = 0; i < k; ++i) {
        std::array<Word, 4> w{};
        switch (kind) {
          case Kind::send0:
          case Kind::send1:
          case Kind::send2:
            w = {globalWord(1, frameAddr), send_ip, 0x1234, 0x5678};
            break;
          case Kind::read:
            w = {globalWord(1, readVarAddr), reply_fp, reply_ip, 0};
            break;
          case Kind::write:
            w = {globalWord(1, readVarAddr), 0xbeef, 0, 0};
            break;
          case Kind::pread:
            w = {globalWord(1, elemAddr(i)), reply_fp, reply_ip, 0};
            break;
          case Kind::pwrite:
            // w1 = ack word (0: no ack), w2 = value.
            w = {globalWord(1, elemAddr(i)), 0, 0x4242, 0};
            break;
        }
        msgs.push_back(craft(info.type, info.basicId, w));
    }

    // The STOP message halts the server.
    msgs.push_back(craft(msg::typeStop, msg::typeStop,
                         {globalWord(1, 0), 0, 0, 0}));
    return msgs;
}

std::function<void(Memory &)>
Table1Harness::memPrep(ProcCase c, unsigned n, unsigned k)
{
    return [c, n, k](Memory &mem) {
        mem.write(msg::allocPtrAddr, allocHeap);
        mem.write(readVarAddr, 0x7777);

        auto chain = [&](unsigned i) {
            // Build an n-node deferred chain for element i; returns the
            // head node address.
            Addr first = nodeHeap +
                         (i * 8) * msg::defNodeSize;    // 8 > max n
            for (unsigned j = 0; j < n; ++j) {
                Addr node = first + j * msg::defNodeSize;
                mem.write(node + msg::defNodeFpOffset,
                          globalWord(0, 0x70));
                mem.write(node + msg::defNodeIpOffset, 0x80);
                Addr next = j + 1 < n ? node + msg::defNodeSize : 0;
                mem.write(node + msg::defNodeNextOffset, next);
            }
            return first;
        };

        for (unsigned i = 0; i < k; ++i) {
            Addr e = elemAddr(i);
            switch (c) {
              case ProcCase::preadFull:
                mem.write(e + msg::istructTagOffset, msg::tagFull);
                mem.write(e + msg::istructValueOffset, 0x1000 + i);
                break;
              case ProcCase::preadEmpty:
              case ProcCase::pwriteEmpty:
                mem.write(e + msg::istructTagOffset, msg::tagEmpty);
                break;
              case ProcCase::preadDeferred:
              case ProcCase::pwriteDeferred:
                mem.write(e + msg::istructTagOffset, msg::tagDeferred);
                mem.write(e + msg::istructValueOffset,
                          chain(i));
                break;
              default:
                break;
            }
        }
    };
}

Table1Harness::RunResult
Table1Harness::runServer(const std::vector<Message> &msgs,
                         const std::function<void(Memory &)> &mem_prep)
{
    EventQueue eq;
    IdealNetwork net("net", eq, 2, 1);
    Memory &mem1 = runMemory();
    ni::NiConfig cfg = config();
    ni::NiConfig client_cfg = cfg;
    client_cfg.inputQueueDepth = 1024;
    ni::NetworkInterface ni0("ni0", eq, 0, net, client_cfg);
    ni::NetworkInterface ni1("ni1", eq, 1, net, cfg);

    mem_prep(mem1);

    if (model_.policy().handlersOnNi) {
        // On-NI models: the handler kernel runs on the interface's
        // HPU; the host CPU runs the proxy service loop that drains
        // the escape ring (deferred-list work and the STOP).
        Hpu hpu1("hpu1", eq, mem1, ni1);
        Cpu cpu1("cpu1", eq, mem1, &ni1);

        hpu1.loadProgram(*handlerProg_);
        cpu1.loadProgram(*hostProg_);
        for (const Message &m : msgs) {
            bool ok = ni1.acceptFromNetwork(m);
            tcpni_assert(ok);
        }
        hpu1.reset(handlerProg_->addrOf("entry"));
        cpu1.reset(hostProg_->addrOf("entry"));
        hpu1.start();
        cpu1.start();
        eq.run();
        tcpni_assert(hpu1.halted());
        tcpni_assert(cpu1.halted());

        // The table's "dispatching"/"processing" cells measure HPU
        // occupancy; the host's host_* regions ride along so callers
        // can report the work that moved off the interface.
        auto regions = hpu1.regionCycles();
        for (const auto &[key, cycles] : cpu1.regionCycles())
            regions[key] += cycles;
        return RunResult{regions};
    }

    Cpu cpu1("cpu1", eq, mem1, &ni1);

    cpu1.loadProgram(*handlerProg_);
    for (const Message &m : msgs) {
        bool ok = ni1.acceptFromNetwork(m);
        tcpni_assert(ok);
    }
    cpu1.reset(handlerProg_->addrOf("entry"));
    cpu1.start();
    eq.run();
    tcpni_assert(cpu1.halted());

    return RunResult{cpu1.regionCycles()};
}

Table1Harness::RunResult
Table1Harness::runSender(Kind kind, unsigned count)
{
    EventQueue eq;
    IdealNetwork net("net", eq, 2, 1);
    Memory &mem0 = runMemory();
    ni::NiConfig cfg = config();
    ni::NiConfig sink_cfg = cfg;
    sink_cfg.inputQueueDepth = 1024;
    ni::NetworkInterface ni0("ni0", eq, 0, net, cfg);
    ni::NetworkInterface ni1("ni1", eq, 1, net, sink_cfg);
    Cpu cpu0("cpu0", eq, mem0, &ni0);

    const isa::Program &prog =
        msg::cachedKernel(msg::senderProgram(model_, kind, count));
    cpu0.loadProgram(prog);
    cpu0.reset(prog.addrOf("entry"));
    cpu0.start();
    eq.run();
    tcpni_assert(cpu0.halted());
    tcpni_assert(ni1.numReceived() == count);

    return RunResult{cpu0.regionCycles()};
}

double
Table1Harness::sendingCost(Kind kind)
{
    RunResult small = runSender(kind, kSmall);
    RunResult large = runSender(kind, kLarge);
    uint64_t a = small.regionCycles.count("sending")
                     ? small.regionCycles.at("sending") : 0;
    uint64_t b = large.regionCycles.count("sending")
                     ? large.regionCycles.at("sending") : 0;
    return static_cast<double>(b - a) / (kLarge - kSmall);
}

ProcCost
Table1Harness::processingCost(ProcCase c, unsigned n)
{
    auto get = [](const RunResult &r, const char *key) -> uint64_t {
        auto it = r.regionCycles.find(key);
        return it == r.regionCycles.end() ? 0 : it->second;
    };

    RunResult small = runServer(makeMsgs(c, kSmall),
                                memPrep(c, n, kSmall));
    RunResult large = runServer(makeMsgs(c, kLarge),
                                memPrep(c, n, kLarge));

    double denom = kLarge - kSmall;
    ProcCost cost;
    cost.dispatching =
        static_cast<double>(get(large, "dispatching") -
                            get(small, "dispatching")) / denom;
    cost.processing =
        static_cast<double>(get(large, "processing") -
                            get(small, "processing")) / denom;
    return cost;
}

LinearCost
Table1Harness::pwriteDeferredCost()
{
    ProcCost one = processingCost(ProcCase::pwriteDeferred, 1);
    ProcCost three = processingCost(ProcCase::pwriteDeferred, 3);
    LinearCost lin;
    lin.slope = (three.processing - one.processing) / 2.0;
    lin.base = one.processing - lin.slope;
    return lin;
}

std::string
sendRowKey(Kind k)
{
    return std::string("send:") + msg::kindInfo(k).key;
}

std::string
procRowKey(ProcCase c)
{
    const ProcCaseInfo &pc = procCaseInfo(c);
    std::string key = std::string("proc:") + msg::kindInfo(pc.kind).key;
    if (pc.state)
        key = key + "_" + pc.state;
    return key;
}

std::map<std::string, std::array<PaperCell, 6>>
paperTable1()
{
    // Column order matches ni::paperModels(): optimized register /
    // on-chip / off-chip, then basic register / on-chip / off-chip.
    auto exact = [](double v) { return PaperCell{v, v, 0}; };
    auto range = [](double lo, double hi) { return PaperCell{lo, hi, 0}; };
    auto lin = [](double base, double slope) {
        return PaperCell{base, base, slope};
    };

    std::map<std::string, std::array<PaperCell, 6>> t;
    t["send:send0"] = {range(2, 2), exact(3), exact(3),
                       exact(3), exact(4), exact(4)};
    t["send:send1"] = {range(2, 3), exact(4), exact(4),
                       range(3, 4), exact(5), exact(5)};
    t["send:send2"] = {range(2, 4), exact(5), exact(5),
                       range(3, 5), exact(6), exact(6)};
    t["send:pread"] = {range(2, 4), exact(5), exact(5),
                       range(3, 5), exact(7), exact(7)};
    t["send:pwrite"] = {range(0, 3), exact(3), exact(3),
                        range(1, 4), exact(5), exact(5)};
    t["send:read"] = {range(2, 3), exact(4), exact(4),
                      range(3, 4), exact(6), exact(6)};
    t["send:write"] = {range(0, 2), exact(2), exact(2),
                       range(1, 3), exact(4), exact(4)};

    t["dispatch"] = {exact(1), exact(2), exact(2),
                     exact(5), exact(7), exact(8)};

    t["proc:send0"] = {exact(1), exact(1), exact(3),
                       exact(1), exact(1), exact(3)};
    t["proc:send1"] = {exact(2), exact(3), exact(5),
                       exact(2), exact(3), exact(5)};
    t["proc:send2"] = {exact(3), exact(5), exact(6),
                       exact(3), exact(5), exact(6)};
    t["proc:read"] = {exact(1), exact(3), exact(5),
                      exact(4), exact(8), exact(8)};
    t["proc:write"] = {exact(1), exact(3), exact(4),
                       exact(1), exact(3), exact(4)};
    t["proc:pread_full"] = {exact(9), exact(12), exact(13),
                            exact(12), exact(17), exact(17)};
    t["proc:pread_empty"] = {exact(19), exact(23), exact(23),
                             exact(19), exact(23), exact(23)};
    t["proc:pread_deferred"] = {exact(15), exact(19), exact(19),
                                exact(15), exact(19), exact(19)};
    t["proc:pwrite_empty"] = {exact(14), exact(17), exact(17),
                              exact(14), exact(17), exact(17)};
    t["proc:pwrite_deferred"] = {lin(15, 6), lin(19, 8), lin(19, 8),
                                 lin(16, 6), lin(20, 8), lin(20, 8)};
    return t;
}

} // namespace cost
} // namespace tcpni

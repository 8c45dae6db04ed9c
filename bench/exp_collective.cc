/**
 * @file
 * The collective-latency experiment: barrier, broadcast, and allreduce
 * over a static k-ary combining tree (system/tree.hh), per node count
 * and each of the nine registered interface models.
 *
 * Node 0 is a register-mapped optimized driver that injects each
 * participant's arrival (one BARUP or REDUCE per node, one MCAST at
 * the root for broadcast), collects the per-node completion SENDs,
 * then stops the tree.  Nodes 1..N-1 run the stock handler kernels
 * with the collective handlers installed; on the On-NI models those
 * run on the HPU and the host CPU runs only the proxy service loop,
 * so the reported interior-node host handler cycles are zero -- the
 * paper's tight coupling carried to its sPIN-style conclusion.
 *
 * The latency column is the full phase run in ticks: injection sweep,
 * tree traversal, completion collection, and the stop sweep.  All of
 * it is deterministic, so the scaling trend across node counts is
 * directly comparable between models.
 */

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/table.hh"
#include "experiments.hh"
#include "msg/kernels.hh"
#include "msg/protocol.hh"
#include "ni/model_registry.hh"
#include "ni/placement_policy.hh"
#include "sim/sweep.hh"
#include "system/system.hh"
#include "system/tree.hh"

namespace tcpni
{
namespace bench
{

namespace
{

enum class Phase { barrier, bcast, allreduce };

const char *
phaseName(Phase p)
{
    switch (p) {
      case Phase::barrier:   return "barrier";
      case Phase::bcast:     return "bcast";
      case Phase::allreduce: return "allreduce";
    }
    return "?";
}

/** Broadcast payload and the allreduce contribution ramp. */
constexpr Word collValue = 0x137;
constexpr Word collStep = 3;

/** Driver-side completion slot (local to node 0). */
constexpr Word notifyAddr = 0x100;

/** Where the driver banks the sum of completion payloads. */
constexpr Addr sumAddr = 0x200;

/** One phase's result for one (model, node count). */
struct CollResult
{
    bool quiesced = false;
    bool ok = false;
    uint64_t ticks = 0;
    uint64_t interiorCpu = 0;  //!< host handler cycles, interior nodes
    uint64_t leafCpu = 0;      //!< host handler cycles, leaf nodes
    uint64_t rootCpu = 0;      //!< host handler cycles, the root
    uint64_t hpuCycles = 0;    //!< HPU handler cycles, all participants
    uint64_t hostProxy = 0;    //!< host proxy escaped-work cycles
    uint64_t completionSum = 0;
};

/**
 * The node-0 driver: inject the phase's arrivals across the tree,
 * collect one completion SEND per participant (summing word 2), bank
 * the sum, stop every participant, halt.  @p basic targets the basic
 * models' software dispatch (collective id in word 4).
 */
std::string
driverProgram(unsigned participants, unsigned hops, Phase phase,
              bool basic)
{
    std::ostringstream os;
    os << "    .org 0x1000\n"
       << "    .region setup\n"
       << "entry:\n"
       << "    li   r12, (1 << NODE_SHIFT)\n"
       << "    li   r11, (1 << NODE_SHIFT) | COLL_FRAME\n"
       << "    addi r6, r0, " << hops << "\n"
       << "    li   r5, " << collValue << "\n"
       << "    addi r13, r0, CO_ADD\n"
       << "    add  r4, r0, r0\n"
       << "    li   r1, " << participants << "\n"
       << "    .region inject\n";

    const char *addr_hop =
        "    add  o0, r11, r0\n"
        "    add  o1, r6, r0\n";
    switch (phase) {
      case Phase::barrier:
        // One BARUP at every participant's own frame: its barrier
        // arrival.  The joins cascade up; the root releases BARDN.
        os << "inject:\n" << addr_hop;
        if (basic)
            os << "    addi o4, r0, T_BARUP\n    send\n";
        else
            os << "    send T_BARUP\n";
        os << "    add  r11, r11, r12\n"
           << "    addi r1, r1, -1\n"
           << "    bnez r1, inject\n"
           << "    nop\n";
        break;
      case Phase::bcast:
        // A single MCAST at the root fans down the whole tree.
        os << addr_hop << "    add  o2, r5, r0\n";
        if (basic)
            os << "    addi o4, r0, T_MCAST\n    send\n";
        else
            os << "    send T_MCAST\n";
        break;
      case Phase::allreduce:
        // Every participant contributes collValue + collStep*rank.
        os << "inject:\n" << addr_hop
           << "    add  o2, r5, r0\n"
           << "    add  o3, r13, r0\n";
        if (basic)
            os << "    addi o4, r0, T_REDUCE\n    send\n";
        else
            os << "    send T_REDUCE\n";
        os << "    addi r5, r5, " << collStep << "\n"
           << "    add  r11, r11, r12\n"
           << "    addi r1, r1, -1\n"
           << "    bnez r1, inject\n"
           << "    nop\n";
        break;
    }

    os << "    .region collect\n"
       << "    li   r9, " << participants << "\n"
       << "collect:\n"
       << "    and  r8, status, r7\n"
       << "    beqz r8, collect\n"
       << "    nop\n"
       << "    add  r4, r4, i2\n"
       << "    next\n"
       << "    addi r9, r9, -1\n"
       << "    bnez r9, collect\n"
       << "    nop\n"
       << "    sti  r4, r0, " << sumAddr << "\n"
       << "    .region teardown\n"
       << "    li   r11, (1 << NODE_SHIFT)\n"
       << "    li   r1, " << participants << "\n"
       << "stops:\n"
       << "    add  o0, r11, r0\n"
       << "    addi o4, r0, T_STOP\n"
       << "    send 15\n"
       << "    add  r11, r11, r12\n"
       << "    addi r1, r1, -1\n"
       << "    bnez r1, stops\n"
       << "    nop\n"
       << "    halt\n";
    return os.str();
}

CollResult
runPhase(const ni::Model &model, unsigned nodes, unsigned arity,
         Phase phase)
{
    sys::TreeTopology tree(nodes, arity);
    const unsigned participants = tree.participants();
    // Up sweep plus down sweep, with slack: the hop word must stay
    // positive on the deepest leaf-to-leaf path.
    const unsigned hops = 2 * tree.depth() + 4;

    // The collective frames and programs live well below 64 KiB, so a
    // 256-node mesh stays cheap to instantiate.
    sys::NodeConfig driver_cfg;
    driver_cfg.memBytes = 1 << 16;
    driver_cfg.ni =
        ni::Model{ni::Placement::registerFile, true}.config();
    sys::NodeConfig part_cfg;
    part_cfg.memBytes = 1 << 16;
    part_cfg.ni = model.config();

    // Mesh dimensions covering the node count exactly -- an idle
    // filler node would register NI metric groups whose latency
    // histograms stay empty, which --metrics validation rejects.
    // The largest divisor <= sqrt keeps the mesh near-square (and a
    // prime count degenerates to a 1 x N chain, which is still a
    // valid mesh).
    unsigned width = 1;
    for (unsigned w = 1; w * w <= nodes; ++w) {
        if (nodes % w == 0)
            width = w;
    }
    unsigned height = nodes / width;
    std::vector<sys::NodeConfig> cfgs(size_t(width) * height, part_cfg);
    cfgs[0] = driver_cfg;
    sys::System machine("coll", width, height, cfgs);

    isa::Program server = msg::assembleKernel(
        msg::handlerProgram(model, false, false, true));
    isa::Program host;
    if (model.policy().handlersOnNi)
        host = msg::assembleKernel(msg::hostProxyProgram(model));
    for (NodeId n = 1; n < nodes; ++n) {
        machine.node(n).boot(server, server.addrOf("entry"));
        machine.node(n).mem().write(msg::allocPtrAddr, 0x8000);
        if (model.policy().handlersOnNi)
            machine.node(n).bootHost(host, host.addrOf("entry"));
    }
    tree.initFrames(machine, globalWord(0, notifyAddr),
                    msg::collOpAdd);

    isa::Program driver = msg::assembleKernel(driverProgram(
        participants, hops, phase, !model.optimized));
    machine.node(0).boot(driver, driver.addrOf("entry"));
    machine.node(0).cpu().setReg(7, 1u << ni::status::msgValidBit);

    CollResult r;
    r.quiesced = machine.run(4'000'000);
    r.ticks = machine.curTick();
    r.completionSum = machine.node(0).mem().read(sumAddr);

    // The scalar oracle for the phase.
    Word expected_value = 0;
    switch (phase) {
      case Phase::barrier:
        break;
      case Phase::bcast:
        expected_value = collValue;
        break;
      case Phase::allreduce: {
        Word acc = msg::collOpIdentity(msg::collOpAdd);
        for (unsigned i = 0; i < participants; ++i)
            acc = msg::collOpApply(msg::collOpAdd, acc,
                                   collValue + collStep * i);
        expected_value = acc;
        break;
      }
    }

    bool ok = r.quiesced;
    for (NodeId n = 1; n < nodes && ok; ++n) {
        Memory &mem = machine.node(n).mem();
        // Exactly one completion observed per node per collective.
        ok = mem.read(msg::collFrameAddr + msg::cfDoneOffset) == 1;
        if (phase != Phase::barrier)
            ok = ok && mem.read(msg::collFrameAddr +
                                msg::cfValueOffset) == expected_value;
    }
    if (phase != Phase::barrier) {
        ok = ok && r.completionSum ==
                       Word(expected_value * participants);
    }
    r.ok = ok;

    for (NodeId n = 1; n < nodes; ++n) {
        auto cpu_regions = machine.node(n).cpu().regionCycles();
        uint64_t handler =
            regionSum(cpu_regions, {"dispatching", "processing"});
        if (n == tree.root())
            r.rootCpu += handler;
        else if (tree.interior(n))
            r.interiorCpu += handler;
        else
            r.leafCpu += handler;
        r.hostProxy +=
            regionSum(cpu_regions, {"host_setup", "host_proc"});
        if (Hpu *hpu = machine.node(n).hpu()) {
            r.hpuCycles += regionSum(hpu->regionCycles(),
                                     {"dispatching", "processing"});
        }
    }
    return r;
}

int
runCollective(const exp::Context &ctx)
{
    // A global word carries at most maxAddressableNodes node ids.
    const std::vector<unsigned> sizes =
        parseSizes(ctx.str("--sizes"), "exp_collective",
                   maxAddressableNodes);
    const unsigned arity = static_cast<unsigned>(ctx.num("--arity"));
    if (arity < 1)
        fatal("exp_collective: --arity must be >= 1");

    const auto &infos = ni::registeredModels();

    constexpr Phase phases[] = {Phase::barrier, Phase::bcast,
                                Phase::allreduce};
    const size_t n_phase = 3;
    const size_t n_runs = infos.size() * sizes.size() * n_phase;

    std::cout << "Collective latency over a " << arity
              << "-ary combining tree (ticks: inject + traverse + "
                 "collect + stop)\n";

    SweepRunner sweep(ctx.jobs);
    std::vector<CollResult> results = sweep.map<CollResult>(
        n_runs, [&](size_t idx) {
            size_t pi = idx % n_phase;
            size_t si = (idx / n_phase) % sizes.size();
            size_t mi = idx / (n_phase * sizes.size());
            std::string label = infos[mi].shortName + "/" +
                                std::to_string(sizes[si]) + "/" +
                                phaseName(phases[pi]);
            auto ms = ctx.taskMetrics(idx, label);
            std::fprintf(stderr, "  running %s...\n", label.c_str());
            return runPhase(infos[mi].model, sizes[si], arity,
                            phases[pi]);
        });
    auto at = [&](size_t mi, size_t si, size_t pi) -> CollResult & {
        return results[(mi * sizes.size() + si) * n_phase + pi];
    };

    TextTable tt;
    tt.header({"Model", "Nodes", "Barrier", "Bcast", "Allreduce",
               "Interior CPU", "HPU cycles", "Result"});
    for (size_t mi = 0; mi < infos.size(); ++mi) {
        for (size_t si = 0; si < sizes.size(); ++si) {
            uint64_t interior = 0, hpu = 0;
            bool ok = true;
            for (size_t pi = 0; pi < n_phase; ++pi) {
                interior += at(mi, si, pi).interiorCpu;
                hpu += at(mi, si, pi).hpuCycles;
                ok = ok && at(mi, si, pi).ok;
            }
            tt.row({infos[mi].shortName, std::to_string(sizes[si]),
                    std::to_string(at(mi, si, 0).ticks),
                    std::to_string(at(mi, si, 1).ticks),
                    std::to_string(at(mi, si, 2).ticks),
                    std::to_string(interior), std::to_string(hpu),
                    ok ? "ok" : "FAILED"});
        }
    }
    tt.print(std::cout);

    ctx.writeJson([&](std::ostream &os) {
        os << "{\"config\":{\"arity\":" << arity << ",\"sizes\":[";
        for (size_t si = 0; si < sizes.size(); ++si)
            os << (si ? "," : "") << sizes[si];
        os << "]},\n\"models\":{";
        for (size_t mi = 0; mi < infos.size(); ++mi) {
            os << (mi ? ",\n" : "\n") << "\""
               << stats::jsonEscape(infos[mi].name) << "\":{";
            for (size_t si = 0; si < sizes.size(); ++si) {
                os << (si ? ",\n  " : "\n  ") << "\"" << sizes[si]
                   << "\":{";
                for (size_t pi = 0; pi < n_phase; ++pi) {
                    const CollResult &r = at(mi, si, pi);
                    os << (pi ? ",\n    " : "\n    ") << "\""
                       << phaseName(phases[pi]) << "\":{"
                       << "\"ok\":" << (r.ok ? "true" : "false")
                       << ",\"ticks\":" << r.ticks
                       << ",\"interiorCpuHandlerCycles\":"
                       << r.interiorCpu
                       << ",\"leafCpuHandlerCycles\":" << r.leafCpu
                       << ",\"rootCpuHandlerCycles\":" << r.rootCpu
                       << ",\"hpuHandlerCycles\":" << r.hpuCycles
                       << ",\"hostProxyCycles\":" << r.hostProxy
                       << ",\"completionSum\":" << r.completionSum
                       << "}";
                }
                os << "}";
            }
            os << "}";
        }
        os << "\n}}\n";
    });

    bool all_ok = true;
    for (const CollResult &r : results)
        all_ok = all_ok && r.ok;
    return all_ok ? 0 : 1;
}

} // namespace

void
registerCollective(exp::ExperimentRegistry &reg)
{
    reg.add({
        "collective",
        "Barrier/broadcast/allreduce latency over a k-ary combining "
        "tree per model and node count",
        {
            {"--sizes", "N,N,...",
             "node counts to sweep (driver + participants), each in "
             "[2, 256]",
             "4,64,256", false},
            {"--arity", "K", "combining-tree arity", "4", false},
        },
        true,   // --json
        true,   // --trace
        runCollective,
    });
}

} // namespace bench
} // namespace tcpni

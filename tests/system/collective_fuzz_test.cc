/**
 * @file
 * Randomized collective-correctness fuzz (ctest label `fuzz`).
 *
 * Each seed draws a random combining tree -- node count, arity, and
 * therefore depth -- a random reduction op, random per-node
 * contributions, a random interface model, and a random *arrival
 * order* (the driver injects the per-node BARUP / REDUCE arrivals in
 * a seeded permutation of rank order, exercising late-parent /
 * early-child joins the fixed-order experiment never hits).  After
 * the run every participant must have observed the collective's
 * completion exactly once (CF_DONE == 1), and the allreduce value at
 * every node must equal a scalar oracle folded in plain C++.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "msg/kernels.hh"
#include "msg/protocol.hh"
#include "ni/model_registry.hh"
#include "ni/ni_regs.hh"
#include "ni/placement_policy.hh"
#include "system/system.hh"
#include "system/tree.hh"

using namespace tcpni;

namespace
{

/** Driver-side completion slot and banked completion-payload sum. */
constexpr Word notifyAddr = 0x100;
constexpr Addr sumAddr = 0x200;

/** One randomized scenario. */
struct FuzzCase
{
    unsigned nodes = 0;
    unsigned arity = 0;
    Word op = msg::collOpAdd;
    std::vector<Word> values;      //!< per-rank allreduce contribution
    std::vector<unsigned> order;   //!< rank injection permutation
    const ni::ModelInfo *model = nullptr;
};

FuzzCase
drawCase(uint64_t seed)
{
    Random rng(seed);
    FuzzCase c;
    c.nodes = rng.uniform(4, 20);
    c.arity = rng.uniform(1, 4);
    c.op = rng.uniform(0, 2);  // collOpAdd / collOpXor / collOpAnd
    const auto &models = ni::registeredModels();
    c.model = &models[rng.uniform(0, models.size() - 1)];

    const unsigned participants = c.nodes - 1;
    for (unsigned r = 0; r < participants; ++r) {
        c.values.push_back(rng.next32());
        c.order.push_back(r);
    }
    // Fisher-Yates over the injection order from the same stream.
    for (unsigned i = participants - 1; i > 0; --i)
        std::swap(c.order[i], c.order[rng.uniform(0, i)]);
    return c;
}

/** Unrolled driver: inject arrivals in the permuted order, collect
 *  one completion per participant (summing word 2), bank the sum,
 *  stop the tree, halt. */
std::string
fuzzDriver(const FuzzCase &c, bool barrier, unsigned hops)
{
    const unsigned participants = c.nodes - 1;
    const bool basic = !c.model->model.optimized;
    std::ostringstream os;
    os << "    .org 0x1000\n"
       << "entry:\n";
    for (unsigned rank : c.order) {
        os << "    li   o0, (" << (rank + 1)
           << " << NODE_SHIFT) | COLL_FRAME\n"
           << "    addi o1, r0, " << hops << "\n";
        if (barrier) {
            if (basic)
                os << "    addi o4, r0, T_BARUP\n    send\n";
            else
                os << "    send T_BARUP\n";
        } else {
            os << "    li   o2, " << c.values[rank] << "\n"
               << "    addi o3, r0, " << c.op << "\n";
            if (basic)
                os << "    addi o4, r0, T_REDUCE\n    send\n";
            else
                os << "    send T_REDUCE\n";
        }
    }
    os << "    add  r4, r0, r0\n"
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
       << "    li   r12, (1 << NODE_SHIFT)\n"
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

/** Run one phase of one scenario and check every postcondition. */
void
runAndCheck(const FuzzCase &c, bool barrier)
{
    sys::TreeTopology tree(c.nodes, c.arity);
    const unsigned participants = tree.participants();
    const unsigned hops = 2 * tree.depth() + 4;
    const ni::Model &model = c.model->model;

    sys::NodeConfig driver_cfg;
    driver_cfg.memBytes = 1 << 16;
    driver_cfg.ni =
        ni::Model{ni::Placement::registerFile, true}.config();
    sys::NodeConfig part_cfg;
    part_cfg.memBytes = 1 << 16;
    part_cfg.ni = model.config();

    unsigned width = 1;
    while (width * width < c.nodes)
        ++width;
    unsigned height = (c.nodes + width - 1) / width;
    std::vector<sys::NodeConfig> cfgs(size_t(width) * height,
                                      part_cfg);
    cfgs[0] = driver_cfg;
    sys::System machine("fuzz", width, height, cfgs);

    isa::Program server = msg::assembleKernel(
        msg::handlerProgram(model, false, false, true));
    isa::Program host;
    if (model.policy().handlersOnNi)
        host = msg::assembleKernel(msg::hostProxyProgram(model));
    for (NodeId n = 1; n < c.nodes; ++n) {
        machine.node(n).boot(server, server.addrOf("entry"));
        machine.node(n).mem().write(msg::allocPtrAddr, 0x8000);
        if (model.policy().handlersOnNi)
            machine.node(n).bootHost(host, host.addrOf("entry"));
    }
    tree.initFrames(machine, globalWord(0, notifyAddr), c.op);

    isa::Program driver =
        msg::assembleKernel(fuzzDriver(c, barrier, hops));
    machine.node(0).boot(driver, driver.addrOf("entry"));
    machine.node(0).cpu().setReg(7, 1u << ni::status::msgValidBit);

    ASSERT_TRUE(machine.run(4'000'000)) << "machine did not quiesce";

    // Scalar oracle: fold every rank's contribution in rank order.
    Word expected = msg::collOpIdentity(c.op);
    for (unsigned r = 0; r < participants; ++r)
        expected = msg::collOpApply(c.op, expected, c.values[r]);

    for (NodeId n = 1; n < c.nodes; ++n) {
        Memory &mem = machine.node(n).mem();
        EXPECT_EQ(mem.read(msg::collFrameAddr + msg::cfDoneOffset), 1u)
            << "node " << n << " completion count";
        if (!barrier) {
            EXPECT_EQ(mem.read(msg::collFrameAddr +
                               msg::cfValueOffset),
                      expected)
                << "node " << n << " allreduce value";
        }
    }
    const Word sum = machine.node(0).mem().read(sumAddr);
    if (barrier) {
        EXPECT_EQ(sum, 0u) << "barrier completions carry value 0";
    } else {
        EXPECT_EQ(sum, Word(expected * participants))
            << "driver-side completion payload sum";
    }
}

TEST(CollectiveFuzz, RandomTreesOpsAndArrivalOrders)
{
    for (uint64_t seed = 0; seed < 10; ++seed) {
        FuzzCase c = drawCase(seed);
        std::ostringstream what;
        what << "seed " << seed << ": nodes=" << c.nodes
             << " arity=" << c.arity << " op=" << c.op << " model="
             << c.model->shortName;
        SCOPED_TRACE(what.str());
        runAndCheck(c, /*barrier=*/true);
        runAndCheck(c, /*barrier=*/false);
    }
}

} // namespace

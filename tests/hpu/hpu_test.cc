/**
 * @file
 * The Handler Processing Unit: dispatch cost, the host-proxy escape
 * ring, the handler-time budget, the CPU-offload property, and the
 * final metrics a destroyed HPU reports.
 *
 * The HpuDispatch tests also pin the registry's onni-basic and
 * onni-opt Table-1 cells that leave the host CPU: dispatch, PRead
 * (full, empty, deferred) and PWrite (empty, deferred).
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "cost/table1.hh"
#include "metrics/metrics.hh"
#include "msg/kernels.hh"
#include "msg/protocol.hh"
#include "ni/model_registry.hh"
#include "ni/placement_policy.hh"
#include "system/system.hh"

using namespace tcpni;
using namespace tcpni::sys;

namespace
{

const ni::Model onniOpt{ni::Placement::onNi, true};
const ni::Model onniBasic{ni::Placement::onNi, false};

/** The Table-1 cells an On-NI model runs on the HPU. */
struct OnNiCells
{
    double dispatch;
    double preadFull, preadEmpty, preadDeferred;
    double pwriteEmpty;
    double pwriteDeferredBase, pwriteDeferredSlope;
};

void
expectCells(cost::Table1Harness &h, const OnNiCells &want)
{
    using cost::ProcCase;
    EXPECT_DOUBLE_EQ(h.processingCost(ProcCase::read).dispatching,
                     want.dispatch);
    EXPECT_DOUBLE_EQ(h.processingCost(ProcCase::preadFull).processing,
                     want.preadFull);
    EXPECT_DOUBLE_EQ(h.processingCost(ProcCase::preadEmpty).processing,
                     want.preadEmpty);
    EXPECT_DOUBLE_EQ(
        h.processingCost(ProcCase::preadDeferred).processing,
        want.preadDeferred);
    EXPECT_DOUBLE_EQ(h.processingCost(ProcCase::pwriteEmpty).processing,
                     want.pwriteEmpty);
    cost::LinearCost deferred = h.pwriteDeferredCost();
    EXPECT_DOUBLE_EQ(deferred.base, want.pwriteDeferredBase);
    EXPECT_DOUBLE_EQ(deferred.slope, want.pwriteDeferredSlope);
}

/** A register-mapped client: PRead an empty element (defers), PWrite
 *  it, store the forwarded value at [r4], stop the server, halt.
 *  Word 4 always carries the software-dispatch id so the same client
 *  drives basic servers (which ignore the wire type). */
const char *istructClient = R"(
entry:
    li   o0, (1 << NODE_SHIFT) | 0x2200
    li   o1, 0x100             ; reply FP
    addi o4, r0, T_PREAD
    add  o2, r0, r0 !send=4    ; T_PREAD: defers
    li   o0, (1 << NODE_SHIFT) | 0x2200
    li   o1, 0                 ; no ack
    addi o4, r0, T_PWRITE
    addi r6, r0, 0x77
    add  o2, r6, r0 !send=5    ; T_PWRITE: wakes the reader
wait:
    and  r5, status, r7
    beqz r5, wait
    nop
    st   i2, r4, r0 !next
    li   o0, (1 << NODE_SHIFT)
    addi o4, r0, T_STOP
    send 15
    halt
)";

/** A register-mapped client node and an @p server_model server. */
std::vector<NodeConfig>
configs(const ni::Model &server_model)
{
    NodeConfig client;
    client.ni = ni::Model{ni::Placement::registerFile, true}.config();
    NodeConfig server;
    server.ni = server_model.config();
    return {client, server};
}

/** Two-node machine: register-mapped client, @p server_model server
 *  running the stock kernels (HPU + host proxy on On-NI nodes). */
struct Machine
{
    System sys;
    isa::Program server;

    explicit Machine(const ni::Model &server_model)
        : sys("hpu_test", 2, 1, configs(server_model)),
          server(msg::assembleKernel(msg::handlerProgram(server_model)))
    {
        sys.node(1).boot(server, server.addrOf("entry"));
        sys.node(1).mem().write(msg::allocPtrAddr, 0x40000);
        if (server_model.policy().handlersOnNi) {
            isa::Program host = msg::assembleKernel(
                msg::hostProxyProgram(server_model));
            sys.node(1).bootHost(host, host.addrOf("entry"));
        }
        isa::Program client = msg::assembleKernel(istructClient);
        sys.node(0).boot(client, client.addrOf("entry"));
        sys.node(0).cpu().setReg(7, 1u << ni::status::msgValidBit);
        sys.node(0).cpu().setReg(4, 0x100);
    }
};

} // namespace

// ---- dispatch cost ---------------------------------------------------

TEST(HpuDispatch, OptimizedOnNiMatchesRegisterMapped)
{
    // The acceptance bound: the HPU's permanent register coupling
    // must make dispatch no slower than the best host placement (the
    // optimized register-mapped interface dispatches in 1 cycle).
    const ni::ModelInfo *info = ni::findModel("onni-opt");
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->model, onniOpt);
    cost::Table1Harness reg(
        ni::Model{ni::Placement::registerFile, true});
    cost::Table1Harness onni(info->model);
    double reg_disp =
        reg.processingCost(cost::ProcCase::read).dispatching;
    double onni_disp =
        onni.processingCost(cost::ProcCase::read).dispatching;
    EXPECT_DOUBLE_EQ(reg_disp, 1.0);
    EXPECT_LE(onni_disp, reg_disp);
    expectCells(onni, {1, 6, 8, 8, 3, 3, 0});
}

TEST(HpuDispatch, BasicOnNiMatchesBasicRegisterMapped)
{
    // The basic HPU polls STATUS and indexes the software dispatch
    // table just like the basic register-mapped host -- same cost.
    const ni::ModelInfo *info = ni::findModel("onni-basic");
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->model, onniBasic);
    cost::Table1Harness reg(
        ni::Model{ni::Placement::registerFile, false});
    cost::Table1Harness onni(info->model);
    EXPECT_DOUBLE_EQ(
        onni.processingCost(cost::ProcCase::read).dispatching,
        reg.processingCost(cost::ProcCase::read).dispatching);
    expectCells(onni, {6, 9, 8, 8, 3, 3, 0});
}

// ---- end-to-end offload ----------------------------------------------

TEST(HpuSystem, HandlersRunOnHpuNotCpu)
{
    Machine m(onniOpt);
    ASSERT_TRUE(m.sys.run(100000));
    EXPECT_EQ(m.sys.node(0).mem().read(0x100), 0x77u);

    Hpu *hpu = m.sys.node(1).hpu();
    ASSERT_NE(hpu, nullptr);
    EXPECT_GT(hpu->handlersRun(), 0u);

    // The host CPU never touches a handler region: it only runs the
    // proxy loop (host_* regions).
    auto cpu_regions = m.sys.node(1).cpu().regionCycles();
    EXPECT_EQ(cpu_regions.count("dispatching"), 0u);
    EXPECT_EQ(cpu_regions.count("processing"), 0u);
    EXPECT_GT(cpu_regions.count("host_proc"), 0u);
}

TEST(HpuSystem, NonOnNiNodesHaveNoHpu)
{
    Machine m(ni::Model{ni::Placement::registerFile, true});
    EXPECT_EQ(m.sys.node(1).hpu(), nullptr);
    EXPECT_EQ(m.sys.node(0).hpu(), nullptr);
    ASSERT_TRUE(m.sys.run(100000));
    EXPECT_EQ(m.sys.node(0).mem().read(0x100), 0x77u);
}

// ---- host-proxy escape ring ------------------------------------------

TEST(HpuSystem, EscapesPostToHostRing)
{
    Machine m(onniOpt);
    ASSERT_TRUE(m.sys.run(100000));

    // Three escapes: the deferred PRead, the PWrite (the host is the
    // single writer of I-structure state), and STOP.
    Hpu *hpu = m.sys.node(1).hpu();
    ASSERT_NE(hpu, nullptr);
    EXPECT_EQ(hpu->hostProxies(), 3u);

    Memory &mem = m.sys.node(1).mem();
    EXPECT_EQ(mem.read(msg::hostRingPiAddr), 3u);
    // Slot 0 holds the PRead: effective id, then i0.. (the element).
    EXPECT_EQ(mem.read(msg::hostRingBase),
              static_cast<Word>(msg::typePRead));
    EXPECT_EQ(mem.read(msg::hostRingBase + 4) & 0xffffffu, 0x2200u);
}

// ---- handler-time budget ---------------------------------------------

/** An On-NI server whose one handler spins @p iterations times (3
 *  cycles each) before its NEXT, then halts; the client sends it one
 *  message.  The HPU measures it against the policy's budget. */
struct SpinMachine
{
    System sys{"hpu_budget", 2, 1, configs(onniOpt)};

    explicit SpinMachine(Word iterations)
    {
        isa::Program server = msg::assembleKernel(R"(
entry:
    and  r5, status, r7
    beqz r5, entry
    nop
spin:
    addi r1, r1, -1
    bnez r1, spin
    nop
    add  r0, r0, r0 !next
    halt
)");
        sys.node(1).boot(server, server.addrOf("entry"));
        sys.node(1).hpu()->setReg(1, iterations);
        sys.node(1).hpu()->setReg(7, 1u << ni::status::msgValidBit);
        isa::Program client = msg::assembleKernel(R"(
entry:
    li   o0, (1 << NODE_SHIFT)
    send 15
    halt
)");
        sys.node(0).boot(client, client.addrOf("entry"));
    }
};

TEST(HpuSystem, BudgetOverrunsAreCountedNotEnforced)
{
    SpinMachine m(40);     // ~120 cycles against a 64-cycle budget
    ASSERT_TRUE(m.sys.run(100000));

    Hpu *hpu = m.sys.node(1).hpu();
    ASSERT_NE(hpu, nullptr);
    EXPECT_EQ(hpu->budget(), 64u);
    EXPECT_EQ(hpu->handlersRun(), 1u);
    EXPECT_EQ(hpu->budgetOverruns(), 1u);
    EXPECT_GT(hpu->maxHandlerCycles(), hpu->budget());
    // The budget is a diagnostic contract, not a watchdog: the handler
    // still ran to its NEXT and the HPU to its halt.
    EXPECT_TRUE(hpu->halted());
}

TEST(HpuSystem, GenerousBudgetNeverOverruns)
{
    // A handler well inside the policy's budget, and the stock
    // kernels' whole I-structure exchange, overrun nothing.
    SpinMachine spin(2);
    ASSERT_TRUE(spin.sys.run(100000));
    EXPECT_EQ(spin.sys.node(1).hpu()->handlersRun(), 1u);
    EXPECT_EQ(spin.sys.node(1).hpu()->budgetOverruns(), 0u);

    Machine m(onniOpt);
    ASSERT_TRUE(m.sys.run(100000));
    EXPECT_EQ(m.sys.node(1).hpu()->budgetOverruns(), 0u);
}

// ---- basic variant ---------------------------------------------------

TEST(HpuSystem, BasicOnNiAlsoCompletes)
{
    // Basic servers ignore the wire type and software-dispatch on the
    // id the client carries in word 4.
    Machine m(onniBasic);
    ASSERT_TRUE(m.sys.run(200000));
    EXPECT_EQ(m.sys.node(0).mem().read(0x100), 0x77u);
    EXPECT_GT(m.sys.node(1).hpu()->handlersRun(), 0u);
}

// ---- metrics ---------------------------------------------------------

TEST(HpuMetrics, DestroyedHpuReportsFinalCounters)
{
    // The Hpu's metric readers read its own members, so its group must
    // be retired before they are destroyed: finalize() then reports
    // the counters the Hpu held when it died.
    metrics::Registry registry(0);
    metrics::setRegistry(&registry);
    uint64_t handlers = 0, busy = 0;
    {
        Machine m(onniOpt);
        EXPECT_TRUE(m.sys.run(100000));
        handlers = m.sys.node(1).hpu()->handlersRun();
        busy = m.sys.node(1).hpu()->handlerBusyCycles();
    }
    metrics::setRegistry(nullptr);
    ASSERT_GT(handlers, 0u);
    ASSERT_GT(busy, 0u);

    const metrics::TaskMetrics tm = registry.finalize("");
    std::map<std::string, uint64_t> hpu;
    for (const auto &g : tm.groups)
        if (g.name.ends_with(".hpu"))
            for (const auto &s : g.series)
                hpu[s.name] = s.value;
    EXPECT_EQ(hpu["handlers_run"], handlers);
    EXPECT_EQ(hpu["handler_busy_cycles"], busy);
}

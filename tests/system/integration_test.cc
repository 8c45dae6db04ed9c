#include <gtest/gtest.h>

#include "common/logging.hh"
#include "metrics_fingerprint.hh"
#include "msg/kernels.hh"
#include "ni/model_registry.hh"
#include "msg/protocol.hh"
#include "system/system.hh"

using namespace tcpni;
using namespace tcpni::sys;

namespace
{

NodeConfig
nodeCfg(ni::Placement p, bool optimized)
{
    NodeConfig cfg;
    cfg.ni.placement = p;
    cfg.ni.features =
        optimized ? ni::Features::optimized() : ni::Features::basic();
    return cfg;
}

/** Boot the stock handler server on @p node. */
isa::Program
bootServer(System &m, NodeId node, const ni::Model &model)
{
    isa::Program server =
        msg::assembleKernel(msg::handlerProgram(model));
    m.node(node).boot(server, server.addrOf("entry"));
    m.node(node).mem().write(msg::allocPtrAddr, 0x40000);
    return server;
}

/** A client that issues one READ to node 1 address 0x2100, stores the
 *  reply at 0x100, stops the server, and halts. */
std::string
readClient(bool optimized)
{
    if (optimized) {
        return R"(
        entry:
            li   o0, (1 << NODE_SHIFT) | 0x2100
            li   o1, 0
            add  o2, r0, r0 !send=2
        wait:
            and  r5, status, r7
            beqz r5, wait
            nop
            st   i2, r4, r0 !next
            li   o0, (1 << NODE_SHIFT)
            send 15
            halt
        )";
    }
    // Basic: id in o4, poll STATUS.
    return R"(
    entry:
        li   o0, (1 << NODE_SHIFT) | 0x2100
        li   o1, 0
        li   o2, 0
        addi o4, r0, T_READ
        send
    wait:
        and  r5, status, r7
        beqz r5, wait
        nop
        st   i2, r4, r0 !next
        li   o0, (1 << NODE_SHIFT)
        addi o4, r0, T_STOP
        send
        halt
    )";
}

class SystemModels
    : public ::testing::TestWithParam<ni::Model>
{
};

} // namespace

TEST_P(SystemModels, ReadRoundTripOverMesh)
{
    ni::Model model = GetParam();
    // Register-mapped clients only (the client kernel above uses
    // register aliases); cache-mapped servers get a register client.
    NodeConfig server_cfg = nodeCfg(model.placement, model.optimized);
    NodeConfig client_cfg =
        nodeCfg(ni::Placement::registerFile, model.optimized);
    System machine("it", 2, 1, {client_cfg, server_cfg});

    bootServer(machine, 1, model);
    machine.node(1).mem().write(0x2100, 0xbeef);

    isa::Program client =
        msg::assembleKernel(readClient(model.optimized));
    machine.node(0).boot(client, client.addrOf("entry"));
    machine.node(0).cpu().setReg(7, 1u << ni::status::msgValidBit);
    machine.node(0).cpu().setReg(4, 0x100);

    ASSERT_TRUE(machine.run(100000));
    EXPECT_EQ(machine.node(0).mem().read(0x100), 0xbeefu);
    EXPECT_TRUE(machine.node(1).cpu().halted());
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, SystemModels, ::testing::ValuesIn(ni::paperModels()),
    [](const ::testing::TestParamInfo<ni::Model> &info) {
        std::string n = info.param.shortName();
        for (char &c : n) {
            if (c == '-')
                c = '_';
        }
        return n;
    });

TEST(SystemIntegration, FourNodeMeshAllServersServed)
{
    // One client, three servers on a 2x2 mesh; the client writes then
    // reads each server (the remote_memory example's scenario).
    NodeConfig cfg = nodeCfg(ni::Placement::registerFile, true);
    System machine("quad", 2, 2, cfg);

    ni::Model model{ni::Placement::registerFile, true};
    for (NodeId n = 1; n <= 3; ++n)
        bootServer(machine, n, model);

    isa::Program client = msg::assembleKernel(R"(
    entry:
        lis  r1, 1                 ; server
        lis  r3, 0                 ; sum
        lis  r9, 3
    next_server:
        slli r5, r1, NODE_SHIFT
        ori  r5, r5, 0x3000
        mul  r6, r1, r11           ; r11 = 10
        add  o0, r5, r0
        add  o1, r6, r0 !send=3    ; WRITE
        add  o0, r5, r0
        add  o1, r13, r0           ; reply FP = node 0
        add  o2, r0, r0 !send=2    ; READ
    wait:
        and  r8, status, r7
        beqz r8, wait
        nop
        add  r3, r3, i2
        next
        addi r1, r1, 1
        addi r9, r9, -1
        bnez r9, next_server
        nop
        sti  r3, r0, 0x200
        lis  r1, 1
        lis  r9, 3
    stops:
        slli r5, r1, NODE_SHIFT
        add  o0, r5, r0
        send 15
        addi r1, r1, 1
        addi r9, r9, -1
        bnez r9, stops
        nop
        halt
    )");
    machine.node(0).boot(client, client.addrOf("entry"));
    machine.node(0).cpu().setReg(7, 1u << ni::status::msgValidBit);
    machine.node(0).cpu().setReg(11, 10);
    machine.node(0).cpu().setReg(13, globalWord(0, 0));

    ASSERT_TRUE(machine.run(200000));
    EXPECT_EQ(machine.node(0).mem().read(0x200), 60u);
    for (NodeId n = 1; n <= 3; ++n) {
        EXPECT_EQ(machine.node(n).mem().read(0x3000), 10u * n);
        EXPECT_TRUE(machine.node(n).cpu().halted());
    }
}

TEST(SystemIntegration, BackpressurePreservesEveryMessage)
{
    // A sender floods a slow receiver through tiny queues; nothing is
    // lost and the sender observes SEND stalls.
    NodeConfig sender = nodeCfg(ni::Placement::registerFile, true);
    sender.ni.outputQueueDepth = 2;
    sender.ni.outputThreshold = 2;      // == depth: oafull never raises
    NodeConfig receiver = sender;
    receiver.ni.inputQueueDepth = 2;
    receiver.ni.inputThreshold = 2;
    System machine("flood", 2, 1, {sender, receiver});

    // Receiver: count type-2 messages at 0x600 with a slow handler.
    isa::Program server = msg::assembleKernel(R"(
        .org 0x4000
    poll:
        jmp  msgip
        nop
        .align HANDLER_STRIDE
        halt
        .align HANDLER_STRIDE
    h2:
        ldi  r1, r0, 0x600
        addi r1, r1, 1
        sti  r1, r0, 0x600
        lis  r2, 6
    spin:
        addi r2, r2, -1
        bnez r2, spin
        nop
        next
        br   poll
        nop
        .align HANDLER_STRIDE
        .space (HANDLER_STRIDE/4) * 12
    stop:
        halt
        .align HANDLER_STRIDE
    entry:
        li   ipbase, 0x4000
        br   poll
        nop
    )");
    machine.node(1).boot(server, server.addrOf("entry"));

    isa::Program client = msg::assembleKernel(R"(
    entry:
        li   o0, (1 << NODE_SHIFT)
        lis  r1, 25
    flood:
        send 2
        addi r1, r1, -1
        bnez r1, flood
        nop
        send 15
        halt
    )");
    machine.node(0).boot(client, client.addrOf("entry"));

    ASSERT_TRUE(machine.run(100000));
    EXPECT_EQ(machine.node(1).mem().read(0x600), 25u);
    EXPECT_GT(machine.node(0).cpu().niStallCycles(), 0u);
}

TEST(SystemIntegration, PinMismatchEscrowedSystemWide)
{
    // Two processes share the machine; a message tagged with the
    // wrong PIN is escrowed at the receiver, not delivered.
    NodeConfig cfg = nodeCfg(ni::Placement::registerFile, true);
    System machine("pins", 2, 1, cfg);

    // Receiver checks PINs; its active process is 7.
    Word ctl = machine.node(1).ni().readReg(ni::regControl);
    ctl |= 1u << ni::control::checkPinBit;
    ctl = static_cast<Word>(insertBits(ctl, ni::control::pinShift + 7,
                                       ni::control::pinShift, 7));
    machine.node(1).ni().writeReg(ni::regControl, ctl);

    // Sender's process is 3.
    Word sctl = machine.node(0).ni().readReg(ni::regControl);
    sctl = static_cast<Word>(insertBits(
        sctl, ni::control::pinShift + 7, ni::control::pinShift, 3));
    machine.node(0).ni().writeReg(ni::regControl, sctl);

    isa::Program client = msg::assembleKernel(R"(
    entry:
        li   o0, (1 << NODE_SHIFT)
        lis  o1, 0x77
        send 2
        halt
    )");
    machine.node(0).boot(client, client.addrOf("entry"));
    machine.run(10000);

    EXPECT_FALSE(machine.node(1).ni().msgValid());
    ASSERT_TRUE(machine.node(1).ni().hasPrivileged());
    Message m = machine.node(1).ni().popPrivileged();
    EXPECT_EQ(m.pin, 3);
    EXPECT_EQ(m.words[1], 0x77u);
}

TEST(SystemIntegration, MeshLatencyVisibleEndToEnd)
{
    // The same request takes longer across a 4x1 mesh than 2x1.
    auto round_trip = [](unsigned width) {
        NodeConfig cfg = nodeCfg(ni::Placement::registerFile, true);
        System machine("lat", width, 1, cfg);
        NodeId server = width - 1;

        ni::Model model{ni::Placement::registerFile, true};
        isa::Program sp =
            msg::assembleKernel(msg::handlerProgram(model));
        machine.node(server).boot(sp, sp.addrOf("entry"));
        machine.node(server).mem().write(0x2100, 1);

        std::string src = R"(
        entry:
            li   o0, (DEST << NODE_SHIFT) | 0x2100
            li   o1, 0
            add  o2, r0, r0 !send=2
        wait:
            and  r5, status, r7
            beqz r5, wait
            nop
            li   o0, (DEST << NODE_SHIFT)
            send 15
            halt
        )";
        isa::Program client = isa::assemble(
            ".equ DEST, " + std::to_string(server) + "\n" + src,
            msg::kernelSymbols());
        machine.node(0).boot(client, client.addrOf("entry"));
        machine.node(0).cpu().setReg(7,
                                     1u << ni::status::msgValidBit);
        EXPECT_TRUE(machine.run(100000));
        return machine.node(0).cpu().cycles();
    };

    uint64_t near = round_trip(2);
    uint64_t far = round_trip(4);
    EXPECT_GT(far, near);
}

TEST(SystemIntegration, StatsDumpContainsComponents)
{
    MetricsFingerprint metrics;
    NodeConfig cfg = nodeCfg(ni::Placement::registerFile, true);
    System machine("statsy", 2, 1, cfg);

    isa::Program client = msg::assembleKernel(R"(
    entry:
        li   o0, (1 << NODE_SHIFT)
        send 2
        send 2
        halt
    )");
    machine.node(0).boot(client, client.addrOf("entry"));
    machine.run(10000);

    std::string out = metrics.take(machine.curTick());
    // The two sends show up in the sender's counter.
    EXPECT_NE(out.find("\nstatsy.node0.ni.sent 2\n"), std::string::npos)
        << out;
    EXPECT_NE(out.find("\nstatsy.node1.ni.received "), std::string::npos);
    EXPECT_NE(out.find("\nstatsy.mesh.latency count "),
              std::string::npos);
}

TEST(SystemIntegration, BootRejectsNodeIdsBeyondGlobalWords)
{
    // A global word carries nodeBits node bits, so on a larger machine
    // node ids wrap (node 300 reads back as node 44).  Booting a
    // kernel there must fail loudly instead of simulating wrongly.
    ASSERT_EQ(nodeOf(globalWord(300, 0)), 44u);
    NodeConfig cfg;
    cfg.memBytes = 1 << 12;
    isa::Program prog = msg::assembleKernel("entry:\n    halt\n");

    System big("big", maxAddressableNodes + 1, 1, cfg);
    EXPECT_THROW(big.node(0).boot(prog, prog.addrOf("entry")),
                 FatalError);
    EXPECT_THROW(big.node(0).bootHost(prog, prog.addrOf("entry")),
                 FatalError);

    // The largest addressable machine still boots.
    System edge("edge", 16, 16, cfg);
    ASSERT_EQ(edge.numNodes(), maxAddressableNodes);
    EXPECT_NO_THROW(edge.node(maxAddressableNodes - 1)
                        .boot(prog, prog.addrOf("entry")));
}

TEST(SystemIntegration, GangTimeSliceWithNetworkDrain)
{
    // Section 2.1.3's first multi-user mechanism: "if all processors
    // context switch synchronously, or time-slice, then [messages for
    // inactive processes] can be avoided by draining the network in
    // between time-slices" (the CM-5 strategy).  Process 3 runs,
    // sends traffic, the OS drains, every node gang-switches to
    // process 9 -- and nothing lands in privileged escrow.
    NodeConfig cfg = nodeCfg(ni::Placement::registerFile, true);
    System machine("gang", 2, 1, cfg);

    auto set_pin = [&](NodeId n, uint8_t pin) {
        Word ctl = machine.node(n).ni().readReg(ni::regControl);
        ctl |= 1u << ni::control::checkPinBit;
        ctl = static_cast<Word>(insertBits(
            ctl, ni::control::pinShift + 7, ni::control::pinShift,
            pin));
        machine.node(n).ni().writeReg(ni::regControl, ctl);
    };
    set_pin(0, 3);
    set_pin(1, 3);

    // Process 3 sends a burst from node 0 to node 1.
    isa::Program burst = msg::assembleKernel(R"(
    entry:
        li   o0, (1 << NODE_SHIFT)
        lis  r1, 6
    go: send 2
        addi r1, r1, -1
        bnez r1, go
        nop
        halt
    )");
    machine.node(0).boot(burst, burst.addrOf("entry"));

    // Time-slice boundary: drain the network before switching.
    ASSERT_TRUE(machine.run(100000));
    EXPECT_TRUE(machine.mesh().idle());
    EXPECT_EQ(machine.node(0).ni().outputQueueLen(), 0u);

    // The OS consumes process 3's delivered messages, then
    // gang-switches both nodes to process 9.
    isa::NiCommand next;
    next.next = true;
    while (machine.node(1).ni().msgValid())
        machine.node(1).ni().command(next);
    set_pin(0, 9);
    set_pin(1, 9);

    // Process 9 runs; its traffic flows normally and nothing was
    // escrowed across the switch.
    machine.node(0).cpu().reset(burst.addrOf("entry"));
    machine.node(0).cpu().start();
    ASSERT_TRUE(machine.run(100000));
    EXPECT_FALSE(machine.node(1).ni().hasPrivileged());
    EXPECT_EQ(machine.node(1).ni().numReceived(), 12u);
    EXPECT_EQ(machine.node(1).ni().pendingException(),
              ni::ExcCode::none);
}

/**
 * @file
 * Determinism regression tests: the same System configuration must
 * produce a bit-identical metrics fingerprint (every registered
 * counter, gauge and histogram) and an identical message trace-id
 * sequence on every run -- serially, and for every copy of
 * the simulation when several run concurrently under SweepRunner.
 * This is the contract that makes the parallel sweep engine's output
 * byte-equal to a serial run's.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/trace.hh"
#include "msg/kernels.hh"
#include "msg/protocol.hh"
#include "sim/sweep.hh"
#include "metrics_fingerprint.hh"
#include "system/system.hh"

using namespace tcpni;
using namespace tcpni::sys;

namespace
{

struct RunFingerprint
{
    std::string metrics;
    /** Message trace ids in lifecycle-event record order, with the
     *  stage at which each was recorded. */
    std::vector<std::pair<uint64_t, trace::Stage>> idSequence;

    bool
    operator==(const RunFingerprint &o) const
    {
        return metrics == o.metrics && idSequence == o.idSequence;
    }
};

/**
 * One client on a 2x2 mesh writing then reading three servers (the
 * remote-memory scenario of the integration tests): enough traffic to
 * exercise the NIs, the mesh, dispatch, and replies.
 */
RunFingerprint
runWorkload()
{
    // The lifecycle sink and the metrics registry are thread-local:
    // each SweepRunner worker installs its own and unhooks before
    // returning.
    trace::TraceSink sink;
    trace::setSink(&sink);
    MetricsFingerprint metrics;

    NodeConfig cfg;
    cfg.ni.placement = ni::Placement::registerFile;
    cfg.ni.features = ni::Features::optimized();
    System machine("det", 2, 2, cfg);

    ni::Model model{ni::Placement::registerFile, true};
    isa::Program server =
        msg::assembleKernel(msg::handlerProgram(model));
    for (NodeId n = 1; n <= 3; ++n) {
        machine.node(n).boot(server, server.addrOf("entry"));
        machine.node(n).mem().write(msg::allocPtrAddr, 0x40000);
    }

    isa::Program client = msg::assembleKernel(R"(
    entry:
        lis  r1, 1
        lis  r3, 0
        lis  r9, 3
    next_server:
        slli r5, r1, NODE_SHIFT
        ori  r5, r5, 0x3000
        mul  r6, r1, r11
        add  o0, r5, r0
        add  o1, r6, r0 !send=3
        add  o0, r5, r0
        add  o1, r13, r0
        add  o2, r0, r0 !send=2
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

    EXPECT_TRUE(machine.run(200000));
    EXPECT_EQ(machine.node(0).mem().read(0x200), 60u);

    RunFingerprint fp;
    fp.metrics = metrics.take(machine.curTick());
    for (const trace::LifecycleEvent &e : sink.events())
        fp.idSequence.emplace_back(e.id, e.stage);

    trace::setSink(nullptr);
    return fp;
}

} // namespace

TEST(Determinism, RepeatedSerialRunsAreBitIdentical)
{
    RunFingerprint a = runWorkload();
    RunFingerprint b = runWorkload();
    ASSERT_NE(a.metrics.find("det.node0.cpu."), std::string::npos);
    ASSERT_FALSE(a.idSequence.empty());
    EXPECT_EQ(a.metrics, b.metrics);
    EXPECT_EQ(a.idSequence, b.idSequence);
}

TEST(Determinism, TraceIdsRestartPerSimulation)
{
    // Per-EventQueue id allocation: every run's first tagged message
    // gets id 1, so sequences are comparable across runs.
    RunFingerprint fp = runWorkload();
    ASSERT_FALSE(fp.idSequence.empty());
    EXPECT_EQ(fp.idSequence.front().first, 1u);
}

TEST(Determinism, ParallelSweepCopiesMatchSerialRun)
{
    // Four copies of the same simulation racing on a thread pool must
    // each reproduce the serial fingerprint exactly.
    RunFingerprint serial = runWorkload();
    SweepRunner sweep(4);
    std::vector<RunFingerprint> copies = sweep.map<RunFingerprint>(
        4, [](size_t) { return runWorkload(); });
    for (size_t i = 0; i < copies.size(); ++i) {
        EXPECT_EQ(copies[i].metrics, serial.metrics)
            << "metrics diverged in parallel copy " << i;
        EXPECT_EQ(copies[i].idSequence, serial.idSequence)
            << "trace ids diverged in parallel copy " << i;
    }
}

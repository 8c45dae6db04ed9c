#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "common/logging.hh"
#include "cpu/cpu.hh"
#include "msg/kernels.hh"
#include "ni/model_registry.hh"
#include "msg/protocol.hh"
#include "ni/network_interface.hh"
#include "noc/network.hh"
#include "../ni/model_print.hh"

using namespace tcpni;
using namespace tcpni::msg;

namespace
{

/** A two-node machine running a handler server on node 1. */
struct ServerRig
{
    EventQueue eq;
    IdealNetwork net{"net", eq, 2, 1};
    Memory mem0{1 << 20}, mem1{1 << 20};
    std::unique_ptr<ni::NetworkInterface> ni0, ni1;
    std::unique_ptr<Cpu> cpu1;
    isa::Program prog;
    bool optimized;

    explicit ServerRig(const ni::Model &model)
        : optimized(model.optimized)
    {
        ni::NiConfig cfg = model.config();
        cfg.inputQueueDepth = 64;
        cfg.outputQueueDepth = 64;
        cfg.inputThreshold = 255;
        cfg.outputThreshold = 255;
        ni::NiConfig client = cfg;
        client.inputQueueDepth = 1024;
        ni0 = std::make_unique<ni::NetworkInterface>("ni0", eq, 0, net,
                                                     client);
        ni1 = std::make_unique<ni::NetworkInterface>("ni1", eq, 1, net,
                                                     cfg);
        cpu1 = std::make_unique<Cpu>("cpu1", eq, mem1, ni1.get());
        prog = assembleKernel(handlerProgram(model));
        cpu1->loadProgram(prog);
        mem1.write(allocPtrAddr, 0x40000);
    }

    /** Inject a protocol message addressed to node 1.  @p basic_id
     *  overrides the word-4 id for basic models (Send variants have
     *  ids distinct from their shared type 0). */
    void
    inject(uint8_t type, Word w0, Word w1 = 0, Word w2 = 0, Word w3 = 0,
           int basic_id = -1)
    {
        Message m;
        Word id = basic_id >= 0 ? static_cast<Word>(basic_id) : type;
        m.words = {w0, w1, w2, w3, optimized ? 0u : id};
        m.type = optimized ? type : 0;
        m.setDestFromWord0();
        ASSERT_TRUE(ni1->acceptFromNetwork(m));
    }

    /** For optimized models, Send inlets dispatch via word 1. */
    Word
    sendIp(const char *label)
    {
        return optimized ? prog.addrOf(label) : 0x60;
    }

    void
    run()
    {
        inject(typeStop, globalWord(1, 0));
        cpu1->reset(prog.addrOf("entry"));
        cpu1->start();
        eq.run();
        ASSERT_TRUE(cpu1->halted());
    }

    /** Pop the next message received back at node 0. */
    Message
    reply()
    {
        EXPECT_TRUE(ni0->msgValid());
        Message m;
        for (unsigned k = 0; k < msgWords; ++k)
            m.words[k] = ni0->readReg(ni::regI0 + k);
        m.type = ni0->currentType();
        isa::NiCommand next;
        next.next = true;
        ni0->command(next);
        return m;
    }
};

class KernelModels : public ::testing::TestWithParam<ni::Model>
{
};

} // namespace

TEST_P(KernelModels, HandlerProgramAssembles)
{
    ni::Model m = GetParam();
    isa::Program p = assembleKernel(handlerProgram(m));
    EXPECT_GT(p.words.size(), 50u);
    EXPECT_NO_THROW(p.addrOf("entry"));
}

TEST_P(KernelModels, SenderProgramsAssemble)
{
    ni::Model m = GetParam();
    for (Kind k : {Kind::send0, Kind::send1, Kind::send2, Kind::read,
                   Kind::write, Kind::pread, Kind::pwrite}) {
        isa::Program p = assembleKernel(senderProgram(m, k, 4));
        EXPECT_GT(p.words.size(), 5u) << kindInfo(k).name;
    }
}

TEST_P(KernelModels, RemoteReadRoundTrip)
{
    ServerRig rig(GetParam());
    rig.mem1.write(0x2100, 0xabcd);
    rig.inject(typeRead, globalWord(1, 0x2100), globalWord(0, 0xf0),
               0x9999);
    rig.run();

    Message r = rig.reply();
    // The reply is a Send carrying (FP, IP, value).
    EXPECT_EQ(r.words[0], globalWord(0, 0xf0));
    EXPECT_EQ(r.words[1], 0x9999u);
    EXPECT_EQ(r.words[2], 0xabcdu);
}

TEST_P(KernelModels, RemoteWrite)
{
    ServerRig rig(GetParam());
    rig.inject(typeWrite, globalWord(1, 0x2104), 0x7777);
    rig.run();
    EXPECT_EQ(rig.mem1.read(0x2104), 0x7777u);
}

TEST_P(KernelModels, SendStoresWordsInFrame)
{
    ServerRig rig(GetParam());
    // Send with 2 data words: handler stores them at FP+0, FP+4.
    // Basic models dispatch Send variants by id (8 = send2).
    rig.inject(typeSend, globalWord(1, 0x2000), rig.sendIp("h_send2"),
               0x1111, 0x2222, static_cast<int>(kindInfo(Kind::send2).basicId));
    rig.run();
    EXPECT_EQ(rig.mem1.read(0x2000), 0x1111u);
    EXPECT_EQ(rig.mem1.read(0x2004), 0x2222u);
}

TEST_P(KernelModels, PReadFullRepliesImmediately)
{
    ServerRig rig(GetParam());
    Addr elem = 0x2200;
    rig.mem1.write(elem + istructTagOffset, tagFull);
    rig.mem1.write(elem + istructValueOffset, 0x5a5a);
    rig.inject(typePRead, globalWord(1, elem), globalWord(0, 0xf0),
               0x8888);
    rig.run();

    Message r = rig.reply();
    EXPECT_EQ(r.words[0], globalWord(0, 0xf0));
    EXPECT_EQ(r.words[1], 0x8888u);
    EXPECT_EQ(r.words[2], 0x5a5au);
}

TEST_P(KernelModels, PReadEmptyDefers)
{
    ServerRig rig(GetParam());
    Addr elem = 0x2200;
    rig.inject(typePRead, globalWord(1, elem), globalWord(0, 0xf0),
               0x8888);
    rig.run();

    // No reply; the element is DEFERRED with one queued reader.
    EXPECT_FALSE(rig.ni0->msgValid());
    EXPECT_EQ(rig.mem1.read(elem + istructTagOffset), tagDeferred);
    Addr node = rig.mem1.read(elem + istructValueOffset);
    EXPECT_EQ(rig.mem1.read(node + defNodeFpOffset),
              globalWord(0, 0xf0));
    EXPECT_EQ(rig.mem1.read(node + defNodeIpOffset), 0x8888u);
    EXPECT_EQ(rig.mem1.read(node + defNodeNextOffset), 0u);
}

TEST_P(KernelModels, PReadDeferredChains)
{
    ServerRig rig(GetParam());
    Addr elem = 0x2200;
    rig.inject(typePRead, globalWord(1, elem), globalWord(0, 0x10), 1);
    rig.inject(typePRead, globalWord(1, elem), globalWord(0, 0x20), 2);
    rig.run();

    EXPECT_EQ(rig.mem1.read(elem + istructTagOffset), tagDeferred);
    // The second reader heads the list and chains to the first.
    Addr head = rig.mem1.read(elem + istructValueOffset);
    EXPECT_EQ(rig.mem1.read(head + defNodeIpOffset), 2u);
    Addr next = rig.mem1.read(head + defNodeNextOffset);
    ASSERT_NE(next, 0u);
    EXPECT_EQ(rig.mem1.read(next + defNodeIpOffset), 1u);
    EXPECT_EQ(rig.mem1.read(next + defNodeNextOffset), 0u);
}

TEST_P(KernelModels, PWriteEmptyFillsElement)
{
    ServerRig rig(GetParam());
    Addr elem = 0x2200;
    rig.inject(typePWrite, globalWord(1, elem), 0, 0x1234);
    rig.run();
    EXPECT_EQ(rig.mem1.read(elem + istructTagOffset), tagFull);
    EXPECT_EQ(rig.mem1.read(elem + istructValueOffset), 0x1234u);
    EXPECT_FALSE(rig.ni0->msgValid());
}

TEST_P(KernelModels, PWriteForwardsToDeferredReaders)
{
    ServerRig rig(GetParam());
    Addr elem = 0x2200;
    // Three readers defer, then the write arrives.
    rig.inject(typePRead, globalWord(1, elem), globalWord(0, 0x10), 1);
    rig.inject(typePRead, globalWord(1, elem), globalWord(0, 0x20), 2);
    rig.inject(typePRead, globalWord(1, elem), globalWord(0, 0x30), 3);
    rig.inject(typePWrite, globalWord(1, elem), 0, 0x4242);
    rig.run();

    EXPECT_EQ(rig.mem1.read(elem + istructTagOffset), tagFull);
    // All three readers receive the value (LIFO list order).
    std::set<Word> ips;
    for (int k = 0; k < 3; ++k) {
        Message r = rig.reply();
        EXPECT_EQ(r.words[2], 0x4242u);
        ips.insert(r.words[1]);
    }
    EXPECT_EQ(ips, (std::set<Word>{1, 2, 3}));
    EXPECT_FALSE(rig.ni0->msgValid());
}

TEST_P(KernelModels, PWriteSendsAck)
{
    ServerRig rig(GetParam());
    Addr elem = 0x2200;
    // Ack word points at a counter on node 0.
    rig.inject(typePWrite, globalWord(1, elem), globalWord(0, 0x300),
               0x77);
    rig.run();

    Message ack = rig.reply();
    EXPECT_EQ(ack.words[0], globalWord(0, 0x300));
    if (rig.optimized) {
        EXPECT_EQ(ack.type, typeAck);
    }
}

TEST_P(KernelModels, AckDecrementsCounter)
{
    ServerRig rig(GetParam());
    rig.mem1.write(0x400, 5);
    rig.inject(typeAck, globalWord(1, 0x400));
    rig.inject(typeAck, globalWord(1, 0x400));
    rig.run();
    EXPECT_EQ(rig.mem1.read(0x400), 3u);
}

TEST_P(KernelModels, MixedStream)
{
    // A mixed workload: write, read it back, I-structure produce and
    // consume -- all in one stream, exercising dispatch transitions.
    ServerRig rig(GetParam());
    Addr elem = 0x2200;
    rig.inject(typeWrite, globalWord(1, 0x2100), 0xcafe);
    rig.inject(typeRead, globalWord(1, 0x2100), globalWord(0, 0x10),
               0xaa);
    rig.inject(typePRead, globalWord(1, elem), globalWord(0, 0x20),
               0xbb);
    rig.inject(typePWrite, globalWord(1, elem), 0, 0xd00d);
    rig.inject(typeSend, globalWord(1, 0x2010),
               rig.sendIp("h_send1"), 0x77, 0,
               static_cast<int>(kindInfo(Kind::send1).basicId));
    rig.run();

    Message r1 = rig.reply();      // read reply
    EXPECT_EQ(r1.words[2], 0xcafeu);
    Message r2 = rig.reply();      // forwarded I-structure value
    EXPECT_EQ(r2.words[1], 0xbbu);
    EXPECT_EQ(r2.words[2], 0xd00du);
    EXPECT_EQ(rig.mem1.read(0x2010), 0x77u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, KernelModels, ::testing::ValuesIn(ni::paperModels()),
    [](const ::testing::TestParamInfo<ni::Model> &info) {
        std::string n = info.param.shortName();
        for (char &c : n) {
            if (c == '-')
                c = '_';
        }
        return n;
    });

TEST(EscapeType, Section221EscapeDispatch)
{
    // Messages whose identifier exceeds four bits use the ESCAPE type
    // (14); the escape handler reads the 32-bit id from word 4 and
    // dispatches through a software table.  Id 0 is a "poke" handler:
    // store word 2 at the address in word 1.
    ni::Model model{ni::Placement::registerFile, true};
    ServerRig rig(model);
    Message m;
    m.words = {globalWord(1, 0), 0x2400, 0xfeed, 0, /*escape id=*/0};
    m.type = typeEscape;
    m.setDestFromWord0();
    ASSERT_TRUE(rig.ni1->acceptFromNetwork(m));
    rig.run();
    EXPECT_EQ(rig.mem1.read(0x2400), 0xfeedu);
}

namespace
{

const NiSpelling regOpt{true, true}, regBasic{true, false};
const NiSpelling cacheOpt{false, true}, cacheBasic{false, false};

/** fatal()'s message for lowering @p src in @p sp, or "" if none. */
std::string
lowerError(const std::string &src, const NiSpelling &sp)
{
    try {
        lowerNiAccess(src, sp);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(NiLowering, SpellsEachPlacementAndBit)
{
    // Register-mapped: NI words are general registers.
    EXPECT_EQ(lowerNiAccess("    add  r5, i0, r0\n", regOpt),
              "    add  r5, i0, r0\n");
    EXPECT_EQ(lowerNiAccess("    send T_BARDN\n", regOpt),
              "    send T_BARDN\n");
    EXPECT_EQ(lowerNiAccess("    send T_BARDN\n", regBasic),
              "    addi o4, r0, T_BARDN\n    send\n");
    // Cache-mapped: loads and stores to the command window.
    EXPECT_EQ(lowerNiAccess("    add  r5, i0, r0\n", cacheOpt),
              "    ldi  r5, r10, NI_I0\n");
    EXPECT_EQ(lowerNiAccess("    ld   o0, r2, r0\n", cacheOpt),
              "    ld   r3, r2, r0\n    sti  r3, r10, NI_O0\n");
    EXPECT_EQ(lowerNiAccess("    send T_BARDN\n", cacheOpt),
              "    ldi  r0, r10, NI_SEND | NI_TYPE*T_BARDN\n");
    EXPECT_EQ(lowerNiAccess("    send T_BARUP\n", cacheBasic),
              "    addi r3, r0, T_BARUP\n"
              "    sti  r3, r10, NI_O4 | NI_SEND\n");
    // The dispatch exit; msgid vanishes where the SEND carries the type.
    EXPECT_EQ(lowerNiAccess("    jmp  msgip\n", regBasic),
              "    br   disp_coll\n");
    EXPECT_EQ(lowerNiAccess("    jmp  msgip\n", cacheOpt),
              "    .region dispatching\n"
              "    ldi  r15, r10, NI_MSGIP\n    jmp  r15\n");
    EXPECT_EQ(lowerNiAccess("    msgid T_MCAST\n", cacheOpt), "");
    // Guards keep a line only where every tag holds.
    EXPECT_EQ(lowerNiAccess("[cache opt]\n[reg]  nop\n", cacheOpt), "\n");
}

TEST(NiLowering, RejectsUnknownPseudoOp)
{
    std::string err = lowerError("    nop\n    forward 0\n", cacheOpt);
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
    EXPECT_NE(err.find("unknown NI pseudo-op"), std::string::npos) << err;
    EXPECT_NE(lowerError("    send\n", regOpt), "");
}

TEST(NiLowering, RejectsWordIndexOutsideZeroToFour)
{
    std::string err = lowerError("    add  r5, i5, r0\n", regOpt);
    EXPECT_NE(err.find("line 1"), std::string::npos) << err;
    EXPECT_NE(err.find("outside 0..4"), std::string::npos) << err;
    EXPECT_NE(lowerError("    add  o7, r5, r0\n", cacheBasic), "");
}

TEST(NiLowering, RejectsAccessWithoutRule)
{
    // Register mapping could execute these, the command window cannot
    // spell them: every spelling refuses them.
    for (const char *src : {"    add  o1, r6, r5\n", "    st   i1, i0, r0\n",
                            "    jmp  nextmsgip\n"}) {
        for (const NiSpelling &sp : {regOpt, cacheBasic}) {
            std::string err = lowerError(src, sp);
            EXPECT_NE(err.find("line 1"), std::string::npos) << src << err;
        }
    }
    EXPECT_NE(lowerError("    ld   r5, i0, r0 !next\n", regOpt)
                  .find("instruction-bit"),
              std::string::npos);
}

TEST(NiLowering, RejectsUnknownGuard)
{
    std::string err = lowerError("    nop\n\n[fast] nop\n", regOpt);
    EXPECT_NE(err.find("line 3"), std::string::npos) << err;
    EXPECT_NE(err.find("guard"), std::string::npos) << err;
}

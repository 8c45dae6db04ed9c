/**
 * @file
 * Randomized stress tests for the mesh fabric and its interaction
 * with the NI flow-control machinery: many-node message storms with
 * flaky sinks and tiny router buffers must lose nothing and preserve
 * per-source FIFO order; saturating real NIs across the mesh must
 * assert the iafull/oafull threshold bits in MsgIp (Section 2.2.4)
 * and, under the exception policy, raise output-overflow exactly as
 * Section 2.1.1 describes.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "../system/fnv1a.hh"
#include "../system/metrics_fingerprint.hh"
#include "common/random.hh"
#include "ni/network_interface.hh"
#include "ni/ni_regs.hh"
#include "noc/mesh.hh"

using namespace tcpni;
using namespace tcpni::ni;

namespace
{

struct StormSink
{
    std::vector<Message> got;
    Random *rng = nullptr;
    double refuse_p = 0;
    /** When set, every accepted delivery appends one line to it
     *  (tick, destination, source, sequence): the global delivery
     *  order across all sinks. */
    std::ostringstream *log = nullptr;
    const EventQueue *eq = nullptr;

    MessageSink
    sink()
    {
        return [this](const Message &m) {
            if (rng && rng->chance(refuse_p))
                return false;
            got.push_back(m);
            if (log) {
                *log << eq->curTick() << " " << m.dest() << " "
                     << m.words[2] << " " << m.words[1] << "\n";
            }
            return true;
        };
    }
};

/**
 * Drive @p total messages through @p mesh in bursts, with hotspot
 * destinations, then assert conservation and per-pair FIFO order.
 */
void
runStorm(MeshNetwork &mesh, EventQueue &eq, Random &rng, unsigned n,
         unsigned total, std::vector<StormSink> &sinks,
         unsigned extra_words = 0)
{
    std::map<std::pair<NodeId, NodeId>, Word> seq;
    unsigned sent = 0;
    uint64_t guard = 0;
    while (sent < total) {
        // A burst of back-to-back injections from one source; half
        // the bursts aim at a hotspot corner to pile up contention.
        NodeId s = rng.uniform(0, n - 1);
        NodeId hot = rng.chance(0.5) ? 0 : rng.uniform(0, n - 1);
        unsigned burst = rng.uniform(1, 8);
        for (unsigned b = 0; b < burst && sent < total; ++b) {
            NodeId d = rng.chance(0.3) ? rng.uniform(0, n - 1) : hot;
            Message m;
            m.words[0] = globalWord(d, 0);
            m.words[1] = seq[{s, d}];
            m.words[2] = s;
            m.setDestFromWord0();
            for (unsigned w = 0; w < extra_words; ++w)
                m.extra.push_back(w);
            if (mesh.offer(s, m)) {
                ++seq[{s, d}];
                ++sent;
            } else {
                break;  // router inject queue full: back off
            }
        }
        eq.run(eq.curTick() + rng.uniform(0, 4));
        ASSERT_LT(++guard, 4000000u);
    }
    eq.run();
    ASSERT_TRUE(mesh.idle());

    unsigned delivered = 0;
    for (const StormSink &snk : sinks)
        delivered += static_cast<unsigned>(snk.got.size());
    EXPECT_EQ(delivered, total);
    EXPECT_EQ(mesh.injected(), total);

    for (NodeId d = 0; d < n; ++d) {
        std::map<NodeId, Word> next;
        for (const Message &m : sinks[d].got) {
            NodeId s = m.words[2];
            ASSERT_EQ(m.words[1], next[s]) << "pair " << s << "->" << d;
            ++next[s];
        }
    }
}

/** One storm's exact schedule, as pinned by MeshStormPinned. */
struct StormPrint
{
    Tick ticks = 0;
    uint64_t deliveryHash = 0;  //!< fnv1a of the global delivery log
    uint64_t metricsHash = 0;   //!< fnv1a(MetricsFingerprint::take())
    uint64_t blockedCycles = 0; //!< summed per-link blocked_cycles
};

/** Sum of every "<link>.blocked_cycles" counter in a fingerprint. */
uint64_t
sumBlockedCycles(const std::string &fingerprint)
{
    const std::string suffix = ".blocked_cycles ";
    uint64_t sum = 0;
    std::istringstream is(fingerprint);
    for (std::string line; std::getline(is, line);) {
        const size_t at = line.find(suffix);
        if (at != std::string::npos)
            sum += std::stoull(line.substr(at + suffix.size()));
    }
    return sum;
}

/** Check that every link's busy_cycles equals its xfers: a transfer
 *  holds its link for exactly one cycle. */
void
expectBusyCyclesAreXfers(const std::string &fingerprint)
{
    // Link ("storm.node3.east") -> counter value.
    std::map<std::string, std::string> xfers, busy;
    std::istringstream is(fingerprint);
    for (std::string line; std::getline(is, line);) {
        const size_t sp = line.find(' ');
        const size_t dot = line.rfind('.', sp);
        if (sp == std::string::npos || dot == std::string::npos)
            continue;
        const std::string series = line.substr(dot + 1, sp - dot - 1);
        if (series == "xfers")
            xfers[line.substr(0, dot)] = line.substr(sp + 1);
        else if (series == "busy_cycles")
            busy[line.substr(0, dot)] = line.substr(sp + 1);
    }
    EXPECT_FALSE(xfers.empty());
    EXPECT_EQ(busy, xfers);
}

/** A storm configuration; both use router buffers of 2. */
struct StormSpec
{
    const char *name;
    unsigned width, height;
    double refuseP;         //!< chance a sink refuses a delivery
    unsigned total;         //!< messages injected
    unsigned extraWords;    //!< SCROLL words per message
    uint64_t seedXor;       //!< keeps the two storms' streams apart
};

/** 6x6, sinks refusing 40%. */
constexpr StormSpec refusingSpec{"storm", 6, 6, 0.4, 1500, 0, 0};
/** 3x3, 3 extra words (8-word messages), sinks refusing 25%. */
constexpr StormSpec longSpec{"longstorm", 3, 3, 0.25, 400, 3,
                             0x5eedULL};

/** Run one storm with a metrics registry installed (link statistics
 *  on); when @p print is set, record its schedule. */
void
storm(const StormSpec &spec, uint64_t seed, StormPrint *print)
{
    Random rng(seed ^ spec.seedXor);
    const unsigned n = spec.width * spec.height;

    MetricsFingerprint metrics;
    std::ostringstream log;
    EventQueue eq;
    MeshNetwork mesh(spec.name, eq, spec.width, spec.height,
                     /*buffer_depth=*/2);
    std::vector<StormSink> sinks(n);
    for (NodeId i = 0; i < n; ++i) {
        sinks[i].rng = &rng;
        sinks[i].refuse_p = spec.refuseP;
        if (print) {
            sinks[i].log = &log;
            sinks[i].eq = &eq;
        }
        mesh.setSink(i, sinks[i].sink());
    }
    runStorm(mesh, eq, rng, n, spec.total, sinks, spec.extraWords);
    const std::string fp = metrics.take(eq.curTick());
    expectBusyCyclesAreXfers(fp);
    if (print) {
        *print = {eq.curTick(), fnv1a(log.str()), fnv1a(fp),
                  sumBlockedCycles(fp)};
    }
}

} // namespace

class MeshStorm : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(MeshStorm, BurstyHotspotStormNoLossPerSourceFifo)
{
    // 6x6 mesh, router buffers of 2: deep backpressure trees form
    // behind the hotspot, and flaky sinks (40% refusal) keep ejection
    // retrying.  Conservation and per-pair FIFO must survive.
    storm(refusingSpec, GetParam(), nullptr);
}

TEST_P(MeshStorm, LongMessageStormKeepsOrder)
{
    // 8-word (scrolled) payloads on a 3x3 mesh: a long message moves
    // as one transfer like a short one.  Same invariants must hold.
    storm(longSpec, GetParam(), nullptr);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeshStorm,
                         ::testing::Values(7u, 77u, 777u, 7777u));

namespace
{

struct StormPin
{
    uint64_t seed;
    Tick ticks;
    uint64_t blockedCycles;
    uint64_t deliveryHash;
    uint64_t metricsHash;
};

/** Recorded from the mesh tick that walked every router and routed
 *  every head per output port, before the active set and the head
 *  summary replaced it. */
constexpr StormPin refusingPins[] = {
    {7, 1610, 1157, 0xfdd671ea615048f7ULL, 0x76db4abfc9b3c5b5ULL},
    {77, 1602, 1168, 0x34e74a7a8bd141bdULL, 0xe29735f87783ee69ULL},
    {777, 1642, 1150, 0xbf7f9e02a164f8acULL, 0xae83e2cca4099908ULL},
    {7777, 1594, 1210, 0x8c69c723a7dd68c9ULL, 0x03723f022829043eULL},
};

void
checkPin(const StormPrint &got, const StormPin &pin)
{
    SCOPED_TRACE("seed " + std::to_string(pin.seed));
    EXPECT_EQ(got.ticks, pin.ticks);
    EXPECT_EQ(got.blockedCycles, pin.blockedCycles);
    EXPECT_EQ(got.deliveryHash, pin.deliveryHash);
    EXPECT_EQ(got.metricsHash, pin.metricsHash);
}

} // namespace

// The exact schedule of the refusing storm -- final tick, global
// delivery order, and every mesh series including per-link xfers,
// busy_cycles and blocked_cycles -- with link statistics on.  Unlike
// MeshFuzz (which reaches the mesh through System), this pins the
// link contention accounting.
TEST(MeshStormPinned, RefusingSinkStormSchedule)
{
    for (const StormPin &pin : refusingPins) {
        StormPrint got;
        storm(refusingSpec, pin.seed, &got);
        checkPin(got, pin);
    }
}

namespace
{

constexpr Word ipBase = 0x8000;

/** Compose and SEND one typed message carrying (seq, src). */
CmdResult
sendMsg(NetworkInterface &src, NodeId dst, uint8_t type, Word seq,
        Word from)
{
    src.writeReg(regO0, globalWord(dst, 0));
    src.writeReg(regO1, seq);
    src.writeReg(regO2, from);
    src.writeReg(regO3, 0);
    src.writeReg(regO4, 0);
    isa::NiCommand cmd;
    cmd.mode = isa::SendMode::send;
    cmd.type = type;
    return src.command(cmd);
}

bool
msgValid(NetworkInterface &ni)
{
    return bits(ni.readReg(regStatus), status::msgValidBit) != 0;
}

} // namespace

TEST(NiSaturation, FloodAssertsIafullVariantThenDrains)
{
    // Three NIs on a 2x2 mesh flood node 0, whose processor never
    // consumes: the receiver's input queue crosses its threshold and
    // MsgIp must select the iafull handler variant.  Draining below
    // the threshold must restore the plain handler, and every message
    // must come out -- in per-source FIFO order.
    EventQueue eq;
    MeshNetwork mesh("sat", eq, 2, 2, /*buffer_depth=*/2);

    NiConfig cfg;
    cfg.placement = Placement::registerFile;
    cfg.optimized = true;
    cfg.inputQueueDepth = 8;
    cfg.inputThreshold = 4;
    std::vector<std::unique_ptr<NetworkInterface>> nis;
    for (NodeId i = 0; i < 4; ++i) {
        nis.push_back(std::make_unique<NetworkInterface>(
            "sat.ni" + std::to_string(i), eq, i, mesh, cfg));
    }
    nis[0]->writeReg(regIpBase, ipBase);

    // Flood: 12 messages per sender, retrying stalled SENDs as the
    // mesh backs up against the saturated receiver.
    const unsigned perSender = 12;
    std::vector<Word> seq(4, 0);
    uint64_t guard = 0;
    for (bool progress = true; progress;) {
        progress = false;
        for (NodeId s = 1; s <= 3; ++s) {
            if (seq[s] >= perSender)
                continue;
            if (sendMsg(*nis[s], 0, 7, seq[s], s) == CmdResult::ok)
                ++seq[s];
            progress = true;
        }
        eq.run(eq.curTick() + 2);
        ASSERT_LT(++guard, 100000u);
    }
    eq.run(eq.curTick() + 50);

    // The receiver is saturated well past its threshold.
    EXPECT_GT(nis[0]->inputQueueLen(), 4u);
    ASSERT_TRUE(msgValid(*nis[0]));
    EXPECT_EQ(nis[0]->readReg(regMsgIp),
              dispatch::handlerAddr(ipBase, 7, /*iafull=*/true));

    // Drain everything via NEXT, recording per-source sequences.
    std::map<Word, Word> next;
    unsigned drained = 0;
    isa::NiCommand nextCmd;
    nextCmd.next = true;
    guard = 0;
    while (true) {
        if (!msgValid(*nis[0])) {
            if (eq.empty() && nis[0]->inputQueueLen() == 0)
                break;
            eq.run(eq.curTick() + 4);
            ASSERT_LT(++guard, 100000u);
            continue;
        }
        Word from = nis[0]->readReg(regI2);
        EXPECT_EQ(nis[0]->readReg(regI1), next[from])
            << "source " << from;
        ++next[from];
        ++drained;
        nis[0]->command(nextCmd);
    }
    EXPECT_EQ(drained, 3 * perSender);
    for (NodeId s = 1; s <= 3; ++s)
        EXPECT_EQ(nis[s]->numSent(), perSender);

    // Below threshold again: the plain poll handler is back.
    EXPECT_EQ(nis[0]->readReg(regMsgIp), dispatch::handlerAddr(ipBase, 0));
    EXPECT_TRUE(mesh.idle());
}

TEST(NiSaturation, BackpressureAssertsOafullThenOverflowException)
{
    // A sender behind a wedged receiver on a real mesh: its output
    // queue crosses the threshold (oafull in MsgIp), then -- under the
    // exception policy -- overflows, raising ExcCode::outputOverflow
    // in STATUS rather than stalling.
    EventQueue eq;
    MeshNetwork mesh("bp", eq, 2, 1, /*buffer_depth=*/2);

    NiConfig cfg;
    cfg.placement = Placement::registerFile;
    cfg.optimized = true;
    cfg.outputQueueDepth = 4;
    cfg.outputThreshold = 2;
    cfg.inputQueueDepth = 2;
    NetworkInterface src("bp.ni0", eq, 0, mesh, cfg);
    NetworkInterface dst("bp.ni1", eq, 1, mesh, cfg);
    src.writeReg(regIpBase, ipBase);

    // Select the exception (non-stall) policy on the sender.
    Word ctl = src.readReg(regControl);
    ctl &= ~(1u << control::stallOnFullBit);
    src.writeReg(regControl, ctl);

    // Send until the output queue crosses its threshold.  The
    // receiver's queue and the mesh soak up the first few, so keep
    // injecting without running the queue once backpressure forms.
    Word n = 0;
    uint64_t guard = 0;
    while (src.outputQueueLen() <= cfg.outputThreshold) {
        ASSERT_EQ(sendMsg(src, 1, 7, n, 0), CmdResult::ok);
        ++n;
        if (src.outputQueueLen() <= cfg.outputThreshold)
            eq.run(eq.curTick() + 1);
        ASSERT_LT(++guard, 100000u);
    }
    EXPECT_EQ(src.readReg(regMsgIp),
              dispatch::handlerAddr(ipBase, 0, false, /*oafull=*/true));
    EXPECT_EQ(bits(src.readReg(regStatus), status::oafullBit), 1u);
    EXPECT_EQ(src.pendingException(), ExcCode::none);

    // Push past the queue depth: the overflowing SENDs are dropped
    // and the exception is raised (not a stall).
    while (src.outputQueueLen() < cfg.outputQueueDepth) {
        ASSERT_EQ(sendMsg(src, 1, 7, n, 0), CmdResult::ok);
        ++n;
        ASSERT_LT(++guard, 100000u);
    }
    ASSERT_EQ(sendMsg(src, 1, 7, n, 0), CmdResult::ok);
    EXPECT_EQ(src.pendingException(), ExcCode::outputOverflow);
    Word st = src.readReg(regStatus);
    EXPECT_EQ(bits(st, status::excPendingBit), 1u);
    EXPECT_EQ(bits(st, status::excCodeShift + 3, status::excCodeShift),
              static_cast<Word>(ExcCode::outputOverflow));
    // The exception variant of the dispatch table is selected.
    EXPECT_EQ(src.readReg(regMsgIp),
              dispatch::handlerAddr(ipBase, dispatch::excType));
}

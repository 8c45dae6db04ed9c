#include "system/traffic.hh"

#include "common/logging.hh"
#include "ni/ni_regs.hh"

namespace tcpni
{
namespace sys
{

Arrival
arrivalFromName(const std::string &name)
{
    if (name == "uniform")
        return Arrival::uniform;
    if (name == "poisson")
        return Arrival::poisson;
    if (name == "bursty")
        return Arrival::bursty;
    fatal("unknown arrival process '%s' (uniform, poisson, bursty)",
          name.c_str());
}

Pattern
patternFromName(const std::string &name)
{
    if (name == "random")
        return Pattern::random;
    if (name == "incast")
        return Pattern::incast;
    fatal("unknown traffic pattern '%s' (random, incast)",
          name.c_str());
}

TrafficGen::TrafficGen(System &sys, NodeId node,
                       const TrafficConfig &cfg)
    : sys_(sys), node_(node), cfg_(cfg),
      eq_(sys.eventq()),
      rng_(cfg.seed ^ (0x9E3779B97F4A7C15ULL * (node + 1))),
      rngDst_(cfg.seed ^ (0xC2B2AE3D27D4EB4FULL * (node + 1))),
      sendEvent_(*this), arrivalEvent_(*this), serviceEvent_(*this)
{
}

bool
TrafficGen::sendsAnything() const
{
    // The incast server only serves.
    return cfg_.pattern != Pattern::incast || node_ != 0;
}

void
TrafficGen::start()
{
    auto &ni = sys_.node(node_).ni();
    // Interrupt-driven reception dispatches through MsgIp; without
    // the hardware-dispatch feature the NI never interrupts and
    // arrivals would sit undrained, backpressuring the mesh forever.
    tcpni_assert(ni.config().features.hwDispatch);
    ni.setInterruptSink([this](Word) { drain(); });
    ni.writeReg(ni::regControl,
                ni.readReg(ni::regControl) |
                    (1u << ni::control::intEnableBit));
    if (cfg_.messages == 0 || !sendsAnything())
        return;
    if (cfg_.openLoop)
        eq_.schedule(&arrivalEvent_, eq_.curTick() + nextGap());
    else
        eq_.schedule(&sendEvent_, eq_.curTick() + nextGap());
}

Tick
TrafficGen::nextGap()
{
    switch (cfg_.arrival) {
      case Arrival::uniform: {
        // Uniform over [1, 2*meanGap - 1]: mean meanGap, never zero.
        Tick span = cfg_.meanGap > 1 ? 2 * cfg_.meanGap - 1 : 1;
        return 1 + rng_.next64() % span;
      }
      case Arrival::poisson: {
        // Geometric with mean meanGap: the integer analog of
        // exponential inter-arrivals (memoryless in whole ticks).
        Tick g = 1;
        while (cfg_.meanGap > 1 && rng_.next32() % cfg_.meanGap)
            ++g;
        return g;
      }
      case Arrival::bursty: {
        if (burstLeft_ > 1) {
            --burstLeft_;
            return 1;
        }
        // The current intent closed a burst: draw the next burst's
        // length and an off gap sized so the long-run rate matches
        // `uniform` at the same meanGap (L intents per L*meanGap
        // ticks on average).
        uint64_t len = 1;
        while (cfg_.burstLen > 1 && rng_.next32() % cfg_.burstLen)
            ++len;
        burstLeft_ = len;
        Tick mean_off =
            len * (cfg_.meanGap > 1 ? cfg_.meanGap - 1 : 0) + 1;
        return 1 + rng_.next64() % (2 * mean_off - 1);
      }
    }
    return 1;
}

NodeId
TrafficGen::drawDst()
{
    NodeId n = sys_.numNodes();
    if (cfg_.pattern == Pattern::incast)
        return 0;
    if (n < 2)
        return node_;
    // Coverage message: every node receives at least once.
    if (sent_ == 0)
        return (node_ + 1) % n;
    if (cfg_.hotspotPermille > 0 && node_ != 0 &&
        rngDst_.next32() % 1000 < cfg_.hotspotPermille)
        return 0;
    // Uniform over the other n-1 nodes (never self).
    return (node_ + 1 + rngDst_.next64() % (n - 1)) % n;
}

Message
TrafficGen::makeMessage(Tick intent)
{
    NodeId dst = drawDst();
    Message m{};
    m.dst = dst;
    m.type = 1;
    m.words = {static_cast<Word>(sent_), node_, dst,
               static_cast<Word>(intent), 0};
    return m;
}

void
TrafficGen::arrive()
{
    const Tick now = eq_.curTick();
    backlog_.push_back(now);
    ++arrivals_;
    lastArrivalTick_ = now;
    if (arrivals_ < cfg_.messages)
        eq_.schedule(&arrivalEvent_, now + nextGap());
    // Wake the admission pump if it went idle on an empty backlog.
    if (!sendEvent_.scheduled())
        eq_.schedule(&sendEvent_, now);
}

void
TrafficGen::trySend()
{
    const Tick now = eq_.curTick();
    if (!pendingValid_) {
        if (cfg_.openLoop) {
            if (backlog_.empty())
                return;
            pending_ = makeMessage(backlog_.front());
            backlog_.pop_front();
        } else {
            pending_ = makeMessage(now);
            ++arrivals_;
            lastArrivalTick_ = now;
        }
        pendingValid_ = true;
    }
    if (sys_.node(node_).ni().injectMessage(pending_) ==
        ni::CmdResult::stall) {
        // Output queue full under the stall policy, or a transport
        // policy held the send: keep the message and retry next tick,
        // like a stalled SEND instruction.
        ++stalls_;
        eq_.schedule(&sendEvent_, eq_.curTick() + 1);
        return;
    }
    pendingValid_ = false;
    ++sent_;
    if (cfg_.openLoop) {
        // Drain the backlog at the pump's line rate (one per tick).
        if (!backlog_.empty())
            eq_.schedule(&sendEvent_, now + 1);
    } else if (sent_ < cfg_.messages) {
        eq_.schedule(&sendEvent_, now + nextGap());
    }
}

void
TrafficGen::retireOne(Tick now)
{
    auto &ni = sys_.node(node_).ni();
    if (cfg_.openLoop) {
        // End-to-end sojourn: completion minus the intent tick the
        // sender stamped into word 3 (mod-2^32 subtraction, exact for
        // any sojourn under 2^32 ticks).
        Word intent = ni.readReg(ni::regI3);
        sojourn_.record(static_cast<Word>(now) - intent);
    }
    ++drained_;
    ni.command(isa::NiCommand{.next = true});
}

void
TrafficGen::drain()
{
    auto &ni = sys_.node(node_).ni();
    const Tick now = eq_.curTick();
    if (cfg_.serviceTime == 0) {
        while (ni.msgValid())
            retireOne(now);
        // Re-enable interrupt reception (the bit cleared on entry).
        // The input registers are empty here, so this cannot re-fire.
        ni.writeReg(ni::regControl,
                    ni.readReg(ni::regControl) |
                        (1u << ni::control::intEnableBit));
        return;
    }
    // Busy-server model: one message retires every serviceTime ticks.
    // The interrupt stays disabled while the server is busy (the
    // service loop polls the input registers itself); serviceOne()
    // re-enables it when the queue runs dry.
    if (!serverBusy_ && ni.msgValid()) {
        serverBusy_ = true;
        eq_.schedule(&serviceEvent_, now + cfg_.serviceTime);
    }
}

void
TrafficGen::serviceOne()
{
    auto &ni = sys_.node(node_).ni();
    const Tick now = eq_.curTick();
    tcpni_assert(serverBusy_);
    if (ni.msgValid())
        retireOne(now);
    if (ni.msgValid()) {
        eq_.schedule(&serviceEvent_, now + cfg_.serviceTime);
        return;
    }
    serverBusy_ = false;
    ni.writeReg(ni::regControl,
                ni.readReg(ni::regControl) |
                    (1u << ni::control::intEnableBit));
}

} // namespace sys
} // namespace tcpni

#include "ni/network_interface.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/trace.hh"
#include "transport/fabric.hh"
#include "transport/transport.hh"

namespace tcpni
{
namespace ni
{

NetworkInterface::NetworkInterface(std::string name, EventQueue &eq,
                                   NodeId node, Network &network,
                                   NiConfig config)
    : SimObject(std::move(name), eq), node_(node), network_(network),
      config_(config), pumpEvent_(*this)
{
    // The architectural depths bound the queues exactly, so the rings
    // never overflow; the privileged escrow ring stays unallocated
    // until a privileged message actually arrives.
    inputQueue_.reset(config_.inputQueueDepth);
    outputQueue_.reset(config_.outputQueueDepth);

    // Reset CONTROL: stall-on-full policy, configured thresholds,
    // PIN 0, PIN checking off.
    control_ = (1u << control::stallOnFullBit) |
               (static_cast<Word>(config_.inputThreshold)
                << control::inThresholdShift) |
               (static_cast<Word>(config_.outputThreshold)
                << control::outThresholdShift);

    network_.setSink(node_, [this](const Message &m) {
        return acceptFromNetwork(m);
    });

    if (auto *r = metrics::registry()) {
        mgroup_ = r->addGroup(this->name(), eq);
        mgroup_->addCounter("sent", [this] { return sent_; },
                            "messages injected");
        mgroup_->addCounter("received",
                            [this] { return received_; },
                            "messages accepted");
        mgroup_->addCounter("refused",
                            [this] { return refused_; },
                            "deliveries refused (input queue full)");
        mgroup_->addCounter("overflow_exc",
                            [this] { return overflowExc_; },
                            "output-overflow exceptions raised");
        mgroup_->addCounter("priv_received",
                            [this] { return privReceived_; },
                            "privileged/PIN-mismatched messages");
        mgroup_->addCounter("interrupts",
                            [this] { return interrupts_; },
                            "message-arrival interrupts delivered");
        mgroup_->addCounter("oq.stall_cycles",
                            [this] { return oqStallCycles_; },
                            "cycles SEND stalled on a full output "
                            "queue");
        mgroup_->addCounter("iq.full_crossings",
                            [this] { return iafullCrossings_; },
                            "iafull threshold rising edges");
        mgroup_->addCounter("oq.full_crossings",
                            [this] { return oafullCrossings_; },
                            "oafull threshold rising edges");
        mgroup_->addCounter("oq.full_cycles",
                            [this] { return oafullCycles(); },
                            "cycles with oafull asserted");
        mgroup_->addCounter("oq.occ_ticks",
                            [this] { return outputOccTicks(); },
                            "output queue occupancy integral "
                            "(messages x ticks)");
        mgroup_->addCounter("iq.occ_ticks",
                            [this] { return inputOccTicks(); },
                            "input queue occupancy integral "
                            "(messages x ticks)");
        mgroup_->addGauge("iq.depth",
                          [this] { return inputQueue_.size(); },
                          "input queue depth");
        mgroup_->addGauge("oq.depth",
                          [this] { return outputQueue_.size(); },
                          "output queue depth");
        mgroup_->addHistogram("e2e_latency", &e2eLatency_,
                              "send-enqueue to dispatch (cycles)");
        mgroup_->addHistogram("net_latency", &netLatency_,
                              "send-enqueue to arrival (cycles)");
        mgroup_->addHistogram("queue_latency", &queueLatency_,
                              "arrival to dispatch (cycles)");
    }
}

NetworkInterface::~NetworkInterface()
{
    if (mgroup_)
        mgroup_->retire();
}

void
NetworkInterface::noteQueueLevels()
{
    const Tick now = curTick();
    if (now > occTick_) {
        iqOccTicks_ += static_cast<uint64_t>(occIqLevel_) *
                       (now - occTick_);
        oqOccTicks_ += static_cast<uint64_t>(occOqLevel_) *
                       (now - occTick_);
        occTick_ = now;
    }
    occIqLevel_ = inputQueue_.size();
    occOqLevel_ = outputQueue_.size();
}

uint64_t
NetworkInterface::oafullCycles() const
{
    return oafullCycles_ +
           (oafullNow_ ? curTick() - oafullRiseTick_ : 0);
}

uint64_t
NetworkInterface::outputOccTicks() const
{
    return oqOccTicks_ + static_cast<uint64_t>(occOqLevel_) *
                             (curTick() - occTick_);
}

uint64_t
NetworkInterface::inputOccTicks() const
{
    return iqOccTicks_ + static_cast<uint64_t>(occIqLevel_) *
                             (curTick() - occTick_);
}

unsigned
NetworkInterface::inThreshold() const
{
    return static_cast<unsigned>(
        bits(control_, control::inThresholdShift + 7,
             control::inThresholdShift));
}

unsigned
NetworkInterface::outThreshold() const
{
    return static_cast<unsigned>(
        bits(control_, control::outThresholdShift + 7,
             control::outThresholdShift));
}

bool
NetworkInterface::iafull() const
{
    return inputQueue_.size() > inThreshold();
}

bool
NetworkInterface::oafull() const
{
    return outputQueue_.size() > outThreshold();
}

Word
NetworkInterface::readReg(unsigned reg, Port port)
{
    switch (reg) {
      case regO0: case regO1: case regO2: case regO3: case regO4:
        return outputRegs_[static_cast<unsigned>(port)][reg - regO0];
      case regI0: case regI1: case regI2: case regI3: case regI4:
        return inputRegs_[reg - regI0];
      case regStatus: {
        Word s = 0;
        s |= static_cast<Word>(
                 std::min<size_t>(inputQueue_.size(), 255))
             << status::inputLenShift;
        s |= static_cast<Word>(
                 std::min<size_t>(outputQueue_.size(), 255))
             << status::outputLenShift;
        if (inputValid_)
            s |= 1u << status::msgValidBit;
        s |= static_cast<Word>(inputValid_ ? currentType_ & 0xf : 0)
             << status::msgTypeShift;
        if (iafull())
            s |= 1u << status::iafullBit;
        if (oafull())
            s |= 1u << status::oafullBit;
        if (excCode_ != ExcCode::none) {
            s |= 1u << status::excPendingBit;
            s |= static_cast<Word>(excCode_) << status::excCodeShift;
        }
        return s;
      }
      case regControl:
        return control_;
      case regMsgIp:
        return msgIp();
      case regNextMsgIp:
        return nextMsgIp();
      case regIpBase:
        return ipBase_;
      default:
        panic("read of unknown NI register %u", reg);
    }
}

void
NetworkInterface::writeReg(unsigned reg, Word value, Port port)
{
    switch (reg) {
      case regO0: case regO1: case regO2: case regO3: case regO4:
        outputRegs_[static_cast<unsigned>(port)][reg - regO0] = value;
        return;
      case regI0: case regI1: case regI2: case regI3: case regI4:
        // Input registers are writable scratch between messages; NEXT
        // overwrites them.
        inputRegs_[reg - regI0] = value;
        return;
      case regStatus:
        // Writing STATUS acknowledges the pending exception.
        excCode_ = ExcCode::none;
        return;
      case regControl:
        control_ = value;
        // Level-triggered interrupt semantics: re-enabling while a
        // message already sits in the input registers fires at once,
        // so no arrival between NEXT and re-enable can be lost.  The
        // conventional handler epilogue therefore re-enables in the
        // delay slot of its `jmp r14` return.
        if (interruptSink_ && bits(control_, control::intEnableBit) &&
            inputValid_ && config_.features.hwDispatch) {
            control_ &= ~(1u << control::intEnableBit);
            ++interrupts_;
            interruptSink_(msgIp());
        }
        return;
      case regMsgIp:
      case regNextMsgIp:
        warn("write to read-only NI register %u ignored", reg);
        return;
      case regIpBase:
        if (value & ~dispatch::tableMask)
            warn("IpBase 0x%08x not 4KB aligned; low bits ignored",
                 value);
        ipBase_ = value & dispatch::tableMask;
        return;
      default:
        panic("write of unknown NI register %u", reg);
    }
}

Word
NetworkInterface::dispatchFor(bool valid, uint8_t type, Word word1) const
{
    if (excCode_ != ExcCode::none)
        return dispatch::handlerAddr(ipBase_, dispatch::excType);

    bool ia = config_.features.hwBoundaryChecks && iafull();
    bool oa = config_.features.hwBoundaryChecks && oafull();

    // Figure 7 case 2: a type-0 message below both thresholds carries
    // its handler address in word 1.
    if (valid && type == 0 && !ia && !oa)
        return word1;

    return dispatch::handlerAddr(ipBase_, valid ? type : 0, ia, oa);
}

Word
NetworkInterface::msgIp() const
{
    if (!config_.features.hwDispatch)
        return 0;
    return dispatchFor(inputValid_, currentType_, inputRegs_[1]);
}

Word
NetworkInterface::nextMsgIp() const
{
    if (!config_.features.hwDispatch)
        return 0;
    if (inputQueue_.empty())
        return dispatchFor(false, 0, 0);
    const Message &head = inputQueue_.front();
    return dispatchFor(true, head.type, head.words[1]);
}

Message
NetworkInterface::compose(isa::SendMode mode, uint8_t type,
                          Port port) const
{
    Message m;
    const Word *oregs = outputRegs_[static_cast<unsigned>(port)];
    const std::vector<Word> &pending =
        pendingOut_[static_cast<unsigned>(port)];

    if (pending.empty()) {
        for (unsigned k = 0; k < msgWords; ++k)
            m.words[k] = oregs[k];
    } else {
        // Long message: the banked SCROLL-OUT words come first, the
        // current output registers last.
        std::vector<Word> full = pending;
        full.insert(full.end(), oregs, oregs + msgWords);
        for (unsigned k = 0; k < msgWords; ++k)
            m.words[k] = full[k];
        m.extra.assign(full.begin() + msgWords, full.end());
    }

    switch (mode) {
      case isa::SendMode::reply:
        // Section 2.2.2: i1 and i2 substitute for o0 and o1: the
        // requester's continuation (FP, IP) heads the reply.
        m.words[0] = inputRegs_[1];
        m.words[1] = inputRegs_[2];
        break;
      case isa::SendMode::forward:
        // Data words of the incoming message substitute for o2..o4.
        m.words[2] = inputRegs_[2];
        m.words[3] = inputRegs_[3];
        m.words[4] = inputRegs_[4];
        break;
      default:
        break;
    }

    m.type = type & 0xf;
    m.pin = static_cast<uint8_t>(bits(control_, control::pinShift + 7,
                                      control::pinShift));
    m.src = node_;
    m.setDestFromWord0();
    return m;
}

bool
NetworkInterface::sendWouldStall(isa::SendMode mode, Port port) const
{
    if (outputQueue_.size() >= config_.outputQueueDepth &&
        bits(control_, control::stallOnFullBit) != 0) {
        return true;
    }
    if (tpolicy_) {
        // The destination the SEND would compose: REPLY substitutes
        // i1 for o0 (Section 2.2.2); every other mode addresses with
        // the port's o0.
        Word w0 = mode == isa::SendMode::reply
                      ? inputRegs_[1]
                      : outputRegs_[static_cast<unsigned>(port)][0];
        return tpolicy_->wouldHold(nodeOf(w0), curTick());
    }
    return false;
}

CmdResult
NetworkInterface::enqueueSend(Message msg)
{
    // Transport-policy gate: a hold surfaces exactly like the
    // stall-on-full SEND stall (the sender retries next cycle), so
    // the policy needs no new architectural signalling.  The held
    // message has not been admitted, so it occupies no queue slot.
    if (tpolicy_ &&
        tpolicy_->gate(msg.dst, curTick()) == transport::Verdict::hold) {
        TCPNI_TRACE(NI, "SEND held by transport policy '%s' (dst %u)",
                    tpolicy_->name(), msg.dst);
        return CmdResult::stall;
    }
    if (outputQueue_.size() >= config_.outputQueueDepth) {
        if (bits(control_, control::stallOnFullBit)) {
            // Section 2.1.1: stall the processor until the output
            // queue empties.
            TCPNI_TRACE(NI, "SEND stalls: output queue full (%zu)",
                        outputQueue_.size());
            ++oqStallCycles_;
            return CmdResult::stall;
        }
        ++overflowExc_;
        raise(ExcCode::outputOverflow);
        TCPNI_TRACE(NI, "SEND overflows: output queue full (%zu)",
                    outputQueue_.size());
        return CmdResult::ok;
    }
    if (config_.traceMessages) {
        inform("%llu %s TX %s",
               static_cast<unsigned long long>(curTick()),
               name().c_str(), msg.toString().c_str());
    }

    msg.traceId = eventq().nextTraceId();
    msg.injectTick = curTick();
    if (auto *s = trace::sink())
        s->record(msg.traceId, trace::Stage::inject, node_, curTick(),
                  msg.type, eventq().queueId());
    TCPNI_TRACE(NI, "SEND id=%llu %s",
                static_cast<unsigned long long>(msg.traceId),
                msg.toString().c_str());

    const bool was_oafull = oafull();
    const NodeId dst = msg.dst;
    outputQueue_.push_back(std::move(msg));
    ++sent_;
    noteQueueLevels();
    if (tpolicy_)
        tpolicy_->onAdmit(dst, curTick());
    if (!was_oafull && oafull()) {
        ++oafullCrossings_;
        oafullNow_ = true;
        oafullRiseTick_ = curTick();
        if (tpolicy_)
            tpolicy_->onOafull(true, curTick());
        TCPNI_TRACE(NI, "oafull asserted (output queue %zu > "
                    "threshold %u)", outputQueue_.size(),
                    outThreshold());
    }
    schedulePump();
    return CmdResult::ok;
}

CmdResult
NetworkInterface::injectMessage(Message msg)
{
    msg.src = node_;
    return enqueueSend(std::move(msg));
}

CmdResult
NetworkInterface::command(const isa::NiCommand &cmd, Port port)
{
    if (cmd.mode != isa::SendMode::none) {
        if (cmd.mode != isa::SendMode::send &&
            !config_.features.fastReplyForward) {
            panic("REPLY/FORWARD send modes are a Section-2.2.2 "
                  "optimization absent from this (basic) interface");
        }
        uint8_t type = config_.features.encodedTypes ? cmd.type : 0;
        if (config_.features.hwDispatch && type == dispatch::excType) {
            panic("message type 1 is reserved for the exception "
                  "handler (Section 2.2.4)");
        }
        CmdResult res = enqueueSend(compose(cmd.mode, type, port));
        if (res == CmdResult::stall)
            return res;
        pendingOut_[static_cast<unsigned>(port)].clear();
    }
    if (cmd.next)
        doNext();
    return CmdResult::ok;
}

void
NetworkInterface::scrollOut(Port port)
{
    std::vector<Word> &pending =
        pendingOut_[static_cast<unsigned>(port)];
    TCPNI_TRACE(NI, "SCROLL-OUT banks 5 words (%zu pending)",
                pending.size() + msgWords);
    for (unsigned k = 0; k < msgWords; ++k)
        pending.push_back(outputRegs_[static_cast<unsigned>(port)][k]);
}

void
NetworkInterface::scrollIn()
{
    if (!inputValid_ || scrollOffset_ >= currentExtra_.size()) {
        TCPNI_TRACE(NI, "SCROLL-IN past end raises inputPortError");
        raise(ExcCode::inputPortError);
        return;
    }
    TCPNI_TRACE(NI, "SCROLL-IN advances to offset %zu of %zu",
                scrollOffset_ + msgWords, currentExtra_.size());
    for (unsigned k = 0; k < msgWords; ++k) {
        size_t idx = scrollOffset_ + k;
        inputRegs_[k] = idx < currentExtra_.size() ? currentExtra_[idx]
                                                   : 0;
    }
    scrollOffset_ += msgWords;
}

void
NetworkInterface::doNext()
{
    if (inputValid_ && currentTraceId_ != 0) {
        // The handler is finished with the current message.
        if (auto *s = trace::sink())
            s->record(currentTraceId_, trace::Stage::done, node_,
                      curTick(), currentType_, eventq().queueId());
        TCPNI_TRACE(NI, "NEXT retires id=%llu type=%u",
                    static_cast<unsigned long long>(currentTraceId_),
                    currentType_);
    }
    inputValid_ = false;
    currentTraceId_ = 0;
    currentExtra_.clear();
    scrollOffset_ = 0;
    refill();
}

void
NetworkInterface::refill()
{
    if (inputValid_ || inputQueue_.empty())
        return;
    const bool was_iafull = iafull();
    Message m = std::move(inputQueue_.front());
    inputQueue_.pop_front();
    noteQueueLevels();
    if (was_iafull && !iafull()) {
        TCPNI_TRACE(NI, "iafull deasserted (input queue %zu <= "
                    "threshold %u)", inputQueue_.size(), inThreshold());
    }
    for (unsigned k = 0; k < msgWords; ++k)
        inputRegs_[k] = m.words[k];
    currentType_ = m.type & 0xf;
    currentExtra_ = std::move(m.extra);
    scrollOffset_ = 0;
    currentTraceId_ = m.traceId;
    inputValid_ = true;

    // Lifecycle: the message is now visible to the handler.
    e2eLatency_.record(curTick() - m.injectTick);
    queueLatency_.record(curTick() - m.arriveTick);
    if (m.traceId != 0) {
        if (auto *s = trace::sink())
            s->record(m.traceId, trace::Stage::dispatch, node_,
                      curTick(), currentType_, eventq().queueId());
    }
    TCPNI_TRACE(DISPATCH, "dispatch id=%llu type=%u MsgIp=0x%08x",
                static_cast<unsigned long long>(m.traceId),
                currentType_, msgIp());

    // Interrupt-driven reception: a message advancing into empty
    // input registers interrupts the processor.  The enable bit
    // clears on delivery so the handler runs uninterrupted until it
    // re-enables (Section 2.1 allows either reception style).
    if (interruptSink_ && bits(control_, control::intEnableBit) &&
        config_.features.hwDispatch) {
        control_ &= ~(1u << control::intEnableBit);
        ++interrupts_;
        TCPNI_TRACE(DISPATCH, "arrival interrupt -> handler 0x%08x",
                    msgIp());
        interruptSink_(msgIp());
    }
}

CmdResult
NetworkInterface::access(Word addr, Word data, bool is_store,
                         Word &result, Port port)
{
    unsigned reg = static_cast<unsigned>(
        bits(addr, cmdaddr::regShift + 3, cmdaddr::regShift));
    isa::NiCommand cmd;
    cmd.type = static_cast<uint8_t>(
        bits(addr, cmdaddr::typeShift + 3, cmdaddr::typeShift));
    cmd.mode = static_cast<isa::SendMode>(
        bits(addr, cmdaddr::modeShift + 1, cmdaddr::modeShift));
    cmd.next = bits(addr, cmdaddr::nextBit) != 0;
    bool scroll_in = bits(addr, cmdaddr::scrollInBit) != 0;
    bool scroll_out = bits(addr, cmdaddr::scrollOutBit) != 0;

    if (reg >= numNiRegs)
        panic("cache-mapped access to nonexistent NI register %u "
              "(addr 0x%08x)", reg, addr);

    // Register access first, then commands: a store that also SENDs
    // includes the stored value in the outgoing message (as in the
    // final store of the paper's basic off-chip handler).
    result = 0;
    if (is_store)
        writeReg(reg, data, port);
    else
        result = readReg(reg, port);

    // A transport-policy hold must surface before scrollOut banks the
    // pending words, or a retried access would scroll twice.  The
    // register access above already took effect -- it is idempotent
    // under retry -- so the destination the SEND would compose from
    // is exact at this point.
    if (tpolicy_ && cmd.mode != isa::SendMode::none &&
        sendWouldStall(cmd.mode, port)) {
        return CmdResult::stall;
    }

    if (scroll_out)
        scrollOut(port);

    CmdResult res = command(cmd, port);
    if (res == CmdResult::stall)
        return res;

    if (scroll_in)
        scrollIn();
    return CmdResult::ok;
}

bool
NetworkInterface::acceptFromNetwork(const Message &msg)
{
    bool pin_check = bits(control_, control::checkPinBit) != 0;
    uint8_t my_pin = static_cast<uint8_t>(
        bits(control_, control::pinShift + 7, control::pinShift));

    if (msg.privileged || (pin_check && msg.pin != my_pin)) {
        // Section 2.1.3: privileged messages and messages for inactive
        // processes are stored in privileged state for the OS.
        if (privQueue_.capacity() == 0)
            privQueue_.reset(config_.privQueueDepth);
        if (privQueue_.size() >= config_.privQueueDepth)
            panic("privileged queue overflow on node %u", node_);
        TCPNI_TRACE(NI, "RX escrows %s to the privileged queue",
                    msg.toString().c_str());
        privQueue_.push_back(msg);
        ++privReceived_;
        raise(msg.privileged ? ExcCode::privilegedPending
                             : ExcCode::pinMismatch);
        // The escrow consumed the message: the sender's credit must
        // still return or its window would leak shut.
        if (creditFabric_ && msg.src != node_)
            creditFabric_->noteDelivered(msg.src, node_, curTick());
        return true;
    }

    if (inputQueue_.size() >= config_.inputQueueDepth) {
        ++refused_;
        TCPNI_TRACE(NI, "RX refused (input queue full at %zu): %s",
                    inputQueue_.size(), msg.toString().c_str());
        return false;
    }
    if (config_.traceMessages) {
        inform("%llu %s RX %s",
               static_cast<unsigned long long>(curTick()),
               name().c_str(), msg.toString().c_str());
    }

    Message m = msg;
    if (m.traceId == 0) {
        // Injected directly by a test or harness, bypassing a sending
        // NI: tag it here so the lifecycle still has a start.
        m.traceId = eventq().nextTraceId();
        m.injectTick = curTick();
    }
    m.arriveTick = curTick();
    netLatency_.record(curTick() - m.injectTick);
    if (auto *s = trace::sink())
        s->record(m.traceId, trace::Stage::arrive, node_, curTick(),
                  m.type, eventq().queueId());
    TCPNI_TRACE(NI, "RX id=%llu %s",
                static_cast<unsigned long long>(m.traceId),
                m.toString().c_str());

    const bool was_iafull = iafull();
    inputQueue_.push_back(std::move(m));
    ++received_;
    noteQueueLevels();
    if (!was_iafull && iafull()) {
        ++iafullCrossings_;
        TCPNI_TRACE(NI, "iafull asserted (input queue %zu > "
                    "threshold %u)", inputQueue_.size(), inThreshold());
    }
    // Delivery credit: the message now occupies receiver state, so
    // the sender's transport window may reopen (one-tick credit
    // latency; see transport::CreditFabric).
    if (creditFabric_ && msg.src != node_)
        creditFabric_->noteDelivered(msg.src, node_, curTick());
    refill();
    return true;
}

Message
NetworkInterface::popPrivileged()
{
    if (privQueue_.empty())
        panic("popPrivileged on empty privileged queue");
    Message m = std::move(privQueue_.front());
    privQueue_.pop_front();
    return m;
}

void
NetworkInterface::raise(ExcCode code)
{
    // First pending exception wins; the handler clears STATUS and will
    // observe any still-outstanding condition on its next dispatch.
    if (excCode_ == ExcCode::none)
        excCode_ = code;
}

void
NetworkInterface::schedulePump()
{
    if (!pumpEvent_.scheduled() && !outputQueue_.empty())
        eventq().schedule(&pumpEvent_, curTick() + 1);
}

void
NetworkInterface::pump()
{
    // One injection attempt per cycle.
    if (!outputQueue_.empty() &&
        network_.offer(node_, outputQueue_.front())) {
        const bool was_oafull = oafull();
        TCPNI_TRACE(NI, "inject id=%llu into the fabric",
                    static_cast<unsigned long long>(
                        outputQueue_.front().traceId));
        outputQueue_.pop_front();
        noteQueueLevels();
        if (was_oafull && !oafull()) {
            oafullCycles_ += curTick() - oafullRiseTick_;
            oafullNow_ = false;
            if (tpolicy_)
                tpolicy_->onOafull(false, curTick());
            TCPNI_TRACE(NI, "oafull deasserted (output queue %zu <= "
                        "threshold %u)", outputQueue_.size(),
                        outThreshold());
        }
    }
    if (!outputQueue_.empty())
        eventq().schedule(&pumpEvent_, curTick() + 1);
}

} // namespace ni
} // namespace tcpni

/**
 * @file
 * The network interface architecture of Section 2.
 *
 * One NetworkInterface instance models the programmer-visible state of
 * Figure 1 -- the five output registers, five input registers, STATUS,
 * CONTROL, and (when the hardware-dispatch optimization is present) the
 * IpBase / MsgIp / NextMsgIp registers -- together with the input and
 * output message queues and the SEND / NEXT / SCROLL command engine.
 *
 * The same class serves all three placements of Section 3; placement
 * determines how the processor reaches these registers (and with what
 * latency), which is modeled in the Cpu coupling:
 *
 *  - cache-mapped placements access registers and issue commands
 *    through load/store addresses encoded per Figure 9
 *    (see access());
 *  - the register-file placement accesses registers as r16..r30 and
 *    issues commands through the spare bits of triadic instructions
 *    (see Cpu).
 *
 * Command ordering within a single instruction (or single cache
 * access) follows the paper's examples: the register read/write takes
 * effect first, then SEND (composing from the current register
 * contents), then NEXT.
 */

#ifndef TCPNI_NI_NETWORK_INTERFACE_HH
#define TCPNI_NI_NETWORK_INTERFACE_HH

#include <functional>
#include <memory>
#include <vector>

#include "common/ring.hh"
#include "isa/isa.hh"
#include "metrics/metrics.hh"
#include "ni/config.hh"
#include "ni/ni_regs.hh"
#include "noc/network.hh"
#include "sim/sim_object.hh"

namespace tcpni
{

namespace transport
{
class Policy;
class CreditFabric;
} // namespace transport

namespace ni
{

/** Outcome of a SEND/NEXT command group. */
enum class CmdResult : uint8_t
{
    ok,     //!< commands executed (possibly raising an exception)
    stall,  //!< output queue full with stall policy, or a transport
            //!< hold: the SEND did not happen and must be reissued
};

/**
 * Message-composition port.  Each processing engine that can compose
 * outgoing messages owns a private bank of output registers and
 * SCROLL-OUT buffer; SENDs from both ports feed one output queue.  On
 * the host placements only the CPU port exists in practice; on On-NI
 * nodes the HPU composes handler traffic on its port while the host
 * CPU services escaped work on its own, so a proxy send can never
 * corrupt a message the HPU is mid-composition on (the same doorbell
 * separation a multi-agent hardware interface would need).
 */
enum class Port : uint8_t
{
    cpu = 0,  //!< the node's host processor
    hpu = 1,  //!< the interface's handler processing unit
};

constexpr unsigned numPorts = 2;

/** The paper's network interface. */
class NetworkInterface : public SimObject
{
  public:
    NetworkInterface(std::string name, EventQueue &eq, NodeId node,
                     Network &network, NiConfig config);
    ~NetworkInterface() override;

    const NiConfig &config() const { return config_; }
    NodeId node() const { return node_; }

    /** @{ Register-level access (both couplings use these).  @p port
     *     selects the composition bank for the output registers; all
     *     other registers are shared interface state. */
    Word readReg(unsigned reg, Port port = Port::cpu);
    void writeReg(unsigned reg, Word value, Port port = Port::cpu);
    /** @} */

    /**
     * Execute the SEND and/or NEXT commands carried by one instruction
     * or one command address.  SEND happens before NEXT and composes
     * from @p port 's output bank.
     */
    CmdResult command(const isa::NiCommand &cmd,
                      Port port = Port::cpu);

    /** SCROLL-OUT: bank @p port 's output registers as the next five
     *  words of a long message and continue composing it
     *  (Section 2.1.2). */
    void scrollOut(Port port = Port::cpu);

    /** SCROLL-IN: advance the input registers to the next five words of
     *  the current long message.  Scrolling past the end raises the
     *  inputPortError exception. */
    void scrollIn();

    /**
     * Cache-mapped access (Figure 9): decode @p addr, perform the
     * register read or write, then execute any encoded commands.
     *
     * @param addr      full address; low bits encode register+commands
     * @param data      store data (ignored for loads)
     * @param is_store  store vs load
     * @param result    out: loaded value (pre-command register value)
     * @return stall indication, as for command()
     */
    CmdResult access(Word addr, Word data, bool is_store, Word &result,
                     Port port = Port::cpu);

    /** True if @p addr falls in the cache-mapped interface window. */
    static bool
    isNiAddr(Word addr)
    {
        return (addr & cmdaddr::niAddrBase) == cmdaddr::niAddrBase;
    }

    /** Network-side delivery sink; false refuses (input queue full). */
    bool acceptFromNetwork(const Message &msg);

    /**
     * Harness-level injection: enqueue a pre-composed message with an
     * explicit routing envelope (msg.dst set; msg.src is set here),
     * bypassing the register-composition path.  Goes through exactly
     * the enqueueSend() semantics -- stall-on-full / overflow
     * exception, trace-id assignment, oafull edge accounting, pump
     * scheduling.  Workload generators use this to address meshes
     * larger than the 8-bit node field of a global word (the
     * architectural compose() path tops out at 256 nodes).
     *
     * A stalled sender sleeps instead of retrying every tick
     * (SNIPPETS.md: sosend() sleeping in sbwait()).  On a stall the NI
     * parks @p waiter and schedules it at the first tick a retry could
     * succeed: when the output queue pops, when a returned credit or
     * an oafull edge opens the transport gate, or -- for a paced hold
     * -- at the tick the bucket would first admit.  The retries the
     * sender skipped are accounted exactly as if they had run
     * (oq.stall_cycles, and the policy's holds and state; see
     * transport::Policy::block()).  When @p waiter fires it calls
     * this again with the same message.  One sender per interface.
     */
    CmdResult injectOrPark(Message msg, Event *waiter);

    /** Delivery credits for @p count messages to @p dst came back
     *  (the CreditFabric's sink): fold them into the transport policy
     *  and wake a sender they unblock. */
    void returnCredits(NodeId dst, uint32_t count, Tick now);

    /** @{ Supervisor-level access to the privileged message queue
     *     (Section 2.1.3).  In hardware these messages would be held in
     *     privileged state and drained by the operating system. */
    bool hasPrivileged() const { return !privQueue_.empty(); }
    Message popPrivileged();
    /** @} */

    /** @{ Introspection for tests and harnesses. */
    size_t inputQueueLen() const { return inputQueue_.size(); }
    size_t outputQueueLen() const { return outputQueue_.size(); }
    bool msgValid() const { return inputValid_; }
    uint8_t currentType() const { return currentType_; }
    ExcCode pendingException() const { return excCode_; }
    uint64_t numSent() const { return sent_; }
    uint64_t numReceived() const { return received_; }
    /** Trace id of the message currently in the input registers. */
    uint64_t currentTraceId() const { return currentTraceId_; }
    /** @} */

    /**
     * True if a SEND issued now would stall: the output queue is full
     * under the stall-on-full policy (Section 2.1.1).  Used by the
     * processors to hold the instruction at issue, so a retried SEND
     * has no double side effects.
     */
    bool sendWouldStall() const;

    /** @{ Output-side transport policy hookup (src/transport); both
     *     default to null, leaving the paper's behavior untouched.
     *     Installed by the System at construction, on nodes whose
     *     only sender is the harness's (sys::TrafficGen). */
    void setTransportPolicy(transport::Policy *p) { tpolicy_ = p; }
    void setCreditFabric(transport::CreditFabric *f)
    {
        creditFabric_ = f;
    }
    transport::Policy *transportPolicy() const { return tpolicy_; }
    /** @} */

    /** @{ Output-pressure counters for the serving harness: total
     *     cycles with oafull asserted, and the time integrals of the
     *     queue depths (level x ticks), all exact integers. */
    uint64_t oafullCycles() const;
    uint64_t outputOccTicks() const;
    uint64_t inputOccTicks() const;
    /** @} */

    /** Compute the current MsgIp value (Figure 7). */
    Word msgIp() const;

    /** Compute the NextMsgIp value: MsgIp of the message NEXT would
     *  load (the head of the input queue). */
    Word nextMsgIp() const;

    /**
     * Register the processor's interrupt sink (interrupt-driven
     * reception, CONTROL bit 2).  Called with the handler address
     * (the MsgIp value) when a message advances into empty input
     * registers while interrupts are enabled.
     */
    void setInterruptSink(std::function<void(Word)> sink)
    {
        interruptSink_ = std::move(sink);
    }

  private:
    class PumpEvent : public Event
    {
      public:
        explicit PumpEvent(NetworkInterface &ni)
            : Event(niPri), ni_(ni)
        {}
        void process() override { ni_.pump(); }
        std::string name() const override { return "ni-pump"; }

      private:
        NetworkInterface &ni_;
    };

    /** Compose an outgoing message per the SEND mode and type from
     *  @p port 's output bank. */
    Message compose(isa::SendMode mode, uint8_t type, Port port) const;

    /** Try to enqueue a composed message; applies the full-queue
     *  policy.  @return stall or ok. */
    CmdResult enqueueSend(Message msg);

    /** Execute NEXT. */
    void doNext();

    /** Pop the queue into the input registers if they are invalid. */
    void refill();

    /** Offer queued output messages to the network. */
    void pump();
    void schedulePump();

    /** SEND stall cycles on a full output queue, a parked sender's
     *  span up to now included. */
    uint64_t oqStallCycles() const;

    /** @{ The parked sender (see injectOrPark()).  catchUpSender()
     *     accounts its skipped retries of the ticks before this one;
     *     call it before any change to the state a retry reads.
     *     armSendWake() (re)schedules the sender for the first tick
     *     its retry could succeed given the current state, if any.
     *     releaseSender() ends the park. */
    void catchUpSender();
    void armSendWake();
    void releaseSender();
    /** @} */

    /** Record an exceptional condition (first pending wins). */
    void raise(ExcCode code);

    /** Fold the current queue depths into the exact occupancy
     *  integrals (call after any queue size change). */
    void noteQueueLevels();

    /** Figure-7 case analysis for an arbitrary "current" message. */
    Word dispatchFor(bool valid, uint8_t type, Word word1) const;

    bool iafull() const;
    bool oafull() const;
    unsigned inThreshold() const;
    unsigned outThreshold() const;

    NodeId node_;
    Network &network_;
    NiConfig config_;

    /** Per-port composition banks (see Port). */
    Word outputRegs_[numPorts][msgWords] = {};
    Word inputRegs_[msgWords] = {0, 0, 0, 0, 0};
    bool inputValid_ = false;
    uint8_t currentType_ = 0;

    Word control_ = 0;
    Word ipBase_ = 0;
    ExcCode excCode_ = ExcCode::none;

    /** Fixed-capacity message queues, sized from the NiConfig depths
     *  (the architectural limits), so steady-state enqueue/dequeue
     *  never allocates.  The privileged escrow ring is allocated
     *  lazily on first use: most nodes never see a privileged
     *  message, and at 64k nodes an eager ring would dominate the
     *  footprint. */
    FixedRing<Message> inputQueue_;
    FixedRing<Message> outputQueue_;
    FixedRing<Message> privQueue_;

    /** Per-port SCROLL-OUT accumulation buffers for the messages
     *  being composed. */
    std::vector<Word> pendingOut_[numPorts];

    /** SCROLL-IN offset into the current message's extra words. */
    size_t scrollOffset_ = 0;

    /** Extra words of the message currently in the input registers. */
    std::vector<Word> currentExtra_;

    /** Lifecycle trace id of the message in the input registers. */
    uint64_t currentTraceId_ = 0;

    PumpEvent pumpEvent_;
    /** The pump is asleep until the fabric frees an injection slot. */
    bool pumpParked_ = false;
    std::function<void(Word)> interruptSink_;

    /** @{ The parked sender and the last tick whose retry is
     *     accounted. */
    Event *sendWaiter_ = nullptr;
    Tick waitFrom_ = 0;
    /** @} */

    uint64_t sent_ = 0;
    uint64_t interrupts_ = 0;
    uint64_t received_ = 0;
    uint64_t refused_ = 0;
    uint64_t overflowExc_ = 0;
    uint64_t privReceived_ = 0;

    /** @{ Message-latency histograms (cycles), recorded only into
     *     an installed metrics registry (mgroup_ set); HDR-bucketed so
     *     tail percentiles (p99/p999) stay exact-to-3% however long
     *     the run. */
    metrics::Histogram e2eLatency_;    //!< send -> dispatch
    metrics::Histogram netLatency_;    //!< send -> arrival
    metrics::Histogram queueLatency_;  //!< arrival -> dispatch
    /** @} */

    /** @{ Hardware-style event counters (always maintained; the cost
     *     is one increment on an already-rare path). */
    uint64_t oqStallCycles_ = 0;    //!< SEND stall cycles (full queue)
    uint64_t iafullCrossings_ = 0;  //!< iafull rising edges
    uint64_t oafullCrossings_ = 0;  //!< oafull rising edges
    /** @} */

    /** @{ Time-in-state accounting: how long oafull stays asserted
     *     and the exact integer occupancy integrals of both queues
     *     (level x ticks, folded on every queue change; the
     *     in-progress span is added at read time). */
    bool oafullNow_ = false;
    Tick oafullRiseTick_ = 0;
    uint64_t oafullCycles_ = 0;
    size_t occIqLevel_ = 0;
    size_t occOqLevel_ = 0;
    Tick occTick_ = 0;
    uint64_t iqOccTicks_ = 0;
    uint64_t oqOccTicks_ = 0;
    /** @} */

    /** Output-side transport policy; null (the default) is the
     *  paper's interface verbatim. */
    transport::Policy *tpolicy_ = nullptr;
    /** Delivery-credit return path; null unless some node in the
     *  machine runs a credit-consuming policy. */
    transport::CreditFabric *creditFabric_ = nullptr;

    /** Telemetry group; null unless a metrics registry was installed
     *  when this NI was constructed. */
    std::shared_ptr<metrics::Group> mgroup_;
};

} // namespace ni
} // namespace tcpni

#endif // TCPNI_NI_NETWORK_INTERFACE_HH

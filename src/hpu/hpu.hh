/**
 * @file
 * The Handler Processing Unit: a small in-order core inside the
 * network interface that runs the dispatch loop and the message
 * handlers on the NI itself, in the style of sPIN's HPUs.
 *
 * The HPU is the host's Cpu interpreter on the interface's HPU port
 * (ni::Port::hpu): it is permanently register-coupled, so r16..r30
 * alias the NI registers, folded SEND/NEXT/REPLY/FORWARD instruction
 * bits are always available, and NI-register reads never interlock --
 * there is no MsgIp/NextMsgIp round-trip through the host CPU and no
 * load-use stall on the dispatch path, whatever the *host's* placement
 * looks like.  Handler memory (the dispatch tables, I-structure state)
 * is the node memory, whose loads are usable the next cycle, as on
 * the host.
 *
 * What only the HPU does:
 *
 *  - handler-time budget: each handler activation (first cycle with a
 *    valid message through the cycle its NEXT retires) is measured
 *    against the policy's handlerTimeBudget(); overruns are counted,
 *    traced (TCPNI_TRACE=HPU) and recorded in the lifecycle stream;
 *  - host-proxy escape: a store to msg::hpuProxyAddr posts the current
 *    message (effective id + input words) into the host ring
 *    (msg::hostRingBase) and occupies the HPU for hostProxyCycles more
 *    cycles, modeling the cost of shipping CPU-only work (deferred-list
 *    walks) to the host.
 *
 * Like any register-coupled core it panics on a touch of the
 * cache-mapped 0xffff0000 command window (a kernel-selection bug).
 *
 * Escape-ring discipline (statically enforced).  The host CPU is the
 * single writer of I-structure state; the HPU may read it but never
 * mutate it.  Concretely, for HPU-resident handler kernels:
 *
 *  - every PWRITE handler path must end in a hpuProxyAddr post -- the
 *    presence bits and deferred-reader list are only ever written by
 *    the host proxy draining the ring, so writes cannot race reads;
 *  - only the read-only PREAD FULL path may complete on the HPU; the
 *    EMPTY/DEFERRED paths (which enqueue a reader) must escape;
 *  - neither handler may issue a plain store to node memory.
 *
 * The protocol analyzer's proto-escape check (verify/protocol.cc)
 * rejects kernels that violate this at lint time, so a violation
 * cannot reach simulation.
 */

#ifndef TCPNI_HPU_HPU_HH
#define TCPNI_HPU_HPU_HH

#include <string>

#include "cpu/cpu.hh"

namespace tcpni
{

/** The on-NI handler processor. */
class Hpu : public Cpu
{
  public:
    /** Extra cycles a host-proxy post occupies the HPU. */
    static constexpr Cycles hostProxyCycles = 2;

    Hpu(std::string name, EventQueue &eq, Memory &mem,
        ni::NetworkInterface &ni, CpuConfig config = {});

    /** Retires the metrics group while the members its readers read
     *  still exist (~Cpu retires it too late for them). */
    ~Hpu() override;

    /** Reset architectural state and set the PC. */
    void reset(Addr pc);

    /** @{ Accounting beyond the Cpu's. */
    /** Handler activations completed (NEXT retired or halt). */
    uint64_t handlersRun() const { return handlersRun_; }
    /** Activations that exceeded the handler-time budget. */
    uint64_t budgetOverruns() const { return budgetOverruns_; }
    /** Longest single handler activation observed (cycles). */
    uint64_t maxHandlerCycles() const { return maxHandlerCycles_; }
    /** Messages escaped to the host through the proxy ring. */
    uint64_t hostProxies() const { return hostProxies_; }
    /** Total cycles spent inside handler activations (occupancy
     *  numerator; divide by cycles() for HPU utilization). */
    uint64_t handlerBusyCycles() const { return handlerBusyCycles_; }
    /** The effective handler-time budget (0 = unbounded). */
    Cycles budget() const { return budget_; }
    /** @} */

  private:
    friend class CoreTickEvent<Hpu>;

    /** Cpu::tick() inside the activation bookkeeping. */
    void tick();

    /** Post the current message into the host ring (a store to
     *  msg::hpuProxyAddr). */
    Cycles hookedStore() override;

    /** @{ Handler-activation accounting (budget + lifecycle). */
    void beginHandler();
    /** Close the activation; @p end is the tick after its last cycle. */
    void endHandler(Tick end);
    /** @} */

    Cycles budget_ = 0;

    uint64_t handlersRun_ = 0;
    uint64_t budgetOverruns_ = 0;
    uint64_t maxHandlerCycles_ = 0;
    uint64_t hostProxies_ = 0;
    uint64_t handlerBusyCycles_ = 0;

    /** @{ The activation in flight: valid message being handled. */
    bool handlerActive_ = false;
    uint64_t handlerStartCycles_ = 0;   //!< cycles() at its start
    uint64_t handlerTraceId_ = 0;
    uint8_t handlerType_ = 0;
    /** @} */

    /** Host-ring producer index (mirrored to msg::hostRingPiAddr). */
    Word ringPi_ = 0;

    CoreTickEvent<Hpu> hpuTick_;
};

} // namespace tcpni

#endif // TCPNI_HPU_HPU_HH

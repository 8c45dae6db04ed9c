#include "hpu/hpu.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/trace.hh"
#include "msg/protocol.hh"
#include "ni/placement_policy.hh"

namespace tcpni
{

Hpu::Hpu(std::string name, EventQueue &eq, Memory &mem,
         ni::NetworkInterface &ni, CpuConfig config)
    : Cpu(std::move(name), eq, mem, &ni, config, ni::Port::hpu),
      budget_(ni.config().policy().handlerTimeBudget),
      hpuTick_(*this, "hpu-tick")
{
    tickEvent_ = &hpuTick_;
    hookStoresTo(msg::hpuProxyAddr);

    if (mgroup_) {
        mgroup_->addCounter("handlers_run",
                            [this] { return handlersRun_; },
                            "handler activations completed");
        mgroup_->addCounter("handler_busy_cycles",
                            [this] { return handlerBusyCycles_; },
                            "cycles inside handler activations");
        mgroup_->addCounter("budget_overruns",
                            [this] { return budgetOverruns_; },
                            "activations over the handler budget");
        mgroup_->addCounter("host_proxies",
                            [this] { return hostProxies_; },
                            "messages escaped to the host ring");
        mgroup_->addGauge("max_handler_cycles",
                          [this] { return maxHandlerCycles_; },
                          "longest handler activation (cycles)");
    }
}

Hpu::~Hpu()
{
    if (mgroup_)
        mgroup_->retire();
}

void
Hpu::reset(Addr pc)
{
    Cpu::reset(pc);
    handlersRun_ = budgetOverruns_ = maxHandlerCycles_ = 0;
    hostProxies_ = handlerBusyCycles_ = 0;
    handlerActive_ = false;
    ringPi_ = 0;
}

void
Hpu::beginHandler()
{
    handlerActive_ = true;
    handlerStartCycles_ = cycles();
    handlerTraceId_ = ni_->currentTraceId();
    handlerType_ = ni_->currentType();
    TCPNI_TRACE(HPU, "handler start: type %u msg #%llu",
                handlerType_,
                static_cast<unsigned long long>(handlerTraceId_));
    if (trace::TraceSink *s = trace::sink()) {
        s->record(handlerTraceId_, trace::Stage::hpuStart, ni_->node(),
                  curTick(), handlerType_, eventq().queueId());
    }
}

void
Hpu::endHandler(Tick end)
{
    const uint64_t spent = cycles() - handlerStartCycles_;
    ++handlersRun_;
    maxHandlerCycles_ = std::max(maxHandlerCycles_, spent);
    handlerBusyCycles_ += spent;
    TCPNI_TRACE(HPU, "handler end: type %u msg #%llu, %llu cycle(s)",
                handlerType_,
                static_cast<unsigned long long>(handlerTraceId_),
                static_cast<unsigned long long>(spent));
    if (trace::TraceSink *s = trace::sink()) {
        s->record(handlerTraceId_, trace::Stage::hpuEnd, ni_->node(),
                  end, handlerType_, eventq().queueId());
    }
    if (budget_ && spent > budget_) {
        ++budgetOverruns_;
        TCPNI_TRACE(HPU, "handler budget overrun: %llu cycles against "
                    "a budget of %llu (type %u msg #%llu)",
                    static_cast<unsigned long long>(spent),
                    static_cast<unsigned long long>(budget_),
                    handlerType_,
                    static_cast<unsigned long long>(handlerTraceId_));
        if (trace::TraceSink *s = trace::sink()) {
            s->record(handlerTraceId_, trace::Stage::hpuOverrun,
                      ni_->node(), end, handlerType_,
                      eventq().queueId());
        }
    }
    handlerActive_ = false;
}

Cycles
Hpu::hookedStore()
{
    Word ci = mem_.read(msg::hostRingCiAddr);
    if (ringPi_ - ci >= msg::hostRingSlots)
        panic("HPU '%s' host-proxy ring overflow (pi=%u ci=%u)",
              name().c_str(), ringPi_, ci);

    // The effective handler id: the encoded 4-bit type when the
    // interface has Section-2.2.1 types, the word-4 software id
    // otherwise.  The protocol assigns them the same values.
    Word id = ni_->config().optimized
                  ? ni_->currentType()
                  : ni_->readReg(ni::regI4);
    Addr slot = msg::hostRingBase +
                (ringPi_ & (msg::hostRingSlots - 1)) *
                    msg::hostRingSlotBytes;
    mem_.write(slot, id);
    for (unsigned w = 0; w < msgWords; ++w)
        mem_.write(slot + 4 + 4 * w, ni_->readReg(ni::regI0 + w));
    ++ringPi_;
    mem_.write(msg::hostRingPiAddr, ringPi_);
    ++hostProxies_;
    TCPNI_TRACE(HPU, "host proxy: id %u -> ring slot %u (pi=%u)",
                id, (ringPi_ - 1) & (msg::hostRingSlots - 1), ringPi_);
    return hostProxyCycles;
}

void
Hpu::tick()
{
    // A valid message at the start of a cycle opens an activation;
    // the dispatch jump through MsgIp counts toward it, matching
    // sPIN's occupancy accounting.
    if (!halted() && !handlerActive_ && ni_->msgValid())
        beginHandler();

    const uint64_t retired = instructions();
    const uint64_t spent = cycles();
    const Addr ipc = pc();
    Cpu::tick();
    if (!handlerActive_ || instructions() == retired)
        return;
    // The activation ends with the last cycle of the instruction whose
    // NEXT (or halt) retires, host-proxy cycles included.
    if (halted() || isa::decode(mem_.read(ipc)).ni.next)
        endHandler(curTick() + (cycles() - spent));
}

} // namespace tcpni

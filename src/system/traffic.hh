/**
 * @file
 * Synthetic per-node traffic driver for scaling experiments.
 *
 * A TrafficGen plays the role of the node's software without running
 * any instructions: it injects a fixed number of messages at
 * pseudo-random gaps through NetworkInterface::injectOrPark() (so the
 * full enqueue semantics -- stall-on-full, trace ids, pump scheduling
 * -- are exercised, and a stalled send sleeps until the NI wakes it)
 * and drains arrivals through the NI's
 * interrupt-driven reception path (CONTROL bit 2 + NEXT), which keeps
 * quiescence livelock-free: an idle node schedules no events, yet any
 * late arrival wakes it for a drain.
 *
 * Determinism: each generator owns two Randoms seeded from
 * (seed, node) only -- one for the arrival clock, one for destination
 * draws -- so a run is reproducible from its configuration alone.
 * The streams are separate because admission timing (and therefore
 * how arrival and send events interleave) depends on backpressure:
 * with one stream, a transport policy stalling the pump would perturb
 * the arrival schedule itself, and "equal offered load" comparisons
 * across policies would be comparing different workloads.
 *
 * Traffic pattern (Pattern::random): the first message from node n
 * goes to node n+1 (mod N), guaranteeing every node receives at least
 * one message (so per-node latency histograms are never empty under
 * --metrics); subsequent destinations are uniform-random over the
 * other nodes, with an optional hotspot fraction directed at node 0.
 * Pattern::incast aims every message at node 0 (node 0 sends nothing):
 * the N-clients-one-server shape whose tail latency the serving
 * harness (bench/exp_serve.cc) studies.
 *
 * Arrival processes: `uniform` draws gaps uniformly around the mean
 * (the original behavior, bit-identical); `poisson` draws geometric
 * gaps with the same mean -- the integer-arithmetic analog of
 * exponential inter-arrivals; `bursty` is an on/off process: bursts of
 * geometric mean length `burstLen` with back-to-back (1-tick) intents,
 * separated by off periods sized so the long-run offered rate matches
 * `uniform` at the same meanGap.
 *
 * Open loop (openLoop = true): intents accrue on an arrival clock that
 * NEVER stops for backpressure -- queueing delay is visible instead of
 * silently throttling the offered load (closed-loop generators measure
 * only their own politeness).  Each message carries its intent tick in
 * words[3]; the receiving generator records end-to-end sojourn
 * (completion - intent) into its sojourn() histogram.  A nonzero
 * serviceTime models the server: one message leaves the input
 * registers every serviceTime ticks, so arrivals beyond the service
 * rate pile into the input queue and backpressure the mesh -- the
 * incast collapse the transport policies exist to manage.
 */

#ifndef TCPNI_SYSTEM_TRAFFIC_HH
#define TCPNI_SYSTEM_TRAFFIC_HH

#include <cstdint>
#include <deque>
#include <string>

#include "common/random.hh"
#include "metrics/histogram.hh"
#include "sim/event_queue.hh"
#include "system/system.hh"

namespace tcpni
{
namespace sys
{

/** Inter-arrival process of a generator's intents. */
enum class Arrival : uint8_t
{
    uniform,  //!< gaps uniform on [1, 2*meanGap-1] (the original)
    poisson,  //!< geometric gaps, mean meanGap (exponential analog)
    bursty,   //!< on/off: 1-tick gaps in bursts, long gaps between
};

/** Destination pattern. */
enum class Pattern : uint8_t
{
    random,  //!< uniform over other nodes (+ optional hotspot)
    incast,  //!< every message to node 0; node 0 sends nothing
};

/** Workload knobs shared by every generator of a run. */
struct TrafficConfig
{
    uint64_t messages = 10;       //!< sends per node
    Tick meanGap = 20;            //!< mean inter-send gap (ticks)
    unsigned hotspotPermille = 0; //!< ‰ of traffic aimed at node 0
    uint64_t seed = 1;            //!< run seed (mixed with the node id)

    Arrival arrival = Arrival::uniform;
    Pattern pattern = Pattern::random;

    /** Arrivals keep their own clock; backpressure queues intents
     *  instead of pausing them.  Enables sojourn accounting. */
    bool openLoop = false;

    /** Receiver-side service time per message (0: drain instantly). */
    Tick serviceTime = 0;

    /** bursty: mean messages per on-period (geometric). */
    uint64_t burstLen = 8;
};

/** One node's driver; construct one per node, then start() each. */
class TrafficGen
{
  public:
    TrafficGen(System &sys, NodeId node, const TrafficConfig &cfg);

    /** Install the interrupt sink, enable interrupt-driven reception,
     *  and schedule the first send.  Requires an optimized interface
     *  (interrupt reception runs through Section 2.2.3's MsgIp). */
    void start();

    uint64_t sent() const { return sent_; }
    uint64_t drained() const { return drained_; }
    /** Stalled send attempts: each stalled call, plus one deemed
     *  retry per tick a parked sender sleeps through. */
    uint64_t stallRetries() const;

    /** Intents generated so far (== sent() in closed loop). */
    uint64_t arrivals() const { return arrivals_; }

    /** Tick of the last generated intent (offered-load denominator). */
    Tick lastArrivalTick() const { return lastArrivalTick_; }

    /** End-to-end (intent -> completion) latency of messages this
     *  node RECEIVED; populated only in open-loop runs. */
    const metrics::Histogram &sojourn() const { return sojourn_; }

    bool done() const { return sent_ == cfg_.messages; }

  private:
    class SendEvent : public Event
    {
      public:
        explicit SendEvent(TrafficGen &gen)
            : Event(cpuPri), gen_(gen)
        {}
        void process() override { gen_.trySend(); }
        std::string name() const override { return "traffic-send"; }

      private:
        TrafficGen &gen_;
    };

    /** Open loop only: the arrival clock, immune to backpressure. */
    class ArrivalEvent : public Event
    {
      public:
        explicit ArrivalEvent(TrafficGen &gen)
            : Event(cpuPri), gen_(gen)
        {}
        void process() override { gen_.arrive(); }
        std::string name() const override { return "traffic-arrival"; }

      private:
        TrafficGen &gen_;
    };

    /** serviceTime > 0 only: one message retires per firing. */
    class ServiceEvent : public Event
    {
      public:
        explicit ServiceEvent(TrafficGen &gen)
            : Event(cpuPri), gen_(gen)
        {}
        void process() override { gen_.serviceOne(); }
        std::string name() const override { return "traffic-service"; }

      private:
        TrafficGen &gen_;
    };

    void trySend();
    void arrive();
    void drain();
    void serviceOne();
    void retireOne(Tick now);
    bool sendsAnything() const;
    Message makeMessage(Tick intent);
    NodeId drawDst();
    Tick nextGap();

    System &sys_;
    NodeId node_;
    TrafficConfig cfg_;
    EventQueue &eq_;      //!< the machine's queue
    Random rng_;     //!< arrival clock (gaps, burst lengths)
    Random rngDst_;  //!< destination draws
    SendEvent sendEvent_;
    ArrivalEvent arrivalEvent_;
    ServiceEvent serviceEvent_;

    Message pending_{};
    bool pendingValid_ = false;

    /** pending_ stalled at parkTick_ and the NI holds sendEvent_ until
     *  a retry could succeed (NetworkInterface::injectOrPark). */
    bool parked_ = false;
    Tick parkTick_ = 0;

    /** Open loop: intent ticks awaiting admission, oldest first. */
    std::deque<Tick> backlog_;

    /** bursty: intents remaining in the current on-period. */
    uint64_t burstLeft_ = 0;

    bool serverBusy_ = false;

    uint64_t sent_ = 0;
    uint64_t arrivals_ = 0;
    uint64_t drained_ = 0;
    uint64_t stalls_ = 0;
    Tick lastArrivalTick_ = 0;

    metrics::Histogram sojourn_;
};

} // namespace sys
} // namespace tcpni

#endif // TCPNI_SYSTEM_TRAFFIC_HH

/**
 * @file
 * Abstract network interface between the nodes' NIs and the fabric.
 *
 * A Network moves Messages between nodes.  Flow control is exactly the
 * paper's Section 2.1.1 model: a node *offers* a message to the fabric;
 * the fabric may refuse (its injection buffer is full), in which case
 * the node's NI output queue backs up; at the far end the fabric offers
 * the message to the destination node's sink, which may also refuse
 * (the NI input queue is full), in which case the message stalls inside
 * the fabric and the congestion propagates backwards.
 *
 * A refused injector does not retry every cycle: it registers a waker
 * (its NI's pump event), and the fabric schedules it at the tick its
 * injection buffer frees a slot, the first tick a retry could succeed.
 */

#ifndef TCPNI_NOC_NETWORK_HH
#define TCPNI_NOC_NETWORK_HH

#include <functional>
#include <vector>

#include "common/logging.hh"
#include "noc/message.hh"
#include "sim/pool.hh"
#include "sim/sim_object.hh"

namespace tcpni
{

/** Consumer of delivered messages; returns false to refuse (backpressure). */
using MessageSink = std::function<bool(const Message &)>;

/** Abstract message fabric. */
class Network : public SimObject
{
  public:
    Network(std::string name, EventQueue &eq, unsigned num_nodes)
        : SimObject(std::move(name), eq), sinks_(num_nodes),
          wakers_(num_nodes, nullptr)
    {}

    unsigned numNodes() const { return static_cast<unsigned>(sinks_.size()); }

    /** Register the delivery callback for @p node. */
    void
    setSink(NodeId node, MessageSink sink)
    {
        sinks_.at(node) = std::move(sink);
    }

    /**
     * Register @p ev (node @p node 's injection pump) to be scheduled
     * at the current tick when the node's injection buffer frees a
     * slot after offer() refused it.
     */
    void
    setInjectWaker(NodeId node, Event *ev)
    {
        wakers_.at(node) = ev;
    }

    /**
     * Offer a message for injection at @p src.
     * @return false if the fabric cannot accept it this cycle; the
     *         node's inject waker then fires when it can.
     */
    virtual bool offer(NodeId src, const Message &msg) = 0;

    /** True when no messages are in flight. */
    virtual bool idle() const = 0;

    /** Messages delivered so far. */
    uint64_t delivered() const { return delivered_; }

  protected:
    /** Deliver to the registered sink; false if the sink refused. */
    bool
    deliver(const Message &msg)
    {
        NodeId d = msg.dest();
        if (d >= sinks_.size())
            panic("message to nonexistent node %u: %s", d,
                  msg.toString().c_str());
        if (!sinks_[d])
            panic("no sink registered for node %u", d);
        if (!sinks_[d](msg))
            return false;
        ++delivered_;
        return true;
    }

    /** A refused injection at @p node can now succeed: wake the
     *  node's injector, if one is registered and asleep. */
    void
    wakeInjector(NodeId node)
    {
        Event *ev = wakers_[node];
        if (ev && !ev->scheduled())
            eventq().schedule(ev, curTick());
    }

    uint64_t delivered_ = 0;

  private:
    std::vector<MessageSink> sinks_;
    std::vector<Event *> wakers_;
};

/**
 * A contention-free network: every accepted message arrives a fixed
 * number of cycles later.  If the destination refuses, delivery retries
 * every cycle.  Used by the Table-1 kernel harness, where the paper's
 * methodology explicitly excludes network latency effects.
 *
 * Delivery events come from an ObjectPool: once the in-flight
 * population peaks, offers recycle released slots and the steady state
 * allocates nothing (a ping-pong kernel previously paid a new/delete
 * pair per message).
 */
class IdealNetwork : public Network
{
  public:
    IdealNetwork(std::string name, EventQueue &eq, unsigned num_nodes,
                 Cycles latency = 1);

    bool offer(NodeId src, const Message &msg) override;
    bool idle() const override { return inFlight_ == 0; }

  private:
    class DeliverEvent : public Event
    {
      public:
        DeliverEvent(IdealNetwork &net, Message msg)
            : Event(networkPri), net_(net), msg_(std::move(msg))
        {}
        void process() override;
        std::string name() const override { return "ideal-deliver"; }

      private:
        IdealNetwork &net_;
        Message msg_;
    };

    Cycles latency_;
    uint64_t inFlight_ = 0;
    ObjectPool<DeliverEvent> pool_;
};

} // namespace tcpni

#endif // TCPNI_NOC_NETWORK_HH

/**
 * @file
 * The credit fabric: returns delivery credits to sender-side transport
 * policies over a modelled one-tick return path.
 *
 * When a destination interface accepts a message, the sender's window
 * must reopen.  The fabric models the credit's trip back as a
 * dedicated return path with one tick of latency, folded per
 * destination:
 *
 *  - noteDelivered(src, dst, T) appends a (T, dst) entry to the
 *    sender's pending list and schedules the sender's drain event at
 *    T + 1.
 *
 *  - The drain event at tick D folds only entries with tick < D,
 *    summed per destination and applied in destination order, into
 *    Policy::onCredit(), and reschedules for the remainder.  A credit
 *    born at D itself waits for the next drain, whether the delivery
 *    fired before or after the drain within tick D, so a credit never
 *    reaches its sender in less than one tick and the within-tick
 *    order of deliveries never shows through.
 *
 * Credit arrival ticks -- and therefore every downstream policy
 * decision -- are a pure function of the delivery schedule.  The
 * serve golden pins both the latency and the fold.
 */

#ifndef TCPNI_TRANSPORT_FABRIC_HH
#define TCPNI_TRANSPORT_FABRIC_HH

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "transport/transport.hh"

namespace tcpni
{
namespace transport
{

class CreditFabric
{
  public:
    /** A fabric returning credits on the machine's queue @p eq. */
    explicit CreditFabric(EventQueue &eq) : eq_(eq) {}

    /** Register @p node 's policy as a credit consumer. */
    void
    addSender(NodeId node, Policy *policy)
    {
        slots_.emplace(node, std::make_unique<Slot>(policy, eq_));
    }

    bool hasSender(NodeId node) const { return slots_.count(node); }

    /**
     * The interface of @p dst accepted a message from @p src at
     * @p now.  No-op unless @p src registered a credit-consuming
     * policy.
     */
    void
    noteDelivered(NodeId src, NodeId dst, Tick now)
    {
        auto it = slots_.find(src);
        if (it == slots_.end())
            return;
        Slot &slot = *it->second;
        slot.pending.emplace_back(now, dst);
        if (!slot.drain.scheduled())
            slot.eq.schedule(&slot.drain, now + 1);
    }

  private:
    struct Slot
    {
        class DrainEvent : public Event
        {
          public:
            explicit DrainEvent(Slot &slot)
                : Event(niPri), slot_(slot)
            {
            }
            void process() override { slot_.drainCredits(); }
            std::string name() const override
            {
                return "credit-drain";
            }

          private:
            Slot &slot_;
        };

        Slot(Policy *policy, EventQueue &eq)
            : policy(policy), eq(eq), drain(*this)
        {
        }

        void drainCredits();

        Policy *policy;
        EventQueue &eq;
        DrainEvent drain;

        /** (delivery tick, destination) entries, appended in
         *  nondecreasing tick order. */
        std::vector<std::pair<Tick, NodeId>> pending;
    };

    EventQueue &eq_;
    std::map<NodeId, std::unique_ptr<Slot>> slots_;
};

} // namespace transport
} // namespace tcpni

#endif // TCPNI_TRANSPORT_FABRIC_HH

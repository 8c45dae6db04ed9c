/**
 * @file
 * Base class for named simulation components.
 */

#ifndef TCPNI_SIM_SIM_OBJECT_HH
#define TCPNI_SIM_SIM_OBJECT_HH

#include <string>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace tcpni
{

/**
 * A named component attached to an event queue.
 *
 * SimObjects share the simulation's EventQueue; their counters live
 * in the metrics registry (metrics/metrics.hh).
 */
class SimObject
{
  public:
    SimObject(std::string name, EventQueue &eq)
        : name_(std::move(name)), eventq_(eq)
    {}

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return name_; }
    EventQueue &eventq() { return eventq_; }
    Tick curTick() const { return eventq_.curTick(); }

  private:
    std::string name_;
    EventQueue &eventq_;
};

} // namespace tcpni

#endif // TCPNI_SIM_SIM_OBJECT_HH

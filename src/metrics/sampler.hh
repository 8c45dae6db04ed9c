/**
 * @file
 * Periodic counter snapshots for one simulation.
 *
 * The Sampler is a SimObject created by the Registry when the first
 * metric group of a new simulation registers (so every simulation of
 * a task is sampled, including ones built from raw components with no
 * sys::System).  It is the queue's QueueObserver, not an event: it
 * records one sample of every live series via Registry::sampleNow()
 * at each interval boundary once that tick's events have fired, and
 * a final one at the end of the run.  It never advances the clock
 * and adds no events, so a run with telemetry on simulates exactly
 * what a run without it does.
 *
 * The Sampler also contributes its own "eventq" group (events
 * processed, queue size).  The group's read functions capture the
 * Sampler -- which the Registry owns and keeps alive through
 * finalize() -- never the EventQueue, whose lifetime ends with the
 * task's simulation.  The destructor likewise never touches the
 * queue: the queue's observer pointer simply dies with it.
 */

#ifndef TCPNI_METRICS_SAMPLER_HH
#define TCPNI_METRICS_SAMPLER_HH

#include <memory>

#include "sim/sim_object.hh"

namespace tcpni
{
namespace metrics
{

class Group;
class Registry;

class Sampler : public SimObject, public QueueObserver
{
  public:
    Sampler(const std::string &name, EventQueue &eq, Registry &owner,
            uint64_t queue_id, Tick interval);
    ~Sampler() override;

    void observe() override;

  private:
    Registry &owner_;
    uint64_t queueId_;
    /** Queue state as of the last sample; read by the "eventq" group
     *  so finalize() never touches a dead EventQueue. */
    uint64_t processed_ = 0;
    uint64_t qsize_ = 0;
    std::shared_ptr<Group> group_;
};

} // namespace metrics
} // namespace tcpni

#endif // TCPNI_METRICS_SAMPLER_HH

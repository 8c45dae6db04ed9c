#include "metrics/sampler.hh"

#include "metrics/metrics.hh"

namespace tcpni
{
namespace metrics
{

Sampler::Sampler(const std::string &name, EventQueue &eq,
                 Registry &owner, uint64_t queue_id, Tick interval)
    : SimObject(name, eq), owner_(owner), queueId_(queue_id)
{
    group_ = owner_.addGroup(name, eq);
    group_->addCounter("processed", [this] { return processed_; },
                       "events processed (as of last sample)");
    group_->addGauge("size", [this] { return qsize_; },
                     "scheduled events (as of last sample)");
    eq.observe(this, interval);
}

Sampler::~Sampler()
{
    // Deliberately no detach: the owning Registry outlives the
    // simulation, so the queue is already gone by the time the
    // Sampler is destroyed.
    if (group_)
        group_->retire();
}

void
Sampler::observe()
{
    qsize_ = eventq().size();
    processed_ = eventq().numProcessed();
    owner_.sampleNow(queueId_, curTick());
}

} // namespace metrics
} // namespace tcpni

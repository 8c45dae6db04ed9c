#include "transport/fabric.hh"

#include "common/logging.hh"

namespace tcpni
{
namespace transport
{

void
CreditFabric::Slot::drainCredits()
{
    const Tick now = eq.curTick();

    // Fold strictly-earlier entries, summed per destination and
    // applied in destination order: the within-tick append order
    // cannot show through.
    std::map<NodeId, uint32_t> folded;
    size_t taken = 0;
    while (taken < pending.size() && pending[taken].first < now) {
        ++folded[pending[taken].second];
        ++taken;
    }
    if (taken)
        pending.erase(pending.begin(),
                      pending.begin() + static_cast<long>(taken));
    for (const auto &[dst, count] : folded)
        policy->onCredit(dst, count, now);

    // Entries born at `now` wait for the next drain.
    if (!pending.empty()) {
        tcpni_assert(pending.front().first >= now);
        eq.schedule(&drain, pending.front().first + 1);
    }
}

} // namespace transport
} // namespace tcpni

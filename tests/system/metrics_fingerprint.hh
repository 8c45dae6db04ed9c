/**
 * @file
 * Test helper: fingerprint a simulation through the metrics registry.
 *
 * A MetricsFingerprint installs a fresh metrics::Registry (sample
 * interval 0, so no time series) on this thread for its lifetime.
 * Declare it BEFORE the System it observes, so every component
 * registers its group with it; take() then retires the groups and
 * serializes every counter, gauge and histogram -- NI, mesh and
 * per-link, transport, CPU and HPU -- plus the final tick into one
 * line-per-series string ("group.series value").  Two runs look the
 * same to every instrumented component iff their fingerprints match.
 *
 * Only the merged groups are serialized, not TaskMetrics::sims (the
 * fuzz suites' pinned hashes were recorded that way).
 */

#ifndef TCPNI_TESTS_SYSTEM_METRICS_FINGERPRINT_HH
#define TCPNI_TESTS_SYSTEM_METRICS_FINGERPRINT_HH

#include <sstream>
#include <string>
#include <vector>

#include "metrics/metrics.hh"
#include "sim/types.hh"

namespace tcpni
{

class MetricsFingerprint
{
  public:
    MetricsFingerprint() : registry_(0), prev_(metrics::registry())
    {
        metrics::setRegistry(&registry_);
    }

    ~MetricsFingerprint() { metrics::setRegistry(prev_); }

    MetricsFingerprint(const MetricsFingerprint &) = delete;
    MetricsFingerprint &operator=(const MetricsFingerprint &) = delete;

    /** Serialize every registered series and @p now (the machine's
     *  final tick).  Call once, while the observed machine is alive;
     *  the registry is inert afterwards. */
    std::string
    take(Tick now)
    {
        const metrics::TaskMetrics m = registry_.finalize("");
        std::ostringstream os;
        os << "ticks " << now << "\n";
        for (const auto &g : m.groups) {
            for (const auto &s : g.series) {
                os << g.name << "." << s.name;
                switch (s.kind) {
                  case metrics::Kind::counter:
                    os << " " << s.value;
                    break;
                  case metrics::Kind::gauge:
                    os << " last " << s.value << " peak " << s.peak;
                    break;
                  case metrics::Kind::histogram: {
                    os << " count " << s.hist.count() << " sum "
                       << s.hist.sum() << " min " << s.hist.min()
                       << " max " << s.hist.max();
                    const std::vector<uint64_t> &b = s.hist.buckets();
                    for (size_t i = 0; i < b.size(); ++i)
                        if (b[i])
                            os << " " << i << ":" << b[i];
                    break;
                  }
                }
                os << "\n";
            }
        }
        return os.str();
    }

  private:
    metrics::Registry registry_;
    metrics::Registry *prev_;
};

} // namespace tcpni

#endif // TCPNI_TESTS_SYSTEM_METRICS_FINGERPRINT_HH

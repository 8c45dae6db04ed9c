/**
 * @file
 * A log-bucketed ("HDR-style") latency histogram.
 *
 * Values are non-negative integers (cycle counts).  Small values
 * (< 2^subBucketBits) land in exact unit-width buckets; larger values
 * are bucketed with 2^(subBucketBits-1) sub-buckets per power of two,
 * bounding the relative quantization error of any recorded value to
 * 1 / 2^(subBucketBits-1) (about 3% at the default 6 bits).  This is
 * the classic high-dynamic-range histogram layout: O(1) record, fixed
 * small footprint regardless of the value range, and percentiles that
 * stay accurate into the tail -- which is what the incast/tail-latency
 * experiments need and what fixed linear buckets cannot provide.
 *
 * Exact count, sum, min and max are kept alongside the buckets, so
 * count()/mean()/min()/max() are exact even though percentiles are
 * quantized to a bucket boundary.  merge() folds another histogram in
 * (same geometry), which is how per-thread or per-simulation
 * histograms are aggregated deterministically.
 */

#ifndef TCPNI_METRICS_HISTOGRAM_HH
#define TCPNI_METRICS_HISTOGRAM_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tcpni
{
namespace metrics
{

class Histogram
{
  public:
    /** Sub-bucket resolution: 2^6 exact unit buckets, then 32
     *  sub-buckets per power of two. */
    static constexpr unsigned subBucketBits = 6;
    static constexpr uint64_t subBucketCount = 1ull << subBucketBits;
    static constexpr uint64_t halfSubBuckets = subBucketCount / 2;

    Histogram() = default;

    /** Bucket index of @p v.  Contiguous: index 0..63 are the exact
     *  values 0..63; thereafter each power of two contributes 32
     *  buckets of width 2^(msb-5). */
    static size_t
    bucketIndex(uint64_t v)
    {
        if (v < subBucketCount)
            return static_cast<size_t>(v);
        unsigned msb = 63u - static_cast<unsigned>(__builtin_clzll(v));
        unsigned shift = msb - (subBucketBits - 1);
        return static_cast<size_t>(shift * halfSubBuckets +
                                   (v >> shift));
    }

    /** Smallest value mapping to bucket @p index. */
    static uint64_t
    bucketLow(size_t index)
    {
        if (index < subBucketCount)
            return index;
        // index = shift * 32 + sub with sub in [32, 64), so the
        // shift for a given index is index/32 - 1.
        unsigned shift =
            static_cast<unsigned>(index / halfSubBuckets) - 1;
        uint64_t sub = index % halfSubBuckets + halfSubBuckets;
        return sub << shift;
    }

    /** Largest value mapping to bucket @p index (inclusive). */
    static uint64_t
    bucketHigh(size_t index)
    {
        if (index < subBucketCount)
            return index;
        unsigned shift =
            static_cast<unsigned>(index / halfSubBuckets) - 1;
        uint64_t sub = index % halfSubBuckets + halfSubBuckets;
        return ((sub + 1) << shift) - 1;
    }

    void
    record(uint64_t v, uint64_t count = 1)
    {
        if (count == 0)
            return;
        if (count_ == 0) {
            min_ = max_ = v;
        } else {
            if (v < min_) min_ = v;
            if (v > max_) max_ = v;
        }
        count_ += count;
        sum_ += v * count;
        size_t idx = bucketIndex(v);
        if (idx >= counts_.size()) {
            // Reserve in doubling steps before the exact resize: a
            // bare resize(idx + 1) reallocates on every new maximum,
            // which would keep the hot record() path allocating long
            // after the observed range has effectively plateaued.
            if (idx >= counts_.capacity()) {
                size_t cap =
                    counts_.capacity() ? counts_.capacity() : subBucketCount;
                while (cap <= idx)
                    cap *= 2;
                counts_.reserve(cap);
            }
            counts_.resize(idx + 1, 0);
        }
        counts_[idx] += count;
    }

    uint64_t count() const { return count_; }
    uint64_t sum() const { return sum_; }
    uint64_t min() const { return count_ ? min_ : 0; }
    uint64_t max() const { return count_ ? max_ : 0; }

    double
    mean() const
    {
        return count_ ? static_cast<double>(sum_) /
                            static_cast<double>(count_)
                      : 0.0;
    }

    /**
     * Nearest-rank percentile: the smallest recorded-bucket upper
     * bound covering at least ceil(q * count) samples, clamped into
     * [min, max] so exact extremes are reported exactly.  @p q is in
     * [0, 1]; returns 0 on an empty histogram.
     */
    uint64_t
    percentile(double q) const
    {
        if (count_ == 0)
            return 0;
        if (q <= 0.0)
            return min_;
        // ceil(q * count) without floating-point edge surprises for
        // q close to 1: use >= comparison against q*count directly.
        uint64_t rank = static_cast<uint64_t>(q *
                            static_cast<double>(count_));
        if (static_cast<double>(rank) <
                q * static_cast<double>(count_))
            ++rank;
        if (rank < 1)
            rank = 1;
        if (rank > count_)
            rank = count_;
        uint64_t seen = 0;
        for (size_t i = 0; i < counts_.size(); ++i) {
            seen += counts_[i];
            if (seen >= rank) {
                uint64_t v = bucketHigh(i);
                if (v < min_) v = min_;
                if (v > max_) v = max_;
                return v;
            }
        }
        return max_;
    }

    /** Fold @p other into this histogram. */
    void
    merge(const Histogram &other)
    {
        if (other.count_ == 0)
            return;
        if (count_ == 0) {
            min_ = other.min_;
            max_ = other.max_;
        } else {
            if (other.min_ < min_) min_ = other.min_;
            if (other.max_ > max_) max_ = other.max_;
        }
        count_ += other.count_;
        sum_ += other.sum_;
        if (other.counts_.size() > counts_.size())
            counts_.resize(other.counts_.size(), 0);
        for (size_t i = 0; i < other.counts_.size(); ++i)
            counts_[i] += other.counts_[i];
    }

    void
    reset()
    {
        counts_.clear();
        count_ = sum_ = min_ = max_ = 0;
    }

    /** Raw bucket counts (index -> count), for tests and export. */
    const std::vector<uint64_t> &buckets() const { return counts_; }

  private:
    std::vector<uint64_t> counts_;
    uint64_t count_ = 0;
    uint64_t sum_ = 0;
    uint64_t min_ = 0;
    uint64_t max_ = 0;
};

} // namespace metrics
} // namespace tcpni

#endif // TCPNI_METRICS_HISTOGRAM_HH

/**
 * @file
 * Fixed-bucket histogram for per-run statistics.
 */

#ifndef PCSIM_SIM_STATS_HH
#define PCSIM_SIM_STATS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pcsim
{

/** Fixed-bucket histogram over a small integer domain. */
class Histogram
{
  public:
    explicit Histogram(std::size_t buckets = 16) : _buckets(buckets, 0) {}

    /** Sample @p v; values beyond the last bucket land in it. */
    void
    sample(std::size_t v)
    {
        if (v >= _buckets.size())
            v = _buckets.size() - 1;
        ++_buckets[v];
        ++_total;
    }

    std::uint64_t bucket(std::size_t i) const { return _buckets.at(i); }
    std::size_t numBuckets() const { return _buckets.size(); }
    std::uint64_t total() const { return _total; }

    /** Fraction of samples in bucket @p i (0 if no samples). */
    double
    fraction(std::size_t i) const
    {
        return _total ? double(_buckets.at(i)) / double(_total) : 0.0;
    }

    void
    reset()
    {
        for (auto &b : _buckets)
            b = 0;
        _total = 0;
    }

    /** Bucket-wise accumulate @p o into this histogram, widening to
     *  the larger bucket count if they differ. */
    void
    merge(const Histogram &o)
    {
        if (o._buckets.size() > _buckets.size())
            _buckets.resize(o._buckets.size(), 0);
        for (std::size_t i = 0; i < o._buckets.size(); ++i)
            _buckets[i] += o._buckets[i];
        _total += o._total;
    }

  private:
    std::vector<std::uint64_t> _buckets;
    std::uint64_t _total = 0;
};

} // namespace pcsim

#endif // PCSIM_SIM_STATS_HH

/**
 * @file
 * Lightweight statistics: scalar counters, averages and histograms
 * collected in a registry so a run can be dumped as a table.
 */

#ifndef PCSIM_SIM_STATS_HH
#define PCSIM_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace pcsim
{

/** A monotonically increasing event counter. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { _value += n; }
    std::uint64_t value() const { return _value; }
    void reset() { _value = 0; }

  private:
    std::uint64_t _value = 0;
};

/** Running mean / min / max of a sampled quantity. */
class Average
{
  public:
    void
    sample(double v)
    {
        _sum += v;
        ++_count;
        if (v < _min)
            _min = v;
        if (v > _max)
            _max = v;
    }

    double mean() const { return _count ? _sum / _count : 0.0; }
    double min() const { return _count ? _min : 0.0; }
    double max() const { return _count ? _max : 0.0; }
    std::uint64_t count() const { return _count; }

    void
    reset()
    {
        _sum = 0;
        _count = 0;
        _min = 1e300;
        _max = -1e300;
    }

  private:
    double _sum = 0;
    std::uint64_t _count = 0;
    double _min = 1e300;
    double _max = -1e300;
};

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

/**
 * Named bag of counters, used by components to expose statistics
 * without a fixed schema. Keys are created on first use.
 */
class StatGroup
{
  public:
    Counter &counter(const std::string &key) { return _counters[key]; }

    const Counter *
    findCounter(const std::string &key) const
    {
        auto it = _counters.find(key);
        return it == _counters.end() ? nullptr : &it->second;
    }

    std::uint64_t
    counterValue(const std::string &key) const
    {
        const Counter *c = findCounter(key);
        return c ? c->value() : 0;
    }

    void
    dump(std::ostream &os, const std::string &prefix) const
    {
        for (const auto &[key, c] : _counters)
            os << prefix << '.' << key << ' ' << c.value() << '\n';
    }

    void
    reset()
    {
        for (auto &[key, c] : _counters)
            c.reset();
    }

    const std::map<std::string, Counter> &all() const { return _counters; }

  private:
    std::map<std::string, Counter> _counters;
};

} // namespace pcsim

#endif // PCSIM_SIM_STATS_HH

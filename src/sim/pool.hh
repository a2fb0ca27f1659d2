/**
 * @file
 * Slab-backed free-list object pool.
 *
 * Pool<T> hands out pointers to default-constructed T objects carved
 * from fixed-size slabs and recycles released objects through a LIFO
 * free list, so steady-state acquire/release performs no heap
 * allocation and reuses cache-warm storage. Objects are NOT reset on
 * release: the next acquirer is expected to overwrite the full state
 * (coherence Messages are copy-assigned wholesale).
 *
 * Single-threaded by design -- one pool lives inside one simulated
 * machine, and a simulation runs on one thread (the experiment runner
 * parallelizes across independent System instances).
 */

#ifndef PCSIM_SIM_POOL_HH
#define PCSIM_SIM_POOL_HH

#include <cstdint>
#include <memory>
#include <vector>

namespace pcsim
{

template <typename T>
class Pool
{
  public:
    /** Recycling statistics (RunPerf::poolAcquires, poolReuses). */
    struct Stats
    {
        std::uint64_t acquires = 0; ///< total acquire() calls
        std::uint64_t reuses = 0;   ///< served from the free list
        std::uint64_t releases = 0;
        std::size_t slabs = 0;      ///< slabs allocated

        double
        hitRate() const
        {
            return acquires ? double(reuses) / double(acquires) : 0.0;
        }
    };

    explicit Pool(std::size_t slab_objects = 256)
        : _slabObjects(slab_objects ? slab_objects : 1)
    {
    }

    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;

    /**
     * Fetch an object: recycled from the free list when possible,
     * otherwise carved from the current slab (allocating a new slab
     * only when the current one is exhausted).
     */
    T *
    acquire()
    {
        ++_stats.acquires;
        if (!_free.empty()) {
            ++_stats.reuses;
            T *p = _free.back();
            _free.pop_back();
            return p;
        }
        if (_slabs.empty() || _nextInSlab == _slabObjects) {
            _slabs.push_back(std::make_unique<T[]>(_slabObjects));
            ++_stats.slabs;
            _nextInSlab = 0;
        }
        return &_slabs.back()[_nextInSlab++];
    }

    /** Return an object to the free list. Must come from acquire(). */
    void
    release(T *p)
    {
        ++_stats.releases;
        _free.push_back(p);
    }

    const Stats &stats() const { return _stats; }

    /** Objects handed out and not yet released. */
    std::size_t
    outstanding() const
    {
        return static_cast<std::size_t>(_stats.acquires -
                                        _stats.releases);
    }

    /** Total objects backed by allocated slabs. */
    std::size_t capacity() const { return _stats.slabs * _slabObjects; }

  private:
    std::size_t _slabObjects;
    std::size_t _nextInSlab = 0;
    std::vector<std::unique_ptr<T[]>> _slabs;
    std::vector<T *> _free;
    Stats _stats;
};

} // namespace pcsim

#endif // PCSIM_SIM_POOL_HH

/**
 * @file
 * Delegate cache (Section 2.3, Figure 3).
 *
 * Two tables per node:
 *  - the PRODUCER table tracks directory state for lines delegated TO
 *    this node (valid bit, tag, age, DirEntry); its size bounds how
 *    many lines a node can act as home for at once;
 *  - the CONSUMER table remembers the delegated home of lines this
 *    node accesses (valid bit, tag, owner); entries are hints, 4-way
 *    set associative with random replacement.
 */

#ifndef PCSIM_CORE_DELEGATE_CACHE_HH
#define PCSIM_CORE_DELEGATE_CACHE_HH

#include <cstdint>

#include "src/cache/cache_array.hh"
#include "src/mem/directory.hh"
#include "src/sim/random.hh"
#include "src/sim/types.hh"

namespace pcsim
{

/** Delegate cache geometry (both tables sized alike, per the paper's
 *  "32-entry" / "1K-entry" delegate cache configurations). */
struct DelegateCacheConfig
{
    std::size_t producerEntries = 32;
    std::size_t consumerEntries = 32;
    std::size_t ways = 4;
};

/**
 * A producer-table entry: the directory information normally kept by
 * the home node. While the local processor is in its write epoch the
 * entry is in Excl state but RETAINS the previous sharing vector --
 * that old vector is the speculative-update target set (Section
 * 2.4.2); the added ownerID field is DirEntry::owner.
 */
struct ProducerEntry
{
    DirEntry dir;
    /** A delayed intervention is scheduled for this line. */
    bool intervPending = false;
    /** Reads NACKed while waiting for the intervention this epoch;
     *  a retry that still finds the epoch open downgrades on demand
     *  (the paper's curves imply readers cannot stall for the whole
     *  interval at large delays). */
    std::uint8_t pendingNacks = 0;
};

/** A consumer-table entry: where the line's acting home is. */
struct ConsumerEntry
{
    NodeId delegatedHome = invalidNode;
};

/** The two-table delegate cache. */
class DelegateCache
{
  public:
    /** @p line_bytes is the coherence line size. */
    DelegateCache(const DelegateCacheConfig &cfg, std::uint32_t line_bytes,
                  Rng rng)
        : _cfg(cfg),
          _producer("deledc.prod",
                    std::max<std::size_t>(1, cfg.producerEntries / cfg.ways),
                    cfg.ways, line_bytes, ReplPolicy::LRU, rng.fork()),
          _consumer("deledc.cons",
                    std::max<std::size_t>(1, cfg.consumerEntries / cfg.ways),
                    cfg.ways, line_bytes, ReplPolicy::Random, rng.fork())
    {
    }

    CacheArray<ProducerEntry> &producer() { return _producer; }
    CacheArray<ConsumerEntry> &consumer() { return _consumer; }

    /** Producer-table lookup (is this line delegated to me?). */
    ProducerEntry *producerFind(Addr line) { return _producer.find(line); }

    /** Consumer-table lookup (do I know the acting home?). */
    NodeId
    consumerLookup(Addr line)
    {
        ConsumerEntry *e = _consumer.find(line);
        return e ? e->delegatedHome : invalidNode;
    }

    /** Record (or refresh) a home hint. Hints may be dropped by the
     *  random replacement without correctness impact. */
    void
    consumerInsert(Addr line, NodeId home)
    {
        ConsumerEntry *e = _consumer.allocate(line);
        if (e)
            e->delegatedHome = home;
    }

    /** Drop a stale hint (after a NackNotHome). */
    void consumerErase(Addr line) { _consumer.invalidate(line); }

    const DelegateCacheConfig &config() const { return _cfg; }

    /** Sets both tables have materialized so far (footprint probe). */
    std::size_t
    materializedSets() const
    {
        return _producer.materializedSets() + _consumer.materializedSets();
    }

  private:
    DelegateCacheConfig _cfg;
    CacheArray<ProducerEntry> _producer;
    CacheArray<ConsumerEntry> _consumer;
};

} // namespace pcsim

#endif // PCSIM_CORE_DELEGATE_CACHE_HH

/**
 * @file
 * Miss Status Holding Registers for the node's coherence agent.
 *
 * One MSHR tracks one outstanding line transaction: the request type,
 * where it was sent, how many invalidation acks remain (Origin-style
 * ack collection at the requester), and NACK retry state.
 */

#ifndef PCSIM_CACHE_MSHR_HH
#define PCSIM_CACHE_MSHR_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "src/cache/access_callback.hh"
#include "src/net/message.hh"
#include "src/sim/pool.hh"
#include "src/sim/types.hh"

namespace pcsim
{

/** Outstanding transaction state for one line. */
struct Mshr
{
    Addr addr = invalidAddr;    ///< line address
    Addr reqAddr = invalidAddr; ///< original byte address (L1 fill)
    bool isWrite = false;
    /** The request currently outstanding (ReqShared/ReqExcl/ReqUpgrade). */
    MsgType reqType = MsgType::ReqShared;

    /** Data reply received (version captured below). */
    bool haveData = false;
    Version version = 0;
    /** Reply granted exclusive permission. */
    bool exclusiveGrant = false;

    /** Acks to collect: -1 until the reply announces the count. */
    int acksExpected = -1;
    int acksReceived = 0;

    /** Our SHARED copy was invalidated while this upgrade was
     *  outstanding; a dataless upgrade ack can no longer satisfy it. */
    bool lostCopy = false;

    /** An invalidation overtook the read reply in flight: complete
     *  the load with the (legally stale) data but do not cache it. */
    bool fillInvalidated = false;

    /** Retry bookkeeping for NACKs. */
    std::uint32_t retries = 0;

    /** Current transaction id (re-stamped on every (re)send). */
    std::uint64_t txnId = 0;

    /** Issue time of the original access, for latency stats. */
    Tick issued = 0;
    /** Any network message was needed to resolve this miss. */
    bool usedNetwork = false;
    /** Data was supplied by a third party (3-hop transaction). */
    bool thirdParty = false;
    /** Completion callback back into the CPU (receives the final
     *  line version -- the data abstraction). */
    AccessCallback onComplete;

    /** All ingredients present to finish the transaction? */
    bool
    ready() const
    {
        if (acksExpected >= 0 && acksReceived < acksExpected)
            return false;
        if (isWrite) {
            // A write needs an exclusive grant; upgrades that lost
            // their copy also need fresh data.
            if (acksExpected < 0)
                return false;
            if (lostCopy && !haveData)
                return false;
            return true;
        }
        return haveData;
    }
};

/**
 * Table of MSHRs indexed by line address.
 *
 * A node has a handful of misses outstanding at most (one blocking
 * CPU), so lookup is a linear scan over the live (line, MSHR) pairs --
 * no hashing. MSHRs come from a per-table pool: an Mshr* stays valid
 * until its line is freed, whatever else is allocated or freed
 * meanwhile, and memory grows only to the peak number of outstanding
 * misses.
 */
class MshrTable
{
  public:
    explicit MshrTable(std::size_t capacity)
        : _capacity(capacity), _pool(1)
    {
    }

    bool full() const { return _live.size() >= _capacity; }
    std::size_t size() const { return _live.size(); }

    Mshr *
    find(Addr line)
    {
        for (const auto &[a, m] : _live) {
            if (a == line)
                return m;
        }
        return nullptr;
    }

    /** Allocate a default MSHR for @p line; returns nullptr if full or
     *  already present. */
    Mshr *
    allocate(Addr line)
    {
        if (full() || find(line))
            return nullptr;
        Mshr *m = _pool.acquire();
        *m = Mshr{};
        m->addr = line;
        _live.emplace_back(line, m);
        return m;
    }

    void
    free(Addr line)
    {
        for (std::size_t i = 0; i < _live.size(); ++i) {
            if (_live[i].first == line) {
                _pool.release(_live[i].second);
                _live[i] = _live.back();
                _live.pop_back();
                return;
            }
        }
    }

    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (const auto &[line, mshr] : _live)
            fn(*mshr);
    }

  private:
    std::size_t _capacity;
    /** Live MSHRs, unordered. */
    std::vector<std::pair<Addr, Mshr *>> _live;
    Pool<Mshr> _pool;
};

} // namespace pcsim

#endif // PCSIM_CACHE_MSHR_HH

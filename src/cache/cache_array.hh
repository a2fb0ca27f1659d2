/**
 * @file
 * Generic set-associative cache array.
 *
 * Stores user-defined per-line payloads and manages tags, validity and
 * replacement (LRU or random). The line size must be a power of two of
 * at least 2 bytes; the number of sets need not be, which lets us
 * model the "equal silicon area" 1.04 MB L2 of Figure 8 exactly.
 * Lines align by mask and power-of-two set counts index by shift and
 * mask; only other set counts pay a division (DESIGN.md, "Hot-path
 * data structures").
 *
 * Memory follows the sets a run touches, not the modelled capacity: a
 * set takes storage on its first allocate(), and an untouched set
 * costs 2 bytes of index (DESIGN.md, "Per-node state on first
 * touch").
 */

#ifndef PCSIM_CACHE_CACHE_ARRAY_HH
#define PCSIM_CACHE_CACHE_ARRAY_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/logging.hh"
#include "src/sim/random.hh"
#include "src/sim/types.hh"

namespace pcsim
{

/** Replacement policy selector. */
enum class ReplPolicy
{
    LRU,
    Random,
};

/** Why array @p name cannot have @p num_sets sets of @p ways ways, or
 *  "" when it can: a set's index is a 16-bit first-touch ordinal
 *  (0 = untouched) and a way's recency an 8-bit rank. The CacheArray
 *  constructor and ProtocolConfig::validateError() both ask. */
inline std::string
cacheGeometryError(const std::string &name, std::size_t num_sets,
                   std::size_t ways)
{
    constexpr std::size_t max_sets = std::numeric_limits<std::uint16_t>::max();
    constexpr std::size_t max_ways = std::numeric_limits<std::uint8_t>::max();
    if (num_sets > max_sets)
        return name + ": " + std::to_string(num_sets) +
               " sets overflow the 16-bit set index (max " +
               std::to_string(max_sets) + ")";
    if (ways > max_ways)
        return name + ": " + std::to_string(ways) +
               " ways overflow the 8-bit LRU rank (max " +
               std::to_string(max_ways) + ")";
    return "";
}

/**
 * Set-associative array of EntryT payloads indexed by line address.
 *
 * EntryT is any default-constructible struct; the array adds tag and
 * recency. Addresses passed in are byte addresses and are aligned
 * internally to the line size.
 *
 * Storage is materialized per set on first allocate(): a per-set
 * 16-bit index holds the set's first-touch ordinal (0 = never
 * allocated), which names its place in append-only slabs packed in
 * first-touch order. A materialized set is a tag row (one line
 * address per way, invalidAddr for an empty way), then a rank row,
 * then the ways' payloads, so a probe compares tags before it touches
 * a payload. The rank row is a permutation of 0..ways-1 ordering the
 * ways by their last touch, 0 = most recent: a touch moves its way to
 * 0, and the LRU victim is the evictable way of highest rank.
 * Lookups on an untouched set return null and allocate nothing;
 * payload pointers stay valid until their line leaves. A payload
 * lives exactly while its line is valid: allocate() constructs it, and
 * invalidation, eviction, clear() and destruction end it.
 */
template <typename EntryT>
class CacheArray
{
    // Slabs come from plain new[], which aligns this far.
    static_assert(alignof(EntryT) <= alignof(std::max_align_t));

  public:
    CacheArray(std::string name, std::size_t num_sets, std::size_t ways,
               std::uint32_t line_bytes, ReplPolicy policy, Rng rng)
        : _name(std::move(name)),
          _numSets(num_sets),
          _ways(ways),
          _lineBytes(line_bytes),
          _lineShift(static_cast<unsigned>(std::countr_zero(line_bytes))),
          _setMask(num_sets - 1),
          _setsPow2(isPowerOfTwo(num_sets)),
          _policy(policy),
          _rng(rng),
          _dataOffset(roundUp(ways * sizeof(Addr) + ways, alignof(EntryT))),
          _setBytes(roundUp(_dataOffset + ways * sizeof(EntryT),
                            std::max(alignof(Addr), alignof(EntryT))))
    {
        if (num_sets == 0 || ways == 0 || line_bytes == 0)
            fatal("%s: bad cache geometry", _name.c_str());
        if (!isPowerOfTwo(line_bytes))
            fatal("%s: line size %u is not a power of two", _name.c_str(),
                  line_bytes);
        // An empty way is marked by its tag alone, and only a 1-byte
        // line can have invalidAddr as its address.
        if (line_bytes < 2)
            fatal("%s: line size %u is below 2 bytes", _name.c_str(),
                  line_bytes);
        const std::string err = cacheGeometryError(_name, num_sets, ways);
        if (!err.empty())
            fatal("%s", err.c_str());
        _sets.assign(num_sets, 0);
    }

    CacheArray(CacheArray &&) = default;

    ~CacheArray()
    {
        if constexpr (!std::is_trivially_destructible_v<EntryT>)
            clear();
    }

    std::uint32_t lineBytes() const { return _lineBytes; }
    std::size_t numSets() const { return _numSets; }
    std::size_t ways() const { return _ways; }
    std::size_t capacityBytes() const
    {
        return _numSets * _ways * _lineBytes;
    }

    /** Sets that have taken storage so far (footprint probe). */
    std::size_t materializedSets() const { return _materialized; }

    /** Align a byte address down to its line. */
    Addr lineAlign(Addr a) const { return a & ~Addr{_lineBytes - 1}; }

    /**
     * Look up @p a. Returns the payload or nullptr.
     * @param touch update recency on hit.
     */
    EntryT *
    find(Addr a, bool touch = true)
    {
        const Addr line = lineAlign(a);
        std::byte *set = setOf(line);
        if (!set)
            return nullptr;
        const std::size_t w = wayOf(set, line);
        if (w == _ways)
            return nullptr;
        if (touch)
            promote(set, w);
        return entry(set, w);
    }

    const EntryT *
    find(Addr a) const
    {
        return const_cast<CacheArray *>(this)->find(a, false);
    }

    /**
     * Allocate a slot for @p a, evicting if necessary.
     *
     * @param a            byte address (aligned internally).
     * @param can_evict    predicate (addr, const payload) -> bool
     *                     deciding whether a valid slot may be
     *                     displaced (e.g. skip pinned RAC entries);
     *                     pass nullptr to allow any.
     * @param on_evict     called with (addr, payload) of the victim
     *                     before reuse; nullptr for none.
     * @return payload pointer, or nullptr if the set is full and no
     *         slot is evictable.
     *
     * If @p a is already present its existing slot is returned. Both
     * callables are inlined: no type erasure on the fill path.
     */
    template <typename CanEvict = std::nullptr_t,
              typename OnEvict = std::nullptr_t>
    EntryT *
    allocate(Addr a, CanEvict &&can_evict = nullptr,
             OnEvict &&on_evict = nullptr)
    {
        const Addr line = lineAlign(a);
        const std::size_t s = setIndex(line);
        std::byte *set = _sets[s] ? setAt(_sets[s]) : materialize(s);
        Addr *tag = tags(set);
        // A hit wins; otherwise prefer the first empty way.
        std::size_t victim = _ways;
        for (std::size_t w = 0; w < _ways; ++w) {
            if (tag[w] == line) {
                promote(set, w);
                return entry(set, w);
            }
            if (tag[w] == invalidAddr && victim == _ways)
                victim = w;
        }
        if (victim == _ways) {
            victim = pickVictim(set, can_evict);
            if (victim == _ways)
                return nullptr;
            if constexpr (!isNull<OnEvict>)
                on_evict(tag[victim], *entry(set, victim));
            // The callback may already have invalidated the victim.
            if (tag[victim] != invalidAddr)
                release(set, victim);
        }
        ::new (static_cast<void *>(entry(set, victim))) EntryT{};
        tag[victim] = line;
        promote(set, victim);
        return entry(set, victim);
    }

    /** Drop @p a if present. Returns true if it was present. */
    bool
    invalidate(Addr a)
    {
        const Addr line = lineAlign(a);
        std::byte *set = setOf(line);
        if (!set)
            return false;
        const std::size_t w = wayOf(set, line);
        if (w == _ways)
            return false;
        release(set, w);
        return true;
    }

    /** Visit every valid line in set-index, then way, order:
     *  fn(addr, payload). */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        forEachValid([&](std::byte *set, std::size_t w) {
            fn(tags(set)[w], *entry(set, w));
        });
    }

    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        forEachValid([&](std::byte *set, std::size_t w) {
            fn(tags(set)[w], std::as_const(*entry(set, w)));
        });
    }

    /** Visit the valid lines of the set @p a maps to, in way order:
     *  fn(addr, const payload). */
    template <typename Fn>
    void
    forEachInSet(Addr a, Fn &&fn) const
    {
        std::byte *set = setOf(lineAlign(a));
        if (!set)
            return;
        const Addr *tag = tags(set);
        for (std::size_t w = 0; w < _ways; ++w) {
            if (tag[w] != invalidAddr)
                fn(tag[w], std::as_const(*entry(set, w)));
        }
    }

    /** Number of valid lines in the set @p a maps to. */
    std::size_t
    setOccupancy(Addr a) const
    {
        std::byte *set = setOf(lineAlign(a));
        if (!set)
            return 0;
        const Addr *tag = tags(set);
        std::size_t n = 0;
        for (std::size_t w = 0; w < _ways; ++w)
            n += tag[w] != invalidAddr ? 1 : 0;
        return n;
    }

    /** Number of valid lines. */
    std::size_t
    occupancy() const
    {
        std::size_t n = 0;
        forEachValid([&](std::byte *, std::size_t) { ++n; });
        return n;
    }

    /** Drop everything (materialized sets keep their storage). */
    void
    clear()
    {
        forEachValid([this](std::byte *set, std::size_t w) {
            release(set, w);
        });
    }

  private:
    /** Slabs double in sets up to this many. */
    static constexpr std::size_t maxSlabSets = 64;
    static constexpr unsigned maxSlabSetsLog2 = std::countr_zero(maxSlabSets);

    /** Is callable type @p F a nullptr placeholder? */
    template <typename F>
    static constexpr bool isNull =
        std::is_null_pointer_v<std::remove_cvref_t<F>>;

    static constexpr std::size_t
    roundUp(std::size_t n, std::size_t align)
    {
        return (n + align - 1) / align * align;
    }

    /** Set of line address @p line: shift and mask, except for a
     *  set count that is not a power of two (Figure 8's 2128-set
     *  equal-area L2), which keeps the modulo. */
    std::size_t
    setIndex(Addr line) const
    {
        const Addr n = line >> _lineShift;
        if (_setsPow2)
            return static_cast<std::size_t>(n & _setMask);
        return static_cast<std::size_t>(n % _numSets);
    }

    /** @name A set's storage: tag row, rank row, then payloads. */
    /** @{ */
    static Addr *
    tags(std::byte *set)
    {
        return std::launder(reinterpret_cast<Addr *>(set));
    }
    std::uint8_t *
    ranks(std::byte *set) const
    {
        return std::launder(
            reinterpret_cast<std::uint8_t *>(set + _ways * sizeof(Addr)));
    }
    /** Way @p w's payload; alive only while its tag is valid. */
    EntryT *
    entry(std::byte *set, std::size_t w) const
    {
        return std::launder(
            reinterpret_cast<EntryT *>(set + _dataOffset) + w);
    }
    /** @} */

    /**
     * Storage of the set with first-touch ordinal @p ord (1-based).
     * Slabs hold 1, 1, 2, 4, ..., 64 sets, then 64 each (only the last
     * may be cut short), so the set materialized p-th, p = ord - 1,
     * lies in slab bit_width(p) at p with its top bit cleared while
     * p < 64, and in slab 6 + p / 64 at p % 64 after that.
     */
    std::byte *
    setAt(std::uint16_t ord) const
    {
        const std::size_t p = ord - 1;
        std::size_t slab;
        std::size_t first; // position of the slab's first set
        if (p < maxSlabSets) {
            slab = static_cast<std::size_t>(std::bit_width(p));
            first = std::size_t{1} << slab >> 1;
        } else {
            slab = maxSlabSetsLog2 + p / maxSlabSets;
            first = p & ~(maxSlabSets - 1);
        }
        return _slabs[slab].get() + (p - first) * _setBytes;
    }

    /** Storage of the set @p line maps to, or null while untouched. */
    std::byte *
    setOf(Addr line) const
    {
        const std::uint16_t ord = _sets[setIndex(line)];
        return ord ? setAt(ord) : nullptr;
    }

    /** Way holding @p line in @p set, or _ways if none does. */
    std::size_t
    wayOf(std::byte *set, Addr line) const
    {
        const Addr *tag = tags(set);
        std::size_t w = 0;
        while (w < _ways && tag[w] != line)
            ++w;
        return w;
    }

    /** Give set @p s storage: the next set in the newest slab, with
     *  every way empty and ranked by index. */
    std::byte *
    materialize(std::size_t s)
    {
        if (_slabUsed == _slabSets) {
            // Doubling keeps sparse arrays small and dense ones to
            // few allocations. Only the last slab can be cut short,
            // so setAt()'s arithmetic holds.
            _slabSets = std::min({std::max<std::size_t>(_materialized, 1),
                                  maxSlabSets, _numSets - _materialized});
            _slabs.push_back(std::make_unique_for_overwrite<std::byte[]>(
                _slabSets * _setBytes));
            _slabUsed = 0;
        }
        std::byte *set = _slabs.back().get() + _slabUsed++ * _setBytes;
        std::fill_n(tags(set), _ways, invalidAddr);
        std::uint8_t *rank = ranks(set);
        for (std::size_t w = 0; w < _ways; ++w)
            rank[w] = static_cast<std::uint8_t>(w);
        _sets[s] = static_cast<std::uint16_t>(++_materialized);
        return set;
    }

    /** Make way @p w of @p set the most recently used: every way
     *  ranked above it moves down one. */
    void
    promote(std::byte *set, std::size_t w)
    {
        std::uint8_t *rank = ranks(set);
        const std::uint8_t r = rank[w];
        if (r == 0)
            return;
        for (std::size_t v = 0; v < _ways; ++v)
            rank[v] += rank[v] < r ? 1 : 0;
        rank[w] = 0;
    }

    /** End a valid way's payload and mark the way empty. */
    void
    release(std::byte *set, std::size_t w)
    {
        entry(set, w)->~EntryT();
        tags(set)[w] = invalidAddr;
    }

    /** fn(set, way) for every valid way, in set-index then way order. */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (const std::uint16_t ord : _sets) {
            if (!ord)
                continue;
            std::byte *set = setAt(ord);
            const Addr *tag = tags(set);
            for (std::size_t w = 0; w < _ways; ++w) {
                if (tag[w] != invalidAddr)
                    fn(set, w);
            }
        }
    }

    /** Victim way among the valid ways of full @p set, or _ways if
     *  none may be evicted. */
    template <typename CanEvict>
    std::size_t
    pickVictim(std::byte *set, CanEvict &can_evict)
    {
        const auto evictable = [&](std::size_t w) -> bool {
            if constexpr (isNull<CanEvict>)
                return true;
            else
                return can_evict(tags(set)[w], *entry(set, w));
        };
        if (_policy == ReplPolicy::Random) {
            // Random: up to `ways` probes starting at a random way.
            const std::size_t start = _rng.below(_ways);
            for (std::size_t i = 0, w = start; i < _ways; ++i) {
                if (evictable(w))
                    return w;
                if (++w == _ways)
                    w = 0;
            }
            return _ways;
        }
        // LRU: a full set's ways have all been touched, so their ranks
        // order them by last touch.
        const std::uint8_t *rank = ranks(set);
        std::size_t best = _ways;
        for (std::size_t w = 0; w < _ways; ++w) {
            if (!evictable(w))
                continue;
            if (best == _ways || rank[w] > rank[best])
                best = w;
        }
        return best;
    }

    std::string _name;
    std::size_t _numSets;
    std::size_t _ways;
    std::uint32_t _lineBytes;
    unsigned _lineShift; ///< log2(_lineBytes)
    std::size_t _setMask; ///< _numSets - 1 (used when _setsPow2)
    bool _setsPow2;
    ReplPolicy _policy;
    Rng _rng;
    std::size_t _dataOffset; ///< payloads' offset in a set's storage
    std::size_t _setBytes;   ///< storage one set takes in a slab
    /** Per set: its first-touch ordinal, or 0 while never allocated. */
    std::vector<std::uint16_t> _sets;
    /** Append-only storage; sets are packed in first-touch order. */
    std::vector<std::unique_ptr<std::byte[]>> _slabs;
    std::size_t _slabSets = 0; ///< sets the newest slab holds
    std::size_t _slabUsed = 0; ///< of which materialized
    std::size_t _materialized = 0;
};

} // namespace pcsim

#endif // PCSIM_CACHE_CACHE_ARRAY_HH

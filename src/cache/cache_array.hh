/**
 * @file
 * Generic set-associative cache array.
 *
 * Stores user-defined per-line payloads and manages tags, validity and
 * replacement (LRU or random). The line size must be a power of two;
 * the number of sets need not be, which lets us model the "equal
 * silicon area" 1.04 MB L2 of Figure 8 exactly. Lines align by mask
 * and power-of-two set counts index by shift and mask; only other set
 * counts pay a division (DESIGN.md, "Hot-path data structures").
 *
 * Memory follows the sets a run touches, not the modelled capacity: a
 * set takes storage on its first allocate() (DESIGN.md, "Per-node
 * state on first touch").
 */

#ifndef PCSIM_CACHE_CACHE_ARRAY_HH
#define PCSIM_CACHE_CACHE_ARRAY_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
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

/**
 * Set-associative array of EntryT payloads indexed by line address.
 *
 * EntryT is any default-constructible struct; the array adds tag,
 * valid bit and recency. Addresses passed in are byte addresses and
 * are aligned internally to the line size.
 *
 * Storage is materialized per set on first allocate(): a per-set
 * index (null = never allocated) points at the set's ways in
 * append-only slabs, packed in first-touch order. Lookups on an
 * untouched set return null and allocate nothing; payload pointers
 * stay valid until their line leaves. A payload lives exactly while
 * its line is valid: allocate() constructs it, and invalidation,
 * eviction, clear() and destruction end it.
 */
template <typename EntryT>
class CacheArray
{
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
          _sets(num_sets, nullptr)
    {
        if (num_sets == 0 || ways == 0 || line_bytes == 0)
            fatal("%s: bad cache geometry", _name.c_str());
        if (!isPowerOfTwo(line_bytes))
            fatal("%s: line size %u is not a power of two", _name.c_str(),
                  line_bytes);
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
        Slot *slot = findSlot(lineAlign(a));
        if (!slot)
            return nullptr;
        if (touch)
            slot->lastUse = ++_useClock;
        return &slot->data;
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
        Slot *set = _sets[s] ? _sets[s] : materialize(s);
        // A hit wins; otherwise prefer the first invalid slot.
        Slot *victim = nullptr;
        for (std::size_t w = 0; w < _ways; ++w) {
            if (!set[w].valid) {
                if (!victim)
                    victim = &set[w];
            } else if (set[w].addr == line) {
                set[w].lastUse = ++_useClock;
                return &set[w].data;
            }
        }
        if (!victim) {
            victim = pickVictim(set, can_evict);
            if (!victim)
                return nullptr;
            if constexpr (!isNull<OnEvict>)
                on_evict(victim->addr, victim->data);
            // The callback may already have invalidated the victim.
            if (victim->valid)
                release(*victim);
        }
        ::new (static_cast<void *>(&victim->data)) EntryT{};
        victim->valid = true;
        victim->addr = line;
        victim->lastUse = ++_useClock;
        return &victim->data;
    }

    /** Drop @p a if present. Returns true if it was present. */
    bool
    invalidate(Addr a)
    {
        Slot *slot = findSlot(lineAlign(a));
        if (!slot)
            return false;
        release(*slot);
        return true;
    }

    /** Visit every valid line in set-index, then way, order:
     *  fn(addr, payload). */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        forEachValid([&](Slot &s) { fn(s.addr, s.data); });
    }

    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        forEachValid([&](const Slot &s) { fn(s.addr, s.data); });
    }

    /** Visit the valid lines of the set @p a maps to, in way order:
     *  fn(addr, const payload). */
    template <typename Fn>
    void
    forEachInSet(Addr a, Fn &&fn) const
    {
        const Slot *set = _sets[setIndex(lineAlign(a))];
        if (!set)
            return;
        for (std::size_t w = 0; w < _ways; ++w) {
            if (set[w].valid)
                fn(set[w].addr, set[w].data);
        }
    }

    /** Number of valid lines in the set @p a maps to. */
    std::size_t
    setOccupancy(Addr a) const
    {
        const Slot *set = _sets[setIndex(lineAlign(a))];
        if (!set)
            return 0;
        std::size_t n = 0;
        for (std::size_t w = 0; w < _ways; ++w)
            n += set[w].valid ? 1 : 0;
        return n;
    }

    /** Number of valid lines. */
    std::size_t
    occupancy() const
    {
        std::size_t n = 0;
        forEachValid([&](const Slot &) { ++n; });
        return n;
    }

    /** Drop everything (materialized sets keep their storage). */
    void
    clear()
    {
        forEachValid([](Slot &s) { release(s); });
    }

  private:
    /** A slot: management bits plus the user payload. */
    struct Slot
    {
        Slot() {}
        ~Slot()
        {
            if (valid)
                data.~EntryT();
        }
        Slot(const Slot &) = delete;
        Slot &operator=(const Slot &) = delete;

        bool valid = false;
        Addr addr = invalidAddr; ///< line-aligned address
        std::uint64_t lastUse = 0;
        /** Constructed exactly while @c valid. */
        union
        {
            EntryT data;
        };
    };

    /** Slabs double in sets up to this many. */
    static constexpr std::size_t maxSlabSets = 64;

    /** Is callable type @p F a nullptr placeholder? */
    template <typename F>
    static constexpr bool isNull =
        std::is_null_pointer_v<std::remove_cvref_t<F>>;

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

    /** Give set @p s storage: the next ways in the newest slab. */
    Slot *
    materialize(std::size_t s)
    {
        if (_slabUsed == _slabSets) {
            // Doubling keeps sparse arrays small and dense ones to
            // few allocations.
            _slabSets = std::min({std::max<std::size_t>(_materialized, 1),
                                  maxSlabSets, _numSets - _materialized});
            _slabs.push_back(std::make_unique<Slot[]>(_slabSets * _ways));
            _slabUsed = 0;
        }
        ++_materialized;
        _sets[s] = _slabs.back().get() + _slabUsed++ * _ways;
        return _sets[s];
    }

    Slot *
    findSlot(Addr line)
    {
        Slot *set = _sets[setIndex(line)];
        if (!set)
            return nullptr;
        for (std::size_t w = 0; w < _ways; ++w) {
            if (set[w].valid && set[w].addr == line)
                return &set[w];
        }
        return nullptr;
    }

    /** End a valid slot's payload and free the way. */
    static void
    release(Slot &s)
    {
        s.data.~EntryT();
        s.valid = false;
        s.addr = invalidAddr;
    }

    /** fn(slot) for every valid slot, in set-index then way order. */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (Slot *set : _sets) {
            if (!set)
                continue;
            for (std::size_t w = 0; w < _ways; ++w) {
                if (set[w].valid)
                    fn(set[w]);
            }
        }
    }

    template <typename CanEvict>
    Slot *
    pickVictim(Slot *set, CanEvict &can_evict)
    {
        const auto evictable = [&](const Slot *s) -> bool {
            if constexpr (isNull<CanEvict>)
                return true;
            else
                return can_evict(s->addr, s->data);
        };
        if (_policy == ReplPolicy::Random) {
            // Random: up to `ways` probes starting at a random way.
            const std::size_t start = _rng.below(_ways);
            for (std::size_t i = 0, w = start; i < _ways; ++i) {
                if (evictable(&set[w]))
                    return &set[w];
                if (++w == _ways)
                    w = 0;
            }
            return nullptr;
        }
        // LRU.
        Slot *best = nullptr;
        for (std::size_t w = 0; w < _ways; ++w) {
            Slot *s = &set[w];
            if (!evictable(s))
                continue;
            if (!best || s->lastUse < best->lastUse)
                best = s;
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
    /** Per set: its first way, or null while never allocated. */
    std::vector<Slot *> _sets;
    /** Append-only storage; sets are packed in first-touch order. */
    std::vector<std::unique_ptr<Slot[]>> _slabs;
    std::size_t _slabSets = 0; ///< sets the newest slab holds
    std::size_t _slabUsed = 0; ///< of which materialized
    std::size_t _materialized = 0;
    std::uint64_t _useClock = 0;
};

} // namespace pcsim

#endif // PCSIM_CACHE_CACHE_ARRAY_HH

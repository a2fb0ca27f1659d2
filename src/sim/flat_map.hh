/**
 * @file
 * Open-addressed hash map for the simulator's integer-keyed tables.
 *
 * FlatMap keeps (key, value) slots in one power-of-two array: a
 * multiplicative (Fibonacci) hash picks the home slot, collisions
 * probe linearly, and erase shifts the rest of the probe run back
 * instead of leaving tombstones, so lookups never scan dead slots.
 * Indexing is a multiply and a shift -- no division, no per-node
 * allocation (DESIGN.md, "Hot-path data structures").
 *
 * Nothing is allocated until the first insert, and the const
 * operations (find, size, forEach) never write.
 *
 * Iteration follows slot order, which depends only on the sequence
 * of inserts and erases; callers that need a content order sort.
 */

#ifndef PCSIM_SIM_FLAT_MAP_HH
#define PCSIM_SIM_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

namespace pcsim
{

template <typename K, typename V>
class FlatMap
{
    static_assert(std::is_unsigned_v<K> && sizeof(K) <= 8,
                  "FlatMap keys are unsigned integers");

  public:
    FlatMap() = default;
    FlatMap(const FlatMap &) = delete;
    FlatMap &operator=(const FlatMap &) = delete;

    std::size_t size() const { return _size; }
    /** Slots allocated (0 until the first insert). */
    std::size_t capacity() const { return _mask ? _mask + 1 : 0; }

    V *
    find(K key)
    {
        const std::size_t i = slotOf(key);
        return i == npos ? nullptr : &_slots[i].value;
    }

    const V *
    find(K key) const
    {
        const std::size_t i = slotOf(key);
        return i == npos ? nullptr : &_slots[i].value;
    }

    /** Slot where @p key's probe run starts (needs capacity() > 0);
     *  lets tests build colliding keys. */
    std::size_t homeSlot(K key) const { return home(key); }

    /** Insert (key, @p value) unless @p key is present. Returns the
     *  stored value and whether it was inserted. */
    std::pair<V *, bool>
    tryEmplace(K key, V value = V{})
    {
        if (_mask) {
            for (std::size_t i = home(key);; i = (i + 1) & _mask) {
                Slot &s = _slots[i];
                if (!s.full)
                    break;
                if (s.key == key)
                    return {&s.value, false};
            }
        }
        if ((_size + 1) * 4 > capacity() * 3)
            grow();
        Slot &s = _slots[freeSlot(key)];
        s.full = true;
        s.key = key;
        s.value = std::move(value);
        ++_size;
        return {&s.value, true};
    }

    /** The value of @p key, default-inserted if absent. */
    V &operator[](K key) { return *tryEmplace(key).first; }

    /** Remove @p key. Returns true if it was present. */
    bool
    erase(K key)
    {
        std::size_t hole = slotOf(key);
        if (hole == npos)
            return false;
        // Backward shift: pull each later member of the probe run
        // whose home does not lie in (hole, j] into the hole.
        for (std::size_t j = (hole + 1) & _mask; _slots[j].full;
             j = (j + 1) & _mask) {
            const std::size_t h = home(_slots[j].key);
            if (((j - h) & _mask) >= ((j - hole) & _mask)) {
                _slots[hole].key = _slots[j].key;
                _slots[hole].value = std::move(_slots[j].value);
                hole = j;
            }
        }
        _slots[hole].full = false;
        _slots[hole].value = V{};
        --_size;
        return true;
    }

    /** fn(key, value) for every entry, in slot order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < capacity(); ++i) {
            if (_slots[i].full)
                fn(_slots[i].key, _slots[i].value);
        }
    }

  private:
    struct Slot
    {
        K key = 0;
        bool full = false;
        V value{};
    };

    static constexpr std::size_t npos = ~std::size_t{0};
    static constexpr std::size_t initialSlots = 8;

    /** Fibonacci hashing: the top bits of key * 2^64/phi. */
    std::size_t
    home(K key) const
    {
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ull) >>
            _shift);
    }

    std::size_t
    slotOf(K key) const
    {
        if (!_mask)
            return npos;
        for (std::size_t i = home(key);; i = (i + 1) & _mask) {
            const Slot &s = _slots[i];
            if (!s.full)
                return npos;
            if (s.key == key)
                return i;
        }
    }

    /** First empty slot on @p key's probe run (key must be absent). */
    std::size_t
    freeSlot(K key) const
    {
        std::size_t i = home(key);
        while (_slots[i].full)
            i = (i + 1) & _mask;
        return i;
    }

    void
    grow()
    {
        const std::size_t old_cap = capacity();
        const std::size_t cap = old_cap ? 2 * old_cap : initialSlots;
        std::unique_ptr<Slot[]> old = std::move(_slots);
        _slots = std::make_unique<Slot[]>(cap);
        _mask = cap - 1;
        _shift = 64;
        for (std::size_t c = cap; c > 1; c >>= 1)
            --_shift;
        for (std::size_t i = 0; i < old_cap; ++i) {
            if (old[i].full)
                _slots[freeSlot(old[i].key)] = std::move(old[i]);
        }
    }

    std::unique_ptr<Slot[]> _slots;
    std::size_t _mask = 0; ///< capacity - 1, or 0 while unallocated
    unsigned _shift = 64;  ///< 64 - log2(capacity)
    std::size_t _size = 0;
};

} // namespace pcsim

#endif // PCSIM_SIM_FLAT_MAP_HH

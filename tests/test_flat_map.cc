/** @file FlatMap (src/sim/flat_map.hh): open addressing with linear
 *  probing and backward-shift erase, checked against
 *  std::unordered_map, plus its no-allocation-until-insert contract. */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <unordered_map>
#include <vector>

#include "src/sim/flat_map.hh"
#include "src/sim/random.hh"
#include "src/sim/types.hh"

namespace
{
std::atomic<std::uint64_t> g_allocs{0};
} // namespace

void *
operator new(std::size_t n)
{
    ++g_allocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

// Array forms too: sanitizer runtimes replace them separately. The
// deletes stay out of line so the compiler never sees free() meet a
// pointer from operator new at an inlined call site.
void *operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void operator delete(void *p) noexcept { std::free(p); }
[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
[[gnu::noinline]] void operator delete[](void *p) noexcept { std::free(p); }
[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace pcsim;

namespace
{

/** Every reference entry is found with its value, and nothing else
 *  is counted. */
void
expectSame(const FlatMap<Addr, std::uint64_t> &m,
           const std::unordered_map<Addr, std::uint64_t> &ref)
{
    ASSERT_EQ(m.size(), ref.size());
    for (const auto &[k, v] : ref) {
        const std::uint64_t *got = m.find(k);
        ASSERT_NE(got, nullptr) << "key " << k;
        EXPECT_EQ(*got, v) << "key " << k;
    }
    std::size_t visited = 0;
    m.forEach([&](Addr k, std::uint64_t v) {
        ++visited;
        auto it = ref.find(k);
        ASSERT_NE(it, ref.end()) << "key " << k;
        EXPECT_EQ(it->second, v);
    });
    EXPECT_EQ(visited, ref.size());
}

/** @p n distinct keys whose probe runs start at @p slot of a map with
 *  @p m's current capacity. */
std::vector<Addr>
keysHomedAt(const FlatMap<Addr, std::uint64_t> &m, std::size_t slot,
            std::size_t n, Addr from = 1)
{
    std::vector<Addr> keys;
    for (Addr k = from; keys.size() < n; ++k) {
        if (m.homeSlot(k) == slot)
            keys.push_back(k);
    }
    return keys;
}

} // namespace

TEST(FlatMap, EmptyMapAllocatesNothing)
{
    FlatMap<Addr, std::uint64_t> m;
    const FlatMap<Addr, std::uint64_t> &cm = m;
    const std::uint64_t before = g_allocs.load();
    EXPECT_EQ(m.find(42), nullptr);
    EXPECT_EQ(cm.find(42), nullptr);
    EXPECT_FALSE(m.erase(42));
    cm.forEach([](Addr, std::uint64_t) { FAIL(); });
    EXPECT_EQ(g_allocs.load(), before);
    EXPECT_EQ(m.capacity(), 0u);
    EXPECT_EQ(m.size(), 0u);

    m[7] = 1; // the first insert allocates the slot array
    EXPECT_GT(g_allocs.load(), before);
    EXPECT_GT(m.capacity(), 0u);
}

TEST(FlatMap, TryEmplaceKeepsExistingValue)
{
    FlatMap<Addr, std::uint64_t> m;
    auto [v, inserted] = m.tryEmplace(5, 50);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*v, 50u);
    auto [w, again] = m.tryEmplace(5, 99);
    EXPECT_FALSE(again);
    EXPECT_EQ(w, v);
    EXPECT_EQ(*w, 50u);
    ++m[5];
    EXPECT_EQ(*m.find(5), 51u);
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, CollidingKeysStayReachableThroughErase)
{
    FlatMap<Addr, std::uint64_t> m;
    m[0] = 0; // allocate, so home slots are defined
    const std::size_t cap = m.capacity();
    ASSERT_TRUE(m.erase(0));

    // Four keys homed at one slot form a single probe run.
    const std::vector<Addr> same = keysHomedAt(m, 2, 4);
    for (Addr k : same)
        m[k] = k * 10;
    ASSERT_EQ(m.capacity(), cap); // no growth yet
    // Erase from the middle of the run: the rest must shift back.
    ASSERT_TRUE(m.erase(same[1]));
    EXPECT_EQ(m.find(same[1]), nullptr);
    for (Addr k : {same[0], same[2], same[3]})
        ASSERT_NE(m.find(k), nullptr) << "key " << k;
    ASSERT_TRUE(m.erase(same[0]));
    EXPECT_EQ(*m.find(same[2]), same[2] * 10);
    EXPECT_EQ(*m.find(same[3]), same[3] * 10);
    EXPECT_FALSE(m.erase(same[0]));
    EXPECT_EQ(m.size(), 2u);
}

TEST(FlatMap, EraseAcrossWrapAround)
{
    FlatMap<Addr, std::uint64_t> m;
    m[0] = 0;
    const std::size_t last = m.capacity() - 1;
    ASSERT_TRUE(m.erase(0));

    // Three keys homed at the last slot occupy it and wrap into
    // slots 0 and 1; a key homed at slot 0 probes past them.
    const std::vector<Addr> tail = keysHomedAt(m, last, 3);
    const std::vector<Addr> head = keysHomedAt(m, 0, 1);
    std::unordered_map<Addr, std::uint64_t> ref;
    for (Addr k : tail)
        m[k] = ref[k] = k + 1;
    m[head[0]] = ref[head[0]] = 7;
    expectSame(m, ref);

    // Removing the run's first member shifts entries back across the
    // end of the array; removing a wrapped one shifts within slot 0.
    ASSERT_TRUE(m.erase(tail[0]));
    ref.erase(tail[0]);
    expectSame(m, ref);
    ASSERT_TRUE(m.erase(tail[2]));
    ref.erase(tail[2]);
    expectSame(m, ref);
    ASSERT_TRUE(m.erase(tail[1]));
    ref.erase(tail[1]);
    expectSame(m, ref);
}

TEST(FlatMap, GrowsAndKeepsEveryEntry)
{
    FlatMap<Addr, std::uint64_t> m;
    std::unordered_map<Addr, std::uint64_t> ref;
    std::size_t cap = 0;
    unsigned growths = 0;
    for (Addr k = 0; k < 5000; ++k) {
        m[k * 4096] = ref[k * 4096] = k; // page-like strides
        if (m.capacity() != cap) {
            ++growths;
            cap = m.capacity();
            expectSame(m, ref);
        }
        // Load stays at or below three quarters.
        ASSERT_LE(m.size() * 4, m.capacity() * 3);
    }
    EXPECT_GE(growths, 10u);
    expectSame(m, ref);
}

TEST(FlatMap, MatchesUnorderedMapOnRandomOperations)
{
    // 200k seeded insert / update / find / erase operations over a
    // key space small enough for heavy churn and collisions.
    Rng rng(2007);
    FlatMap<Addr, std::uint64_t> m;
    std::unordered_map<Addr, std::uint64_t> ref;
    for (unsigned op = 0; op < 200000; ++op) {
        const Addr key = rng.below(4096) * 128; // line-aligned keys
        switch (rng.below(4)) {
          case 0:
          case 1: {
            const std::uint64_t v = rng.below(1u << 30);
            auto [p, inserted] = m.tryEmplace(key, v);
            auto [it, ref_inserted] = ref.try_emplace(key, v);
            ASSERT_EQ(inserted, ref_inserted);
            ASSERT_EQ(*p, it->second);
            ++*p;
            ++it->second;
            break;
          }
          case 2: {
            const std::uint64_t *p = m.find(key);
            auto it = ref.find(key);
            ASSERT_EQ(p != nullptr, it != ref.end());
            if (p) {
                ASSERT_EQ(*p, it->second);
            }
            break;
          }
          default:
            ASSERT_EQ(m.erase(key), ref.erase(key) == 1);
            break;
        }
        ASSERT_EQ(m.size(), ref.size());
        if (op % 20000 == 0)
            expectSame(m, ref);
    }
    expectSame(m, ref);
}

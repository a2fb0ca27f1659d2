/** @file Set-associative cache array tests. */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/cache/cache_array.hh"

using namespace pcsim;

namespace
{

struct Payload
{
    int value = 0;
    bool pinned = false;
};

CacheArray<Payload>
makeArray(std::size_t sets = 4, std::size_t ways = 2,
          ReplPolicy pol = ReplPolicy::LRU)
{
    return CacheArray<Payload>("test", sets, ways, 128, pol, Rng(1));
}

} // namespace

TEST(CacheArray, MissThenHit)
{
    auto c = makeArray();
    EXPECT_EQ(c.find(0x1000), nullptr);
    Payload *p = c.allocate(0x1000);
    ASSERT_NE(p, nullptr);
    p->value = 7;
    EXPECT_EQ(c.find(0x1000)->value, 7);
}

TEST(CacheArray, LineAlignment)
{
    auto c = makeArray();
    c.allocate(0x1000)->value = 7;
    // Any address within the same 128 B line hits.
    EXPECT_NE(c.find(0x1000 + 127), nullptr);
    EXPECT_EQ(c.find(0x1000 + 128), nullptr);
}

TEST(CacheArray, AllocateExistingReturnsSameSlot)
{
    auto c = makeArray();
    Payload *a = c.allocate(0x1000);
    a->value = 3;
    Payload *b = c.allocate(0x1000);
    EXPECT_EQ(b->value, 3);
}

TEST(CacheArray, LruEvictsLeastRecentlyUsed)
{
    auto c = makeArray(/*sets=*/1, /*ways=*/2);
    c.allocate(c.lineAlign(0 * 128));
    c.allocate(c.lineAlign(1 * 128));
    c.find(0); // touch line 0; line 1 becomes LRU
    Addr evicted = invalidAddr;
    c.allocate(2 * 128, nullptr,
               [&](Addr a, Payload &) { evicted = a; });
    EXPECT_EQ(evicted, 128u);
    EXPECT_NE(c.find(0), nullptr);
    EXPECT_EQ(c.find(128), nullptr);
}

TEST(CacheArray, CanEvictPredicateProtectsPinned)
{
    auto c = makeArray(1, 2);
    c.allocate(0)->pinned = true;
    c.allocate(128)->pinned = true;
    Payload *p = c.allocate(
        256, [](Addr, const Payload &v) { return !v.pinned; });
    EXPECT_EQ(p, nullptr); // set wedged: nothing evictable
    c.find(0, false)->pinned = false;
    p = c.allocate(256,
                   [](Addr, const Payload &v) { return !v.pinned; });
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(c.find(0), nullptr); // the unpinned one was displaced
    EXPECT_NE(c.find(128), nullptr);
}

TEST(CacheArray, InvalidateRemoves)
{
    auto c = makeArray();
    c.allocate(0x1000);
    EXPECT_TRUE(c.invalidate(0x1000));
    EXPECT_EQ(c.find(0x1000), nullptr);
    EXPECT_FALSE(c.invalidate(0x1000));
}

TEST(CacheArray, OccupancyAndClear)
{
    auto c = makeArray(4, 2);
    for (int i = 0; i < 5; ++i)
        c.allocate(i * 128);
    EXPECT_EQ(c.occupancy(), 5u);
    c.clear();
    EXPECT_EQ(c.occupancy(), 0u);
}

TEST(CacheArray, ForEachVisitsValidLines)
{
    auto c = makeArray(4, 2);
    c.allocate(0)->value = 1;
    c.allocate(128)->value = 2;
    std::set<Addr> seen;
    c.forEach([&](Addr a, Payload &) { seen.insert(a); });
    EXPECT_EQ(seen, (std::set<Addr>{0, 128}));
}

TEST(CacheArray, NonPowerOfTwoSets)
{
    // Figure 8's 1.04 MB L2 uses a non-power-of-two set count.
    auto c = makeArray(13, 2);
    std::set<Addr> inserted;
    for (int i = 0; i < 26; ++i) {
        ASSERT_NE(c.allocate(i * 128), nullptr);
        inserted.insert(i * 128);
    }
    EXPECT_EQ(c.occupancy(), 26u);
    for (Addr a : inserted)
        EXPECT_NE(c.find(a), nullptr);
}

TEST(CacheArray, SetIndexIsLineNumberModuloSets)
{
    // Power-of-two set counts index by mask, others (Figure 8's 2128
    // sets) by modulo; both must put line n in set n % sets.
    for (std::size_t sets : {1u, 8u, 13u, 2048u, 2128u}) {
        auto c = makeArray(sets, 1);
        const std::vector<Addr> bases = {0, 0x7000'0000'0000ull};
        for (Addr base : bases) {
            for (Addr n = 0; n < 3 * sets; n += 1 + n / 7) {
                const Addr x = base + n * 128 + (n % 128);
                ASSERT_NE(c.allocate(x), nullptr);
                for (Addr m = 0; m < 3 * sets; m += 1 + m / 5) {
                    const Addr y = base + m * 128 + 5;
                    unsigned seen = 0;
                    c.forEachInSet(y, [&](Addr a, const Payload &) {
                        EXPECT_EQ(a, c.lineAlign(x));
                        ++seen;
                    });
                    const Addr line_x = x / 128;
                    const Addr line_y = y / 128;
                    ASSERT_EQ(seen, line_x % sets == line_y % sets ? 1u : 0u)
                        << sets << " sets, lines " << line_x << " and "
                        << line_y;
                }
                ASSERT_TRUE(c.invalidate(x));
            }
        }
    }
}

TEST(CacheArray, CapacityBytes)
{
    auto c = makeArray(8, 4);
    EXPECT_EQ(c.capacityBytes(), 8u * 4 * 128);
}

TEST(CacheArray, RandomPolicyEventuallyEvictsEverything)
{
    auto c = makeArray(1, 4, ReplPolicy::Random);
    for (int i = 0; i < 4; ++i)
        c.allocate(i * 128);
    std::set<Addr> victims;
    for (int i = 4; i < 200; ++i) {
        c.allocate(i * 128, nullptr,
                   [&](Addr a, Payload &) { victims.insert(a); });
    }
    // Random replacement should have displaced many distinct lines.
    EXPECT_GT(victims.size(), 50u);
}

// Property sweep: fills never exceed capacity and hits always return
// the last written payload, across geometries.
class CacheArrayGeometry
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(CacheArrayGeometry, FillAndProbe)
{
    const auto [sets, ways] = GetParam();
    CacheArray<Payload> c("geom", sets, ways, 128, ReplPolicy::LRU,
                          Rng(3));
    const int lines = sets * ways * 3;
    for (int i = 0; i < lines; ++i) {
        Payload *p = c.allocate(i * 128);
        ASSERT_NE(p, nullptr);
        p->value = i;
        ASSERT_LE(c.occupancy(), static_cast<std::size_t>(sets * ways));
        Payload *hit = c.find(i * 128);
        ASSERT_NE(hit, nullptr);
        EXPECT_EQ(hit->value, i);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheArrayGeometry,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(1, 4),
                      std::make_tuple(8, 2), std::make_tuple(13, 4),
                      std::make_tuple(64, 4), std::make_tuple(256, 8)));

// ---- Storage materialized per set on first allocate() ----

TEST(CacheArrayStorage, ProbesOfUntouchedSetsAllocateNothing)
{
    auto c = makeArray(8, 2);
    const auto &cc = c;
    EXPECT_EQ(c.materializedSets(), 0u);
    for (Addr a = 0; a < 8 * 128; a += 128) {
        EXPECT_EQ(c.find(a), nullptr);
        EXPECT_EQ(c.find(a, false), nullptr);
        EXPECT_EQ(cc.find(a), nullptr);
        EXPECT_FALSE(c.invalidate(a));
        EXPECT_EQ(c.setOccupancy(a), 0u);
    }
    EXPECT_EQ(c.occupancy(), 0u);
    EXPECT_EQ(c.materializedSets(), 0u);

    c.allocate(3 * 128);
    EXPECT_EQ(c.materializedSets(), 1u);
    c.allocate(3 * 128 + 8 * 128); // same set, second way
    EXPECT_EQ(c.materializedSets(), 1u);
    EXPECT_EQ(c.setOccupancy(3 * 128), 2u);
    EXPECT_EQ(c.setOccupancy(4 * 128), 0u);
    EXPECT_EQ(c.occupancy(), 2u);
}

TEST(CacheArrayStorage, ForEachRunsInSetThenWayOrder)
{
    auto c = makeArray(4, 2);
    // Touch set 3, then 0, then 2: first-touch order differs from
    // set-index order.
    c.allocate(3 * 128);
    c.allocate(0 * 128);
    c.allocate(2 * 128);
    c.allocate(4 * 128); // set 0, way 1
    std::vector<Addr> seen;
    c.forEach([&](Addr a, Payload &) { seen.push_back(a); });
    EXPECT_EQ(seen, (std::vector<Addr>{0, 4 * 128, 2 * 128, 3 * 128}));

    // A way freed in set 0 is refilled in place: way order holds.
    c.invalidate(0);
    c.allocate(8 * 128);
    seen.clear();
    const auto &cc = c;
    cc.forEach([&](Addr a, const Payload &) { seen.push_back(a); });
    EXPECT_EQ(seen, (std::vector<Addr>{8 * 128, 4 * 128, 2 * 128, 3 * 128}));

    seen.clear();
    c.forEachInSet(0, [&](Addr a, const Payload &) { seen.push_back(a); });
    EXPECT_EQ(seen, (std::vector<Addr>{8 * 128, 4 * 128}));
    seen.clear();
    c.forEachInSet(1 * 128,
                   [&](Addr a, const Payload &) { seen.push_back(a); });
    EXPECT_TRUE(seen.empty());
}

TEST(CacheArrayStorage, PayloadPointersSurviveOtherSetsMaterializing)
{
    auto c = makeArray(512, 4);
    Payload *first = c.allocate(0);
    first->value = 42;
    // Touch every other set, several slabs' worth.
    for (Addr s = 1; s < 512; ++s)
        c.allocate(s * 128)->value = static_cast<int>(s);
    EXPECT_EQ(c.materializedSets(), 512u);
    EXPECT_EQ(c.find(0), first);
    EXPECT_EQ(first->value, 42);
    for (Addr s = 1; s < 512; ++s)
        EXPECT_EQ(c.find(s * 128)->value, static_cast<int>(s));
}

namespace
{

/** Records every construction and destruction by instance id. */
struct Counted
{
    static inline int nextId = 0;
    static inline std::vector<int> destroyed;
    static inline int live = 0;

    Counted() : id(nextId++) { ++live; }
    Counted(const Counted &) = delete;
    Counted &operator=(const Counted &) = delete;
    ~Counted()
    {
        --live;
        destroyed.push_back(id);
    }

    int id;
};

} // namespace

TEST(CacheArrayStorage, EachPayloadIsDestroyedExactlyOnce)
{
    Counted::nextId = 0;
    Counted::destroyed.clear();
    Counted::live = 0;
    {
        CacheArray<Counted> c("counted", 2, 2, 128, ReplPolicy::LRU,
                              Rng(1));
        c.allocate(0);       // id 0, set 0
        c.allocate(2 * 128); // id 1, set 0
        c.allocate(1 * 128); // id 2, set 1
        EXPECT_EQ(Counted::live, 3);
        EXPECT_TRUE(Counted::destroyed.empty());

        EXPECT_TRUE(c.invalidate(1 * 128));
        EXPECT_EQ(Counted::destroyed, (std::vector<int>{2}));

        // Set 0 is full: the LRU line (id 0) is evicted.
        int evicted = -1;
        c.allocate(4 * 128, nullptr,
                   [&](Addr, Counted &v) { evicted = v.id; });
        EXPECT_EQ(evicted, 0);
        EXPECT_EQ(Counted::destroyed, (std::vector<int>{2, 0}));
        EXPECT_EQ(Counted::live, 2);

        // An eviction callback that invalidates its own victim (as
        // producer-table undelegation does) still ends it only once.
        c.allocate(6 * 128, nullptr,
                   [&](Addr a, Counted &) { c.invalidate(a); });
        EXPECT_EQ(Counted::destroyed, (std::vector<int>{2, 0, 1}));

        c.clear();
        EXPECT_EQ(Counted::live, 0);
        c.allocate(3 * 128); // id 5
        EXPECT_EQ(Counted::live, 1);
    }
    EXPECT_EQ(Counted::live, 0);
    std::vector<int> ids = Counted::destroyed;
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(CacheArrayStorage, RandomVictimsMatchTheDenseArray)
{
    // Victims the dense (fully pre-built) array chose for this exact
    // sequence: materializing sets on first touch must not change the
    // replacement draws.
    CacheArray<Payload> c("rand", 4, 4, 128, ReplPolicy::Random, Rng(5));
    std::vector<Addr> victims;
    for (int i = 0; i < 48; ++i) {
        // Lines scattered over the sets, set 3 touched first.
        const Addr a = static_cast<Addr>((i * 7 + 3) % 32) * 128;
        c.allocate(
            a, [](Addr v, const Payload &) { return (v / 128) % 3 != 0; },
            [&](Addr v, Payload &) { victims.push_back(v / 128); });
    }
    EXPECT_EQ(victims,
              (std::vector<Addr>{31, 2, 5, 20, 23, 10, 1, 8, 19, 26, 29, 4,
                                 11, 22, 25, 16, 14, 7, 28, 10, 20, 31, 17}));
}

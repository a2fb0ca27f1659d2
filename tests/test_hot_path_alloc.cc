/**
 * @file
 * Hot-path allocation budget: once a machine is built, simulating it
 * must not touch the heap per access or per message (DESIGN.md,
 * "Hot-path data structures"). The test counts global operator new
 * calls made during System::run -- event callbacks, MSHRs, messages,
 * arrival filing, tombstones, completion continuations -- and allows
 * fewer than one per thousand executed events. Node-based hash tables
 * or a type-erased callback on the access path cost about one
 * allocation every three events.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/system/presets.hh"
#include "src/system/system.hh"
#include "src/workload/micro.hh"
#include "src/workload/serving.hh"

namespace
{
std::atomic<std::uint64_t> g_allocs{0};
} // namespace

void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
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

/** Run @p wl on @p machine as a timed run would (an unfinished run is
 *  fatal); expect it to stay within the allocation budget. */
void
expectAllocationFree(MachineConfig machine, Workload &wl)
{
    // Validation keeps per-(node, line) history by design; the budget
    // is for the plain simulation path.
    machine.proto.checkerEnabled = false;
    machine.proto.conformanceEnabled = false;
    System sys(machine);
    const std::uint64_t before = g_allocs.load();
    const RunResult r = sys.run(wl);
    const std::uint64_t allocs = g_allocs.load() - before;

    const std::uint64_t events = r.perf.eventsExecuted;
    ASSERT_GT(events, 1000000u);
    EXPECT_LT(allocs * 1000, events)
        << allocs << " allocations over " << events << " events ("
        << double(allocs) / double(events) << " per event)";
}

} // namespace

// First-touch growth -- cache and directory sets materializing, table
// and queue capacity -- is bounded by the working set, not by the run
// length (about 600 allocations for this PCmicro machine, 4500 for
// this KVServe one, at any length). The runs are long enough for it to
// fit the budget twice over; anything per access or per message would
// not.

TEST(HotPathAlloc, PcmicroLargeSixteenNodes)
{
    ProducerConsumerMicro::Params p;
    p.iterations = 1500; // about 1.4M events
    ProducerConsumerMicro wl(16, p);
    expectAllocationFree(presets::large(16), wl);
}

TEST(HotPathAlloc, KvServeBaseSixtyFourNodes)
{
    KvServingWorkload::Params p;
    p.requestsPerNode = 12000; // about 6.9M events
    KvServingWorkload wl(64, p);
    expectAllocationFree(presets::base(64), wl);
}

/**
 * @file
 * A guided tour of the paper's mechanisms on the Figure 1 scenario:
 * one producer, two consumers, home on a third node.
 *
 * Walks through detection, delegation, the delayed intervention and
 * the speculative pushes step by step, printing the directory /
 * delegate-cache / RAC state after each phase.
 */

#include <cstdio>

#include "src/system/presets.hh"
#include "src/system/system.hh"

using namespace pcsim;

namespace
{

System *g_sys;
Addr g_line = 0x70000000ull;

Version
access(unsigned cpu, bool is_write)
{
    Version out = 0;
    bool done = false;
    g_sys->hub(cpu).cpuAccess(is_write, g_line, [&](Version v) {
        out = v;
        done = true;
    });
    g_sys->eventQueue().run();
    if (!done)
        fatal("access did not complete");
    return out;
}

void
show(const char *phase)
{
    const NodeId home = g_sys->memMap().homeOf(g_line);
    DirEntry d = g_sys->hub(home).homeDirEntry(g_line);
    std::printf("\n--- %s ---\n", phase);
    std::printf("  home node %u: state=%s sharers=%s owner=%d "
                "memVersion=%u\n",
                home, dirStateName(d.state), d.sharers.toString().c_str(),
                d.owner == invalidNode ? -1 : int(d.owner),
                d.memVersion);
    for (unsigned n = 0; n < g_sys->numNodes(); ++n) {
        Version v;
        LineState s = g_sys->hub(n).l2State(g_line, v);
        bool pinned = false;
        Version rv = 0;
        const bool rac = g_sys->hub(n).racCopy(g_line, rv, pinned);
        const ProducerEntry *pe = g_sys->hub(n).producerEntry(g_line);
        if (s == LineState::Invalid && !rac && !pe)
            continue;
        std::printf("  node %-2u: L2=%s v=%u", n, lineStateName(s),
                    s == LineState::Invalid ? 0 : v);
        if (rac)
            std::printf("  RAC=v%u%s%s", rv, pinned ? " (pinned)" : "",
                        "");
        if (pe)
            std::printf("  [delegated here: %s, sharers=%s]",
                        dirStateName(pe->dir.state),
                        pe->dir.sharers.toString().c_str());
        std::printf("\n");
    }
}

} // namespace

int
main()
{
    // Full mechanism, eager detector so the tour is short.
    MachineConfig cfg = presets::small(16);
    System sys(cfg);
    g_sys = &sys;

    std::printf("pcsim mechanism tour: producer=node 5, consumers="
                "nodes 9 and 12, home=node 0\n");

    access(0, false); // first touch: node 0 becomes the home
    show("initial read by node 0 (homes the line there)");

    // Three producer/consumer epochs saturate the 2-bit write-repeat
    // counter (Section 2.2).
    for (int epoch = 1; epoch <= 3; ++epoch) {
        access(5, true);
        access(9, false);
        access(12, false);
        char label[64];
        std::snprintf(label, sizeof(label),
                      "epoch %d: node 5 writes, nodes 9/12 read",
                      epoch);
        show(label);
    }

    std::printf("\nWrite-repeat counter is now saturated: the NEXT "
                "write delegates the line (Section 2.3.1).\n");
    access(5, true);
    show("4th write: home delegates to node 5; delayed intervention "
         "fired and pushed updates to the previous sharing vector");

    const Version v9 = access(9, false);
    const Version v12 = access(12, false);
    std::printf("\nconsumer reads: node 9 got v%u, node 12 got v%u -- "
                "both were LOCAL RAC hits (0-hop, Section 2.4)\n", v9,
                v12);
    std::printf("  node 9 local misses: %llu, remote misses: %llu\n",
                (unsigned long long)sys.hub(9).stats().localMisses,
                (unsigned long long)sys.hub(9).stats().remoteMisses);

    access(5, true);
    show("5th write: producer invalidates consumers locally (2-hop), "
         "pushes again after the delayed intervention");

    access(12, true);
    show("node 12 writes: conflicting writer forces undelegation "
         "(reason 3) and takes ownership through the home");

    std::printf("\nfinal stats: delegations=%llu undelegations="
                "%llu updates sent=%llu consumed=%llu\n",
                (unsigned long long)
                    sys.hub(0).stats().delegationsGranted,
                (unsigned long long)
                    sys.hub(5).stats().undelegationsConflict,
                (unsigned long long)sys.hub(5).stats().updatesSent,
                (unsigned long long)(sys.hub(9).stats().updatesConsumed +
                                     sys.hub(12).stats()
                                         .updatesConsumed));
    return 0;
}

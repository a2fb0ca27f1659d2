/**
 * @file
 * Quickstart: build a 16-node machine, run the producer-consumer
 * microbenchmark on the baseline protocol and on the full
 * delegation + speculative-update configuration, and compare.
 *
 * Usage: quickstart [workload]
 *   workload: PCmicro (default) or any name `pcsim list` shows
 */

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

#include "src/system/presets.hh"
#include "src/system/system.hh"
#include "src/workload/suite.hh"

using namespace pcsim;

namespace
{

void
report(const char *label, const RunResult &r)
{
    std::printf("%-34s cycles=%-10llu remote=%-8llu local=%-8llu "
                "msgs=%-8llu updates=%llu/%llu dele=%llu undele=%llu/"
                "%llu/%llu nacks=%llu\n",
                label, (unsigned long long)r.cycles,
                (unsigned long long)r.nodes.remoteMisses,
                (unsigned long long)r.nodes.localMisses,
                (unsigned long long)r.netMessages,
                (unsigned long long)r.nodes.updatesConsumed,
                (unsigned long long)r.nodes.updatesSent,
                (unsigned long long)r.nodes.delegationsGranted,
                (unsigned long long)r.nodes.undelegationsCapacity,
                (unsigned long long)r.nodes.undelegationsFlush,
                (unsigned long long)r.nodes.undelegationsConflict,
                (unsigned long long)r.nodes.nacksReceived);
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned cpus = 16;
    const std::string which = argc > 1 ? argv[1] : "PCmicro";

    std::unique_ptr<Workload> wl;
    try {
        wl = makeWorkload(which, cpus);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "quickstart: %s\n", e.what());
        return 1;
    }

    std::printf("pcsim quickstart: workload %s on %u nodes\n",
                wl->name().c_str(), cpus);

    RunResult base = runWorkload(presets::base(cpus), *wl, "base");
    report("base (write-invalidate)", base);

    RunResult rac = runWorkload(presets::racOnly(32 * 1024, cpus), *wl,
                                "rac");
    report("32K RAC", rac);

    RunResult dele =
        runWorkload(presets::delegationOnly(32, 32 * 1024, cpus), *wl,
                    "delegation");
    report("delegation only", dele);

    RunResult upd = runWorkload(presets::small(cpus), *wl, "small");
    report("delegation + updates (small)", upd);

    RunResult lrg = runWorkload(presets::large(cpus), *wl, "large");
    report("delegation + updates (large)", lrg);

    std::printf("\nspeedup (small) = %.3f   remote-miss reduction = "
                "%.1f%%   traffic reduction = %.1f%%\n",
                double(base.cycles) / double(upd.cycles),
                100.0 * (1.0 - double(upd.nodes.remoteMisses) /
                                   double(base.nodes.remoteMisses)),
                100.0 * (1.0 - double(upd.netMessages) /
                                   double(base.netMessages)));
    return 0;
}

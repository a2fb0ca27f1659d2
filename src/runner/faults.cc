#include "src/runner/faults.hh"

#include <cstdio>

#include "src/runner/results.hh"
#include "src/runner/runner.hh"
#include "src/system/presets.hh"

namespace pcsim
{
namespace runner
{

JobSet
faultJobs(const FaultsOptions &opt)
{
    std::vector<presets::NamedFaultScenario> scenarios;
    for (const auto &s : presets::faultScenarios()) {
        if (opt.scenarios.empty()) {
            scenarios.push_back(s);
            continue;
        }
        for (const auto &want : opt.scenarios) {
            if (want == s.name) {
                scenarios.push_back(s);
                break;
            }
        }
    }
    if (scenarios.size() !=
        (opt.scenarios.empty() ? presets::faultScenarios().size()
                               : opt.scenarios.size())) {
        // At least one requested name matched nothing.
        return {};
    }

    std::vector<Arbitration> arbs;
    for (const auto &name : opt.arbitrations) {
        Arbitration a;
        if (!arbitrationFromName(name, a))
            return {}; // unknown arbitration mode
        arbs.push_back(a);
    }
    if (arbs.empty())
        arbs.push_back(Arbitration::NackRetry);

    JobSet set;
    for (const auto &scen : scenarios) {
        for (const Arbitration arb : arbs) {
            for (const auto &named :
                 presets::scaleConfigs(opt.nodes)) {
                Job j;
                j.workload = opt.workload;
                j.cfg = named.cfg;
                j.cfg.proto.faults = scen.faults;
                // The whole point: the protocol must stay provably
                // coherent and in-spec while being perturbed.
                j.cfg.proto.checkerEnabled = true;
                j.cfg.proto.conformanceEnabled = true;
                // Fault-grade backoff: exponential up to
                // retryBase << 6 so pressure-induced NACK storms
                // spread out.
                j.cfg.proto.retryExpCap = 6;
                j.cfg.proto.arbitration = arb;
                j.configName = named.name;
                j.seed = opt.seed;
                j.scale = opt.scale;
                // Historic labels for the default mode, so
                // BENCH_faults.json rows keep their identity.
                j.label = arb == Arbitration::NackRetry
                              ? scen.name + "/" + named.name
                              : scen.name + "/" +
                                    arbitrationName(arb) + "/" +
                                    named.name;
                set.add(std::move(j));
            }
        }
    }
    return set;
}

namespace
{

void
printFaultsTable(const std::vector<JobResult> &results)
{
    std::printf("%-40s | %12s | %9s | %9s | %8s | %8s | %10s | %8s "
                "| %8s | %6s\n",
                "scenario/config", "cycles", "nacks", "retries",
                "maxRetry", "stormPk", "delayedMsg", "maxWait",
                "p99", "qPeak");
    for (const auto &r : results) {
        if (!r.ok) {
            std::printf("%-40s | FAILED: %s\n", r.job.label.c_str(),
                        r.error.c_str());
            continue;
        }
        std::printf("%-40s | %12llu | %9llu | %9llu | %8llu | %8llu "
                    "| %10llu | %8llu | %8llu | %6llu\n",
                    r.job.label.c_str(),
                    (unsigned long long)r.result.cycles,
                    (unsigned long long)r.result.nodes.nacksReceived,
                    (unsigned long long)r.result.nodes.retries,
                    (unsigned long long)r.result.nodes.maxRetriesPerLine,
                    (unsigned long long)r.result.nodes.nackStormPeak,
                    (unsigned long long)r.result.faultDelayedMessages,
                    (unsigned long long)r.result.nodes.maxLineWaitTicks,
                    (unsigned long long)r.result.missLatencyP99,
                    (unsigned long long)r.result.nodes.queueDepthPeak);
    }
}

} // namespace

int
runFaultSweep(const FaultsOptions &opt)
{
    const JobSet set = faultJobs(opt);
    if (set.empty()) {
        std::fprintf(stderr,
                     "pcsim faults: no jobs (unknown --scenario or "
                     "--arbitration? scenarios: gray-links, ni-stalls, "
                     "hotspot, dir-pressure, storm; arbitrations: "
                     "nack-retry, queue, aged-priority)\n");
        return 1;
    }

    RunnerOptions ropts;
    ropts.threads = opt.threads;
    ropts.progress = !opt.quiet;

    if (opt.deterministicCheck) {
        const std::string a =
            resultsToJson(runJobs(set, ropts), /*with_timing=*/false)
                .dump(2);
        const std::string b =
            resultsToJson(runJobs(set, ropts), /*with_timing=*/false)
                .dump(2);
        if (a == b) {
            std::fprintf(stderr,
                         "deterministic-check: OK (%zu faulted jobs, "
                         "%zu bytes identical)\n",
                         set.size(), a.size());
            return 0;
        }
        std::size_t off = 0;
        while (off < a.size() && off < b.size() && a[off] == b[off])
            ++off;
        std::fprintf(stderr,
                     "deterministic-check: MISMATCH at byte %zu "
                     "(faulted results differ between two identical "
                     "runs)\n",
                     off);
        return 3;
    }

    const auto results = runJobs(set, ropts);

    bool io_ok = true;
    const JsonValue doc =
        resultsToJson(results, /*with_timing=*/false);
    if (!opt.jsonPath.empty())
        io_ok &= writeTextFile(opt.jsonPath, doc.dump(2) + "\n");
    if (!opt.csvPath.empty())
        io_ok &= writeTextFile(
            opt.csvPath, resultsToCsv(results, /*with_timing=*/false));

    if (opt.table && opt.jsonPath != "-" && opt.csvPath != "-")
        printFaultsTable(results);

    int failed = 0;
    for (const auto &r : results)
        failed += r.ok ? 0 : 1;
    if (!io_ok)
        return 1;
    return failed ? 2 : 0;
}

} // namespace runner
} // namespace pcsim

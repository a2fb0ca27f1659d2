#include "src/runner/compare.hh"

#include <cstdio>
#include <map>

#include "src/runner/results.hh"
#include "src/runner/runner.hh"
#include "src/system/presets.hh"

namespace pcsim
{
namespace runner
{

JobSet
compareJobs(const CompareOptions &opt)
{
    std::vector<std::string> scenarios;
    if (opt.scenarios.empty()) {
        scenarios = {"PCmicro", "PubSub"};
    } else {
        for (const auto &want : opt.scenarios) {
            const std::string canonical = canonicalWorkload(want);
            if (canonical.empty())
                return {};
            scenarios.push_back(canonical);
        }
    }
    if (opt.nodes.empty())
        return {};

    JobSet set;
    for (const auto &scen : scenarios) {
        for (unsigned n : opt.nodes) {
            if (n == 0)
                return {};
            for (const auto &named : presets::compareConfigs(n)) {
                Job j;
                j.workload = scen;
                j.cfg = named.cfg;
                if (!j.cfg.proto.validateError().empty())
                    return {};
                j.configName = named.name;
                j.seed = opt.seed;
                j.scale = opt.scale;
                j.label = scen + "/n" + std::to_string(n) + "/" +
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
printCompareTable(const std::vector<JobResult> &results)
{
    // Base (mesi-dir) cycles per (workload, node count) for the
    // vs-base ratio column (> 1 means the policy wins).
    std::map<std::string, std::uint64_t> baseCycles;
    for (const auto &r : results) {
        if (r.ok && r.job.configName == "mesi-dir") {
            baseCycles[r.job.workload + "/" +
                       std::to_string(r.job.cfg.proto.numNodes)] =
                r.result.cycles;
        }
    }

    std::printf("%-32s | %12s | %10s | %9s | %9s | %8s\n",
                "scenario/nodes/policy", "cycles", "messages",
                "updates", "applied", "vs base");
    for (const auto &r : results) {
        if (!r.ok) {
            std::printf("%-32s | FAILED: %s\n", r.job.label.c_str(),
                        r.error.c_str());
            continue;
        }
        const auto it = baseCycles.find(
            r.job.workload + "/" +
            std::to_string(r.job.cfg.proto.numNodes));
        char win[16] = "-";
        if (it != baseCycles.end() && r.result.cycles)
            std::snprintf(win, sizeof(win), "%.3f",
                          double(it->second) /
                              double(r.result.cycles));
        // "applied" counts refreshes a consumer absorbed: RAC fills
        // for the invalidate-based policies, in-place SHARED-copy
        // refreshes for the update-based ones.
        const std::uint64_t applied =
            r.result.nodes.updatesApplied +
            r.result.nodes.updatesConsumed;
        std::printf(
            "%-32s | %12llu | %10llu | %9llu | %9llu | %8s\n",
            r.job.label.c_str(),
            (unsigned long long)r.result.cycles,
            (unsigned long long)r.result.netMessages,
            (unsigned long long)r.result.updateMessages,
            (unsigned long long)applied, win);
    }
}

} // namespace

int
runCompareSweep(const CompareOptions &opt)
{
    const JobSet set = compareJobs(opt);
    if (set.empty()) {
        std::fprintf(stderr,
                     "pcsim compare: no jobs (unknown --scenario or "
                     "bad --nodes? any registry workload is a valid "
                     "scenario, see 'pcsim list')\n");
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
                         "deterministic-check: OK (%zu policy jobs, "
                         "%zu bytes identical)\n",
                         set.size(), a.size());
            return 0;
        }
        std::size_t off = 0;
        while (off < a.size() && off < b.size() && a[off] == b[off])
            ++off;
        std::fprintf(stderr,
                     "deterministic-check: MISMATCH at byte %zu "
                     "(policy results differ between two identical "
                     "runs)\n",
                     off);
        return 3;
    }

    const auto results = runJobs(set, ropts);

    bool io_ok = true;
    const JsonValue doc = resultsToJson(results, opt.timing);
    if (!opt.jsonPath.empty())
        io_ok &= writeTextFile(opt.jsonPath, doc.dump(2) + "\n");
    if (!opt.csvPath.empty())
        io_ok &= writeTextFile(opt.csvPath,
                               resultsToCsv(results, opt.timing));

    if (opt.table && opt.jsonPath != "-" && opt.csvPath != "-")
        printCompareTable(results);

    int failed = 0;
    for (const auto &r : results)
        failed += r.ok ? 0 : 1;
    if (!io_ok)
        return 1;
    return failed ? 2 : 0;
}

} // namespace runner
} // namespace pcsim

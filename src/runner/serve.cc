#include "src/runner/serve.hh"

#include <cstdio>
#include <map>

#include "src/runner/results.hh"
#include "src/runner/runner.hh"
#include "src/system/presets.hh"
#include "src/workload/serving.hh"

namespace pcsim
{
namespace runner
{

JobSet
serveJobs(const ServeOptions &opt)
{
    std::vector<std::string> scenarios;
    const std::vector<std::string> family = servingNames();
    if (opt.scenarios.empty()) {
        scenarios = family;
    } else {
        for (const auto &want : opt.scenarios) {
            const std::string canonical = canonicalWorkload(want);
            bool known = false;
            for (const auto &name : family)
                known |= canonical == name;
            if (!known)
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
            for (const auto &named : presets::scaleConfigs(n)) {
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
printServeTable(const std::vector<JobResult> &results)
{
    // Base cycles per (workload, node count) for the win ratio column.
    std::map<std::string, std::uint64_t> baseCycles;
    for (const auto &r : results) {
        if (r.ok && r.job.configName == "base") {
            baseCycles[r.job.workload + "/" +
                       std::to_string(r.job.cfg.proto.numNodes)] =
                r.result.cycles;
        }
    }

    std::printf("%-28s | %12s | %10s | %9s | %9s | %8s | %8s\n",
                "scenario/nodes/config", "cycles", "messages",
                "updates", "updUsed", "missP99", "vs base");
    for (const auto &r : results) {
        if (!r.ok) {
            std::printf("%-28s | FAILED: %s\n", r.job.label.c_str(),
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
        std::printf(
            "%-28s | %12llu | %10llu | %9llu | %9llu | %8llu | %8s\n",
            r.job.label.c_str(),
            (unsigned long long)r.result.cycles,
            (unsigned long long)r.result.netMessages,
            (unsigned long long)r.result.updateMessages,
            (unsigned long long)r.result.nodes.updatesConsumed,
            (unsigned long long)r.result.missLatencyP99, win);
    }
}

} // namespace

int
runServeSweep(const ServeOptions &opt)
{
    const JobSet set = serveJobs(opt);
    if (set.empty()) {
        std::fprintf(stderr,
                     "pcsim serve: no jobs (unknown --scenario or bad "
                     "--nodes? known scenarios: KVServe, WorkQueue, "
                     "RCU, PubSub)\n");
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
                         "deterministic-check: OK (%zu serving jobs, "
                         "%zu bytes identical)\n",
                         set.size(), a.size());
            return 0;
        }
        std::size_t off = 0;
        while (off < a.size() && off < b.size() && a[off] == b[off])
            ++off;
        std::fprintf(stderr,
                     "deterministic-check: MISMATCH at byte %zu "
                     "(serving results differ between two identical "
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
        printServeTable(results);

    int failed = 0;
    for (const auto &r : results)
        failed += r.ok ? 0 : 1;
    if (!io_ok)
        return 1;
    return failed ? 2 : 0;
}

} // namespace runner
} // namespace pcsim

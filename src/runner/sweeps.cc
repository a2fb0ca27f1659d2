#include "src/runner/sweeps.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "src/runner/results.hh"
#include "src/workload/serving.hh"
#include "src/workload/suite.hh"

namespace pcsim
{
namespace runner
{

namespace
{

// --- grid helpers --------------------------------------------------

/** The machine size of an entry that runs one. */
unsigned
size(const SweepArgs &a)
{
    return a.nodes.empty() ? 16 : a.nodes.front();
}

/** Every app under every config at @p scale and the sweep's seed,
 *  with the checker off: the paper entries measure speed. */
JobSet
paperGrid(const std::vector<std::string> &apps,
          const std::vector<presets::NamedConfig> &configs, double scale,
          const SweepArgs &a)
{
    JobSet set;
    set.sweep(apps, configs, scale, {a.seeds.front()});
    for (auto &j : set.jobs())
        j.cfg.proto.checkerEnabled = false;
    return set;
}

/** The per-figure sweep axes, defined once for jobs and printers. */

const std::vector<std::pair<const char *, Tick>> &
figure9Delays()
{
    static const std::vector<std::pair<const char *, Tick>> delays = {
        {"5", 5},        {"50", 50},       {"500", 500},
        {"5K", 5000},    {"50K", 50000},   {"500K", 500000},
        {"5M", 5000000}, {"Infinite", maxTick},
    };
    return delays;
}

// 2 GHz core: 25/50/100/200 ns = 50/100/200/400 cycles.
const std::vector<std::pair<const char *, Tick>> &
figure10Hops()
{
    static const std::vector<std::pair<const char *, Tick>> hops = {
        {"25ns", 50}, {"50ns", 100}, {"100ns", 200}, {"200ns", 400}};
    return hops;
}

const unsigned detectorThresholds[] = {1, 2, 3, 5, 8};
const std::size_t detectorDirCaches[] = {64, 256, 1024, 8192};

/** Paper speedups read off Figure 7 (approximate bar heights). */
struct PaperRow
{
    const char *app;
    double small; ///< 32-entry deledc & 32K RAC
    double large; ///< 1K-entry deledc & 1M RAC
};

const PaperRow paperSpeedups[] = {
    {"Barnes", 1.17, 1.23}, {"Ocean", 1.08, 1.11},
    {"Em3D", 1.33, 1.40},   {"LU", 1.31, 1.40},
    {"CG", 1.04, 1.06},     {"MG", 1.09, 1.22},
    {"Appbt", 1.08, 1.24},
};

/** Table 3 as printed in the paper: % of producer-consumer writes
 *  whose invalidation hit 1/2/3/4/4+ consumers. */
const double paperConsumers[][5] = {
    {13.9, 6.8, 9.4, 8.1, 61.7}, {97.7, 1.8, 0.5, 0.0, 0.0},
    {67.8, 32.2, 0.0, 0.0, 0.0}, {99.4, 0.0, 0.0, 0.4, 0.1},
    {0.1, 0.2, 0.0, 0.0, 99.7},  {0.0, 0.3, 6.7, 1.4, 91.6},
    {78.3, 11.4, 2.9, 1.8, 36.7},
};

// --- paper job grids -----------------------------------------------

JobSet
figure7Jobs(const SweepArgs &a)
{
    return paperGrid(suiteNames(), presets::figure7Configs(size(a)),
                     a.scale, a);
}

/** Base, the small config and a 1.04 MB L2 -- the SRAM a 32-entry
 *  delegate cache and a 32 KB RAC take -- all over a 1 MB L2. */
std::vector<presets::NamedConfig>
figure8Configs(unsigned n)
{
    std::vector<presets::NamedConfig> configs = {
        {"Base-1M", presets::base(n)},
        {"Inter", presets::small(n)},
        {"Equal-1.04M", presets::base(n)},
    };
    for (auto &c : configs)
        c.cfg.proto.l2SizeBytes = 1024 * 1024;
    // 4 ways x 128 B lines: 2128 sets, the one non-power-of-two set
    // count the cache array supports for this experiment.
    configs[2].cfg.proto.l2SetsOverride =
        (1024 * 1024 + 40 * 1024) / (4 * 128);
    return configs;
}

JobSet
figure8Jobs(const SweepArgs &a)
{
    return paperGrid(suiteNames(), figure8Configs(size(a)), a.scale, a);
}

JobSet
figure9Jobs(const SweepArgs &a)
{
    std::vector<presets::NamedConfig> configs;
    for (const auto &[label, delay] : figure9Delays()) {
        configs.push_back({label, presets::large(size(a))});
        configs.back().cfg.proto.interventionDelay = delay;
    }
    return paperGrid(suiteNames(), configs, a.scale * 0.5, a);
}

JobSet
figure10Jobs(const SweepArgs &a)
{
    std::vector<presets::NamedConfig> configs;
    for (const auto &[label, cycles] : figure10Hops()) {
        for (bool enhanced : {false, true}) {
            configs.push_back(
                {std::string(enhanced ? "enh-" : "base-") + label,
                 enhanced ? presets::small(size(a))
                          : presets::base(size(a))});
            configs.back().cfg.net.hopLatency = cycles;
        }
    }
    return paperGrid({"Appbt"}, configs, a.scale * 0.5, a);
}

/** MG under growing delegate caches with a 32 KB RAC, then 1K + 1 MB. */
JobSet
figure11Jobs(const SweepArgs &a)
{
    const unsigned n = size(a);
    std::vector<presets::NamedConfig> configs = {
        {"Base", presets::base(n)}};
    for (std::size_t entries : {32u, 64u, 128u, 256u, 512u, 1024u})
        configs.push_back(
            {std::to_string(entries) + "-entry deledc & 32K RAC",
             presets::delegateUpdate(entries, 32 * 1024, n)});
    configs.push_back({"1K-entry deledc & 1M RAC", presets::large(n)});
    return paperGrid({"MG"}, configs, a.scale * 0.75, a);
}

/** Appbt under growing RACs with 32 delegate entries, then 1K + 1 MB. */
JobSet
figure12Jobs(const SweepArgs &a)
{
    const unsigned n = size(a);
    std::vector<presets::NamedConfig> configs = {
        {"Base", presets::base(n)}};
    for (std::size_t kb : {32u, 64u, 128u, 256u, 512u, 1024u})
        configs.push_back(
            {"32-entry deledc & " + std::to_string(kb) + "K RAC",
             presets::delegateUpdate(32, kb * 1024, n)});
    configs.push_back({"1K-entry deledc & 1M RAC", presets::large(n)});
    return paperGrid({"Appbt"}, configs, a.scale * 0.75, a);
}

JobSet
delegationAblationJobs(const SweepArgs &a)
{
    const unsigned n = size(a);
    return paperGrid(suiteNames(),
                     {{"base", presets::base(n)},
                      {"delegation",
                       presets::delegationOnly(32, 32 * 1024, n)}},
                     a.scale, a);
}

/** Em3D and LU under each write-repeat threshold of the large config;
 *  Em3D also under each directory-cache size. */
JobSet
detectorAblationJobs(const SweepArgs &a)
{
    const unsigned n = size(a);
    std::vector<presets::NamedConfig> thresholds = {
        {"base", presets::base(n)}};
    for (unsigned thr : detectorThresholds) {
        thresholds.push_back(
            {"threshold-" + std::to_string(thr), presets::large(n)});
        thresholds.back().cfg.proto.detector.writeRepeatSaturation =
            static_cast<std::uint8_t>(thr);
    }
    std::vector<presets::NamedConfig> dir_caches;
    for (std::size_t entries : detectorDirCaches) {
        dir_caches.push_back(
            {"dir-cache-" + std::to_string(entries), presets::large(n)});
        dir_caches.back().cfg.proto.dirCache.entries = entries;
    }
    JobSet set = paperGrid({"Em3D", "LU"}, thresholds, a.scale * 0.5, a);
    const JobSet em3d = paperGrid({"Em3D"}, dir_caches, a.scale * 0.5, a);
    for (const Job &j : em3d.jobs())
        set.add(j);
    return set;
}

// --- serve / compare / faults job grids ----------------------------

/** Canonical scenario names: @p fallback when none were asked for;
 *  empty when one is not in @p known. */
std::vector<std::string>
scenarioNames(const SweepArgs &a, const std::vector<std::string> &known,
              std::vector<std::string> fallback)
{
    if (a.scenarios.empty())
        return fallback;
    std::vector<std::string> out;
    for (const auto &want : a.scenarios) {
        const std::string name = canonicalWorkload(want);
        if (std::find(known.begin(), known.end(), name) == known.end())
            return {};
        out.push_back(name);
    }
    return out;
}

/** Scenario x node count x @p roster, labelled "scenario/nN/config";
 *  empty when a size or a configuration is invalid. */
JobSet
scenarioGrid(const std::vector<std::string> &scenarios,
             const SweepArgs &a,
             std::vector<presets::NamedConfig> (*roster)(unsigned))
{
    const std::vector<unsigned> nodes =
        a.nodes.empty() ? std::vector<unsigned>{16, 64} : a.nodes;
    JobSet set;
    for (const auto &scen : scenarios) {
        for (unsigned n : nodes) {
            if (n == 0)
                return {};
            for (const auto &named : roster(n)) {
                Job j;
                j.workload = scen;
                j.cfg = named.cfg;
                if (!j.cfg.proto.validateError().empty())
                    return {};
                j.configName = named.name;
                j.seed = a.seeds.front();
                j.scale = a.scale;
                j.label = scen + "/n" + std::to_string(n) + "/" +
                          named.name;
                set.add(std::move(j));
            }
        }
    }
    return set;
}

JobSet
serveJobs(const SweepArgs &a)
{
    return scenarioGrid(scenarioNames(a, servingNames(), servingNames()),
                        a, presets::scaleConfigs);
}

JobSet
compareJobs(const SweepArgs &a)
{
    return scenarioGrid(
        scenarioNames(a, workloadNames(), {"PCmicro", "PubSub"}), a,
        presets::compareConfigs);
}

/** One workload (default Em3D) under base, delegation and
 *  delegate-update at every machine size (default 16..1024), at scale
 *  0.25 relative to --scale, with the checker off. */
JobSet
scaleJobs(const SweepArgs &a)
{
    if (a.workloads.size() > 1)
        return {};
    const std::string workload =
        a.workloads.empty() ? "Em3D" : canonicalWorkload(a.workloads[0]);
    if (workload.empty())
        return {};
    SweepArgs grid = a;
    if (grid.nodes.empty())
        grid.nodes = presets::scaleNodeCounts();
    grid.scale = a.scale * 0.25;
    JobSet set = scenarioGrid({workload}, grid, presets::scaleConfigs);
    for (auto &j : set.jobs())
        j.cfg.proto.checkerEnabled = false;
    return set;
}

/**
 * Fault scenario x arbitration mode x {base, delegation,
 * delegate-update} with the checker and the conformance observer on.
 * @p scenarios and @p arbitrations are the defaults (no scenario = all
 * of presets::faultScenarios()); scenarios run in that list's order.
 */
JobSet
faultGrid(const SweepArgs &a, std::vector<std::string> scenarios,
          std::vector<std::string> arbitrations)
{
    if (!a.scenarios.empty())
        scenarios = a.scenarios;
    if (!a.arbitrations.empty())
        arbitrations = a.arbitrations;
    if (a.workloads.size() > 1)
        return {};
    const std::string workload =
        a.workloads.empty() ? "PCmicro" : canonicalWorkload(a.workloads[0]);
    if (workload.empty())
        return {};

    std::vector<presets::NamedFaultScenario> picked;
    for (const auto &s : presets::faultScenarios())
        if (scenarios.empty() ||
            std::find(scenarios.begin(), scenarios.end(), s.name) !=
                scenarios.end())
            picked.push_back(s);
    if (!scenarios.empty() && picked.size() != scenarios.size())
        return {}; // a requested name matched nothing

    std::vector<Arbitration> arbs;
    for (const auto &name : arbitrations) {
        Arbitration arb;
        if (!arbitrationFromName(name, arb))
            return {};
        arbs.push_back(arb);
    }

    JobSet set;
    for (const auto &scen : picked) {
        for (const Arbitration arb : arbs) {
            for (const auto &named : presets::scaleConfigs(size(a))) {
                Job j;
                j.workload = workload;
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
                j.seed = a.seeds.front();
                j.scale = a.scale;
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

JobSet
faultJobs(const SweepArgs &a)
{
    return faultGrid(a, {}, {"nack-retry"});
}

/** The fairness bake-off: the contention scenarios crossed with every
 *  arbitration mode. */
JobSet
qosJobs(const SweepArgs &a)
{
    return faultGrid(a, {"storm", "hotspot"},
                     {"nack-retry", "queue", "aged-priority"});
}

// --- table helpers -------------------------------------------------

/** The result of (workload, config); nullptr when absent or failed. */
const RunResult *
findRun(const std::vector<JobResult> &results, const std::string &workload,
        const std::string &config)
{
    for (const auto &r : results)
        if (r.job.workload == workload && r.job.configName == config)
            return r.ok ? &r.result : nullptr;
    return nullptr;
}

double
geomean(const std::vector<double> &v)
{
    double p = 1.0;
    for (double x : v)
        p *= x;
    return v.empty() ? 0.0 : std::pow(p, 1.0 / v.size());
}

double
mean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / v.size();
}

/** Speedup / traffic / remote triple normalized to a base run. */
struct Norm
{
    double speedup = 1.0;
    double messages = 1.0;
    double remote = 1.0;
};

Norm
normalize(const RunResult &base, const RunResult &e)
{
    Norm n;
    n.speedup = double(base.cycles) / double(e.cycles);
    n.messages = double(e.netMessages) / double(base.netMessages);
    n.remote = double(e.nodes.remoteMisses) /
               double(base.nodes.remoteMisses);
    return n;
}

/** One numeric column of a per-job table. */
struct Column
{
    const char *name;
    int width;
    std::uint64_t (*value)(const RunResult &);
};

const Column cyclesCol{"cycles", 12, [](const RunResult &r) {
                           return r.cycles;
                       }};
const Column messagesCol{"messages", 10, [](const RunResult &r) {
                             return r.netMessages;
                         }};
const Column updatesCol{"updates", 9, [](const RunResult &r) {
                            return r.updateMessages;
                        }};

/**
 * One row per job: the label, @p cols and, when @p base_config is set,
 * the job's speedup over that config at the same workload and node
 * count (> 1 means the job wins).
 */
void
printJobTable(const std::vector<JobResult> &results, const char *head,
              int label_width, const std::vector<Column> &cols,
              const char *base_config)
{
    std::map<std::string, std::uint64_t> baseCycles;
    const auto key = [](const JobResult &r) {
        return r.job.workload + "/" +
               std::to_string(r.job.cfg.proto.numNodes);
    };
    if (base_config)
        for (const auto &r : results)
            if (r.ok && r.job.configName == base_config)
                baseCycles[key(r)] = r.result.cycles;

    std::printf("%-*s", label_width, head);
    for (const Column &c : cols)
        std::printf(" | %*s", c.width, c.name);
    if (base_config)
        std::printf(" | %8s", "vs base");
    std::printf("\n");
    for (const auto &r : results) {
        std::printf("%-*s", label_width, r.job.label.c_str());
        if (!r.ok) {
            std::printf(" | FAILED: %s\n", r.error.c_str());
            continue;
        }
        for (const Column &c : cols)
            std::printf(" | %*llu", c.width,
                        (unsigned long long)c.value(r.result));
        if (base_config) {
            const auto it = baseCycles.find(key(r));
            char win[16] = "-";
            if (it != baseCycles.end() && r.result.cycles)
                std::snprintf(win, sizeof(win), "%.3f",
                              double(it->second) /
                                  double(r.result.cycles));
            std::printf(" | %8s", win);
        }
        std::printf("\n");
    }
}

// --- printers ------------------------------------------------------

void
printFigure7(const std::vector<JobResult> &results, const SweepArgs &)
{
    const auto configs = presets::figure7Configs();
    const auto apps = suiteNames();

    // Per app, every config normalized to Base (empty without Base).
    std::vector<std::vector<Norm>> all;
    std::uint64_t delegations = 0, upd_sent = 0, upd_used = 0;
    for (const auto &app : apps) {
        all.emplace_back();
        const RunResult *base = findRun(results, app, configs[0].name);
        if (!base)
            continue;
        for (const auto &c : configs) {
            const RunResult *e = findRun(results, app, c.name);
            all.back().push_back(e == base ? Norm{}
                                 : e       ? normalize(*base, *e)
                                           : Norm{0, 0, 0});
        }
        if (const RunResult *large = findRun(results, app, configs[3].name)) {
            delegations += large->nodes.delegationsGranted;
            upd_sent += large->nodes.updatesSent;
            upd_used += large->nodes.updatesConsumed;
        }
    }

    const std::pair<const char *, double Norm::*> tables[] = {
        {"speedup (paper small/large in brackets):\n", &Norm::speedup},
        {"\nnetwork messages (normalized to Base):\n", &Norm::messages},
        {"\nremote misses (normalized to Base):\n", &Norm::remote},
    };
    for (const auto &[title, metric] : tables) {
        std::printf("%s%-8s", title, "App");
        for (const auto &c : configs)
            std::printf(" | %-13.13s", c.name.c_str());
        std::printf("\n");
        for (std::size_t a = 0; a < apps.size(); ++a) {
            std::printf("%-8s", apps[a].c_str());
            for (const Norm &n : all[a])
                std::printf(" | %-13.3f", n.*metric);
            if (metric != &Norm::speedup)
                std::printf("\n");
            else if (all[a].empty())
                std::printf(" | (missing base result)\n");
            else
                std::printf("   [paper: %.2f / %.2f]\n",
                            paperSpeedups[a].small, paperSpeedups[a].large);
        }
    }

    // Headline aggregates (Section 3.2's summary paragraph).
    std::vector<double> sp_small, sp_large, msg_small, msg_large,
        rm_small, rm_large;
    for (const auto &norms : all) {
        if (norms.size() < 4)
            continue;
        sp_small.push_back(norms[2].speedup);
        sp_large.push_back(norms[3].speedup);
        msg_small.push_back(norms[2].messages);
        msg_large.push_back(norms[3].messages);
        rm_small.push_back(norms[2].remote);
        rm_large.push_back(norms[3].remote);
    }
    std::printf("\nsummary (paper in brackets):\n");
    std::printf("  small config: geomean speedup %.2f [1.13], traffic "
                "%+.0f%% [-17%%], remote misses %+.0f%% [-29%%]\n",
                geomean(sp_small), 100 * (mean(msg_small) - 1),
                100 * (mean(rm_small) - 1));
    std::printf("  large config: geomean speedup %.2f [1.21], traffic "
                "%+.0f%% [-15%%], remote misses %+.0f%% [-40%%]\n",
                geomean(sp_large), 100 * (mean(msg_large) - 1),
                100 * (mean(rm_large) - 1));
    std::printf("  large config: %llu delegations, %llu updates sent, "
                "%.0f%% consumed\n",
                (unsigned long long)delegations,
                (unsigned long long)upd_sent,
                upd_sent ? 100.0 * upd_used / upd_sent : 0.0);

    // Table 3, measured on Base: the detector sees each application's
    // inherent sharing pattern there.
    std::printf("\nconsumers per producer-consumer write, Base "
                "(Table 3):\n");
    std::printf("%-8s | %28s | %28s\n", "App",
                "paper (1 / 2 / 3 / 4 / 4+)",
                "measured (1 / 2 / 3 / 4 / 4+)");
    std::printf("---------+------------------------------+-------------"
                "-----------------\n");
    for (std::size_t a = 0; a < apps.size(); ++a) {
        const RunResult *base = findRun(results, apps[a], configs[0].name);
        if (!base)
            continue;
        const Histogram &h = base->consumerHist;
        double more = 0;
        for (std::size_t b = 5; b < h.numBuckets(); ++b)
            more += 100 * h.fraction(b);
        const double *p = paperConsumers[a];
        std::printf("%-8s | %4.1f %4.1f %4.1f %4.1f %5.1f | "
                    "%4.1f %4.1f %4.1f %4.1f %5.1f\n",
                    apps[a].c_str(), p[0], p[1], p[2], p[3], p[4],
                    100 * h.fraction(1), 100 * h.fraction(2),
                    100 * h.fraction(3), 100 * h.fraction(4), more);
    }
    std::printf("\n(Each row: percentage of producer-consumer writes "
                "whose invalidation hit that many consumers.)\n");
}

void
printFigure8(const std::vector<JobResult> &results, const SweepArgs &a)
{
    const auto configs = figure8Configs(size(a));
    std::printf("%-8s | %-12s | %-22s | %-12s\n", "App", "Base(1M L2)",
                "Inter(1M+32e+32K RAC)", "Equal(1.04M)");
    std::printf("---------+--------------+------------------------+---"
                "-----------\n");
    std::vector<double> sp_inter, sp_equal;
    for (const auto &app : suiteNames()) {
        const RunResult *b = findRun(results, app, configs[0].name);
        const RunResult *i = findRun(results, app, configs[1].name);
        const RunResult *e = findRun(results, app, configs[2].name);
        if (!b || !i || !e) {
            std::printf("%-8s | (missing result)\n", app.c_str());
            continue;
        }
        sp_inter.push_back(normalize(*b, *i).speedup);
        sp_equal.push_back(normalize(*b, *e).speedup);
        std::printf("%-8s | %-12.3f | %-22.3f | %-12.3f\n", app.c_str(),
                    1.0, sp_inter.back(), sp_equal.back());
    }
    std::printf("\ngeomean: smarter %.3f vs larger %.3f\n",
                geomean(sp_inter), geomean(sp_equal));
    std::printf("(Paper: the extensions beat the 1.04 MB L2 for every "
                "application except Appbt, whose small RAC thrashes.)\n");
}

void
printFigure9(const std::vector<JobResult> &results, const SweepArgs &)
{
    const auto &delays = figure9Delays();

    std::printf("%-8s", "App");
    for (const auto &[label, d] : delays)
        std::printf(" | %-8s", label);
    std::printf("\n---------");
    for (std::size_t i = 0; i < delays.size(); ++i)
        std::printf("+----------");
    std::printf("\n");

    for (const auto &app : suiteNames()) {
        std::vector<double> cycles;
        for (const auto &[label, d] : delays) {
            const RunResult *e = findRun(results, app, label);
            cycles.push_back(e ? double(e->cycles) : 0.0);
        }
        std::printf("%-8s", app.c_str());
        for (double c : cycles)
            std::printf(" | %-8.3f", cycles[0] > 0 ? c / cycles[0] : 0.0);
        std::printf("\n");
    }
    std::printf("\n(>1.0 = slower than the 5-cycle delay. The paper "
                "reports 50 cycles works well for all benchmarks: "
                "long enough for write bursts, short enough for "
                "updates to arrive before the consumers' reads.)\n");
}

void
printFigure10(const std::vector<JobResult> &results, const SweepArgs &)
{
    std::printf("%-6s | %-14s | %-14s | %-8s\n", "hop", "base cycles",
                "enhanced cycles", "speedup");
    std::printf("-------+----------------+----------------+---------\n");

    double prev_base = 0;
    for (const auto &[label, cycles] : figure10Hops()) {
        const RunResult *base =
            findRun(results, "Appbt", std::string("base-") + label);
        const RunResult *enh =
            findRun(results, "Appbt", std::string("enh-") + label);
        if (!base || !enh) {
            std::printf("%-6s | (missing result)\n", label);
            continue;
        }
        const double b = double(base->cycles), e = double(enh->cycles);
        std::printf("%-6s | %-14.0f | %-14.0f | %-8.3f", label, b, e,
                    b / e);
        if (prev_base > 0)
            std::printf("   (base grew %.2fx)", b / prev_base);
        prev_base = b;
        std::printf("\n");
    }
    std::printf("\n(The mechanisms' value increases with remote "
                "latency, as the paper observes.)\n");
}

/** Figures 11 and 12: every structure size normalized to the Base row;
 *  @p updates adds Figure 12's consumed/sent update column. */
void
printSizeSweep(const std::vector<JobResult> &results, bool updates)
{
    std::printf("%-26s | %-8s | %-9s | %-13s%s\n", "config", "speedup",
                "messages", "remote misses",
                updates ? " | updates used/sent" : "");
    std::printf("---------------------------+----------+-----------+--%s\n",
                updates ? "------------+------------------"
                        : "-----------");
    const RunResult *base =
        findRun(results, results.front().job.workload, "Base");
    if (!base) {
        std::printf("(missing base result)\n");
        return;
    }
    for (const auto &r : results) {
        if (!r.ok) {
            std::printf("%-26s | FAILED: %s\n", r.job.configName.c_str(),
                        r.error.c_str());
            continue;
        }
        const bool is_base = &r.result == base;
        const Norm n = is_base ? Norm{} : normalize(*base, r.result);
        std::printf("%-26s | %-8.3f | %-9.3f | %-13.3f",
                    is_base ? "Base (no mechanisms)"
                            : r.job.configName.c_str(),
                    n.speedup, n.messages, n.remote);
        if (updates && is_base)
            std::printf(" |");
        else if (updates)
            std::printf(" | %llu/%llu",
                        (unsigned long long)r.result.nodes.updatesConsumed,
                        (unsigned long long)r.result.nodes.updatesSent);
        std::printf("\n");
    }
}

/** Table 2 needs no simulation: it instantiates the suite through the
 *  workload registry and reports sizes. */
void
printTable2(const std::vector<JobResult> &, const SweepArgs &a)
{
    std::printf("%-8s | %-42s | %s\n", "App", "Paper problem size",
                "Scaled (this repo)");
    std::printf("---------+-------------------------------------------"
                "-+---------------------------\n");
    for (const auto &name : suiteNames()) {
        auto w = makeRunnerWorkload(name, size(a), a.scale);
        std::printf("%-8s | %-42s | %s\n", name.c_str(),
                    w->paperProblemSize().c_str(),
                    w->scaledProblemSize().c_str());
    }
    std::printf("\nTrace volumes (parallel phase, all %u CPUs):\n",
                size(a));
    for (const auto &name : suiteNames()) {
        auto w = makeRunnerWorkload(name, size(a), a.scale);
        auto *t = dynamic_cast<TraceWorkload *>(w.get());
        std::printf("  %-8s %10zu operations\n", name.c_str(),
                    t ? t->totalOps() : 0);
    }
}

void
printDelegationAblation(const std::vector<JobResult> &results,
                        const SweepArgs &)
{
    std::printf("%-8s | %-12s | %-10s | %-10s | %s\n", "App", "speedup",
                "messages", "remote", "delegations");
    std::printf("---------+--------------+------------+------------+--"
                "----------\n");
    for (const auto &app : suiteNames()) {
        const RunResult *b = findRun(results, app, "base");
        const RunResult *d = findRun(results, app, "delegation");
        if (!b || !d) {
            std::printf("%-8s | (missing result)\n", app.c_str());
            continue;
        }
        const Norm n = normalize(*b, *d);
        std::printf("%-8s | %-12.3f | %-10.3f | %-10.3f | %llu\n",
                    app.c_str(), n.speedup, n.messages, n.remote,
                    (unsigned long long)d->nodes.delegationsGranted);
    }
}

void
printDetectorAblation(const std::vector<JobResult> &results,
                      const SweepArgs &)
{
    const auto speedup = [&](const char *app, const std::string &config) {
        const RunResult *b = findRun(results, app, "base");
        const RunResult *r = findRun(results, app, config);
        return b && r ? normalize(*b, *r).speedup : 0.0;
    };
    std::printf("write-repeat saturation threshold (Em3D, LU):\n");
    std::printf("%-10s | %-14s | %-14s\n", "threshold", "Em3D speedup",
                "LU speedup");
    std::printf("-----------+----------------+----------------\n");
    for (unsigned thr : detectorThresholds) {
        const std::string config = "threshold-" + std::to_string(thr);
        std::printf("%-10u | %-14.3f | %-14.3f\n", thr,
                    speedup("Em3D", config), speedup("LU", config));
    }

    std::printf("\ndirectory cache entries (detector state coverage, "
                "Em3D):\n");
    std::printf("%-10s | %-14s | %s\n", "entries", "speedup",
                "delegations");
    std::printf("-----------+----------------+------------\n");
    for (std::size_t entries : detectorDirCaches) {
        const std::string config = "dir-cache-" + std::to_string(entries);
        const RunResult *r = findRun(results, "Em3D", config);
        std::printf("%-10zu | %-14.3f | %llu\n", entries,
                    speedup("Em3D", config),
                    (unsigned long long)(r ? r->nodes.delegationsGranted
                                           : 0));
    }
}

void
printServe(const std::vector<JobResult> &results, const SweepArgs &)
{
    printJobTable(results, "scenario/nodes/config", 28,
                  {cyclesCol, messagesCol, updatesCol,
                   {"updUsed", 9,
                    [](const RunResult &r) {
                        return r.nodes.updatesConsumed;
                    }},
                   {"missP99", 8,
                    [](const RunResult &r) { return r.missLatencyP99; }}},
                  "base");
}

void
printScale(const std::vector<JobResult> &results, const SweepArgs &)
{
    printJobTable(
        results, "workload/nodes/config", 28,
        {cyclesCol,
         {"remote", 10,
          [](const RunResult &r) { return r.nodes.remoteMisses; }},
         {"racHits", 10, [](const RunResult &r) { return r.nodes.racHits; }},
         {"updSent", 9,
          [](const RunResult &r) { return r.nodes.updatesSent; }}},
        "base");
}

void
printCompare(const std::vector<JobResult> &results, const SweepArgs &)
{
    // "applied" counts refreshes a consumer absorbed: RAC fills for
    // the invalidate-based policies, in-place SHARED-copy refreshes
    // for the update-based ones.
    printJobTable(results, "scenario/nodes/policy", 32,
                  {cyclesCol, messagesCol, updatesCol,
                   {"applied", 9,
                    [](const RunResult &r) {
                        return r.nodes.updatesApplied +
                               r.nodes.updatesConsumed;
                    }}},
                  "mesi-dir");
}

void
printFaults(const std::vector<JobResult> &results, const SweepArgs &)
{
    printJobTable(
        results, "scenario/config", 40,
        {cyclesCol,
         {"nacks", 9,
          [](const RunResult &r) { return r.nodes.nacksReceived; }},
         {"retries", 9, [](const RunResult &r) { return r.nodes.retries; }},
         {"maxRetry", 8,
          [](const RunResult &r) { return r.nodes.maxRetriesPerLine; }},
         {"stormPk", 8,
          [](const RunResult &r) { return r.nodes.nackStormPeak; }},
         {"delayedMsg", 10,
          [](const RunResult &r) { return r.faultDelayedMessages; }},
         {"maxWait", 8,
          [](const RunResult &r) { return r.nodes.maxLineWaitTicks; }},
         {"p99", 8, [](const RunResult &r) { return r.missLatencyP99; }},
         {"qPeak", 6,
          [](const RunResult &r) { return r.nodes.queueDepthPeak; }}},
        nullptr);
}

const char *const scaleHint =
    "one --workload, see 'pcsim list'; --nodes up to 4096";
const char *const serveHint =
    "unknown --scenario or bad --nodes? known scenarios: KVServe, "
    "WorkQueue, RCU, PubSub";
const char *const compareHint =
    "unknown --scenario or bad --nodes? any registry workload is a "
    "valid scenario, see 'pcsim list'";
const char *const faultsHint =
    "unknown --scenario, --arbitration or --workload? scenarios: "
    "gray-links, ni-stalls, hotspot, dir-pressure, storm; "
    "arbitrations: nack-retry, queue, aged-priority; one workload";

/**
 * Run @p set twice and byte-compare the serialized documents.
 * @return 0 when identical, 3 on mismatch.
 */
int
checkDeterminism(const JobSet &set, const RunnerOptions &ropts)
{
    // Serialize without host timing: wall-clock rates differ between
    // two otherwise identical runs.
    const std::string a =
        resultsToJson(runJobs(set, ropts), /*with_timing=*/false).dump(2);
    const std::string b =
        resultsToJson(runJobs(set, ropts), /*with_timing=*/false).dump(2);
    if (a == b) {
        std::fprintf(stderr,
                     "deterministic-check: OK (%zu jobs, %zu bytes "
                     "identical)\n",
                     set.size(), a.size());
        return 0;
    }
    const std::size_t off =
        std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first -
        a.begin();
    std::fprintf(stderr,
                 "deterministic-check: MISMATCH at byte %zu (results "
                 "differ between two identical runs)\n",
                 off);
    return 3;
}

} // namespace

const std::vector<Sweep> &
sweeps()
{
    static const std::vector<Sweep> table = {
        {"fig7", "pcsim-fig7.results.json", figure7Jobs, printFigure7,
         ""},
        {"fig8", "pcsim-fig8.results.json", figure8Jobs, printFigure8,
         ""},
        {"fig9", "pcsim-fig9.results.json", figure9Jobs, printFigure9,
         ""},
        {"fig10", "pcsim-fig10.results.json", figure10Jobs,
         printFigure10, ""},
        {"fig11", "pcsim-fig11.results.json", figure11Jobs,
         [](const std::vector<JobResult> &r, const SweepArgs &) {
             printSizeSweep(r, false);
         },
         ""},
        {"fig12", "pcsim-fig12.results.json", figure12Jobs,
         [](const std::vector<JobResult> &r, const SweepArgs &) {
             printSizeSweep(r, true);
         },
         ""},
        {"table2", "", nullptr, printTable2, ""},
        {"ablation-delegation",
         "pcsim-ablation-delegation.results.json",
         delegationAblationJobs, printDelegationAblation, ""},
        {"ablation-detector", "pcsim-ablation-detector.results.json",
         detectorAblationJobs, printDetectorAblation, ""},
        {"scale", "BENCH_scale.json", scaleJobs, printScale, scaleHint,
         readsWorkload | readsNodeList},
        {"serve", "BENCH_serve.json", serveJobs, printServe, serveHint,
         readsScenarios | readsNodeList},
        {"compare", "BENCH_compare.json", compareJobs, printCompare,
         compareHint, readsScenarios | readsNodeList},
        {"faults", "BENCH_faults.json", faultJobs, printFaults,
         faultsHint, readsWorkload | readsScenarios | readsArbitrations},
        {"qos", "BENCH_qos.json", qosJobs, printFaults, faultsHint,
         readsWorkload | readsScenarios | readsArbitrations},
    };
    return table;
}

const Sweep *
findSweep(const std::string &name)
{
    for (const Sweep &s : sweeps())
        if (name == s.name)
            return &s;
    return nullptr;
}

bool
writeResults(const std::vector<JobResult> &results, const SweepArgs &args)
{
    bool ok = true;
    if (!args.jsonPath.empty())
        ok &= writeTextFile(args.jsonPath,
                            resultsToJson(results, args.timing).dump(2) +
                                "\n");
    if (!args.csvPath.empty())
        ok &= writeTextFile(args.csvPath,
                            resultsToCsv(results, args.timing));
    return ok;
}

int
runSweep(const JobSet &set, const SweepArgs &args,
         const TablePrinter &print)
{
    RunnerOptions ropts;
    ropts.threads = args.threads;
    ropts.progress = !args.quiet;
    if (args.deterministicCheck)
        return checkDeterminism(set, ropts);

    const std::vector<JobResult> results = runJobs(set, ropts);
    const bool io_ok = writeResults(results, args);
    if (args.table && args.jsonPath != "-" && args.csvPath != "-")
        print(results);
    if (!io_ok)
        return 1;
    return std::all_of(results.begin(), results.end(),
                       [](const JobResult &r) { return r.ok; })
               ? 0
               : 2;
}

int
runSweep(const Sweep &s, SweepArgs args)
{
    if (!s.jobs) {
        s.print({}, args);
        return 0;
    }
    const JobSet set = s.jobs(args);
    if (set.empty()) {
        std::fprintf(stderr, "pcsim %s: no jobs (%s)\n", s.name, s.hint);
        return 1;
    }
    if (args.jsonPath.empty())
        args.jsonPath = s.jsonPath;
    return runSweep(set, args, [&](const std::vector<JobResult> &r) {
        std::fprintf(stderr, "results: %s\n", args.jsonPath.c_str());
        s.print(r, args);
    });
}

} // namespace runner
} // namespace pcsim

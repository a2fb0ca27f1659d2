/**
 * @file
 * `pcsim` -- unified experiment-runner CLI.
 *
 *   pcsim run   --workload em3d --config pcopt --json out.json
 *   pcsim sweep fig7 -j8
 *   pcsim list
 *
 * `run` executes a (workload x config x seed) cartesian product built
 * from comma-separated lists; `sweep NAME` (and `scale`, `serve`,
 * `compare`, `faults`, `qos`) runs an entry of the sweep registry
 * (src/runner/sweeps.hh) through the same runner and prints its table
 * from the results. Simulations are deterministic, so
 * `--deterministic-check` (run everything twice and byte-compare the
 * serialized results) should never fail; CI wires it in as a
 * regression tripwire.
 */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/protocol/policy.hh"
#include "src/runner/bench.hh"
#include "src/runner/job.hh"
#include "src/runner/results.hh"
#include "src/runner/runner.hh"
#include "src/runner/sweeps.hh"
#include "src/runner/trace_cmd.hh"
#include "src/trace/format.hh"
#include "src/verify/lint.hh"
#include "src/verify/liveness.hh"
#include "src/verify/mdg.hh"
#include "src/verify/spec.hh"

using namespace pcsim;

namespace
{

/** One row of the generated usage table: every subcommand registers
 *  here, so `pcsim help` can never drift out of sync with dispatch. */
struct CommandInfo
{
    const char *name;
    const char *synopsis;
    const char *oneline;
};

const CommandInfo commandTable[] = {
    {"run", "--workload <names> [--config <names>] [options]",
     "cartesian (workload x config x seed) simulation runs"},
    {"sweep", "NAME [options]",
     "run a registered sweep (names below)"},
    {"scale", "[--nodes n,m,...] [--workload W] [options]",
     "node-count scaling sweep (base/delegation/delegate-update)"},
    {"serve", "[--scenario a,b] [--nodes n,m] [options]",
     "datacenter serving-workload sweep (KVServe/WorkQueue/RCU/PubSub)"},
    {"compare", "[--scenario a,b] [--nodes n,m] [options]",
     "coherence-policy bake-off across every registered policy"},
    {"trace record", "[--workload W] [--config C] -o FILE [options]",
     "capture a run's memory-op stream as a binary PCTR trace"},
    {"trace replay", "FILE [options]",
     "re-drive the simulator from a trace; stats match the source run"},
    {"trace info", "FILE", "print a trace file's header"},
    {"bench", "[--json PATH] [--baseline PATH] [options]",
     "simulation-kernel microbenchmarks"},
    {"faults", "[--scenario a,b] [--arbitration a,b] [options]",
     "fault-injection robustness sweep"},
    {"qos", "[--scenario a,b] [--arbitration a,b] [options]",
     "fairness bake-off of the directory arbitration modes"},
    {"lint",
     "[--liveness|--mdg] [--no-mc] [--policy P] "
     "[--coverage results.json] [options]",
     "static checks of the protocol transition specs"},
    {"list", "", "list workloads and configuration presets"},
    {"help", "", "show this text"},
};

/** True when @p name is a command of the table above. */
bool
isCommand(const std::string &name)
{
    return std::any_of(std::begin(commandTable), std::end(commandTable),
                       [&](const CommandInfo &c) { return name == c.name; });
}

/** The registry's sweep names, comma-separated. */
std::string
sweepNames()
{
    std::string out;
    for (const auto &s : runner::sweeps())
        out += (out.empty() ? "" : ", ") + std::string(s.name);
    return out;
}

int
usage(std::FILE *out)
{
    std::fprintf(out,
"pcsim - producer-consumer coherence protocol experiment runner\n"
"\n"
"usage: pcsim <command> [options]\n"
"\n"
"commands:\n");
    for (const auto &c : commandTable) {
        std::fprintf(out, "  %-13s %s\n", c.name, c.oneline);
        if (c.synopsis[0])
            std::fprintf(out, "  %-13s   pcsim %s %s\n", "", c.name,
                         c.synopsis);
    }
    std::fprintf(out, "\nsweep names:\n ");
    std::size_t col = 1;
    for (const auto &s : runner::sweeps()) {
        if (col + std::strlen(s.name) >= 72) {
            std::fprintf(out, "\n ");
            col = 1;
        }
        col += std::fprintf(out, " %s", s.name);
    }
    std::fprintf(out,
"\n"
"\n"
"run selection:\n"
"  --workload a,b         workload names, case-insensitive\n"
"                         (micro is an alias for PCmicro)\n"
"  --config a,b           machine presets (default: base)\n"
"  --seeds n,m            seeds, one job per seed (default: 1)\n"
"  --nodes N              machine size (default: 16); scale takes a\n"
"                         comma-separated list (default: 16..1024)\n"
"  --coarse K             nodes per directory sharer bit (power of\n"
"                         two; default 1 = exact vector)\n"
"  --scale F              workload scale factor (default: 1)\n"
"  --checker              enable the coherence invariant checker\n"
"  --conformance          enable the protocol-spec conformance hook\n"
"                         (fails the run on out-of-spec transitions\n"
"                         and records transition coverage)\n"
"\n"
"lint (static checks of the declarative protocol transition specs):\n"
"  --no-mc                skip the model-checker cross-check\n"
"  --policy P             spec to lint: one registered policy name\n"
"                         (mesi-dir, delegation, delegation-updates,\n"
"                         write-update, adaptive-hybrid) or 'all'\n"
"                         (default: delegation-updates, the shipped\n"
"                         full-protocol spec)\n"
"  --coverage PATH        report never-exercised legal transitions\n"
"                         from a results JSON written by runs with\n"
"                         --conformance\n"
"  --mdg                  message-dependency-graph pass: derive the\n"
"                         type-level dependence graph from the spec's\n"
"                         allowed-sends sets and flag channel-class\n"
"                         cycles, unprotected request forwards,\n"
"                         undeliverable sends and per-rule channel-\n"
"                         capacity violations (default policy: all)\n"
"  --liveness             liveness pass: explore the src/mc model's\n"
"                         state graph and flag livelock lassos (non-\n"
"                         progress cycles under fairness) and hard\n"
"                         deadlocks, with step-by-step witnesses\n"
"                         (default policy: all)\n"
"  --repro PATH           with --liveness: write the first witness's\n"
"                         CPU-op schedule as a replayable PCTR trace\n"
"  exit status: 0 clean, 1 usage/io error, 2 findings\n"
"\n"
"scale (node-count scaling sweep of base/delegation/delegate-update):\n"
"  --nodes n,m            machine sizes (default: 16,32,64,128,256,\n"
"                         512,1024; any value up to 4096 validates;\n"
"                         exact sharer vectors throughout, use\n"
"                         --coarse with 'run' to study coarse\n"
"                         directories at the top sizes)\n"
"  --workload W           workload per point (default: Em3D)\n"
"  --scale F              relative to the sweep's scale 0.25\n"
"                         (default: 1)\n"
"  default --json is BENCH_scale.json\n"
"\n"
"faults (fault-injection robustness sweep; checker + conformance are\n"
"always on, and exponential retry backoff is enabled):\n"
"  --scenario a,b         fault scenarios (default: all): gray-links,\n"
"                         ni-stalls, hotspot, dir-pressure, storm\n"
"  --workload W           workload per point (default: PCmicro)\n"
"  --arbitration a,b      directory arbitration modes to cross with\n"
"                         the scenarios (default: nack-retry):\n"
"                         nack-retry, queue, aged-priority\n"
"  default --json is BENCH_faults.json\n"
"\n"
"qos (fairness bake-off; the faults sweep restricted to the\n"
"contention scenarios and crossed with every arbitration mode):\n"
"  --scenario a,b         scenarios (default: storm,hotspot)\n"
"  --arbitration a,b      modes (default: all three)\n"
"  default --json is BENCH_qos.json\n"
"\n"
"serve (serving sweep of base/delegation/delegate-update):\n"
"  --scenario a,b         scenarios (default: all): KVServe,\n"
"                         WorkQueue, RCU, PubSub\n"
"  --nodes n,m            machine sizes (default: 16,64; any value\n"
"                         up to 4096 validates)\n"
"  default --json is BENCH_serve.json\n"
"\n"
"compare (bake-off of every registered coherence policy: mesi-dir,\n"
"delegation, delegation-updates, write-update, adaptive-hybrid):\n"
"  --scenario a,b         scenarios (default: PCmicro,PubSub); any\n"
"                         registry workload is accepted\n"
"  --nodes n,m            machine sizes (default: 16,64)\n"
"  default --json is BENCH_compare.json\n"
"\n"
"trace (binary PCTR op traces; see src/trace/format.hh):\n"
"  -o, --output FILE      (record) trace file to write (required)\n"
"  --text                 (record) ingest per-core text trace files\n"
"                         given as positional args ('<label> <hex>'\n"
"                         lines; 0 = load, 1 = store, 2 = compute\n"
"                         cycles) instead of simulating\n"
"  --config C             (replay) override the header's machine\n"
"                         preset (ingested traces default to base)\n"
"\n"
"bench options:\n"
"  --events N             events per kernel microbenchmark\n"
"                         (default: 2000000)\n"
"  --repeats N            repeats per benchmark, best wall time\n"
"                         reported (default: 3)\n"
"  --baseline PATH        prior bench JSON; adds per-benchmark\n"
"                         speedup columns\n"
"\n"
"common options:\n"
"  -j N, --jobs N         worker threads; 0 = all cores\n"
"                         (default: 1 for run, all cores for sweep)\n"
"  --json PATH            write JSON results; '-' = stdout\n"
"  --csv PATH             write CSV results; '-' = stdout\n"
"  --timing               include host wall-clock perf rates in the\n"
"                         outputs (breaks cross-host byte identity)\n"
"  --deterministic-check  run every job twice, byte-compare the\n"
"                         serialized results; exit 3 on mismatch\n"
"  --no-table             skip the printed table\n"
"  --quiet                suppress per-job progress on stderr\n"
"\n"
"exit status: 0 ok, 1 usage error, 2 job failed, 3 non-deterministic\n");
    return out == stderr ? 1 : 0;
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        std::size_t comma = s.find(',', start);
        if (comma == std::string::npos)
            comma = s.size();
        if (comma > start)
            out.push_back(s.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

struct Options
{
    std::string command;
    /** Workloads, scenarios, sizes, scale, seeds, -j, outputs. */
    runner::SweepArgs args;
    std::vector<std::string> configs{"base"};
    bool configsSet = false;
    unsigned nodes = 16; ///< run/trace: the first --nodes value
    unsigned coarse = 1; ///< nodes per sharer bit (power of two)
    bool checker = false;
    bool conformance = false;
    bool lintMc = true;           ///< lint: run the model cross-check
    std::string lintPolicy;       ///< lint: policy spec name or "all"
    std::string coveragePath;     ///< lint: results doc for coverage
    std::string lintMode;         ///< lint: "", "mdg" or "liveness"
    std::string reproPath;        ///< lint --liveness: PCTR repro out
    bool threadsSet = false;

    // bench
    std::uint64_t benchEvents = 2000000;
    unsigned benchRepeats = 3;
    std::string baselinePath;

    // trace
    std::string outputPath;                ///< -o / --output
    bool textMode = false;                 ///< record: --text ingest
    std::vector<std::string> positional;   ///< trace file operands
};

/** Fetch the value of --opt VALUE / --opt=VALUE; nullptr on error. */
const char *
argValue(int argc, char **argv, int &i, const char *inline_value)
{
    if (inline_value)
        return inline_value;
    if (i + 1 >= argc) {
        std::fprintf(stderr, "pcsim: %s needs a value\n", argv[i]);
        return nullptr;
    }
    return argv[++i];
}

/**
 * Parse @p v, the value of option @p opt, as a base-10 integer in
 * [@p lo, @p hi] spelled by the whole string: no sign, space, suffix
 * or exponent. On failure print "pcsim: bad <opt> '<v>'" and return
 * false.
 */
template <typename T>
bool
parseNumber(const std::string &opt, const std::string &v, T &out,
            T lo = 0, T hi = std::numeric_limits<T>::max())
{
    T x = 0;
    const char *end = v.data() + v.size();
    const auto [ptr, ec] = std::from_chars(v.data(), end, x);
    if (ec != std::errc() || ptr != end || x < lo || x > hi) {
        std::fprintf(stderr, "pcsim: bad %s '%s'\n", opt.c_str(),
                     v.c_str());
        return false;
    }
    out = x;
    return true;
}

bool
parseArgs(int argc, char **argv, Options &opt, int first = 2)
{
    for (int i = first; i < argc; ++i) {
        std::string arg = argv[i];
        const char *inline_value = nullptr;
        const std::size_t eq = arg.find('=');
        if (arg.size() > 2 && arg[0] == '-' && arg[1] == '-' &&
            eq != std::string::npos) {
            inline_value = argv[i] + eq + 1;
            arg = arg.substr(0, eq);
        }
        // -jN shorthand.
        if (arg.size() > 2 && arg.compare(0, 2, "-j") == 0 &&
            arg[2] >= '0' && arg[2] <= '9') {
            inline_value = argv[i] + 2;
            arg = "-j";
        }

        const auto value = [&]() {
            return argValue(argc, argv, i, inline_value);
        };

        if (arg == "--workload" || arg == "--workloads") {
            const char *v = value();
            if (!v)
                return false;
            opt.args.workloads = splitList(v);
        } else if (arg == "--config" || arg == "--configs") {
            const char *v = value();
            if (!v)
                return false;
            opt.configs = splitList(v);
            opt.configsSet = true;
        } else if (arg == "--seed" || arg == "--seeds") {
            const char *v = value();
            if (!v)
                return false;
            opt.args.seeds.clear();
            for (const auto &s : splitList(v)) {
                std::uint64_t seed = 0;
                if (!parseNumber(arg, s, seed))
                    return false;
                opt.args.seeds.push_back(seed);
            }
            if (opt.args.seeds.empty())
                opt.args.seeds.push_back(1);
            if (opt.args.seeds.size() > 1 && opt.command != "run") {
                std::fprintf(stderr,
                             "pcsim: %s takes one value outside 'pcsim "
                             "run'\n",
                             arg.c_str());
                return false;
            }
        } else if (arg == "--nodes") {
            const char *v = value();
            if (!v)
                return false;
            opt.args.nodes.clear();
            for (const auto &s : splitList(v)) {
                unsigned n = 0;
                if (!parseNumber(arg, s, n, 1u))
                    return false;
                opt.args.nodes.push_back(n);
            }
            if (opt.args.nodes.empty()) {
                std::fprintf(stderr, "pcsim: bad --nodes '%s'\n", v);
                return false;
            }
            opt.nodes = opt.args.nodes.front();
            if (opt.args.nodes.size() > 1 && opt.command != "scale" &&
                opt.command != "serve" && opt.command != "compare") {
                std::fprintf(stderr,
                             "pcsim: --nodes takes one value outside "
                             "'pcsim scale', 'pcsim serve' and 'pcsim "
                             "compare'\n");
                return false;
            }
        } else if (arg == "--coarse") {
            const char *v = value();
            if (!v)
                return false;
            if (!parseNumber(arg, v, opt.coarse))
                return false;
            if (!isPowerOfTwo(opt.coarse)) {
                std::fprintf(stderr, "pcsim: --coarse '%s' must be a "
                                     "power of two >= 1\n",
                             v);
                return false;
            }
        } else if (arg == "--scale") {
            const char *v = value();
            if (!v)
                return false;
            char *end = nullptr;
            opt.args.scale = std::strtod(v, &end);
            if (end == v || *end != '\0' || !(opt.args.scale > 0) ||
                !std::isfinite(opt.args.scale)) {
                std::fprintf(stderr, "pcsim: bad --scale '%s'\n", v);
                return false;
            }
        } else if (arg == "-j" || arg == "--jobs") {
            const char *v = value();
            if (!v)
                return false;
            if (!parseNumber(arg, v, opt.args.threads))
                return false;
            opt.threadsSet = true;
        } else if (arg == "--json") {
            const char *v = value();
            if (!v)
                return false;
            opt.args.jsonPath = v;
        } else if (arg == "--csv") {
            const char *v = value();
            if (!v)
                return false;
            opt.args.csvPath = v;
        } else if (arg == "--scenario" || arg == "--scenarios") {
            const char *v = value();
            if (!v)
                return false;
            opt.args.scenarios = splitList(v);
        } else if (arg == "--arbitration" ||
                   arg == "--arbitrations") {
            const char *v = value();
            if (!v)
                return false;
            opt.args.arbitrations = splitList(v);
        } else if (arg == "--events") {
            const char *v = value();
            if (!v)
                return false;
            if (!parseNumber(arg, v, opt.benchEvents, std::uint64_t(1)))
                return false;
        } else if (arg == "--repeats") {
            if (opt.command != "bench") {
                std::fprintf(stderr, "pcsim: --repeats applies only to "
                                     "'pcsim bench'\n");
                return false;
            }
            const char *v = value();
            if (!v)
                return false;
            if (!parseNumber(arg, v, opt.benchRepeats, 1u))
                return false;
        } else if (arg == "--baseline") {
            const char *v = value();
            if (!v)
                return false;
            opt.baselinePath = v;
        } else if (arg == "--output" || arg == "-o") {
            const char *v = value();
            if (!v)
                return false;
            opt.outputPath = v;
        } else if (arg == "--text") {
            opt.textMode = true;
        } else if (arg == "--timing") {
            opt.args.timing = true;
        } else if (arg == "--checker") {
            opt.checker = true;
        } else if (arg == "--conformance") {
            opt.conformance = true;
        } else if (arg == "--no-mc") {
            opt.lintMc = false;
        } else if (arg == "--policy") {
            const char *v = value();
            if (!v)
                return false;
            opt.lintPolicy = v;
        } else if (arg == "--coverage") {
            const char *v = value();
            if (!v)
                return false;
            opt.coveragePath = v;
        } else if (arg == "--mdg") {
            opt.lintMode = "mdg";
        } else if (arg == "--liveness") {
            opt.lintMode = "liveness";
        } else if (arg == "--repro") {
            const char *v = value();
            if (!v)
                return false;
            opt.reproPath = v;
        } else if (arg == "--deterministic-check") {
            opt.args.deterministicCheck = true;
        } else if (arg == "--no-table") {
            opt.args.table = false;
        } else if (arg == "--quiet" || arg == "-q") {
            opt.args.quiet = true;
        } else if (arg.size() && arg[0] != '-' &&
                   opt.command == "trace") {
            opt.positional.push_back(argv[i]);
        } else {
            std::fprintf(stderr, "pcsim: unknown option '%s'\n",
                         argv[i]);
            return false;
        }
    }
    return true;
}

int
listCommand()
{
    std::printf("workloads:\n");
    for (const auto &w : runner::workloadNames())
        std::printf("  %s\n", w.c_str());
    std::printf("\nconfigurations (16-node presets, see "
                "src/system/presets.hh):\n");
    std::printf("  %-12s baseline directory protocol\n", "base");
    std::printf("  %-12s base + 32K remote access cache (alias: "
                "rac)\n",
                "rac32k");
    std::printf("  %-12s base + 1M remote access cache\n", "rac1m");
    std::printf("  %-12s 32-entry deledc & 32K RAC (alias: pcopt)\n",
                "small");
    std::printf("  %-12s 1K-entry deledc & 1M RAC (alias: "
                "pcopt-large)\n",
                "large");
    std::printf("  %-12s delegation without speculative updates\n",
                "delegation");
    std::printf("  %-12s Dragon-style write-update protocol (alias: "
                "update)\n",
                "write-update");
    std::printf("  %-12s write-update with per-line self-"
                "invalidation (alias: adaptive)\n",
                "adaptive-hybrid");
    std::printf("\ncoherence policies (pcsim compare / lint "
                "--policy):\n");
    for (ProtocolKind kind : registeredPolicyKinds())
        std::printf("  %s\n", policyFor(kind).name());
    return 0;
}

/** The `run` table: one row per job. */
void
printRunTable(const std::vector<runner::JobResult> &results)
{
    std::printf("%-24s | %-12s | %-12s | %-12s\n", "job", "cycles",
                "remote miss", "messages");
    for (const auto &r : results) {
        if (r.ok)
            std::printf("%-24s | %-12llu | %-12llu | %-12llu\n",
                        r.job.label.c_str(),
                        (unsigned long long)r.result.cycles,
                        (unsigned long long)r.result.nodes.remoteMisses,
                        (unsigned long long)r.result.netMessages);
        else
            std::printf("%-24s | FAILED: %s\n", r.job.label.c_str(),
                        r.error.c_str());
    }
}

int
runCommand(Options opt)
{
    if (opt.args.workloads.empty()) {
        std::fprintf(stderr,
                     "pcsim run: --workload is required (try 'pcsim "
                     "list')\n");
        return 1;
    }

    runner::JobSet set;
    for (const auto &w : opt.args.workloads) {
        const std::string canonical = runner::canonicalWorkload(w);
        if (canonical.empty()) {
            std::fprintf(stderr, "pcsim: unknown workload '%s'\n",
                         w.c_str());
            return 1;
        }
        for (const auto &c : opt.configs) {
            MachineConfig cfg;
            std::string cname;
            if (!runner::namedMachineConfig(c, opt.nodes, cfg,
                                            cname)) {
                std::fprintf(stderr, "pcsim: unknown config '%s'\n",
                             c.c_str());
                return 1;
            }
            cfg.proto.checkerEnabled = opt.checker;
            cfg.proto.conformanceEnabled = opt.conformance;
            cfg.proto.sharerGranularityLog2 = log2Ceil(opt.coarse);
            const std::string verr = cfg.proto.validateError();
            if (!verr.empty()) {
                std::fprintf(stderr,
                             "pcsim: invalid configuration '%s' at "
                             "%u nodes: %s\n",
                             cname.c_str(), opt.nodes, verr.c_str());
                return 1;
            }
            for (std::uint64_t seed : opt.args.seeds) {
                runner::Job j;
                j.workload = canonical;
                j.cfg = cfg;
                j.configName = cname;
                j.seed = seed;
                j.scale = opt.args.scale;
                set.add(std::move(j));
            }
        }
    }
    if (!opt.threadsSet)
        opt.args.threads = 1;
    return runner::runSweep(set, opt.args, printRunTable);
}

int
lintCoverage(const Options &opt)
{
    const verify::TransitionSpec &spec = verify::protocolSpec();

    std::string text;
    if (!runner::readTextFile(opt.coveragePath, text)) {
        std::fprintf(stderr, "pcsim lint: cannot read '%s'\n",
                     opt.coveragePath.c_str());
        return 1;
    }
    JsonValue doc;
    try {
        doc = JsonValue::parse(text);
    } catch (const JsonParseError &e) {
        std::fprintf(stderr, "pcsim lint: '%s' is not valid JSON: %s\n",
                     opt.coveragePath.c_str(), e.what());
        return 1;
    }

    // Merge the conformance blocks of every result in the document.
    std::vector<verify::TransitionCount> observed;
    const JsonValue *arr = doc.find("results");
    if (!arr || !arr->isArray()) {
        std::fprintf(stderr,
                     "pcsim lint: '%s' has no \"results\" array\n",
                     opt.coveragePath.c_str());
        return 1;
    }
    unsigned with_conformance = 0;
    for (std::size_t i = 0; i < arr->size(); ++i) {
        const JsonValue *conf = arr->at(i).find("conformance");
        if (!conf)
            continue;
        ++with_conformance;
        try {
            const std::vector<verify::TransitionCount> counts =
                runner::conformanceFromJson(*conf);
            observed.insert(observed.end(), counts.begin(),
                            counts.end());
        } catch (const std::invalid_argument &e) {
            std::fprintf(stderr,
                         "pcsim lint: '%s': results[%zu].conformance."
                         "%s\n",
                         opt.coveragePath.c_str(), i, e.what());
            return 1;
        }
    }
    if (!with_conformance) {
        std::fprintf(stderr,
                     "pcsim lint: no result in '%s' carries "
                     "conformance data (re-run with --conformance)\n",
                     opt.coveragePath.c_str());
        return 1;
    }

    const verify::CoverageReport rep =
        verify::computeCoverage(spec, observed);
    bool io_ok = true;
    if (!opt.args.jsonPath.empty())
        io_ok &= runner::writeTextFile(
            opt.args.jsonPath,
            verify::coverageToJson(spec, rep).dump(2) + "\n");
    if (!opt.args.csvPath.empty())
        io_ok &= runner::writeTextFile(
            opt.args.csvPath, verify::coverageToCsv(spec, rep));

    if (opt.args.jsonPath != "-" && opt.args.csvPath != "-") {
        std::printf("coverage: %llu of %llu legal transitions "
                    "exercised, %llu never seen\n",
                    (unsigned long long)rep.exercised,
                    (unsigned long long)rep.legal,
                    (unsigned long long)(rep.legal - rep.exercised));
        for (const auto &row : rep.rows) {
            if (row.count)
                continue;
            std::printf("  missing %-8s %-10s --%s--> %s\n",
                        verify::ctrlName(row.ctrl),
                        spec.stateName(row.ctrl, row.state).c_str(),
                        verify::eventName(row.event),
                        spec.stateName(row.ctrl, row.next).c_str());
        }
    }
    return io_ok ? 0 : 1;
}

/** Print one policy's lint report (the classic text rendering). */
void
printLintReport(const verify::TransitionSpec &spec,
                const verify::LintReport &rep, const char *label)
{
    if (label)
        std::printf("policy %s:\n", label);
    std::printf("spec: %zu rules, %zu impossible pairs\n",
                spec.rules().size(), spec.impossible().size());
    if (rep.mcConfigs) {
        std::printf("model cross-check: %llu configs, %llu states, "
                    "%llu distinct transitions\n",
                    (unsigned long long)rep.mcConfigs,
                    (unsigned long long)rep.mcStates,
                    (unsigned long long)rep.mcObserved);
    }
    for (const auto &f : rep.findings) {
        std::string where = f.ctrl;
        if (!f.state.empty())
            where += " " + f.state;
        if (!f.event.empty())
            where += " x " + f.event;
        std::printf("%s: %s: %s\n", f.kind.c_str(), where.c_str(),
                    f.detail.c_str());
    }
    if (rep.clean())
        std::printf("lint: clean\n");
    else
        std::printf("lint: %zu finding(s)\n", rep.findings.size());
}

/** Lint one policy's spec; prints the findings and the summary line
 *  (prefixed with the policy name when @p label is set). */
int
lintOneSpec(const Options &opt, const verify::TransitionSpec &spec,
            verify::McCheckSet mc_set, const char *label)
{
    const verify::LintReport rep =
        opt.lintMc ? verify::lintSpecWithModel(spec, mc_set)
                   : verify::lintSpec(spec);

    bool io_ok = true;
    if (!opt.args.jsonPath.empty())
        io_ok &= runner::writeTextFile(
            opt.args.jsonPath, verify::lintToJson(spec, rep).dump(2) + "\n");
    if (!opt.args.csvPath.empty())
        io_ok &= runner::writeTextFile(opt.args.csvPath,
                                       verify::lintToCsv(rep));

    if (opt.args.jsonPath != "-" && opt.args.csvPath != "-")
        printLintReport(spec, rep, label);
    if (!io_ok)
        return 1;
    return rep.clean() ? 0 : 2;
}

/** One policy selected for a lint pass. */
struct PolicySel
{
    std::string name;
    const verify::TransitionSpec *spec;
    verify::McCheckSet set;
};

/** Resolve --policy for the mdg/liveness passes ("" means all). */
bool
resolvePolicies(const std::string &which, std::vector<PolicySel> &out)
{
    if (which.empty() || which == "all") {
        for (ProtocolKind kind : registeredPolicyKinds()) {
            const CoherencePolicy &p = policyFor(kind);
            out.push_back({p.name(), &p.spec(), modelCheckSetFor(kind)});
        }
        return true;
    }
    ProtocolKind kind;
    if (!protocolKindFromName(which, kind)) {
        std::fprintf(stderr,
                     "pcsim lint: unknown policy '%s' (pick one of "
                     "mesi-dir, delegation, delegation-updates, "
                     "write-update, adaptive-hybrid, or 'all')\n",
                     which.c_str());
        return false;
    }
    const CoherencePolicy &p = policyFor(kind);
    out.push_back({p.name(), &p.spec(), modelCheckSetFor(kind)});
    return true;
}

int
lintMdgCommand(const Options &opt)
{
    std::vector<PolicySel> sels;
    if (!resolvePolicies(opt.lintPolicy, sels))
        return 1;

    JsonValue policies = JsonValue::array();
    std::size_t total = 0;
    for (const PolicySel &sel : sels) {
        const verify::MdgReport rep = verify::analyzeMdg(*sel.spec);
        policies.push(verify::mdgPolicyJson(sel.name, *sel.spec, rep));
        if (opt.args.jsonPath != "-") {
            std::printf("policy %s: %zu message types, %zu edges, "
                        "%zu sinks (%llu requester-bound, %llu "
                        "nack-protected edges exempt)\n",
                        sel.name.c_str(), rep.messages.size(),
                        rep.edges.size(), rep.sinks.size(),
                        (unsigned long long)rep.reissueEdges,
                        (unsigned long long)rep.nackProtectedEdges);
            for (const auto &f : rep.findings) {
                std::string where = f.ctrl;
                if (!f.state.empty())
                    where += " " + f.state;
                if (!f.event.empty())
                    where += (where.empty() ? "" : " x ") + f.event;
                std::printf("%s: %s: %s\n", f.kind.c_str(),
                            where.c_str(), f.detail.c_str());
            }
        }
        total += rep.findings.size();
    }

    bool io_ok = true;
    if (!opt.args.jsonPath.empty())
        io_ok &= runner::writeTextFile(
            opt.args.jsonPath,
            verify::lintFindingsDocument("mdg", std::move(policies))
                    .dump(2) +
                "\n");
    if (opt.args.jsonPath != "-") {
        if (total)
            std::printf("mdg: %zu finding(s)\n", total);
        else
            std::printf("mdg: clean\n");
    }
    if (!io_ok)
        return 1;
    return total ? 2 : 0;
}

/** Write the first witness carrying CPU ops as a PCTR repro trace. */
bool
writeLivenessRepro(const std::string &path, const std::string &config,
                   unsigned nodes,
                   const std::vector<verify::WitnessOp> &ops)
{
    std::vector<std::vector<MemOp>> per_node(nodes);
    for (const verify::WitnessOp &op : ops)
        per_node[op.node].push_back(op.isWrite ? MemOp::write(0)
                                               : MemOp::read(0));
    trace::TraceMeta meta;
    meta.nodeCount = nodes;
    meta.workload = "lint-liveness";
    meta.config = config;
    try {
        trace::writeTraceFile(path, meta, per_node);
    } catch (const trace::TraceError &e) {
        std::fprintf(stderr, "pcsim lint: %s\n", e.what());
        return false;
    }
    return true;
}

int
lintLivenessCommand(const Options &opt)
{
    std::vector<PolicySel> sels;
    if (!resolvePolicies(opt.lintPolicy, sels))
        return 1;

    JsonValue policies = JsonValue::array();
    std::size_t total = 0;
    bool io_ok = true;
    bool wrote_repro = false;
    for (const PolicySel &sel : sels) {
        const verify::LivenessReport rep =
            verify::analyzeLiveness(sel.set);
        policies.push(verify::livenessPolicyJson(sel.name, rep));
        if (opt.args.jsonPath != "-") {
            std::printf("policy %s:\n", sel.name.c_str());
            for (const auto &c : rep.configs) {
                std::printf("  config %s: %llu states, %llu edges "
                            "(%llu progress), %llu quiescent%s\n",
                            c.name.c_str(),
                            (unsigned long long)c.states,
                            (unsigned long long)c.edges,
                            (unsigned long long)c.progressEdges,
                            (unsigned long long)c.quiescentStates,
                            c.completed ? "" : " [state limit hit]");
            }
            for (const auto &f : rep.findings) {
                std::printf("%s (%s): %s\n", f.kind.c_str(),
                            f.config.c_str(), f.detail.c_str());
                std::printf("  witness prefix (%zu steps):\n",
                            f.witness.prefix.size());
                for (std::size_t i = 0; i < f.witness.prefix.size();
                     ++i)
                    std::printf("    %3zu. %s\n", i + 1,
                                f.witness.prefix[i].c_str());
                if (!f.witness.cycle.empty()) {
                    std::printf("  non-progress cycle (%zu steps):\n",
                                f.witness.cycle.size());
                    for (std::size_t i = 0;
                         i < f.witness.cycle.size(); ++i)
                        std::printf("    %3zu. %s\n", i + 1,
                                    f.witness.cycle[i].c_str());
                }
            }
        }
        total += rep.findings.size();

        if (!opt.reproPath.empty() && !wrote_repro) {
            for (const auto &f : rep.findings) {
                if (f.witness.ops.empty())
                    continue;
                io_ok &= writeLivenessRepro(opt.reproPath, f.config, 3,
                                            f.witness.ops);
                wrote_repro = true;
                if (opt.args.jsonPath != "-")
                    std::printf("repro trace written to %s\n",
                                opt.reproPath.c_str());
                break;
            }
        }
    }

    if (!opt.args.jsonPath.empty())
        io_ok &= runner::writeTextFile(
            opt.args.jsonPath,
            verify::lintFindingsDocument("liveness",
                                         std::move(policies))
                    .dump(2) +
                "\n");
    if (opt.args.jsonPath != "-") {
        if (total)
            std::printf("liveness: %zu finding(s)\n", total);
        else
            std::printf("liveness: clean\n");
    }
    if (!io_ok)
        return 1;
    return total ? 2 : 0;
}

int
lintCommand(const Options &opt)
{
    if (!opt.coveragePath.empty())
        return lintCoverage(opt);

    if (opt.lintMode == "mdg")
        return lintMdgCommand(opt);
    if (opt.lintMode == "liveness")
        return lintLivenessCommand(opt);

    if (opt.lintPolicy.empty()) {
        // Historical default: the shipped full-protocol spec, checked
        // against the MESI-dir + delegation model family (keeps the
        // committed lint_clean.json byte-identical).
        return lintOneSpec(opt, verify::protocolSpec(),
                           verify::McCheckSet::MesiDele, nullptr);
    }

    if (opt.lintPolicy == "all") {
        if (!opt.args.csvPath.empty()) {
            std::fprintf(stderr,
                         "pcsim lint: --policy=all cannot combine "
                         "with --csv (lint one policy per CSV)\n");
            return 1;
        }
        // With --json the per-policy documents combine into one
        // {"mode": "spec"} envelope; without it, print each policy.
        JsonValue policies = JsonValue::array();
        int worst = 0;
        for (ProtocolKind kind : registeredPolicyKinds()) {
            const CoherencePolicy &p = policyFor(kind);
            const verify::LintReport rep =
                opt.lintMc ? verify::lintSpecWithModel(
                                 p.spec(), modelCheckSetFor(kind))
                           : verify::lintSpec(p.spec());
            if (!opt.args.jsonPath.empty())
                policies.push(
                    verify::lintPolicyJson(p.name(), p.spec(), rep));
            if (opt.args.jsonPath != "-")
                printLintReport(p.spec(), rep, p.name());
            worst = std::max(worst, rep.clean() ? 0 : 2);
        }
        if (!opt.args.jsonPath.empty()) {
            if (!runner::writeTextFile(
                    opt.args.jsonPath,
                    verify::lintFindingsDocument("spec",
                                                 std::move(policies))
                            .dump(2) +
                        "\n"))
                return 1;
        }
        return worst;
    }

    ProtocolKind kind;
    if (!protocolKindFromName(opt.lintPolicy, kind)) {
        std::fprintf(stderr,
                     "pcsim lint: unknown policy '%s' (pick one of "
                     "mesi-dir, delegation, delegation-updates, "
                     "write-update, adaptive-hybrid, or 'all')\n",
                     opt.lintPolicy.c_str());
        return 1;
    }
    const CoherencePolicy &p = policyFor(kind);
    return lintOneSpec(opt, p.spec(), modelCheckSetFor(kind),
                       p.name());
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(stderr);
    const std::string cmd = argv[1];
    if (cmd == "help" || cmd == "--help" || cmd == "-h")
        return usage(stdout);
    if (cmd == "list")
        return listCommand();

    Options opt;
    opt.command = cmd;
    // `pcsim trace <action> ...` and `pcsim sweep <name> ...`: the
    // operand comes before the options.
    std::string operand;
    int first = 2;
    if (cmd == "trace" || cmd == "sweep") {
        if (argc < 3 || argv[2][0] == '-') {
            std::fprintf(stderr, "pcsim %s: pick %s\n", cmd.c_str(),
                         cmd == "trace"
                             ? "record, replay or info"
                             : ("one of " + sweepNames()).c_str());
            return 1;
        }
        operand = argv[2];
        first = 3;
    }
    // scale, serve, compare, faults and qos are registry entries too.
    const runner::Sweep *sweep = nullptr;
    if (cmd == "sweep") {
        sweep = runner::findSweep(operand);
        if (!sweep) {
            std::fprintf(stderr,
                         "pcsim sweep: unknown sweep '%s' (pick one of "
                         "%s)\n",
                         operand.c_str(), sweepNames().c_str());
            return 1;
        }
        opt.command = sweep->name;
    } else if (isCommand(cmd)) {
        sweep = runner::findSweep(cmd);
    }
    if (!parseArgs(argc, argv, opt, first))
        return 1;
    if (sweep)
        return runner::runSweep(*sweep, opt.args);

    if (cmd == "trace") {
        if (operand == "record") {
            runner::TraceRecordOptions topt;
            topt.args = opt.args;
            topt.config = opt.configs.front();
            topt.outPath = opt.outputPath;
            if (opt.textMode) {
                if (opt.positional.empty()) {
                    std::fprintf(stderr,
                                 "pcsim trace record: --text needs "
                                 "per-core trace files as operands\n");
                    return 1;
                }
                topt.textPaths = opt.positional;
            } else if (!opt.positional.empty()) {
                std::fprintf(stderr,
                             "pcsim trace record: unexpected operand "
                             "'%s' (text files need --text)\n",
                             opt.positional.front().c_str());
                return 1;
            }
            return runner::runTraceRecord(topt);
        }
        if (operand == "replay") {
            runner::TraceReplayOptions topt;
            if (opt.positional.size() != 1) {
                std::fprintf(stderr, "pcsim trace replay: exactly one "
                                     "trace file operand required\n");
                return 1;
            }
            topt.tracePath = opt.positional.front();
            if (opt.configsSet)
                topt.config = opt.configs.front();
            topt.args = opt.args;
            if (!opt.threadsSet)
                topt.args.threads = 1;
            return runner::runTraceReplay(topt);
        }
        if (operand == "info") {
            if (opt.positional.size() != 1) {
                std::fprintf(stderr, "pcsim trace info: exactly one "
                                     "trace file operand required\n");
                return 1;
            }
            return runner::runTraceInfo(opt.positional.front());
        }
        std::fprintf(stderr,
                     "pcsim trace: unknown action '%s' (pick record, "
                     "replay or info)\n",
                     operand.c_str());
        return 1;
    }

    if (cmd == "run")
        return runCommand(opt);
    if (cmd == "lint")
        return lintCommand(opt);
    if (cmd == "bench") {
        runner::BenchOptions bopt;
        bopt.kernelEvents = opt.benchEvents;
        bopt.repeats = opt.benchRepeats;
        bopt.jsonPath = opt.args.jsonPath;
        bopt.baselinePath = opt.baselinePath;
        bopt.quiet = opt.args.quiet;
        return runner::runBenchSuite(bopt);
    }

    std::fprintf(stderr, "pcsim: unknown command '%s'\n", cmd.c_str());
    return usage(stderr);
}

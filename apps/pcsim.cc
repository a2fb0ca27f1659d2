/**
 * @file
 * `pcsim` -- unified experiment-runner CLI.
 *
 *   pcsim run   --workload em3d --config pcopt --json out.json
 *   pcsim sweep fig7 -j8
 *   pcsim list
 *
 * `run` executes a (workload x config x seed) cartesian product built
 * from comma-separated lists; `sweep NAME` (or just `NAME`, as in
 * `pcsim scale`) runs an entry of the sweep registry
 * (src/runner/sweeps.hh) through the same runner and prints its table
 * from the results. Simulations are deterministic, so
 * `--deterministic-check` (run everything twice and byte-compare the
 * serialized results) should never fail; CI wires it in as a
 * regression tripwire.
 *
 * One table lists every option; each command, and each registry
 * entry, names the options it reads and rejects the others. `pcsim
 * help` is generated from the same tables.
 */

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/protocol/policy.hh"
#include "src/runner/job.hh"
#include "src/runner/results.hh"
#include "src/runner/runner.hh"
#include "src/runner/sweeps.hh"
#include "src/runner/trace_cmd.hh"
#include "src/sim/file_io.hh"
#include "src/trace/format.hh"
#include "src/verify/lint.hh"
#include "src/verify/liveness.hh"
#include "src/verify/spec.hh"
#include "src/workload/suite.hh"

using namespace pcsim;

namespace
{

/** The non-empty @p sep-separated items of @p s. */
std::vector<std::string>
splitList(const std::string &s, char sep = ',')
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        std::size_t end = s.find(sep, start);
        if (end == std::string::npos)
            end = s.size();
        if (end > start)
            out.push_back(s.substr(start, end - start));
        start = end + 1;
    }
    return out;
}

/** One bit per option; a command's mask names the options it reads.
 *  The registry's grid arguments (runner::SweepReads) come first, and
 *  two bits name the commands that take a list of seeds or sizes. */
enum Read : unsigned
{
    rWorkload = runner::readsWorkload,
    rScenario = runner::readsScenarios,
    rArbitration = runner::readsArbitrations,
    rNodeList = runner::readsNodeList,
    rConfig = 1u << 4,
    rSeed = 1u << 5,
    rSeedList = 1u << 6,
    rNodes = 1u << 7,
    rCoarse = 1u << 8,
    rScale = 1u << 9,
    rChecker = 1u << 10,
    rConformance = 1u << 11,
    rJobs = 1u << 12,
    rJson = 1u << 13,
    rCsv = 1u << 14,
    rTiming = 1u << 15,
    rDetCheck = 1u << 16,
    rNoTable = 1u << 17,
    rQuiet = 1u << 18,
    rOutput = 1u << 19,
    rText = 1u << 20,
    rPolicy = 1u << 21,
    rNoMc = 1u << 22,
    rMdg = 1u << 23,
    rLiveness = 1u << 24,
    rRepro = 1u << 25,
    rCoverage = 1u << 26,
};

/** Everything the options can set. */
struct Options
{
    unsigned given = 0; ///< Read bits of the options given
    bool has(unsigned bit) const { return given & bit; }

    /** Workloads, scenarios, sizes, scale, seeds, -j, outputs. */
    runner::SweepArgs args;
    std::vector<std::string> configs{"base"};
    unsigned coarse = 1; ///< nodes per sharer bit (power of two)
    std::string lintPolicy;   ///< policy name or "all" ("" = all)
    std::string reproPath;    ///< lint --liveness: PCTR repro out
    std::string coveragePath; ///< lint --coverage: results document
    std::string outputPath;              ///< trace record: -o
    std::vector<std::string> positional; ///< trace operands
};

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

/** One row of the option table. */
struct OptionInfo
{
    const char *name;
    const char *alias; ///< second spelling ("" = none)
    const char *value; ///< value placeholder ("" = a flag)
    unsigned bit;
    const char *help;
};

const OptionInfo optionTable[] = {
    {"--workload", "--workloads", "a,b", rWorkload,
     "workload names, case-insensitive (micro = PCmicro)"},
    {"--config", "--configs", "a,b", rConfig,
     "machine presets (default base); see 'pcsim list'"},
    {"--seed", "--seeds", "N", rSeed, "seed (default 1); run takes a list"},
    {"--nodes", "", "N", rNodes,
     "machine size (default 16); scale, serve and compare take a list"},
    {"--coarse", "", "K", rCoarse,
     "nodes per directory sharer bit, a power of two (default 1)"},
    {"--scale", "", "F", rScale,
     "workload scale factor (default 1; sweeps: relative to their own)"},
    {"--scenario", "--scenarios", "a,b", rScenario,
     "serve, compare, faults and qos scenarios (default: the sweep's)"},
    {"--arbitration", "--arbitrations", "a,b", rArbitration,
     "directory arbitration: nack-retry, queue, aged-priority"},
    {"--checker", "", "", rChecker, "enable the coherence invariant checker"},
    {"--conformance", "", "", rConformance,
     "enable the spec conformance hook and its coverage record"},
    {"-j", "--jobs", "N", rJobs,
     "worker threads, 0 = all cores (default 1 for run)"},
    {"--json", "", "PATH", rJson, "write the JSON document; '-' = stdout"},
    {"--csv", "", "PATH", rCsv, "write the CSV table; '-' = stdout"},
    {"--timing", "", "", rTiming,
     "add host wall-clock rates (breaks cross-host byte identity)"},
    {"--deterministic-check", "", "", rDetCheck,
     "run every job twice and byte-compare; exit 3 on mismatch"},
    {"--no-table", "", "", rNoTable, "skip the printed table"},
    {"--quiet", "-q", "", rQuiet, "no per-job progress on stderr"},
    {"--output", "-o", "FILE", rOutput, "trace file to write (required)"},
    {"--text", "", "", rText,
     "ingest the operands, per-core '<label> <hex>' text traces"},
    {"--policy", "", "P", rPolicy,
     "one registered policy, or all (the default)"},
    {"--no-mc", "", "", rNoMc, "skip the spec pass's model cross-check"},
    {"--mdg", "", "", rMdg,
     "message-dependency pass: channel cycles, forwards, capacity"},
    {"--liveness", "", "", rLiveness,
     "liveness pass: livelocks and deadlocks of the model's graph"},
    {"--repro", "", "PATH", rRepro,
     "with --liveness: write the first witness as a PCTR trace"},
    {"--coverage", "", "PATH", rCoverage,
     "legal transitions a --conformance results JSON never took"},
};

/** Store the value @p v of option @p bit, spelled @p opt, in @p o
 *  for a command that reads @p reads (flags that only Options::given
 *  records have no case); false after printing why @p v is bad. */
bool
setOption(Options &o, unsigned reads, unsigned bit, const std::string &opt,
          const std::string &v)
{
    switch (bit) {
      case rWorkload: o.args.workloads = splitList(v); break;
      case rConfig: o.configs = splitList(v); break;
      case rSeed:
        o.args.seeds.clear();
        for (const auto &s : splitList(v)) {
            std::uint64_t seed = 0;
            if (!parseNumber(opt, s, seed))
                return false;
            o.args.seeds.push_back(seed);
        }
        if (o.args.seeds.size() > 1 && !(reads & rSeedList)) {
            std::fprintf(stderr,
                         "pcsim: %s takes one value outside 'pcsim run'\n",
                         opt.c_str());
            return false;
        }
        break;
      case rNodes:
        o.args.nodes.clear();
        for (const auto &s : splitList(v)) {
            unsigned n = 0;
            if (!parseNumber(opt, s, n, 1u))
                return false;
            o.args.nodes.push_back(n);
        }
        if (o.args.nodes.size() > 1 && !(reads & rNodeList)) {
            std::fprintf(stderr, "pcsim: --nodes takes one value outside "
                                 "'pcsim scale', 'pcsim serve' and "
                                 "'pcsim compare'\n");
            return false;
        }
        break;
      case rCoarse: return parseNumber(opt, v, o.coarse);
      case rScale: {
        char *end = nullptr;
        o.args.scale = std::strtod(v.c_str(), &end);
        if (end == v.c_str() || *end != '\0' || !(o.args.scale > 0) ||
            !std::isfinite(o.args.scale)) {
            std::fprintf(stderr, "pcsim: bad --scale '%s'\n", v.c_str());
            return false;
        }
        break;
      }
      case rScenario: o.args.scenarios = splitList(v); break;
      case rArbitration: o.args.arbitrations = splitList(v); break;
      case rJobs: return parseNumber(opt, v, o.args.threads);
      case rJson: o.args.jsonPath = v; break;
      case rCsv: o.args.csvPath = v; break;
      case rTiming: o.args.timing = true; break;
      case rDetCheck: o.args.deterministicCheck = true; break;
      case rNoTable: o.args.table = false; break;
      case rQuiet: o.args.quiet = true; break;
      case rOutput: o.outputPath = v; break;
      case rPolicy: o.lintPolicy = v; break;
      case rRepro: o.reproPath = v; break;
      case rCoverage: o.coveragePath = v; break;
    }
    return true;
}

/** The options whose value is a comma-separated list. */
constexpr unsigned listOptions =
    rWorkload | rConfig | rSeed | rNodes | rScenario | rArbitration;

/** The options every registry entry that runs a grid reads. */
constexpr unsigned sweepOptions = rSeed | rNodes | rScale | rJobs |
                                  rJson | rCsv | rTiming | rDetCheck |
                                  rNoTable | rQuiet;

/** The options registry entry @p s reads. */
unsigned
sweepReads(const runner::Sweep &s)
{
    // table2 runs no grid: it reads the machine size and scale only.
    return s.jobs ? sweepOptions | s.reads : rNodes | rScale;
}

int usage(std::FILE *out);

int
listCommand(Options &)
{
    std::printf("workloads:\n");
    for (const auto &w : workloadNames())
        std::printf("  %s\n", w.c_str());
    std::printf("\nconfigurations (16-node presets, see "
                "src/system/presets.hh):\n");
    for (const runner::ConfigPreset &c : runner::configPresets()) {
        std::printf("  %-15s %s", c.name, c.description);
        if (c.alias[0])
            std::printf(" (alias: %s)", c.alias);
        std::printf("\n");
    }
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

/** The job @p workload under @p config at @p seed that the run
 *  options in @p opt name. */
runner::JobRequest
jobRequest(const Options &opt, const std::string &workload,
           const std::string &config, std::uint64_t seed)
{
    runner::JobRequest r;
    r.workload = workload;
    r.config = config;
    r.nodes = opt.args.nodes.empty() ? 16 : opt.args.nodes.front();
    r.seed = seed;
    r.scale = opt.args.scale;
    r.coarse = opt.coarse;
    r.checker = opt.has(rChecker);
    r.conformance = opt.has(rConformance);
    return r;
}

/** Add the job @p r names to @p set; false after printing why
 *  command @p cmd cannot run it. */
bool
addJob(runner::JobSet &set, const runner::JobRequest &r, const char *cmd)
{
    runner::Job j;
    const std::string err = runner::buildJob(r, j);
    if (!err.empty()) {
        std::fprintf(stderr, "pcsim %s: %s\n", cmd, err.c_str());
        return false;
    }
    set.add(std::move(j));
    return true;
}

int
runCommand(Options &opt)
{
    if (opt.args.workloads.empty()) {
        std::fprintf(stderr,
                     "pcsim run: --workload is required (try 'pcsim "
                     "list')\n");
        return 1;
    }
    runner::JobSet set;
    for (const auto &w : opt.args.workloads)
        for (const auto &c : opt.configs)
            for (std::uint64_t seed : opt.args.seeds)
                if (!addJob(set, jobRequest(opt, w, c, seed), "run"))
                    return 1;
    if (!opt.has(rJobs))
        opt.args.threads = 1;
    return runner::runSweep(set, opt.args, printRunTable);
}

/** True when the trace file to write was named. */
bool
outputGiven(const Options &opt)
{
    if (opt.outputPath.empty())
        std::fprintf(stderr,
                     "pcsim trace record: missing --output <file>\n");
    return !opt.outputPath.empty();
}

/** `run` of one job, then the trace of its workload; a run that
 *  fails writes no trace. */
int
traceRecordCommand(Options &opt)
{
    if (!opt.positional.empty()) {
        std::fprintf(stderr,
                     "pcsim trace record: unexpected operand '%s' (text "
                     "files need --text)\n",
                     opt.positional.front().c_str());
        return 1;
    }
    if (!outputGiven(opt))
        return 1;
    const std::string workload = opt.args.workloads.empty()
                                     ? "PCmicro"
                                     : opt.args.workloads.front();
    runner::JobSet set;
    if (!addJob(set,
                jobRequest(opt, workload, opt.configs.front(),
                           opt.args.seeds.front()),
                "trace record"))
        return 1;
    const int rc = runner::runSweep(set, opt.args, printRunTable);
    if (rc == 2)
        return rc;
    return runner::writeJobTrace(set.jobs().front(), opt.outputPath,
                                 opt.args.quiet)
               ? rc
               : 1;
}

int
traceIngestCommand(Options &opt)
{
    if (opt.positional.empty()) {
        std::fprintf(stderr, "pcsim trace record: --text needs "
                             "per-core trace files as operands\n");
        return 1;
    }
    if (!outputGiven(opt))
        return 1;
    return runner::ingestTextFiles(opt.positional, opt.outputPath,
                                   opt.args.scale, opt.args.quiet);
}

/** The one trace file operand of `trace replay|info`; "" after
 *  printing why there is not exactly one. */
std::string
traceOperand(const Options &opt, const char *action)
{
    if (opt.positional.size() == 1)
        return opt.positional.front();
    std::fprintf(stderr,
                 "pcsim trace %s: exactly one trace file operand "
                 "required\n",
                 action);
    return "";
}

/** `run` of the one job the trace names. */
int
traceReplayCommand(Options &opt)
{
    const std::string path = traceOperand(opt, "replay");
    if (path.empty())
        return 1;
    runner::JobRequest r =
        jobRequest(opt, "", opt.has(rConfig) ? opt.configs.front() : "", 1);
    runner::Job j;
    const std::string err = runner::replayJob(path, r, j);
    if (!err.empty()) {
        std::fprintf(stderr, "pcsim trace replay: %s\n", err.c_str());
        return 1;
    }
    runner::JobSet set;
    set.add(std::move(j));
    return runner::runSweep(set, opt.args, printRunTable);
}

int
traceInfoCommand(Options &opt)
{
    const std::string path = traceOperand(opt, "info");
    return path.empty() ? 1 : runner::runTraceInfo(path);
}

int
lintCoverage(Options &opt)
{
    const verify::TransitionSpec &spec = verify::protocolSpec();

    std::string text;
    if (readFile(opt.coveragePath, text)) {
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
        // Only update-based runs write a "policy" block, and their
        // transitions are not this spec's.
        if (arr->at(i).find("policy")) {
            std::fprintf(stderr,
                         "pcsim lint: '%s': results[%zu] ran an "
                         "update-based policy (it has a \"policy\" "
                         "block); --coverage reads only the "
                         "delegation-updates spec's transitions\n",
                         opt.coveragePath.c_str(), i);
            return 1;
        }
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

/** Write the first liveness witness carrying CPU ops as a PCTR repro
 *  trace; false when it cannot be written. */
bool
writeLivenessRepro(const LintRun &run, const std::string &path,
                   bool announce)
{
    for (const PolicyLint &p : run.policies) {
        for (const verify::LivenessFinding &f : p.liveness->findings) {
            if (f.witness.ops.empty())
                continue;
            // The src/mc model has 3 nodes.
            std::vector<std::vector<MemOp>> per_node(3);
            for (const verify::WitnessOp &op : f.witness.ops)
                per_node[op.node].push_back(
                    op.isWrite ? MemOp::write(0) : MemOp::read(0));
            trace::TraceMeta meta;
            meta.nodeCount = 3;
            meta.workload = "lint-liveness";
            meta.config = f.config;
            try {
                trace::writeTraceFile(path, meta, per_node);
            } catch (const trace::TraceError &e) {
                std::fprintf(stderr, "pcsim lint: %s\n", e.what());
                return false;
            }
            if (announce)
                std::printf("repro trace written to %s\n",
                            path.c_str());
            return true;
        }
    }
    return true;
}

int
lintCommand(Options &opt)
{
    std::vector<ProtocolKind> kinds = registeredPolicyKinds();
    if (!opt.lintPolicy.empty() && opt.lintPolicy != "all") {
        ProtocolKind kind;
        if (!protocolKindFromName(opt.lintPolicy, kind)) {
            std::string names;
            for (ProtocolKind k : kinds)
                names += std::string(policyFor(k).name()) + ", ";
            std::fprintf(stderr,
                         "pcsim lint: unknown policy '%s' (pick one of "
                         "%sor 'all')\n",
                         opt.lintPolicy.c_str(), names.c_str());
            return 1;
        }
        kinds = {kind};
    }

    const LintPass pass = opt.has(rMdg)        ? LintPass::Mdg
                          : opt.has(rLiveness) ? LintPass::Liveness
                                               : LintPass::Spec;
    const LintRun run = lintPolicies(pass, kinds, !opt.has(rNoMc));
    bool io_ok = true;
    if (!opt.args.jsonPath.empty())
        io_ok &= runner::writeTextFile(opt.args.jsonPath,
                                       run.toJson().dump(2) + "\n");
    if (!opt.args.csvPath.empty())
        io_ok &= runner::writeTextFile(opt.args.csvPath, run.toCsv());
    const bool table =
        opt.args.jsonPath != "-" && opt.args.csvPath != "-";
    if (table)
        run.print(stdout);
    if (!opt.reproPath.empty())
        io_ok &= writeLivenessRepro(run, opt.reproPath, table);
    if (!io_ok)
        return 1;
    return run.findings() ? 2 : 0;
}

/** One command besides the registry entries, or one mode of it: rows
 *  that share a name are modes, picked by the first mode flag given,
 *  and the default mode comes last. */
struct CommandInfo
{
    const char *name;
    unsigned mode;       ///< the flag that picks this mode (0 = default)
    const char *operand; ///< operands it takes ("" = none)
    const char *oneline;
    unsigned reads;
    int (*run)(Options &);
};

const CommandInfo commandTable[] = {
    {"run", 0, "", "cartesian (workload x config x seed) simulation runs",
     rWorkload | rConfig | rSeed | rSeedList | rNodes | rCoarse |
         rScale | rChecker | rConformance | rJobs | rJson | rCsv |
         rTiming | rDetCheck | rNoTable | rQuiet,
     runCommand},
    {"trace record", rText, "FILE...",
     "convert per-core text traces, one per node, to a PCTR trace",
     rText | rOutput | rScale | rQuiet, traceIngestCommand},
    {"trace record", 0, "",
     "run one job, then write its op streams as a PCTR trace",
     rWorkload | rConfig | rSeed | rNodes | rCoarse | rScale | rChecker |
         rConformance | rOutput | rJson | rCsv | rTiming | rNoTable |
         rQuiet,
     traceRecordCommand},
    {"trace replay", 0, "FILE",
     "run the job a trace's header names, from its op streams",
     rConfig | rChecker | rConformance | rJobs | rJson | rCsv | rTiming |
         rNoTable | rQuiet,
     traceReplayCommand},
    {"trace info", 0, "FILE", "print a trace file's header", 0,
     traceInfoCommand},
    {"lint", rCoverage, "",
     "legal transitions of the delegation-updates spec that the runs "
     "in results document PATH never took",
     rCoverage | rJson | rCsv, lintCoverage},
    {"lint", rMdg, "", "message-dependency pass over the specs",
     rMdg | rPolicy | rJson | rCsv, lintCommand},
    {"lint", rLiveness, "", "livelock and deadlock search of the models",
     rLiveness | rPolicy | rRepro | rJson, lintCommand},
    {"lint", 0, "",
     "static checks of the specs, cross-checked against the models",
     rPolicy | rNoMc | rJson | rCsv, lintCommand},
    {"list", 0, "", "list workloads, configuration presets and policies",
     0, listCommand},
    {"help", 0, "", "show this text", 0,
     [](Options &) { return usage(stdout); }},
};

/** The primary spelling of the option with bit @p bit. */
const char *
optionName(unsigned bit)
{
    for (const OptionInfo &o : optionTable)
        if (o.bit == bit)
            return o.name;
    return "";
}

/** @p c as typed: its name, then its mode flag. */
std::string
commandName(const CommandInfo &c)
{
    return c.mode ? std::string(c.name) + " " + optionName(c.mode)
                  : c.name;
}

/** Print @p words wrapped to 78 columns, every line indented by
 *  @p indent spaces. */
void
printWrapped(std::FILE *out, std::size_t indent, const std::string &words)
{
    std::string line;
    for (const std::string &w : splitList(words, ' ')) {
        if (!line.empty() && indent + line.size() + 1 + w.size() > 78) {
            std::fprintf(out, "%*s%s\n", int(indent), "", line.c_str());
            line.clear();
        }
        line.append(line.empty() ? "" : " ").append(w);
    }
    if (!line.empty())
        std::fprintf(out, "%*s%s\n", int(indent), "", line.c_str());
}

/** Print @p lead and the names of the options @p reads selects. */
void
printReads(std::FILE *out, std::size_t indent, const std::string &lead,
           unsigned reads)
{
    std::string words = lead;
    for (const OptionInfo &o : optionTable) {
        if (reads & o.bit)
            words.append(" ").append(o.name);
    }
    printWrapped(out, indent, words);
}

int
usage(std::FILE *out)
{
    std::fprintf(out,
                 "pcsim - producer-consumer coherence protocol "
                 "experiment runner\n\n"
                 "usage: pcsim <command> [options]\n\n"
                 "commands (each followed by the options it reads):\n");
    for (const CommandInfo &c : commandTable) {
        std::fprintf(out, "  %-19s %s\n", commandName(c).c_str(),
                     c.oneline);
        printReads(out, 22, c.operand, c.reads & ~c.mode);
    }
    std::fprintf(out, "  %-19s %s\n", "sweep NAME",
                 "run a sweep of the registry below; 'pcsim NAME' "
                 "runs it too");

    // Entries that read the same options share one synopsis.
    std::fprintf(out, "\nsweeps (each group followed by the options "
                      "it reads):\n");
    std::vector<unsigned> masks;
    for (const runner::Sweep &s : runner::sweeps())
        if (std::find(masks.begin(), masks.end(), sweepReads(s)) ==
            masks.end())
            masks.push_back(sweepReads(s));
    for (unsigned mask : masks) {
        for (const runner::Sweep &s : runner::sweeps()) {
            if (sweepReads(s) != mask)
                continue;
            std::fprintf(out, "  %-19s %s%s\n", s.name,
                         s.jsonPath[0] ? "default --json " : "",
                         s.jsonPath[0] ? s.jsonPath
                                       : "prints its table, runs no job");
            if (s.hint[0])
                printWrapped(out, 22, s.hint);
        }
        printReads(out, 4, "options:", mask);
    }

    std::fprintf(out, "\noptions:\n");
    for (const OptionInfo &o : optionTable) {
        std::string spelled = o.name;
        if (o.alias[0])
            spelled += std::string(", ") + o.alias;
        if (o.value[0])
            spelled += std::string(" ") + o.value;
        std::fprintf(out, "  %-33s %s\n", spelled.c_str(), o.help);
    }
    std::fprintf(out, "\nexit status: 0 ok, 1 usage or I/O error, 2 a "
                      "job failed or lint found something, 3 "
                      "non-deterministic\n");
    return out == stderr ? 1 : 0;
}

/**
 * Parse argv[@p first..] into @p opt for command @p cmd, which reads
 * the options in @p reads and, when @p operands, takes operands.
 * Prints why and returns false on the first bad argument.
 */
bool
parseArgs(int argc, char **argv, int first, const std::string &cmd,
          unsigned reads, bool operands, Options &opt)
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
        if (operands && !arg.empty() && arg[0] != '-') {
            opt.positional.push_back(arg);
            continue;
        }

        const auto o = std::find_if(
            std::begin(optionTable), std::end(optionTable),
            [&](const OptionInfo &o) {
                return arg == o.name || (o.alias[0] && arg == o.alias);
            });
        if (o == std::end(optionTable)) {
            std::fprintf(stderr, "pcsim: unknown option '%s'\n",
                         argv[i]);
            return false;
        }
        if (!(reads & o->bit)) {
            std::fprintf(stderr,
                         "pcsim %s: %s does not apply (see 'pcsim "
                         "help')\n",
                         cmd.c_str(), arg.c_str());
            return false;
        }
        std::string value;
        if (o->value[0]) {
            if (!inline_value && i + 1 >= argc) {
                std::fprintf(stderr, "pcsim: %s needs a value\n",
                             arg.c_str());
                return false;
            }
            value = inline_value ? inline_value : argv[++i];
            // An empty value, or a list with no element, would leave
            // the option at its default.
            if (value.empty() ||
                ((o->bit & listOptions) && splitList(value).empty())) {
                std::fprintf(stderr, "pcsim: bad %s '%s'\n",
                             arg.c_str(), value.c_str());
                return false;
            }
        } else if (inline_value) {
            std::fprintf(stderr, "pcsim: %s takes no value\n",
                         arg.c_str());
            return false;
        }
        opt.given |= o->bit;
        if (!setOption(opt, reads, o->bit, arg, value))
            return false;
    }
    return true;
}

/** The registry's entry names, comma-separated. */
std::string
sweepNames()
{
    std::string out;
    for (const auto &s : runner::sweeps())
        out += (out.empty() ? "" : ", ") + std::string(s.name);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(stderr);
    std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h")
        cmd = "help";

    // `pcsim trace ACTION` and `pcsim sweep NAME`: the operand comes
    // before the options.
    const bool sweep_cmd = cmd == "sweep";
    const int first = sweep_cmd || cmd == "trace" ? 3 : 2;
    if (first == 3) {
        if (argc < 3 || argv[2][0] == '-') {
            std::fprintf(stderr, "pcsim %s: pick %s\n", cmd.c_str(),
                         cmd == "trace"
                             ? "record, replay or info"
                             : ("one of " + sweepNames()).c_str());
            return 1;
        }
        cmd += std::string(" ") + argv[2];
    }
    const runner::Sweep *sweep =
        runner::findSweep(sweep_cmd ? argv[2] : cmd);
    const CommandInfo *command = nullptr;
    unsigned reads = sweep ? sweepReads(*sweep) : 0;
    bool operands = false;
    for (const CommandInfo &c : commandTable) {
        if (cmd == c.name) {
            command = &c;
            reads |= c.reads;
            operands |= c.operand[0] != '\0';
        }
    }
    if (!sweep && !command) {
        if (sweep_cmd)
            std::fprintf(stderr,
                         "pcsim sweep: unknown sweep '%s' (pick one of "
                         "%s)\n",
                         argv[2], sweepNames().c_str());
        else if (first == 3)
            std::fprintf(stderr,
                         "pcsim trace: unknown action '%s' (pick "
                         "record, replay or info)\n",
                         argv[2]);
        else
            std::fprintf(stderr, "pcsim: unknown command '%s'\n",
                         cmd.c_str());
        return first == 3 ? 1 : usage(stderr);
    }

    Options opt;
    if (!parseArgs(argc, argv, first, cmd, reads, operands, opt))
        return 1;
    if (sweep)
        return runner::runSweep(*sweep, opt.args);

    // Of a command's modes, the first whose flag is given runs, and it
    // reads only its own options: checked before any file is read.
    for (const CommandInfo &c : commandTable) {
        if (cmd == c.name && opt.has(c.mode)) {
            command = &c;
            break;
        }
    }
    if (const unsigned stray = opt.given & ~command->reads) {
        std::fprintf(stderr, "pcsim %s: %s does not apply (see 'pcsim "
                             "help')\n",
                     commandName(*command).c_str(),
                     optionName(1u << std::countr_zero(stray)));
        return 1;
    }
    return command->run(opt);
}

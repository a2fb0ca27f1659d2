/**
 * @file
 * pcsim_perfbench: runs one batch of a benchmark workload on the
 * simulation core and prints one JSON document with host timings,
 * memory, and the simulated statistics of every machine it ran.
 *
 *   pcsim_perfbench --workload pcmicro-64|kvserve-256|fig7-16
 *                   [--seed N] [--mode plain|validate|traced|pdes|
 *                   transparency] [--scale-factor F]
 *
 * A batch builds each application's op streams once, then constructs,
 * runs and destroys one System per configuration, one after another on
 * this thread. Modes:
 *  - plain:    tracing off, checker off (the timed runs);
 *  - validate: coherence checker and conformance hook on;
 *  - traced:   plain plus the interposed Workload and handlers;
 *  - pdes:     plain on a 2-shard kernel, when the kernel has shards;
 *  - transparency: a plain and a traced batch whose simulated
 *    statistics must be byte-identical (exit 2 if not);
 *  - info:     print the build type and compiler only.
 *
 * The driver reaches the simulator only through System, MachineConfig,
 * the presets, the workload classes, Network and RunResult.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "interpose.hh"
#include "src/system/presets.hh"
#include "src/system/system.hh"
#include "src/workload/micro.hh"
#include "src/workload/serving.hh"
#include "src/workload/suite.hh"

namespace
{

using namespace pcsim;
using perfbench::Span;
using perfbench::Tracer;

/** Workload sizes, chosen so one batch takes about a second or more
 *  on a 4-core x86 host (see perfbench/README.md). */
constexpr double pcmicroScale = 16.0;
constexpr double kvserveScale = 1.0;
constexpr double fig7Scale = 1.0;

enum class Mode
{
    Plain,
    Validate,
    Traced,
    Pdes,
    Transparency
};

struct App
{
    std::string name;
    std::function<std::unique_ptr<Workload>()> make;
};

/** One workload: applications x machine configurations. */
struct Plan
{
    std::vector<App> apps;
    std::vector<presets::NamedConfig> configs;
};

unsigned
scaled(unsigned base, double scale)
{
    return std::max(1u, static_cast<unsigned>(base * scale));
}

bool
makePlan(const std::string &workload, std::uint64_t seed, double factor,
         Plan &plan)
{
    if (workload == "pcmicro-64") {
        ProducerConsumerMicro::Params p;
        p.iterations = scaled(p.iterations, pcmicroScale * factor);
        plan.apps.push_back({"PCmicro", [p]() {
                                 return std::make_unique<
                                     ProducerConsumerMicro>(64, p);
                             }});
        plan.configs.push_back({"large", presets::large(64)});
    } else if (workload == "kvserve-256") {
        KvServingWorkload::Params p;
        p.requestsPerNode = scaled(p.requestsPerNode, kvserveScale * factor);
        // Seed 1 keeps the generator's default Zipf stream.
        p.seed += seed - 1;
        plan.apps.push_back({"KVServe", [p]() {
                                 return std::make_unique<KvServingWorkload>(
                                     256, p);
                             }});
        plan.configs.push_back({"base", presets::base(256)});
    } else if (workload == "fig7-16") {
        const double scale = fig7Scale * factor;
        for (const std::string &name : suiteNames()) {
            plan.apps.push_back({name, [name, scale]() {
                                     return makeWorkload(name, 16, scale);
                                 }});
        }
        plan.configs = presets::figure7Configs(16);
    } else {
        return false;
    }
    for (auto &c : plan.configs) {
        c.cfg.seed = seed;
        c.cfg.proto.checkerEnabled = false;
        c.cfg.proto.conformanceEnabled = false;
    }
    return true;
}

/** Request @p n kernel shards; false if this build has no sharded
 *  kernel (then the PDES metrics are reported absent). */
template <typename Cfg>
bool
setShards(Cfg &cfg, unsigned n)
{
    if constexpr (requires { cfg.shards = n; }) {
        cfg.shards = n;
        return true;
    } else {
        return false;
    }
}

double
currentRssMb()
{
    std::ifstream f("/proc/self/statm");
    long size = 0, resident = 0;
    f >> size >> resident;
    return double(resident) * double(sysconf(_SC_PAGESIZE)) /
           (1024.0 * 1024.0);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Minimal JSON object writer (keys and strings here need no escapes
 *  beyond quotes and backslashes). */
class Obj
{
  public:
    Obj &
    raw(const std::string &key, const std::string &value)
    {
        if (!_body.empty())
            _body += ',';
        _body += quote(key) + ':' + value;
        return *this;
    }
    Obj &u(const std::string &k, std::uint64_t v)
    {
        return raw(k, std::to_string(v));
    }
    Obj &
    d(const std::string &k, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return raw(k, buf);
    }
    Obj &s(const std::string &k, const std::string &v)
    {
        return raw(k, quote(v));
    }
    std::string str() const { return '{' + _body + '}'; }

    static std::string
    quote(const std::string &v)
    {
        std::string out = "\"";
        for (char c : v) {
            if (c == '"' || c == '\\')
                out += '\\';
            out += c;
        }
        return out + '"';
    }

  private:
    std::string _body;
};

std::string
histJson(const Histogram &h)
{
    std::string out = "[";
    for (std::size_t i = 0; i < h.numBuckets(); ++i) {
        if (i)
            out += ',';
        out += std::to_string(h.bucket(i));
    }
    return out + ']';
}

/** The simulated statistics of one run: the results document minus
 *  host timing and kernel telemetry. Two runs of the same machine
 *  must produce identical strings. */
std::string
simStats(const RunResult &r)
{
    Obj o;
    o.s("workload", r.workload)
        .s("config", r.config)
        .u("cycles", r.cycles)
        .u("simTicks", r.perf.simTicks)
        .u("netMessages", r.netMessages)
        .u("netBytes", r.netBytes)
        .u("nackMessages", r.nackMessages)
        .u("updateMessages", r.updateMessages)
        .u("missLatencyP50", r.missLatencyP50)
        .u("missLatencyP95", r.missLatencyP95)
        .u("missLatencyP99", r.missLatencyP99);
#define F(field) o.u(#field, r.nodes.field);
    F(reads) F(writes) F(l1Hits) F(l2Hits) F(localMisses)
    F(remoteMisses) F(racHits) F(twoHopMisses) F(threeHopMisses)
    F(nacksReceived) F(retries) F(homeRequests) F(nacksSent)
    F(interventionsSent) F(dirCacheHits) F(dirCacheMisses)
    F(delegationsGranted) F(delegationsReceived) F(undelegationsCapacity)
    F(undelegationsFlush) F(undelegationsConflict) F(forwardedRequests)
    F(delegatedLocalOps) F(delayedInterventions) F(updatesSent)
    F(updatesReceived) F(updatesConsumed) F(updatesDropped)
    F(extraWriteMisses) F(writebacks)
#undef F
    o.raw("consumerHist", histJson(r.consumerHist));
    return o.str();
}

/** Kernel telemetry of one run; the PDES counters only exist while
 *  the simulator has a sharded kernel. */
template <typename Perf>
std::string
perfJson(const Perf &p)
{
    Obj o;
    o.u("events", p.eventsExecuted).u("peak_queue", p.peakQueueDepth);
    if constexpr (requires {
                      p.kernelWindows;
                      p.kernelBarriers;
                      p.crossShardMessages;
                  }) {
        o.u("windows", p.kernelWindows)
            .u("barriers", p.kernelBarriers)
            .u("cross_msgs", p.crossShardMessages);
    }
    return o.str();
}

struct Batch
{
    double wallS = 0;
    double workloadRssMb = 0;
    double systemRssMb = 0;
    std::vector<RunResult> runs;
    /** Traced batches only: CPU op accounting. */
    std::uint64_t ops = 0;
    std::uint64_t kindTicks[perfbench::TracedWorkload::numKinds] = {};
};

void
runBatch(const Plan &plan, bool traced, unsigned shards, Tracer &tracer,
         Batch &out)
{
    const std::int64_t start = Tracer::nowNs();
    for (const App &app : plan.apps) {
        const double rss0 = currentRssMb();
        std::unique_ptr<Workload> wl;
        {
            Tracer::Scope span(tracer, Span::WorkloadBuild);
            wl = app.make();
        }
        out.workloadRssMb =
            std::max(out.workloadRssMb, currentRssMb() - rss0);

        std::unique_ptr<perfbench::TracedWorkload> twl;
        if (traced)
            twl = std::make_unique<perfbench::TracedWorkload>(*wl, tracer);
        Workload &run_wl = traced ? *twl : *wl;

        for (const auto &nc : plan.configs) {
            MachineConfig cfg = nc.cfg;
            if (shards > 1)
                setShards(cfg, shards);
            const double rss1 = currentRssMb();
            std::unique_ptr<System> sys;
            {
                Tracer::Scope span(tracer, Span::SystemConstruct);
                sys = std::make_unique<System>(cfg);
            }
            out.systemRssMb =
                std::max(out.systemRssMb, currentRssMb() - rss1);

            std::vector<perfbench::TracedHandler> handlers;
            if (traced) {
                handlers.reserve(sys->numNodes());
                for (unsigned n = 0; n < sys->numNodes(); ++n)
                    handlers.emplace_back(sys->hub(n), tracer);
                for (unsigned n = 0; n < sys->numNodes(); ++n)
                    sys->network().registerHandler(static_cast<NodeId>(n),
                                                   &handlers[n]);
                twl->setClock(sys->eventQueue());
            }

            RunResult r;
            {
                Tracer::Scope span(tracer, Span::SystemRun);
                r = sys->run(run_wl);
            }
            {
                Tracer::Scope span(tracer, Span::SystemTeardown);
                sys.reset();
            }
            r.config = nc.name;
            out.runs.push_back(std::move(r));
        }
        if (traced) {
            out.ops += twl->ops();
            for (unsigned k = 0; k < perfbench::TracedWorkload::numKinds;
                 ++k)
                out.kindTicks[k] +=
                    twl->ticks(static_cast<MemOp::Kind>(k));
        }
    }
    out.wallS = double(Tracer::nowNs() - start) * 1e-9;
}

std::string
runsJson(const Batch &b)
{
    std::string out = "[";
    for (std::size_t i = 0; i < b.runs.size(); ++i) {
        if (i)
            out += ',';
        Obj o;
        o.raw("stats", simStats(b.runs[i])).raw("perf", perfJson(b.runs[i].perf));
        out += o.str();
    }
    return out + ']';
}

std::string
batchJson(const Batch &b, const Tracer &tracer, bool traced)
{
    const auto secs = [&](Span s) {
        return double(tracer.agg(s).totalNs) * 1e-9;
    };
    Obj timing;
    timing.d("wall_s", b.wallS)
        .d("build_s", secs(Span::WorkloadBuild))
        .d("construct_s", secs(Span::SystemConstruct))
        .d("run_s", secs(Span::SystemRun))
        .d("teardown_s", secs(Span::SystemTeardown))
        .d("peak_rss_mb", peakRssMb())
        .d("workload_rss_mb", b.workloadRssMb)
        .d("system_rss_mb", b.systemRssMb);

    Obj o;
    o.raw("timing", timing.str()).raw("runs", runsJson(b));
    if (traced) {
        Obj spans;
        for (unsigned i = 0; i < unsigned(Span::NumSpans); ++i) {
            const Tracer::Agg &a = tracer.agg(Span(i));
            Obj s;
            s.u("count", a.count)
                .raw("total_ns", std::to_string(a.totalNs))
                .raw("self_ns", std::to_string(a.selfNs));
            spans.raw(perfbench::spanName(Span(i)), s.str());
        }
        Obj cpu;
        cpu.u("ops", b.ops)
            .u("read_ticks", b.kindTicks[unsigned(MemOp::Kind::Read)])
            .u("write_ticks", b.kindTicks[unsigned(MemOp::Kind::Write)])
            .u("think_ticks", b.kindTicks[unsigned(MemOp::Kind::Think)])
            .u("barrier_ticks",
               b.kindTicks[unsigned(MemOp::Kind::Barrier)]);
        o.raw("spans", spans.str()).raw("cpu", cpu.str());
    }
    return o.str();
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: pcsim_perfbench --workload "
                 "pcmicro-64|kvserve-256|fig7-16 [--seed N]\n"
                 "       [--mode plain|validate|traced|pdes|transparency]"
                 " [--scale-factor F]\n"
                 "       pcsim_perfbench --mode info\n");
}

int
run(int argc, char **argv)
{
    std::string workload;
    std::string mode_name = "plain";
    std::uint64_t seed = 1;
    double factor = 1.0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            usage();
            return 1;
        }
        const char *val = argv[++i];
        if (arg == "--workload")
            workload = val;
        else if (arg == "--mode")
            mode_name = val;
        else if (arg == "--seed")
            seed = std::strtoull(val, nullptr, 10);
        else if (arg == "--scale-factor")
            factor = std::strtod(val, nullptr);
        else {
            usage();
            return 1;
        }
    }

    Obj doc;
    doc.s("build_type", PERFBENCH_BUILD_TYPE)
        .s("compiler", PERFBENCH_COMPILER);
    if (mode_name == "info") {
        std::printf("%s\n", doc.str().c_str());
        return 0;
    }

    Mode mode;
    if (mode_name == "plain")
        mode = Mode::Plain;
    else if (mode_name == "validate")
        mode = Mode::Validate;
    else if (mode_name == "traced")
        mode = Mode::Traced;
    else if (mode_name == "pdes")
        mode = Mode::Pdes;
    else if (mode_name == "transparency")
        mode = Mode::Transparency;
    else {
        usage();
        return 1;
    }

    Plan plan;
    if (!(factor > 0) || !makePlan(workload, seed, factor, plan)) {
        usage();
        return 1;
    }

    doc.s("workload", workload).s("mode", mode_name).u("seed", seed);

    if (mode == Mode::Transparency) {
        Tracer t_plain, t_traced;
        Batch plain, traced;
        runBatch(plan, false, 1, t_plain, plain);
        runBatch(plan, true, 1, t_traced, traced);
        bool same = plain.runs.size() == traced.runs.size();
        for (std::size_t i = 0; same && i < plain.runs.size(); ++i)
            same = simStats(plain.runs[i]) == simStats(traced.runs[i]);
        doc.raw("identical", same ? "true" : "false")
            .u("runs", plain.runs.size());
        std::printf("%s\n", doc.str().c_str());
        return same ? 0 : 2;
    }

    if (mode == Mode::Validate) {
        for (auto &c : plan.configs) {
            c.cfg.proto.checkerEnabled = true;
            c.cfg.proto.conformanceEnabled = true;
        }
    }
    unsigned shards = 1;
    if (mode == Mode::Pdes) {
        MachineConfig probe;
        const bool available = setShards(probe, 2);
        doc.raw("pdes_available", available ? "true" : "false");
        if (!available) {
            std::printf("%s\n", doc.str().c_str());
            return 0;
        }
        shards = 2;
    }

    Tracer tracer;
    Batch batch;
    runBatch(plan, mode == Mode::Traced, shards, tracer, batch);
    doc.raw("batch", batchJson(batch, tracer, mode == Mode::Traced));
    std::printf("%s\n", doc.str().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "pcsim_perfbench: %s\n", e.what());
        return 3;
    }
}

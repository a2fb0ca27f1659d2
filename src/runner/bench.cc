#include "src/runner/bench.hh"

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/runner/job.hh"
#include "src/runner/results.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/file_io.hh"
#include "src/sim/json.hh"
#include "src/sim/logging.hh"
#include "src/system/system.hh"

namespace pcsim
{
namespace runner
{
namespace
{

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// --- kernel microbenchmarks --------------------------------------
//
// A fixed LCG drives self-rescheduling actors, so the schedule/pop
// sequence is identical on every host and every run; only the wall
// time varies.

struct Lcg
{
    std::uint64_t s;
    explicit Lcg(std::uint64_t seed) : s(seed) {}
    std::uint32_t
    next()
    {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<std::uint32_t>(s >> 33);
    }
};

enum class Mode
{
    Shallow, ///< short deltas, tight horizon (the protocol common case)
    Deep,    ///< many actors, deltas up to 1K ticks
    Payload, ///< Shallow + a Message-sized closure capture
    Mixed,   ///< mostly short deltas with occasional far-future jumps
};

struct Payload
{
    unsigned char bytes[64] = {};
};

struct Harness
{
    EventQueue eq;
    Lcg rng{12345};
    std::uint64_t budget = 0;
    Mode mode = Mode::Shallow;

    Tick
    delta()
    {
        switch (mode) {
          case Mode::Shallow:
          case Mode::Payload:
            return 1 + (rng.next() & 63);
          case Mode::Deep:
            return 1 + (rng.next() & 1023);
          case Mode::Mixed:
            return (rng.next() & 7) ? 1 + (rng.next() & 255)
                                    : 8192 + (rng.next() & 65535);
        }
        return 1;
    }

    void
    arm()
    {
        if (budget == 0)
            return;
        --budget;
        if (mode == Mode::Payload) {
            Payload p;
            p.bytes[0] = static_cast<unsigned char>(budget);
            eq.scheduleIn(delta(), [this, p]() {
                (void)p.bytes[0];
                arm();
            });
        } else {
            eq.scheduleIn(delta(), [this]() { arm(); });
        }
    }
};

struct BenchResult
{
    std::string name;
    std::string kind; ///< "kernel" or "protocol"
    std::uint64_t events = 0;
    double wallSeconds = 0.0;
    double eventsPerSec = 0.0;
    /** Protocol benches only. */
    std::string workload;
    std::string config;
    double scale = 0.0;
    Tick cycles = 0;
    double ticksPerSec = 0.0;
    double poolHitRate = 0.0;
    double inlineRate = 0.0;
    std::uint64_t peakQueueDepth = 0;
};

BenchResult
kernelBench(const char *name, Mode mode, unsigned actors,
            const BenchOptions &opt)
{
    BenchResult br;
    br.name = name;
    br.kind = "kernel";
    for (unsigned rep = 0; rep < opt.repeats; ++rep) {
        Harness h;
        h.mode = mode;
        h.budget = opt.kernelEvents;
        for (unsigned i = 0; i < actors; ++i)
            h.arm();

        const double start = now();
        const std::uint64_t executed = h.eq.run();
        const double wall = now() - start;
        if (rep == 0 || wall < br.wallSeconds) {
            br.wallSeconds = wall;
            br.events = executed;
        }
    }
    br.eventsPerSec =
        br.wallSeconds > 0 ? double(br.events) / br.wallSeconds : 0.0;
    return br;
}

BenchResult
protocolBench(const char *name, const std::string &workload,
              const std::string &config, double scale,
              const BenchOptions &opt)
{
    BenchResult br;
    br.name = name;
    br.kind = "protocol";
    br.workload = workload;
    br.config = config;
    br.scale = scale;

    MachineConfig cfg;
    std::string cname;
    if (!namedMachineConfig(config, /*num_nodes=*/16, cfg, cname))
        panic("bench: unknown config '%s'", config.c_str());
    cfg.proto.checkerEnabled = false;
    br.config = cname;

    for (unsigned rep = 0; rep < opt.repeats; ++rep) {
        System sys(cfg);
        auto wl =
            makeRunnerWorkload(workload, sys.numNodes(), scale);
        RunResult r = sys.run(*wl);
        if (rep == 0 || r.perf.wallSeconds < br.wallSeconds) {
            br.wallSeconds = r.perf.wallSeconds;
            br.events = r.perf.eventsExecuted;
            br.cycles = r.perf.simTicks;
            br.ticksPerSec = r.perf.ticksPerSec();
            br.poolHitRate = r.perf.poolHitRate();
            br.inlineRate = r.perf.inlineRate();
            br.peakQueueDepth = r.perf.peakQueueDepth;
        }
    }
    br.eventsPerSec =
        br.wallSeconds > 0 ? double(br.events) / br.wallSeconds : 0.0;
    return br;
}

JsonValue
toJson(const BenchResult &br)
{
    JsonValue v = JsonValue::object();
    v["name"] = JsonValue(br.name);
    v["kind"] = JsonValue(br.kind);
    v["events"] = JsonValue(br.events);
    v["wallSeconds"] = JsonValue(br.wallSeconds);
    v["eventsPerSec"] = JsonValue(br.eventsPerSec);
    if (br.kind == "protocol") {
        v["workload"] = JsonValue(br.workload);
        v["config"] = JsonValue(br.config);
        v["scale"] = JsonValue(br.scale);
        v["cycles"] = JsonValue(br.cycles);
        v["ticksPerSec"] = JsonValue(br.ticksPerSec);
        v["poolHitRate"] = JsonValue(br.poolHitRate);
        v["inlineRate"] = JsonValue(br.inlineRate);
        v["peakQueueDepth"] = JsonValue(br.peakQueueDepth);
    }
    return v;
}

/** Each benchmark's eventsPerSec in the baseline document @p text,
 *  by name.
 *  @throws JsonParseError, or std::invalid_argument naming the first
 *          missing or mistyped member ("benchmarks[3].name ..."). */
std::map<std::string, double>
baselineRates(const std::string &text)
{
    const JsonValue doc = JsonValue::parse(text);
    const JsonValue *arr = doc.find("benchmarks");
    if (!arr || !arr->isArray())
        throw std::invalid_argument("benchmarks is missing or not an array");
    std::map<std::string, double> rates;
    for (std::size_t i = 0; i < arr->size(); ++i) {
        const std::string at = "benchmarks[" + std::to_string(i) + "].";
        const JsonValue *name = arr->at(i).find("name");
        const JsonValue *eps = arr->at(i).find("eventsPerSec");
        if (!name || !name->isString())
            throw std::invalid_argument(at +
                                        "name is missing or not a string");
        if (!eps || !eps->isNumber())
            throw std::invalid_argument(
                at + "eventsPerSec is missing or not a number");
        rates[name->asString()] = eps->asDouble();
    }
    return rates;
}

} // namespace

int
runBenchSuite(const BenchOptions &opt)
{
    // Check the baseline before running anything.
    std::map<std::string, double> baseline;
    const bool have_baseline = !opt.baselinePath.empty();
    if (have_baseline) {
        std::string text;
        if (readFile(opt.baselinePath, text)) {
            std::fprintf(stderr, "pcsim bench: cannot read baseline "
                                 "'%s'\n",
                         opt.baselinePath.c_str());
            return 1;
        }
        try {
            baseline = baselineRates(text);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "pcsim bench: '%s': %s\n",
                         opt.baselinePath.c_str(), e.what());
            return 1;
        }
    }
    // eventsPerSec of the same-named baseline benchmark; 0 when absent.
    const auto baselineEps = [&](const std::string &name) {
        const auto it = baseline.find(name);
        return it == baseline.end() ? 0.0 : it->second;
    };

    std::vector<BenchResult> results;
    const auto progress = [&](const BenchResult &br) {
        results.push_back(br);
        if (!opt.quiet)
            std::fprintf(stderr, "bench: %-24s %9.0f kev/s\n",
                         br.name.c_str(), br.eventsPerSec / 1e3);
    };

    progress(kernelBench("kernel-selfping-shallow", Mode::Shallow, 64,
                         opt));
    progress(kernelBench("kernel-selfping-deep", Mode::Deep, 4096,
                         opt));
    progress(kernelBench("kernel-payload", Mode::Payload, 64, opt));
    progress(kernelBench("kernel-mixed-overflow", Mode::Mixed, 256,
                         opt));
    progress(protocolBench("proto-pcmicro", "PCmicro", "large", 20.0,
                           opt));
    progress(protocolBench("proto-em3d", "Em3D", "large", 4.0, opt));

    JsonValue doc = JsonValue::object();
    doc["schemaVersion"] = JsonValue(std::uint64_t(1));
    doc["generator"] = JsonValue("pcsim bench");
    doc["kernelEvents"] = JsonValue(opt.kernelEvents);
    doc["repeats"] = JsonValue(std::uint64_t(opt.repeats));
    // Events/sec depend on the host; record its core count.
    doc["hostCores"] = JsonValue(
        std::uint64_t(std::thread::hardware_concurrency()));
    JsonValue arr = JsonValue::array();
    for (const auto &br : results) {
        JsonValue v = toJson(br);
        const double base = baselineEps(br.name);
        if (base > 0) {
            v["baselineEventsPerSec"] = JsonValue(base);
            v["speedup"] = JsonValue(br.eventsPerSec / base);
        }
        arr.push(std::move(v));
    }
    doc["benchmarks"] = std::move(arr);

    // Summary table on stdout, unless the document goes there.
    if (opt.jsonPath != "-") {
        std::printf("%-24s | %10s | %12s | %s\n", "benchmark",
                    "wall(s)", "events/sec",
                    have_baseline ? "speedup" : "");
        for (const auto &br : results) {
            const double base = baselineEps(br.name);
            if (base > 0)
                std::printf("%-24s | %10.4f | %12.0f | %.2fx\n",
                            br.name.c_str(), br.wallSeconds,
                            br.eventsPerSec, br.eventsPerSec / base);
            else
                std::printf("%-24s | %10.4f | %12.0f |\n",
                            br.name.c_str(), br.wallSeconds,
                            br.eventsPerSec);
        }
    }

    if (!opt.jsonPath.empty() &&
        !writeTextFile(opt.jsonPath, doc.dump(2) + "\n"))
        return 1;
    return 0;
}

} // namespace runner
} // namespace pcsim

#include "src/runner/results.hh"

#include <cstdio>
#include <stdexcept>
#include <thread>

#include "src/sim/file_io.hh"
#include "src/sim/logging.hh"

namespace pcsim
{
namespace runner
{

namespace
{

/** @p h as {"total": N, "buckets": [N, ...]}. */
JsonValue
histJson(const Histogram &h)
{
    JsonValue v = JsonValue::object();
    v["total"] = JsonValue(h.total());
    JsonValue buckets = JsonValue::array();
    for (std::size_t i = 0; i < h.numBuckets(); ++i)
        buckets.push(JsonValue(h.bucket(i)));
    v["buckets"] = std::move(buckets);
    return v;
}

/** Add @p s's counters that @p block carries to @p out, in
 *  nodeCounters order. */
void
addCounters(JsonValue &out, const NodeStats &s, CounterBlock block)
{
    for (const NodeCounter &c : nodeCounters) {
        if (c.block == block)
            out[c.name] = JsonValue(s.*c.field);
    }
}

/** Add @p p's counters whose timingOnly is @p timing_only to @p out,
 *  in runPerfCounters order. */
void
addPerf(JsonValue &out, const RunPerf &p, bool timing_only)
{
    for (const RunPerfCounter &c : runPerfCounters) {
        if (c.timingOnly == timing_only)
            out[c.name] = JsonValue(p.*c.field);
    }
}

} // namespace

JsonValue
toJson(const RunResult &r, bool with_timing)
{
    JsonValue v = JsonValue::object();
    v["workload"] = JsonValue(r.workload);
    v["config"] = JsonValue(r.config);
    v["cycles"] = JsonValue(r.cycles);
    v["netMessages"] = JsonValue(r.netMessages);
    v["netBytes"] = JsonValue(r.netBytes);
    v["nackMessages"] = JsonValue(r.nackMessages);
    v["updateMessages"] = JsonValue(r.updateMessages);

    JsonValue nodes = JsonValue::object();
    addCounters(nodes, r.nodes, CounterBlock::Nodes);
    v["nodes"] = std::move(nodes);
    v["consumerHist"] = histJson(r.consumerHist);

    JsonValue perf = JsonValue::object();
    addPerf(perf, r.perf, /*timing_only=*/false);
    if (with_timing) {
        addPerf(perf, r.perf, /*timing_only=*/true);
        perf["wallSeconds"] = JsonValue(r.perf.wallSeconds);
        perf["eventsPerSec"] = JsonValue(r.perf.eventsPerSec());
        perf["ticksPerSec"] = JsonValue(r.perf.ticksPerSec());
    }
    v["perf"] = std::move(perf);

    // Transition coverage exists only when the run had conformance
    // checking on; omitting it otherwise keeps default-config
    // documents byte-identical to pre-conformance ones.
    if (!r.conformance.empty()) {
        JsonValue conf = JsonValue::object();
        JsonValue observed = JsonValue::array();
        for (const auto &t : r.conformance) {
            JsonValue e = JsonValue::object();
            e["ctrl"] = JsonValue(std::uint64_t(t.ctrl));
            e["state"] = JsonValue(std::uint64_t(t.state));
            e["event"] = JsonValue(std::uint64_t(t.event));
            e["next"] = JsonValue(std::uint64_t(t.next));
            e["count"] = JsonValue(t.count);
            observed.push(std::move(e));
        }
        conf["observed"] = std::move(observed);
        v["conformance"] = std::move(conf);
    }

    // Retry-storm telemetry exists only for fault-injected runs;
    // fault-free documents stay byte-identical to the goldens.
    if (r.faultsActive) {
        JsonValue retry = JsonValue::object();
        addCounters(retry, r.nodes, CounterBlock::Retry);
        retry["backoffHist"] = histJson(r.nodes.backoffHist);
        retry["faultDelayedMessages"] =
            JsonValue(r.faultDelayedMessages);
        retry["faultExtraTicks"] = JsonValue(r.faultExtraTicks);
        v["retry"] = std::move(retry);
    }

    // Update-based-policy counters exist only under write-update /
    // adaptive-hybrid kinds; invalidate-based documents stay
    // byte-identical to the goldens.
    if (r.updateBased) {
        JsonValue pol = JsonValue::object();
        addCounters(pol, r.nodes, CounterBlock::Policy);
        v["policy"] = std::move(pol);
    }

    // Fairness telemetry exists only for fault-injected runs or
    // non-default arbitration modes; every pre-existing golden is
    // fault-free and nack-retry, so they stay byte-identical.
    if (r.faultsActive || r.arbitrationActive) {
        JsonValue fair = JsonValue::object();
        fair["arbitration"] = JsonValue(r.arbitrationActive);
        fair["missLatencyP50"] = JsonValue(r.missLatencyP50);
        fair["missLatencyP95"] = JsonValue(r.missLatencyP95);
        fair["missLatencyP99"] = JsonValue(r.missLatencyP99);
        addCounters(fair, r.nodes, CounterBlock::Fairness);
        fair["missLatencyHist"] = histJson(r.nodes.missLatencyHist);
        v["fairness"] = std::move(fair);
    }
    return v;
}

std::vector<verify::TransitionCount>
conformanceFromJson(const JsonValue &conf)
{
    const JsonValue *observed = conf.find("observed");
    if (!observed || !observed->isArray())
        throw std::invalid_argument("observed is missing or not an array");
    std::vector<verify::TransitionCount> out;
    for (std::size_t i = 0; i < observed->size(); ++i) {
        const JsonValue &e = observed->at(i);
        const auto member = [&](const char *key, std::uint64_t max) {
            const JsonValue *m = e.find(key);
            if (m && m->type() == JsonValue::Type::UInt &&
                m->asUInt() <= max)
                return m->asUInt();
            throw std::invalid_argument(
                "observed[" + std::to_string(i) + "]." + key +
                (m ? " is not an unsigned integer <= " +
                         std::to_string(max)
                   : " is missing"));
        };
        verify::TransitionCount t;
        t.ctrl = static_cast<std::uint8_t>(member("ctrl", 0xff));
        t.state = static_cast<std::uint8_t>(member("state", 0xff));
        t.event = static_cast<std::uint8_t>(member("event", 0xff));
        t.next = static_cast<std::uint8_t>(member("next", 0xff));
        t.count = member("count", ~std::uint64_t(0));
        out.push_back(t);
    }
    return out;
}

JsonValue
toJson(const JobResult &jr, bool with_timing)
{
    JsonValue v = toJson(jr.result, with_timing);
    // The job spec is authoritative for identity fields: a failed job
    // has an empty RunResult but still reports what was asked for.
    v["workload"] = JsonValue(jr.job.workload);
    v["config"] = JsonValue(jr.job.configName);
    v["label"] = JsonValue(jr.job.label);
    v["seed"] = JsonValue(jr.job.seed);
    v["scale"] = JsonValue(jr.job.scale);
    v["ok"] = JsonValue(jr.ok);
    v["error"] = JsonValue(jr.error);
    return v;
}

JsonValue
resultsToJson(const std::vector<JobResult> &results, bool with_timing)
{
    JsonValue doc = JsonValue::object();
    doc["schemaVersion"] = JsonValue(std::uint64_t(3));
    doc["generator"] = JsonValue("pcsim");
    // Wall-clock rates depend on the host; record its core count.
    if (with_timing)
        doc["hostCores"] = JsonValue(
            std::uint64_t(std::thread::hardware_concurrency()));
    JsonValue arr = JsonValue::array();
    for (const auto &r : results)
        arr.push(toJson(r, with_timing));
    doc["results"] = std::move(arr);
    return doc;
}

std::string
resultsToCsv(const std::vector<JobResult> &results, bool with_timing)
{
    std::string out = "workload,config,label,seed,scale,ok,error,"
                      "cycles,netMessages,netBytes,nackMessages,"
                      "updateMessages";
    for (const NodeCounter &c : nodeCounters) {
        if (c.block == CounterBlock::Nodes)
            out += std::string(",nodes.") + c.name;
    }
    for (const RunPerfCounter &c : runPerfCounters)
        out += std::string(",perf.") + c.name;
    if (with_timing)
        out += ",perf.wallSeconds,perf.eventsPerSec";
    out += '\n';

    const auto num = [](std::uint64_t v) {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%llu",
                      (unsigned long long)v);
        return std::string(buf);
    };
    for (const auto &jr : results) {
        char scale_str[32];
        std::snprintf(scale_str, sizeof(scale_str), "%g",
                      jr.job.scale);
        out += csvField(jr.job.workload) + ',' +
               csvField(jr.job.configName) + ',' +
               csvField(jr.job.label) + ',' + num(jr.job.seed) + ',' +
               scale_str + ',' + (jr.ok ? "1" : "0") + ',' +
               csvField(jr.error) + ',' + num(jr.result.cycles) + ',' +
               num(jr.result.netMessages) + ',' +
               num(jr.result.netBytes) + ',' +
               num(jr.result.nackMessages) + ',' +
               num(jr.result.updateMessages);
        for (const NodeCounter &c : nodeCounters) {
            if (c.block == CounterBlock::Nodes)
                out += ',' + num(jr.result.nodes.*c.field);
        }
        for (const RunPerfCounter &c : runPerfCounters)
            out += ',' + num(jr.result.perf.*c.field);
        if (with_timing) {
            char t[64];
            std::snprintf(t, sizeof(t), ",%.6f,%.0f",
                          jr.result.perf.wallSeconds,
                          jr.result.perf.eventsPerSec());
            out += t;
        }
        out += '\n';
    }
    return out;
}

bool
writeTextFile(const std::string &path, const std::string &text)
{
    if (path == "-") {
        std::fwrite(text.data(), 1, text.size(), stdout);
        return true;
    }
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("cannot write '%s'", path.c_str());
        return false;
    }
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) ==
                    text.size();
    std::fclose(f);
    if (!ok)
        warn("short write to '%s'", path.c_str());
    return ok;
}

} // namespace runner
} // namespace pcsim

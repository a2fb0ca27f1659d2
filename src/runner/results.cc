#include "src/runner/results.hh"

#include <cstdio>
#include <stdexcept>
#include <thread>

#include "src/sim/logging.hh"

namespace pcsim
{
namespace runner
{

/** Every NodeStats counter, in declaration order. The JSON and CSV
 *  writers both expand this list, so they cannot drift. */
#define PCSIM_NODE_STATS_FIELDS(X)                                        \
    X(reads)                                                              \
    X(writes)                                                             \
    X(l1Hits)                                                             \
    X(l2Hits)                                                             \
    X(localMisses)                                                        \
    X(remoteMisses)                                                       \
    X(racHits)                                                            \
    X(twoHopMisses)                                                       \
    X(threeHopMisses)                                                     \
    X(nacksReceived)                                                      \
    X(retries)                                                            \
    X(homeRequests)                                                       \
    X(nacksSent)                                                          \
    X(interventionsSent)                                                  \
    X(dirCacheHits)                                                       \
    X(dirCacheMisses)                                                     \
    X(delegationsGranted)                                                 \
    X(delegationsReceived)                                                \
    X(undelegationsCapacity)                                              \
    X(undelegationsFlush)                                                 \
    X(undelegationsConflict)                                              \
    X(forwardedRequests)                                                  \
    X(delegatedLocalOps)                                                  \
    X(delayedInterventions)                                               \
    X(updatesSent)                                                        \
    X(updatesReceived)                                                    \
    X(updatesConsumed)                                                    \
    X(updatesDropped)                                                     \
    X(extraWriteMisses)                                                   \
    X(writebacks)

/** RunPerf counters that are pure functions of the simulated content:
 *  byte-identical across hosts and thread counts. Only these go into
 *  default (determinism-checked) JSON. */
#define PCSIM_RUN_PERF_DET_FIELDS(X)                                      \
    X(eventsExecuted)                                                     \
    X(eventsScheduled)                                                    \
    X(inlineCallbacks)                                                    \
    X(heapCallbacks)                                                      \
    X(poolAcquires)                                                       \
    X(simTicks)

/** Queue-shape and pool-recycling counters. They are deterministic
 *  too, but schemaVersion 3 moved them behind with_timing, next to the
 *  wall-clock rates, and moving them back would change every committed
 *  golden document. */
#define PCSIM_RUN_PERF_SHAPE_FIELDS(X)                                    \
    X(peakQueueDepth)                                                     \
    X(overflowEvents)                                                     \
    X(windowAdvances)                                                     \
    X(poolReuses)

/** All scalar counters in the historic (schemaVersion 2) order; the
 *  CSV keeps this column layout. */
#define PCSIM_RUN_PERF_FIELDS(X)                                          \
    X(eventsExecuted)                                                     \
    X(eventsScheduled)                                                    \
    X(peakQueueDepth)                                                     \
    X(inlineCallbacks)                                                    \
    X(heapCallbacks)                                                      \
    X(overflowEvents)                                                     \
    X(windowAdvances)                                                     \
    X(poolAcquires)                                                       \
    X(poolReuses)                                                         \
    X(simTicks)

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
#define X(field) nodes[#field] = JsonValue(r.nodes.field);
    PCSIM_NODE_STATS_FIELDS(X)
#undef X
    v["nodes"] = std::move(nodes);

    JsonValue hist = JsonValue::object();
    hist["total"] = JsonValue(r.consumerHist.total());
    JsonValue buckets = JsonValue::array();
    for (std::size_t i = 0; i < r.consumerHist.numBuckets(); ++i)
        buckets.push(JsonValue(r.consumerHist.bucket(i)));
    hist["buckets"] = std::move(buckets);
    v["consumerHist"] = std::move(hist);

    JsonValue perf = JsonValue::object();
#define X(field) perf[#field] = JsonValue(r.perf.field);
    PCSIM_RUN_PERF_DET_FIELDS(X)
#undef X
    if (with_timing) {
#define X(field) perf[#field] = JsonValue(r.perf.field);
        PCSIM_RUN_PERF_SHAPE_FIELDS(X)
#undef X
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
        retry["mshrConflictRetries"] =
            JsonValue(r.nodes.mshrConflictRetries);
        retry["dirRehandleRetries"] =
            JsonValue(r.nodes.dirRehandleRetries);
        retry["maxRetriesPerLine"] = JsonValue(r.nodes.maxRetriesPerLine);
        retry["nackStormPeak"] = JsonValue(r.nodes.nackStormPeak);
        JsonValue bh = JsonValue::object();
        bh["total"] = JsonValue(r.nodes.backoffHist.total());
        JsonValue bb = JsonValue::array();
        for (std::size_t i = 0; i < r.nodes.backoffHist.numBuckets();
             ++i)
            bb.push(JsonValue(r.nodes.backoffHist.bucket(i)));
        bh["buckets"] = std::move(bb);
        retry["backoffHist"] = std::move(bh);
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
        pol["updateEpisodes"] = JsonValue(r.nodes.updateEpisodes);
        pol["updatesApplied"] = JsonValue(r.nodes.updatesApplied);
        pol["adaptiveDrops"] = JsonValue(r.nodes.adaptiveDrops);
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
        fair["maxLineWaitTicks"] = JsonValue(r.nodes.maxLineWaitTicks);
        fair["queueDepthPeak"] = JsonValue(r.nodes.queueDepthPeak);
        JsonValue mh = JsonValue::object();
        mh["total"] = JsonValue(r.nodes.missLatencyHist.total());
        JsonValue mb = JsonValue::array();
        for (std::size_t i = 0;
             i < r.nodes.missLatencyHist.numBuckets(); ++i)
            mb.push(JsonValue(r.nodes.missLatencyHist.bucket(i)));
        mh["buckets"] = std::move(mb);
        fair["missLatencyHist"] = std::move(mh);
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

namespace
{

std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

std::string
resultsToCsv(const std::vector<JobResult> &results, bool with_timing)
{
    std::string out = "workload,config,label,seed,scale,ok,error,"
                      "cycles,netMessages,netBytes,nackMessages,"
                      "updateMessages";
#define X(field) out += ",nodes." #field;
    PCSIM_NODE_STATS_FIELDS(X)
#undef X
#define X(field) out += ",perf." #field;
    PCSIM_RUN_PERF_FIELDS(X)
#undef X
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
#define X(field) out += ',' + num(jr.result.nodes.field);
        PCSIM_NODE_STATS_FIELDS(X)
#undef X
#define X(field) out += ',' + num(jr.result.perf.field);
        PCSIM_RUN_PERF_FIELDS(X)
#undef X
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

bool
readTextFile(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        return false;
    out.clear();
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    const bool ok = !std::ferror(f);
    std::fclose(f);
    return ok;
}

} // namespace runner
} // namespace pcsim

#include "src/runner/job.hh"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "src/workload/micro.hh"
#include "src/workload/serving.hh"
#include "src/workload/suite.hh"

namespace pcsim
{
namespace runner
{

JobSet &
JobSet::add(Job j)
{
    if (j.label.empty()) {
        j.label = j.workload;
        if (!j.configName.empty())
            j.label += "/" + j.configName;
    }
    _jobs.push_back(std::move(j));
    return *this;
}

JobSet &
JobSet::add(const std::string &workload,
            const presets::NamedConfig &config, std::uint64_t seed,
            double scale)
{
    Job j;
    j.workload = workload;
    j.cfg = config.cfg;
    j.configName = config.name;
    j.seed = seed;
    j.scale = scale;
    return add(std::move(j));
}

JobSet &
JobSet::sweep(const std::vector<std::string> &workloads,
              const std::vector<presets::NamedConfig> &configs,
              double scale, const std::vector<std::uint64_t> &seeds)
{
    for (const auto &w : workloads)
        for (const auto &c : configs)
            for (std::uint64_t s : seeds)
                add(w, c, s, scale);
    return *this;
}

// --- workload registry -------------------------------------------

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names = suiteNames();
    names.push_back("PCmicro");
    names.push_back("Migratory");
    names.push_back("Random");
    for (const auto &n : servingNames())
        names.push_back(n);
    return names;
}

namespace
{

std::string
lowered(const std::string &s)
{
    std::string out = s;
    std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return out;
}

} // namespace

std::string
canonicalWorkload(const std::string &name)
{
    const std::string key = lowered(name);
    for (const auto &canonical : workloadNames())
        if (lowered(canonical) == key)
            return canonical;
    // Friendly aliases for the micro patterns.
    if (key == "micro" || key == "pc" || key == "producer-consumer")
        return "PCmicro";
    return "";
}

std::unique_ptr<Workload>
makeRunnerWorkload(const std::string &name, unsigned num_cpus,
                   double scale)
{
    const std::string canonical = canonicalWorkload(name);
    if (canonical.empty())
        throw std::invalid_argument("unknown workload '" + name + "'");

    const auto scaled = [scale](unsigned iters) {
        return std::max(1u, static_cast<unsigned>(iters * scale));
    };

    if (canonical == "PCmicro") {
        ProducerConsumerMicro::Params p;
        p.iterations = scaled(p.iterations);
        return std::make_unique<ProducerConsumerMicro>(num_cpus, p);
    }
    if (canonical == "Migratory") {
        MigratoryMicro::Params p;
        p.iterations = scaled(p.iterations);
        return std::make_unique<MigratoryMicro>(num_cpus, p);
    }
    if (canonical == "Random") {
        RandomMicro::Params p;
        p.opsPerCpu = scaled(p.opsPerCpu);
        return std::make_unique<RandomMicro>(num_cpus, p);
    }
    if (canonical == "KVServe") {
        KvServingWorkload::Params p;
        p.requestsPerNode = scaled(p.requestsPerNode);
        return std::make_unique<KvServingWorkload>(num_cpus, p);
    }
    if (canonical == "WorkQueue") {
        WorkQueueWorkload::Params p;
        p.rounds = scaled(p.rounds);
        return std::make_unique<WorkQueueWorkload>(num_cpus, p);
    }
    if (canonical == "RCU") {
        RcuWorkload::Params p;
        p.rounds = scaled(p.rounds);
        return std::make_unique<RcuWorkload>(num_cpus, p);
    }
    if (canonical == "PubSub") {
        PubSubWorkload::Params p;
        p.rounds = scaled(p.rounds);
        return std::make_unique<PubSubWorkload>(num_cpus, p);
    }
    return makeWorkload(canonical, num_cpus, scale);
}

// --- configuration registry --------------------------------------

namespace
{

MachineConfig
makeRac32k(unsigned n)
{
    return presets::racOnly(32 * 1024, n);
}

MachineConfig
makeRac1m(unsigned n)
{
    return presets::racOnly(1024 * 1024, n);
}

MachineConfig
makeDelegation(unsigned n)
{
    return presets::delegationOnly(32, 32 * 1024, n);
}

MachineConfig
makeWriteUpdate(unsigned n)
{
    return presets::writeUpdate(n);
}

MachineConfig
makeAdaptiveHybrid(unsigned n)
{
    return presets::adaptiveHybrid(n);
}

} // namespace

const std::vector<ConfigPreset> &
configPresets()
{
    static const std::vector<ConfigPreset> table = {
        {"base", "", "baseline directory protocol", presets::base},
        {"rac32k", "rac", "base + 32K remote access cache", makeRac32k},
        {"rac1m", "", "base + 1M remote access cache", makeRac1m},
        {"small", "pcopt", "32-entry deledc & 32K RAC", presets::small},
        {"large", "pcopt-large", "1K-entry deledc & 1M RAC",
         presets::large},
        {"delegation", "delegation-only",
         "delegation without speculative updates", makeDelegation},
        {"write-update", "update", "Dragon-style write-update protocol",
         makeWriteUpdate},
        {"adaptive-hybrid", "adaptive",
         "write-update with per-line self-invalidation",
         makeAdaptiveHybrid},
    };
    return table;
}

bool
namedMachineConfig(const std::string &name, unsigned num_nodes,
                   MachineConfig &out, std::string &canonical)
{
    const std::string key = lowered(name);
    for (const ConfigPreset &e : configPresets()) {
        if (key == e.name || (e.alias[0] && key == e.alias)) {
            out = e.make(num_nodes);
            canonical = e.name;
            return true;
        }
    }
    return false;
}

} // namespace runner
} // namespace pcsim

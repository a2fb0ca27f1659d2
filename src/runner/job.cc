#include "src/runner/job.hh"

#include <algorithm>
#include <cctype>

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

// --- configuration registry --------------------------------------

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

std::string
buildJob(const JobRequest &r, Job &out)
{
    Job j;
    j.workload = r.factory ? r.workload : canonicalWorkload(r.workload);
    if (j.workload.empty())
        return "unknown workload '" + r.workload + "'";
    if (!namedMachineConfig(r.config, r.nodes, j.cfg, j.configName))
        return "unknown config '" + r.config + "'";
    if (!isPowerOfTwo(r.coarse))
        return "coarse " + std::to_string(r.coarse) +
               " is not a power of two";
    ProtocolConfig &p = j.cfg.proto;
    p.sharerGranularityLog2 = log2Ceil(r.coarse);
    if (r.lineBytes)
        p.lineBytes = r.lineBytes;
    p.checkerEnabled = r.checker;
    p.conformanceEnabled = r.conformance;
    const std::string err = p.validateError();
    if (!err.empty())
        return "invalid configuration '" + j.configName + "' at " +
               std::to_string(r.nodes) + " nodes: " + err;
    j.factory = r.factory;
    j.seed = r.seed;
    j.scale = r.scale;
    out = std::move(j);
    return "";
}

} // namespace runner
} // namespace pcsim

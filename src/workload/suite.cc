#include "src/workload/suite.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "src/workload/appbt.hh"
#include "src/workload/barnes.hh"
#include "src/workload/cg.hh"
#include "src/workload/em3d.hh"
#include "src/workload/lu.hh"
#include "src/workload/mg.hh"
#include "src/workload/micro.hh"
#include "src/workload/ocean.hh"
#include "src/workload/serving.hh"

namespace pcsim
{

namespace
{

enum class Family : std::uint8_t { Suite, Micro, Serving };

/** A W built from default parameters with the count @p Count scaled. */
template <typename W, typename P, unsigned P::*Count>
std::unique_ptr<Workload>
build(const std::string &name, unsigned num_cpus, double scale,
      unsigned floor)
{
    P p;
    p.*Count = scaledCount(name, p.*Count, scale, floor);
    return std::make_unique<W>(num_cpus, p);
}

struct WorkloadEntry
{
    const char *name;
    Family family;
    std::unique_ptr<Workload> (*build)(const std::string &, unsigned,
                                       double, unsigned);
};

using PcParams = ProducerConsumerMicro::Params;
using MigParams = MigratoryMicro::Params;
using RandParams = RandomMicro::Params;
using KvParams = KvServingWorkload::Params;
using WqParams = WorkQueueWorkload::Params;
using RcuParams = RcuWorkload::Params;
using PsParams = PubSubWorkload::Params;

/** Every workload, in `pcsim list` order. */
constexpr WorkloadEntry workloads[] = {
    {"Barnes", Family::Suite,
     build<BarnesWorkload, BarnesParams, &BarnesParams::iterations>},
    {"Ocean", Family::Suite,
     build<OceanWorkload, OceanParams, &OceanParams::iterations>},
    {"Em3D", Family::Suite,
     build<Em3dWorkload, Em3dParams, &Em3dParams::iterations>},
    {"LU", Family::Suite,
     build<LuWorkload, LuParams, &LuParams::iterations>},
    {"CG", Family::Suite,
     build<CgWorkload, CgParams, &CgParams::iterations>},
    {"MG", Family::Suite, build<MgWorkload, MgParams, &MgParams::vCycles>},
    {"Appbt", Family::Suite,
     build<AppbtWorkload, AppbtParams, &AppbtParams::iterations>},
    {"PCmicro", Family::Micro,
     build<ProducerConsumerMicro, PcParams, &PcParams::iterations>},
    {"Migratory", Family::Micro,
     build<MigratoryMicro, MigParams, &MigParams::iterations>},
    {"Random", Family::Micro,
     build<RandomMicro, RandParams, &RandParams::opsPerCpu>},
    {"KVServe", Family::Serving,
     build<KvServingWorkload, KvParams, &KvParams::requestsPerNode>},
    {"WorkQueue", Family::Serving,
     build<WorkQueueWorkload, WqParams, &WqParams::rounds>},
    {"RCU", Family::Serving,
     build<RcuWorkload, RcuParams, &RcuParams::rounds>},
    {"PubSub", Family::Serving,
     build<PubSubWorkload, PsParams, &PsParams::rounds>},
};

std::string
lowered(const std::string &s)
{
    std::string out = s;
    std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return out;
}

std::vector<std::string>
namesOf(Family family)
{
    std::vector<std::string> names;
    for (const WorkloadEntry &w : workloads)
        if (w.family == family)
            names.push_back(w.name);
    return names;
}

} // namespace

std::vector<std::string>
suiteNames()
{
    return namesOf(Family::Suite);
}

std::vector<std::string>
servingNames()
{
    return namesOf(Family::Serving);
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const WorkloadEntry &w : workloads)
        names.push_back(w.name);
    return names;
}

std::string
canonicalWorkload(const std::string &name)
{
    const std::string key = lowered(name);
    for (const WorkloadEntry &w : workloads)
        if (lowered(w.name) == key)
            return w.name;
    // Friendly aliases for the micro patterns.
    if (key == "micro" || key == "pc" || key == "producer-consumer")
        return "PCmicro";
    return "";
}

unsigned
scaledCount(const std::string &workload, unsigned count, double scale,
            unsigned floor)
{
    const double n = count * scale;
    if (!(n >= 0 && n <= std::numeric_limits<unsigned>::max())) {
        char s[32];
        std::snprintf(s, sizeof(s), "%g", scale);
        throw std::invalid_argument(
            "workload '" + workload + "' cannot run at scale " + s +
            ": its scaled count is outside 0.." +
            std::to_string(std::numeric_limits<unsigned>::max()));
    }
    return std::max(floor, static_cast<unsigned>(n));
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, unsigned num_cpus, double scale)
{
    const std::string canonical = canonicalWorkload(name);
    for (const WorkloadEntry &w : workloads)
        if (canonical == w.name)
            return w.build(canonical, num_cpus, scale,
                           w.family == Family::Suite ? 4 : 1);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

} // namespace pcsim

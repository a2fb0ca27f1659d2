#include "src/workload/suite.hh"

#include <algorithm>

#include "src/sim/logging.hh"
#include "src/workload/appbt.hh"
#include "src/workload/barnes.hh"
#include "src/workload/cg.hh"
#include "src/workload/em3d.hh"
#include "src/workload/lu.hh"
#include "src/workload/mg.hh"
#include "src/workload/ocean.hh"

namespace pcsim
{

std::vector<std::string>
suiteNames()
{
    return {"Barnes", "Ocean", "Em3D", "LU", "CG", "MG", "Appbt"};
}

namespace
{

unsigned
scaled(unsigned iters, double scale)
{
    return std::max(4u, static_cast<unsigned>(iters * scale));
}

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, unsigned num_cpus, double scale)
{
    if (name == "Barnes") {
        BarnesParams p;
        p.iterations = scaled(p.iterations, scale);
        return std::make_unique<BarnesWorkload>(num_cpus, p);
    }
    if (name == "Ocean") {
        OceanParams p;
        p.iterations = scaled(p.iterations, scale);
        return std::make_unique<OceanWorkload>(num_cpus, p);
    }
    if (name == "Em3D") {
        Em3dParams p;
        p.iterations = scaled(p.iterations, scale);
        return std::make_unique<Em3dWorkload>(num_cpus, p);
    }
    if (name == "LU") {
        LuParams p;
        p.iterations = scaled(p.iterations, scale);
        return std::make_unique<LuWorkload>(num_cpus, p);
    }
    if (name == "CG") {
        CgParams p;
        p.iterations = scaled(p.iterations, scale);
        return std::make_unique<CgWorkload>(num_cpus, p);
    }
    if (name == "MG") {
        MgParams p;
        p.vCycles = scaled(p.vCycles, scale);
        return std::make_unique<MgWorkload>(num_cpus, p);
    }
    if (name == "Appbt") {
        AppbtParams p;
        p.iterations = scaled(p.iterations, scale);
        return std::make_unique<AppbtWorkload>(num_cpus, p);
    }
    fatal("unknown workload '%s'", name.c_str());
}

} // namespace pcsim

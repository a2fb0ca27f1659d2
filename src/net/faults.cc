#include "src/net/faults.hh"

#include <cmath>
#include <cstdio>

namespace pcsim
{

namespace
{

std::string
format(const char *fmt, unsigned long long a, unsigned long long b = 0)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), fmt, a, b);
    return buf;
}

bool
badFraction(double f)
{
    return !(f >= 0.0) || f > 1.0 || std::isnan(f);
}

/** A window must fit inside a nonzero period to mean anything. */
std::string
checkWindow(const char *what, Tick period, Tick duration)
{
    if (period == 0)
        return std::string(what) + " period must be nonzero";
    if (duration == 0)
        return std::string(what) + " duration must be nonzero";
    if (duration > period)
        return std::string(what) +
               " duration must not exceed its period";
    return "";
}

} // namespace

std::string
FaultConfig::validateError(unsigned num_nodes,
                           std::size_t dir_cache_ways) const
{
    if (badFraction(grayLinkFraction))
        return "grayLinkFraction must be in [0, 1]";
    if (badFraction(stallNodeFraction))
        return "stallNodeFraction must be in [0, 1]";

    if (grayLinkFraction > 0.0 && grayExtraLatency > 0) {
        const std::string e =
            checkWindow("gray-link", grayPeriod, grayDuration);
        if (!e.empty())
            return e;
    }
    if (stallNodeFraction > 0.0) {
        const std::string e =
            checkWindow("NI-stall", stallPeriod, stallDuration);
        if (!e.empty())
            return e;
    }
    if (hotspotExtraLatency > 0) {
        const std::string e =
            checkWindow("hot-spot", hotspotPeriod, hotspotDuration);
        if (!e.empty())
            return e;
        if (hotspotNode != invalidNode && hotspotNode >= num_nodes)
            return format("hotspotNode %llu is outside the %llu-node "
                          "machine",
                          hotspotNode, num_nodes);
    }
    if (dirPressureWays > 0) {
        const std::string e = checkWindow(
            "directory-pressure", dirPressurePeriod,
            dirPressureDuration);
        if (!e.empty())
            return e;
        if (dirPressureWays > dir_cache_ways)
            return format("dirPressureWays %llu exceeds the directory "
                          "cache's %llu ways (pressure must shrink "
                          "associativity, not grow it)",
                          dirPressureWays, dir_cache_ways);
    }
    if (enabled && !anyMechanism())
        return "faults.enabled set but no mechanism is armed "
               "(gray/stall/hotspot/dirPressure all off)";
    return "";
}

FaultPlan::FaultPlan(const FaultConfig &cfg, unsigned num_nodes,
                     Rng rng)
    : _cfg(cfg),
      _numNodes(num_nodes),
      _stalled(num_nodes, 0),
      _stallPhase(num_nodes, 0),
      _dirPhase(num_nodes, 0)
{
    _graySalt = rng.next();
    if (_cfg.grayLinkFraction > 0.0 && _cfg.grayExtraLatency > 0) {
        // Scale the fraction to a 64-bit threshold: link hashes below
        // it are gray. 1.0 maps to "all but one in 2^64" -- close
        // enough, and it keeps the comparison branch-free.
        const long double full = 18446744073709551616.0L; // 2^64
        long double t = (long double)_cfg.grayLinkFraction * full;
        if (t >= full)
            t = full - 1.0L;
        _grayThreshold = (std::uint64_t)t;
        if (_grayThreshold == 0 && _cfg.grayLinkFraction > 0.0)
            _grayThreshold = 1;
    }

    for (unsigned n = 0; n < num_nodes; ++n) {
        if (_cfg.stallNodeFraction > 0.0)
            _stalled[n] = rng.chance(_cfg.stallNodeFraction) ? 1 : 0;
        _stallPhase[n] =
            _cfg.stallPeriod ? rng.below(_cfg.stallPeriod) : 0;
        _dirPhase[n] = _cfg.dirPressurePeriod
                           ? rng.below(_cfg.dirPressurePeriod)
                           : 0;
    }
    // A stall fraction that rounded every node out of the set would
    // silently disable the mechanism; force at least one stalled node
    // so armed configs always perturb something.
    if (_cfg.stallNodeFraction > 0.0 && num_nodes > 0) {
        bool any = false;
        for (std::uint8_t s : _stalled)
            any = any || s;
        if (!any)
            _stalled[rng.below(num_nodes)] = 1;
    }

    if (_cfg.hotspotExtraLatency > 0 && num_nodes > 0) {
        _hotspot = _cfg.hotspotNode != invalidNode
                       ? _cfg.hotspotNode
                       : (NodeId)rng.below(num_nodes);
        _hotspotPhase = _cfg.hotspotPeriod
                            ? rng.below(_cfg.hotspotPeriod)
                            : 0;
    }
}

bool
FaultPlan::inWindow(Tick now, Tick phase, Tick period, Tick duration)
{
    return period != 0 && duration != 0 &&
           (now + phase) % period < duration;
}

std::uint64_t
FaultPlan::mix64(std::uint64_t x)
{
    // SplitMix64 finalizer: a cheap, well-mixed hash.
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

std::uint64_t
FaultPlan::linkHash(NodeId src, NodeId dst) const
{
    const std::uint64_t key =
        (std::uint64_t(src) << 32) | std::uint64_t(dst);
    return mix64(_graySalt ^ key);
}

bool
FaultPlan::linkIsGray(NodeId src, NodeId dst) const
{
    return _grayThreshold != 0 && linkHash(src, dst) < _grayThreshold;
}

Tick
FaultPlan::extraLatency(NodeId src, NodeId dst, Tick now) const
{
    Tick extra = 0;
    if (_grayThreshold != 0) {
        const std::uint64_t h = linkHash(src, dst);
        if (h < _grayThreshold) {
            // Per-link window phase, derived from the same hash so the
            // plan stores nothing per link.
            const Tick phase =
                mix64(h ^ 0x5851f42d4c957f2dull) % _cfg.grayPeriod;
            if (inWindow(now, phase, _cfg.grayPeriod,
                         _cfg.grayDuration))
                extra += _cfg.grayExtraLatency;
        }
    }
    if (dst == _hotspot &&
        inWindow(now, _hotspotPhase, _cfg.hotspotPeriod,
                 _cfg.hotspotDuration))
        extra += _cfg.hotspotExtraLatency;
    return extra;
}

Tick
FaultPlan::stallClearTick(NodeId node, Tick at) const
{
    if (node >= _stalled.size() || !_stalled[node])
        return at;
    const Tick off = (at + _stallPhase[node]) % _cfg.stallPeriod;
    if (off >= _cfg.stallDuration)
        return at;
    return at + (_cfg.stallDuration - off);
}

unsigned
FaultPlan::dirWaysLimit(NodeId node, Tick now) const
{
    if (_cfg.dirPressureWays == 0 || node >= _dirPhase.size())
        return 0;
    return inWindow(now, _dirPhase[node], _cfg.dirPressurePeriod,
                    _cfg.dirPressureDuration)
               ? _cfg.dirPressureWays
               : 0;
}

} // namespace pcsim

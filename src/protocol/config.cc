#include "src/protocol/config.hh"

#include <algorithm>
#include <cstdio>

#include "src/cache/cache_array.hh"
#include "src/sim/logging.hh"

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

} // namespace

const char *
protocolKindName(ProtocolKind k)
{
    switch (k) {
      case ProtocolKind::MesiDir:
        return "mesi-dir";
      case ProtocolKind::Delegation:
        return "delegation";
      case ProtocolKind::DelegationUpdates:
        return "delegation-updates";
      case ProtocolKind::WriteUpdate:
        return "write-update";
      case ProtocolKind::AdaptiveHybrid:
        return "adaptive-hybrid";
      default:
        return "?";
    }
}

bool
protocolKindFromName(const std::string &name, ProtocolKind &out)
{
    for (unsigned k = 0;
         k < static_cast<unsigned>(ProtocolKind::NumProtocolKinds); ++k) {
        const auto kind = static_cast<ProtocolKind>(k);
        if (name == protocolKindName(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

const char *
arbitrationName(Arbitration a)
{
    switch (a) {
      case Arbitration::NackRetry:
        return "nack-retry";
      case Arbitration::Queue:
        return "queue";
      case Arbitration::AgedPriority:
        return "aged-priority";
      default:
        return "?";
    }
}

bool
arbitrationFromName(const std::string &name, Arbitration &out)
{
    for (unsigned a = 0;
         a < static_cast<unsigned>(Arbitration::NumArbitrations); ++a) {
        const auto arb = static_cast<Arbitration>(a);
        if (name == arbitrationName(arb)) {
            out = arb;
            return true;
        }
    }
    return false;
}

std::string
ProtocolConfig::validateError() const
{
    if (kind >= ProtocolKind::NumProtocolKinds)
        return format("unknown ProtocolKind %llu (valid kinds are "
                      "0..%llu; see protocolKindName)",
                      static_cast<unsigned long long>(kind),
                      static_cast<unsigned long long>(
                          ProtocolKind::NumProtocolKinds) -
                          1);
    if (numNodes == 0)
        return "numNodes must be at least 1";
    if (numNodes > maxNodes)
        return format("numNodes %llu exceeds the supported maximum %llu",
                      numNodes, maxNodes);
    if (numNodes >= invalidNode)
        return format("numNodes %llu does not fit the NodeId "
                      "representation (max %llu)",
                      numNodes, invalidNode - 1ull);
    if (!isPowerOfTwo(lineBytes) || lineBytes < 8)
        return format("lineBytes %llu must be a power of two >= 8",
                      lineBytes);
    if (sharerGranularityLog2 > log2Ceil(numNodes))
        return format("sharerGranularityLog2 %llu groups more than "
                      "numNodes=%llu nodes per sharer bit",
                      sharerGranularityLog2, numNodes);
    if (mshrs == 0)
        return "mshrs must be at least 1";
    if (maxRetries == 0)
        return "maxRetries must be at least 1";
    if (retryBase == 0)
        return "retryBase must be nonzero";
    if (retryExpCap > 20)
        return format("retryExpCap %llu would shift retryBase past "
                      "any plausible horizon (max 20)",
                      retryExpCap);
    if (retryJitter == 0 && numNodes >= 64)
        return format("retryJitter 0 at %llu nodes: colliding "
                      "requesters retry in lockstep and can convoy "
                      "into a livelock (see config.hh); set "
                      "retryJitter > 0",
                      numNodes);
    if (retryBase > (maxTick >> retryExpCap))
        return format("retryBase %llu << retryExpCap %llu overflows "
                      "the Tick range",
                      retryBase, retryExpCap);
    if (retryJitter == maxTick)
        return "retryJitter + 1 overflows (the jitter draw is uniform "
               "in [0, retryJitter]; use a smaller bound)";
    if (arbitration >= Arbitration::NumArbitrations)
        return format("unknown Arbitration %llu (valid modes are "
                      "0..%llu; see arbitrationName)",
                      static_cast<unsigned long long>(arbitration),
                      static_cast<unsigned long long>(
                          Arbitration::NumArbitrations) -
                          1);
    if (arbitrationActive() && arbQueueDepth == 0)
        return "arbQueueDepth must be at least 1 when a parked-request "
               "arbitration mode is selected";

    // Cache arrays align lines by mask, so every line size must be a
    // power of two.
    if (!isPowerOfTwo(l1.lineBytes))
        return format("l1.lineBytes %llu must be a power of two",
                      l1.lineBytes);
    // An L1 line must lie within one coherence line (L2 inclusion).
    if (l1.lineBytes > lineBytes)
        return format("l1.lineBytes %llu exceeds lineBytes %llu",
                      l1.lineBytes, lineBytes);
    if (l1.sizeBytes == 0 || l1.ways == 0 ||
        l1.sizeBytes < l1.ways * l1.lineBytes)
        return "L1 geometry is degenerate (size/ways/lineBytes)";
    if (l2SizeBytes == 0 || l2Ways == 0 ||
        (l2SetsOverride == 0 && l2SizeBytes < l2Ways * lineBytes))
        return "L2 geometry is degenerate (size/ways/lineBytes)";

    if (dirCache.entries == 0 || dirCache.ways == 0 ||
        dirCache.entries < dirCache.ways)
        return format("directory cache needs entries (%llu) >= ways "
                      "(%llu), both nonzero",
                      dirCache.entries, dirCache.ways);
    // Each cache array's set index and LRU ranks are narrow; the
    // names and set counts are the ones the arrays are built with.
    for (const std::string &err :
         {cacheGeometryError("l1d", l1.sizeBytes / (l1.ways * l1.lineBytes),
                             l1.ways),
          cacheGeometryError("l2",
                             l2SetsOverride
                                 ? l2SetsOverride
                                 : l2SizeBytes / (l2Ways * lineBytes),
                             l2Ways),
          cacheGeometryError("dircache", dirCache.entries / dirCache.ways,
                             dirCache.ways)}) {
        if (!err.empty())
            return err;
    }

    if (racEnabled) {
        if (rac.sizeBytes == 0 || rac.ways == 0 ||
            rac.sizeBytes < rac.ways * lineBytes)
            return "RAC geometry is degenerate (size/ways/lineBytes)";
        const std::string err = cacheGeometryError(
            "rac", rac.sizeBytes / (rac.ways * lineBytes), rac.ways);
        if (!err.empty())
            return err;
    }
    if (delegationEnabled()) {
        if (!racEnabled)
            return std::string("protocol kind '") +
                   protocolKindName(kind) +
                   "' requires a RAC (pinned surrogate memory): "
                   "enable racEnabled";
        if (delegate.producerEntries == 0 ||
            delegate.consumerEntries == 0 || delegate.ways == 0)
            return "delegate cache needs nonzero producer/consumer "
                   "entries and ways";
        if (delegate.producerEntries < delegate.ways)
            return format("delegate cache needs producerEntries "
                          "(%llu) >= ways (%llu)",
                          delegate.producerEntries, delegate.ways);
        for (const std::string &err :
             {cacheGeometryError("deledc.prod",
                                 delegate.producerEntries / delegate.ways,
                                 delegate.ways),
              cacheGeometryError(
                  "deledc.cons",
                  std::max<std::size_t>(
                      1, delegate.consumerEntries / delegate.ways),
                  delegate.ways)}) {
            if (!err.empty())
                return err;
        }
    }
    if (updateBased()) {
        if (racEnabled)
            return std::string("protocol kind '") +
                   protocolKindName(kind) +
                   "' is update-based and keeps sharer copies fresh "
                   "in place: the RAC does not apply (disable "
                   "racEnabled)";
        if (adaptive() && adaptiveThreshold == 0)
            return "adaptiveThreshold must be at least 1 (a consumer "
                   "must absorb at least one unread update before it "
                   "may self-invalidate)";
    }

    if (faults.enabled) {
        const std::string ferr =
            faults.validateError(numNodes, dirCache.ways);
        if (!ferr.empty())
            return "fault injection: " + ferr;
    }
    return "";
}

void
ProtocolConfig::validate() const
{
    const std::string err = validateError();
    if (!err.empty())
        fatal("invalid protocol configuration: %s", err.c_str());
}

} // namespace pcsim

/**
 * @file
 * Pluggable coherence-policy layer.
 *
 * A CoherencePolicy packages everything that differs between the
 * protocols pcsim can run: the home-side directory FSM, the cache
 * side's store-completion and update-consumption behavior, and the
 * declarative transition spec the verify layer checks the policy
 * against. The Hub resolves ProtocolConfig::kind to a stateless
 * shared policy instance once at construction; controllers dispatch
 * through it and keep only the machinery every protocol shares
 * (request routing, MSHRs, NACK retries, directory-cache management).
 *
 * Registered policies:
 *  - MesiDelePolicy (kinds mesi-dir / delegation / delegation-updates):
 *    the SGI-Origin-style write-invalidate directory protocol, plus
 *    the HPCA'07 delegation and speculative-update extensions when the
 *    kind enables them.
 *  - WriteUpdatePolicy (write-update): Dragon-style write-update over
 *    the directory. The home serializes write episodes through
 *    BUSY_UPD: a write is granted with UpdGrant, the writer performs
 *    the store, self-downgrades to SHARED and returns the data with
 *    UpdateWB, and the home fans Update pushes to the other sharers.
 *    Caches only ever hold INVALID or SHARED lines.
 *  - AdaptiveHybridPolicy (adaptive-hybrid): write-update plus
 *    per-line consumer self-invalidation -- a sharer that absorbs
 *    adaptiveThreshold pushes without an intervening local read drops
 *    its copy and tells the home to stop updating it (UpdateDrop),
 *    degrading that line toward invalidate behavior.
 */

#ifndef PCSIM_PROTOCOL_POLICY_HH
#define PCSIM_PROTOCOL_POLICY_HH

#include <cstddef>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/mem/directory.hh"
#include "src/net/message.hh"
#include "src/protocol/config.hh"
#include "src/sim/types.hh"

namespace pcsim
{

class JsonValue;

namespace verify
{
class TransitionSpec;
enum class McCheckSet;
struct LintReport;
struct MdgReport;
struct LivenessReport;
} // namespace verify

class CacheController;
class DirController;
struct L2Entry;

/** One coherence protocol's variable parts (stateless; shared). */
class CoherencePolicy
{
  public:
    virtual ~CoherencePolicy() = default;

    virtual ProtocolKind kind() const = 0;
    const char *name() const { return protocolKindName(kind()); }

    /** The transition spec `pcsim lint` and the runtime conformance
     *  observer hold this policy to. */
    virtual const verify::TransitionSpec &spec() const = 0;

    /** @name Home-side directory FSM.
     *  Called by DirController inside its conformance frame, after
     *  the directory-cache access resolved (@p ready = earliest reply
     *  tick). Wedged-set NACKs happen before dispatch. */
    /// @{
    virtual void handleRead(DirController &dir, const Message &msg,
                            DirCacheEntry &e, Tick ready) const = 0;
    virtual void handleWrite(DirController &dir, const Message &msg,
                             DirCacheEntry &e, Tick ready) const = 0;
    /** Writer returns the episode's data (update-based only). */
    virtual void handleUpdateWB(DirController &dir, const Message &msg,
                                DirCacheEntry &e, Tick ready) const;
    /** Consumer leaves the update stream (adaptive only). */
    virtual void handleUpdateDrop(DirController &dir, const Message &msg,
                                  DirCacheEntry &e, Tick ready) const;
    /// @}

    /** @name Cache-side hooks. */
    /// @{
    /** Finalize a performed store on @p entry: the version is already
     *  bumped; the policy sets the post-store line state and emits any
     *  protocol messages (update-based: SHARED + UpdateWB). */
    virtual void finishStore(CacheController &cc, Addr line,
                             L2Entry &entry) const = 0;
    /** An Update push arrived for a line with a valid L2 copy. */
    virtual void updateSharedCopy(CacheController &cc,
                                  const Message &msg,
                                  L2Entry &entry) const = 0;
    /// @}
};

/** The shared policy instance for @p kind (panics on NumProtocolKinds). */
const CoherencePolicy &policyFor(ProtocolKind kind);

/** Every registered kind, in ProtocolKind order (drives the compare
 *  bake-off and the lint loop's default selection). */
const std::vector<ProtocolKind> &registeredPolicyKinds();

/** The abstract-model configuration family `pcsim lint` checks
 *  @p kind against (verify::lintSpecWithModel,
 *  verify::analyzeLiveness). */
verify::McCheckSet modelCheckSetFor(ProtocolKind kind);

/** A pass of `pcsim lint` (src/verify). */
enum class LintPass
{
    Spec,    ///< static spec passes, plus the model cross-check
    Mdg,     ///< message-dependency graph of the spec
    Liveness ///< livelocks and deadlocks in the model's state graph
};

/** One selected policy and the analysis a lint pass reports under it
 *  (only the run's pass's report is set). */
struct PolicyLint
{
    ProtocolKind kind;
    std::shared_ptr<const verify::LintReport> spec;
    std::shared_ptr<const verify::MdgReport> mdg;
    std::shared_ptr<const verify::LivenessReport> liveness;
};

/** One lint pass over a selection of policies. */
struct LintRun
{
    LintPass pass;
    std::vector<PolicyLint> policies; ///< in selection order

    /** Findings summed over the policies. */
    std::size_t findings() const;
    /** {"schemaVersion", "generator", "mode", "policies"}. */
    JsonValue toJson() const;
    /** The findings table, led by a policy column (spec, mdg). */
    std::string toCsv() const;
    /** Each policy's report, then "lint", "mdg" or "liveness" and
     *  ": clean" or ": N finding(s)". */
    void print(std::FILE *out) const;
};

/** The lint loop: run @p pass over the policies @p kinds, analysing
 *  each distinct (spec, model family) pair once -- mesi-dir,
 *  delegation and delegation-updates share both -- and reporting it
 *  under every policy that shares it. @p model_check adds the model
 *  cross-check to the spec pass. */
LintRun lintPolicies(LintPass pass, const std::vector<ProtocolKind> &kinds,
                     bool model_check = true);

} // namespace pcsim

#endif // PCSIM_PROTOCOL_POLICY_HH

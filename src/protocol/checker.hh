/**
 * @file
 * Runtime coherence / sequential-consistency invariant checker.
 *
 * Section 2.5: "we applied invariant checking to our simulator to
 * bridge the gap between the abstract model and the simulated
 * implementation ... we tested both Murphi's 'single writer exists'
 * and 'consistency within the directory' invariants at the completion
 * of each transaction that incurs a L2 miss."
 *
 * Data values are abstracted to per-line write-epoch Versions. The
 * VersionAuthority is the oracle: each performed store increments the
 * line's version. The checker validates:
 *  - no lost updates: a store must start from the current version,
 *  - single writer: when a store performs, no other node holds any
 *    readable copy,
 *  - monotonic reads per node,
 *  - at quiescence: every readable copy equals the current version
 *    and every directory entry is consistent with the caches.
 */

#ifndef PCSIM_PROTOCOL_CHECKER_HH
#define PCSIM_PROTOCOL_CHECKER_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "src/cache/line_state.hh"
#include "src/core/delegate_cache.hh"
#include "src/mem/directory.hh"
#include "src/sim/flat_map.hh"
#include "src/sim/types.hh"

namespace pcsim
{

namespace verify
{
class MessageTrace;
} // namespace verify

/** Oracle of current line versions ("what memory should contain"). */
class VersionAuthority
{
  public:
    Version current(Addr line) const
    {
        const Version *v = _versions.find(line);
        return v ? *v : 0;
    }

    /** A store performed: advance the line's epoch. */
    Version bump(Addr line) { return ++_versions[line]; }

    /** fn(line, version) for every stored-to line, in no particular
     *  order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        _versions.forEach(fn);
    }

    std::size_t numLines() const { return _versions.size(); }

  private:
    FlatMap<Addr, Version> _versions;
};

/** What the checker can see of one node (implemented by Hub). */
class CheckerNodeView
{
  public:
    virtual ~CheckerNodeView() = default;

    /** L2 state of @p line; fills @p version when valid. */
    virtual LineState l2State(Addr line, Version &version) const = 0;
    /** RAC copy of @p line, if any. */
    virtual bool racCopy(Addr line, Version &version,
                         bool &pinned) const = 0;
    /** Producer-table entry if the line is delegated to this node. */
    virtual const ProducerEntry *producerEntry(Addr line) const = 0;
    /** Merged home-side directory view (cache over store). */
    virtual DirEntry homeDirEntry(Addr line) const = 0;
};

/** The invariant checker. */
class CoherenceChecker
{
  public:
    explicit CoherenceChecker(bool enabled) : _enabled(enabled) {}

    void
    addNode(CheckerNodeView *view)
    {
        _nodes.push_back(view);
        _lastSeen.emplace_back();
    }

    bool enabled() const { return _enabled; }

    /**
     * Update-based policy mode (write-update / adaptive hybrid): the
     * single-writer invariant does not hold -- sharers legitimately
     * keep readable copies while a store performs, and the writer's
     * UpdateWB refreshes them. Skip the instantaneous cross-node scan;
     * the lost-update check (stores must start from the current
     * version, serialized by the home's BUSY_UPD episode) and the
     * quiescence sweep still run.
     */
    void setUpdateBased(bool on) { _updateBased = on; }

    /** Attach the per-run message trace: violations then report the
     *  last few messages seen for the offending line. */
    void setTrace(const verify::MessageTrace *trace) { _trace = trace; }

    VersionAuthority &authority() { return _authority; }
    const VersionAuthority &authority() const { return _authority; }

    /**
     * A store by @p node to @p line performed from a copy stamped
     * @p copy_version. Validates and returns the new version.
     */
    Version storePerformed(NodeId node, Addr line, Version copy_version);

    /** A load by @p node of @p line returned @p version. */
    void loadPerformed(NodeId node, Addr line, Version version);

    /** Count @p n loads a parked barrier spinner skipped. Each re-read
     *  the version its node last loaded of that line, which nothing
     *  has changed since, so each is a check that passes. */
    void creditLoads(std::uint64_t n);

    /**
     * Full-system check, valid only when no transactions are in
     * flight (end of run / directed tests).
     * @param home_of maps a line to its home node.
     */
    template <typename HomeOf>
    void
    checkQuiescent(const HomeOf &home_of) const
    {
        if (!_enabled)
            return;
        _authority.forEach([&](Addr line, Version cur) {
            checkLineQuiescent(line, cur, home_of(line));
        });
    }

    std::uint64_t numChecks() const { return _numChecks; }

  private:
    void checkLineQuiescent(Addr line, Version cur, NodeId home) const;

    /** Fail with structured context: the formatted complaint plus the
     *  offending node, line address and recent message trace. */
    [[noreturn]] void violation(NodeId node, Addr line, const char *fmt,
                                ...) const
        __attribute__((format(printf, 4, 5)));

    bool _enabled;
    bool _updateBased = false;
    const verify::MessageTrace *_trace = nullptr;
    std::vector<CheckerNodeView *> _nodes;
    VersionAuthority _authority;
    /** Monotonic-read tracking: per node, line -> last observed. One
     *  map per node keeps every (node, line) pair apart, whatever bits
     *  the line address uses. */
    std::deque<FlatMap<Addr, Version>> _lastSeen;
    mutable std::uint64_t _numChecks = 0;
};

} // namespace pcsim

#endif // PCSIM_PROTOCOL_CHECKER_HH

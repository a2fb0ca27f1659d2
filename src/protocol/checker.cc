#include "src/protocol/checker.hh"

#include <cstdarg>
#include <cstdio>

#include "src/sim/logging.hh"
#include "src/verify/trace.hh"

namespace pcsim
{

void
CoherenceChecker::violation(NodeId node, Addr line, const char *fmt,
                            ...) const
{
    char what[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(what, sizeof(what), fmt, ap);
    va_end(ap);

    const std::string trace =
        _trace ? _trace->format(line)
               : std::string("  (message trace disabled)\n");
    panic("coherence violation: %s\n"
          "  node %u, line %#llx\n"
          "recent messages for this line:\n%s",
          what, unsigned(node), static_cast<unsigned long long>(line),
          trace.c_str());
}

Version
CoherenceChecker::storePerformed(NodeId node, Addr line,
                                 Version copy_version)
{
    if (!_enabled)
        return _authority.bump(line);

    ++_numChecks;
    const Version cur = _authority.current(line);
    if (copy_version != cur) {
        violation(node, line,
                  "lost update: store from version %u but current is "
                  "%u",
                  copy_version, cur);
    }

    // Single-writer: no other node may hold any readable copy at the
    // instant a store performs (all invalidation acks collected).
    // Update-based policies skip it by design: sharers keep readable
    // copies while the writer's episode is open (setUpdateBased).
    for (std::size_t n = 0; !_updateBased && n < _nodes.size(); ++n) {
        if (n == node)
            continue;
        Version v;
        LineState s = _nodes[n]->l2State(line, v);
        if (s != LineState::Invalid) {
            violation(node, line,
                      "single-writer violated: store while node %zu "
                      "holds %s",
                      n, lineStateName(s));
        }
        bool pinned;
        if (_nodes[n]->racCopy(line, v, pinned)) {
            violation(node, line,
                      "single-writer violated: store while node %zu "
                      "holds a RAC copy (pinned=%d)",
                      n, pinned);
        }
    }

    const Version nv = _authority.bump(line);
    *_lastSeen.tryEmplace(key(node, line)).first = nv;
    return nv;
}

void
CoherenceChecker::loadPerformed(NodeId node, Addr line, Version version)
{
    if (!_enabled)
        return;

    ++_numChecks;
    const Version cur = _authority.current(line);
    if (version > cur) {
        violation(node, line,
                  "load from the future: read version %u, current %u",
                  version, cur);
    }
    Version &seen = *_lastSeen.tryEmplace(key(node, line)).first;
    if (version < seen) {
        violation(node, line,
                  "non-monotonic read: read version %u after having "
                  "seen %u",
                  version, seen);
    }
    seen = version;
}

void
CoherenceChecker::creditLoads(std::uint64_t n)
{
    if (!_enabled)
        return;
    _numChecks += n;
}

void
CoherenceChecker::checkLineQuiescent(Addr line, Version cur,
                                     NodeId home) const
{
    ++_numChecks;

    unsigned owners = 0;
    NodeId ownerNode = invalidNode;
    SharerSet holders; // exact (granularity 1) regardless of config

    for (std::size_t n = 0; n < _nodes.size(); ++n) {
        Version v;
        LineState s = _nodes[n]->l2State(line, v);
        bool holds = false;
        if (s == LineState::Modified || s == LineState::Exclusive) {
            ++owners;
            ownerNode = static_cast<NodeId>(n);
            holds = true;
            if (v != cur) {
                violation(static_cast<NodeId>(n), line,
                          "quiescent: owner has version %u, current %u",
                          v, cur);
            }
        } else if (s == LineState::Shared) {
            holds = true;
            if (v != cur) {
                violation(static_cast<NodeId>(n), line,
                          "quiescent: sharer has version %u, current "
                          "%u",
                          v, cur);
            }
        }

        bool pinned;
        if (_nodes[n]->racCopy(line, v, pinned)) {
            holds = true;
            // A pinned copy shadowed by the local M/E processor copy
            // may be one epoch behind; any other RAC copy must be
            // current.
            const bool shadowed =
                pinned && (s == LineState::Modified ||
                           s == LineState::Exclusive);
            if (!shadowed && v != cur) {
                violation(static_cast<NodeId>(n), line,
                          "quiescent: RAC copy has version %u, current "
                          "%u",
                          v, cur);
            }
        }
        if (holds)
            holders.add(static_cast<NodeId>(n));
    }

    if (owners > 1)
        violation(ownerNode, line, "quiescent: %u owners", owners);
    if (owners == 1) {
        SharerSet others = holders;
        others.remove(ownerNode);
        if (!others.empty()) {
            violation(ownerNode, line,
                      "quiescent: owner coexists with holders %s",
                      others.toString().c_str());
        }
    }

    // Directory consistency at the home (or its delegate).
    DirEntry dir = _nodes[home]->homeDirEntry(line);
    if (dir.busy())
        violation(home, line, "quiescent: home is busy");

    if (dir.state == DirState::Dele) {
        const ProducerEntry *pe =
            _nodes[dir.owner]->producerEntry(line);
        if (!pe) {
            violation(dir.owner, line,
                      "quiescent: delegated but no producer entry");
        }
        dir = pe->dir; // check the delegated directory below
    } else if (dir.state == DirState::Shared ||
               dir.state == DirState::Unowned) {
        if (dir.memVersion != cur) {
            violation(home, line,
                      "quiescent: memory copy is version %u, current "
                      "%u (state %s)",
                      dir.memVersion, cur, dirStateName(dir.state));
        }
    }

    switch (dir.state) {
      case DirState::Unowned:
        if (!holders.empty()) {
            violation(home, line, "quiescent: Unowned but held by %s",
                      holders.toString().c_str());
        }
        break;
      case DirState::Shared:
        // The directory must cover every holder; a coarse sharing
        // vector covers conservatively (whole node groups), which
        // contains() honors.
        holders.forEachNode(static_cast<unsigned>(_nodes.size()),
                            [&](NodeId n) {
                                if (!dir.sharers.contains(n)) {
                                    violation(
                                        n, line,
                                        "quiescent: holder not covered "
                                        "by sharers %s",
                                        dir.sharers.toString().c_str());
                                }
                            });
        if (owners) {
            violation(ownerNode, line,
                      "quiescent: Shared but node %u owns it",
                      ownerNode);
        }
        break;
      case DirState::Excl:
        if (owners != 1 || ownerNode != dir.owner) {
            violation(home, line,
                      "quiescent: Excl at %u but owner is %s%u",
                      dir.owner, owners ? "" : "nobody ", ownerNode);
        }
        break;
      default:
        violation(home, line, "quiescent: unexpected dir state %s",
                  dirStateName(dir.state));
    }
}

} // namespace pcsim

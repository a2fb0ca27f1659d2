/**
 * @file
 * The pcsim binary trace format ("PCTR"): a compact, deterministic,
 * dependency-free serialization of the per-node memory-op streams a
 * workload generator produces.
 *
 * A trace file is a versioned header followed by fixed-width records.
 * All multi-byte fields are little-endian regardless of host, so a
 * trace written on one machine replays byte-identically on another.
 *
 * Layout (version 1):
 *
 *   offset  size  field
 *        0     4  magic "PCTR"
 *        4     4  u32 version (= 1)
 *        8     4  u32 nodeCount
 *       12     4  u32 lineBytes        (coherence granularity)
 *       16     4  u32 coarse           (nodes per sharer bit, >= 1)
 *       20     8  u64 seed             (machine seed of the source run)
 *       28     8  f64 scale            (workload scale, IEEE-754 bits)
 *       36     8  u64 opCount          (total records that follow)
 *       44     2  u16 workload name length, then that many bytes
 *        .     2  u16 config name length, then that many bytes
 *        .  16*N  records
 *
 * Record (16 bytes):
 *
 *   u16 node       owning node id, < nodeCount
 *   u8  op         0 = LOAD, 1 = STORE, 2 = THINK, 3 = BARRIER
 *   u8  reserved   must be 0
 *   u32 seq        per-node ordering hint: the op's index within its
 *                  node's stream; the reader rejects gaps/reordering
 *   u64 payload    address (LOAD/STORE), think cycles (THINK), 0
 *                  (BARRIER); an address is below 2^56 (MemOp's
 *                  payload) and think cycles fit in 32 bits
 *
 * Records are written node-major (all of node 0, then node 1, ...)
 * but the reader accepts any interleaving whose per-node seq numbers
 * are dense and ascending -- the replay contract only constrains the
 * order *within* a node; the cross-node interleaving is decided by
 * the simulator, which is what makes replayed stats byte-identical
 * at any `-j`.
 *
 * The reader checks nodeCount against ProtocolConfig::maxNodes and
 * opCount against the record section's length before it allocates
 * anything, so what it allocates follows the size of the file. The
 * writer applies the same nodeCount bound, so it writes no file the
 * reader rejects for its size.
 */

#ifndef PCSIM_TRACE_FORMAT_HH
#define PCSIM_TRACE_FORMAT_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/workload/workload.hh"

namespace pcsim
{
namespace trace
{

/** Error thrown on malformed trace input or failed trace I/O. The
 *  message always names the offending file (or buffer origin) and,
 *  for text ingest, the 1-based line number. */
class TraceError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

constexpr char traceMagic[4] = {'P', 'C', 'T', 'R'};
constexpr std::uint32_t traceVersion = 1;
constexpr std::size_t traceRecordBytes = 16;

/** Header metadata: everything needed to rebuild the source run's
 *  machine configuration and job identity for byte-identical replay. */
struct TraceMeta
{
    std::uint32_t nodeCount = 0;
    std::uint32_t lineBytes = 128;
    /** Nodes per directory sharer bit of the source machine (>= 1;
     *  1 = exact vector). */
    std::uint32_t coarse = 1;
    std::uint64_t seed = 1;
    double scale = 1.0;
    /** Total records in the file (filled by the writer). */
    std::uint64_t opCount = 0;
    /** Generator name ("PCmicro", "Em3D", ...; "ingest" for external
     *  text traces). Replay reports this as the workload name so the
     *  serialized stats match the source run's. */
    std::string workload;
    /** Machine preset name of the source run ("base", "small", ...). */
    std::string config;
};

/** Throw unless 0 < @p nodes <= ProtocolConfig::maxNodes, the node
 *  counts a trace may carry; @p origin names the source in the
 *  message. The encoder, the decoder and the text ingester apply it. */
void checkNodeCount(std::uint64_t nodes, const std::string &origin);

/** A fully-decoded trace: header plus one op stream per node. */
struct TraceData
{
    TraceMeta meta;
    std::vector<std::vector<MemOp>> perNode;

    std::uint64_t
    totalOps() const
    {
        std::uint64_t n = 0;
        for (const auto &t : perNode)
            n += t.size();
        return n;
    }
};

/** Serialize to the binary format. @p per_node size must equal
 *  meta.nodeCount; meta.opCount is recomputed. The same encoder as
 *  writeTraceFile, into a string. @throws TraceError on unencodable
 *  input (a nodeCount of 0 or above ProtocolConfig::maxNodes, stream
 *  count, op kind out of range, name too long). */
std::string encodeTrace(const TraceMeta &meta,
                        const std::vector<std::vector<MemOp>> &per_node);

/** encodeTrace of @p workload's own streams (Workload::cpuOps), read
 *  in place; its CPU count must equal meta.nodeCount. */
std::string encodeTrace(const TraceMeta &meta, const Workload &workload);

/** Parse a binary trace buffer. @p origin names the source in error
 *  messages (a file path, or "<memory>" in tests).
 *  @throws TraceError with a precise message on bad magic, unsupported
 *  version, a nodeCount above ProtocolConfig::maxNodes, truncation,
 *  out-of-range node ids, broken seq order or an address of 2^56 or
 *  more. */
TraceData decodeTrace(const std::string &bytes,
                      const std::string &origin);

/** Encode @p per_node to @p path, writing the records as they are
 *  encoded (a fixed buffer, never the whole trace in memory).
 *  @return the bytes written. @throws TraceError on unencodable input
 *  or I/O failure, after removing the partial file. */
std::uint64_t writeTraceFile(const std::string &path,
                             const TraceMeta &meta,
                             const std::vector<std::vector<MemOp>> &per_node);

/** writeTraceFile of @p workload's own streams, read in place. */
std::uint64_t writeTraceFile(const std::string &path,
                             const TraceMeta &meta,
                             const Workload &workload);

/** Read + decodeTrace. @throws TraceError when unreadable/malformed. */
TraceData readTraceFile(const std::string &path);

/** Read only the header of @p path (cheap `pcsim trace info`). */
TraceMeta readTraceMeta(const std::string &path);

} // namespace trace
} // namespace pcsim

#endif // PCSIM_TRACE_FORMAT_HH

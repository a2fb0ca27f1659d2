/**
 * @file
 * External trace ingestion: per-core text address traces in the style
 * of the saiutkarsh33 cache-coherence simulator (`./coherence MESI
 * traces/bodytrack_0.data ...`): one file per core, one op per line,
 *
 *   <label> <value>
 *
 * where label 0 = load from address, 1 = store to address, 2 = compute
 * for that many cycles; values are hexadecimal (with or without "0x"),
 * an address below 2^56 and a cycle count below 2^32.
 * Blank lines and lines starting with '#' are ignored.
 *
 * File i becomes NodeId i's op stream. Addresses are used verbatim:
 * the existing memory map assigns each page a home node on first
 * touch, so an external trace exercises the directory protocol with
 * no address rewriting. Each stream is prefixed with one barrier so
 * the repo-wide convention holds (the first barrier ends the
 * initialization phase and resets statistics); the whole external
 * trace is measured as the parallel phase.
 */

#ifndef PCSIM_TRACE_TEXT_INGEST_HH
#define PCSIM_TRACE_TEXT_INGEST_HH

#include <string>
#include <vector>

#include "src/trace/format.hh"

namespace pcsim
{
namespace trace
{

/**
 * Parse one per-core text trace file per entry of @p paths into a
 * TraceData with nodeCount = paths.size().
 *
 * @param workload_name reported workload name (default "ingest").
 * @param line_bytes coherence granularity recorded in the meta.
 * @throws TraceError naming file and 1-based line on malformed input
 *         (unknown label, bad hex value, an address of 2^56 or more,
 *         trailing garbage), or on an unreadable file; before any
 *         file is read, when @p paths holds more files than
 *         ProtocolConfig::maxNodes.
 */
TraceData ingestTextTraces(const std::vector<std::string> &paths,
                           const std::string &workload_name = "ingest",
                           std::uint32_t line_bytes = 128);

/** Parse a single in-memory text trace (exposed for tests); @p origin
 *  names the buffer in errors. Returns the op stream WITHOUT the
 *  leading barrier that ingestTextTraces prepends. */
std::vector<MemOp> parseTextTrace(const std::string &text,
                                  const std::string &origin);

} // namespace trace
} // namespace pcsim

#endif // PCSIM_TRACE_TEXT_INGEST_HH

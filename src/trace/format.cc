#include "src/trace/format.hh"

#include <cstdio>
#include <cstring>
#include <limits>

#include "src/sim/file_io.hh"

namespace pcsim
{
namespace trace
{

namespace
{

void
putU16(std::string &out, std::uint16_t v)
{
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void
putU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

/** Bounds-checked little-endian cursor over an input buffer. */
class Cursor
{
  public:
    Cursor(const std::string &bytes, const std::string &origin)
        : _bytes(bytes), _origin(origin)
    {
    }

    std::size_t pos() const { return _pos; }
    std::size_t remaining() const { return _bytes.size() - _pos; }

    void
    need(std::size_t n, const char *what)
    {
        if (remaining() < n)
            throw TraceError(_origin + ": truncated " + what +
                             " (need " + std::to_string(n) +
                             " bytes at offset " + std::to_string(_pos) +
                             ", have " + std::to_string(remaining()) +
                             ")");
    }

    std::uint8_t
    u8(const char *what)
    {
        need(1, what);
        return static_cast<std::uint8_t>(_bytes[_pos++]);
    }

    std::uint16_t
    u16(const char *what)
    {
        need(2, what);
        std::uint16_t v = 0;
        for (int i = 0; i < 2; ++i)
            v |= std::uint16_t(std::uint8_t(_bytes[_pos++])) << (8 * i);
        return v;
    }

    std::uint32_t
    u32(const char *what)
    {
        need(4, what);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= std::uint32_t(std::uint8_t(_bytes[_pos++])) << (8 * i);
        return v;
    }

    std::uint64_t
    u64(const char *what)
    {
        need(8, what);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= std::uint64_t(std::uint8_t(_bytes[_pos++])) << (8 * i);
        return v;
    }

    std::string
    str(std::size_t n, const char *what)
    {
        need(n, what);
        std::string s = _bytes.substr(_pos, n);
        _pos += n;
        return s;
    }

  private:
    const std::string &_bytes;
    std::string _origin;
    std::size_t _pos = 0;
};

std::uint8_t
encodeKind(MemOp::Kind k, const std::string &origin)
{
    switch (k) {
      case MemOp::Kind::Read:
        return 0;
      case MemOp::Kind::Write:
        return 1;
      case MemOp::Kind::Think:
        return 2;
      case MemOp::Kind::Barrier:
        return 3;
    }
    throw TraceError(origin + ": unencodable op kind " +
                     std::to_string(static_cast<unsigned>(k)));
}

} // namespace

std::string
encodeTrace(const TraceMeta &meta,
            const std::vector<std::vector<MemOp>> &per_node)
{
    const std::string origin = "<encode>";
    if (per_node.size() != meta.nodeCount)
        throw TraceError(origin + ": " +
                         std::to_string(per_node.size()) +
                         " node streams but header says " +
                         std::to_string(meta.nodeCount));
    const auto max_name = std::numeric_limits<std::uint16_t>::max();
    if (meta.workload.size() > max_name ||
        meta.config.size() > max_name)
        throw TraceError(origin + ": name longer than 65535 bytes");

    std::uint64_t ops = 0;
    for (const auto &t : per_node)
        ops += t.size();

    std::string out;
    out.reserve(64 + meta.workload.size() + meta.config.size() +
                ops * traceRecordBytes);
    out.append(traceMagic, sizeof(traceMagic));
    putU32(out, traceVersion);
    putU32(out, meta.nodeCount);
    putU32(out, meta.lineBytes);
    putU32(out, meta.coarse);
    putU64(out, meta.seed);
    std::uint64_t scale_bits;
    static_assert(sizeof(scale_bits) == sizeof(meta.scale));
    std::memcpy(&scale_bits, &meta.scale, sizeof(scale_bits));
    putU64(out, scale_bits);
    putU64(out, ops);
    putU16(out, static_cast<std::uint16_t>(meta.workload.size()));
    out += meta.workload;
    putU16(out, static_cast<std::uint16_t>(meta.config.size()));
    out += meta.config;

    for (std::uint32_t node = 0; node < meta.nodeCount; ++node) {
        std::uint32_t seq = 0;
        for (const MemOp &op : per_node[node]) {
            putU16(out, static_cast<std::uint16_t>(node));
            out.push_back(
                static_cast<char>(encodeKind(op.kind, origin)));
            out.push_back(0); // reserved
            putU32(out, seq++);
            std::uint64_t payload = 0;
            if (op.kind == MemOp::Kind::Read ||
                op.kind == MemOp::Kind::Write)
                payload = op.addr;
            else if (op.kind == MemOp::Kind::Think)
                payload = op.cycles;
            putU64(out, payload);
        }
    }
    return out;
}

TraceData
decodeTrace(const std::string &bytes, const std::string &origin)
{
    Cursor c(bytes, origin);

    const std::string magic = c.str(sizeof(traceMagic), "header magic");
    if (std::memcmp(magic.data(), traceMagic, sizeof(traceMagic)) != 0)
        throw TraceError(origin +
                         ": bad magic (not a pcsim \"PCTR\" trace)");
    const std::uint32_t version = c.u32("header version");
    if (version != traceVersion)
        throw TraceError(origin + ": unsupported trace version " +
                         std::to_string(version) + " (this build reads "
                         "version " + std::to_string(traceVersion) +
                         ")");

    TraceData data;
    TraceMeta &m = data.meta;
    m.nodeCount = c.u32("header nodeCount");
    if (m.nodeCount == 0)
        throw TraceError(origin + ": header nodeCount is zero");
    m.lineBytes = c.u32("header lineBytes");
    m.coarse = c.u32("header coarse");
    if (m.coarse == 0)
        throw TraceError(origin + ": header coarse is zero");
    m.seed = c.u64("header seed");
    const std::uint64_t scale_bits = c.u64("header scale");
    std::memcpy(&m.scale, &scale_bits, sizeof(m.scale));
    m.opCount = c.u64("header opCount");
    m.workload = c.str(c.u16("workload name length"), "workload name");
    m.config = c.str(c.u16("config name length"), "config name");

    if (c.remaining() != m.opCount * traceRecordBytes)
        throw TraceError(
            origin + ": record section is " +
            std::to_string(c.remaining()) + " bytes but the header "
            "promises " + std::to_string(m.opCount) + " records (" +
            std::to_string(m.opCount * traceRecordBytes) + " bytes)");

    data.perNode.resize(m.nodeCount);
    for (std::uint64_t i = 0; i < m.opCount; ++i) {
        const std::uint16_t node = c.u16("record node");
        const std::uint8_t kind = c.u8("record op");
        const std::uint8_t reserved = c.u8("record reserved byte");
        const std::uint32_t seq = c.u32("record seq");
        const std::uint64_t payload = c.u64("record payload");
        const std::string where =
            origin + ": record " + std::to_string(i);
        if (node >= m.nodeCount)
            throw TraceError(where + ": node " + std::to_string(node) +
                             " out of range (nodeCount " +
                             std::to_string(m.nodeCount) + ")");
        if (reserved != 0)
            throw TraceError(where + ": nonzero reserved byte");
        auto &stream = data.perNode[node];
        if (seq != stream.size())
            throw TraceError(where + ": node " + std::to_string(node) +
                             " seq " + std::to_string(seq) +
                             " out of order (expected " +
                             std::to_string(stream.size()) + ")");
        switch (kind) {
          case 0:
            stream.push_back(MemOp::read(payload));
            break;
          case 1:
            stream.push_back(MemOp::write(payload));
            break;
          case 2:
            if (payload >
                std::numeric_limits<std::uint32_t>::max())
                throw TraceError(where + ": think cycles " +
                                 std::to_string(payload) +
                                 " exceed 32 bits");
            stream.push_back(
                MemOp::think(static_cast<std::uint32_t>(payload)));
            break;
          case 3:
            if (payload != 0)
                throw TraceError(where +
                                 ": barrier with nonzero payload");
            stream.push_back(MemOp::barrier());
            break;
          default:
            throw TraceError(where + ": unknown op " +
                             std::to_string(kind));
        }
    }
    return data;
}

void
writeTraceFile(const std::string &path, const TraceMeta &meta,
               const std::vector<std::vector<MemOp>> &per_node)
{
    const std::string bytes = encodeTrace(meta, per_node);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        throw TraceError(path + ": cannot open for writing");
    const std::size_t written =
        std::fwrite(bytes.data(), 1, bytes.size(), f);
    const bool failed = std::fclose(f) != 0 || written != bytes.size();
    if (failed)
        throw TraceError(path + ": write error");
}

TraceData
readTraceFile(const std::string &path)
{
    std::string bytes;
    if (const char *err = readFile(path, bytes))
        throw TraceError(path + ": " + err);
    return decodeTrace(bytes, path);
}

TraceMeta
readTraceMeta(const std::string &path)
{
    // Decoding validates the whole record section too, which is what
    // `trace info` wants anyway: report on a trace iff it replays.
    return readTraceFile(path).meta;
}

} // namespace trace
} // namespace pcsim

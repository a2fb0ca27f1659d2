#include "src/trace/text_ingest.hh"

#include <cctype>
#include <limits>

#include "src/sim/file_io.hh"

namespace pcsim
{
namespace trace
{

namespace
{

/** Parse a hexadecimal value (optional 0x/0X prefix). */
std::uint64_t
parseHex(const std::string &tok, const std::string &where)
{
    std::size_t i = 0;
    if (tok.size() >= 2 && tok[0] == '0' &&
        (tok[1] == 'x' || tok[1] == 'X'))
        i = 2;
    if (i >= tok.size())
        throw TraceError(where + ": empty value '" + tok + "'");
    std::uint64_t v = 0;
    for (; i < tok.size(); ++i) {
        const char c = tok[i];
        unsigned digit;
        if (c >= '0' && c <= '9')
            digit = unsigned(c - '0');
        else if (c >= 'a' && c <= 'f')
            digit = unsigned(c - 'a') + 10;
        else if (c >= 'A' && c <= 'F')
            digit = unsigned(c - 'A') + 10;
        else
            throw TraceError(where + ": bad hex value '" + tok + "'");
        if (v >> 60)
            throw TraceError(where + ": value '" + tok +
                             "' overflows 64 bits");
        v = (v << 4) | digit;
    }
    return v;
}

} // namespace

std::vector<MemOp>
parseTextTrace(const std::string &text, const std::string &origin)
{
    std::vector<MemOp> ops;
    std::size_t pos = 0;
    unsigned lineno = 0;
    while (pos <= text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        ++lineno;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();

        // Tokenize on whitespace.
        std::vector<std::string> toks;
        std::size_t i = 0;
        while (i < line.size()) {
            while (i < line.size() &&
                   std::isspace(static_cast<unsigned char>(line[i])))
                ++i;
            std::size_t start = i;
            while (i < line.size() &&
                   !std::isspace(static_cast<unsigned char>(line[i])))
                ++i;
            if (i > start)
                toks.push_back(line.substr(start, i - start));
        }
        if (toks.empty() || toks[0][0] == '#')
            continue;

        const std::string where =
            origin + ":" + std::to_string(lineno);
        if (toks.size() != 2)
            throw TraceError(where + ": expected '<label> <value>', "
                             "got " + std::to_string(toks.size()) +
                             " token(s)");
        const std::string &label = toks[0];
        const std::uint64_t value = parseHex(toks[1], where);
        if (label == "0") {
            ops.push_back(MemOp::read(value));
        } else if (label == "1") {
            ops.push_back(MemOp::write(value));
        } else if (label == "2") {
            if (value > std::numeric_limits<std::uint32_t>::max())
                throw TraceError(where + ": compute cycles '" +
                                 toks[1] + "' exceed 32 bits");
            ops.push_back(
                MemOp::think(static_cast<std::uint32_t>(value)));
        } else {
            throw TraceError(where + ": unknown label '" + label +
                             "' (expected 0 = load, 1 = store, "
                             "2 = compute)");
        }

        if (eol == text.size())
            break;
    }
    return ops;
}

TraceData
ingestTextTraces(const std::vector<std::string> &paths,
                 const std::string &workload_name,
                 std::uint32_t line_bytes)
{
    if (paths.empty())
        throw TraceError("ingest: no trace files given");
    TraceData data;
    data.meta.nodeCount = static_cast<std::uint32_t>(paths.size());
    data.meta.lineBytes = line_bytes;
    data.meta.workload = workload_name;
    data.perNode.resize(paths.size());
    for (std::size_t i = 0; i < paths.size(); ++i) {
        std::string text;
        if (const char *err = readFile(paths[i], text))
            throw TraceError(paths[i] + ": " + err);
        std::vector<MemOp> ops = parseTextTrace(text, paths[i]);
        // One barrier per node ends the (empty) init phase, so stats
        // cover the whole external trace. Every node gets exactly one,
        // keeping barrier arrivals balanced even for empty files.
        auto &stream = data.perNode[i];
        stream.reserve(ops.size() + 1);
        stream.push_back(MemOp::barrier());
        stream.insert(stream.end(), ops.begin(), ops.end());
    }
    data.meta.opCount = data.totalOps();
    return data;
}

} // namespace trace
} // namespace pcsim

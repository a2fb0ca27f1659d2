#include "src/verify/trace.hh"

#include <cstdio>

namespace pcsim::verify
{

void
MessageTrace::record(const Message &msg, Tick when)
{
    Ring &ring = _byLine[msg.addr];
    Record &r = ring.recs[ring.head];
    r.when = when;
    r.type = msg.type;
    r.src = msg.src;
    r.dst = msg.dst;
    r.requester = msg.requester;
    r.version = msg.version;
    r.txnId = msg.txnId;
    ring.head = (ring.head + 1) % depth;
    if (ring.count < depth)
        ++ring.count;
}

std::string
MessageTrace::format(Addr line) const
{
    auto it = _byLine.find(line);
    if (it == _byLine.end() || it->second.count == 0)
        return "  (no messages recorded for this line)\n";

    const Ring &ring = it->second;
    std::string out;
    const std::size_t first =
        (ring.head + depth - ring.count) % depth;
    for (std::size_t i = 0; i < ring.count; ++i) {
        const Record &r = ring.recs[(first + i) % depth];
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "  [%12llu] %-15s %3u -> %-3u req=%u ver=%u "
                      "txn=%llu\n",
                      static_cast<unsigned long long>(r.when),
                      msgTypeName(r.type), unsigned(r.src),
                      unsigned(r.dst), unsigned(r.requester),
                      unsigned(r.version),
                      static_cast<unsigned long long>(r.txnId));
        out += buf;
    }
    return out;
}

} // namespace pcsim::verify

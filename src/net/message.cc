#include "src/net/message.hh"

#include <sstream>

namespace pcsim
{

namespace
{

/** The list's payload column. */
enum class Payload : std::uint8_t { Header, Data };

} // namespace

const char *
msgTypeName(MsgType t)
{
    switch (t) {
#define PCSIM_CASE(name, ...)                                             \
      case MsgType::name: return #name;
      PCSIM_MSG_TYPES(PCSIM_CASE)
#undef PCSIM_CASE
      case MsgType::NumMsgTypes: break;
    }
    return t < MsgType::NumMsgTypes ? "Reserved" : "Unknown";
}

bool
msgCarriesData(MsgType t)
{
    switch (t) {
#define PCSIM_CASE(name, value, payload, cls)                             \
      case MsgType::name: return Payload::payload == Payload::Data;
      PCSIM_MSG_TYPES(PCSIM_CASE)
#undef PCSIM_CASE
      case MsgType::NumMsgTypes: break;
    }
    return false;
}

const char *
msgClassName(MsgClass c)
{
    switch (c) {
      case MsgClass::Request: return "request";
      case MsgClass::Intervention: return "intervention";
      case MsgClass::Response: return "response";
    }
    return "?";
}

MsgClass
msgClassOf(MsgType t)
{
    switch (t) {
#define PCSIM_CASE(name, value, payload, cls)                             \
      case MsgType::name: return MsgClass::cls;
      PCSIM_MSG_TYPES(PCSIM_CASE)
#undef PCSIM_CASE
      case MsgType::NumMsgTypes: break;
    }
    return MsgClass::Response;
}

std::uint32_t
Message::sizeBytes() const
{
    // NUMALink-4 minimum packet is 32 bytes; data packets add a full
    // 128-byte coherence line. Undele may be header-only when clean,
    // but we conservatively always charge the data payload for it.
    return msgCarriesData(type) ? dataPacketBytes : headerPacketBytes;
}

std::string
Message::toString() const
{
    std::ostringstream os;
    os << msgTypeName(type) << " addr=0x" << std::hex << addr << std::dec
       << " src=" << src << " dst=" << dst << " req=" << requester
       << " v=" << version;
    return os.str();
}

} // namespace pcsim

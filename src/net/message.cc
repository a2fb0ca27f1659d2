#include "src/net/message.hh"

#include <sstream>

namespace pcsim
{

const char *
msgTypeName(MsgType t)
{
    switch (t) {
      case MsgType::ReqShared: return "ReqShared";
      case MsgType::ReqExcl: return "ReqExcl";
      case MsgType::ReqUpgrade: return "ReqUpgrade";
      case MsgType::WritebackM: return "WritebackM";
      case MsgType::RespSharedData: return "RespSharedData";
      case MsgType::RespExclData: return "RespExclData";
      case MsgType::RespUpgradeAck: return "RespUpgradeAck";
      case MsgType::WritebackAck: return "WritebackAck";
      case MsgType::Nack: return "Nack";
      case MsgType::NackNotHome: return "NackNotHome";
      case MsgType::HomeHint: return "HomeHint";
      case MsgType::Inval: return "Inval";
      case MsgType::IntervDowngrade: return "IntervDowngrade";
      case MsgType::IntervTransfer: return "IntervTransfer";
      case MsgType::InvalAck: return "InvalAck";
      case MsgType::SharedResp: return "SharedResp";
      case MsgType::SharedWriteback: return "SharedWriteback";
      case MsgType::ExclResp: return "ExclResp";
      case MsgType::TransferAck: return "TransferAck";
      case MsgType::IntervNack: return "IntervNack";
      case MsgType::Delegate: return "Delegate";
      case MsgType::Undele: return "Undele";
      case MsgType::Update: return "Update";
      case MsgType::UpdGrant: return "UpdGrant";
      case MsgType::UpdateWB: return "UpdateWB";
      case MsgType::UpdateDrop: return "UpdateDrop";
      default:
        // 23..30 are reserved so MsgType stays value-aliased with
        // PEvent across the synthetic local-event block.
        return static_cast<unsigned>(t) >= 23 &&
                       static_cast<unsigned>(t) <= 30
                   ? "Reserved"
                   : "Unknown";
    }
}

bool
msgCarriesData(MsgType t)
{
    switch (t) {
      case MsgType::WritebackM:
      case MsgType::RespSharedData:
      case MsgType::RespExclData:
      case MsgType::SharedResp:
      case MsgType::SharedWriteback:
      case MsgType::ExclResp:
      case MsgType::Delegate:
      case MsgType::Undele:
      case MsgType::Update:
      case MsgType::UpdGrant:
      case MsgType::UpdateWB:
        return true;
      default:
        return false;
    }
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

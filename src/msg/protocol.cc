#include "msg/protocol.hh"

namespace tcpni
{
namespace msg
{

std::map<std::string, uint64_t>
protoSymbols()
{
    std::map<std::string, uint64_t> syms;
    syms["T_SEND"] = typeSend;
    syms["T_READ"] = typeRead;
    syms["T_WRITE"] = typeWrite;
    syms["T_PREAD"] = typePRead;
    syms["T_PWRITE"] = typePWrite;
    syms["T_ACK"] = typeAck;
    syms["T_STOP"] = typeStop;
    syms["ID_SEND1"] = kindInfo(Kind::send1).basicId;
    syms["ID_SEND2"] = kindInfo(Kind::send2).basicId;

    syms["T_BARUP"] = typeBarUp;
    syms["T_BARDN"] = typeBarDn;
    syms["T_MCAST"] = typeMcast;
    syms["T_REDUCE"] = typeReduce;
    syms["COLL_FRAME"] = collFrameAddr;
    syms["CF_PARENT"] = cfParentOffset;
    syms["CF_FAN"] = cfFanOffset;
    syms["CF_COUNT"] = cfCountOffset;
    syms["CF_ACC"] = cfAccOffset;
    syms["CF_VALUE"] = cfValueOffset;
    syms["CF_NOTIFY"] = cfNotifyOffset;
    syms["CF_ARMACC"] = cfArmAccOffset;
    syms["CF_DONE"] = cfDoneOffset;
    syms["CF_CHILD"] = cfChildOffset;
    syms["CO_ADD"] = collOpAdd;
    syms["CO_XOR"] = collOpXor;
    syms["CO_AND"] = collOpAnd;

    syms["IS_TAG"] = istructTagOffset;
    syms["IS_VALUE"] = istructValueOffset;
    syms["IS_ELEM_SIZE"] = istructElemSize;
    syms["TAG_EMPTY"] = tagEmpty;
    syms["TAG_FULL"] = tagFull;
    syms["TAG_DEFERRED"] = tagDeferred;

    syms["DN_FP"] = defNodeFpOffset;
    syms["DN_IP"] = defNodeIpOffset;
    syms["DN_NEXT"] = defNodeNextOffset;
    syms["DN_SIZE"] = defNodeSize;

    syms["T_ESCAPE"] = typeEscape;
    syms["ALLOC_PTR"] = allocPtrAddr;
    syms["DISPATCH_TABLE"] = basicDispatchTable;
    syms["ESC_TABLE"] = escapeTableAddr;

    syms["HPU_PROXY"] = hpuProxyAddr;
    syms["HP_RING"] = hostRingBase;
    syms["HP_RING_MASK"] = hostRingSlots - 1;
    syms["HP_SLOT_BYTES"] = hostRingSlotBytes;
    syms["HP_PI"] = hostRingPiAddr;
    syms["HP_CI"] = hostRingCiAddr;
    return syms;
}

} // namespace msg
} // namespace tcpni

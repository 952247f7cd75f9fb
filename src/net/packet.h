// Packet model.
//
// A single flat header struct carries the union of the fields the simulated
// protocols need (ns-2 style). Sizes follow Ethernet/IP/TCP framing so that
// goodput numbers are directly comparable with the paper's testbed:
//   payload <= kMssBytes (1460)
//   frame   =  payload + kHeaderBytes (Ethernet+IP+TCP = 58, incl. FCS)
//   wire    =  max(frame, 64) + 20 (preamble + inter-frame gap)
// Buffers and queue lengths are accounted in frame bytes; link serialization
// is charged in wire bytes.

#ifndef SRC_NET_PACKET_H_
#define SRC_NET_PACKET_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "src/sim/time.h"

namespace tfc {

inline constexpr uint32_t kMssBytes = 1460;
inline constexpr uint32_t kHeaderBytes = 58;
inline constexpr uint32_t kMinFrameBytes = 64;
inline constexpr uint32_t kWireOverheadBytes = 20;
inline constexpr uint32_t kMtuFrameBytes = kMssBytes + kHeaderBytes;

// Initial value of the TFC window field (paper: 0xffff); any real window is
// smaller, so switches min() it down along the path.
inline constexpr uint32_t kWindowInfinite = 0xffffffffu;

// Poison stamped into released packets by the pool (src/net/packet_pool.h).
// Live uids are sequential from 1, so the pattern can never collide with a
// real packet; seeing it outside the free list means a use-after-free, and
// seeing it on a packet being released means a double free.
inline constexpr uint64_t kPoisonUid = 0xDEADDEADDEADDEADull;

enum class PacketType : uint8_t {
  kData,
  kAck,
  kSyn,
  kSynAck,
  kFin,
  kFinAck,
};

struct Packet {
  uint64_t uid = 0;     // globally unique, for tracing
  int32_t flow_id = -1;
  int32_t src = -1;     // source host node id
  int32_t dst = -1;     // destination host node id
  PacketType type = PacketType::kData;

  uint64_t seq = 0;     // first payload byte (data) / probe round id
  uint64_t ack = 0;     // cumulative ACK (next expected byte)
  uint32_t payload = 0;

  // TFC round-mark bits (two reserved TCP flag bits in the paper).
  bool rm = false;   // first packet of a full window of data
  bool rma = false;  // ACK of an RM packet

  // TFC weighted-allocation extension (paper Sec. 4.1: tokens can be split
  // "according to any allocation policies"): an RM mark contributes this
  // many units to the effective-flow count, and the sender scales the
  // granted per-unit window by it. 1 = the paper's equal-share policy.
  uint8_t weight = 1;

  // ECN bits (used by DCTCP).
  bool ecn_capable = false;
  bool ecn_ce = false;    // congestion experienced, set by switches
  bool ecn_echo = false;  // echoed back to the sender in ACKs

  // TFC window field, in frame bytes. Switches min() their computed window
  // into data packets; the receiver echoes it in the RMA ACK.
  uint32_t window = kWindowInfinite;

  // Timestamp option: sender stamp echoed by the receiver for RTT sampling.
  TimeNs ts = 0;
  TimeNs ts_echo = 0;

  uint32_t frame_bytes() const { return payload + kHeaderBytes; }
  uint32_t wire_bytes() const {
    return std::max(frame_bytes(), kMinFrameBytes) + kWireOverheadBytes;
  }

  bool is_data() const {
    return type == PacketType::kData || type == PacketType::kSyn ||
           type == PacketType::kFin;
  }
  bool is_ack() const {
    return type == PacketType::kAck || type == PacketType::kSynAck ||
           type == PacketType::kFinAck;
  }
};

// Packets are pool-recycled (src/net/packet_pool.h): PacketPtr carries a
// deleter that returns the packet to its pool instead of freeing it. A
// null pool (the default, and what plain std::make_unique<Packet>() yields
// via the implicit conversion below) falls back to `delete`, so tests and
// tools can keep constructing loose packets.
class PacketPool;

struct PacketDeleter {
  PacketPool* pool = nullptr;

  constexpr PacketDeleter() noexcept = default;
  explicit constexpr PacketDeleter(PacketPool* p) noexcept : pool(p) {}
  // Lets std::unique_ptr<Packet> convert to PacketPtr.
  constexpr PacketDeleter(std::default_delete<Packet>) noexcept {}  // NOLINT

  void operator()(Packet* p) const;  // defined in packet_pool.cc
};

using PacketPtr = std::unique_ptr<Packet, PacketDeleter>;

inline const char* PacketTypeName(PacketType t) {
  switch (t) {
    case PacketType::kData:
      return "DATA";
    case PacketType::kAck:
      return "ACK";
    case PacketType::kSyn:
      return "SYN";
    case PacketType::kSynAck:
      return "SYNACK";
    case PacketType::kFin:
      return "FIN";
    case PacketType::kFinAck:
      return "FINACK";
  }
  return "?";
}

}  // namespace tfc

#endif  // SRC_NET_PACKET_H_

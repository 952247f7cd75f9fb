#include "src/transport/reliable_receiver.h"

#include "src/net/network.h"

namespace tfc {

ReliableReceiver::ReliableReceiver(Network* network, Host* local, int flow_id,
                                   Bytes advertised_window)
    : network_(network),
      local_(local),
      flow_id_(flow_id),
      advertised_window_(advertised_window) {
  local_->RegisterEndpoint(flow_id_, this);
}

ReliableReceiver::~ReliableReceiver() { local_->UnregisterEndpoint(flow_id_); }

void ReliableReceiver::OnReceive(PacketPtr pkt) {
  switch (pkt->type) {
    case PacketType::kSyn:
      SendAck(*pkt, PacketType::kSynAck);
      return;
    case PacketType::kData:
      HandleData(*pkt);
      return;
    case PacketType::kFin:
      // The sender only emits FIN once all data is acknowledged, so a FIN
      // whose seq matches rcv_next_ terminates cleanly; anything else is a
      // stale retransmission and gets a plain cumulative ACK.
      if (pkt->seq <= rcv_next_) {
        SendAck(*pkt, PacketType::kFinAck);
      } else {
        SendAck(*pkt, PacketType::kAck);
      }
      return;
    default:
      return;  // receivers ignore stray ACK-type packets
  }
}

void ReliableReceiver::HandleData(const Packet& pkt) {
  if (pkt.payload > 0) {
    const uint64_t start = pkt.seq;
    const uint64_t end = pkt.seq + pkt.payload;
    const uint64_t before = rcv_next_;
    if (end > rcv_next_) {
      // Merge [max(start, rcv_next_), end) with the stored holes it touches.
      // Every stored hole starts above rcv_next_, so the merged range starts
      // at rcv_next_ exactly when the segment reaches the in-order frontier.
      uint64_t s = std::max(start, rcv_next_);
      auto it = out_of_order_.lower_bound(s);
      if (it != out_of_order_.begin()) {
        auto prev = std::prev(it);
        if (prev->second >= s) {
          s = prev->first;
          it = prev;
        }
      }
      uint64_t e = end;
      while (it != out_of_order_.end() && it->first <= e) {
        e = std::max(e, it->second);
        s = std::min(s, it->first);
        it = out_of_order_.erase(it);
      }
      if (s <= rcv_next_) {
        rcv_next_ = e;  // advance the frontier; in-order data is never stored
      } else {
        out_of_order_[s] = e;
      }
    }
    if (rcv_next_ > before && on_deliver) {
      on_deliver(rcv_next_ - before);
    }
  }
  SendAck(pkt, PacketType::kAck);
}

void ReliableReceiver::SendAck(const Packet& cause, PacketType type) {
  PacketPtr ack = network_->AllocatePacket();
  ack->flow_id = flow_id_;
  ack->src = local_->id();
  ack->dst = cause.src;
  ack->type = type;
  ack->ack = rcv_next_;
  ack->ts_echo = cause.ts;
  DecorateAck(cause, *ack);
  local_->Send(std::move(ack));
}

void ReliableReceiver::DecorateAck(const Packet& data, Packet& ack) {
  ack.ecn_echo = data.ecn_ce;
  ack.window = std::min(advertised_window_, Bytes(kWindowInfinite)).ToU32Saturating();
}

}  // namespace tfc

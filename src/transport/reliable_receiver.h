// Receiver half of a flow: reassembly, cumulative ACK generation, ECN echo.
//
// The receiver ACKs every data packet at once: out-of-order arrivals
// (dup-ACKs drive fast retransmit), CE marks (DCTCP echoes each one) and
// TFC round marks (the RMA carries the window grant) all need their own
// ACK. Protocol-specific ACK decoration (TFC's RMA bit + window echo) is a
// virtual hook.

#ifndef SRC_TRANSPORT_RELIABLE_RECEIVER_H_
#define SRC_TRANSPORT_RELIABLE_RECEIVER_H_

#include <cstdint>
#include <functional>
#include <map>

#include "src/net/host.h"
#include "src/net/packet.h"

namespace tfc {

class Network;

class ReliableReceiver : public Endpoint {
 public:
  ReliableReceiver(Network* network, Host* local, int flow_id, Bytes advertised_window);
  ~ReliableReceiver() override;

  void OnReceive(PacketPtr pkt) override;

  // In-order payload bytes delivered to the application so far — a
  // sequence-space position, so it stays raw uint64 like the rest of
  // seq space.
  uint64_t delivered_bytes() const { return rcv_next_; }  // lint:allow units

  // Called with the number of new in-order bytes each time delivery advances.
  std::function<void(uint64_t)> on_deliver;

  Host* local() const { return local_; }
  int flow_id() const { return flow_id_; }

 protected:
  // Fills protocol-specific ACK fields from the data packet it acknowledges.
  // Base behaviour: echo ECN CE, advertise the receive window.
  virtual void DecorateAck(const Packet& data, Packet& ack);

  Bytes advertised_window() const { return advertised_window_; }

 private:
  void HandleData(const Packet& pkt);
  void SendAck(const Packet& cause, PacketType type);

  Network* network_;
  Host* local_;
  int flow_id_;
  Bytes advertised_window_;

  uint64_t rcv_next_ = 0;
  std::map<uint64_t, uint64_t> out_of_order_;  // start -> end (exclusive)
};

}  // namespace tfc

#endif  // SRC_TRANSPORT_RELIABLE_RECEIVER_H_

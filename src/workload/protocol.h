// Protocol selection shared by examples, tests, and benches: one struct
// bundles the three protocol configurations and knows how to create a
// sender of the selected kind and how to provision the network (ECN
// thresholds for DCTCP, switch agents for TFC).

#ifndef SRC_WORKLOAD_PROTOCOL_H_
#define SRC_WORKLOAD_PROTOCOL_H_

#include <memory>

#include "src/dctcp/dctcp.h"
#include "src/net/network.h"
#include "src/tcp/tcp.h"
#include "src/tfc/endpoints.h"
#include "src/tfc/switch_port.h"

namespace tfc {

enum class Protocol { kTcp, kDctcp, kTfc };

inline const char* ProtocolName(Protocol p) {
  switch (p) {
    case Protocol::kTcp:
      return "TCP";
    case Protocol::kDctcp:
      return "DCTCP";
    case Protocol::kTfc:
      return "TFC";
  }
  return "?";
}

struct ProtocolSuite {
  Protocol protocol = Protocol::kTfc;
  TransportConfig tcp;
  TransportConfig dctcp;
  TfcHostConfig tfc;
  TfcSwitchConfig tfc_switch;

  std::unique_ptr<ReliableSender> MakeSender(Network* net, Host* src, Host* dst) const {
    switch (protocol) {
      case Protocol::kTcp:
        return std::make_unique<TcpSender>(net, src, dst, tcp);
      case Protocol::kDctcp:
        return std::make_unique<DctcpSender>(net, src, dst, dctcp);
      case Protocol::kTfc:
        return std::make_unique<TfcSender>(net, src, dst, tfc);
    }
    return nullptr;
  }

  // ECN threshold for LinkOptions (pass when building the topology).
  Bytes EcnThresholdBytes(BitsPerSec link_bps = kGbps) const {
    if (protocol != Protocol::kDctcp) {
      return 0;
    }
    return link_bps >= 10 * kGbps ? kDctcpMarkingThreshold10G : kDctcpMarkingThreshold1G;
  }

  // Installs switch-side logic; call after the topology is built.
  void InstallSwitchLogic(Network& net) const {
    if (protocol == Protocol::kTfc) {
      InstallTfcSwitches(net, tfc_switch);
    }
  }

  const char* name() const { return ProtocolName(protocol); }
};

}  // namespace tfc

#endif  // SRC_WORKLOAD_PROTOCOL_H_

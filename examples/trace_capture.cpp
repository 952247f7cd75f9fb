// Packet-level tracing: watch TFC's control machinery on the wire.
//
//   ./trace_capture [flow_id]
//
// Runs a tiny two-flow TFC scenario with the flight ring armed and prints
// the first few hundred trace lines — you can see the marked SYN, the
// zero-payload window-acquisition probe, the switch-stamped window coming
// back in the RMA, and the per-round RM marks. Pass a flow id to filter.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "src/net/network.h"
#include "src/net/trace.h"
#include "src/tfc/endpoints.h"
#include "src/tfc/switch_port.h"
#include "src/topo/topologies.h"

int main(int argc, char** argv) {
  using namespace tfc;

  Network net(3);
  StarTopology topo = BuildStar(net, 3, LinkOptions(), kGbps, Microseconds(20));
  InstallTfcSwitches(net);
  net.flight().Arm(4096);  // the run records a few hundred events

  TfcSender f1(&net, topo.hosts[1], topo.hosts[0], TfcHostConfig());
  TfcSender f2(&net, topo.hosts[2], topo.hosts[0], TfcHostConfig());
  f1.Write(8 * kMssBytes);
  f1.Close();
  f2.Write(8 * kMssBytes);
  f2.Close();
  f1.Start();
  net.scheduler().ScheduleAt(Microseconds(400), [&] { f2.Start(); });
  net.scheduler().Run();

  const int filter = argc > 1 ? std::atoi(argv[1]) : -1;
  std::ostringstream capture;
  unsigned long long events = 0;
  net.flight().ForEach([&](const FlightEvent& e) {
    if (filter < 0 || e.flow == filter) {
      WriteFlightEventLine(capture, e, net.NodeName(e.node));
      ++events;
    }
  });

  // Print the first 120 lines; the full capture can be large.
  std::istringstream lines(capture.str());
  std::string line;
  int printed = 0;
  while (printed < 120 && std::getline(lines, line)) {
    std::puts(line.c_str());
    ++printed;
  }
  std::printf("... (%llu events total; legend: + enqueue, - transmit, d drop, "
              "r deliver)\n",
              events);
  std::printf("flow ids: f1=%d f2=%d — rerun with an id to follow one flow\n",
              f1.flow_id(), f2.flow_id());
  return 0;
}

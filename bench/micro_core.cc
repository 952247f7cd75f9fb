// Component microbenchmarks (google-benchmark): the engineering costs
// behind the simulator and the TFC switch data path. These back the
// implementation-cost discussion (paper Sec. 5: the NetFPGA TFC switch adds
// ~30-58% logic; here we show the simulated data path stays cheap enough
// for large-scale runs).

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "src/net/fault.h"
#include "src/net/network.h"
#include "src/net/packet_pool.h"
#include "src/sim/random.h"
#include "src/sim/scheduler.h"
#include "src/sim/telemetry.h"
#include "src/tfc/endpoints.h"
#include "src/tfc/switch_port.h"
#include "src/workload/benchmark_traffic.h"
#include "src/workload/scenario.h"

namespace tfc {
namespace {

void BM_SchedulerScheduleAndRun(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Scheduler sched;
    int sink = 0;
    for (int i = 0; i < batch; ++i) {
      sched.ScheduleAt(i, [&sink] { ++sink; });
    }
    sched.Run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SchedulerScheduleAndRun)->Arg(1000)->Arg(100000);

void BM_SchedulerCancel(benchmark::State& state) {
  for (auto _ : state) {
    Scheduler sched;
    std::vector<Scheduler::EventId> ids;
    ids.reserve(1000);
    for (int i = 0; i < 1000; ++i) {
      ids.push_back(sched.ScheduleAt(i, [] {}));
    }
    for (auto id : ids) {
      sched.Cancel(id);
    }
    sched.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerCancel);

// Cancel of an event that has already fired (the common case after the
// indexed-heap rewrite made it a guaranteed no-op rather than a tombstone).
void BM_SchedulerCancelFired(benchmark::State& state) {
  Scheduler sched;
  std::vector<Scheduler::EventId> ids;
  ids.reserve(1024);
  for (auto _ : state) {
    state.PauseTiming();
    ids.clear();
    for (int i = 0; i < 1024; ++i) {
      ids.push_back(sched.ScheduleAfter(i, [] {}));
    }
    sched.Run();
    state.ResumeTiming();
    for (auto id : ids) {
      benchmark::DoNotOptimize(sched.Cancel(id));
    }
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SchedulerCancelFired);

// The queue load of the incast400_tfc perfbench workload (Fig. 15 point),
// replayed without the network: per-port chains in which a packet
// serializes for 1.2 µs (1500 B at 10 Gbps) and then propagates for 5 µs,
// plus one 200 ms retransmission timer per flow. One delivery in five acts
// as an ACK that cancels and re-arms the next flow's timer, so 1 push in 11
// (9%) goes to a far timer, as measured on that workload (722,912 of 8.11 M
// pushes were RTO re-arms). 80 ports with staggered starts keep ~410 chain
// events pending next to the 400 timers, near its 801-event queue peak.
// Pushes land all over the near future and every cancel hits a far timer,
// unlike BM_SchedulerScheduleAndRun's in-order pushes.
class PacketMix {
 public:
  static constexpr int kPorts = 80;
  static constexpr int kFlows = 400;
  static constexpr int kDeliveriesPerAck = 5;

  explicit PacketMix(uint64_t seed) : rto_(kFlows) {
    Rng rng(seed);
    for (int p = 0; p < kPorts; ++p) {
      sched_.ScheduleAt(TimeNs(rng.UniformInt(0, 1199)), [this, p] { Serialize(p); });
    }
    for (auto& timer : rto_) {
      timer = sched_.ScheduleAt(Milliseconds(200), [] {});
    }
  }
  Scheduler& sched() { return sched_; }

 private:
  void Serialize(int p) {
    sched_.ScheduleAfter(Microseconds(5), [this] { Deliver(); });
    sched_.ScheduleAfter(Nanoseconds(1200), [this, p] { Serialize(p); });
  }
  void Deliver() {
    if (++deliveries_ % kDeliveriesPerAck != 0) {
      return;
    }
    Scheduler::EventId& timer = rto_[next_flow_];
    next_flow_ = (next_flow_ + 1) % rto_.size();
    sched_.Cancel(timer);
    timer = sched_.ScheduleAfter(Milliseconds(200), [] {});
  }

  Scheduler sched_;
  std::vector<Scheduler::EventId> rto_;
  size_t next_flow_ = 0;
  uint64_t deliveries_ = 0;
};

void BM_SchedulerPacketMix(benchmark::State& state) {
  PacketMix mix(1);
  Scheduler& sched = mix.sched();
  sched.RunUntil(Microseconds(50));  // warm up to the steady-state depth
  const uint64_t start = sched.executed();
  for (auto _ : state) {
    sched.RunUntil(sched.now() + Microseconds(100));
  }
  state.SetItemsProcessed(static_cast<int64_t>(sched.executed() - start));
  state.counters["pending"] = static_cast<double>(sched.pending_total());
}
BENCHMARK(BM_SchedulerPacketMix);

void BM_PacketPoolAllocRelease(benchmark::State& state) {
  PacketPool pool;
  for (auto _ : state) {
    PacketPtr a = pool.Allocate();
    PacketPtr b = pool.Allocate();
    benchmark::DoNotOptimize(a.get());
    benchmark::DoNotOptimize(b.get());
  }
  state.SetItemsProcessed(state.iterations() * 2);
  state.counters["pool_high_water"] = static_cast<double>(pool.high_water());
}
BENCHMARK(BM_PacketPoolAllocRelease);

void BM_TfcOnEgressDataPath(benchmark::State& state) {
  Network net(1);
  Host* a = net.AddHost("a");
  Host* b = net.AddHost("b");
  Switch* sw = net.AddSwitch("sw");
  net.Link(a, sw, kGbps, 0);
  net.Link(sw, b, kGbps, 0);
  net.BuildRoutes();
  Port* egress = Network::FindPort(sw, b);
  egress->set_agent(std::make_unique<TfcPortAgent>(sw, egress, TfcSwitchConfig()));
  TfcPortAgent* agent = TfcPortAgent::FromPort(egress);

  Packet pkt;
  pkt.flow_id = 1;
  pkt.src = a->id();
  pkt.dst = b->id();
  pkt.type = PacketType::kData;
  pkt.payload = kMssBytes;
  int i = 0;
  for (auto _ : state) {
    pkt.rm = (++i % 8) == 0;  // a round mark every 8 packets
    pkt.window = kWindowInfinite;
    agent->OnEgress(pkt);
    benchmark::DoNotOptimize(pkt.window);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TfcOnEgressDataPath);

void BM_EmpiricalCdfSample(benchmark::State& state) {
  EmpiricalCdf cdf = WebSearchFlowSizes();
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cdf.Sample(rng));
  }
}
BENCHMARK(BM_EmpiricalCdfSample);

// Whole-simulator throughput: simulated packet-hops per wall second for a
// saturated 8-flow star under each protocol.
void BM_EndToEndSimulation(benchmark::State& state) {
  const auto protocol = static_cast<Protocol>(state.range(0));
  for (auto _ : state) {
    Scenario s;
    s.workload = Workload::kLongFlows;
    s.suite.protocol = protocol;
    s.seed = 9;
    s.flows = 8;
    s.horizon = Milliseconds(20);
    ScenarioRun run(s);
    run.Start();
    run.Run();
    state.counters["events"] = static_cast<double>(run.net().scheduler().executed());
  }
}
BENCHMARK(BM_EndToEndSimulation)
    ->Arg(static_cast<int>(Protocol::kTcp))
    ->Arg(static_cast<int>(Protocol::kDctcp))
    ->Arg(static_cast<int>(Protocol::kTfc))
    ->Unit(benchmark::kMillisecond);

// The workload of the four BM_IncastTestbed* benches: a TFC incast 8->1,
// 64 KB x 20 rounds, on the paper's testbed topology (Fig. 4 shape, Fig. 12
// workload).
Scenario IncastTestbed() {
  Scenario s;
  s.topology = Topology::kTestbed;
  s.seed = 3;
  s.senders = 8;
  s.incast.block_bytes = 64 * 1024;
  s.incast.rounds = 20;
  s.horizon = Seconds(2);
  return s;
}

// End-to-end macro-bench: simulated scheduler events per wall second for
// IncastTestbed(). items_per_second here IS the simulator's events/sec
// figure recorded in BENCH_core.json.
void BM_IncastTestbedEventsPerSec(benchmark::State& state) {
  uint64_t events = 0;
  double pool_hits = 0;
  double pool_misses = 0;
  double pool_high_water = 0;
  for (auto _ : state) {
    ScenarioRun run(IncastTestbed());
    run.Start();
    run.Run();
    Network& net = run.net();
    events += net.scheduler().executed();
    pool_hits += static_cast<double>(net.packet_pool().hits());
    pool_misses += static_cast<double>(net.packet_pool().misses());
    pool_high_water = std::max(
        pool_high_water, static_cast<double>(net.packet_pool().high_water()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
  const double iters = static_cast<double>(state.iterations());
  state.counters["pool_hits"] = pool_hits / iters;
  state.counters["pool_misses"] = pool_misses / iters;
  state.counters["pool_high_water"] = pool_high_water;
  state.SetLabel("tfc incast 8->1, 64KB x20 rounds, testbed topo");
}
BENCHMARK(BM_IncastTestbedEventsPerSec)->Unit(benchmark::kMillisecond);

// Telemetry-on twin of BM_IncastTestbedEventsPerSec: the same workload with
// a TimeSeriesRecorder sampling *every* registered metric every 100 us of
// sim time. The ratio of the two benches' wall time per run is the all-in
// recording overhead; run_bench.sh gates it at <= 1.5x.
// (BM_IncastTestbedEventsPerSec itself is the
// telemetry-compiled-in-but-disabled number.)
void BM_IncastTestbedTelemetryOn(benchmark::State& state) {
  uint64_t events = 0;
  uint64_t samples = 0;
  double series = 0;
  for (auto _ : state) {
    ScenarioRun run(IncastTestbed());
    Network& net = run.net();
    TimeSeriesRecorder recorder(&net.scheduler(), &net.metrics());
    recorder.WatchAll();
    recorder.Start(Microseconds(100));
    run.Start();
    // Stop at workload completion so the recorder samples exactly the
    // region the telemetry-off bench simulates with traffic in flight.
    run.incast()->on_finished = [&recorder] { recorder.Stop(); };
    run.Run();
    events += net.scheduler().executed();
    state.counters["plan_rebuilds"] =
        static_cast<double>(recorder.plan_rebuilds());
    series = static_cast<double>(recorder.series_count());
    samples += recorder.total_samples();
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
  const double iters = static_cast<double>(state.iterations());
  state.counters["series"] = series;
  state.counters["samples"] = static_cast<double>(samples) / iters;
  state.SetLabel("same incast with a 100us recorder on every metric");
}
BENCHMARK(BM_IncastTestbedTelemetryOn)->Unit(benchmark::kMillisecond);

// Flight-recorder twin of BM_IncastTestbedEventsPerSec: the same workload
// with a 64K-event ring armed, so every packet event and TFC control-plane
// event pays the armed path — gate branch, MakePacketEvent fill, masked
// ring store. The ratio of its wall time per run to the plain bench's is
// the always-armable tracing overhead; run_bench.sh gates it at <= 1.15x.
// (With the ring disarmed the cost is the same one-branch gate the plain
// bench already pays, so trace-off needs no separate twin.)
void BM_IncastTestbedTraceOn(benchmark::State& state) {
  uint64_t events = 0;
  uint64_t recorded = 0;
  for (auto _ : state) {
    ScenarioRun run(IncastTestbed());
    Network& net = run.net();
    net.flight().Arm(1 << 16);
    run.Start();
    run.Run();
    events += net.scheduler().executed();
    recorded += net.flight().recorded();
    benchmark::DoNotOptimize(net.flight().size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
  state.counters["flight_events"] =
      static_cast<double>(recorded) / static_cast<double>(state.iterations());
  state.SetLabel("same incast with a 64K-event flight ring armed");
}
BENCHMARK(BM_IncastTestbedTraceOn)->Unit(benchmark::kMillisecond);

// Fault-layer twin of BM_IncastTestbedEventsPerSec: the same workload with
// a FaultInjector attached to every port but configured to inject nothing,
// so every frame pays the full OnWire hook (two vector indexings to the
// port's state, the profile checks) when it starts serializing and goes to
// its delivery untouched. It runs the plain bench's events, so the ratio of
// its wall time per run to the plain bench's is the hook's own cost;
// run_bench.sh gates it at <= 1.25x. (BM_IncastTestbedEventsPerSec itself
// measures the unattached path: one null check per frame.)
void BM_IncastTestbedFaultIdle(benchmark::State& state) {
  uint64_t events = 0;
  uint64_t inspected = 0;
  for (auto _ : state) {
    ScenarioRun run(IncastTestbed());
    Network& net = run.net();
    FaultInjector inject(&net, 17);
    FaultProfile idle;  // all probabilities zero: pure hook overhead
    for (const auto& node : net.nodes()) {
      for (const auto& port : node->ports()) {
        inject.Attach(port.get(), idle);
      }
    }
    run.Start();
    run.Run();
    events += net.scheduler().executed();
    inspected += inject.inspected();
    benchmark::DoNotOptimize(inject.drops());
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
  state.counters["wire_packets"] =
      static_cast<double>(inspected) / static_cast<double>(state.iterations());
  state.SetLabel("same incast with an idle fault injector on every port");
}
BENCHMARK(BM_IncastTestbedFaultIdle)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tfc

BENCHMARK_MAIN();

// Heap allocations on the per-packet path. Packets come from the pool's
// slab and queue on an intrusive port FIFO, events live in the queue's
// slab, and endpoint dispatch, routing and in-order reassembly use flat
// tables, so a steady TFC incast allocates only in two places: block
// turnover in the TFC delay arbiter's std::deque of parked ACKs (about 90%
// of the calls) and the incast app's per-flow FCT samples growing. A
// flight-ring dump, which also runs in the abort funnel, allocates nothing.
// This binary replaces the global operator new to count calls, which is
// why it stands alone.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "src/sim/flight.h"
#include "src/workload/scenario.h"

namespace {
uint64_t g_allocations = 0;
}  // namespace

// The array and nothrow forms reach these by default. The aligned pair is
// what PacketPool's slab chunks go through. The deletes stay out of line:
// inlined next to a `new`, GCC's -Wmismatched-new-delete would pair that
// `new` with this `free`.
void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a + (size == 0 ? a : 0))) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace tfc {
namespace {

TEST(AllocTest, SteadyIncastAllocatesUnderOnePerTwentyDataSegments) {
  Scenario s;
  s.topology = Topology::kTestbed;
  s.suite.protocol = Protocol::kTfc;
  s.senders = 8;
  s.incast.block_bytes = 256 * 1024;
  s.incast.rounds = 11;
  ScenarioRun run(s);
  run.Start();
  // Round 1 grows every pool, slab, queue and table to its working size.
  Scheduler& sched = run.net().scheduler();
  while (run.incast()->rounds_completed() < 1) {
    sched.RunUntil(sched.now() + Microseconds(50));
  }
  const uint64_t allocations = g_allocations;
  const uint64_t segments = run.bottleneck()->tx_packets();
  run.Run();
  ASSERT_TRUE(run.incast()->finished());
  ASSERT_EQ(run.incast()->total_timeouts(), 0u);
  // Every data segment of rounds 2-11 crosses the bottleneck port once.
  const double delivered = static_cast<double>(run.bottleneck()->tx_packets() - segments);
  ASSERT_GT(delivered, 10 * 8 * 180 - 1);  // 180 segments per 256 KB block
  const double per_segment = static_cast<double>(g_allocations - allocations) / delivered;
  EXPECT_LT(per_segment, 0.05) << (g_allocations - allocations) << " allocations for "
                               << delivered << " data segments";
}

// The dump writes the ring from memory, in at most two pieces, so even a
// wrapped ring (its window starts at slot 904 of 4,096) needs no copy.
TEST(AllocTest, DumpingAWrappedRingAllocatesNothing) {
  FlightRecorder rec;
  rec.Arm(4096);
  for (int i = 0; i < 5000; ++i) {
    FlightEvent e = ControlFlightEvent(FlightEventType::kTokenGrant, 0, 0, 1);
    e.time = i;
    rec.Record(e);
  }
  ASSERT_EQ(rec.size(), 4096u);
  const std::string path = testing::TempDir() + "/alloc_test_wrapped.tfct";
  const std::vector<std::string> names = {"S", "h1", "h2"};
  std::string error;
  const uint64_t before = g_allocations;
  const bool dumped = rec.Dump(path, names, &error);
  const uint64_t during = g_allocations - before;
  ASSERT_TRUE(dumped) << error;
  EXPECT_EQ(during, 0u);
}

}  // namespace
}  // namespace tfc

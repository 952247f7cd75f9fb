// Heap allocations on the per-packet path. Packets come from the pool,
// events live in the queue's slab, and endpoint dispatch, routing and
// in-order reassembly use flat tables, so a steady TFC incast should
// allocate far less than once per data segment. This binary replaces the
// global operator new to count calls, which is why it stands alone.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/workload/scenario.h"

namespace {
uint64_t g_allocations = 0;
}  // namespace

// The array and nothrow forms reach these by default. The deletes stay out
// of line: inlined next to a `new`, GCC's -Wmismatched-new-delete would
// pair that `new` with this `free`.
void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tfc {
namespace {

TEST(AllocTest, SteadyIncastAllocatesUnderHalfPerDataSegment) {
  Scenario s;
  s.topology = Topology::kTestbed;
  s.suite.protocol = Protocol::kTfc;
  s.senders = 8;
  s.incast.block_bytes = 256 * 1024;
  s.incast.rounds = 11;
  ScenarioRun run(s);
  run.Start();
  // Round 1 grows every pool, queue and table to its working size.
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
  EXPECT_LT(per_segment, 0.5) << (g_allocations - allocations) << " allocations for "
                              << delivered << " data segments";
}

}  // namespace
}  // namespace tfc

// Runtime invariant auditor (src/sim/audit.h): registry mechanics, daemon
// event scheduling, the end-to-end token-conservation audit on the paper's
// Fig. 4 testbed, and regression tests for the bugs the tooling caught
// (PeriodicTimer re-arming after Stop, packet-pool double free, giant-BDP
// window stamping).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/net/network.h"
#include "src/net/packet.h"
#include "src/net/packet_pool.h"
#include "src/sim/audit.h"
#include "src/sim/scheduler.h"
#include "src/sim/timer.h"
#include "src/tfc/endpoints.h"
#include "src/tfc/switch_port.h"
#include "src/topo/topologies.h"

namespace tfc {
namespace {

// --- registry mechanics -----------------------------------------------------

TEST(AuditRegistryTest, RunAllCollectsChecksAndFailures) {
  AuditRegistry registry;
  registry.Register("good", [](Auditor& a) {
    a.Check(true, "always holds");
    a.CheckEq(2 + 2, 4, "arithmetic works");
  });
  registry.Register("bad", [](Auditor& a) {
    a.CheckLe(5, 3, "five<=three");
  });

  AuditReport report = registry.RunAll();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.components, 2u);
  EXPECT_EQ(report.checks, 3u);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].component, "bad");
  EXPECT_EQ(report.failures[0].invariant, "five<=three");
  EXPECT_NE(report.failures[0].detail.find("lhs = 5"), std::string::npos);
  EXPECT_NE(report.ToString().find("five<=three"), std::string::npos);
}

TEST(AuditRegistryTest, ScopedAuditUnregistersOnDestruction) {
  AuditRegistry registry;
  {
    ScopedAudit reg(&registry, "ephemeral", [](Auditor& a) {
      a.Check(true, "alive");
    });
    EXPECT_EQ(registry.size(), 1u);
    EXPECT_EQ(registry.RunAll().components, 1u);
  }
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.RunAll().components, 0u);
}

// --- daemon events ----------------------------------------------------------

// A self-rescheduling daemon (the auditor's periodic tick) must not keep
// drain-mode Run() alive, and must stay invisible to leak-detection
// pending() checks.
TEST(SchedulerDaemonTest, RunDrainsUserEventsDespitePendingDaemon) {
  Scheduler sched;
  int user_fires = 0;
  int daemon_fires = 0;
  // Daemon every 10ns, forever; user events at 5 and 25.
  struct Ticker {
    Scheduler* sched;
    int* fires;
    void Arm() {
      sched->ScheduleDaemonAfter(10, [this] {
        ++*fires;
        Arm();
      });
    }
  } ticker{&sched, &daemon_fires};
  ticker.Arm();
  sched.ScheduleAfter(5, [&] { ++user_fires; });
  sched.ScheduleAfter(25, [&] { ++user_fires; });

  sched.Run();
  EXPECT_EQ(user_fires, 2);
  EXPECT_EQ(daemon_fires, 2) << "daemons at t=10,20 fire; t=30 stays pending";
  EXPECT_EQ(sched.now(), 25);
  EXPECT_EQ(sched.pending(), 0u) << "pending() must not count daemons";
  EXPECT_EQ(sched.daemon_pending(), 1u);
  EXPECT_EQ(sched.pending_total(), 1u);

  // RunUntil still fires daemons inside its window.
  sched.RunUntil(45);
  EXPECT_EQ(daemon_fires, 4);
}

// --- PeriodicTimer regressions ----------------------------------------------

// Regression (found by the auditor work): Fire() re-armed unconditionally
// after the callback, so a Stop() issued inside the callback was silently
// undone and the timer ticked forever.
TEST(PeriodicTimerTest, StopInsideCallbackActuallyStops) {
  Scheduler sched;
  int fires = 0;
  PeriodicTimer timer(&sched, [&] {
    if (++fires == 3) {
      timer.Stop();
    }
  });
  timer.Start(10);
  sched.Run();
  EXPECT_EQ(fires, 3);
  EXPECT_FALSE(timer.running());
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(PeriodicTimerTest, RestartInsideCallbackAdoptsNewCadence) {
  Scheduler sched;
  std::vector<TimeNs> ticks;
  PeriodicTimer timer(&sched, [&] {
    ticks.push_back(sched.now());
    if (ticks.size() == 2) {
      timer.Start(100);  // re-cadence from inside the callback
    }
    if (ticks.size() == 4) {
      timer.Stop();
    }
  });
  timer.Start(10);
  sched.Run();
  EXPECT_EQ(ticks, (std::vector<TimeNs>{10, 20, 120, 220}));
}

// --- packet pool poisoning --------------------------------------------------

TEST(PacketPoolTest, ReleasedPacketIsPoisoned) {
  PacketPool pool;
  PacketPtr pkt = pool.Allocate();
  Packet* raw = pkt.get();
  pkt.reset();  // returns to the free list (storage stays owned by the pool)
  EXPECT_EQ(raw->seq, kPacketPoison);
  EXPECT_EQ(raw->ack, kPacketPoison);
  EXPECT_TRUE(IsPoisoned(*raw));

  // Recycling scrubs the poison back to defaults.
  PacketPtr again = pool.Allocate();
  EXPECT_EQ(again.get(), raw);
  EXPECT_FALSE(IsPoisoned(*again));
}

using PacketPoolDeathTest = ::testing::Test;

TEST(PacketPoolDeathTest, DoubleFreeAborts) {
  EXPECT_DEATH(
      {
        PacketPool pool;
        PacketPtr pkt = pool.Allocate();
        Packet* raw = pkt.get();
        pkt.reset();               // first (legal) release
        pool.Release(raw);         // second release of the same storage
      },
      "double free");
}

TEST(PacketPoolDeathTest, UseAfterFreeWriteIsCaughtByAudit) {
  PacketPool pool;
  PacketPtr pkt = pool.Allocate();
  Packet* raw = pkt.get();
  pkt.reset();

  AuditReport before;
  {
    Auditor a(&before);
    pool.AuditInvariants(a);
  }
  EXPECT_TRUE(before.ok()) << before.ToString();

  raw->seq = 12345;  // stale-pointer write into pooled storage

  AuditReport after;
  {
    Auditor a(&after);
    pool.AuditInvariants(a);
  }
  ASSERT_FALSE(after.ok());
  EXPECT_NE(after.failures[0].invariant.find("use-after-free"), std::string::npos);
}

// --- end-to-end audits ------------------------------------------------------

// Token conservation on the paper's Fig. 4 NetFPGA testbed: nine hosts
// under three leaf switches and a root, all-to-one incast into H1 under
// TFC. Every switch port runs its full ledger audit (counter == initial +
// refilled - overflow - debited + forgiven) both periodically during the
// run and in a final explicit pass.
TEST(AuditE2eTest, TestbedIncastConservesTokens) {
  Network net(17);
  TestbedTopology topo = BuildTestbed(net);
  InstallTfcSwitches(net);
  net.EnableAudit(Microseconds(500));

  std::vector<std::unique_ptr<TfcSender>> flows;
  for (size_t i = 1; i < topo.hosts.size(); ++i) {
    auto flow = std::make_unique<TfcSender>(&net, topo.hosts[i], topo.hosts[0],
                                            TfcHostConfig());
    flow->Write(200'000);
    flow->Close();
    flow->Start();
    flows.push_back(std::move(flow));
  }
  net.scheduler().Run();

  for (const auto& flow : flows) {
    EXPECT_EQ(flow->delivered_bytes(), 200'000u);
  }
  EXPECT_GT(net.audit_passes(), 0u) << "periodic daemon audits must have run";

  AuditReport report = net.RunAudit();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.checks, 100u);
  // Every switch port agent registered (NF0: 3 ports to leaves; NF1-3:
  // 1 uplink + 3 host ports each) plus scheduler, pool, and port sweeps.
  EXPECT_GE(report.components, 15u);
}

// Regression: stamping a window on a giant-BDP path (100 Gbps x 10 ms)
// produces window_bytes far above 2^32; the unguarded double->uint32 cast
// was undefined behavior (aborts under -fsanitize=float-cast-overflow).
// The stamp must clamp to kWindowInfinite instead.
TEST(AuditE2eTest, GiantBdpWindowStampClampsInsteadOfOverflowing) {
  Network net(5);
  StarTopology topo =
      BuildStar(net, 3, LinkOptions(), /*bps=*/100 * kGbps,
                /*link_delay=*/Milliseconds(10));
  InstallTfcSwitches(net);
  net.EnableAudit(Milliseconds(5));

  auto flow = std::make_unique<TfcSender>(&net, topo.hosts[1], topo.hosts[0],
                                          TfcHostConfig());
  flow->Write(5'000'000);
  flow->Close();
  flow->Start();
  net.scheduler().Run();

  EXPECT_EQ(flow->delivered_bytes(), 5'000'000u);
  AuditReport report = net.RunAudit();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

}  // namespace
}  // namespace tfc

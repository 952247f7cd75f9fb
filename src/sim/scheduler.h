// Discrete-event scheduler.
//
// The scheduler is the heart of the simulator: every link transmission,
// timer expiry, application arrival, and sampler tick is an event. Events
// with equal timestamps fire in insertion order (FIFO tie-break on a
// monotonically increasing sequence number), which makes simulations fully
// deterministic for a fixed seed.
//
// Precisely, events fire in (time, born, seq) order, where born is the
// instant the event was scheduled. For events scheduled with ScheduleAt
// that is the FIFO order above. ScheduleKeyed places an event at an
// explicit key instead: a port schedules a frame's delivery when the frame
// starts serializing, yet keys it as if it had been scheduled when the
// frame finished (src/net/port.h). Passed() tells whether a key is behind
// the event being dispatched, which is how such a port reads the state its
// skipped completion event would have left.
//
// Engineering notes (see docs/perf.md): events live in a two-tier queue
// (src/sim/event_queue.h). Events due within about 1 ms sit in a calendar
// ring where push, pop and cancel are O(1); later ones (retransmission
// timers) sit in an indexed heap where cancel is a true O(log n) removal —
// no tombstone set that grows with every cancelled timer. Callbacks are
// small-buffer-optimized move-only callables (src/sim/inplace_function.h),
// built in place in the queue's slab, so scheduling an event performs zero
// heap allocations.

#ifndef SRC_SIM_SCHEDULER_H_
#define SRC_SIM_SCHEDULER_H_

#include <cstdint>

#include "src/sim/audit.h"
#include "src/sim/check.h"
#include "src/sim/event_queue.h"
#include "src/sim/inplace_function.h"
#include "src/sim/time.h"

namespace tfc {

class Scheduler {
 public:
  using Callback = InplaceFunction<void(), kDefaultInplaceCapacity>;
  using Queue = EventQueue<Callback>;

  // Handle for a scheduled event; can be used to cancel it before it fires.
  // A default-constructed EventId is invalid and safe to Cancel (no-op), as
  // is the id of an event that has already fired or been cancelled.
  using EventId = Queue::Handle;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  TimeNs now() const { return cur_.time; }

  // Schedules `cb` to run at absolute time `t` (must be >= now()). Takes
  // the callable itself (not a pre-built Callback) so it can be constructed
  // directly in the event queue's callback slab.
  template <typename F>
  EventId ScheduleAt(TimeNs t, F&& cb) {
    TFC_CHECK_GE(t, cur_.time);
    return queue_.Push(EventKey{t, EventLead(t, cur_.time), ++next_seq_}, std::forward<F>(cb));
  }

  // Takes the sequence number an event scheduled now would take, for a
  // later ScheduleKeyed or Passed under this instant's birth.
  uint64_t ReserveSeq() { return ++next_seq_; }

  // Schedules `cb` under the key (t, born, seq): it fires where an event
  // scheduled at `born` with sequence number `seq` would. `born` may be
  // later than now; `seq` is a reserved number or one the caller keeps
  // apart from them (Port sets the top bit). The key must be unique, not
  // yet passed, and born at most kMaxEventLead - 1 ns before t.
  template <typename F>
  EventId ScheduleKeyed(TimeNs t, TimeNs born, uint64_t seq, F&& cb) {
    TFC_CHECK_GE(t, cur_.time);
    TFC_CHECK(born <= t && t - born < TimeNs(kMaxEventLead));
    return queue_.Push(EventKey{t, EventLead(t, born), seq}, std::forward<F>(cb));
  }

  // True when an event keyed (t, born, seq) would already have run: its key
  // is at or before the key of the event being dispatched (or, between
  // events, of the last one dispatched). After RunUntil(t) returns without
  // Stop(), every key at a time <= t has passed.
  bool Passed(TimeNs t, TimeNs born, uint64_t seq) const {
    return !KeyBefore(cur_, EventKey{t, EventLead(t, born), seq});
  }

  // The key Passed() compares with. It lives as long as the scheduler, so
  // a reader that checks keys on every call may keep a pointer to it.
  const EventKey& current_key() const { return cur_; }

  // Schedules `cb` to run `delay` nanoseconds from now (delay >= 0).
  template <typename F>
  EventId ScheduleAfter(TimeNs delay, F&& cb) {
    return ScheduleAt(cur_.time + delay, std::forward<F>(cb));
  }

  // Schedules a *daemon* event: it fires like any other event inside
  // Run()/RunUntil(), but does not keep Run() alive — drain-mode Run()
  // returns as soon as only daemon events remain pending. This is what
  // lets a self-rescheduling background service (the periodic invariant
  // auditor, the telemetry recorder) coexist with tests that run the
  // simulation to completion. A pending daemon event must be cancelled with
  // CancelDaemon, never Cancel — plain Cancel cannot see the daemon
  // accounting and would leave pending() permanently short by one.
  template <typename F>
  EventId ScheduleDaemonAfter(TimeNs delay, F&& cb) {
    ++daemon_pending_;
    return ScheduleAt(cur_.time + delay,
                      [this, f = std::forward<F>(cb)]() mutable {
                        --daemon_pending_;
                        f();
                      });
  }

  // Cancels a pending event. Returns true if the event was still pending.
  // Cancelling an already-fired, already-cancelled, or invalid id is a no-op.
  bool Cancel(EventId id) { return queue_.Remove(id); }

  // Cancels a pending daemon event (one scheduled with ScheduleDaemonAfter).
  // The daemon counter is adjusted only when the event was actually removed,
  // so cancelling an already-fired daemon id is a safe no-op.
  bool CancelDaemon(EventId id) {
    if (queue_.Remove(id)) {
      TFC_DCHECK_GT(daemon_pending_, 0u);
      --daemon_pending_;
      return true;
    }
    return false;
  }

  // Number of pending (non-cancelled) user events. Daemon events are
  // infrastructure (the invariant auditor's tick) and are excluded, so
  // "no leaked timers" assertions keep working with the auditor enabled.
  size_t pending() const { return queue_.size() - daemon_pending_; }

  // Number of pending events including daemons.
  size_t pending_total() const { return queue_.size(); }

  // Number of pending daemon events.
  size_t daemon_pending() const { return daemon_pending_; }

  // Total number of events executed so far.
  uint64_t executed() const { return executed_; }

  // Push/pop/cancel counts per queue tier (ring vs far heap).
  const Queue::TierCounts& queue_counts() const { return queue_.counts(); }

  // Runs until the event queue drains (daemon events excepted) or Stop()
  // is called.
  void Run() {
    stopped_ = false;
    while (!stopped_ && PopAndRunOne(/*limit=*/INT64_MAX, /*drain_mode=*/true)) {
    }
  }

  // Runs all events with timestamp <= t, then advances the clock to t.
  void RunUntil(TimeNs t) {
    TFC_CHECK_GE(t, cur_.time);
    stopped_ = false;
    while (!stopped_ && PopAndRunOne(t, /*drain_mode=*/false)) {
    }
    if (!stopped_) {
      // The last key at time t: every event due by t has run.
      cur_ = EventKey{t, 0, UINT64_MAX};
    }
  }

  // Makes Run()/RunUntil() return after the current event completes.
  void Stop() { stopped_ = true; }

  // Runtime-auditor hook: structural validation of both queue tiers plus
  // the clock/queue relationship (no pending event may be in the past). The
  // earliest event is looked up only in a queue that passed its own checks.
  void AuditInvariants(Auditor& audit) const {
    if (queue_.AuditInvariants(audit) && !queue_.empty()) {
      audit.CheckGe(queue_.top_time(), cur_.time, "no pending event in the past");
    }
  }

 private:
  // Pops and runs the earliest event if its time is <= limit.
  // Returns false when there is nothing eligible left; in drain mode a
  // queue holding only daemon events counts as drained (their times are
  // always > now here — an eligible daemon would have been popped on an
  // earlier iteration).
  bool PopAndRunOne(TimeNs limit, bool drain_mode) {
    if (queue_.empty() || queue_.top_time() > limit ||
        (drain_mode && queue_.size() == daemon_pending_)) {
      return false;
    }
    EventKey key;
    Callback cb = queue_.Pop(&key);
    TFC_DCHECK_GE(key.time, cur_.time);
    cur_ = key;
    ++executed_;
    cb();
    return true;
  }

  Queue queue_;
  // Key of the event being dispatched, or of the last one; its time is the
  // clock. The initial key sorts before every event.
  EventKey cur_;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  size_t daemon_pending_ = 0;
  bool stopped_ = false;
};

}  // namespace tfc

#endif  // SRC_SIM_SCHEDULER_H_

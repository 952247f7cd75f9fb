// Telemetry layer: metrics registry, time-series recorder, run exporter.
//
// The paper's entire evaluation (Sec. 6, Figs. 6-16) is built from internal
// time series — per-port queue length, token counter, effective flow count,
// rho, per-flow cwnd — and this layer is the unified way to record them.
//
// Three pieces:
//
//   MetricRegistry   named pull gauges, the one kind of metric. A
//                    component exposes state it already keeps (queue_bytes_,
//                    token_bytes_, rounds_completed_) through a callback
//                    registered once (cold path, name lookup), so
//                    instrumented hot paths pay nothing at all until
//                    somebody actually samples. A sampling loop reads
//                    through a CompiledRead — one indirect call — never the
//                    name.
//
//   TimeSeriesRecorder  samples watched metrics on a fixed cadence into a
//                    change-only SeriesLog through a *compiled sample
//                    plan*: watch names and prefixes resolve to (compiled
//                    read, series) pairs once, re-resolved only when the
//                    registry generation changes, so a tick touches no
//                    strings and no maps. Ticks are *daemon* events
//                    (Scheduler::ScheduleDaemonAfter), so an attached
//                    recorder never keeps Run() alive and never perturbs
//                    "no leaked timers" pending() assertions. Read series
//                    in-process with TimeSeriesRecorder::Series, offline
//                    with SeriesLog::Load + SeriesLog::Samples.
//
//   Run exporter     writes a per-run directory: manifest.json (what ran),
//                    metrics.tfcb (the recorder's SeriesLog, spilled
//                    verbatim), summary.json (final value of every gauge
//                    + profiler sites). Formats are documented in
//                    docs/observability.md and validated by
//                    tools/telemetry_schema.py in CI.
//
// The registry lives on the Network (Network::metrics()) next to the audit
// registry; components self-register their gauges at construction and
// unregister through ScopedMetrics when destroyed mid-run.

#ifndef SRC_SIM_TELEMETRY_H_
#define SRC_SIM_TELEMETRY_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/check.h"
#include "src/sim/inplace_function.h"
#include "src/sim/scheduler.h"
#include "src/sim/time.h"

namespace tfc {

// Registry of named pull gauges. Registration and lookup are cold-path (map
// by name); a read calls the registered function. Duplicate names abort
// (TFC_CHECK): two components claiming the same series is a wiring bug, not
// a runtime condition. Not thread-safe (the simulator is single-threaded).
class MetricRegistry {
 public:
  using GaugeFn = InplaceFunction<double(), kDefaultInplaceCapacity>;

  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  void AddCallbackGauge(std::string name, GaugeFn fn);

  bool Has(const std::string& name) const { return entries_.count(name) > 0; }
  size_t size() const { return entries_.size(); }

  // Reads the current value of a gauge (absent names return false).
  // Non-const: callback gauges may be stateful.
  bool Read(const std::string& name, double* out);

  // A read compiled all the way down: one indirect call through `fn(obj)`
  // straight into the gauge's stored callable. Valid until generation()
  // changes.
  struct CompiledRead {
    double (*fn)(void*);
    void* obj;
  };

  // Compiles a gauge to a direct read (cold path). Absent names and empty
  // callbacks return false.
  bool CompileRead(const std::string& name, CompiledRead* out);

  // Bumped on every register and unregister. Consumers holding compiled
  // reads (the recorder's sample plan) recompile when this changes.
  uint64_t generation() const { return generation_; }

  // Visits every readable gauge (see CompileRead) in name order with its
  // compiled read: fn(name, read). Plan builders resolve prefix watches and
  // the exporter writes summary.json in this one ordered pass; name order
  // makes exports deterministic.
  template <typename Fn>
  void ForEachRead(Fn&& fn) {
    for (auto& [name, gauge] : entries_) {
      CompiledRead read;
      if (Compile(gauge, &read)) {
        fn(name, read);
      }
    }
  }

 private:
  friend class ScopedMetrics;

  // Removes a metric. Components that can die before the registry (flows,
  // port agents, fault injectors) unregister this way, through
  // ScopedMetrics; nothing else removes a metric. Both AddCallbackGauge
  // and Unregister bump generation_ so cached plans recompile.
  void Unregister(const std::string& name);

  static bool Compile(GaugeFn& fn, CompiledRead* out);

  // std::map: stable node addresses (a compiled read points into its
  // entry, and survives unrelated inserts/erases) and deterministic
  // name-ordered iteration for exports.
  std::map<std::string, GaugeFn> entries_;
  uint64_t generation_ = 1;  // starts above the recorder's "no plan" zero
};

// RAII bundle of registrations: everything added through this object is
// unregistered when it is destroyed, so a component destroyed mid-run
// cannot leave a dangling callback gauge behind (same contract as
// ScopedAudit). Default-constructed inert; Reset() binds a registry.
class ScopedMetrics {
 public:
  ScopedMetrics() = default;
  explicit ScopedMetrics(MetricRegistry* registry) { Reset(registry); }
  ScopedMetrics(const ScopedMetrics&) = delete;
  ScopedMetrics& operator=(const ScopedMetrics&) = delete;
  ~ScopedMetrics() { Clear(); }

  // Binds (or rebinds) the registry; unregisters anything already added.
  void Reset(MetricRegistry* registry) {
    Clear();
    registry_ = registry;
  }

  // Registers like MetricRegistry::AddCallbackGauge: a name that another
  // live component holds aborts.
  void AddCallbackGauge(std::string name, MetricRegistry::GaugeFn fn);

 private:
  void Clear();

  MetricRegistry* registry_ = nullptr;
  std::vector<std::string> names_;
};

// A change-only log of sampled series: the recorder's storage and, spilled
// verbatim, the payload of metrics.tfcb.
//
// A tick stores its timestamp. A series sampled at a tick stores a value
// only when the value's bits differ from that series' previous sample (or
// it has none yet); readers carry the last stored value forward. Which
// series a tick samples is its *epoch* — the recorder's plan order,
// snapshotted once per plan change — so a stored value is just a
// (series id, value) pair. Finished flows and idle ports never change, so
// at 100-sender incast scale about one sample in six is stored.
class SeriesLog {
 public:
  struct Sample {
    TimeNs t;
    double v;
  };
  // One tick: its time, and the end of its changes in the change arrays
  // (they start where the previous tick's end).
  struct Tick {
    TimeNs t;
    uint64_t change_end;
  };
  // The series each tick samples, in sample order, from first_tick until
  // the next epoch begins.
  struct Epoch {
    uint64_t first_tick;
    std::vector<uint32_t> sids;
  };

  // Interns a new series; ids are dense, in call order.
  uint32_t AddSeries(std::string name);
  // Makes `sids` the epoch of the next AppendTick, which must follow
  // before the next BeginEpoch (a no-op when `sids` already is the epoch).
  void BeginEpoch(const std::vector<uint32_t>& sids);
  // Hot path: one tick at `t` reading reads[i] into series sids[i] (the
  // current epoch), storing only the values that changed.
  void AppendTick(TimeNs t, const MetricRegistry::CompiledRead* reads,
                  const uint32_t* sids, size_t n);

  size_t series_count() const { return names_.size(); }
  const std::string& name(uint32_t sid) const { return names_[sid]; }
  uint64_t tick_count() const { return ticks_.size(); }
  uint64_t change_count() const { return changes_; }
  // Samples the log stands for: every epoch series at every tick.
  uint64_t sample_count() const;

  // One series' samples, oldest first (empty when never sampled).
  std::vector<Sample> Samples(uint32_t sid) const;

  // Writes metrics.tfcb (format below); false with *error on I/O failure.
  bool Write(const std::string& path, std::string* error) const;
  // Replaces this log with the one stored at `path`. Rejects, with the
  // reason in *error, any file the writer could not have produced: bad
  // magic or version, counts the file is too short for, ids out of range,
  // time or change offsets running backwards, or a series sampled before
  // it has a value. Leaves the log unchanged on failure.
  bool Load(const std::string& path, std::string* error);

 private:
  uint64_t EpochEnd(size_t e) const {
    return e + 1 < epochs_.size() ? epochs_[e + 1].first_tick : ticks_.size();
  }
  std::vector<uint32_t> SidsByName() const;
  void GrowChanges(size_t need);

  std::vector<std::string> names_;  // by sid
  std::vector<Epoch> epochs_;
  std::vector<Tick> ticks_;
  // The changes, as two parallel arrays. Raw buffers rather than vectors:
  // resize() would zero-fill the slots AppendTick is about to overwrite.
  std::unique_ptr<uint32_t[]> change_sids_;
  std::unique_ptr<double[]> change_values_;
  size_t changes_ = 0;
  size_t change_capacity_ = 0;
  // Writer state: each series' last sampled bits, and how many series the
  // last tick knew (newer ids have no sample yet, so their first is
  // stored whatever its bits).
  std::vector<uint64_t> last_bits_;
  size_t seen_series_ = 0;
};

// Samples watched gauges on a fixed cadence into a SeriesLog.
// Ticks are daemon events: they fire inside Run()/RunUntil() like any event
// but do not keep drain-mode Run() alive and are excluded from pending(). A
// watched metric that disappears (its component unregistered) simply stops
// extending its series.
//
// Ticks run off a compiled sample plan: watches and prefixes resolve once
// to (compiled read, series id) pairs, re-resolved only when the registry
// generation changes, so the per-tick cost is one indirect call plus a
// compare per watched metric — no string compares, no map lookups.
class TimeSeriesRecorder {
 public:
  using Sample = SeriesLog::Sample;

  TimeSeriesRecorder(Scheduler* scheduler, MetricRegistry* registry)
      : scheduler_(scheduler), registry_(registry) {}
  TimeSeriesRecorder(const TimeSeriesRecorder&) = delete;
  TimeSeriesRecorder& operator=(const TimeSeriesRecorder&) = delete;
  ~TimeSeriesRecorder() { Stop(); }

  // Watch one metric by exact name (duplicates are ignored: one watch, one
  // sample per tick), or every current and future metric whose name starts
  // with `prefix` (the plan re-expands when the registry changes, so
  // metrics registered after Start() are picked up).
  void Watch(std::string name);
  void WatchPrefix(std::string prefix);
  void WatchAll() { WatchPrefix(""); }

  // Test seam: rebuild the sample plan on every tick instead of only on
  // generation change — the reference the cached plan is checked against.
  void set_replan_every_tick_for_test(bool v) { replan_every_tick_ = v; }

  // Starts sampling every `period`, first tick after `first_delay`
  // (defaults to 0: an immediate baseline sample). Restart re-paces.
  void Start(TimeNs period, TimeNs first_delay = 0);
  void Stop();
  bool running() const { return running_; }

  TimeNs period() const { return period_; }
  uint64_t ticks() const { return log_.tick_count(); }

  // How many times the sample plan was compiled — equals the number of
  // registry-churn episodes the recorder saw (plus the initial build).
  // ticks() >> plan_rebuilds() is the signature of a healthy hot path.
  uint64_t plan_rebuilds() const { return plan_rebuilds_; }

  // Number of distinct recorded series / total samples across them.
  size_t series_count() const { return log_.series_count(); }
  size_t total_samples() const { return static_cast<size_t>(log_.sample_count()); }

  // Recorded series for `name`, oldest sample first (empty if never
  // sampled).
  std::vector<Sample> Series(const std::string& name) const;

  // Names of every recorded series, sorted.
  std::vector<std::string> SeriesNames() const;

  // Everything recorded so far; WriteRunDirectory spills it verbatim.
  const SeriesLog& log() const { return log_; }

 private:
  void Tick();
  void RebuildPlan();
  void AddPlanEntry(const std::string& name, MetricRegistry::CompiledRead read);

  Scheduler* scheduler_;
  MetricRegistry* registry_;
  std::vector<std::string> watches_;
  std::vector<std::string> prefixes_;
  // Series ids persist for the recorder's lifetime: a metric that returns
  // under the same name extends its old series.
  std::map<std::string, uint32_t> sid_by_name_;
  SeriesLog log_;
  // The compiled plan, as two parallel arrays: the tick loop streams the
  // reads (call `fn(obj)`), and the sids name the series each read feeds —
  // the log's epoch. Compiled reads are valid until the registry
  // generation moves, which forces a rebuild before the next sample.
  std::vector<MetricRegistry::CompiledRead> plan_reads_;
  std::vector<uint32_t> plan_sids_;
  uint64_t plan_generation_ = 0;  // registry generation the plan matches;
                                  // 0 = never built (registry starts at 1)
  uint64_t plan_rebuilds_ = 0;
  bool replan_every_tick_ = false;
  TimeNs period_ = 0;
  bool running_ = false;
  Scheduler::EventId tick_event_;
};

// ---------------------------------------------------------------------------
// Run exporter: manifest.json + metrics.tfcb + summary.json per run.
// ---------------------------------------------------------------------------

class Profiler;

// metrics.tfcb v2 — a SeriesLog spilled verbatim. Little-endian; the three
// log sections are the log's in-memory arrays, written as they are:
//
//   header   "TFCB" magic, u32 version (=2), u32 series_count,
//            u32 epoch_count, u64 tick_count, u64 change_count (32 bytes)
//   names    series_count entries of {u32 len, bytes}; a name's position
//            is its series id (first-recorded order, not name order)
//   epochs   epoch_count entries of {u64 first_tick, u32 width,
//            width x u32 series id}
//   ticks    tick_count entries of {i64 t_ns, u64 change_end}
//   sids     change_count x u32: the series each stored value belongs to
//   values   change_count x f64
//
// Every series of a tick's epoch has a sample at that tick: its latest
// stored value. SeriesLog::Load + SeriesLog::Samples read it back.
inline constexpr char kTfcbMagic[4] = {'T', 'F', 'C', 'B'};
inline constexpr uint32_t kTfcbVersion = 2;
inline constexpr size_t kTfcbHeaderBytes = 32;

// Ordered key/value description of what ran (workload, protocol, topology,
// seeds, flags). Values keep their JSON type; the exporter adds
// schema_version, git_describe, and wall-clock timestamps itself.
class RunManifest {
 public:
  void Set(const std::string& key, const std::string& value);
  void SetInt(const std::string& key, int64_t value);
  void SetDouble(const std::string& key, double value);
  void SetBool(const std::string& key, bool value);

  const std::vector<std::pair<std::string, std::string>>& entries() const {
    return entries_;  // key -> pre-encoded JSON literal
  }

 private:
  void SetLiteral(const std::string& key, std::string json);
  std::vector<std::pair<std::string, std::string>> entries_;
};

// `git describe --always --dirty` of the working tree, or "unknown" when
// git/repo are unavailable. Cached after the first call (cold path only).
const std::string& GitDescribe();

// Writes the per-run directory (created if needed):
//   dir/manifest.json   schema_version, git describe, timestamps, manifest
//   dir/metrics.tfcb    the recorder's log, verbatim (header-only when
//                       recorder is null)
//   dir/summary.json    final value of every registry gauge, in name order,
//                       and profiler sites (profiler may be null)
// Returns false and fills *error on filesystem failure. Formats are stable
// and validated by tools/telemetry_schema.py.
bool WriteRunDirectory(const std::string& dir, const RunManifest& manifest,
                       MetricRegistry& metrics, const TimeSeriesRecorder* recorder,
                       const Profiler* profiler, std::string* error);

// JSON string escaping for the exporter and tracers (exposed for tests).
std::string JsonEscape(const std::string& s);
// Finite doubles render with shortest round-trip precision; NaN/inf render
// as null (JSON has no non-finite numbers).
std::string JsonNumber(double v);

}  // namespace tfc

#endif  // SRC_SIM_TELEMETRY_H_

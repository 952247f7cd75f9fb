#include "src/sim/telemetry.h"

// The exporter is the one sanctioned I/O path out of the hot layers: it
// runs after (or between) simulation phases, never per event.
// lint:allow hot-io

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <type_traits>

#include "src/sim/profile.h"
#include "src/sim/thread_annotations.h"

namespace tfc {

// ---------------------------------------------------------------------------
// MetricRegistry
// ---------------------------------------------------------------------------

void MetricRegistry::AddCallbackGauge(std::string name, GaugeFn fn) {
  TFC_CHECK_MSG(!name.empty(), "metric names must be non-empty");
  auto [it, inserted] = entries_.try_emplace(std::move(name));
  TFC_CHECK_MSG(inserted, "duplicate metric name: " << it->first);
  it->second = std::move(fn);
  ++generation_;
}

void MetricRegistry::Unregister(const std::string& name) {
  if (entries_.erase(name) > 0) {
    ++generation_;
  }
}

bool MetricRegistry::Compile(GaugeFn& fn, CompiledRead* out) {
  out->fn = fn.raw_invoke();
  out->obj = fn.raw_storage();
  return out->fn != nullptr;
}

bool MetricRegistry::CompileRead(const std::string& name, CompiledRead* out) {
  auto it = entries_.find(name);
  return it != entries_.end() && Compile(it->second, out);
}

bool MetricRegistry::Read(const std::string& name, double* out) {
  CompiledRead read;
  if (!CompileRead(name, &read)) {
    return false;
  }
  *out = read.fn(read.obj);
  return true;
}

// ---------------------------------------------------------------------------
// ScopedMetrics
// ---------------------------------------------------------------------------

void ScopedMetrics::AddCallbackGauge(std::string name, MetricRegistry::GaugeFn fn) {
  TFC_CHECK(registry_ != nullptr);
  names_.push_back(name);
  registry_->AddCallbackGauge(std::move(name), std::move(fn));
}

void ScopedMetrics::Clear() {
  if (registry_ != nullptr) {
    for (const std::string& name : names_) {
      registry_->Unregister(name);
    }
  }
  names_.clear();
}

// ---------------------------------------------------------------------------
// TimeSeriesRecorder
// ---------------------------------------------------------------------------

void TimeSeriesRecorder::Watch(std::string name) {
  if (std::find(watches_.begin(), watches_.end(), name) != watches_.end()) {
    return;  // one watch, one sample per tick
  }
  watches_.push_back(std::move(name));
  plan_generation_ = 0;
}

void TimeSeriesRecorder::WatchPrefix(std::string prefix) {
  if (std::find(prefixes_.begin(), prefixes_.end(), prefix) != prefixes_.end()) {
    return;
  }
  prefixes_.push_back(std::move(prefix));
  plan_generation_ = 0;
}

void TimeSeriesRecorder::Start(TimeNs period, TimeNs first_delay) {
  TFC_CHECK_GT(period, 0);
  TFC_CHECK_GE(first_delay, 0);
  Stop();
  period_ = period;
  running_ = true;
  tick_event_ = scheduler_->ScheduleDaemonAfter(first_delay, [this] { Tick(); });
}

void TimeSeriesRecorder::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  scheduler_->CancelDaemon(tick_event_);
  tick_event_ = Scheduler::EventId{};
}

// Cold path, runs only when the registry generation moved (or on the first
// tick): compiles watches and prefixes to (read, series) pairs in the exact
// order the pre-plan Tick sampled them — exact watches in insertion order,
// then prefix matches in registry name order minus the exact names — so
// stateful callback gauges see an identical read sequence.
void TimeSeriesRecorder::RebuildPlan() {
  ++plan_rebuilds_;
  plan_reads_.clear();
  plan_sids_.clear();
  for (const std::string& name : watches_) {
    MetricRegistry::CompiledRead read;
    // A watched metric that has disappeared (component destroyed mid-run)
    // silently stops extending its series.
    if (registry_->CompileRead(name, &read)) {
      AddPlanEntry(name, read);
    }
  }
  if (!prefixes_.empty()) {
    registry_->ForEachRead(
        [this](const std::string& name, MetricRegistry::CompiledRead read) {
          bool matched = false;
          for (const std::string& p : prefixes_) {
            if (name.compare(0, p.size(), p) == 0) {
              matched = true;
              break;
            }
          }
          if (!matched ||
              std::find(watches_.begin(), watches_.end(), name) != watches_.end()) {
            return;  // not watched, or already planned via the exact-name list
          }
          AddPlanEntry(name, read);
        });
  }
  plan_generation_ = registry_->generation();
  log_.BeginEpoch(plan_sids_);
}

void TimeSeriesRecorder::AddPlanEntry(const std::string& name,
                                      MetricRegistry::CompiledRead read) {
  auto it = sid_by_name_.find(name);
  if (it == sid_by_name_.end()) {
    it = sid_by_name_.emplace(name, log_.AddSeries(name)).first;
  }
  plan_reads_.push_back(read);
  plan_sids_.push_back(it->second);
}

void TimeSeriesRecorder::Tick() {
  if (!running_) {
    return;
  }
  if (replan_every_tick_ || plan_generation_ != registry_->generation()) {
    RebuildPlan();
  }
  log_.AppendTick(scheduler_->now(), plan_reads_.data(), plan_sids_.data(),
                  plan_reads_.size());
  tick_event_ = scheduler_->ScheduleDaemonAfter(period_, [this] { Tick(); });
}

std::vector<TimeSeriesRecorder::Sample> TimeSeriesRecorder::Series(
    const std::string& name) const {
  auto it = sid_by_name_.find(name);
  if (it == sid_by_name_.end()) {
    return {};
  }
  return log_.Samples(it->second);
}

std::vector<std::string> TimeSeriesRecorder::SeriesNames() const {
  std::vector<std::string> names;
  names.reserve(sid_by_name_.size());
  for (const auto& [name, sid] : sid_by_name_) {
    names.push_back(name);
  }
  return names;
}

// ---------------------------------------------------------------------------
// SeriesLog
// ---------------------------------------------------------------------------

uint32_t SeriesLog::AddSeries(std::string name) {
  names_.push_back(std::move(name));
  last_bits_.push_back(0);
  return static_cast<uint32_t>(names_.size() - 1);
}

void SeriesLog::BeginEpoch(const std::vector<uint32_t>& sids) {
  if (!epochs_.empty() && epochs_.back().sids == sids) {
    return;  // same series in the same order: the epoch goes on
  }
  epochs_.push_back(Epoch{ticks_.size(), sids});
}

void SeriesLog::AppendTick(TimeNs t, const MetricRegistry::CompiledRead* reads,
                           const uint32_t* sids, size_t n) {
  if (change_capacity_ - changes_ < n) {
    GrowChanges(n);
  }
  // Branch-free compaction: every value is written at the cursor, and the
  // cursor only advances past the ones that changed. Reads can run
  // arbitrary callback-gauge code, so everything the loop needs lives in
  // locals the compiler can keep in registers instead of members it must
  // reload after every call.
  uint32_t* const out_sid = change_sids_.get() + changes_;
  double* const out_v = change_values_.get() + changes_;
  uint64_t* const last = last_bits_.data();
  const size_t fresh = seen_series_;
  size_t k = 0;
  for (size_t pos = 0; pos < n; ++pos) {
    const double v = reads[pos].fn(reads[pos].obj);
    const uint32_t sid = sids[pos];
    const uint64_t bits = std::bit_cast<uint64_t>(v);
    out_sid[k] = sid;
    out_v[k] = v;
    k += static_cast<size_t>((bits != last[sid]) | (sid >= fresh));
    last[sid] = bits;
  }
  changes_ += k;
  ticks_.push_back(Tick{t, changes_});
  seen_series_ = names_.size();
}

void SeriesLog::GrowChanges(size_t need) {
  size_t cap = change_capacity_ < 4096 ? 4096 : change_capacity_;
  while (cap - changes_ < need) {
    cap *= 2;
  }
  // new T[cap] (not make_unique) leaves the slack uninitialized instead of
  // zero-filling memory AppendTick overwrites anyway.
  std::unique_ptr<uint32_t[]> sids(new uint32_t[cap]);
  std::unique_ptr<double[]> values(new double[cap]);
  if (changes_ > 0) {
    std::memcpy(sids.get(), change_sids_.get(), changes_ * sizeof(uint32_t));
    std::memcpy(values.get(), change_values_.get(), changes_ * sizeof(double));
  }
  change_sids_ = std::move(sids);
  change_values_ = std::move(values);
  change_capacity_ = cap;
}

uint64_t SeriesLog::sample_count() const {
  uint64_t n = 0;
  for (size_t e = 0; e < epochs_.size(); ++e) {
    n += (EpochEnd(e) - epochs_[e].first_tick) * epochs_[e].sids.size();
  }
  return n;
}

std::vector<SeriesLog::Sample> SeriesLog::Samples(uint32_t sid) const {
  std::vector<Sample> out;
  double v = 0.0;
  uint64_t c = 0;
  for (size_t e = 0; e < epochs_.size(); ++e) {
    const std::vector<uint32_t>& sids = epochs_[e].sids;
    const bool sampled = std::find(sids.begin(), sids.end(), sid) != sids.end();
    for (uint64_t i = epochs_[e].first_tick; i < EpochEnd(e); ++i) {
      for (; c < ticks_[i].change_end; ++c) {
        if (change_sids_[c] == sid) {
          v = change_values_[c];
        }
      }
      if (sampled) {
        out.push_back(Sample{ticks_[i].t, v});
      }
    }
  }
  return out;
}

std::vector<uint32_t> SeriesLog::SidsByName() const {
  std::vector<uint32_t> order(names_.size());
  for (uint32_t sid = 0; sid < order.size(); ++sid) {
    order[sid] = sid;
  }
  std::sort(order.begin(), order.end(),
            [this](uint32_t a, uint32_t b) { return names_[a] < names_[b]; });
  return order;
}

// ---------------------------------------------------------------------------
// JSON helpers
// ---------------------------------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";  // JSON has no NaN/inf
  }
  // Integers that fit exactly render without a fraction — counter values
  // and byte counts stay greppable as plain integers.
  if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    return std::to_string(static_cast<int64_t>(v));
  }
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (ec != std::errc()) {
    return "null";
  }
  return std::string(buf, ptr);
}

namespace {

std::string Quoted(const std::string& s) { return "\"" + JsonEscape(s) + "\""; }

}  // namespace

// ---------------------------------------------------------------------------
// Binary spills (metrics.tfcb, flight.tfct)
// ---------------------------------------------------------------------------

SpillWriter::SpillWriter(const std::string& path) : f_(std::fopen(path.c_str(), "wb")) {}

void SpillWriter::Write(const void* data, size_t n) {
  if (n > 0 && f_ != nullptr && std::fwrite(data, 1, n, f_) != n) {
    ok_ = false;
  }
}

void SpillWriter::WriteNames(const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    Write(static_cast<uint32_t>(name.size()));
    Write(name.data(), name.size());
  }
}

bool SpillWriter::Close() {
  if (f_ == nullptr) {
    return false;
  }
  ok_ = std::fclose(f_) == 0 && ok_;
  f_ = nullptr;
  return ok_;
}

SpillReader::SpillReader(const std::string& path) : f_(std::fopen(path.c_str(), "rb")) {
  if (f_ != nullptr && std::fseek(f_, 0, SEEK_END) == 0) {
    const long end = std::ftell(f_);
    if (end > 0 && std::fseek(f_, 0, SEEK_SET) == 0) {
      left_ = static_cast<uint64_t>(end);
    }
  }
}

SpillReader::~SpillReader() {
  if (f_ != nullptr) {
    std::fclose(f_);
  }
}

bool SpillReader::Read(void* dst, size_t n) {
  if (n > left_) {
    return false;
  }
  if (n > 0 && std::fread(dst, 1, n, f_) != n) {
    left_ = 0;  // a short read (I/O error, or the file shrank): stop here
    return false;
  }
  left_ -= n;
  return true;
}

bool SpillReader::ReadName(std::string* name) {
  uint32_t len = 0;
  if (!Read(&len) || len > left_) {
    return false;
  }
  name->resize(len);
  return Read(name->data(), len);
}

namespace {

struct TfcbHeader {
  char magic[4] = {'T', 'F', 'C', 'B'};
  uint32_t version = 2;
  uint32_t series_count = 0;
  uint32_t epoch_count = 0;
  uint64_t tick_count = 0;
  uint64_t change_count = 0;
};
static_assert(sizeof(TfcbHeader) == kTfcbHeaderBytes && offsetof(TfcbHeader, epoch_count) == 12 &&
              offsetof(TfcbHeader, tick_count) == 16 &&
              offsetof(TfcbHeader, change_count) == 24);

}  // namespace

// The tick array is written as it lies: {i64 t_ns, u64 change_end}.
static_assert(sizeof(SeriesLog::Tick) == 16 && offsetof(SeriesLog::Tick, change_end) == 8 &&
              std::is_trivially_copyable_v<SeriesLog::Tick>);

bool SeriesLog::Write(const std::string& path, std::string* error) const {
  std::string local_error;
  if (error == nullptr) {
    error = &local_error;
  }
  SpillWriter out(path);
  if (!out.opened()) {
    *error = "cannot open " + path;
    return false;
  }
  TfcbHeader header;
  header.series_count = static_cast<uint32_t>(names_.size());
  header.epoch_count = static_cast<uint32_t>(epochs_.size());
  header.tick_count = ticks_.size();
  header.change_count = changes_;
  out.Write(header);
  out.WriteNames(names_);
  for (const Epoch& epoch : epochs_) {
    out.Write(epoch.first_tick);
    out.Write(static_cast<uint32_t>(epoch.sids.size()));
    out.Write(epoch.sids.data(), epoch.sids.size() * sizeof(uint32_t));
  }
  out.Write(ticks_.data(), ticks_.size() * sizeof(Tick));
  out.Write(change_sids_.get(), changes_ * sizeof(uint32_t));
  out.Write(change_values_.get(), changes_ * sizeof(double));
  if (!out.Close()) {
    *error = "write failed: " + path;
    return false;
  }
  return true;
}

bool SeriesLog::Load(const std::string& path, std::string* error) {
  std::string local_error;
  if (error == nullptr) {
    error = &local_error;
  }
  SpillReader in(path);
  if (!in.opened()) {
    *error = "cannot open " + path;
    return false;
  }
  const auto fail = [&path, error](const std::string& why) {
    *error = path + ": " + why;
    return false;
  };
  const TfcbHeader want;
  TfcbHeader h;
  if (!in.Read(&h)) {
    return fail("truncated header");
  }
  if (std::memcmp(h.magic, want.magic, sizeof h.magic) != 0) {
    return fail("not a TFCB file (bad magic)");
  }
  if (h.version != want.version) {
    return fail("unsupported TFCB version " + std::to_string(h.version));
  }
  const uint32_t series_count = h.series_count;
  const uint32_t epoch_count = h.epoch_count;
  const uint64_t tick_count = h.tick_count;
  const uint64_t change_count = h.change_count;

  // Every count is checked against the bytes left before anything is sized
  // by it, so a corrupt count fails instead of allocating.
  SeriesLog log;
  for (uint32_t i = 0; i < series_count; ++i) {
    std::string name;
    if (!in.ReadName(&name)) {
      return fail("truncated name table");
    }
    if (name.empty()) {
      return fail("series " + std::to_string(i) + " has an empty name");
    }
    log.names_.push_back(std::move(name));
  }
  const std::vector<uint32_t> by_name = log.SidsByName();
  for (size_t i = 1; i < by_name.size(); ++i) {
    if (log.names_[by_name[i - 1]] == log.names_[by_name[i]]) {
      return fail("duplicate series name " + log.names_[by_name[i]]);
    }
  }

  // in_epoch[sid] == e + 1 while reading epoch e.
  std::vector<uint64_t> in_epoch(series_count, 0);
  for (uint32_t e = 0; e < epoch_count; ++e) {
    uint64_t first = 0;
    uint32_t width = 0;
    if (!in.Read(&first) || !in.Read(&width) || width > in.left() / sizeof(uint32_t)) {
      return fail("truncated epoch table");
    }
    if (first >= tick_count ||
        (e == 0 ? first != 0 : first <= log.epochs_.back().first_tick)) {
      return fail("epoch " + std::to_string(e) + " starts at tick " + std::to_string(first) +
                  " of " + std::to_string(tick_count));
    }
    Epoch epoch{first, std::vector<uint32_t>(width)};
    if (!in.Read(epoch.sids.data(), width * sizeof(uint32_t))) {
      return fail("truncated epoch table");
    }
    for (const uint32_t sid : epoch.sids) {
      if (sid >= series_count || in_epoch[sid] == e + 1) {
        return fail("epoch " + std::to_string(e) + " samples series " + std::to_string(sid) +
                    (sid >= series_count ? " of " + std::to_string(series_count) : " twice"));
      }
      in_epoch[sid] = e + 1;
    }
    log.epochs_.push_back(std::move(epoch));
  }
  if (tick_count > 0 && epoch_count == 0) {
    return fail("ticks without an epoch");
  }

  const uint64_t rest = in.left();
  constexpr size_t kChangeBytes = sizeof(uint32_t) + sizeof(double);
  if (tick_count > rest / sizeof(Tick) ||
      change_count != (rest - tick_count * sizeof(Tick)) / kChangeBytes ||
      rest != tick_count * sizeof(Tick) + change_count * kChangeBytes) {
    return fail("log sections are " + std::to_string(rest) + " bytes, header promises " +
                std::to_string(tick_count) + " ticks and " + std::to_string(change_count) +
                " changes");
  }
  log.ticks_.resize(tick_count);
  log.change_sids_.reset(new uint32_t[change_count]);
  log.change_values_.reset(new double[change_count]);
  log.changes_ = log.change_capacity_ = change_count;
  if (!in.Read(log.ticks_.data(), tick_count * sizeof(Tick)) ||
      !in.Read(log.change_sids_.get(), change_count * sizeof(uint32_t)) ||
      !in.Read(log.change_values_.get(), change_count * sizeof(double))) {
    return fail("read failed");
  }

  // Ticks run forward in time, and their change ranges tile the changes.
  uint64_t begin = 0;
  for (uint64_t i = 0; i < tick_count; ++i) {
    const Tick& tick = log.ticks_[i];
    if (i > 0 && tick.t < log.ticks_[i - 1].t) {
      return fail("tick " + std::to_string(i) + " goes back in time");
    }
    if (tick.change_end < begin || tick.change_end > change_count) {
      return fail("tick " + std::to_string(i) + " ends its changes at " +
                  std::to_string(tick.change_end));
    }
    begin = tick.change_end;
  }
  if (begin != change_count) {
    return fail(std::to_string(change_count) + " changes, but the last tick ends at " +
                std::to_string(begin));
  }

  // Every stored value belongs to a series its tick samples, and every
  // series has a value by the first tick that samples it.
  std::fill(in_epoch.begin(), in_epoch.end(), 0);
  std::vector<bool> has_value(series_count, false);
  uint64_t c = 0;
  for (size_t e = 0; e < log.epochs_.size(); ++e) {
    const Epoch& epoch = log.epochs_[e];
    for (uint32_t sid : epoch.sids) {
      in_epoch[sid] = e + 1;
    }
    for (uint64_t i = epoch.first_tick; i < log.EpochEnd(e); ++i) {
      for (; c < log.ticks_[i].change_end; ++c) {
        const uint32_t sid = log.change_sids_[c];
        if (sid >= series_count || in_epoch[sid] != e + 1) {
          return fail("change " + std::to_string(c) + " stores series " + std::to_string(sid) +
                      ", which tick " + std::to_string(i) + " does not sample");
        }
        has_value[sid] = true;
      }
      if (i > epoch.first_tick) {
        continue;
      }
      for (uint32_t sid : epoch.sids) {
        if (!has_value[sid]) {
          return fail("series " + log.names_[sid] + " is sampled at tick " + std::to_string(i) +
                      " before it has a value");
        }
      }
    }
  }
  *this = std::move(log);
  return true;
}

// ---------------------------------------------------------------------------
// RunManifest
// ---------------------------------------------------------------------------

void RunManifest::SetLiteral(const std::string& key, std::string json) {
  for (auto& [k, v] : entries_) {
    if (k == key) {
      v = std::move(json);
      return;
    }
  }
  entries_.emplace_back(key, std::move(json));
}

void RunManifest::Set(const std::string& key, const std::string& value) {
  SetLiteral(key, Quoted(value));
}

void RunManifest::SetInt(const std::string& key, int64_t value) {
  SetLiteral(key, std::to_string(value));
}

void RunManifest::SetDouble(const std::string& key, double value) {
  SetLiteral(key, JsonNumber(value));
}

void RunManifest::SetBool(const std::string& key, bool value) {
  SetLiteral(key, value ? "true" : "false");
}

// ---------------------------------------------------------------------------
// Exporter
// ---------------------------------------------------------------------------

namespace {

std::string RunGitDescribe() {
  std::string out = "unknown";
  FILE* pipe = ::popen("git describe --always --dirty 2>/dev/null", "r");
  if (pipe != nullptr) {
    std::string text;
    char buf[256];
    while (std::fgets(buf, sizeof buf, pipe) != nullptr) {
      text += buf;
    }
    const int rc = ::pclose(pipe);
    while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
      text.pop_back();
    }
    if (rc == 0 && !text.empty()) {
      out = std::move(text);
    }
  }
  return out;
}

// The one process-wide cache in the telemetry layer. Networks driven from
// several threads export manifests concurrently, so it is explicitly guarded
// and annotated rather than left as a magic static hiding a popen() — the
// subprocess spawn runs exactly once, under the lock, and the returned
// reference is immutable afterwards (annotation-checked under clang,
// TSan-checked under the tsan preset).
Mutex g_git_describe_mu;
std::string* g_git_describe TFC_GUARDED_BY(g_git_describe_mu) = nullptr;

}  // namespace

const std::string& GitDescribe() {
  MutexLock lock(&g_git_describe_mu);
  if (g_git_describe == nullptr) {
    g_git_describe = new std::string(RunGitDescribe());  // leaked by design
  }
  return *g_git_describe;
}

namespace {

// The run directory's one schema version: manifest.json and summary.json
// share it (tools/telemetry_schema.py checks both).
constexpr int kRunSchemaVersion = 3;

bool WriteManifest(const std::string& path, const RunManifest& manifest,
                   std::string* error) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    *error = "cannot open " + path;
    return false;
  }
  const std::time_t now = std::time(nullptr);
  char utc[32] = "unknown";
  std::tm tm_utc{};
  if (gmtime_r(&now, &tm_utc) != nullptr) {
    std::strftime(utc, sizeof utc, "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  }
  f << "{\n";
  f << "  \"schema_version\": " << kRunSchemaVersion << ",\n";
  f << "  \"git_describe\": " << Quoted(GitDescribe()) << ",\n";
  f << "  \"created_unix\": " << static_cast<int64_t>(now) << ",\n";
  f << "  \"created_utc\": " << Quoted(utc) << ",\n";
  f << "  \"run\": {";
  bool first = true;
  for (const auto& [key, json] : manifest.entries()) {
    f << (first ? "\n" : ",\n") << "    " << Quoted(key) << ": " << json;
    first = false;
  }
  f << (first ? "}" : "\n  }") << "\n}\n";
  f.flush();
  if (!f) {
    *error = "write failed: " + path;
    return false;
  }
  return true;
}

bool WriteMetricsTfcb(const std::string& path, const TimeSeriesRecorder* recorder,
                      std::string* error) {
  if (recorder == nullptr) {
    return SeriesLog().Write(path, error);  // header only
  }
  return recorder->log().Write(path, error);
}

bool WriteSummary(const std::string& path, MetricRegistry& metrics,
                  const Profiler* profiler, std::string* error) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    *error = "cannot open " + path;
    return false;
  }
  f << "{\n  \"schema_version\": " << kRunSchemaVersion << ",\n";

  f << "  \"gauges\": {";
  bool first = true;
  metrics.ForEachRead([&](const std::string& name, MetricRegistry::CompiledRead read) {
    f << (first ? "\n" : ",\n") << "    " << Quoted(name) << ": "
      << JsonNumber(read.fn(read.obj));
    first = false;
  });
  f << (first ? "}," : "\n  },") << "\n";

  f << "  \"profile\": {";
  first = true;
  if (profiler != nullptr) {
    profiler->ForEachSite([&](const ProfileSite& site) {
      f << (first ? "\n" : ",\n") << "    " << Quoted(site.name()) << ": {\"hits\": "
        << site.hits() << ", \"sim_ns\": " << site.sim_ns() << ", \"wall_ns\": "
        << site.wall_ns() << "}";
      first = false;
    });
  }
  f << (first ? "}" : "\n  }") << "\n}\n";

  f.flush();
  if (!f) {
    *error = "write failed: " + path;
    return false;
  }
  return true;
}

}  // namespace

bool WriteRunDirectory(const std::string& dir, const RunManifest& manifest,
                       MetricRegistry& metrics, const TimeSeriesRecorder* recorder,
                       const Profiler* profiler, std::string* error) {
  std::string local_error;
  if (error == nullptr) {
    error = &local_error;
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    *error = "create_directories(" + dir + "): " + ec.message();
    return false;
  }
  return WriteManifest(dir + "/manifest.json", manifest, error) &&
         WriteMetricsTfcb(dir + "/metrics.tfcb", recorder, error) &&
         WriteSummary(dir + "/summary.json", metrics, profiler, error);
}

}  // namespace tfc

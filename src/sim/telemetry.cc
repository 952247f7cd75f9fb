#include "src/sim/telemetry.h"

// The exporter is the one sanctioned I/O path out of the hot layers: it
// runs after (or between) simulation phases, never per event.
// lint:allow hot-io

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <system_error>

#include "src/sim/audit.h"
#include "src/sim/profile.h"
#include "src/sim/thread_annotations.h"

namespace tfc {

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kCallbackGauge:
      return "callback_gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

uint64_t Histogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  p = std::clamp(p, 0.0, 100.0);
  // Nearest-rank over buckets: the first bucket whose cumulative count
  // reaches ceil(p% of n) holds the percentile sample.
  const uint64_t target =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(count_))));
  uint64_t cum = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    cum += buckets_[static_cast<size_t>(b)];
    if (cum >= target) {
      const uint64_t ub = BucketUpperBound(b);
      const uint64_t largest_in_bucket = ub == 0 ? max_ : ub - 1;
      return std::min(largest_in_bucket, max_);
    }
  }
  return max_;
}

// ---------------------------------------------------------------------------
// MetricRegistry
// ---------------------------------------------------------------------------

MetricRegistry::Entry::~Entry() { delete hist; }

MetricRegistry::Entry& MetricRegistry::Insert(std::string name, MetricKind kind,
                                              uint64_t owner, bool replace) {
  TFC_CHECK_MSG(!name.empty(), "metric names must be non-empty");
  auto [it, inserted] = entries_.try_emplace(std::move(name));
  if (!inserted) {
    TFC_CHECK_MSG(replace, "duplicate metric name: " << it->first);
    // Re-claim: drop the displaced entry (std::map node stability keeps
    // every other metric pointer valid) and rebuild it fresh.
    ReleaseId(it->second);
    std::string key = it->first;
    entries_.erase(it);
    it = entries_.try_emplace(std::move(key)).first;
  }
  it->second.kind = kind;
  it->second.owner = owner;
  AssignId(it->second);
  return it->second;
}

void MetricRegistry::AssignId(Entry& e) {
  if (!free_ids_.empty()) {
    e.id = free_ids_.back();
    free_ids_.pop_back();
    by_id_[e.id] = &e;
  } else {
    e.id = static_cast<MetricId>(by_id_.size());
    by_id_.push_back(&e);
  }
  ++generation_;
}

void MetricRegistry::ReleaseId(Entry& e) {
  if (e.id != kInvalidMetricId) {
    by_id_[e.id] = nullptr;
    free_ids_.push_back(e.id);
    e.id = kInvalidMetricId;
  }
  ++generation_;
}

MetricId MetricRegistry::IdOf(const std::string& name) const {
  auto it = entries_.find(name);
  return it != entries_.end() ? it->second.id : kInvalidMetricId;
}

MetricKind MetricRegistry::KindOfId(MetricId id) const {
  TFC_CHECK(id < by_id_.size() && by_id_[id] != nullptr);
  return by_id_[id]->kind;
}

Counter* MetricRegistry::AddCounter(std::string name) {
  return &Insert(std::move(name), MetricKind::kCounter, /*owner=*/0, /*replace=*/false)
              .counter;
}

Gauge* MetricRegistry::AddGauge(std::string name) {
  return &Insert(std::move(name), MetricKind::kGauge, /*owner=*/0, /*replace=*/false)
              .gauge;
}

void MetricRegistry::AddCallbackGauge(std::string name, GaugeFn fn) {
  Insert(std::move(name), MetricKind::kCallbackGauge, /*owner=*/0, /*replace=*/false)
      .fn = std::move(fn);
}

Histogram* MetricRegistry::AddHistogram(std::string name) {
  Entry& e = Insert(std::move(name), MetricKind::kHistogram, /*owner=*/0,
                    /*replace=*/false);
  e.hist = new Histogram();
  return e.hist;
}

void MetricRegistry::Unregister(const std::string& name) {
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    ReleaseId(it->second);
    entries_.erase(it);
  }
}

void MetricRegistry::UnregisterOwned(const std::string& name, uint64_t token) {
  auto it = entries_.find(name);
  if (it != entries_.end() && it->second.owner == token) {
    ReleaseId(it->second);
    entries_.erase(it);
  }
}

bool MetricRegistry::Read(const std::string& name, double* out) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return false;
  }
  Entry& e = it->second;
  switch (e.kind) {
    case MetricKind::kCounter:
      *out = static_cast<double>(e.counter.value());
      return true;
    case MetricKind::kGauge:
      *out = e.gauge.value();
      return true;
    case MetricKind::kCallbackGauge:
      *out = e.fn();
      return true;
    case MetricKind::kHistogram:
      return false;
  }
  return false;
}

const Histogram* MetricRegistry::FindHistogram(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.kind != MetricKind::kHistogram) {
    return nullptr;
  }
  return it->second.hist;
}

const Histogram* MetricRegistry::FindHistogram(MetricId id) const {
  if (id >= by_id_.size() || by_id_[id] == nullptr ||
      by_id_[id]->kind != MetricKind::kHistogram) {
    return nullptr;
  }
  return by_id_[id]->hist;
}

void MetricRegistry::AuditInvariants(Auditor& audit) {
  for (auto& [name, entry] : entries_) {
    if (entry.kind != MetricKind::kCounter) {
      continue;
    }
    const bool ok = entry.counter.value() >= entry.last_audited;
    audit.Check(ok, "counter monotone between audit passes",
                ok ? std::string{}
                   : name + " went " + std::to_string(entry.last_audited) +
                         " -> " + std::to_string(entry.counter.value()));
    entry.last_audited = entry.counter.value();
  }
}

// ---------------------------------------------------------------------------
// ScopedMetrics
// ---------------------------------------------------------------------------

Counter* ScopedMetrics::AddCounter(std::string name) {
  TFC_CHECK(registry_ != nullptr);
  names_.push_back(name);
  return &registry_->Insert(std::move(name), MetricKind::kCounter, token_, replace_)
              .counter;
}

Gauge* ScopedMetrics::AddGauge(std::string name) {
  TFC_CHECK(registry_ != nullptr);
  names_.push_back(name);
  return &registry_->Insert(std::move(name), MetricKind::kGauge, token_, replace_)
              .gauge;
}

void ScopedMetrics::AddCallbackGauge(std::string name, MetricRegistry::GaugeFn fn) {
  TFC_CHECK(registry_ != nullptr);
  names_.push_back(name);
  registry_->Insert(std::move(name), MetricKind::kCallbackGauge, token_, replace_).fn =
      std::move(fn);
}

Histogram* ScopedMetrics::AddHistogram(std::string name) {
  TFC_CHECK(registry_ != nullptr);
  names_.push_back(name);
  MetricRegistry::Entry& e =
      registry_->Insert(std::move(name), MetricKind::kHistogram, token_, replace_);
  e.hist = new Histogram();
  return e.hist;
}

void ScopedMetrics::Clear() {
  if (registry_ != nullptr) {
    for (const std::string& name : names_) {
      registry_->UnregisterOwned(name, token_);
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
  if (log_v_cap_ == 0) {
    // One large reservation up front: growing the value log by doubling
    // measurably dominates recording cost (allocator churn + copy), and
    // reserved-but-untouched pages are free.
    GrowLogV(1u << 19);
  }
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
// tick): resolves watches and prefixes to (id, series) pairs in the exact
// order the pre-plan Tick sampled them — exact watches in insertion order,
// then prefix matches in registry name order minus the exact names — so
// stateful callback gauges see an identical read sequence.
void TimeSeriesRecorder::RebuildPlan() {
  ++plan_rebuilds_;
  plan_reads_.clear();
  plan_sids_.clear();
  for (const std::string& name : watches_) {
    const MetricId id = registry_->IdOf(name);
    if (id == kInvalidMetricId ||
        registry_->KindOfId(id) == MetricKind::kHistogram) {
      // A watched metric that has disappeared (component destroyed mid-run)
      // silently stops extending its series; distributions export via
      // summary.json, not as series.
      continue;
    }
    AddPlanEntry(name, id);
  }
  if (!prefixes_.empty()) {
    registry_->ForEachMetric(
        [this](const std::string& name, MetricKind kind, MetricId id) {
          if (kind == MetricKind::kHistogram) {
            return;
          }
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
          AddPlanEntry(name, id);
        });
  }
  plan_generation_ = registry_->generation();
  epoch_dirty_ = true;
}

void TimeSeriesRecorder::AddPlanEntry(const std::string& name, MetricId id) {
  std::vector<Sample>& samples = series_[name];
  MetricRegistry::CompiledRead read;
  if (!registry_->CompileReadId(id, &read)) {
    // Defensive (the callers exclude histograms and dead ids): the series
    // exists but never extends, exactly as an unreadable metric behaved.
    return;
  }
  // Series ids persist for the recorder's lifetime (sid_by_name_ never
  // shrinks), so flat-log records written under older plans stay valid.
  auto [it, inserted] =
      sid_by_name_.try_emplace(name, static_cast<uint32_t>(series_by_sid_.size()));
  if (inserted) {
    series_by_sid_.push_back(&samples);
  }
  plan_reads_.push_back(read);
  plan_sids_.push_back(it->second);
}

void TimeSeriesRecorder::Tick() {
  if (!running_) {
    return;
  }
  ++ticks_;
  if (replan_every_tick_ || plan_generation_ != registry_->generation()) {
    RebuildPlan();
  }
  // Append values to one contiguous stream instead of hundreds of
  // scattered series tails; readers demux lazily (MaterializeLog). The sid
  // each value belongs to is implied by its plan position — the sid order
  // is snapshotted once per plan epoch — so the per-sample record on the
  // hot path is just the 8-byte value.
  if (epoch_dirty_) {
    log_epochs_.push_back(LogEpoch{plan_sids_, 0});
    epoch_dirty_ = false;
  }
  // Write through a raw cursor: reads can run arbitrary callback-gauge
  // code, so everything the loop needs lives in locals the compiler can
  // keep in registers instead of vector internals it must reload.
  const size_t n = plan_reads_.size();
  if (log_v_cap_ - log_v_size_ < n) {
    GrowLogV(n);
  }
  double* out = log_v_.get() + log_v_size_;
  const MetricRegistry::CompiledRead* reads = plan_reads_.data();
  for (size_t pos = 0; pos < n; ++pos) {
    out[pos] = reads[pos].fn(reads[pos].obj);
  }
  log_v_size_ += n;
  log_t_.push_back(scheduler_->now());
  ++log_epochs_.back().ticks;
  tick_event_ = scheduler_->ScheduleDaemonAfter(period_, [this] { Tick(); });
}

void TimeSeriesRecorder::MaterializeLog() const {
  if (log_t_.empty()) {
    return;
  }
  // Per-series sample counts fall out of the epoch snapshots (ticks x
  // planned sids) without scanning the value stream; each series then grows
  // exactly once, and a raw write cursor per sid replaces push_back so the
  // single demux pass never touches the scattered vector headers.
  std::vector<size_t> counts(series_by_sid_.size(), 0);
  for (const LogEpoch& e : log_epochs_) {
    for (uint32_t sid : e.sids) {
      counts[sid] += e.ticks;
    }
  }
  std::vector<Sample*> cur(series_by_sid_.size(), nullptr);
  for (size_t sid = 0; sid < counts.size(); ++sid) {
    if (counts[sid] > 0) {
      std::vector<Sample>& samples = *series_by_sid_[sid];
      const size_t old = samples.size();
      samples.resize(old + counts[sid]);
      cur[sid] = samples.data() + old;
    }
  }
  // The log is tick-major but each series is stored contiguously, so the
  // demux is a transpose. Do it in tiles of kTileTicks ticks with a series-major
  // inner loop: each series receives its tile chunk as one sequential
  // burst (long store runs amortize cache-line and page costs), while the
  // tile's value rows are small enough to stay cache-resident across the
  // per-series strided reads. Ticks are chronological, so tile after tile
  // keeps every series oldest-first.
  constexpr size_t kTileTicks = 64;
  Sample** const curp = cur.data();
  const double* v = log_v_.get();
  const TimeNs* tt = log_t_.data();
  for (const LogEpoch& e : log_epochs_) {
    const uint32_t* const sids = e.sids.data();
    const size_t width = e.sids.size();
    for (uint64_t done = 0; done < e.ticks; done += kTileTicks) {
      const size_t tile =
          static_cast<size_t>(std::min<uint64_t>(kTileTicks, e.ticks - done));
      for (size_t pos = 0; pos < width; ++pos) {
        Sample* s = curp[sids[pos]];
        const double* vp = v + pos;
        for (size_t k = 0; k < tile; ++k, vp += width) {
          s[k] = Sample{tt[k], *vp};
        }
        curp[sids[pos]] = s + tile;
      }
      v += tile * width;
      tt += tile;
    }
  }
  log_v_size_ = 0;  // capacity is kept; the next run reuses the buffer
  log_t_.clear();
  log_epochs_.clear();
  epoch_dirty_ = true;  // the next tick must re-snapshot its sid order
}

void TimeSeriesRecorder::GrowLogV(size_t need) const {
  const size_t want = log_v_size_ + need;
  size_t cap = log_v_cap_ < 4096 ? 4096 : log_v_cap_;
  while (cap < want) {
    cap *= 2;
  }
  // new double[cap] (not make_unique) keeps the slack default-initialized
  // instead of zero-filling memory the ticks will overwrite anyway.
  std::unique_ptr<double[]> buf(new double[cap]);
  if (log_v_size_ > 0) {
    std::memcpy(buf.get(), log_v_.get(), log_v_size_ * sizeof(double));
  }
  log_v_ = std::move(buf);
  log_v_cap_ = cap;
}

std::vector<TimeSeriesRecorder::Sample> TimeSeriesRecorder::Series(
    const std::string& name) const {
  MaterializeLog();
  auto it = series_.find(name);
  if (it == series_.end()) {
    return {};
  }
  return it->second;
}

std::vector<std::string> TimeSeriesRecorder::SeriesNames() const {
  MaterializeLog();
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& [name, samples] : series_) {
    names.push_back(name);
  }
  return names;
}

size_t TimeSeriesRecorder::total_samples() const {
  MaterializeLog();
  size_t n = 0;
  for (const auto& [name, samples] : series_) {
    n += samples.size();
  }
  return n;
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
// Binary spill (metrics.tfcb)
// ---------------------------------------------------------------------------

namespace {

// Fixed little-endian packing, independent of host byte order.
void PutU32(std::vector<unsigned char>& buf, uint32_t v) {
  buf.push_back(static_cast<unsigned char>(v));
  buf.push_back(static_cast<unsigned char>(v >> 8));
  buf.push_back(static_cast<unsigned char>(v >> 16));
  buf.push_back(static_cast<unsigned char>(v >> 24));
}

void PutU64(std::vector<unsigned char>& buf, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf.push_back(static_cast<unsigned char>(v >> (8 * i)));
  }
}

bool GetU32(const std::string& d, size_t& off, uint32_t* out) {
  if (off + 4 > d.size()) {
    return false;
  }
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(d[off + static_cast<size_t>(i)]);
  }
  *out = v;
  off += 4;
  return true;
}

bool GetU64(const std::string& d, size_t& off, uint64_t* out) {
  if (off + 8 > d.size()) {
    return false;
  }
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(d[off + static_cast<size_t>(i)]);
  }
  *out = v;
  off += 8;
  return true;
}

}  // namespace

bool SpillWriter::Open(const std::string& path, uint32_t series_count,
                       uint64_t record_count) {
  Close();
  ok_ = true;
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    ok_ = false;
    return false;
  }
  buf_.clear();
  for (const char c : kTfcbMagic) {
    buf_.push_back(static_cast<unsigned char>(c));
  }
  PutU32(buf_, kTfcbVersion);
  PutU32(buf_, series_count);
  PutU64(buf_, record_count);
  return true;
}

void SpillWriter::AppendName(const std::string& name) {
  if (buf_.size() + 4 + name.size() > kBufferBytes) {
    Flush();
  }
  PutU32(buf_, static_cast<uint32_t>(name.size()));
  buf_.insert(buf_.end(), name.begin(), name.end());
}

void SpillWriter::AppendRecord(uint32_t series_id, TimeNs t_ns, double v) {
  if (buf_.size() + kRecordBytes > kBufferBytes) {
    Flush();
  }
  PutU32(buf_, series_id);
  PutU64(buf_, static_cast<uint64_t>(t_ns.count()));
  PutU64(buf_, std::bit_cast<uint64_t>(v));
}

void SpillWriter::Flush() {
  if (file_ != nullptr && !buf_.empty()) {
    if (std::fwrite(buf_.data(), 1, buf_.size(), file_) != buf_.size()) {
      ok_ = false;
    }
  }
  buf_.clear();
}

bool SpillWriter::Close() {
  if (file_ == nullptr) {
    return ok_;
  }
  Flush();
  if (std::fclose(file_) != 0) {
    ok_ = false;
  }
  file_ = nullptr;
  return ok_;
}

bool ConvertMetricsTfcbToJsonl(const std::string& tfcb_path,
                               const std::string& jsonl_path,
                               std::string* error) {
  std::string local_error;
  if (error == nullptr) {
    error = &local_error;
  }
  std::ifstream in(tfcb_path, std::ios::binary);
  if (!in) {
    *error = "cannot open " + tfcb_path;
    return false;
  }
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();

  size_t off = 0;
  if (data.size() < 20 ||
      data.compare(0, sizeof kTfcbMagic, kTfcbMagic, sizeof kTfcbMagic) != 0) {
    *error = tfcb_path + ": not a TFCB file (bad magic)";
    return false;
  }
  off = sizeof kTfcbMagic;
  uint32_t version = 0;
  uint32_t series_count = 0;
  uint64_t record_count = 0;
  GetU32(data, off, &version);
  GetU32(data, off, &series_count);
  GetU64(data, off, &record_count);
  if (version != kTfcbVersion) {
    *error = tfcb_path + ": unsupported TFCB version " + std::to_string(version);
    return false;
  }

  // Name table; a name's position is its series_id. Pre-quote once so the
  // record loop only concatenates.
  std::vector<std::string> quoted_names;
  quoted_names.reserve(series_count);
  for (uint32_t i = 0; i < series_count; ++i) {
    uint32_t len = 0;
    if (!GetU32(data, off, &len) || off + len > data.size()) {
      *error = tfcb_path + ": truncated name table";
      return false;
    }
    quoted_names.push_back(Quoted(data.substr(off, len)));
    off += len;
  }

  if (data.size() - off != record_count * SpillWriter::kRecordBytes) {
    *error = tfcb_path + ": record section is " +
             std::to_string(data.size() - off) + " bytes, header promises " +
             std::to_string(record_count * SpillWriter::kRecordBytes);
    return false;
  }

  std::ofstream out(jsonl_path, std::ios::trunc);
  if (!out) {
    *error = "cannot open " + jsonl_path;
    return false;
  }
  for (uint64_t i = 0; i < record_count; ++i) {
    uint32_t series_id = 0;
    uint64_t t_bits = 0;
    uint64_t v_bits = 0;
    GetU32(data, off, &series_id);
    GetU64(data, off, &t_bits);
    GetU64(data, off, &v_bits);
    if (series_id >= series_count) {
      *error = tfcb_path + ": record " + std::to_string(i) +
               " names out-of-range series " + std::to_string(series_id);
      return false;
    }
    // Byte-compatible with the legacy exporter line:
    //   {"t_ns": T, "name": "...", "v": V}
    out << "{\"t_ns\": " << static_cast<int64_t>(t_bits)
        << ", \"name\": " << quoted_names[series_id]
        << ", \"v\": " << JsonNumber(std::bit_cast<double>(v_bits)) << "}\n";
  }
  out.flush();
  if (!out) {
    *error = "write failed: " + jsonl_path;
    return false;
  }
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
  // v2: metrics.tfcb (binary spill) replaced metrics.jsonl as the recorded
  // format; everything else is unchanged.
  f << "  \"schema_version\": 2,\n";
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
  SpillWriter w;
  const uint32_t series_count =
      recorder != nullptr ? static_cast<uint32_t>(recorder->series_count()) : 0;
  const uint64_t record_count =
      recorder != nullptr ? recorder->total_samples() : 0;
  if (!w.Open(path, series_count, record_count)) {
    *error = "cannot open " + path;
    return false;
  }
  if (recorder != nullptr) {
    // SeriesNames() and ForEachSeries both walk the series map in name
    // order, so a series' position in the name table is its series_id.
    for (const std::string& name : recorder->SeriesNames()) {
      w.AppendName(name);
    }
    uint32_t series_id = 0;
    recorder->ForEachSeries(
        [&w, &series_id](const std::string&,
                         const std::vector<TimeSeriesRecorder::Sample>& samples) {
          for (const TimeSeriesRecorder::Sample& s : samples) {
            w.AppendRecord(series_id, s.t, s.v);
          }
          ++series_id;
        });
  }
  if (!w.Close()) {
    *error = "write failed: " + path;
    return false;
  }
  return true;
}

void WriteHistogramJson(std::ofstream& f, const Histogram& h, const char* indent) {
  f << "{\n";
  f << indent << "  \"count\": " << h.count() << ",\n";
  f << indent << "  \"sum\": " << h.sum() << ",\n";
  f << indent << "  \"min\": " << h.min() << ",\n";
  f << indent << "  \"max\": " << h.max() << ",\n";
  f << indent << "  \"mean\": " << JsonNumber(h.mean()) << ",\n";
  f << indent << "  \"p50\": " << h.Percentile(50) << ",\n";
  f << indent << "  \"p90\": " << h.Percentile(90) << ",\n";
  f << indent << "  \"p99\": " << h.Percentile(99) << ",\n";
  f << indent << "  \"p999\": " << h.Percentile(99.9) << ",\n";
  f << indent << "  \"buckets\": [";
  bool first = true;
  for (int b = 0; b < Histogram::kNumBuckets; ++b) {
    const uint64_t n = h.bucket_count(b);
    if (n == 0) {
      continue;  // sparse export: all-zero buckets dominate and carry nothing
    }
    f << (first ? "" : ", ") << "[" << Histogram::BucketLowerBound(b) << ", "
      << Histogram::BucketUpperBound(b) << ", " << n << "]";
    first = false;
  }
  f << "]\n" << indent << "}";
}

bool WriteSummary(const std::string& path, MetricRegistry& metrics,
                  const Profiler* profiler, std::string* error) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    *error = "cannot open " + path;
    return false;
  }
  f << "{\n  \"schema_version\": 2,\n";

  f << "  \"counters\": {";
  bool first = true;
  metrics.ForEachName([&](const std::string& name, MetricKind kind) {
    if (kind != MetricKind::kCounter) {
      return;
    }
    double v = 0.0;
    metrics.Read(name, &v);
    f << (first ? "\n" : ",\n") << "    " << Quoted(name) << ": " << JsonNumber(v);
    first = false;
  });
  f << (first ? "}," : "\n  },") << "\n";

  f << "  \"gauges\": {";
  first = true;
  metrics.ForEachName([&](const std::string& name, MetricKind kind) {
    if (kind != MetricKind::kGauge && kind != MetricKind::kCallbackGauge) {
      return;
    }
    double v = 0.0;
    metrics.Read(name, &v);
    f << (first ? "\n" : ",\n") << "    " << Quoted(name) << ": " << JsonNumber(v);
    first = false;
  });
  f << (first ? "}," : "\n  },") << "\n";

  f << "  \"histograms\": {";
  first = true;
  metrics.ForEachName([&](const std::string& name, MetricKind kind) {
    if (kind != MetricKind::kHistogram) {
      return;
    }
    const Histogram* h = metrics.FindHistogram(name);
    f << (first ? "\n" : ",\n") << "    " << Quoted(name) << ": ";
    WriteHistogramJson(f, *h, "    ");
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

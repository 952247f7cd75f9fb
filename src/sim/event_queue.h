// Two-tier event queue: a calendar ring for the near future in front of an
// indexed heap for the far future.
//
// Nearly every simulator event is a packet event due a few microseconds
// ahead (serialization, propagation, host processing), while the queue's
// depth comes mostly from retransmission timers armed hundreds of
// milliseconds ahead, re-armed on every ACK and almost never fired. A single
// heap makes every packet event pay O(log n) over all those timers. Here:
//
//   - the *ring* is a calendar queue (R. Brown, "Calendar queues", CACM
//     31(10), 1988): kRingBuckets buckets of kBucketWidth ns each, covering
//     the span [base, base + kRingSpan) where base is the bucket of the last
//     pop. Each bucket is a key-sorted doubly linked list; a
//     two-level bitmap finds the first non-empty bucket in O(1). Push appends
//     at a bucket's tail (walking back at most kWalkCap nodes), Remove
//     unlinks in O(1), Pop takes the first bucket's head;
//   - the *far heap* is an indexed 4-ary min-heap over the same keys. It takes
//     every event beyond the ring's span and every insert that would walk
//     more than kWalkCap nodes inside a bucket. Cancel is an O(log n)
//     removal over only the events it holds.
//
// An event's key is (time, born, seq): its due time, the instant it was
// scheduled, and a sequence number. For an event scheduled now, born is the
// clock and seq the next number, so the key order is plain (time, seq),
// FIFO among equal times. A keyed push may name a birth later than now and
// a sequence number reserved earlier (Scheduler::ScheduleKeyed): it then
// fires exactly where an event pushed at that birth with that number would
// have. Records keep the lead, time - born, saturated to 32 bits: among
// ordinary events sequence order is birth order, so saturation never
// changes their order.
//
// Pop compares the ring's first head with the far heap's top by key and
// takes the earlier, so nothing ever migrates between tiers: any event may
// legally live in either, and events fire in exact key order whichever tier
// holds them. Ring events stay inside the ring's span as base advances,
// because base only moves to the time of a pop and every pending event is
// at or after it.
//
// Handles are (record index, generation) pairs: firing or removing an event
// bumps its record's generation, so a stale handle — including a cancel of
// an already-fired event — is detected exactly and is a no-op. Callbacks
// sit in their own chunked slab with stable addresses: built in place on
// push, moved out once on pop, never touched when events are linked,
// unlinked or sifted, and never relocated on growth.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/audit.h"
#include "src/sim/check.h"
#include "src/sim/time.h"

namespace tfc {

// An event's place in the firing order: time, then lead = time - born
// (larger first, i.e. born earlier), then seq.
struct EventKey {
  TimeNs time = 0;
  uint32_t lead = 0;
  uint64_t seq = 0;
};

// Largest lead a record holds; ordinary events saturate here.
inline constexpr uint32_t kMaxEventLead = 0xffffffffu;

// The lead of an event due at `time` and born at `born` (born <= time),
// saturated to kMaxEventLead.
constexpr uint32_t EventLead(TimeNs time, TimeNs born) {
  const auto lead = static_cast<uint64_t>((time - born).count());
  return lead < kMaxEventLead ? static_cast<uint32_t>(lead) : kMaxEventLead;
}

// True when `a` fires before `b`.
constexpr bool KeyBefore(const EventKey& a, const EventKey& b) {
  if (a.time != b.time) {
    return a.time < b.time;
  }
  if (a.lead != b.lead) {
    return a.lead > b.lead;
  }
  return a.seq < b.seq;
}

template <typename Callback>
class EventQueue {
 public:
  struct Handle {
    uint32_t index = kNullIndex;
    uint32_t gen = 0;
    bool valid() const { return index != kNullIndex; }
  };

  // Operations per tier since construction; total pushes, pops and cancels
  // are the sums of the two columns.
  struct TierCounts {
    uint64_t ring_pushes = 0;
    uint64_t far_pushes = 0;
    uint64_t ring_pops = 0;
    uint64_t far_pops = 0;
    uint64_t ring_cancels = 0;
    uint64_t far_cancels = 0;
  };

  // Bucket width, 2^6 = 64 ns. The ring's live events are the packet events
  // of the next few tens of µs: at Fig. 16 scale about a thousand of them,
  // tens per µs, so a 64 ns bucket holds one or two and a push rarely walks.
  // (256 ns buckets sent 1.7% of the web-search pushes past kWalkCap to the
  // far heap; 64 ns buckets send 0.002%.)
  static constexpr uint32_t kBucketShift = 6;
  static constexpr TimeNs kBucketWidth{int64_t{1} << kBucketShift};
  // 16384 buckets span 1.05 ms: every serialization (1.2-12 µs) and
  // propagation (5-20 µs) delay fits with room to spare, while
  // retransmission timers (RTO >= 200 ms) go to the far heap. The ring's
  // arrays take 130 KB.
  static constexpr uint32_t kRingBuckets = 16384;
  static constexpr TimeNs kRingSpan = kRingBuckets * kBucketWidth;
  // Most nodes a push walks back from a bucket's tail looking for its place.
  // Pushes arrive in nearly increasing time order, so the walk is almost
  // always zero steps; a longer one means a burst of out-of-order events in
  // one bucket, and past this cap the far heap's O(log n) insert is the
  // cheaper bound.
  static constexpr uint32_t kWalkCap = 8;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  ~EventQueue() {
    // Chunks are raw storage; every record in [1, nodes_.size()) holds a
    // constructed Callback (possibly empty) that must be destroyed.
    for (uint32_t rec = 1; rec < nodes_.size(); ++rec) {
      CbAt(rec).~Callback();
    }
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  const TierCounts& counts() const { return counts_; }

  // Time of the earliest event; the queue must be non-empty.
  TimeNs top_time() const {
    if (ring_size_ == 0) {
      return far_[0].time;
    }
    const TimeNs ring = nodes_[buckets_[FirstBucket()].head].time;
    return far_.empty() ? ring : std::min(ring, far_[0].time);
  }

  // Inserts an event under `key`, which must be unique among pending
  // events. `f` is any callable the Callback type accepts; it is
  // constructed directly in the callback slab (no intermediate Callback
  // object, no extra move).
  template <typename F>
  Handle Push(const EventKey& key, F&& f) {
    const uint32_t rec = AllocateRecord();
    CbAt(rec).Assign(std::forward<F>(f));
    Node& n = nodes_[rec];
    n.time = key.time;
    n.seq = key.seq;
    n.lead = key.lead;
    ++size_;
    if (!RingInsert(rec)) {
      FarInsert(rec);
    }
    return Handle{rec, n.gen};
  }

  // Removes the event named by `h` if it is still pending. Returns false
  // for invalid, already-fired, or already-removed handles.
  bool Remove(Handle h) {
    if (!h.valid() || h.index >= nodes_.size() || nodes_[h.index].gen != h.gen) {
      return false;
    }
    if (nodes_[h.index].next == kInFar) {
      ++counts_.far_cancels;
      FarErase(nodes_[h.index].prev);
    } else {
      ++counts_.ring_cancels;
      RingUnlink(h.index);
    }
    CbAt(h.index) = Callback();  // destroy the callable eagerly
    FreeRecord(h.index);
    --size_;
    return true;
  }

  // Pops the earliest event, returning its callback and writing its key.
  Callback Pop(EventKey* key) {
    TFC_DCHECK_GT(size_, 0u);
    uint32_t rec = ring_size_ != 0 ? buckets_[FirstBucket()].head : kNullIndex;
    if (rec != kNullIndex && (far_.empty() || SlotBefore(Slot{nodes_[rec].time, rec}, far_[0]))) {
      ++counts_.ring_pops;
      RingUnlink(rec);
    } else {
      ++counts_.far_pops;
      rec = far_[0].rec;
      FarErase(0);
    }
    *key = KeyOf(rec);
    base_ = BucketOf(key->time);
    Callback cb = std::move(CbAt(rec));  // leaves the slab entry empty
    FreeRecord(rec);
    --size_;
    return cb;
  }

  // Structural self-check, used by the runtime auditor and the differential
  // fuzz harness. Re-derives independently what the incremental operations
  // maintain: every ring bucket's links, key order and span, bitmap
  // agreement with bucket occupancy, the far heap's order and back-index,
  // free-list integrity, and that every record is in exactly one of ring,
  // far heap and free list (live + free == allocated). Returns whether every
  // check passed, that is, whether top_time() and Pop() are safe to call.
  bool AuditInvariants(Auditor& audit) const {
    const size_t records = nodes_.size();
    std::vector<uint8_t> seen(records, 0);
    if (records != 0) {
      seen[kNullIndex] = 1;  // the null record is never linked anywhere
    }
    bool sound = true;
    // Marks `rec` as visited; false (and a failure) if out of range or seen.
    const auto visit = [&](uint32_t rec, const char* where) {
      if (rec >= records || seen[rec] != 0) {
        audit.Check(false, "record visited once",
                    std::string(where) + " rec " + std::to_string(rec));
        return false;
      }
      seen[rec] = 1;
      return true;
    };
    // Checks `ok` for the record or bucket `what`; formats only failures.
    const auto check = [&](bool ok, const char* invariant, const char* what, uint64_t id) {
      sound = sound && ok;
      audit.Check(ok, invariant, ok ? std::string() : what + std::to_string(id));
    };
    const auto check_eq = [&](size_t a, size_t b, const char* invariant) {
      sound = sound && a == b;
      audit.CheckEq(a, b, invariant);
    };

    // Ring, reached through the bitmap, so a pass costs O(words + events),
    // not O(buckets). A non-empty bucket whose bit is clear is never walked,
    // so its records fail the live + free == allocated ledger below.
    size_t ring_count = 0;
    for (uint32_t w = 0; w < kWords; ++w) {
      if ((((summary_[w >> 6] >> (w & 63)) & 1) != 0) != (occupied_[w] != 0)) {
        check(false, "summary bit == bitmap word non-empty", "word ", w);
      }
      for (uint64_t bits = occupied_[w]; bits != 0; bits &= bits - 1) {
        const uint32_t b = (w << 6) | static_cast<uint32_t>(std::countr_zero(bits));
        const Bucket& bucket = buckets_[b];
        check(bucket.head != kNullIndex, "bitmap bit set only for a non-empty bucket", "bucket ",
              b);
        uint32_t prev = kNullIndex;
        for (uint32_t rec = bucket.head; rec != kNullIndex; rec = nodes_[rec].next) {
          if (!visit(rec, "ring")) {
            return false;
          }
          ++ring_count;
          const Node& n = nodes_[rec];
          check(n.prev == prev, "ring prev link", "rec ", rec);
          check((BucketOf(n.time) & kBucketMask) == b, "ring node in its time's bucket", "rec ",
                rec);
          check(BucketOf(n.time) - base_ < kRingBuckets, "ring node within span", "rec ", rec);
          if (prev != kNullIndex) {
            check(Before(prev, rec), "bucket sorted by key", "rec ", rec);
          }
          prev = rec;
        }
        check(bucket.tail == prev, "bucket tail is its last node", "bucket ", b);
      }
    }
    check_eq(ring_count, ring_size_, "ring count");

    for (uint32_t pos = 0; pos < far_.size(); ++pos) {
      const uint32_t rec = far_[pos].rec;
      if (!visit(rec, "far")) {
        return false;
      }
      check(nodes_[rec].next == kInFar, "far node tagged far", "rec ", rec);
      check(nodes_[rec].prev == pos, "far back-index matches slot", "rec ", rec);
      check(far_[pos].time == nodes_[rec].time, "far slot time matches record", "rec ", rec);
      if (pos > 0) {
        check(!Before(rec, far_[(pos - 1) / kArity].rec), "far heap property", "pos ", pos);
      }
    }

    size_t free_count = 0;
    for (uint32_t rec = free_head_; rec != kNullIndex; rec = nodes_[rec].prev) {
      if (!visit(rec, "free")) {
        return false;
      }
      ++free_count;
      check(nodes_[rec].next == kFree, "free record tagged free", "rec ", rec);
    }
    check_eq(ring_size_ + far_.size(), size_, "ring + far == size");
    check_eq(size_ + free_count, records == 0 ? 0 : records - 1, "live+free==allocated records");
    return sound;
  }

 private:
  // Record 0 is never allocated, so zeroed memory is an empty bucket and a
  // default Handle is invalid.
  static constexpr uint32_t kNullIndex = 0;
  // Tags in Node::next for records outside the ring.
  static constexpr uint32_t kInFar = 0xfffffffeu;
  static constexpr uint32_t kFree = 0xfffffffdu;
  static constexpr uint64_t kBucketMask = kRingBuckets - 1;
  static constexpr uint32_t kWords = kRingBuckets / 64;
  static constexpr uint32_t kSummaryWords = (kWords + 63) / 64;
  static_assert(std::has_single_bit(kRingBuckets) && kRingBuckets >= 64);
  static constexpr uint32_t kArity = 4;
  static constexpr uint32_t kChunkShift = 10;  // 1024 callbacks per chunk
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr uint32_t kChunkMask = kChunkSize - 1;
  static constexpr size_t kChunkBytes = size_t{kChunkSize} * sizeof(Callback);

  // One event. `prev`/`next` are the bucket links while the record is in
  // the ring; in the far heap `prev` is its heap position and `next` is
  // kInFar; on the free list `prev` is the next free record and `next` is
  // kFree. The generation tells live records from stale handles; `lead`
  // fills what would otherwise be padding.
  struct Node {
    TimeNs time;
    uint64_t seq;
    uint32_t prev;
    uint32_t next;
    uint32_t gen;
    uint32_t lead;
  };
  static_assert(sizeof(Node) == 32, "an event record is half a cache line");

  struct Bucket {
    uint32_t head;
    uint32_t tail;
  };

  // Far-heap slot; the time is copied in so sifting compares stay in the
  // slot array, and the lead and seq are read from the record only on equal
  // times.
  struct Slot {
    TimeNs time;
    uint32_t rec;
  };

  static uint64_t BucketOf(TimeNs t) {
    return static_cast<uint64_t>(t.count()) >> kBucketShift;
  }

  Callback& CbAt(uint32_t rec) {
    unsigned char* chunk = cb_chunks_[rec >> kChunkShift].get();
    return *reinterpret_cast<Callback*>(
        chunk + size_t{rec & kChunkMask} * sizeof(Callback));
  }

  EventKey KeyOf(uint32_t rec) const {
    const Node& n = nodes_[rec];
    return EventKey{n.time, n.lead, n.seq};
  }

  // Key order of two records.
  bool Before(uint32_t a, uint32_t b) const { return KeyBefore(KeyOf(a), KeyOf(b)); }

  uint32_t AllocateRecord() {
    if (free_head_ != kNullIndex) {
      const uint32_t rec = free_head_;
      free_head_ = nodes_[rec].prev;
      return rec;
    }
    if (nodes_.empty()) {
      nodes_.push_back(Node{});  // the null record
    }
    const auto rec = static_cast<uint32_t>(nodes_.size());
    TFC_CHECK_LT(rec, kFree);
    if ((rec >> kChunkShift) == cb_chunks_.size()) {
      // Raw storage: entries are constructed lazily on first use, so a
      // new chunk costs one allocation, not an initialization sweep.
      cb_chunks_.emplace_back(new unsigned char[kChunkBytes]);
    }
    nodes_.push_back(Node{});
    ::new (static_cast<void*>(&CbAt(rec))) Callback();
    return rec;
  }

  void FreeRecord(uint32_t rec) {
    Node& n = nodes_[rec];
    ++n.gen;
    n.prev = free_head_;
    n.next = kFree;
    free_head_ = rec;
  }

  // --- ring ---

  bool Occupied(uint32_t b) const { return ((occupied_[b >> 6] >> (b & 63)) & 1) != 0; }

  // Index of the first non-empty bucket at or after base's, wrapping; the
  // ring must be non-empty. Bits below base's position in its own word, and
  // words before it, hold the wrapped (latest) part of the span.
  uint32_t FirstBucket() const {
    const auto start = static_cast<uint32_t>(base_ & kBucketMask);
    const uint32_t w = start >> 6;
    const uint64_t here = occupied_[w] & (~uint64_t{0} << (start & 63));
    if (here != 0) {
      return (w << 6) | static_cast<uint32_t>(std::countr_zero(here));
    }
    // First non-empty word after w in ring order, wrapping back to w itself.
    // A non-empty ring sets a summary bit, so kSummaryWords steps always
    // find one; the bound turns a corrupted summary into a failed check
    // instead of an endless loop.
    uint32_t s = w >> 6;
    uint64_t words = summary_[s] & ((~uint64_t{0} << (w & 63)) << 1);
    for (uint32_t steps = 0; words == 0; ++steps) {
      TFC_CHECK_LT(steps, kSummaryWords);
      s = (s + 1) % kSummaryWords;
      words = summary_[s];
    }
    const uint32_t word = (s << 6) | static_cast<uint32_t>(std::countr_zero(words));
    return (word << 6) | static_cast<uint32_t>(std::countr_zero(occupied_[word]));
  }

  // Links `rec` into its bucket, keeping the bucket key-sorted.
  // Returns false, changing nothing, when the event lies outside the span or
  // its place is more than kWalkCap nodes back from the tail.
  bool RingInsert(uint32_t rec) {
    Node& n = nodes_[rec];
    const uint64_t abs = BucketOf(n.time);
    if (abs - base_ >= kRingBuckets) {
      return false;
    }
    const auto b = static_cast<uint32_t>(abs & kBucketMask);
    Bucket& bucket = buckets_[b];
    // Walk back past later events. A keyed push can sort before queued
    // events of its own time, so ties compare the whole key.
    uint32_t after = bucket.tail;
    for (uint32_t steps = 0; after != kNullIndex && Before(rec, after); ++steps) {
      if (steps == kWalkCap) {
        return false;
      }
      after = nodes_[after].prev;
    }
    n.prev = after;
    if (after == kNullIndex) {
      n.next = bucket.head;
      bucket.head = rec;
    } else {
      n.next = nodes_[after].next;
      nodes_[after].next = rec;
    }
    if (n.next == kNullIndex) {
      bucket.tail = rec;
    } else {
      nodes_[n.next].prev = rec;
    }
    occupied_[b >> 6] |= uint64_t{1} << (b & 63);
    summary_[b >> 12] |= uint64_t{1} << ((b >> 6) & 63);
    ++ring_size_;
    ++counts_.ring_pushes;
    return true;
  }

  void RingUnlink(uint32_t rec) {
    const Node& n = nodes_[rec];
    const auto b = static_cast<uint32_t>(BucketOf(n.time) & kBucketMask);
    Bucket& bucket = buckets_[b];
    if (n.prev == kNullIndex) {
      bucket.head = n.next;
    } else {
      nodes_[n.prev].next = n.next;
    }
    if (n.next == kNullIndex) {
      bucket.tail = n.prev;
    } else {
      nodes_[n.next].prev = n.prev;
    }
    if (bucket.head == kNullIndex) {
      const uint32_t w = b >> 6;
      occupied_[w] &= ~(uint64_t{1} << (b & 63));
      if (occupied_[w] == 0) {
        summary_[w >> 6] &= ~(uint64_t{1} << (w & 63));
      }
    }
    --ring_size_;
  }

  // --- far heap ---

  void FarInsert(uint32_t rec) {
    Node& n = nodes_[rec];
    n.next = kInFar;
    ++counts_.far_pushes;
    far_.push_back(Slot{});
    SiftUp(static_cast<uint32_t>(far_.size() - 1), Slot{n.time, rec});
  }

  // Removes the slot at `pos`: Floyd's hole-sinking. The hole sinks to a
  // leaf along the min-child path (child-vs-child compares only), then the
  // displaced last element bubbles up from the leaf. Works for the root
  // (Pop) and interior holes (Remove) alike.
  void FarErase(uint32_t pos) {
    const Slot last = far_.back();
    far_.pop_back();
    const auto size = static_cast<uint32_t>(far_.size());
    if (pos == size) {
      return;  // the hole was the last element
    }
    for (;;) {
      const uint32_t first_child = pos * kArity + 1;
      if (first_child >= size) {
        break;
      }
      const uint32_t end = std::min(first_child + kArity, size);
      uint32_t best = first_child;
      for (uint32_t c = first_child + 1; c < end; ++c) {
        if (SlotBefore(far_[c], far_[best])) {
          best = c;
        }
      }
      far_[pos] = far_[best];
      nodes_[far_[pos].rec].prev = pos;
      pos = best;
    }
    SiftUp(pos, last);
  }

  bool SlotBefore(const Slot& a, const Slot& b) const {
    return a.time != b.time ? a.time < b.time : Before(a.rec, b.rec);
  }

  // Bubbles `moving` up from `pos` and writes it (and its back-index) into
  // its final position.
  void SiftUp(uint32_t pos, Slot moving) {
    while (pos > 0) {
      const uint32_t parent = (pos - 1) / kArity;
      if (!SlotBefore(moving, far_[parent])) {
        break;
      }
      far_[pos] = far_[parent];
      nodes_[far_[pos].rec].prev = pos;
      pos = parent;
    }
    far_[pos] = moving;
    nodes_[moving.rec].prev = pos;
  }

  std::vector<Node> nodes_;  // record -> (key, links, generation)
  // record -> callable, in address-stable raw-storage chunks. Alignment:
  // operator new[] returns max_align_t-aligned memory and sizeof(Callback)
  // is a multiple of its alignment.
  std::vector<std::unique_ptr<unsigned char[]>> cb_chunks_;
  uint32_t free_head_ = kNullIndex;
  size_t size_ = 0;

  // kRingBuckets buckets, value-initialized: zero is an empty bucket.
  std::unique_ptr<Bucket[]> buckets_ = std::make_unique<Bucket[]>(kRingBuckets);
  std::array<uint64_t, kWords> occupied_{};        // bit b: bucket b non-empty
  std::array<uint64_t, kSummaryWords> summary_{};  // bit w: occupied_[w] != 0
  uint64_t base_ = 0;                              // absolute bucket of the last pop
  size_t ring_size_ = 0;

  std::vector<Slot> far_;  // 4-ary min-heap over keys
  TierCounts counts_;
};

}  // namespace tfc

#endif  // SRC_SIM_EVENT_QUEUE_H_

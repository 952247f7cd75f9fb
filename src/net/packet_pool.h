// Packet slab and free-list recycler.
//
// Every simulated send and every ACK used to pay a malloc/free pair for its
// Packet. The pool keeps released packets on a free list and hands them
// back out fully reset to the default-constructed state, so steady-state
// simulation performs no packet allocations at all: the pool's footprint
// converges to the high-water mark of simultaneously-live packets (queue
// occupancy + in-flight events), typically a few hundred objects.
//
// Fresh packets are carved, one cache line each, from kChunkBytes chunks
// aligned to their own size. The first line of every chunk holds the
// owning pool, so PacketDeleter (src/net/packet.h) finds a packet's pool by
// masking its address, and PacketPtr needs no per-pointer state. Chunks are
// freed only with the pool.
//
// Ownership flows through PacketPtr, whose deleter returns the packet to
// the pool that carved it. The pool must outlive every packet it issued;
// Network guarantees this by declaring its pool before the scheduler and
// nodes (members are destroyed in reverse order). A packet still held by a
// pending event when the scheduler is destroyed is never released; its
// storage goes with its chunk.

#ifndef SRC_NET_PACKET_POOL_H_
#define SRC_NET_PACKET_POOL_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/net/packet.h"
#include "src/sim/audit.h"
#include "src/sim/check.h"

namespace tfc {

class PacketPool {
 public:
  // Slab chunk size and alignment. The first sizeof(Packet) bytes of each
  // chunk hold the owning pool; the other lines are packets.
  static constexpr size_t kChunkBytes = size_t{64} * 1024;
  static constexpr size_t kPacketsPerChunk = kChunkBytes / sizeof(Packet) - 1;

  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;
  ~PacketPool();

  // The pool that carved `p`, read from the header line of its chunk.
  static PacketPool* Owner(const Packet* p) {
    const auto chunk = reinterpret_cast<uintptr_t>(p) & ~uintptr_t{kChunkBytes - 1};
    return *reinterpret_cast<PacketPool* const*>(chunk);
  }

  // Hands out a default-initialized packet, recycling a released one when
  // available.
  PacketPtr Allocate() {
    Packet* p;
    if (!free_.empty()) {
      p = free_.back();
      free_.pop_back();
      TFC_DCHECK(IsPoisoned(*p));  // free-list entries stay poisoned
      *p = Packet{};  // scrub every field; no state leaks between flows
      ++hits_;
    } else {
      p = Carve();
      ++misses_;
    }
    ++outstanding_;
    if (outstanding_ > high_water_) {
      high_water_ = outstanding_;
    }
    return PacketPtr(p);
  }

  // Called by PacketDeleter; not for direct use. Poisons the returned
  // packet: a second release of the same pointer trips the poison check
  // (classic double-free), and the audit pass verifies the free list is
  // still fully poisoned (a write through a stale PacketPtr — use after
  // free — clobbers the pattern).
  void Release(Packet* p) {
    TFC_CHECK_MSG(!IsPoisoned(*p), "packet pool double free (packet already released)");
    Poison(p);
    free_.push_back(p);
    ++freed_;
    --outstanding_;
  }

  // Runtime-auditor hook: the allocation ledger must balance exactly
  // (every packet ever handed out is either freed or still live), the free
  // list must agree with the ledger, and freed packets must still carry
  // the poison pattern.
  void AuditInvariants(Auditor& audit) const {
    audit.CheckEq(hits_ + misses_, freed_ + outstanding_,
                  "alloc==freed+outstanding");
    audit.CheckEq(free_.size(), freed_ - hits_, "free list matches ledger");
    for (const Packet* p : free_) {
      audit.Check(IsPoisoned(*p), "freed packet still poisoned (use-after-free write)");
    }
  }

  // --- statistics (exposed for the bench harness) ---
  uint64_t hits() const { return hits_; }      // allocations served from the free list
  uint64_t misses() const { return misses_; }  // allocations carved from the slab
  uint64_t freed() const { return freed_; }    // packets returned to the pool
  uint64_t outstanding() const { return outstanding_; }
  uint64_t high_water() const { return high_water_; }  // peak live packets
  size_t free_size() const { return free_.size(); }
  size_t chunks() const { return chunks_.size(); }

 private:
  static_assert(std::is_trivially_destructible_v<Packet>,
                "chunks are freed without running packet destructors");

  // Constructs a packet in the next uncarved line, starting a new chunk
  // when the current one is used up.
  Packet* Carve();

  static void Poison(Packet* p) {
    p->seq = kPacketPoison;
    p->ack = kPacketPoison;
    p->payload = 0xDEADBEEFu;
    p->window = 0xDEADBEEFu;
  }

  std::vector<Packet*> free_;
  std::vector<std::byte*> chunks_;
  std::byte* carve_next_ = nullptr;  // next uncarved line of the newest chunk
  std::byte* carve_end_ = nullptr;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t freed_ = 0;
  uint64_t outstanding_ = 0;
  uint64_t high_water_ = 0;
};

}  // namespace tfc

#endif  // SRC_NET_PACKET_POOL_H_

#include "src/net/packet_pool.h"

#include <new>

namespace tfc {

PacketPool::~PacketPool() {
  for (std::byte* chunk : chunks_) {
    ::operator delete(chunk, std::align_val_t{kChunkBytes});
  }
}

Packet* PacketPool::Carve() {
  if (carve_next_ == carve_end_) {
    auto* chunk = static_cast<std::byte*>(
        ::operator new(kChunkBytes, std::align_val_t{kChunkBytes}));
    chunks_.push_back(chunk);
    ::new (static_cast<void*>(chunk)) PacketPool*(this);
    carve_next_ = chunk + sizeof(Packet);
    carve_end_ = chunk + kChunkBytes;
  }
  void* line = carve_next_;
  carve_next_ += sizeof(Packet);
  return ::new (line) Packet();
}

void PacketDeleter::operator()(Packet* p) const noexcept {
  PacketPool::Owner(p)->Release(p);
}

}  // namespace tfc

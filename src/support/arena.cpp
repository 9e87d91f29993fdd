#include "support/arena.hpp"

#include <utility>

#include "support/check.hpp"

namespace hca {

MonotonicArena::MonotonicArena(std::size_t chunkBytes)
    : chunkBytes_(chunkBytes == 0 ? kDefaultChunkBytes : chunkBytes) {}

void* MonotonicArena::allocate(std::size_t bytes, std::size_t align) {
  HCA_CHECK(align != 0 && (align & (align - 1)) == 0,
            "arena alignment must be a power of two");
  if (bytes == 0) bytes = 1;
  if (chunkIndex_ < chunks_.size()) {
    const std::size_t aligned = (cursor_ + align - 1) & ~(align - 1);
    if (aligned + bytes <= chunks_[chunkIndex_].size) {
      void* result = chunks_[chunkIndex_].data.get() + aligned;
      bytesUsed_ += (aligned - cursor_) + bytes;
      cursor_ = aligned + bytes;
      if (bytesUsed_ > peakBytesUsed_) peakBytesUsed_ = bytesUsed_;
      return result;
    }
  }
  // A fresh chunk starts max_align_t-aligned, so offset 0 satisfies `align`.
  grow(bytes);
  void* result = chunks_[chunkIndex_].data.get();
  bytesUsed_ += bytes;
  cursor_ = bytes;
  if (bytesUsed_ > peakBytesUsed_) peakBytesUsed_ = bytesUsed_;
  return result;
}

void MonotonicArena::grow(std::size_t bytes) {
  // Retired chunks keep their memory across reset(); reuse the next one
  // that is large enough before allocating anew.
  std::size_t next = chunkIndex_ < chunks_.size() ? chunkIndex_ + 1 : 0;
  while (next < chunks_.size() && chunks_[next].size < bytes) ++next;
  if (next < chunks_.size()) {
    if (next != chunkIndex_ + 1 && chunkIndex_ + 1 < chunks_.size()) {
      std::swap(chunks_[next], chunks_[chunkIndex_ + 1]);
      next = chunkIndex_ + 1;
    }
    chunkIndex_ = next;
    cursor_ = 0;
    return;
  }
  const std::size_t size = bytes > chunkBytes_ ? bytes : chunkBytes_;
  Chunk chunk;
  // Uninitialized: every byte is written before it is read, and a zeroed
  // chunk would cost a memset per chunk for nothing.
  chunk.data = std::make_unique_for_overwrite<std::byte[]>(size);
  chunk.size = size;
  chunks_.push_back(std::move(chunk));
  bytesReserved_ += size;
  chunkIndex_ = chunks_.size() - 1;
  cursor_ = 0;
}

void MonotonicArena::reset() {
  chunkIndex_ = 0;
  cursor_ = 0;
  bytesUsed_ = 0;
}

void MonotonicArena::restart() {
  reset();
  peakBytesUsed_ = 0;
}

}  // namespace hca

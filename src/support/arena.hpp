#pragma once

#include <cstddef>
#include <memory>
#include <vector>

/// Monotonic (bump-pointer) arena allocator for short-lived, same-lifetime
/// object batches — the SEE beam search's frontier snapshots.
///
/// Allocation is a pointer bump; there is no per-object free. `reset()`
/// rewinds the whole arena in O(chunks) while *keeping* the chunk memory,
/// so a steady-state user (the beam loop, which double-buffers two arenas
/// and resets the retired one every step) performs zero heap allocations
/// once the high-water mark is reached.
///
/// Thread safety: a `MonotonicArena` is deliberately single-threaded — one
/// arena per search attempt, owned by the thread running that attempt
/// (portfolio attempts each build their own). No state is shared between
/// arenas.
namespace hca {

class MonotonicArena {
 public:
  explicit MonotonicArena(std::size_t chunkBytes = kDefaultChunkBytes);

  MonotonicArena(const MonotonicArena&) = delete;
  MonotonicArena& operator=(const MonotonicArena&) = delete;

  /// Returns `bytes` of storage aligned to `align` (a power of two, at most
  /// alignof(std::max_align_t)). Requests larger than the chunk size get a
  /// dedicated oversize chunk.
  void* allocate(std::size_t bytes, std::size_t align);

  /// Typed array allocation (uninitialized storage for trivial T).
  template <typename T>
  T* allocateArray(std::size_t count) {
    return static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
  }

  /// Rewinds to empty, keeping every chunk for reuse. All memory handed out
  /// since the last reset is invalidated.
  void reset();
  /// reset() plus a fresh high-water mark: the arena starts a new,
  /// independently measured use (the next retry-ladder rung of one SEE
  /// call) on the chunks of the previous one.
  void restart();

  /// Live bytes handed out since the last reset (including alignment pad).
  [[nodiscard]] std::size_t bytesUsed() const { return bytesUsed_; }
  /// High-water mark of `bytesUsed()` since construction or restart().
  [[nodiscard]] std::size_t peakBytesUsed() const { return peakBytesUsed_; }
  /// Total chunk capacity currently owned.
  [[nodiscard]] std::size_t bytesReserved() const { return bytesReserved_; }

  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  /// Makes `chunkIndex_` point at a chunk with >= `bytes` free at `cursor_`.
  void grow(std::size_t bytes);

  std::vector<Chunk> chunks_;
  std::size_t chunkIndex_ = 0;  ///< chunk currently being bumped
  std::size_t cursor_ = 0;      ///< next free offset in that chunk
  std::size_t chunkBytes_;
  std::size_t bytesUsed_ = 0;
  std::size_t peakBytesUsed_ = 0;
  std::size_t bytesReserved_ = 0;
};

}  // namespace hca

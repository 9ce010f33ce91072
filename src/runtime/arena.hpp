// Frame-scratch arena: bump allocation for the per-frame temporaries of
// the mobile hot path (descriptor packing in the matcher, the detector's
// NMS grid, find_contours' visited map). The hot kernels run every frame
// and used to re-heap-allocate the same buffers each time; an arena turns
// those into pointer bumps over memory that is reserved once and reused
// for the lifetime of the thread.
//
// Usage discipline is strictly stack-like: take an ArenaScope at function
// entry, alloc spans, and let the scope release them on exit. Nested
// callees (the matcher inside the tracker inside the pipeline) each open
// their own scope, so reuse composes without any coordination. Spans must
// not outlive their scope.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace edgeis::rt {

class Arena {
 public:
  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Uninitialized storage for `n` objects of trivial type T, 16-aligned.
  template <typename T>
  [[nodiscard]] std::span<T> alloc(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T> &&
                      std::is_trivially_copyable_v<T>,
                  "arena memory is released without running destructors");
    static_assert(alignof(T) <= kAlign);
    if (n == 0) return {};
    const std::size_t bytes = (n * sizeof(T) + kAlign - 1) & ~(kAlign - 1);
    return {reinterpret_cast<T*>(raw_alloc(bytes)), n};
  }

  /// Storage for `n` objects of trivial type T, filled with `value`.
  template <typename T>
  [[nodiscard]] std::span<T> alloc_filled(std::size_t n, T value) {
    auto s = alloc<T>(n);
    std::fill(s.begin(), s.end(), value);
    return s;
  }

  /// Release everything; reserved blocks are kept for reuse.
  void reset() noexcept {
    block_ = 0;
    offset_ = 0;
  }

  [[nodiscard]] std::size_t bytes_reserved() const noexcept {
    std::size_t total = 0;
    for (const auto& b : blocks_) total += b.size;
    return total;
  }

 private:
  friend class ArenaScope;
  static constexpr std::size_t kAlign = 16;
  static constexpr std::size_t kMinBlock = 64 * 1024;

  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  std::byte* raw_alloc(std::size_t bytes) {
    while (block_ < blocks_.size() &&
           offset_ + bytes > blocks_[block_].size) {
      ++block_;
      offset_ = 0;
    }
    if (block_ == blocks_.size()) {
      const std::size_t prev = blocks_.empty() ? kMinBlock / 2
                                               : blocks_.back().size;
      const std::size_t size = std::max(bytes, prev * 2);
      blocks_.push_back({std::make_unique<std::byte[]>(size), size});
      offset_ = 0;
    }
    std::byte* p = blocks_[block_].data.get() + offset_;
    offset_ += bytes;
    return p;
  }

  std::vector<Block> blocks_;
  std::size_t block_ = 0;   // block currently bumping
  std::size_t offset_ = 0;  // within blocks_[block_]
};

/// The per-thread scratch arena the hot kernels share. The simulation is
/// single-threaded per pipeline; thread_local keeps fleet runs and tests
/// isolated without locks.
inline Arena& frame_arena() {
  thread_local Arena arena;
  return arena;
}

/// RAII stack frame on an arena: allocations made while the scope is live
/// are released (capacity retained) when it is destroyed. Scopes must nest
/// like stack frames.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena = frame_arena())
      : arena_(arena), block_(arena.block_), offset_(arena.offset_) {}
  ~ArenaScope() {
    arena_.block_ = block_;
    arena_.offset_ = offset_;
  }
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  template <typename T>
  [[nodiscard]] std::span<T> alloc(std::size_t n) {
    return arena_.alloc<T>(n);
  }
  template <typename T>
  [[nodiscard]] std::span<T> alloc_filled(std::size_t n, T value) {
    return arena_.alloc_filled<T>(n, value);
  }

 private:
  Arena& arena_;
  std::size_t block_;
  std::size_t offset_;
};

}  // namespace edgeis::rt

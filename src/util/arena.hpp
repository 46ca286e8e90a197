// Per-worker monotonic arena for per-site scratch.
//
// The crawl's hot loop used to build and tear down thousands of little
// heap blocks per site (classifier columns, cover/exclusion matrices,
// per-finding scratch). An Arena turns that into pointer bumps: scratch
// is allocated monotonically from reusable chunks and the whole site's
// worth of it is released with one reset() at the next site's start —
// chunks are kept and rewound, so a warmed-up worker allocates nothing.
//
// Lifetime rules (DESIGN §12):
//   * arena memory is SITE-SCOPED: nothing allocated from an arena may
//     outlive the reset() that ends its site — anything that escapes the
//     per-site scope (findings, reports, observations) is copied into
//     ordinary heap-owned containers first;
//   * deallocate() is a no-op: containers that grow leak their old
//     buffers into the current site's chunk, reclaimed wholesale by
//     reset();
//   * one arena per worker, never shared across threads.
//
// ArenaAllocator is a std-compatible allocator over an Arena, so the
// classifier's columns are plain std::vectors that bump-allocate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace h2r::util {

class Arena {
 public:
  explicit Arena(std::size_t chunk_bytes = 64 * 1024)
      : chunk_bytes_(chunk_bytes < 256 ? 256 : chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `bytes` aligned to `align` (a power of two). Requests
  /// larger than the chunk size get a dedicated chunk.
  void* allocate(std::size_t bytes, std::size_t align) {
    if (bytes == 0) bytes = 1;
    std::size_t offset = (used_ + (align - 1)) & ~(align - 1);
    if (current_ >= chunks_.size() || offset + bytes > chunks_[current_].size) {
      next_chunk(bytes + align);
      offset = (used_ + (align - 1)) & ~(align - 1);
    }
    used_ = offset + bytes;
    high_water_ += bytes;
    return chunks_[current_].data.get() + offset;
  }

  /// Rewinds to empty without releasing chunks: the next site's scratch
  /// reuses the same memory. Everything previously allocated is invalid.
  void reset() noexcept {
    current_ = 0;
    used_ = 0;
    high_water_ = 0;
  }

  /// Bytes handed out since the last reset() (diagnostics only).
  std::size_t bytes_used() const noexcept { return high_water_; }
  /// Chunks currently owned (they survive reset()).
  std::size_t chunk_count() const noexcept { return chunks_.size(); }

 private:
  struct Chunk {
    std::unique_ptr<char[]> data;
    std::size_t size = 0;
  };

  void next_chunk(std::size_t min_bytes) {
    // Advance into an already-owned chunk when one is large enough;
    // otherwise grow. Rewound chunks are reused in order, so a steady
    // per-site working set stops allocating after the first site.
    std::size_t next = current_ >= chunks_.size() ? 0 : current_ + 1;
    while (next < chunks_.size() && chunks_[next].size < min_bytes) ++next;
    if (next == chunks_.size()) {
      const std::size_t size =
          min_bytes > chunk_bytes_ ? min_bytes : chunk_bytes_;
      chunks_.push_back(Chunk{std::unique_ptr<char[]>(new char[size]), size});
    }
    current_ = next;
    used_ = 0;
  }

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::size_t current_ = 0;  // index of the chunk being bumped
  std::size_t used_ = 0;     // bytes bumped in chunks_[current_]
  std::size_t high_water_ = 0;
};

/// std allocator over a (non-null) Arena.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(Arena* arena) noexcept : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept  // NOLINT(google-explicit-constructor)
      : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
  }

  /// A no-op: arena memory is reclaimed wholesale by Arena::reset().
  void deallocate(T*, std::size_t) noexcept {}

  Arena* arena() const noexcept { return arena_; }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& other) const noexcept {
    return arena_ == other.arena();
  }

 private:
  Arena* arena_;
};

template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

}  // namespace h2r::util

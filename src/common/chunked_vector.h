// Append-only array with stable element addresses (DESIGN.md §14): the
// graph store's per-entity adjacency slots and the CLRM row table's
// per-row version slots.
#ifndef DEKG_COMMON_CHUNKED_VECTOR_H_
#define DEKG_COMMON_CHUNKED_VECTOR_H_

#include <bit>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace dekg {

// Append-only array whose elements never move. Element i lives in chunk
// k = bit_width(i / kFirst + 1) - 1, which holds kFirst << k elements, so
// a fixed directory of chunk pointers covers every int32 index and never
// reallocates. One writer appends; any thread may read an element the
// writer published to it (happens-before) while the writer appends more.
template <typename T, int kFirstBits>
class ChunkedVector {
  static_assert(std::is_trivially_destructible_v<T>);

 public:
  ChunkedVector() = default;
  ChunkedVector(const ChunkedVector&) = delete;
  ChunkedVector& operator=(const ChunkedVector&) = delete;
  ~ChunkedVector() {
    for (int k = 0; k < kMaxChunks; ++k) {
      if (chunks_[k] != nullptr) {
        std::allocator<T>().deallocate(chunks_[k], kFirst << k);
      }
    }
  }

  size_t size() const { return size_; }
  const T& operator[](size_t i) const { return *Slot(i); }
  T& operator[](size_t i) { return *Slot(i); }

  template <typename... Args>
  void emplace_back(Args&&... args) {
    const int k = ChunkOf(size_);
    if (chunks_[k] == nullptr) {
      chunks_[k] = std::allocator<T>().allocate(kFirst << k);
    }
    std::construct_at(Slot(size_), std::forward<Args>(args)...);
    ++size_;
  }

 private:
  static constexpr size_t kFirst = size_t{1} << kFirstBits;
  static constexpr int kMaxChunks = 32;

  static int ChunkOf(size_t i) {
    return static_cast<int>(std::bit_width((i >> kFirstBits) + 1)) - 1;
  }
  T* Slot(size_t i) const {
    const int k = ChunkOf(i);
    return chunks_[k] + (i + kFirst - (kFirst << k));
  }

  T* chunks_[kMaxChunks] = {};
  size_t size_ = 0;
};

}  // namespace dekg

#endif  // DEKG_COMMON_CHUNKED_VECTOR_H_

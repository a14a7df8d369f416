// Huge-page backing for large, randomly read tables.
//
// The flat plane's base table (64 MiB) and membership records (tens of
// MiB at IXP scale) are read at random addresses by every classified
// flow; on 4 KiB pages nearly every lookup is also a TLB miss. Memory
// from this helper is 2 MiB-aligned, rounded up to whole 2 MiB pages and
// advised MADV_HUGEPAGE, so a kernel running transparent huge pages in
// "madvise" or "always" mode backs it with 2 MiB pages. The advice is
// about this process's own memory only; where THP is off (or on
// platforms without madvise) it is ignored and the memory behaves as a
// plain allocation. Allocations below one huge page are plain operator
// new: advising them would only fragment the heap's mappings.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace spoofscope::util {

/// The x86-64 / aarch64 (4 KiB granule) transparent-huge-page size.
inline constexpr std::size_t kHugePageBytes = std::size_t{1} << 21;

/// `bytes` of uninitialized memory, huge-page backed when it is at least
/// kHugePageBytes (see above). Throws std::bad_alloc.
void* allocate_huge_pages(std::size_t bytes);

/// Releases memory from allocate_huge_pages(bytes) (same `bytes`).
void free_huge_pages(void* p, std::size_t bytes) noexcept;

/// std::allocator replacement routing a container's storage through
/// allocate_huge_pages. Value-less construct() default-initializes, so
/// resizing a container of trivial values leaves new elements unwritten
/// (assign / resize with a value still writes them).
template <typename T>
struct HugePageAllocator {
  using value_type = T;

  HugePageAllocator() = default;
  template <typename U>
  HugePageAllocator(const HugePageAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(allocate_huge_pages(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    free_huge_pages(p, n * sizeof(T));
  }
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) noexcept(
      std::is_nothrow_constructible_v<U, Args...>) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  friend bool operator==(const HugePageAllocator&,
                         const HugePageAllocator&) = default;
};

/// A vector on huge pages whose resize() leaves new values unwritten.
template <typename T>
using HugePageVector = std::vector<T, HugePageAllocator<T>>;

}  // namespace spoofscope::util

#include "util/huge_pages.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#endif

namespace spoofscope::util {

namespace {

constexpr std::align_val_t kHugeAlign{kHugePageBytes};

std::size_t round_up(std::size_t bytes) {
  return (bytes + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
}

}  // namespace

void* allocate_huge_pages(std::size_t bytes) {
  if (bytes < kHugePageBytes) return ::operator new(bytes);
  const std::size_t rounded = round_up(bytes);
  void* p = ::operator new(rounded, kHugeAlign);
#ifdef MADV_HUGEPAGE
  // Advice only: EINVAL (THP compiled out) leaves ordinary pages.
  ::madvise(p, rounded, MADV_HUGEPAGE);
#endif
  return p;
}

void free_huge_pages(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (bytes < kHugePageBytes) {
    ::operator delete(p);
  } else {
    ::operator delete(p, kHugeAlign);
  }
}

}  // namespace spoofscope::util

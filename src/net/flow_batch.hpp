// Structure-of-arrays flow chunk — the unit of work of the batched data
// plane. A FlowBatch holds the same fields as a run of FlowRecords, but
// each field lives in its own contiguous lane so downstream kernels
// (classification, aggregation) stream exactly the lanes they touch:
// classify reads src+member_in, aggregation reads member_in+packets+bytes,
// and the untouched lanes never enter the cache.
//
// Batches are refillable: clear() resets the size but keeps every lane's
// capacity, so a reader looping `next_batch(batch, n)` performs no
// allocation after the first chunk reaches the high-water mark. A decoder
// writes rows in place: grow(n) hands out every lane's pointer to n new
// rows, left unwritten (no zeroing pass), and shrink() gives back the
// ones it did not fill.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/flow.hpp"

namespace spoofscope::net {

namespace detail {

/// std::allocator whose value-less construct() default-initializes, so
/// resizing a lane of trivial values leaves the new elements unwritten.
/// (The noexcept lets a growing vector relocate in bulk, as it does with
/// std::allocator.)
template <typename T>
struct UninitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = UninitAllocator<U>;
  };
  UninitAllocator() = default;
  template <typename U>
  UninitAllocator(const UninitAllocator<U>&) noexcept {}
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) noexcept(
      std::is_nothrow_constructible_v<U, Args...>) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

template <typename T>
using Lane = std::vector<T, UninitAllocator<T>>;

}  // namespace detail

class FlowBatch {
 public:
  /// Write access to a run of rows, one pointer per lane (see grow()).
  struct Rows {
    std::uint32_t* ts;
    std::uint32_t* src;
    std::uint32_t* dst;
    std::uint8_t* proto;
    std::uint16_t* sport;
    std::uint16_t* dport;
    std::uint32_t* packets;
    std::uint64_t* bytes;
    Asn* member_in;
    Asn* member_out;
  };

  /// Number of flows currently in the batch.
  std::size_t size() const { return ts_.size(); }
  bool empty() const { return ts_.empty(); }

  /// Drops the contents but keeps lane capacity (no deallocation).
  void clear();

  /// Pre-sizes every lane for `n` flows.
  void reserve(std::size_t n);

  /// Appends one flow, scattering its fields into the lanes.
  void push_back(const FlowRecord& f);

  /// Appends `n` rows whose fields are unspecified until written and
  /// returns every lane's pointer to the first of them. The pointers
  /// stay valid until the next call that adds rows or reserves.
  Rows grow(std::size_t n);

  /// Drops the last `n` rows (n <= size()), keeping lane capacity.
  void shrink(std::size_t n);

  /// Gathers flow `i` back into an AoS record (bit-identical to the
  /// record that was pushed).
  FlowRecord record(std::size_t i) const;

  /// Appends all flows, gathered back to AoS form, to `out`.
  void append_to(std::vector<FlowRecord>& out) const;

  // Lanes. Raw address values (Ipv4Addr::value()) are stored for src/dst
  // so classification kernels can shift/mask without unwrapping.
  std::span<const std::uint32_t> ts() const { return ts_; }
  std::span<const std::uint32_t> src() const { return src_; }
  std::span<const std::uint32_t> dst() const { return dst_; }
  std::span<const std::uint8_t> proto() const { return proto_; }
  std::span<const std::uint16_t> sport() const { return sport_; }
  std::span<const std::uint16_t> dport() const { return dport_; }
  std::span<const std::uint32_t> packets() const { return packets_; }
  std::span<const std::uint64_t> bytes() const { return bytes_; }
  std::span<const Asn> member_in() const { return member_in_; }
  std::span<const Asn> member_out() const { return member_out_; }

 private:
  detail::Lane<std::uint32_t> ts_;
  detail::Lane<std::uint32_t> src_;
  detail::Lane<std::uint32_t> dst_;
  detail::Lane<std::uint8_t> proto_;
  detail::Lane<std::uint16_t> sport_;
  detail::Lane<std::uint16_t> dport_;
  detail::Lane<std::uint32_t> packets_;
  detail::Lane<std::uint64_t> bytes_;
  detail::Lane<Asn> member_in_;
  detail::Lane<Asn> member_out_;
};

}  // namespace spoofscope::net

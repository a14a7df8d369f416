// Internal binary trace format core shared by the writer (write_trace)
// and the one reader (net::MappedTraceReader): the on-disk constants,
// field (de)serializers, record checksum and header parser.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>

#include "net/flow.hpp"
#include "net/flow_batch.hpp"
#include "net/protocols.hpp"
#include "util/error_policy.hpp"
#include "util/simd.hpp"

namespace spoofscope::net::format {

inline constexpr std::uint32_t kMagic = 0x53504F46;  // "SPOF"
inline constexpr std::uint32_t kVersionV2 = 2;       // header + per-record FNV-1a
inline constexpr std::size_t kHeaderBody = 32;       // header fields before the checksum
inline constexpr std::size_t kHeaderSizeV2 = kHeaderBody + 4;  // + checksum
inline constexpr std::size_t kPayloadSize = 36;      // record body
inline constexpr std::size_t kRecordSizeV2 = kPayloadSize + 4;  // + checksum

inline void put_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}
inline void put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
inline void put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
inline std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (std::uint16_t(p[1]) << 8));
}
inline std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}
inline std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

/// 32-bit FNV-1a over raw bytes; cheap, deterministic, and sensitive to
/// single-bit damage anywhere in the record.
inline std::uint32_t fnv1a32(const std::uint8_t* p, std::size_t n) {
  std::uint32_t h = 2166136261u;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 16777619u;
  }
  return h;
}

/// fnv1a32 of the `n` bytes at each of p, p + stride, ..., p + (N-1) *
/// stride, advanced as N independent chains in lockstep so their
/// multiplies overlap instead of waiting on each other: h[j] ends equal
/// to fnv1a32(p + j * stride, n).
template <std::size_t N>
inline void fnv1a32_lockstep(const std::uint8_t* p, std::size_t stride,
                             std::size_t n, std::uint32_t (&h)[N]) {
  for (std::uint32_t& x : h) x = 2166136261u;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < N; ++j) {
      h[j] ^= p[j * stride + i];
      h[j] *= 16777619u;
    }
  }
}

inline void encode_record(const FlowRecord& f, std::uint8_t* p) {
  put_u32(p + 0, f.ts);
  put_u32(p + 4, f.src.value());
  put_u32(p + 8, f.dst.value());
  p[12] = static_cast<std::uint8_t>(f.proto);
  p[13] = 0;  // reserved
  put_u16(p + 14, f.sport);
  put_u16(p + 16, f.dport);
  p[18] = 0;
  p[19] = 0;  // padding for alignment in the on-disk layout
  put_u32(p + 20, f.packets);
  put_u64(p + 24, f.bytes);
  // member ASNs fit in 16 bits in our simulations but are stored as-is
  // truncated to 16 bits to keep the record compact; values above 65535
  // are rejected at write time.
  put_u16(p + 32, static_cast<std::uint16_t>(f.member_in));
  put_u16(p + 34, static_cast<std::uint16_t>(f.member_out));
}

/// Decodes one record payload into row `i` of the lanes `rows` hands out
/// (FlowBatch::grow): the inverse of encode_record, field for field.
inline void decode_row(const std::uint8_t* p, const FlowBatch::Rows& rows,
                       std::size_t i) {
  rows.ts[i] = get_u32(p + 0);
  rows.src[i] = get_u32(p + 4);
  rows.dst[i] = get_u32(p + 8);
  rows.sport[i] = get_u16(p + 14);
  rows.dport[i] = get_u16(p + 16);
  rows.packets[i] = get_u32(p + 20);
  rows.bytes[i] = get_u64(p + 24);
  rows.member_in[i] = get_u16(p + 32);
  rows.member_out[i] = get_u16(p + 34);
  // Last: a byte store may alias anything, so it would otherwise force
  // the loads after it to wait.
  rows.proto[i] = p[12];
}

/// Records one step of the AVX2 decoder verifies and decodes.
inline constexpr std::size_t kAvx2Group = 64;

#if SPOOFSCOPE_KERNEL_AVX2
/// The AVX2 decode step (net/trace_decode_avx2.cpp; call it only where
/// util::resolve_simd_kernel chose kAvx2): checks the kAvx2Group records
/// at `p` against their stored FNV-1a sums, the same check as fnv1a32,
/// and writes all of them into rows [i, i + kAvx2Group) as decode_row
/// would. Returns how many leading records verify (kAvx2Group when all
/// do); the rows from the first failing record on hold no meaning.
std::size_t decode_group_avx2(const std::uint8_t* p,
                              const FlowBatch::Rows& rows, std::size_t i);
#endif

/// Parsed trace header, or the reason it was rejected (raw fields; the
/// public readers package them into a TraceMeta).
struct Header {
  std::uint32_t sampling_rate = 0;
  std::uint32_t window_seconds = 0;
  std::uint64_t seed = 0;
  std::uint64_t declared = 0;
  bool ok = false;
};

/// Parses and validates the v2 header from the first bytes of `data`
/// (which need not extend past the header); on success the records start
/// kHeaderSizeV2 bytes in. Any other version, including the checksumless
/// v1, is unsupported. Strict policy throws std::runtime_error; skip
/// policy accounts the failure in `stats` and returns ok=false (or, for a
/// header-checksum mismatch, notes the damage and proceeds best-effort).
inline Header parse_header(std::span<const std::uint8_t> data,
                           util::ErrorPolicy policy, util::IngestStats& stats) {
  const bool strict = policy == util::ErrorPolicy::kStrict;
  const auto fail = [](const char* why) -> Header {
    throw std::runtime_error(std::string("read_trace: ") + why);
  };
  Header h;
  if (data.size() < kHeaderBody) {
    if (strict) return fail("truncated header");
    stats.skip(util::ErrorKind::kTruncated, data.size());
    return h;
  }
  if (get_u32(data.data()) != kMagic) {
    if (strict) return fail("bad magic");
    stats.skip(util::ErrorKind::kBadMagic, kHeaderBody);
    return h;
  }
  if (get_u32(data.data() + 4) != kVersionV2) {
    if (strict) return fail("unsupported version");
    stats.skip(util::ErrorKind::kBadVersion, kHeaderBody);
    return h;
  }
  if (data.size() < kHeaderSizeV2) {
    if (strict) return fail("truncated header");
    stats.skip(util::ErrorKind::kTruncated, data.size());
    return h;
  }
  if (get_u32(data.data() + kHeaderBody) != fnv1a32(data.data(), kHeaderBody)) {
    if (strict) return fail("header checksum mismatch");
    // Best effort in skip mode: the metadata may be damaged, but the
    // records carry their own checksums, so recovery can proceed.
    stats.note(util::ErrorKind::kChecksum);
  }
  h.sampling_rate = get_u32(data.data() + 8);
  h.window_seconds = get_u32(data.data() + 12);
  h.seed = get_u64(data.data() + 16);
  h.declared = get_u64(data.data() + 24);
  h.ok = true;
  return h;
}

}  // namespace spoofscope::net::format

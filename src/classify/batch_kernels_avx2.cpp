// AVX2 batch kernel for the flat plane: 8-wide base-table and record
// gathers with a two-phase hot/slow split.
//
// Per tile (kTile rows, thread-local scratch):
//   pass A  gathers base entries for the whole tile with
//           _mm256_i32gather_epi32 over src >> 8, software-prefetching
//           the lines a fixed element distance ahead;
//   pass B  resolves member slots scalar (runs of equal ASNs hit a
//           last-member fast path; the probe table is tiny) and issues
//           record prefetches for routed rows;
//   pass C  re-runs the tile 8-wide: masked record gather for
//           routed+known rows, vector bit-spread of the full-coverage
//           mask into the packed Label, kind-driven blends for
//           bogon/unrouted, and a movemask compaction of every row that
//           needs the slow lane (overflow entries, records with partial
//           bits) into a pending index list;
//   pass D  (phase 2) resolves only the pending rows through the exact
//           scalar classify_overflow / classify_routed paths.
//
// Tails shorter than the vector width fall off the 8-wide loops into the
// scalar per-row path inside the same tile, so any batch size is legal
// and labels never depend on n mod 8. The record gather loads 32 bits
// per 16-bit record; the plane's one element of tail padding keeps the
// load at the last record in bounds.
#include "classify/batch_kernels.hpp"

#if SPOOFSCOPE_KERNEL_AVX2

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "classify/flat_classifier.hpp"
#include "net/flow_batch.hpp"

namespace spoofscope::classify {

namespace {

/// Rows per scratch tile: big enough to amortize the pass switches,
/// small enough that entry/slot scratch stays L1/L2-resident (48 KiB).
constexpr std::size_t kTile = 4096;

/// Elements of base-table prefetch lookahead in pass A.
constexpr std::size_t kGatherPrefetch = 64;

struct Scratch {
  std::vector<std::uint32_t> entry;
  std::vector<std::uint32_t> slot;
  std::vector<std::uint32_t> pending;
};

Scratch& scratch() {
  thread_local Scratch s;
  if (s.entry.size() != kTile) {
    s.entry.resize(kTile);
    s.slot.resize(kTile);
    s.pending.reserve(kTile);
  }
  return s;
}

inline void prefetch_ro(const void* p) { __builtin_prefetch(p, 0, 1); }

}  // namespace

void FlatClassifier::kernel_avx2(const std::uint32_t* src, const Asn* member,
                                 std::size_t n, Label* out) const {
  Scratch& sc = scratch();
  const std::uint32_t* base = base_.data();
  const std::uint16_t* recs = records_.data();
  const std::uint32_t stride = static_cast<std::uint32_t>(record_stride_);

  const __m256i v_payload = _mm256_set1_epi32(static_cast<int>(kPayloadMask));
  const __m256i v_stride = _mm256_set1_epi32(static_cast<int>(stride));
  const __m256i v_noslot = _mm256_set1_epi32(-1);  // MemberView::kNoSlot
  const __m256i v_ones = _mm256_set1_epi32(-1);
  const __m256i v_zero = _mm256_setzero_si256();
  const __m256i v_kind_routed = _mm256_set1_epi32(static_cast<int>(kKindRouted));
  const __m256i v_kind_unrouted =
      _mm256_set1_epi32(static_cast<int>(kKindUnrouted));
  const __m256i v_kind_bogon = _mm256_set1_epi32(static_cast<int>(kKindBogon));
  const __m256i v_all_invalid = _mm256_set1_epi32(all_invalid_);
  const __m256i v_all_unrouted = _mm256_set1_epi32(all_unrouted_);
  const __m256i v_all_bogon = _mm256_set1_epi32(all_bogon_);
  const __m256i v_ff = _mm256_set1_epi32(0xFF);
  const __m256i v_0f0f = _mm256_set1_epi32(0x0F0F);
  const __m256i v_3333 = _mm256_set1_epi32(0x3333);
  const __m256i v_5555 = _mm256_set1_epi32(0x5555);

  Asn last_member = net::kNoAsn;
  std::uint32_t last_slot = MemberView::kNoSlot;
  bool have_last = false;

  for (std::size_t t = 0; t < n; t += kTile) {
    const std::size_t m = std::min(kTile, n - t);
    const std::uint32_t* s = src + t;
    const Asn* mem = member + t;
    Label* lab = out + t;
    sc.pending.clear();

    // --- pass A: 8-wide base-table gather --------------------------------
    const std::size_t vec_end = m & ~std::size_t{7};
    std::size_t i = 0;
    for (; i < vec_end; i += 8) {
      if (i + kGatherPrefetch + 8 <= m) {
        for (std::size_t j = 0; j < 8; ++j) {
          prefetch_ro(base + (s[i + kGatherPrefetch + j] >> 8));
        }
      }
      const __m256i v_src = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(s + i));
      const __m256i v_idx = _mm256_srli_epi32(v_src, 8);
      const __m256i v_entry = _mm256_i32gather_epi32(
          reinterpret_cast<const int*>(base), v_idx, 4);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(sc.entry.data() + i),
                          v_entry);
    }
    for (; i < m; ++i) sc.entry[i] = base[s[i] >> 8];

    // --- pass B: member slots + record prefetch --------------------------
    for (i = 0; i < m; ++i) {
      const Asn a = mem[i];
      if (!have_last || a != last_member) {
        last_member = a;
        last_slot = slot_of(a);
        have_last = true;
      }
      sc.slot[i] = last_slot;
      const std::uint32_t e = sc.entry[i];
      if ((e >> kKindShift) == kKindRouted &&
          last_slot != MemberView::kNoSlot) {
        prefetch_ro(recs + std::size_t{last_slot} * stride +
                    (e & kPayloadMask));
      }
    }

    // --- pass C: 8-wide record resolve + label pack + compaction ---------
    for (i = 0; i < vec_end; i += 8) {
      const __m256i v_entry = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(sc.entry.data() + i));
      const __m256i v_slot = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(sc.slot.data() + i));
      const __m256i v_kind = _mm256_srli_epi32(v_entry, kKindShift);
      const __m256i v_pid = _mm256_and_si256(v_entry, v_payload);
      const __m256i m_routed = _mm256_cmpeq_epi32(v_kind, v_kind_routed);
      const __m256i m_known =
          _mm256_xor_si256(_mm256_cmpeq_epi32(v_slot, v_noslot), v_ones);
      const __m256i m_gather = _mm256_and_si256(m_routed, m_known);
      const __m256i v_off =
          _mm256_add_epi32(_mm256_mullo_epi32(v_slot, v_stride), v_pid);
      // Masked 32-bit gather over the 16-bit records (scale 2); masked
      // lanes are never dereferenced, the high half is discarded below.
      __m256i v_rec = _mm256_mask_i32gather_epi32(
          v_zero, reinterpret_cast<const int*>(recs), v_off, m_gather, 2);
      v_rec = _mm256_and_si256(v_rec, _mm256_set1_epi32(0xFFFF));
      // Bit-spread the full-coverage mask (bit k -> bit 2k) and OR over
      // the all-Invalid pattern: Invalid (0b10) flips to Valid (0b11)
      // per fully-covered method — the vector form of classify_routed.
      __m256i v_valid = _mm256_and_si256(v_rec, v_ff);
      v_valid = _mm256_and_si256(
          _mm256_or_si256(v_valid, _mm256_slli_epi32(v_valid, 4)), v_0f0f);
      v_valid = _mm256_and_si256(
          _mm256_or_si256(v_valid, _mm256_slli_epi32(v_valid, 2)), v_3333);
      v_valid = _mm256_and_si256(
          _mm256_or_si256(v_valid, _mm256_slli_epi32(v_valid, 1)), v_5555);
      __m256i v_label = _mm256_or_si256(v_all_invalid, v_valid);
      v_label = _mm256_blendv_epi8(
          v_label, v_all_unrouted, _mm256_cmpeq_epi32(v_kind, v_kind_unrouted));
      v_label = _mm256_blendv_epi8(
          v_label, v_all_bogon, _mm256_cmpeq_epi32(v_kind, v_kind_bogon));
      const __m128i packed = _mm_packus_epi32(
          _mm256_castsi256_si128(v_label), _mm256_extracti128_si256(v_label, 1));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(lab + i), packed);
      // Slow-lane rows: overflow entries, or routed+known records with
      // any partial bit — their labels above are provisional.
      const __m256i m_overflow =
          _mm256_cmpeq_epi32(v_kind, _mm256_set1_epi32(3));
      const __m256i v_partial =
          _mm256_and_si256(_mm256_srli_epi32(v_rec, 8), v_ff);
      const __m256i m_partial = _mm256_and_si256(
          m_gather,
          _mm256_xor_si256(_mm256_cmpeq_epi32(v_partial, v_zero), v_ones));
      std::uint32_t bits = static_cast<std::uint32_t>(_mm256_movemask_ps(
          _mm256_castsi256_ps(_mm256_or_si256(m_overflow, m_partial))));
      while (bits != 0) {
        const int j = std::countr_zero(bits);
        bits &= bits - 1;
        sc.pending.push_back(static_cast<std::uint32_t>(i) + j);
      }
    }
    // Ragged tail: full scalar per-row resolution (already slot-resolved).
    for (i = vec_end; i < m; ++i) {
      lab[i] = classify_all(net::Ipv4Addr(s[i]), view_for(mem[i], sc.slot[i]));
    }

    // --- pass D (phase 2): exact slow lane for the compacted rows --------
    resolve_pending(s, mem, sc.entry.data(), sc.slot.data(), sc.pending.data(),
                    sc.pending.size(), lab);
  }
}

}  // namespace spoofscope::classify

#endif  // SPOOFSCOPE_KERNEL_AVX2

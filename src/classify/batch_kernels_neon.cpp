// NEON batch kernel for the flat plane: the same two-phase tile structure
// as the AVX2 kernel at 4-wide width. AArch64 has no gather, so passes A
// and B stay scalar (prefetched loads feeding the entry/slot scratch) and
// pass C vectorizes the arithmetic tail of the hot path — record-derived
// bit-spread, kind-driven selects, and the 16-bit label narrowing — which
// is where the scalar loop spends its non-memory cycles. Slow-lane rows
// (overflow entries, partial-bit records) are compacted and re-run
// through the exact scalar paths, so labels are bit-identical to the
// scalar oracle at any batch size, including tails shorter than 4.
#include "classify/batch_kernels.hpp"

#if SPOOFSCOPE_KERNEL_NEON

#include <arm_neon.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "classify/flat_classifier.hpp"
#include "net/flow_batch.hpp"

namespace spoofscope::classify {

namespace {

constexpr std::size_t kTile = 4096;
constexpr std::size_t kLoadPrefetch = 16;

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

void FlatClassifier::kernel_neon(const std::uint32_t* src, const Asn* member,
                                 std::size_t n, Label* out) const {
  Scratch& sc = scratch();
  const std::uint32_t* base = base_.data();
  const std::uint16_t* recs = records_.data();
  const std::uint32_t stride = static_cast<std::uint32_t>(record_stride_);

  const uint32x4_t v_zero = vdupq_n_u32(0);
  const uint32x4_t v_kind_unrouted = vdupq_n_u32(kKindUnrouted);
  const uint32x4_t v_kind_bogon = vdupq_n_u32(kKindBogon);
  const uint32x4_t v_kind_overflow = vdupq_n_u32(kKindOverflow);
  const uint32x4_t v_all_invalid = vdupq_n_u32(all_invalid_);
  const uint32x4_t v_all_unrouted = vdupq_n_u32(all_unrouted_);
  const uint32x4_t v_all_bogon = vdupq_n_u32(all_bogon_);
  const uint32x4_t v_ff = vdupq_n_u32(0xFF);
  const uint32x4_t v_0f0f = vdupq_n_u32(0x0F0F);
  const uint32x4_t v_3333 = vdupq_n_u32(0x3333);
  const uint32x4_t v_5555 = vdupq_n_u32(0x5555);

  Asn last_member = net::kNoAsn;
  std::uint32_t last_slot = MemberView::kNoSlot;
  bool have_last = false;

  for (std::size_t t = 0; t < n; t += kTile) {
    const std::size_t m = std::min(kTile, n - t);
    const std::uint32_t* s = src + t;
    const Asn* mem = member + t;
    Label* lab = out + t;
    sc.pending.clear();

    // --- pass A: base-table loads with prefetch lookahead ----------------
    for (std::size_t i = 0; i < m; ++i) {
      if (i + kLoadPrefetch < m) {
        prefetch_ro(base + (s[i + kLoadPrefetch] >> 8));
      }
      sc.entry[i] = base[s[i] >> 8];
    }

    // --- pass B: member slots + record prefetch --------------------------
    for (std::size_t i = 0; i < m; ++i) {
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

    // --- pass C: 4-wide label resolve + compaction -----------------------
    const std::size_t vec_end = m & ~std::size_t{3};
    std::size_t i = 0;
    for (; i < vec_end; i += 4) {
      const uint32x4_t v_entry = vld1q_u32(sc.entry.data() + i);
      const uint32x4_t v_kind = vshrq_n_u32(v_entry, 30);
      alignas(16) std::uint32_t rec_tmp[4];
      alignas(16) std::uint32_t partial_tmp[4];
      for (std::size_t j = 0; j < 4; ++j) {
        const std::uint32_t e = sc.entry[i + j];
        const std::uint32_t sl = sc.slot[i + j];
        const std::uint32_t rec =
            ((e >> kKindShift) == kKindRouted && sl != MemberView::kNoSlot)
                ? recs[std::size_t{sl} * stride + (e & kPayloadMask)]
                : 0u;
        rec_tmp[j] = rec;
        partial_tmp[j] = rec >> 8;
      }
      const uint32x4_t v_rec = vld1q_u32(rec_tmp);
      uint32x4_t v_valid = vandq_u32(v_rec, v_ff);
      v_valid = vandq_u32(vorrq_u32(v_valid, vshlq_n_u32(v_valid, 4)), v_0f0f);
      v_valid = vandq_u32(vorrq_u32(v_valid, vshlq_n_u32(v_valid, 2)), v_3333);
      v_valid = vandq_u32(vorrq_u32(v_valid, vshlq_n_u32(v_valid, 1)), v_5555);
      uint32x4_t v_label = vorrq_u32(v_all_invalid, v_valid);
      v_label = vbslq_u32(vceqq_u32(v_kind, v_kind_unrouted), v_all_unrouted,
                          v_label);
      v_label = vbslq_u32(vceqq_u32(v_kind, v_kind_bogon), v_all_bogon,
                          v_label);
      vst1_u16(lab + i, vmovn_u32(v_label));
      const uint32x4_t m_slow =
          vorrq_u32(vceqq_u32(v_kind, v_kind_overflow),
                    vmvnq_u32(vceqq_u32(vld1q_u32(partial_tmp), v_zero)));
      alignas(16) std::uint32_t slow_tmp[4];
      vst1q_u32(slow_tmp, m_slow);
      for (std::size_t j = 0; j < 4; ++j) {
        if (slow_tmp[j] != 0) {
          sc.pending.push_back(static_cast<std::uint32_t>(i + j));
        }
      }
    }
    for (; i < m; ++i) {
      lab[i] = classify_all(net::Ipv4Addr(s[i]), view_for(mem[i], sc.slot[i]));
    }

    // --- pass D (phase 2): exact slow lane for the compacted rows --------
    resolve_pending(s, mem, sc.entry.data(), sc.slot.data(), sc.pending.data(),
                    sc.pending.size(), lab);
  }
}

}  // namespace spoofscope::classify

#endif  // SPOOFSCOPE_KERNEL_NEON

// AVX2 trace-record decoder: verifies and decodes 64 v2 records per step.
//
// FNV-1a-32 is a serial chain (xor a byte, multiply), so one record's
// checksum costs 36 dependent multiplies. A vpmulld has a latency of
// about ten cycles but issues every cycle, so the kernel runs enough
// independent chains to keep the multiplier busy: each 8-lane vector
// holds the chains of 8 records, and 8 such vectors advance in lockstep,
// 64 records per step. The math per chain is exactly format::fnv1a32, so
// the format and its checksum are unchanged.
//
// Per step:
//   1. transpose: each 8-record slice is loaded as 128-bit quarters
//      paired across records r and r+4, so in-lane 4x4 transposes (plus
//      a pair shuffle for words 8-9) give vectors whose lane r holds
//      32-bit word w of record r, for all ten words of a record;
//   2. hash: 36 rounds over the payload bytes (words 0-8, low byte
//      first, as the chain reads memory), one vpmulld per slice per
//      round;
//   3. compare each lane with word 9 (the stored sum) and return the
//      length of the verified prefix;
//   4. store every FlowBatch lane straight from the word vectors.
//
// All 64 rows are written whether or not they verify: the caller owns
// room for them and counts only the verified prefix, and rows past it
// are rewritten or given back with FlowBatch::shrink. Damage therefore
// still surfaces at one-record granularity, in the caller's per-record
// path, exactly as with the scalar lockstep.
#include "net/trace_format.hpp"

#if SPOOFSCOPE_KERNEL_AVX2

#include <immintrin.h>

#include <bit>

namespace spoofscope::net::format {

namespace {

static_assert(kRecordSizeV2 == 40 && kPayloadSize == 36,
              "the transpose below assumes ten 32-bit words per record");
static_assert(sizeof(Asn) == 4, "member lanes are stored as 32-bit words");

constexpr std::size_t kLanes = 8;   // records per vector (one chain each)
constexpr std::size_t kSlices = kAvx2Group / kLanes;  // vectors in lockstep
constexpr std::size_t kWords = kRecordSizeV2 / 4;     // 9 payload + the sum
constexpr std::size_t kPayloadWords = kPayloadSize / 4;

using Words = __m256i[kWords];

__m256i load_pair(const std::uint8_t* lo, const std::uint8_t* hi) {
  return _mm256_inserti128_si256(
      _mm256_castsi128_si256(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(lo))),
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(hi)), 1);
}

/// 4x4 transpose of 32-bit words inside each 128-bit lane: row r holds
/// words [4q, 4q+4) of records r (low lane) and r + 4 (high lane); out
/// w holds word 4q + w of records 0-3 | 4-7.
void transpose4(const __m256i (&row)[4], __m256i* out) {
  const __m256i t0 = _mm256_unpacklo_epi32(row[0], row[1]);
  const __m256i t1 = _mm256_unpackhi_epi32(row[0], row[1]);
  const __m256i t2 = _mm256_unpacklo_epi32(row[2], row[3]);
  const __m256i t3 = _mm256_unpackhi_epi32(row[2], row[3]);
  out[0] = _mm256_unpacklo_epi64(t0, t2);
  out[1] = _mm256_unpackhi_epi64(t0, t2);
  out[2] = _mm256_unpacklo_epi64(t1, t3);
  out[3] = _mm256_unpackhi_epi64(t1, t3);
}

/// Lane r of w[k] = 32-bit word k of the record at p + r * 40.
void transpose_slice(const std::uint8_t* p, Words& w) {
  const auto rec = [p](std::size_t r) { return p + r * kRecordSizeV2; };
  for (std::size_t q = 0; q < 2; ++q) {
    const __m256i row[4] = {load_pair(rec(0) + 16 * q, rec(4) + 16 * q),
                            load_pair(rec(1) + 16 * q, rec(5) + 16 * q),
                            load_pair(rec(2) + 16 * q, rec(6) + 16 * q),
                            load_pair(rec(3) + 16 * q, rec(7) + 16 * q)};
    transpose4(row, w + 4 * q);
  }
  // Words 8-9 (member ids, stored sum): one 64-bit load per record,
  // paired up, then even/odd words split out of each 128-bit lane.
  const auto tail = [&rec](std::size_t a, std::size_t b) {
    return _mm_unpacklo_epi64(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(rec(a) + 32)),
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(rec(b) + 32)));
  };
  const __m256 lo = _mm256_castsi256_ps(
      _mm256_inserti128_si256(_mm256_castsi128_si256(tail(0, 1)), tail(4, 5), 1));
  const __m256 hi = _mm256_castsi256_ps(
      _mm256_inserti128_si256(_mm256_castsi128_si256(tail(2, 3)), tail(6, 7), 1));
  w[8] = _mm256_castps_si256(_mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(2, 0, 2, 0)));
  w[9] = _mm256_castps_si256(_mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(3, 1, 3, 1)));
}

/// Writes the 8 records of one slice into rows [i, i + 8).
void store_slice(const Words& w, const FlowBatch::Rows& rows, std::size_t i) {
  const __m256i lo16 = _mm256_set1_epi32(0xFFFF);
  const auto store = [](void* dst, __m256i v) {
    _mm256_storeu_si256(static_cast<__m256i*>(dst), v);
  };
  store(rows.ts + i, w[0]);
  store(rows.src + i, w[1]);
  store(rows.dst + i, w[2]);
  store(rows.packets + i, w[5]);
  store(rows.member_in + i, _mm256_and_si256(w[8], lo16));
  store(rows.member_out + i, _mm256_srli_epi32(w[8], 16));
  // Ports: sport is the high half of word 3, dport the low half of
  // word 4. packus lays out [s0-3 d0-3 | s4-7 d4-7]; the qword permute
  // makes that [s0-7 | d0-7].
  const __m256i ports = _mm256_permute4x64_epi64(
      _mm256_packus_epi32(_mm256_srli_epi32(w[3], 16),
                          _mm256_and_si256(w[4], lo16)),
      _MM_SHUFFLE(3, 1, 2, 0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(rows.sport + i),
                   _mm256_castsi256_si128(ports));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(rows.dport + i),
                   _mm256_extracti128_si256(ports, 1));
  // Bytes: (word 6, word 7) little-endian halves of a 64-bit count.
  const __m256i b01 = _mm256_unpacklo_epi32(w[6], w[7]);  // r0 r1 | r4 r5
  const __m256i b23 = _mm256_unpackhi_epi32(w[6], w[7]);  // r2 r3 | r6 r7
  store(rows.bytes + i, _mm256_permute2x128_si256(b01, b23, 0x20));
  store(rows.bytes + i + 4, _mm256_permute2x128_si256(b01, b23, 0x31));
  // Proto: byte 0 of word 3, gathered to the low dword of each lane.
  const __m256i proto = _mm256_shuffle_epi8(
      w[3], _mm256_setr_epi8(0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1,
                             -1, -1, -1, 0, 4, 8, 12, -1, -1, -1, -1, -1, -1,
                             -1, -1, -1, -1, -1, -1));
  _mm_storel_epi64(reinterpret_cast<__m128i*>(rows.proto + i),
                   _mm_unpacklo_epi32(_mm256_castsi256_si128(proto),
                                      _mm256_extracti128_si256(proto, 1)));
}

}  // namespace

std::size_t decode_group_avx2(const std::uint8_t* p,
                              const FlowBatch::Rows& rows, std::size_t i) {
  Words words[kSlices];
  for (std::size_t s = 0; s < kSlices; ++s) {
    transpose_slice(p + s * kLanes * kRecordSizeV2, words[s]);
  }

  const __m256i prime = _mm256_set1_epi32(16777619);
  const __m256i lo8 = _mm256_set1_epi32(0xFF);
  __m256i h[kSlices];
  for (__m256i& x : h) x = _mm256_set1_epi32(static_cast<int>(2166136261u));
  const auto round = [&](std::size_t w, auto byte_of) {
    for (std::size_t s = 0; s < kSlices; ++s) {
      h[s] = _mm256_mullo_epi32(_mm256_xor_si256(h[s], byte_of(words[s][w])),
                                prime);
    }
  };
  for (std::size_t w = 0; w < kPayloadWords; ++w) {
    round(w, [&](__m256i v) { return _mm256_and_si256(v, lo8); });
    round(w, [&](__m256i v) {
      return _mm256_and_si256(_mm256_srli_epi32(v, 8), lo8);
    });
    round(w, [&](__m256i v) {
      return _mm256_and_si256(_mm256_srli_epi32(v, 16), lo8);
    });
    round(w, [](__m256i v) { return _mm256_srli_epi32(v, 24); });
  }

  std::uint64_t ok = 0;
  for (std::size_t s = 0; s < kSlices; ++s) {
    const __m256i eq = _mm256_cmpeq_epi32(h[s], words[s][kPayloadWords]);
    const auto bits = static_cast<std::uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(eq)));
    ok |= std::uint64_t{bits} << (s * kLanes);
  }

  for (std::size_t s = 0; s < kSlices; ++s) {
    store_slice(words[s], rows, i + s * kLanes);
  }
  return static_cast<std::size_t>(std::countr_one(ok));
}

}  // namespace spoofscope::net::format

#endif  // SPOOFSCOPE_KERNEL_AVX2

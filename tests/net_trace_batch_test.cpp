// Suite for the one trace decode path, MappedTraceReader::next_batch:
//
//  - golden decode digests: an FNV-1a-64 over (delivered records, every
//    IngestStats counter, error string) for clean and corrupted streams
//    under both policies, pinned from the previous decoder so any change
//    to records delivered, resync behaviour or accounting fails loudly;
//  - batch-cut invariance: random batch sizes in [1, 400] deliver the
//    same digest as one whole-trace batch, and a real mmap of the bytes
//    the same digest as MappedTrace::from_buffer;
//  - batch-boundary edges: batch size 1, batch larger than the trace,
//    empty trace, empty file;
//  - verification-group edges: one damaged record at every position of
//    the first three lockstep groups, and a declared count ending
//    mid-group, each read whole and at batch sizes that cut groups;
//  - FlowBatch::grow/shrink, the in-place row API the decoder writes;
//  - v1 streams (no record checksums, no longer supported) are rejected
//    as an unsupported version, loudly in strict mode, counted in skip.
#include "net/trace.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "corruption.hpp"
#include "net/flow_batch.hpp"
#include "net/mapped_trace.hpp"
#include "net/trace_format.hpp"
#include "util/error_policy.hpp"
#include "util/rng.hpp"

namespace spoofscope::net {
namespace {

namespace fs = std::filesystem;

FlowRecord make_flow(util::Rng& rng) {
  FlowRecord f;
  f.ts = rng.uniform_u32(0, kFourWeeks);
  f.src = Ipv4Addr(rng.next_u32());
  f.dst = Ipv4Addr(rng.next_u32());
  f.proto = rng.chance(0.5) ? Proto::kTcp : Proto::kUdp;
  f.sport = static_cast<std::uint16_t>(rng.uniform_u32(0, 65535));
  f.dport = static_cast<std::uint16_t>(rng.uniform_u32(0, 65535));
  f.packets = rng.uniform_u32(1, 1000);
  f.bytes = rng.uniform_u64(40, 1500ull * 1000);
  f.member_in = rng.uniform_u32(1, 65535);
  f.member_out = rng.uniform_u32(1, 65535);
  return f;
}

Trace make_trace(std::size_t flows, std::uint64_t seed) {
  util::Rng rng(seed);
  Trace t;
  t.meta.sampling_rate = 1000;
  t.meta.window_seconds = kFourWeeks;
  t.meta.seed = seed;
  for (std::size_t i = 0; i < flows; ++i) t.flows.push_back(make_flow(rng));
  return t;
}

std::string trace_bytes(const Trace& t) {
  std::stringstream ss;
  write_trace(ss, t);
  return ss.str();
}

std::string make_trace_bytes(std::size_t flows, std::uint64_t seed) {
  return trace_bytes(make_trace(flows, seed));
}

MappedTrace buffer_of(const std::string& bytes) {
  return MappedTrace::from_buffer(
      std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
}

/// Writes `bytes` to a per-process temp file and removes it on scope exit,
/// so the same bytes can be read through a real mmap.
class TempTraceFile {
 public:
  TempTraceFile(const std::string& tag, const std::string& bytes)
      : path_(fs::temp_directory_path() /
              ("spoofscope-" + tag + "-" + std::to_string(::getpid()) +
               ".trace")) {
    std::ofstream out(path_, std::ios::binary);
    out << bytes;
  }
  ~TempTraceFile() { fs::remove(path_); }
  std::string path() const { return path_.string(); }

 private:
  fs::path path_;
};

struct ReadResult {
  std::vector<FlowRecord> records;
  util::IngestStats stats;
  std::string error;  ///< what() of the throw, empty on success
};

constexpr std::size_t kWholeTrace = std::numeric_limits<std::size_t>::max();

/// Reads the whole mapping through next_batch, asking `next_size` for
/// each batch's record cap.
template <typename NextSize>
ReadResult read_batched(const MappedTrace& trace, util::ErrorPolicy policy,
                        NextSize next_size) {
  ReadResult r;
  FlowBatch batch;
  try {
    MappedTraceReader reader(trace, policy, &r.stats);
    while (reader.next_batch(batch, next_size()) > 0) {
      batch.append_to(r.records);
    }
  } catch (const std::exception& e) {
    // A strict-mode throw mid-batch leaves the records decoded before
    // the damage in the batch: they were delivered, so they count.
    batch.append_to(r.records);
    r.error = e.what();
  }
  return r;
}

/// With `rng`, each batch size is drawn from [1, 400] so batch
/// boundaries land everywhere, including mid-resync; without, one batch
/// takes the whole trace.
ReadResult read_all(const MappedTrace& trace, util::ErrorPolicy policy,
                    util::Rng* rng = nullptr) {
  return read_batched(trace, policy, [rng] {
    return rng ? 1 + rng->index(400) : kWholeTrace;
  });
}

ReadResult read_all(const std::string& bytes, util::ErrorPolicy policy,
                    util::Rng* rng = nullptr) {
  return read_all(buffer_of(bytes), policy, rng);
}

/// Every batch capped at `batch` records.
ReadResult read_fixed(const std::string& bytes, util::ErrorPolicy policy,
                      std::size_t batch) {
  return read_batched(buffer_of(bytes), policy, [batch] { return batch; });
}

/// FNV-1a-64 over everything a read hands back: each delivered record
/// field by field, every IngestStats counter, and the error string.
std::uint64_t digest(const ReadResult& r) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint8_t>(v >> (8 * i));
      h *= 1099511628211ull;
    }
  };
  mix(r.records.size());
  for (const FlowRecord& f : r.records) {
    mix(f.ts);
    mix(f.src.value());
    mix(f.dst.value());
    mix(static_cast<std::uint8_t>(f.proto));
    mix(f.sport);
    mix(f.dport);
    mix(f.packets);
    mix(f.bytes);
    mix(f.member_in);
    mix(f.member_out);
  }
  mix(r.stats.records_ok);
  mix(r.stats.records_skipped);
  mix(r.stats.bytes_dropped);
  for (const std::uint64_t e : r.stats.errors) mix(e);
  mix(r.error.size());
  for (const char c : r.error) mix(static_cast<std::uint8_t>(c));
  return h;
}

/// Pins one input's decode: the whole-trace batch read must hit the
/// golden digest, and random batch cuts and a real mmap of the same
/// bytes must reproduce it.
void expect_decode_digest(const std::string& bytes, util::ErrorPolicy policy,
                          std::uint64_t seed, std::uint64_t golden,
                          const std::string& what) {
  const ReadResult whole = read_all(bytes, policy);
  EXPECT_EQ(digest(whole), golden)
      << what << ": " << whole.records.size() << " records, "
      << whole.stats.summary() << ", error '" << whole.error << "'";

  util::Rng rng(seed);
  EXPECT_EQ(digest(read_all(bytes, policy, &rng)), digest(whole))
      << what << " (random batch sizes)";

  const TempTraceFile file("digest", bytes);
  const MappedTrace mapped(file.path());
  EXPECT_EQ(digest(read_all(mapped, policy)), digest(whole))
      << what << " (mmap, mapped=" << mapped.mapped() << ")";
}

constexpr util::ErrorPolicy kPolicies[] = {util::ErrorPolicy::kStrict,
                                           util::ErrorPolicy::kSkip};

const char* policy_name(util::ErrorPolicy p) {
  return p == util::ErrorPolicy::kStrict ? "strict" : "skip";
}

// ------------------------------------------------------------- clean v2

TEST(TraceBatch, CleanStreamAllPathsAgree) {
  // Golden digests per policy, recorded before the decoder was folded
  // into the mapped reader.
  constexpr std::uint64_t kGolden[] = {0x6199ec8f1b4643fdull,
                                       0x6199ec8f1b4643fdull};
  const Trace source = make_trace(1337, 7);
  const std::string bytes = trace_bytes(source);
  for (std::size_t p = 0; p < 2; ++p) {
    expect_decode_digest(bytes, kPolicies[p], 99, kGolden[p],
                         std::string("clean/") + policy_name(kPolicies[p]));
    // The write_trace round trip is the independent reference.
    EXPECT_EQ(read_all(bytes, kPolicies[p]).records, source.flows);
  }
}

TEST(TraceBatch, BatchContentMatchesPerRecordDecode) {
  const Trace source = make_trace(257, 3);
  const MappedTrace trace = buffer_of(trace_bytes(source));
  MappedTraceReader reader(trace);
  FlowBatch batch;
  ASSERT_EQ(reader.next_batch(batch, 257), 257u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const FlowRecord& f = source.flows[i];
    // Lane-by-lane against the written AoS record: the SoA transposition
    // must not mix up fields.
    EXPECT_EQ(batch.ts()[i], f.ts);
    EXPECT_EQ(batch.src()[i], f.src.value());
    EXPECT_EQ(batch.dst()[i], f.dst.value());
    EXPECT_EQ(batch.proto()[i], static_cast<std::uint8_t>(f.proto));
    EXPECT_EQ(batch.sport()[i], f.sport);
    EXPECT_EQ(batch.dport()[i], f.dport);
    EXPECT_EQ(batch.packets()[i], f.packets);
    EXPECT_EQ(batch.bytes()[i], f.bytes);
    EXPECT_EQ(batch.member_in()[i], f.member_in);
    EXPECT_EQ(batch.member_out()[i], f.member_out);
    EXPECT_EQ(batch.record(i), f);
  }
  EXPECT_EQ(reader.next_batch(batch, 257), 0u);
}

// -------------------------------------------------------- corruption fuzz

TEST(TraceBatch, CorruptedStreamFuzzAllPathsAgree) {
  using Corruptor = std::string (*)(const std::string&, util::Rng&);
  struct NamedCorruptor {
    const char* name;
    Corruptor fn;
  };
  const NamedCorruptor kCorruptors[] = {
      {"truncate",
       [](const std::string& b, util::Rng& rng) {
         return testing::truncate_bytes(b, rng, format::kHeaderSizeV2);
       }},
      {"bit-flip",
       [](const std::string& b, util::Rng& rng) {
         return testing::flip_bits(b, rng, 3, format::kHeaderSizeV2);
       }},
      {"record-drop",
       [](const std::string& b, util::Rng& rng) {
         return testing::drop_fixed_record(b, rng, format::kHeaderSizeV2,
                                           format::kRecordSizeV2);
       }},
      {"splice",
       [](const std::string& b, util::Rng& rng) {
         return testing::splice_garbage(b, rng, format::kHeaderSizeV2, 64);
       }},
  };
  // Golden digests [seed][corruptor][policy], recorded before the
  // decoder was folded into the mapped reader.
  constexpr std::uint64_t kGolden[3][4][2] = {
      {{0xa1cae4da439adc03ull, 0x6a5cfdfd4b992ecaull},
       {0x8254ba215aa483d7ull, 0x7d7583f03a15dfceull},
       {0xffc993f0c661fe2aull, 0x55c015c8192145e6ull},
       {0xca3f62a228a6f5b8ull, 0x27d4e4b6f0cc8ac9ull}},
      {{0xa1b50efea8aeddaeull, 0xc96ffee6e14318edull},
       {0x79399681cc6cd8c1ull, 0xa0984b8fd6f6d7f0ull},
       {0x0a8b8834c367ab36ull, 0x36e587749bab92faull},
       {0x6ee554503e3639d5ull, 0x7a2fb94b100ac07dull}},
      {{0xafb94b01a1bbb565ull, 0xb392063c446119a3ull},
       {0x3507a88dc49be9deull, 0xad4a85e3320f7ba8ull},
       {0x8132d825a8ef788eull, 0xc251e469058c5b82ull},
       {0x3507a88dc49be9deull, 0xd430f0b8e7cd0ceeull}},
  };
  const std::uint64_t kSeeds[] = {11, 22, 33};
  for (std::size_t s = 0; s < 3; ++s) {
    const std::uint64_t seed = kSeeds[s];
    const std::string clean = make_trace_bytes(300, seed);
    for (std::size_t c = 0; c < 4; ++c) {
      util::Rng rng(seed * 1000003);
      const std::string bad = kCorruptors[c].fn(clean, rng);
      for (std::size_t p = 0; p < 2; ++p) {
        expect_decode_digest(bad, kPolicies[p], seed ^ 0xbadc0de,
                             kGolden[s][c][p],
                             std::string(kCorruptors[c].name) +
                                 " seed=" + std::to_string(seed) + " " +
                                 policy_name(kPolicies[p]));
      }
    }
  }
}

// ------------------------------------------------------------ boundaries

TEST(TraceBatch, BatchSizeOneEqualsPerRecord) {
  const Trace source = make_trace(64, 5);
  const MappedTrace trace = buffer_of(trace_bytes(source));
  MappedTraceReader reader(trace);
  FlowBatch batch;
  std::size_t i = 0;
  while (reader.next_batch(batch, 1) == 1) {
    ASSERT_LT(i, source.flows.size());
    EXPECT_EQ(batch.record(0), source.flows[i++]);
  }
  EXPECT_EQ(i, source.flows.size());
}

TEST(TraceBatch, BatchLargerThanTraceDeliversEverythingOnce) {
  const MappedTrace trace = buffer_of(make_trace_bytes(50, 5));
  MappedTraceReader reader(trace);
  FlowBatch batch;
  EXPECT_EQ(reader.next_batch(batch, 1u << 20), 50u);
  EXPECT_EQ(batch.size(), 50u);
  EXPECT_EQ(reader.next_batch(batch, 1u << 20), 0u);
  EXPECT_TRUE(batch.empty());  // next_batch clears even at end of stream
}

TEST(TraceBatch, EmptyTraceYieldsEmptyBatch) {
  const std::string bytes = make_trace_bytes(0, 5);
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_TRUE(read_trace(in).flows.empty());

  const MappedTrace trace = buffer_of(bytes);
  MappedTraceReader mapped(trace);
  FlowBatch batch;
  EXPECT_EQ(mapped.next_batch(batch, 8), 0u);
}

TEST(TraceBatch, EmptyInputSkipModeYieldsNothingStrictThrows) {
  const std::string bytes;
  const ReadResult skip = read_all(bytes, util::ErrorPolicy::kSkip);
  EXPECT_TRUE(skip.error.empty());
  EXPECT_TRUE(skip.records.empty());
  EXPECT_EQ(skip.stats.errors[static_cast<int>(util::ErrorKind::kTruncated)],
            1u);
  const ReadResult strict = read_all(bytes, util::ErrorPolicy::kStrict);
  EXPECT_NE(strict.error.find("truncated header"), std::string::npos);
}

// ----------------------------------------------------- verification groups

/// Batch caps for the group-edge tests: the whole trace, one record, and
/// sizes whose batches end before, inside and just past a group of 8.
constexpr std::size_t kGroupEdgeBatches[] = {kWholeTrace, 1, 7, 9, 13};

std::string batch_name(std::size_t b) {
  return b == kWholeTrace ? "whole" : std::to_string(b);
}

TEST(TraceBatch, DamagedRecordAtEachGroupPosition) {
  // One flipped byte in record k, for every k across the first three
  // lockstep verification groups, at a different byte of the record each
  // time (payload and stored checksum alike). The damage must surface at
  // exactly record k: strict delivers records [0, k) and throws; skip
  // loses only record k, as one 40-byte checksum region plus the count
  // mismatch it causes.
  const Trace source = make_trace(64, 17);
  const std::string clean = trace_bytes(source);
  util::IngestStats want_skip;
  want_skip.records_ok = 63;
  want_skip.records_skipped = 1;
  want_skip.bytes_dropped = format::kRecordSizeV2;
  want_skip.errors[static_cast<int>(util::ErrorKind::kChecksum)] = 1;
  want_skip.errors[static_cast<int>(util::ErrorKind::kCountMismatch)] = 1;
  for (std::size_t k = 0; k < 24; ++k) {
    std::string bad = clean;
    const std::size_t at = format::kHeaderSizeV2 + k * format::kRecordSizeV2 +
                           (k * 7) % format::kRecordSizeV2;
    bad[at] = static_cast<char>(bad[at] ^ 0x5A);
    const std::vector<FlowRecord> before(source.flows.begin(),
                                         source.flows.begin() + k);
    std::vector<FlowRecord> survivors = source.flows;
    survivors.erase(survivors.begin() + k);
    util::IngestStats want_strict;
    want_strict.records_ok = k;
    for (const std::size_t b : kGroupEdgeBatches) {
      const std::string what =
          "record " + std::to_string(k) + ", batch " + batch_name(b);
      const ReadResult strict = read_fixed(bad, util::ErrorPolicy::kStrict, b);
      EXPECT_EQ(strict.error, "read_trace: record checksum mismatch") << what;
      EXPECT_EQ(strict.records, before) << what;
      EXPECT_EQ(strict.stats, want_strict) << what;
      const ReadResult skip = read_fixed(bad, util::ErrorPolicy::kSkip, b);
      EXPECT_EQ(skip.error, "") << what;
      EXPECT_EQ(skip.records, survivors) << what;
      EXPECT_EQ(skip.stats, want_skip) << what << ": " << skip.stats.summary();
    }
  }
}

TEST(TraceBatch, DeclaredCountEndingMidGroup) {
  // The header declares 20 of the 64 valid records, so the count ends
  // four records into the third verification group. Strict delivers
  // exactly the declared records and ignores the valid ones after them;
  // skip delivers every record that validates and notes the mismatch.
  const Trace source = make_trace(64, 19);
  std::string bytes = trace_bytes(source);
  auto* h = reinterpret_cast<std::uint8_t*>(bytes.data());
  format::put_u64(h + 24, 20);  // declared record count
  format::put_u32(h + format::kHeaderBody,
                  format::fnv1a32(h, format::kHeaderBody));
  const std::vector<FlowRecord> declared(source.flows.begin(),
                                         source.flows.begin() + 20);
  util::IngestStats want_strict;
  want_strict.records_ok = 20;
  util::IngestStats want_skip;
  want_skip.records_ok = 64;
  want_skip.errors[static_cast<int>(util::ErrorKind::kCountMismatch)] = 1;
  for (const std::size_t b : kGroupEdgeBatches) {
    const std::string what = "batch " + batch_name(b);
    const ReadResult strict = read_fixed(bytes, util::ErrorPolicy::kStrict, b);
    EXPECT_EQ(strict.error, "") << what;
    EXPECT_EQ(strict.records, declared) << what;
    EXPECT_EQ(strict.stats, want_strict) << what;
    const ReadResult skip = read_fixed(bytes, util::ErrorPolicy::kSkip, b);
    EXPECT_EQ(skip.error, "") << what;
    EXPECT_EQ(skip.records, source.flows) << what;
    EXPECT_EQ(skip.stats, want_skip) << what << ": " << skip.stats.summary();
  }
}

TEST(FlowBatch, GrowWritesRowsInPlaceShrinkDropsThem) {
  const std::vector<FlowRecord> flows = make_trace(3, 29).flows;
  FlowBatch batch;
  batch.push_back(flows[0]);
  const FlowBatch::Rows rows = batch.grow(4);
  ASSERT_EQ(batch.size(), 5u);
  for (std::size_t i = 0; i < 2; ++i) {
    const FlowRecord& f = flows[i + 1];
    rows.ts[i] = f.ts;
    rows.src[i] = f.src.value();
    rows.dst[i] = f.dst.value();
    rows.proto[i] = static_cast<std::uint8_t>(f.proto);
    rows.sport[i] = f.sport;
    rows.dport[i] = f.dport;
    rows.packets[i] = f.packets;
    rows.bytes[i] = f.bytes;
    rows.member_in[i] = f.member_in;
    rows.member_out[i] = f.member_out;
  }
  batch.shrink(2);  // the two rows never written
  std::vector<FlowRecord> got;
  batch.append_to(got);
  EXPECT_EQ(got, flows);
  batch.clear();
  EXPECT_TRUE(batch.empty());
}

// --------------------------------------------------- mmap vs file fallback

TEST(TraceBatch, MappedFileAndFallbackBufferAgree) {
  const std::string bytes = make_trace_bytes(200, 13);
  const TempTraceFile file("batch", bytes);
  const MappedTrace from_file(file.path());
  const MappedTrace from_buf = buffer_of(bytes);
  EXPECT_FALSE(from_buf.mapped());
  ASSERT_EQ(from_file.bytes().size(), from_buf.bytes().size());

  MappedTraceReader a(from_file);
  MappedTraceReader b(from_buf);
  FlowBatch ba, bb;
  for (;;) {
    const std::size_t na = a.next_batch(ba, 77);
    const std::size_t nb = b.next_batch(bb, 77);
    ASSERT_EQ(na, nb);
    if (na == 0) break;
    for (std::size_t i = 0; i < na; ++i) {
      ASSERT_EQ(ba.record(i), bb.record(i));
    }
  }
}

TEST(TraceBatch, DropConsumedPreservesRecordStreamAndStats) {
  // Releasing consumed pages is purely advisory: a mapped reader that
  // drops after every batch must deliver the identical record stream
  // and stats as one that never drops, on both the real mapping and
  // the fallback buffer (where drop_consumed is a no-op).
  const std::string bytes = make_trace_bytes(500, 21);
  const TempTraceFile file("drop", bytes);
  const ReadResult ref = read_all(bytes, util::ErrorPolicy::kSkip);
  const MappedTrace from_file(file.path());
  const MappedTrace from_buf = buffer_of(bytes);
  for (const MappedTrace* trace : {&from_file, &from_buf}) {
    util::IngestStats stats;
    MappedTraceReader reader(*trace, util::ErrorPolicy::kSkip, &stats);
    std::vector<FlowRecord> got;
    FlowBatch batch;
    while (reader.next_batch(batch, 64) > 0) {
      batch.append_to(got);
      reader.drop_consumed();
    }
    reader.drop_consumed();  // past end of stream: must be harmless
    EXPECT_EQ(got, ref.records) << (trace->mapped() ? "mapped" : "buffer");
    EXPECT_EQ(stats, ref.stats) << (trace->mapped() ? "mapped" : "buffer");
  }
}

TEST(TraceBatch, MappedTraceMissingFileThrows) {
  EXPECT_THROW(MappedTrace("/nonexistent-spoofscope-dir/no.trace"),
               std::runtime_error);
}

// -------------------------------------------------------------- v1 format

TEST(TraceBatch, V1HeaderIsRejectedAsUnsupportedVersion) {
  // Hand-built v1 stream: the 32-byte header without a checksum, then
  // bare 36-byte records. write_trace has only ever emitted v2 since the
  // checksummed format landed, and v1 is no longer read.
  const std::vector<FlowRecord> flows = make_trace(10, 23).flows;
  std::string bytes(format::kHeaderBody, '\0');
  auto* h = reinterpret_cast<std::uint8_t*>(bytes.data());
  format::put_u32(h + 0, format::kMagic);
  format::put_u32(h + 4, 1);           // version
  format::put_u32(h + 8, 1000);        // sampling_rate
  format::put_u32(h + 12, kFourWeeks); // window_seconds
  format::put_u64(h + 16, 42);         // seed
  format::put_u64(h + 24, flows.size());
  for (const auto& f : flows) {
    std::uint8_t rec[format::kPayloadSize];
    format::encode_record(f, rec);
    bytes.append(reinterpret_cast<const char*>(rec), sizeof(rec));
  }

  const auto bad_version = [](const util::IngestStats& stats) {
    return stats.errors[static_cast<int>(util::ErrorKind::kBadVersion)];
  };
  {
    std::istringstream in(bytes, std::ios::binary);
    try {
      (void)read_trace(in);
      ADD_FAILURE() << "read_trace accepted a v1 stream";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "read_trace: unsupported version");
    }
    std::istringstream skip_in(bytes, std::ios::binary);
    util::IngestStats stats;
    EXPECT_TRUE(
        read_trace(skip_in, util::ErrorPolicy::kSkip, &stats).flows.empty());
    EXPECT_EQ(bad_version(stats), 1u);
  }
  const ReadResult strict = read_all(bytes, util::ErrorPolicy::kStrict);
  EXPECT_EQ(strict.error, "read_trace: unsupported version");
  EXPECT_TRUE(strict.records.empty());
  const ReadResult skip = read_all(bytes, util::ErrorPolicy::kSkip);
  EXPECT_TRUE(skip.error.empty());
  EXPECT_TRUE(skip.records.empty());
  EXPECT_EQ(bad_version(skip.stats), 1u);
}

}  // namespace
}  // namespace spoofscope::net

// Snapshot container: round-trips, layout invariants (alignment, pinned
// total size, zero padding), crash-safe writes, and the corruption
// contract — every truncation and every flipped bit must surface as a
// SnapshotError, never as silently-wrong data. The fuzz loops lean on
// the fact that every byte of a snapshot is covered by some check.
#include "state/snapshot.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "corruption.hpp"
#include "util/rng.hpp"

namespace spoofscope::state {
namespace {

namespace fs = std::filesystem;

std::vector<std::uint8_t> to_bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

std::string to_string(const std::vector<std::uint8_t>& v) {
  return {v.begin(), v.end()};
}

/// A representative two-section snapshot exercising every lane type.
SnapshotWriter sample_writer() {
  SnapshotWriter writer(PayloadKind::kDetector, 3);
  SectionBuilder a;
  a.u8(0xAB);
  a.u16(0xBEEF);
  a.u32(0xDEADBEEFu);
  a.u64(0x0123456789ABCDEFull);
  a.f64(-1234.5678);
  writer.add_section(7, a.take());
  SectionBuilder b;
  for (std::uint32_t i = 0; i < 100; ++i) b.u32(i * 2654435761u);
  writer.add_section(9, b.take());
  return writer;
}

TEST(Snapshot, RoundTripsEveryLaneType) {
  const auto bytes = sample_writer().serialize();
  const SnapshotView view = parse_snapshot(bytes, PayloadKind::kDetector, 3);
  EXPECT_EQ(view.kind(), PayloadKind::kDetector);
  EXPECT_EQ(view.payload_version(), 3u);
  EXPECT_EQ(view.section_count(), 2u);
  EXPECT_TRUE(view.has(7));
  EXPECT_TRUE(view.has(9));
  EXPECT_FALSE(view.has(8));

  SectionReader a(view.section(7));
  EXPECT_EQ(a.u8(), 0xAB);
  EXPECT_EQ(a.u16(), 0xBEEF);
  EXPECT_EQ(a.u32(), 0xDEADBEEFu);
  EXPECT_EQ(a.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(a.f64(), -1234.5678);  // bit-exact, not approximate
  EXPECT_EQ(a.remaining(), 0u);

  SectionReader b(view.section(9));
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(b.u32(), i * 2654435761u);
  EXPECT_EQ(b.remaining(), 0u);
}

TEST(Snapshot, SectionPayloadsAreEightByteAligned) {
  SnapshotWriter writer(PayloadKind::kDetectorDelta, 1);
  // Deliberately awkward sizes so alignment padding is actually needed.
  for (std::uint32_t id = 1; id <= 5; ++id) {
    SectionBuilder b;
    for (std::uint32_t i = 0; i < id * 3 + 1; ++i) b.u8(static_cast<std::uint8_t>(i));
    writer.add_section(id, b.take());
  }
  const auto bytes = writer.serialize();
  const SnapshotView view =
      parse_snapshot(bytes, PayloadKind::kDetectorDelta, 1);
  for (std::uint32_t id = 1; id <= 5; ++id) {
    const auto sec = view.section(id);
    EXPECT_EQ((sec.data() - bytes.data()) % 8, 0)
        << "section " << id << " payload not 8-byte aligned";
    EXPECT_EQ(sec.size(), id * 3 + 1);
  }
}

TEST(Snapshot, EmptyAndZeroSectionSnapshotsRoundTrip) {
  {
    SnapshotWriter writer(PayloadKind::kDetector, 1);
    const auto bytes = writer.serialize();
    const SnapshotView view = parse_snapshot(bytes, PayloadKind::kDetector, 1);
    EXPECT_EQ(view.section_count(), 0u);
  }
  {
    SnapshotWriter writer(PayloadKind::kDetector, 1);
    writer.add_section(4, {});
    const auto bytes = writer.serialize();
    const SnapshotView view = parse_snapshot(bytes, PayloadKind::kDetector, 1);
    EXPECT_TRUE(view.has(4));
    EXPECT_EQ(view.section(4).size(), 0u);
  }
}

TEST(Snapshot, MissingSectionThrowsParse) {
  const auto bytes = sample_writer().serialize();
  const SnapshotView view = parse_snapshot(bytes, PayloadKind::kDetector, 3);
  try {
    view.section(1234);
    FAIL() << "missing section did not throw";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), util::ErrorKind::kParse);
  }
}

TEST(Snapshot, ReaderUnderrunThrowsTruncated) {
  SectionBuilder b;
  b.u32(42);
  const auto payload = b.take();
  SectionReader r(payload);
  EXPECT_EQ(r.u32(), 42u);
  try {
    r.u8();
    FAIL() << "underrun did not throw";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), util::ErrorKind::kTruncated);
  }
}

TEST(Snapshot, KindAndVersionMismatchesAreTyped) {
  const auto bytes = sample_writer().serialize();
  try {
    parse_snapshot(bytes, PayloadKind::kDetectorDelta, 3);
    FAIL() << "kind mismatch did not throw";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), util::ErrorKind::kParse);
  }
  // Kind 2 once held compiled planes and stays unused: such a file is a
  // foreign kind to every reader.
  const auto retired =
      SnapshotWriter(static_cast<PayloadKind>(2), 2).serialize();
  for (const PayloadKind kind :
       {PayloadKind::kDetector, PayloadKind::kDetectorDelta}) {
    try {
      parse_snapshot(retired, kind, 2);
      FAIL() << "retired kind 2 did not throw";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.kind(), util::ErrorKind::kParse);
    }
  }
  try {
    parse_snapshot(bytes, PayloadKind::kDetector, 4);
    FAIL() << "payload version mismatch did not throw";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), util::ErrorKind::kBadVersion);
  }
  auto magic = bytes;
  magic[0] ^= 0xFF;
  try {
    parse_snapshot(magic, PayloadKind::kDetector, 3);
    FAIL() << "bad magic did not throw";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), util::ErrorKind::kBadMagic);
  }
  auto container = bytes;
  container[4] = 0x7F;  // container version lives at offset 4
  try {
    parse_snapshot(container, PayloadKind::kDetector, 3);
    FAIL() << "container version did not throw";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), util::ErrorKind::kBadVersion);
  }
}

TEST(Snapshot, EveryTruncationIsDetected) {
  const std::string image = to_string(sample_writer().serialize());
  util::Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string cut = testing::truncate_bytes(image, rng);
    ASSERT_LT(cut.size(), image.size());
    EXPECT_THROW(
        parse_snapshot(to_bytes(cut), PayloadKind::kDetector, 3),
        SnapshotError)
        << "truncation to " << cut.size() << " bytes went unnoticed";
  }
}

TEST(Snapshot, TrailingGarbageIsDetected) {
  auto bytes = sample_writer().serialize();
  bytes.push_back(0);  // even a single zero byte breaks the pinned size
  EXPECT_THROW(parse_snapshot(bytes, PayloadKind::kDetector, 3), SnapshotError);
}

TEST(Snapshot, EverySingleBitFlipIsDetected) {
  // flips=1 guarantees the image actually changed (an even number of
  // flips can cancel), so the parser has no excuse.
  const std::string image = to_string(sample_writer().serialize());
  util::Rng rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string damaged = testing::flip_bits(image, rng, 1);
    ASSERT_NE(damaged, image);
    EXPECT_THROW(
        parse_snapshot(to_bytes(damaged), PayloadKind::kDetector, 3),
        SnapshotError);
  }
}

TEST(Snapshot, AtomicWriteLeavesNoTempAndReloadsBitIdentical) {
  // Pid-suffixed so concurrent runs from different build trees don't
  // overwrite each other's files mid-test.
  const fs::path dir = fs::temp_directory_path() /
                       ("spoofscope_snap_test." + std::to_string(::getpid()));
  fs::create_directories(dir);
  const fs::path path = dir / "atomic.snap";
  const SnapshotWriter writer = sample_writer();
  const std::uint64_t digest = writer.write_atomic(path.string());
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path.string() + ".tmp"));

  std::ifstream in(path, std::ios::binary);
  std::vector<std::uint8_t> loaded{std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>()};
  EXPECT_EQ(loaded, writer.serialize());
  EXPECT_EQ(digest, fnv1a64(loaded));  // the digest of what is on disk

  // Overwrite: the old snapshot is replaced wholesale, never blended.
  SnapshotWriter other(PayloadKind::kDetector, 3);
  SectionBuilder b;
  b.u64(1);
  other.add_section(1, b.take());
  const std::uint64_t other_digest = other.write_atomic(path.string());
  std::ifstream in2(path, std::ios::binary);
  std::vector<std::uint8_t> reloaded{std::istreambuf_iterator<char>(in2),
                                     std::istreambuf_iterator<char>()};
  EXPECT_EQ(reloaded, other.serialize());
  EXPECT_EQ(other_digest, fnv1a64(reloaded));
  EXPECT_NE(other_digest, digest);
  fs::remove_all(dir);
}

// The digest that chains delta checkpoints is FNV-1a-64: pinned to its
// published test vectors, so a changed digest (which would orphan every
// delta chain already on disk) fails here first.
TEST(Snapshot, Fnv1a64MatchesPublishedVectors) {
  EXPECT_EQ(fnv1a64({}), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64(to_bytes("a")), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64(to_bytes("foobar")), 0x85944171f73967e8ull);
}

}  // namespace
}  // namespace spoofscope::state

#include "state/plane_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <regex>
#include <system_error>
#include <vector>

#include "net/bogon.hpp"
#include "net/mapped_trace.hpp"
#include "state/snapshot.hpp"
#include "util/fault_injection.hpp"

namespace spoofscope::state {

namespace {

/// Part of the entry file name, so bumping it retires every stored
/// entry. v2: plane_digest() became one stream over the whole plane, so
/// a v1 entry's stored digest no longer matches its plane.
constexpr std::uint32_t kPlanePayloadVersion = 2;

// Section ids.
constexpr std::uint32_t kSecMeta = 1;     ///< digests + dimensions
constexpr std::uint32_t kSecMembers = 2;  ///< sorted member ASNs
constexpr std::uint32_t kSecBase = 3;     ///< 2^24 x u32 base-class table
constexpr std::uint32_t kSecRecords = 4;  ///< slot-major u16 membership

constexpr bool kLittleEndianHost = std::endian::native == std::endian::little;

/// Incremental FNV-1a-64 mixing one whole field per step, so the digest
/// is a stable function of the values, not of host memory layout. One
/// xor + odd multiply per field (both bijective in the state) keeps the
/// sensitivity of the per-byte walk at a fraction of the cost — the
/// digest runs over every prefix and valid-space interval on every
/// cache probe, so it sits on the cold-start path.
struct Fnv64 {
  std::uint64_t h = 14695981039346656037ull;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  }
  void u8(std::uint8_t v) { mix(v); }
  void u32(std::uint32_t v) { mix(v); }
  void u64(std::uint64_t v) { mix(v); }
};

[[noreturn]] void corrupt(const std::string& what, const std::string& ctx = {}) {
  throw SnapshotError(util::ErrorKind::kParse, what, ctx);
}

/// True for exactly the names entry_path() gives another payload
/// version: "plane-<16 lowercase hex>-v<N>.snap", N not
/// kPlanePayloadVersion.
bool retired_entry_name(const std::string& name) {
  static const std::regex kEntry("plane-[0-9a-f]{16}-v([0-9]{1,9})\\.snap");
  std::smatch m;
  return std::regex_match(name, m, kEntry) &&
         std::stoul(m[1].str()) != kPlanePayloadVersion;
}

/// Deletes the entries of retired payload versions in `dir`, which no
/// version of this binary reads; best effort, like the directory
/// creation before a store.
void remove_retired_entries(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code ignored;
    if (it->is_regular_file(ignored) &&
        retired_entry_name(it->path().filename().string())) {
      fs::remove(it->path(), ignored);
    }
  }
}

}  // namespace

std::uint64_t classifier_digest(const classify::Classifier& source) {
  Fnv64 f;
  const bgp::RoutingTable& table = source.table();
  f.u64(table.prefix_count());
  table.visit_prefixes(
      [&](bgp::RoutingTable::PrefixId, const net::Prefix& p) {
        f.u32(p.first());
        f.u8(p.length());
      });
  f.u64(source.space_count());
  for (std::size_t s = 0; s < source.space_count(); ++s) {
    const inference::ValidSpace& space = source.space(s);
    f.u8(static_cast<std::uint8_t>(space.method()));
    std::vector<net::Asn> members = space.members();
    std::sort(members.begin(), members.end());
    f.u64(members.size());
    for (const net::Asn member : members) {
      f.u32(member);
      const trie::IntervalSet* ivs = space.space_of(member);
      f.u64(ivs ? ivs->intervals().size() : 0);
      if (!ivs) continue;
      for (const auto& iv : ivs->intervals()) {
        f.u32(iv.lo);
        f.u32(iv.hi);
      }
    }
  }
  return f.h;
}

std::string PlaneCache::entry_path(std::uint64_t source_digest) const {
  char name[64];
  std::snprintf(name, sizeof name, "plane-%016llx-v%u.snap",
                static_cast<unsigned long long>(source_digest),
                kPlanePayloadVersion);
  return (std::filesystem::path(dir_) / name).string();
}

PlaneCache::LoadResult PlaneCache::load_or_compile(
    const classify::Classifier& source, util::ThreadPool* pool,
    util::ErrorPolicy policy, util::IngestStats* stats) {
  util::IngestStats own;
  util::IngestStats& st = stats ? *stats : own;
  const bool strict = policy == util::ErrorPolicy::kStrict;
  LoadResult out;
  if (kLittleEndianHost) {
    const std::uint64_t digest = classifier_digest(source);
    const std::string path = entry_path(digest);
    std::error_code ec;
    if (std::filesystem::exists(path, ec)) {
      try {
        out.plane = load_entry(path, source, digest);
        out.hit = true;
        st.ok();
        return out;
      } catch (const util::InjectedCrash&) {
        throw;  // a modelled crash is a process death, not damage to skip
      } catch (const SnapshotError& e) {
        if (strict) throw;
        st.skip(e.kind(), 0);
      } catch (const std::runtime_error&) {
        // MappedTrace open/read failure.
        if (strict) throw;
        st.skip(util::ErrorKind::kTruncated, 0);
      }
    }
    out.plane = pool ? classify::FlatClassifier::compile(source, *pool)
                     : classify::FlatClassifier::compile(source);
    store(out.plane, digest);
    out.stored = true;
    return out;
  }
  // Big-endian host: snapshots carry little-endian lanes, so the cache
  // degrades to compile-always instead of byte-swapping 64 MiB.
  out.plane = pool ? classify::FlatClassifier::compile(source, *pool)
                   : classify::FlatClassifier::compile(source);
  return out;
}

classify::FlatClassifier PlaneCache::load_entry(
    const std::string& path, const classify::Classifier& source,
    std::uint64_t source_digest) const {
  auto mapping = std::make_shared<const net::MappedTrace>(path);
  {
    // Read-fault shim: when an injected fault damages the image, the
    // damaged copy must be owned by the mapping (the plane's zero-copy
    // views point into it), so rewrap the scratch buffer.
    std::vector<std::uint8_t> scratch;
    const std::span<const std::uint8_t> bytes = with_injected_read_faults(
        "plane_cache.load", mapping->bytes(), scratch);
    if (bytes.data() != mapping->bytes().data() ||
        bytes.size() != mapping->bytes().size()) {
      mapping = std::make_shared<const net::MappedTrace>(
          net::MappedTrace::from_buffer(std::move(scratch)));
    }
  }
  const SnapshotView snap = parse_snapshot(
      mapping->bytes(), PayloadKind::kPlane, kPlanePayloadVersion, path);
  const auto sec_ctx = [&path](std::uint32_t id) {
    return "file " + path + ", section " + std::to_string(id);
  };

  SectionReader meta(snap.section(kSecMeta), sec_ctx(kSecMeta));
  const std::uint64_t stored_source = meta.u64();
  const std::uint64_t stored_plane = meta.u64();
  const std::uint64_t num_prefixes = meta.u64();
  const std::uint64_t member_count = meta.u64();
  const std::uint64_t space_count = meta.u64();
  const std::uint64_t overflow_prefixes = meta.u64();
  const std::uint64_t overflow_slots = meta.u64();
  const std::uint64_t partial_rows = meta.u64();
  if (meta.remaining() != 0) {
    corrupt("trailing bytes in meta section", sec_ctx(kSecMeta));
  }
  // The filename already encodes the source digest, but the stored copy
  // guards against renamed or hand-placed entries.
  if (stored_source != source_digest) {
    corrupt("stale plane: source digest", sec_ctx(kSecMeta));
  }
  if (space_count != source.space_count()) {
    corrupt("stale plane: space count", sec_ctx(kSecMeta));
  }
  if (num_prefixes != source.table().prefix_count()) {
    corrupt("stale plane: prefix count", sec_ctx(kSecMeta));
  }

  classify::FlatClassifier flat;
  flat.table_ = &source.table();
  flat.spaces_.reserve(space_count);
  for (std::size_t i = 0; i < space_count; ++i) {
    flat.spaces_.push_back(source.shared_space(i));
  }
  flat.all_bogon_ =
      classify::FlatClassifier::uniform_label(space_count, classify::TrafficClass::kBogon);
  flat.all_unrouted_ = classify::FlatClassifier::uniform_label(
      space_count, classify::TrafficClass::kUnrouted);
  flat.all_invalid_ = classify::FlatClassifier::uniform_label(
      space_count, classify::TrafficClass::kInvalid);
  for (const auto& p : net::bogon_prefixes()) flat.bogons_.insert(p);

  {
    SectionReader r(snap.section(kSecMembers), sec_ctx(kSecMembers));
    if (r.remaining() != member_count * sizeof(std::uint32_t)) {
      corrupt("members section size mismatch", sec_ctx(kSecMembers));
    }
    flat.members_.reserve(member_count);
    for (std::uint64_t i = 0; i < member_count; ++i) {
      const net::Asn member = r.u32();
      if (i > 0 && member <= flat.members_.back()) {
        corrupt("members out of order", sec_ctx(kSecMembers));
      }
      flat.members_.push_back(member);
    }
  }

  const std::span<const std::uint8_t> base = snap.section(kSecBase);
  if (base.size() !=
      classify::FlatClassifier::kBaseEntries * sizeof(std::uint32_t)) {
    corrupt("base table size mismatch", sec_ctx(kSecBase));
  }
  const std::span<const std::uint8_t> records = snap.section(kSecRecords);
  if (records.size() != member_count * num_prefixes * sizeof(std::uint16_t)) {
    corrupt("records size mismatch", sec_ctx(kSecRecords));
  }
  // Sections are 8-byte aligned within the snapshot and the mapping is
  // page- (or heap-) aligned, so the reinterpret views are aligned.
  flat.base_view_ = reinterpret_cast<const std::uint32_t*>(base.data());
  flat.records_view_ = reinterpret_cast<const std::uint16_t*>(records.data());
  // The records section usually ends flush against the end of the
  // mapping, where a 32-bit gather at the last 16-bit record would read
  // past the file; the vector kernels then load records scalar instead.
  {
    const std::span<const std::uint8_t> all = mapping->bytes();
    flat.records_gather_safe_ =
        records.data() + records.size() + sizeof(std::uint16_t) <=
        all.data() + all.size();
  }
  flat.num_prefixes_ = num_prefixes;
  flat.record_stride_ = num_prefixes;
  flat.rebuild_probe();

  // The fallback lane is recoverable: a row's partial bit (8+s) is set
  // iff the compile consulted space s's interval set for that member.
  const std::size_t ns = space_count;
  flat.fallback_.assign(member_count * ns, nullptr);
  std::uint64_t rebuilt_partial_rows = 0;
  for (std::size_t slot = 0; slot < member_count; ++slot) {
    const std::uint16_t* row = flat.records_view_ + slot * num_prefixes;
    std::uint16_t mask = 0;
    for (std::uint64_t p = 0; p < num_prefixes; ++p) mask |= row[p];
    if ((mask & 0xFFu) >> ns != 0 || (mask >> 8) >> ns != 0) {
      corrupt("record bits beyond configured spaces", sec_ctx(kSecRecords));
    }
    std::uint32_t partial = mask >> 8;
    while (partial != 0) {
      const int s = std::countr_zero(partial);
      partial &= partial - 1;
      const trie::IntervalSet* space = flat.spaces_[s]->space_of(flat.members_[slot]);
      if (space == nullptr || space->empty()) {
        corrupt("stale plane: missing fallback space", sec_ctx(kSecRecords));
      }
      flat.fallback_[slot * ns + s] = space;
      ++rebuilt_partial_rows;
    }
  }
  if (rebuilt_partial_rows != partial_rows) {
    corrupt("fallback lane count mismatch", sec_ctx(kSecRecords));
  }

  flat.stats_.table_bytes = base.size();
  flat.stats_.bitset_bytes = records.size();
  flat.stats_.prefixes = num_prefixes;
  flat.stats_.members = member_count;
  flat.stats_.overflow_prefixes = overflow_prefixes;
  flat.stats_.overflow_slots = overflow_slots;
  flat.stats_.partial_rows = partial_rows;
  flat.plane_mapping_ = std::move(mapping);

  // The decisive check: the served plane hashes exactly like the fresh
  // compile whose digest was stored alongside it.
  if (flat.plane_digest() != stored_plane) {
    throw SnapshotError(util::ErrorKind::kChecksum, "plane digest mismatch",
                        "file " + path);
  }
  return flat;
}

void PlaneCache::store(const classify::FlatClassifier& plane,
                       std::uint64_t source_digest) const {
  if (!kLittleEndianHost) return;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  SnapshotWriter writer(PayloadKind::kPlane, kPlanePayloadVersion);
  {
    SectionBuilder b;
    b.u64(source_digest);
    b.u64(plane.plane_digest());
    b.u64(plane.num_prefixes_);
    b.u64(plane.members_.size());
    b.u64(plane.spaces_.size());
    b.u64(plane.stats_.overflow_prefixes);
    b.u64(plane.stats_.overflow_slots);
    b.u64(plane.stats_.partial_rows);
    writer.add_section(kSecMeta, b.take());
  }
  {
    SectionBuilder b;
    for (const net::Asn member : plane.members_) b.u32(member);
    writer.add_section(kSecMembers, b.take());
  }
  {
    SectionBuilder b;
    b.bytes(plane.base_view_,
            classify::FlatClassifier::kBaseEntries * sizeof(std::uint32_t));
    writer.add_section(kSecBase, b.take());
  }
  {
    // Rows are record_stride_ apart; the entry keeps their live columns.
    SectionBuilder b;
    for (std::size_t slot = 0; slot < plane.members_.size(); ++slot) {
      b.bytes(plane.records_view_ + slot * plane.record_stride_,
              plane.num_prefixes_ * sizeof(std::uint16_t));
    }
    writer.add_section(kSecRecords, b.take());
  }
  writer.write_atomic(entry_path(source_digest));
  remove_retired_entries(dir_);
}

}  // namespace spoofscope::state

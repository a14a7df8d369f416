#include "net/mapped_trace.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "net/flow_batch.hpp"
#include "net/trace_format.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define SPOOFSCOPE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace spoofscope::net {

namespace {

/// read()-style fallback: slurps the whole file through an ifstream.
std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("MappedTrace: cannot open " + path);
  }
  std::vector<std::uint8_t> bytes;
  char chunk[1 << 16];
  for (;;) {
    in.read(chunk, sizeof(chunk));
    const std::size_t got = static_cast<std::size_t>(in.gcount());
    if (got == 0) break;
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  if (in.bad()) {
    throw std::runtime_error("MappedTrace: read failure on " + path);
  }
  return bytes;
}

/// Records verified per scalar lockstep group: enough independent FNV-1a
/// chains to keep the multiplier busy while each waits on its own
/// product.
constexpr std::size_t kGroup = 8;

/// The per-record check: the payload's FNV-1a against the stored sum.
bool record_verifies(const std::uint8_t* p) {
  return format::get_u32(p + format::kPayloadSize) ==
         format::fnv1a32(p, format::kPayloadSize);
}

/// The scalar group step: how many of the kGroup records at `p` verify
/// before the first that does not (kGroup when all do), each decoded
/// into rows [i, i + k). The same check as record_verifies, with the
/// group's checksums computed in lockstep.
std::size_t decode_group(const std::uint8_t* p, const FlowBatch::Rows& rows,
                         std::size_t i) {
  std::uint32_t h[kGroup] = {};
  format::fnv1a32_lockstep(p, format::kRecordSizeV2, format::kPayloadSize, h);
  std::size_t k = 0;
  while (k < kGroup &&
         h[k] == format::get_u32(p + k * format::kRecordSizeV2 +
                                 format::kPayloadSize)) {
    format::decode_row(p + k * format::kRecordSizeV2, rows, i + k);
    ++k;
  }
  return k;
}

/// The AVX2 group step; never called unless the kernel is compiled in.
std::size_t decode_group_wide(const std::uint8_t* p,
                              const FlowBatch::Rows& rows, std::size_t i) {
#if SPOOFSCOPE_KERNEL_AVX2
  return format::decode_group_avx2(p, rows, i);
#else
  (void)p;
  (void)rows;
  (void)i;
  return 0;
#endif
}

}  // namespace

MappedTrace::MappedTrace(const std::string& path) {
#ifdef SPOOFSCOPE_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct stat st{};
    if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
      const std::size_t size = static_cast<std::size_t>(st.st_size);
      if (size == 0) {
        // mmap rejects zero-length mappings; an empty file is simply an
        // empty (fallback) buffer.
        ::close(fd);
        return;
      }
      void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
      ::close(fd);
      if (map != MAP_FAILED) {
#ifdef MADV_SEQUENTIAL
        ::madvise(map, size, MADV_SEQUENTIAL);
#endif
        map_ = map;
        data_ = static_cast<const std::uint8_t*>(map);
        size_ = size;
        return;
      }
    } else {
      ::close(fd);
    }
  }
#endif
  fallback_ = slurp(path);
  data_ = fallback_.data();
  size_ = fallback_.size();
}

MappedTrace MappedTrace::from_buffer(std::vector<std::uint8_t> bytes) {
  MappedTrace t;
  t.fallback_ = std::move(bytes);
  t.data_ = t.fallback_.data();
  t.size_ = t.fallback_.size();
  return t;
}

void MappedTrace::drop_pages(std::size_t begin, std::size_t end) const {
#if defined(SPOOFSCOPE_HAVE_MMAP) && defined(MADV_DONTNEED)
  if (map_ == nullptr) return;
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  // Align outward-safe: begin rounds down (re-advising an already
  // released page is free; skipping a completed boundary page is a
  // leak), end rounds down so no unconsumed byte loses its page.
  begin &= ~(page - 1);
  end = std::min(end, size_) & ~(page - 1);
  if (begin >= end) return;
  ::madvise(static_cast<std::uint8_t*>(map_) + begin, end - begin,
            MADV_DONTNEED);
#else
  (void)begin;
  (void)end;
#endif
}

void MappedTrace::release() {
#ifdef SPOOFSCOPE_HAVE_MMAP
  if (map_ != nullptr) ::munmap(map_, size_);
#endif
  map_ = nullptr;
  data_ = nullptr;
  size_ = 0;
  fallback_.clear();
}

MappedTrace::~MappedTrace() { release(); }

MappedTrace::MappedTrace(MappedTrace&& other) noexcept
    : data_(other.data_),
      size_(other.size_),
      map_(other.map_),
      fallback_(std::move(other.fallback_)) {
  if (!fallback_.empty()) data_ = fallback_.data();
  other.map_ = nullptr;
  other.data_ = nullptr;
  other.size_ = 0;
}

MappedTrace& MappedTrace::operator=(MappedTrace&& other) noexcept {
  if (this != &other) {
    release();
    data_ = other.data_;
    size_ = other.size_;
    map_ = other.map_;
    fallback_ = std::move(other.fallback_);
    if (!fallback_.empty()) data_ = fallback_.data();
    other.map_ = nullptr;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

MappedTraceReader::MappedTraceReader(const MappedTrace& trace,
                                     util::ErrorPolicy policy,
                                     util::IngestStats* stats,
                                     util::SimdKernel kernel)
    : policy_(policy),
      avx2_(util::resolve_simd_kernel(kernel) == util::SimdKernel::kAvx2),
      trace_(&trace),
      stats_(stats ? stats : &own_stats_) {
  const std::span<const std::uint8_t> all = trace.bytes();
  const format::Header h = format::parse_header(all, policy_, *stats_);
  if (!h.ok) {
    done_ = true;
    return;
  }
  meta_.sampling_rate = h.sampling_rate;
  meta_.window_seconds = h.window_seconds;
  meta_.seed = h.seed;
  declared_ = h.declared;
  header_ok_ = true;
  rest_ = all.subspan(format::kHeaderSizeV2);
}

void MappedTraceReader::finish(std::size_t tail) {
  // End of input with `tail` bytes too short for a record. Strict mode
  // only gets here with records still owed by the header (the declared
  // count ends clean streams first), so it is a truncation.
  done_ = true;
  if (policy_ == util::ErrorPolicy::kStrict) {
    throw std::runtime_error("read_trace: truncated record");
  }
  if (tail != 0 || resyncing_) stats_->skip(util::ErrorKind::kTruncated, tail);
  // Records lost (or extra ones found) relative to the header.
  if (delivered_ != declared_) stats_->note(util::ErrorKind::kCountMismatch);
}

void MappedTraceReader::drop_consumed() {
  // rest_ is the unconsumed suffix of the whole mapping (empty once the
  // stream is finished), so the consumed prefix falls out by size.
  const std::size_t consumed = trace_->bytes().size() - rest_.size();
  if (consumed > dropped_) {
    trace_->drop_pages(dropped_, consumed);
    dropped_ = consumed;
  }
}

std::size_t MappedTraceReader::next_batch(FlowBatch& out,
                                          std::size_t max_records) {
  out.clear();
  if (done_) return 0;
  const bool strict = policy_ == util::ErrorPolicy::kStrict;
  const std::span<const std::uint8_t> window = rest_;
  // Rows are written in place. Every delivered record consumes
  // kRecordSizeV2 bytes of the window, and strict mode stops at the
  // declared count, so `room` rows always suffice — also for a group
  // step, which writes rows for its whole group only where the group
  // fits the same three limits. The unused rows are given back before
  // returning or throwing.
  std::size_t room =
      std::min(max_records, window.size() / format::kRecordSizeV2);
  if (strict) {
    room = static_cast<std::size_t>(
        std::min<std::uint64_t>(room, declared_ - delivered_));
  }
  const FlowBatch::Rows rows = out.grow(room);
  std::size_t n = 0;
  std::size_t off = 0;
  while (!done_ && n < max_records) {
    if (strict && delivered_ >= declared_) {
      done_ = true;  // trailing bytes are ignored
      break;
    }
    const std::size_t left = window.size() - off;
    if (left < format::kRecordSizeV2) {
      rest_ = {};
      out.shrink(room - n);
      finish(left);
      return n;
    }
    const std::uint8_t* p = window.data() + off;
    bool damaged = false;
    // Records a group step may take here: batch cap, whole records left
    // and, in strict mode, the declared count. Resync goes one by one.
    std::uint64_t fits = 0;
    if (!resyncing_) {
      fits = std::min(max_records - n, left / format::kRecordSizeV2);
      if (strict) fits = std::min(fits, declared_ - delivered_);
    }
    if (fits >= kGroup) {
      // Fast path: verify a whole group and decode its leading clean
      // records while their bytes are still in L1. A damaged record
      // ends the run; it takes the per-record handling below, which the
      // group has already shown it fails.
      const bool wide = avx2_ && fits >= format::kAvx2Group;
      const std::size_t group = wide ? format::kAvx2Group : kGroup;
      const std::size_t k =
          wide ? decode_group_wide(p, rows, n) : decode_group(p, rows, n);
      n += k;
      off += k * format::kRecordSizeV2;
      delivered_ += k;
      stats_->records_ok += k;
      if (k == group) continue;
      p = window.data() + off;
      damaged = true;
    }
    if (!damaged && record_verifies(p)) {
      format::decode_row(p, rows, n++);
      off += format::kRecordSizeV2;
      ++delivered_;
      stats_->ok();
      resyncing_ = false;
      continue;
    }
    if (strict) {
      out.shrink(room - n);
      throw std::runtime_error("read_trace: record checksum mismatch");
    }
    // Resync: count one quarantined record per damaged region, then
    // slide the window byte-by-byte until a record validates again.
    if (!resyncing_) {
      resyncing_ = true;
      stats_->skip(util::ErrorKind::kChecksum, 0);
    }
    ++off;
    ++stats_->bytes_dropped;
  }
  out.shrink(room - n);
  rest_ = window.subspan(off);
  return n;
}

}  // namespace spoofscope::net

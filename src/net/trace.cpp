#include "net/trace.hpp"

#include <array>
#include <istream>
#include <iterator>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "net/flow_batch.hpp"
#include "net/mapped_trace.hpp"
#include "net/trace_format.hpp"

namespace spoofscope::net {

void write_trace(std::ostream& out, const Trace& trace) {
  std::array<std::uint8_t, format::kHeaderSizeV2> header{};
  format::put_u32(header.data() + 0, format::kMagic);
  format::put_u32(header.data() + 4, format::kVersionV2);
  format::put_u32(header.data() + 8, trace.meta.sampling_rate);
  format::put_u32(header.data() + 12, trace.meta.window_seconds);
  format::put_u64(header.data() + 16, trace.meta.seed);
  format::put_u64(header.data() + 24, trace.flows.size());
  format::put_u32(header.data() + format::kHeaderBody,
                  format::fnv1a32(header.data(), format::kHeaderBody));
  out.write(reinterpret_cast<const char*>(header.data()), header.size());

  std::array<std::uint8_t, format::kRecordSizeV2> rec;
  for (const auto& f : trace.flows) {
    if (f.member_in > 0xffff || f.member_out > 0xffff) {
      throw std::runtime_error("write_trace: member ASN exceeds 16-bit record field");
    }
    format::encode_record(f, rec.data());
    format::put_u32(rec.data() + format::kPayloadSize,
                    format::fnv1a32(rec.data(), format::kPayloadSize));
    out.write(reinterpret_cast<const char*>(rec.data()), rec.size());
  }
  if (!out) throw std::runtime_error("write_trace: stream failure");
}

Trace read_trace(std::istream& in, util::ErrorPolicy policy,
                 util::IngestStats* stats) {
  const MappedTrace bytes =
      MappedTrace::from_buffer(std::vector<std::uint8_t>(
          std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()));
  MappedTraceReader reader(bytes, policy, stats);
  Trace trace;
  trace.meta = reader.meta();
  FlowBatch batch;
  reader.next_batch(batch, std::numeric_limits<std::size_t>::max());
  batch.append_to(trace.flows);
  return trace;
}

Trace read_trace(std::istream& in) {
  return read_trace(in, util::ErrorPolicy::kStrict, nullptr);
}

}  // namespace spoofscope::net

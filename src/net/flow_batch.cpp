#include "net/flow_batch.hpp"

namespace spoofscope::net {

void FlowBatch::clear() {
  ts_.clear();
  src_.clear();
  dst_.clear();
  proto_.clear();
  sport_.clear();
  dport_.clear();
  packets_.clear();
  bytes_.clear();
  member_in_.clear();
  member_out_.clear();
}

void FlowBatch::reserve(std::size_t n) {
  ts_.reserve(n);
  src_.reserve(n);
  dst_.reserve(n);
  proto_.reserve(n);
  sport_.reserve(n);
  dport_.reserve(n);
  packets_.reserve(n);
  bytes_.reserve(n);
  member_in_.reserve(n);
  member_out_.reserve(n);
}

void FlowBatch::push_back(const FlowRecord& f) {
  ts_.push_back(f.ts);
  src_.push_back(f.src.value());
  dst_.push_back(f.dst.value());
  proto_.push_back(static_cast<std::uint8_t>(f.proto));
  sport_.push_back(f.sport);
  dport_.push_back(f.dport);
  packets_.push_back(f.packets);
  bytes_.push_back(f.bytes);
  member_in_.push_back(f.member_in);
  member_out_.push_back(f.member_out);
}

FlowBatch::Rows FlowBatch::grow(std::size_t n) {
  const std::size_t first = size();
  const std::size_t total = first + n;
  ts_.resize(total);
  src_.resize(total);
  dst_.resize(total);
  proto_.resize(total);
  sport_.resize(total);
  dport_.resize(total);
  packets_.resize(total);
  bytes_.resize(total);
  member_in_.resize(total);
  member_out_.resize(total);
  return {ts_.data() + first,      src_.data() + first,
          dst_.data() + first,     proto_.data() + first,
          sport_.data() + first,   dport_.data() + first,
          packets_.data() + first, bytes_.data() + first,
          member_in_.data() + first, member_out_.data() + first};
}

void FlowBatch::shrink(std::size_t n) {
  const std::size_t keep = size() - n;
  ts_.resize(keep);
  src_.resize(keep);
  dst_.resize(keep);
  proto_.resize(keep);
  sport_.resize(keep);
  dport_.resize(keep);
  packets_.resize(keep);
  bytes_.resize(keep);
  member_in_.resize(keep);
  member_out_.resize(keep);
}

FlowRecord FlowBatch::record(std::size_t i) const {
  FlowRecord f;
  f.ts = ts_[i];
  f.src = Ipv4Addr(src_[i]);
  f.dst = Ipv4Addr(dst_[i]);
  f.proto = static_cast<Proto>(proto_[i]);
  f.sport = sport_[i];
  f.dport = dport_[i];
  f.packets = packets_[i];
  f.bytes = bytes_[i];
  f.member_in = member_in_[i];
  f.member_out = member_out_[i];
  return f;
}

void FlowBatch::append_to(std::vector<FlowRecord>& out) const {
  out.reserve(out.size() + size());
  for (std::size_t i = 0; i < size(); ++i) out.push_back(record(i));
}

}  // namespace spoofscope::net

#include "net/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/rng.hpp"

namespace spoofscope::net {
namespace {

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

TEST(Trace, RoundTripEmpty) {
  Trace t;
  t.meta.sampling_rate = 10000;
  t.meta.seed = 99;
  std::stringstream ss;
  write_trace(ss, t);
  const Trace r = read_trace(ss);
  EXPECT_EQ(r.meta, t.meta);
  EXPECT_TRUE(r.flows.empty());
}

TEST(Trace, RoundTripRandomFlows) {
  util::Rng rng(7);
  Trace t;
  t.meta.sampling_rate = 1000;
  t.meta.window_seconds = kFourWeeks;
  t.meta.seed = 1234567;
  for (int i = 0; i < 500; ++i) t.flows.push_back(make_flow(rng));

  std::stringstream ss;
  write_trace(ss, t);
  const Trace r = read_trace(ss);
  ASSERT_EQ(r.flows.size(), t.flows.size());
  EXPECT_EQ(r.meta, t.meta);
  for (std::size_t i = 0; i < t.flows.size(); ++i) {
    EXPECT_EQ(r.flows[i], t.flows[i]) << "record " << i;
  }
}

TEST(Trace, ScaleMatchesSamplingRate) {
  Trace t;
  t.meta.sampling_rate = 10000;
  EXPECT_DOUBLE_EQ(t.scale(), 10000.0);
}

TEST(Trace, RejectsBadMagic) {
  std::stringstream ss;
  ss << "this is not a spoofscope trace at all, padding padding";
  EXPECT_THROW(read_trace(ss), std::runtime_error);
}

TEST(Trace, RejectsTruncatedHeader) {
  std::stringstream ss;
  ss << "short";
  EXPECT_THROW(read_trace(ss), std::runtime_error);
}

TEST(Trace, RejectsTruncatedRecords) {
  util::Rng rng(9);
  Trace t;
  t.flows.push_back(make_flow(rng));
  t.flows.push_back(make_flow(rng));
  std::stringstream ss;
  write_trace(ss, t);
  std::string data = ss.str();
  data.resize(data.size() - 10);  // cut into the last record
  std::stringstream truncated(data);
  EXPECT_THROW(read_trace(truncated), std::runtime_error);
}

TEST(Trace, RejectsOversizedAsn) {
  Trace t;
  FlowRecord f;
  f.member_in = 70000;  // does not fit the 16-bit record field
  t.flows.push_back(f);
  std::stringstream ss;
  EXPECT_THROW(write_trace(ss, t), std::runtime_error);
}

TEST(Trace, RejectedTraceWritesNothing) {
  // The header declares every record, so a record rejected mid-trace
  // must not leave the header and the records before it behind: the
  // stream would hold a trace that reads as truncated.
  util::Rng rng(11);
  for (const std::size_t bad : {0, 3, 7}) {
    Trace t;
    for (int i = 0; i < 8; ++i) t.flows.push_back(make_flow(rng));
    t.flows[bad].member_out = 0x10000;
    std::stringstream ss;
    EXPECT_THROW(write_trace(ss, t), std::runtime_error) << "record " << bad;
    EXPECT_TRUE(ss.str().empty())
        << "record " << bad << ": " << ss.str().size() << " bytes written";
  }
}

}  // namespace
}  // namespace spoofscope::net

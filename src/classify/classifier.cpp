#include "classify/classifier.hpp"

#include <stdexcept>
#include <unordered_map>

#include "net/bogon.hpp"
#include "net/flow_batch.hpp"

namespace spoofscope::classify {

namespace {

/// Packs one 2-bit class per configured space into a Label.
template <typename ClassOf>
Label pack_label(std::size_t num_spaces, ClassOf&& class_of) {
  Label label = 0;
  for (std::size_t i = 0; i < num_spaces; ++i) {
    label |= static_cast<Label>(class_of(i)) << (2 * i);
  }
  return label;
}

std::vector<std::shared_ptr<const inference::ValidSpace>> share_all(
    std::vector<inference::ValidSpace> spaces) {
  std::vector<std::shared_ptr<const inference::ValidSpace>> shared;
  shared.reserve(spaces.size());
  for (auto& s : spaces) {
    shared.push_back(std::make_shared<const inference::ValidSpace>(std::move(s)));
  }
  return shared;
}

}  // namespace

std::string class_name(TrafficClass c) {
  switch (c) {
    case TrafficClass::kBogon: return "Bogon";
    case TrafficClass::kUnrouted: return "Unrouted";
    case TrafficClass::kInvalid: return "Invalid";
    case TrafficClass::kValid: return "Valid";
  }
  return "?";
}

Classifier::Classifier(const bgp::RoutingTable& table,
                       std::vector<inference::ValidSpace> spaces)
    : Classifier(table, share_all(std::move(spaces))) {}

Classifier::Classifier(
    const bgp::RoutingTable& table,
    std::vector<std::shared_ptr<const inference::ValidSpace>> spaces)
    : table_(&table), spaces_(std::move(spaces)) {
  if (spaces_.empty() || spaces_.size() > 8) {
    throw std::invalid_argument("Classifier: need between 1 and 8 valid spaces");
  }
  for (const auto& s : spaces_) {
    if (!s) throw std::invalid_argument("Classifier: null valid space");
  }
  for (const auto& p : net::bogon_prefixes()) bogons_.insert(p);
}

inference::ValidSpace& Classifier::mutable_space(std::size_t i) {
  auto& slot = spaces_[i];
  if (slot.use_count() != 1) {
    slot = std::make_shared<const inference::ValidSpace>(*slot);
  }
  return const_cast<inference::ValidSpace&>(*slot);
}

Classifier::MemberView Classifier::member_view(Asn member) const {
  MemberView view;
  view.member_ = member;
  for (std::size_t i = 0; i < spaces_.size(); ++i) {
    view.spaces_[i] = spaces_[i]->space_of(member);
  }
  return view;
}

TrafficClass Classifier::classify(net::Ipv4Addr src, Asn member,
                                  std::size_t space_idx) const {
  if (bogons_.covers(src)) return TrafficClass::kBogon;
  if (!table_->is_routed(src)) return TrafficClass::kUnrouted;
  if (!spaces_[space_idx]->valid(member, src)) return TrafficClass::kInvalid;
  return TrafficClass::kValid;
}

Label Classifier::classify_all(net::Ipv4Addr src, Asn member) const {
  // The bogon and routed checks are method-independent: one shared class.
  if (bogons_.covers(src)) {
    return pack_label(spaces_.size(),
                      [](std::size_t) { return TrafficClass::kBogon; });
  }
  if (!table_->is_routed(src)) {
    return pack_label(spaces_.size(),
                      [](std::size_t) { return TrafficClass::kUnrouted; });
  }
  return pack_label(spaces_.size(), [&](std::size_t i) {
    return spaces_[i]->valid(member, src) ? TrafficClass::kValid
                                          : TrafficClass::kInvalid;
  });
}

Label Classifier::classify_all(net::Ipv4Addr src, const MemberView& view) const {
  if (bogons_.covers(src)) {
    return pack_label(spaces_.size(),
                      [](std::size_t) { return TrafficClass::kBogon; });
  }
  if (!table_->is_routed(src)) {
    return pack_label(spaces_.size(),
                      [](std::size_t) { return TrafficClass::kUnrouted; });
  }
  return pack_label(spaces_.size(), [&](std::size_t i) {
    const trie::IntervalSet* s = view.spaces_[i];
    return s && s->contains(src) ? TrafficClass::kValid
                                 : TrafficClass::kInvalid;
  });
}

namespace {

/// Shared trace loop for both overloads: member views are resolved once
/// per distinct member and reused across the (interleaved) flow stream.
template <typename Out>
void classify_range(const Classifier& classifier,
                    std::span<const net::FlowRecord> flows, std::size_t begin,
                    std::size_t end, Out&& out) {
  std::unordered_map<Asn, Classifier::MemberView> views;
  for (std::size_t i = begin; i < end; ++i) {
    const auto& f = flows[i];
    auto it = views.find(f.member_in);
    if (it == views.end()) {
      it = views.emplace(f.member_in, classifier.member_view(f.member_in)).first;
    }
    out(i, classifier.classify_all(f.src, it->second));
  }
}

/// Lane-level twin of classify_range for SoA batches.
void classify_lanes(const Classifier& classifier,
                    std::span<const std::uint32_t> src,
                    std::span<const Asn> member_in, std::size_t begin,
                    std::size_t end, Label* out) {
  std::unordered_map<Asn, Classifier::MemberView> views;
  for (std::size_t i = begin; i < end; ++i) {
    const Asn member = member_in[i];
    auto it = views.find(member);
    if (it == views.end()) {
      it = views.emplace(member, classifier.member_view(member)).first;
    }
    out[i] = classifier.classify_all(net::Ipv4Addr(src[i]), it->second);
  }
}

}  // namespace

void Classifier::classify_batch(const net::FlowBatch& batch,
                                std::span<Label> out) const {
  if (out.size() != batch.size()) {
    throw std::invalid_argument("classify_batch: label span size mismatch");
  }
  classify_lanes(*this, batch.src(), batch.member_in(), 0, batch.size(),
                 out.data());
}

std::vector<Label> Classifier::classify_batch(const net::FlowBatch& batch) const {
  std::vector<Label> labels(batch.size());
  classify_batch(batch, labels);
  return labels;
}

std::vector<Label> classify_trace(const Classifier& classifier,
                                  std::span<const net::FlowRecord> flows) {
  std::vector<Label> labels(flows.size());
  classify_range(classifier, flows, 0, flows.size(),
                 [&](std::size_t i, Label l) { labels[i] = l; });
  return labels;
}

std::vector<Label> classify_trace(const Classifier& classifier,
                                  std::span<const net::FlowRecord> flows,
                                  util::ThreadPool& pool) {
  std::vector<Label> labels(flows.size());
  pool.parallel_for(0, flows.size(), [&](std::size_t b, std::size_t e) {
    classify_range(classifier, flows, b, e,
                   [&](std::size_t i, Label l) { labels[i] = l; });
  });
  return labels;
}

}  // namespace spoofscope::classify

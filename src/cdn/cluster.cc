#include "cdn/cluster.h"

namespace rangeamp::cdn {

EdgeCluster::EdgeCluster(std::function<VendorProfile()> profile_factory,
                         std::size_t node_count, net::HttpHandler& upstream,
                         NodeSelection selection,
                         const net::TransportSpec& transport)
    : selection_(selection) {
  // A cluster with zero ingress nodes cannot route anything; the selection
  // arithmetic (and any pin) would divide by zero.  Clamp to one node.
  if (node_count == 0) node_count = 1;
  nodes_.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    VendorProfile profile = profile_factory();
    // Distinct per-node hop identity, so Via chains and CDN-Loop parameters
    // emitted by different surrogates of one deployment are tellable apart.
    if (profile.traits.node_id.empty()) {
      profile.traits.node_id = default_cdn_loop_token(profile.traits.name);
    }
    profile.traits.node_id += "-n" + std::to_string(i);
    nodes_.push_back(std::make_unique<CdnNode>(
        std::move(profile), upstream, "cdn-origin[" + std::to_string(i) + "]",
        SegmentFraming::kHttp11, transport));
    ingress_recorders_.push_back(std::make_unique<net::TrafficRecorder>(
        "client-cdn[" + std::to_string(i) + "]"));
    ingress_recorders_.back()->set_keep_log(false);
    ingress_wires_.push_back(net::make_transport(
        transport, *ingress_recorders_.back(), *nodes_.back()));
  }
  // Wire the per-node detection layers into one gossip fabric when the
  // profile enables both.  Node indices are stamped here -- the cluster is
  // the only scope that knows them.
  std::vector<NodeDetection*> detections;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    NodeDetection* detection = nodes_[i]->detection();
    if (detection == nullptr) continue;
    detection->set_node_index(i);
    detections.push_back(detection);
  }
  if (!detections.empty() && detections.size() == nodes_.size() &&
      detections.front()->policy().gossip.enabled) {
    const GossipPolicy policy = detections.front()->policy().gossip;
    gossip_ = std::make_unique<GossipFabric>(std::move(detections), policy);
    for (const auto& n : nodes_) n->set_gossip_fabric(gossip_.get());
  }
}

std::size_t EdgeCluster::select(const http::Request& request) noexcept {
  switch (selection_) {
    case NodeSelection::kRoundRobin:
      return next_++ % nodes_.size();
    case NodeSelection::kPinned:
      return pinned_ % nodes_.size();
    case NodeSelection::kHashByHost: {
      // FNV-1a over the Host header: the stable client->surrogate mapping a
      // DNS-based load balancer produces.
      std::uint64_t h = 0xCBF29CE484222325ULL;
      for (const char c : request.headers.get_or("Host", "")) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001B3ULL;
      }
      return static_cast<std::size_t>(h % nodes_.size());
    }
  }
  return 0;
}

http::Response EdgeCluster::handle(const http::Request& request) {
  // Gossip rounds are driven by the simulation clock at ingress: every due
  // round runs before the request is routed, so a signature gossiped "at"
  // t is visible to any exchange at t' >= round time.
  if (gossip_ && clock_) gossip_->advance(clock_());
  return ingress_wires_[select(request)]->transfer(request);
}

std::uint64_t EdgeCluster::total_ingress_response_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& r : ingress_recorders_) total += r->response_bytes();
  return total;
}

std::uint64_t EdgeCluster::total_upstream_response_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& n : nodes_) total += n->upstream_traffic().response_bytes();
  return total;
}

std::size_t EdgeCluster::nodes_touched() const noexcept {
  std::size_t count = 0;
  for (const auto& r : ingress_recorders_) {
    if (r->exchange_count() > 0) ++count;
  }
  return count;
}

ShieldStats EdgeCluster::total_shield_stats() const noexcept {
  ShieldStats total;
  for (const auto& n : nodes_) total += n->shield_stats();
  return total;
}

void EdgeCluster::set_clock(std::function<double()> clock) {
  clock_ = clock;
  for (const auto& n : nodes_) n->set_clock(clock);
}

void EdgeCluster::restart_node_detection(std::size_t i) {
  if (i >= nodes_.size()) return;
  if (NodeDetection* detection = nodes_[i]->detection()) detection->restart();
}

void EdgeCluster::set_tracer(obs::Tracer* tracer) {
  for (const auto& n : nodes_) n->set_tracer(tracer);
  for (const auto& w : ingress_wires_) w->set_tracer(tracer);
}

void EdgeCluster::set_metrics(obs::MetricsRegistry* metrics) {
  for (const auto& n : nodes_) n->set_metrics(metrics);
  if (gossip_) {
    gossip_->set_metrics(metrics,
                         nodes_.empty() ? "" : nodes_.front()->traits().name);
  }
}

}  // namespace rangeamp::cdn

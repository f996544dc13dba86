// CdnNode: one CDN edge/surrogate node.
//
// A node sits between a downstream peer (the client, or a front CDN) and an
// upstream handler (the origin, or a back CDN).  handle() parses the Range
// header once (a malformed header is ignored per RFC 7233), then:
//
//   1. runs the ingress guards, built once from the traits in precedence
//      order -- header limits (431), CDN-Loop (508/400), deadline (504),
//      range count (400), quarantine (429); a switched-off guard is not in
//      the list at all;
//   2. answers from cache when the full entity is held (fresh, stale under
//      overload pressure, or revalidated), or replays a coalesced fill;
//   3. applies overload admission, then delegates the miss to the vendor's
//      VendorLogic -- where the Laziness / Deletion / Expansion policies of
//      section III-B and the per-vendor quirks of Tables I-III live.
//
// docs/defense-model.md holds the full precedence table.  Every upstream
// exchange goes through a Wire, so the cdn-origin (or fcdn-bcdn) traffic of
// the experiments is recorded with exact serialized byte counts.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "cdn/cache.h"
#include "cdn/gossip.h"
#include "cdn/overload.h"
#include "cdn/shield.h"
#include "cdn/types.h"
#include "http/multipart.h"
#include "http/range.h"
#include "http/validate.h"
#include "http2/wire.h"
#include "net/transport_factory.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rangeamp::cdn {

class CdnNode;

/// Vendor-specific cache-miss behaviour.  Implementations use the node's
/// fetch/respond helpers; they never touch wires or caches directly.
class VendorLogic {
 public:
  virtual ~VendorLogic() = default;

  /// Handles a cache miss.  `range` is the parsed client Range header
  /// (nullopt when absent or malformed).  Returns the client-facing response.
  virtual http::Response on_miss(CdnNode& node, const http::Request& request,
                                 const std::optional<http::RangeSet>& range) = 0;

  /// URLs the logic remembers outside the cache (KeyCDN's first sightings).
  virtual std::size_t remembered_keys() const { return 0; }
};

/// A vendor profile: identity/calibration data plus miss behaviour.
struct VendorProfile {
  VendorTraits traits;
  std::unique_ptr<VendorLogic> logic;
};

/// A partial view of a resource: `body` covers bytes
/// [offset, offset + body.size()) of a representation of `total_size` bytes.
/// Produced by Expansion fetches (CloudFront's MiB-block window, Azure's
/// second-8MiB window).
struct EntityWindow {
  http::Body body;
  std::uint64_t offset = 0;
  std::uint64_t total_size = 0;
  std::string content_type;
  std::string etag;
  std::string last_modified;
};

/// Copies the representation metadata of an upstream response into `held`
/// (a CachedEntity or an EntityWindow); a missing Content-Type reads as
/// application/octet-stream.
template <class Held>
void read_representation(const http::Response& upstream, Held& held) {
  held.content_type =
      upstream.headers.get_or("Content-Type", "application/octet-stream");
  held.etag = upstream.headers.get_or("ETag", "");
  held.last_modified = upstream.headers.get_or("Last-Modified", "");
}

/// Wire protocol of a connection segment (the enum lives with the transport
/// contract; the historical cdn:: spelling is kept for call sites).
using SegmentFraming = net::SegmentFraming;

/// Outcome of a resilient upstream fetch (retries applied).
struct FetchResult {
  /// The final attempt's response.  Valid whenever `error` is absent; on a
  /// transport failure it holds the partial message (truncated entity) or a
  /// default-constructed response.
  http::Response response;
  /// The final attempt's transport error, when it had one.
  std::optional<net::TransferError> error;
  /// True when the final response is a retryable upstream 5xx and the
  /// budget is spent (the degradation path treats it as a failure too).
  bool upstream_5xx = false;
  /// Attempts performed (1 = no retry was needed).
  int attempts = 1;
  /// Latency observed across attempts, including backoff gaps.
  double elapsed_seconds = 0;
  /// When the shielding layer refused the fetch before any wire transfer
  /// (circuit open / admission limits / expired deadline), why.  `response`
  /// is then empty.
  ShedCause shed = ShedCause::kNone;
  /// The exchange's deadline budget ran out on this fetch: either before the
  /// first attempt (shed == kDeadline, no wire transfer) or mid-transfer
  /// (the remaining budget bounded the attempt timeout and it fired).  The
  /// degradation path answers 504 and never consults the stale copy -- past
  /// the client-facing deadline even a stale answer is useless work.
  bool deadline_expired = false;

  /// A usable response arrived (not shed, not a transport error, not a
  /// retryable 5xx).
  bool ok() const noexcept {
    return shed == ShedCause::kNone && !error.has_value() && !upstream_5xx;
  }
};

class CdnNode final : public net::HttpHandler {
 public:
  /// `upstream` must outlive the node.  Upstream traffic is recorded in the
  /// node-owned recorder named `upstream_segment`, framed per
  /// `upstream_framing` (most CDNs pull from origins over HTTP/1.1; some
  /// support h2 back-to-origin).  `upstream_transport` picks the HTTP/1.1
  /// backend (in-memory by default; loopback sockets for wall-clock runs);
  /// it is ignored for kHttp2 framing, which is in-memory only.
  CdnNode(VendorProfile profile, net::HttpHandler& upstream,
          std::string upstream_segment = "cdn-origin",
          SegmentFraming upstream_framing = SegmentFraming::kHttp11,
          const net::TransportSpec& upstream_transport = {});

  http::Response handle(const http::Request& request) override;

  const VendorTraits& traits() const noexcept { return traits_; }
  Cache& cache() noexcept { return cache_; }
  const Cache& cache() const noexcept { return cache_; }

  /// Installs a (simulation) time source.  Without one, cached entries never
  /// expire regardless of traits().cache_ttl_seconds.
  void set_clock(std::function<double()> clock) { clock_ = std::move(clock); }

  /// Traffic on this node's upstream segment.
  net::TrafficRecorder& upstream_traffic() noexcept { return upstream_traffic_; }

  /// Counters of the origin-shielding layer (all zero while the shield
  /// knobs are off).
  const ShieldStats& shield_stats() const noexcept { return shield_stats_; }

  /// Counters of the Byzantine-origin validation layer (all zero while
  /// traits().conformance.mode is kOff).
  const ValidationStats& validation_stats() const noexcept {
    return validation_stats_;
  }

  /// The upstream circuit breaker (state machine is inert unless
  /// traits().shield.breaker.enabled).
  const UpstreamBreaker& breaker() const noexcept { return breaker_; }

  /// Counters of the overload-control layer (all zero while the overload
  /// knobs are off).
  const OverloadStats& overload_stats() const noexcept {
    return overload_stats_;
  }

  /// The overload manager (inert unless traits().overload knobs are on).
  const OverloadManager& overload() const noexcept { return overload_; }

  /// The inline detection layer (null unless traits().detection.enabled).
  NodeDetection* detection() noexcept { return detection_.get(); }
  const NodeDetection* detection() const noexcept { return detection_.get(); }

  /// Joins this node to its cluster's gossip fabric (non-owning; nullptr
  /// detaches).  Locally minted signatures are then reported so the
  /// detection-latency histogram sees first-alarm events too.
  void set_gossip_fabric(GossipFabric* fabric) { gossip_ = fabric; }

  /// This node's CDN-Loop cdn-id (the configured token, or the default
  /// derived from the vendor name).
  const std::string& loop_token() const noexcept { return loop_token_; }

  /// Attaches a fault schedule to the upstream segment (non-owning; nullptr
  /// detaches).  The injector must outlive the node.
  void set_upstream_fault_injector(net::FaultInjector* injector);

  /// Attaches a tracer (non-owning; nullptr detaches) to this node *and* its
  /// upstream wire: handle() then opens a "cdn.handle" span (cache verdict,
  /// fill-lock role, loop rejections) and every upstream fetch a "cdn.fetch"
  /// span (breaker state, shed cause, attempts, upstream Range).
  void set_tracer(obs::Tracer* tracer);
  obs::Tracer* tracer() const noexcept { return tracer_; }

  /// Attaches a metrics registry (non-owning; nullptr detaches).  The node
  /// then maintains the cdn_* counters (see docs/observability.md), labelled
  /// with this vendor's name.
  void set_metrics(obs::MetricsRegistry* metrics);
  obs::MetricsRegistry* metrics() const noexcept { return metrics_; }

  // ------------------------------------------------------------------
  // Helpers for VendorLogic implementations.
  // ------------------------------------------------------------------

  /// Issues an upstream exchange under this vendor's resilience policy
  /// (retries, backoff, per-attempt timeout).  The upstream request is the
  /// client request with hop-by-hop headers stripped, this vendor's forward
  /// headers added, and the Range header replaced by `range` (absent when
  /// nullopt).  On failure, the returned response is a synthesized gateway
  /// error (502/504), so legacy callers stay well-formed; logics that want
  /// degradation semantics use fetch_result() + degrade() instead.
  http::Response fetch(const http::Request& client_request,
                       const std::optional<http::RangeSet>& range,
                       const net::TransferOptions& options = {},
                       http::Method method_override = http::Method::GET);

  /// Failure-aware upstream exchange: runs up to 1 + resilience.max_retries
  /// attempts (each a counted Wire transfer), honoring the per-attempt
  /// timeout budget and -- when serve-stale short-circuiting applies and a
  /// stale copy exists -- collapsing the budget to a single attempt.
  FetchResult fetch_result(const http::Request& client_request,
                           const std::optional<http::RangeSet>& range,
                           const net::TransferOptions& options = {},
                           http::Method method_override = http::Method::GET);

  /// Applies this vendor's degradation policy to a failed fetch: serve the
  /// stale cached copy, negative-cache the miss, or synthesize 502/504 (a
  /// real upstream 5xx is relayed).  `range` shapes the stale reply.
  http::Response degrade(const http::Request& request,
                         const std::optional<http::RangeSet>& range,
                         const FetchResult& result);

  /// The stale cached entity this request would be served under
  /// serve-stale degradation, or nullptr.
  const CachedEntity* stale_entity(const http::Request& request);

  /// Extracts a cacheable full entity from a 200 upstream response.
  static std::optional<CachedEntity> entity_from_response(
      const http::Response& upstream);

  /// Caches `entity` under this request's key (no-op when the profile has
  /// caching disabled).
  void store(const http::Request& request, const CachedEntity& entity);

  /// Builds the client-facing response from a held full entity, honoring
  /// `range` according to the vendor's multi-range reply policy.
  http::Response respond_entity(const CachedEntity& entity,
                                const std::optional<http::RangeSet>& range);

  /// Builds the client-facing response from a partial window.  Ranges that
  /// fall outside the window are dropped; if nothing is satisfiable the node
  /// answers 502.
  http::Response respond_window(const EntityWindow& window,
                                const http::RangeSet& range);

  /// Builds a client-facing 206 from pre-assembled parts (the caller has
  /// already applied its reply policy): one part -> plain 206 with
  /// Content-Range, several -> multipart/byteranges with this vendor's
  /// boundary.  Used by logics that gather payload non-contiguously
  /// (SliceLogic's gap-free fetching).
  http::Response respond_assembled(
      std::uint64_t total_size, const std::string& content_type,
      const std::string& etag, const std::string& last_modified,
      std::vector<std::pair<http::ResolvedRange, http::Body>> parts);

  /// Relays an upstream response (Laziness passthrough), restyled with this
  /// vendor's identity headers.
  http::Response relay(const http::Response& upstream);

  /// A vendor-styled error response.
  http::Response error(int status, std::string_view note);

 private:
  /// The exchange handle() is serving, replaced by one assignment at its
  /// top and restored on return (logics fetch synchronously).
  struct Exchange {
    const http::Request* request = nullptr;  ///< null outside handle()
    std::optional<http::RangeSet> range{};   ///< parsed Range (malformed: none)
    /// Resolved cache key, on first use; store() drops it when it writes a
    /// #vary marker (the key then resolves to the variant).
    std::optional<std::string> key{};
    /// Deadline budget left: stamped at ingress, decremented by every
    /// attempt's latency and backoff; nullopt = deadline knob off.
    std::optional<double> deadline_remaining{};
    /// kAttemptCountHeader at ingress; legs stamp `incoming + retry index`.
    int incoming_attempt_count = 1;
    /// The current fetch's response may be relayed but never stored (a
    /// failed validation or deadline cut); reset by every fetch_result.
    bool taint_no_store = false;
    /// Detection inputs, set at ingress on a detection-enabled node for the
    /// quarantine guard and the detector alike; feed_detection() consumes
    /// the strings.
    std::string client_key{};
    std::string base_key{};
    core::RangeClass shape = core::RangeClass::kNone;
  };
  /// An ingress guard: nullopt admits, otherwise the rejection to serve
  /// (the guard notes its own verdict on the handle span).
  using Guard = std::optional<http::Response> (CdnNode::*)(obs::SpanScope&);

  http::Response handle_request(obs::SpanScope& span);
  /// Publishes the cache engine's eviction/reject/bytes deltas to the
  /// attached registry (and notes evictions on the handle span).  Runs once
  /// per handled request; tolerant of cache_.clear() counter resets.
  void sync_cache_stats(obs::SpanScope& span);
  std::string cache_key(const http::Request& request) const;
  std::string resolve_cache_key(const http::Request& request) const;
  /// The exchange request's resolved cache key (resolved once).
  const std::string& exchange_key();
  /// exchange_key() for the exchange request, else resolved afresh.
  std::string key_of(const http::Request& request);
  http::Request build_upstream_request(const http::Request& client_request,
                                       const std::optional<http::RangeSet>& range,
                                       http::Method method_override) const;
  http::Response style(int status, const http::Headers& content_headers,
                       http::Body body) const;
  http::Response respond_416(std::uint64_t total_size);
  /// The one entity reply: 200 with `body` as the whole representation, or
  /// 206 with `body` as bytes `*part` of `total`.
  http::Response entity_reply(http::Body body,
                              std::optional<http::ResolvedRange> part,
                              std::uint64_t total, std::string_view content_type,
                              std::string_view etag,
                              std::string_view last_modified);
  /// respond_window over borrowed fields (no copy of a cached entity).
  http::Response respond_ranges(const http::Body& body, std::uint64_t offset,
                                std::uint64_t total,
                                std::string_view content_type,
                                std::string_view etag,
                                std::string_view last_modified,
                                const http::RangeSet& range);
  /// `stale` served with Warning `warn_code`: 110 (stale under overload
  /// pressure) or 111 (revalidation failed).
  http::Response respond_stale(const CachedEntity& stale,
                               const std::optional<http::RangeSet>& range,
                               int warn_code);
  double sim_now() const { return clock_ ? clock_() : 0.0; }

  // The ingress guards, in precedence order (docs/defense-model.md).
  /// Request-header limits: 431.
  std::optional<http::Response> check_header_limits(obs::SpanScope& span);
  /// RFC 8586: 508 on self-recurrence or hop-cap excess, 400 if malformed.
  std::optional<http::Response> check_cdn_loop(obs::SpanScope& span);
  /// Stamps the exchange's deadline budget (header or policy default), 504
  /// when it is below the per-hop minimum; charges upstream-hop retries
  /// (attempt count > 1) against the retry budget.
  std::optional<http::Response> check_deadline_ingress(obs::SpanScope& span);
  /// traits().ingress_max_range_count: 400 on a Range with more ranges.
  std::optional<http::Response> check_range_count(obs::SpanScope& span);
  /// 429 + Retry-After on an active attack-signature match.  A client-key
  /// match refreshes the signature's TTL (the attack is still live); a
  /// pattern match never does (collateral must not keep it alive).
  std::optional<http::Response> check_quarantine(obs::SpanScope& span);

  /// Feeds one completed exchange (origin bytes: the upstream recorder's
  /// growth since `origin_before`) to the per-client detector.
  void feed_detection(const http::Response& response,
                      const net::TrafficTotals& origin_before,
                      obs::SpanScope& span);
  /// Watermark admission for one cache miss: nullopt admits, otherwise the
  /// degraded (stale / 503) or shed (503) response to serve.
  std::optional<http::Response> check_overload(obs::SpanScope& span);
  /// The vendor-styled 503 + Retry-After a shed request is answered with.
  http::Response shed_response(ShedCause cause);
  /// The vendor-styled 504 an exchange past its deadline is answered with.
  http::Response deadline_response(std::string_view where);
  /// Validates the fetched upstream response under traits().conformance and
  /// enforces the verdict: 502-synthesize (fatal / strict), truncate-and-drop
  /// (lenient over-long identity body), or never-cache taint (lenient soft
  /// violations).  `range` is the Range set this hop sent upstream.
  void apply_conformance(FetchResult& result,
                         const std::optional<http::RangeSet>& range,
                         obs::SpanScope& span);
  /// Client-facing multipart assembly budget (respond_multipart): nullopt
  /// admits the body, otherwise the 502 to serve.
  std::optional<http::Response> check_assembly_budget(std::uint64_t body_bytes);
  /// The multipart/byteranges 206 of respond_window and respond_assembled:
  /// frames `parts` of `source` with this vendor's boundary and part
  /// headers, or answers 502 when the body is over the assembly budget.
  http::Response respond_multipart(std::string_view etag,
                                   std::string_view last_modified,
                                   std::string_view content_type,
                                   std::uint64_t total_size, http::Body source,
                                   std::vector<http::MultipartPart> parts);
  void count_violation(http::ValidationCheck check, std::string_view action);

  VendorTraits traits_;
  std::unique_ptr<VendorLogic> logic_;
  net::TrafficRecorder upstream_traffic_;
  std::unique_ptr<net::Transport> upstream_;
  Cache cache_;
  std::function<double()> clock_;
  std::string loop_token_;
  UpstreamBreaker breaker_;
  FillLockTable fills_;
  OverloadManager overload_;
  ShieldStats shield_stats_;
  ValidationStats validation_stats_;
  OverloadStats overload_stats_;
  /// Inline detection layer; null while traits().detection.enabled is off
  /// (a detection-unaware node does zero extra work).
  std::unique_ptr<NodeDetection> detection_;
  GossipFabric* gossip_ = nullptr;
  /// The switched-on ingress guards, in precedence order (constructor).
  std::vector<Guard> guards_;
  Exchange ex_;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  // Cached metric handles (registry map entries are reference-stable); all
  // null while no registry is attached.
  obs::Counter* m_requests_ = nullptr;
  obs::Counter* m_cache_hits_ = nullptr;
  obs::Counter* m_cache_misses_ = nullptr;
  obs::Counter* m_coalesced_hits_ = nullptr;
  obs::Counter* m_fetch_attempts_ = nullptr;
  obs::Counter* m_loop_rejected_ = nullptr;
  obs::Counter* m_shed_ = nullptr;
  obs::Counter* m_budget_overflows_ = nullptr;
  obs::Counter* m_overload_shed_ = nullptr;
  obs::Counter* m_overload_degraded_ = nullptr;
  obs::Counter* m_deadline_expired_ = nullptr;
  obs::Counter* m_retry_budget_denied_ = nullptr;
  obs::Counter* m_cache_evictions_ = nullptr;
  obs::Counter* m_cache_rejects_ = nullptr;
  obs::Counter* m_detect_alarms_ = nullptr;
  obs::Counter* m_quarantined_ = nullptr;
  obs::Gauge* m_cache_bytes_ = nullptr;
  // Last cache-engine stats published to the registry (delta reporting, so
  // the shared per-vendor counters/gauge aggregate across nodes).
  std::uint64_t cache_evictions_seen_ = 0;
  std::uint64_t cache_rejects_seen_ = 0;
  double cache_bytes_reported_ = 0;
  mutable std::uint64_t response_serial_ = 0;  ///< varies the trace pad
};

/// Computes the response padding that makes this vendor's canonical
/// single-range 206 (1-byte body, 25 MB resource) serialize to
/// traits.client_response_target_bytes.  Called by profile factories;
/// exposed for calibration tests.
std::size_t calibrate_response_pad(const VendorTraits& traits);

/// Name of the padding header used by calibration.
inline constexpr std::string_view kPadHeaderName = "X-Edge-Trace";

}  // namespace rangeamp::cdn

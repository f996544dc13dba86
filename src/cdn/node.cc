#include "cdn/node.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "cdn/limits.h"
#include "http/chunked.h"
#include "http/multipart.h"
#include "http/serialize.h"

namespace rangeamp::cdn {

using http::Body;
using http::Headers;
using http::RangeSet;
using http::Request;
using http::ResolvedRange;
using http::Response;

namespace {

constexpr std::string_view kHopByHop[] = {
    "Connection", "Keep-Alive", "TE", "Trailer", "Transfer-Encoding",
    "Upgrade",    "Proxy-Authorization", "Proxy-Connection",
};

bool is_hop_by_hop(std::string_view name) {
  return std::any_of(std::begin(kHopByHop), std::end(kHopByHop),
                     [&](std::string_view h) { return http::iequals(h, name); });
}

// Builds a vendor-styled response: status line, Date, identity headers,
// content headers, Accept-Ranges and the calibration pad.  Shared between
// CdnNode and calibrate_response_pad() so calibration measures exactly what
// the node emits.
//
// Real CDN trace ids (CF-Ray, X-Amz-Cf-Id, ...) differ per response, so a
// pad of 16 bytes or more starts with `serial` in hex -- same length, so
// HTTP/1.1 byte counts (and the Table IV calibration) are untouched, but
// HPACK cannot fully index repeated responses the way it never could in
// production.
Response styled_response(const VendorTraits& traits, std::uint64_t serial,
                         int status, const Headers& content_headers, Body body) {
  Response resp;
  resp.status = status;
  resp.headers.add("Date", traits.date);
  for (const auto& f : traits.response_identity_headers) {
    resp.headers.add(f.name, f.value);
  }
  if (traits.emit_via && !traits.node_id.empty()) {
    // RFC 7230 section 5.7.1: intermediaries append themselves on responses
    // too.  The line is serialized like any other header, so it participates
    // in every segment's byte accounting.
    resp.headers.add("Via", "1.1 " + traits.node_id);
  }
  for (const auto& f : content_headers) {
    resp.headers.add(f.name, f.value);
  }
  resp.headers.add("Accept-Ranges", "bytes");
  if (traits.response_pad_bytes > 0) {
    std::string pad(traits.response_pad_bytes, 'x');
    if (pad.size() >= 16) {
      char hex[17];
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(serial));
      pad.replace(0, 16, hex, 16);
    }
    resp.headers.add(std::string{kPadHeaderName}, std::move(pad));
  }
  resp.body = std::move(body);
  return resp;
}

// The validator fields (RFC 7232) every entity-derived reply carries, in the
// order the origin model emits them; absent validators are left out.
Headers validator_headers(std::string_view etag, std::string_view last_modified) {
  Headers h;
  if (!last_modified.empty()) h.add("Last-Modified", std::string{last_modified});
  if (!etag.empty()) h.add("ETag", std::string{etag});
  return h;
}

// h2 framing is a property of the segment, not a factory backend (the
// net layer cannot depend on http2), so the node selects it here; the
// HTTP/1.1 backends go through net::make_transport.
std::unique_ptr<net::Transport> make_upstream_transport(
    SegmentFraming framing, const net::TransportSpec& spec,
    net::TrafficRecorder& recorder, net::HttpHandler& upstream) {
  if (framing == SegmentFraming::kHttp2) {
    return std::make_unique<http2::Http2Wire>(recorder, upstream);
  }
  return net::make_transport(spec, recorder, upstream);
}

std::string_view breaker_state_name(UpstreamBreaker::State state) noexcept {
  switch (state) {
    case UpstreamBreaker::State::kClosed: return "closed";
    case UpstreamBreaker::State::kOpen: return "open";
    case UpstreamBreaker::State::kHalfOpen: return "half-open";
  }
  return "unknown";
}

// Joins the request's values of the headers a Vary list names.
std::string variant_of(const Request& request, std::string_view vary) {
  std::string out;
  std::size_t pos = 0;
  while (pos <= vary.size()) {
    auto comma = vary.find(',', pos);
    if (comma == std::string_view::npos) comma = vary.size();
    std::string_view name = vary.substr(pos, comma - pos);
    while (!name.empty() && name.front() == ' ') name.remove_prefix(1);
    while (!name.empty() && name.back() == ' ') name.remove_suffix(1);
    if (!name.empty()) {
      out.append(request.headers.get_or(name, ""));
      out.push_back('\x1f');
    }
    pos = comma + 1;
  }
  return out;
}

}  // namespace

CdnNode::CdnNode(VendorProfile profile, net::HttpHandler& upstream,
                 std::string upstream_segment, SegmentFraming upstream_framing,
                 const net::TransportSpec& upstream_transport)
    : traits_(std::move(profile.traits)),
      logic_(std::move(profile.logic)),
      upstream_traffic_(std::move(upstream_segment)),
      upstream_(make_upstream_transport(upstream_framing, upstream_transport,
                                        upstream_traffic_, upstream)),
      cache_(traits_.cache),
      loop_token_(traits_.shield.loop.token.empty()
                      ? default_cdn_loop_token(traits_.name)
                      : traits_.shield.loop.token),
      breaker_(traits_.shield.breaker),
      fills_(traits_.shield.coalescing),
      overload_(traits_.overload) {
  if (traits_.node_id.empty()) traits_.node_id = loop_token_;
  if (traits_.detection.enabled) {
    detection_ = std::make_unique<NodeDetection>(traits_.detection, 0);
  }
  // The ingress guards in precedence order (docs/defense-model.md): protocol
  // rejections first, quarantine last -- after them, before everything that
  // costs work.  A switched-off guard is left out, not tested per request.
  const RetryBudgetPolicy& rb = traits_.overload.retry_budget;
  guards_.push_back(&CdnNode::check_header_limits);
  if (traits_.shield.loop.enabled) guards_.push_back(&CdnNode::check_cdn_loop);
  if (traits_.overload.deadline.enabled ||
      (rb.enabled && rb.count_chain_attempts)) {
    guards_.push_back(&CdnNode::check_deadline_ingress);
  }
  if (traits_.ingress_max_range_count != 0) {
    guards_.push_back(&CdnNode::check_range_count);
  }
  if (detection_ && traits_.detection.quarantine_enabled) {
    guards_.push_back(&CdnNode::check_quarantine);
  }
}

Response CdnNode::handle(const Request& request) {
  // A cyclic topology (this node -> BCDN -> this node) re-enters handle()
  // from inside a fetch; the outer exchange gets its own state back below.
  Exchange outer = std::exchange(ex_, Exchange{.request = &request});
  // Parsed once, for the guards, the miss path and the detector alike.
  if (const auto value = request.headers.get("Range")) {
    ex_.range = http::parse_range_header(*value);  // malformed -> ignored
  }
  if (detection_) {
    ex_.client_key = request.headers.get_or(kClientKeyHeader, "");
    ex_.base_key = detection_base_key(request);
    ex_.shape = core::classify_range(ex_.range);
  }
  obs::SpanScope span(tracer_, "cdn.handle");
  if (span) {
    span.note("vendor", traits_.name);
    span.note("node", traits_.node_id);
  }
  if (m_requests_) m_requests_->inc();
  // Inline detection measures the back-to-origin bytes this exchange causes
  // (the recorder delta around handle_request) and feeds the per-client
  // detector afterwards.
  const net::TrafficTotals origin_before =
      detection_ ? upstream_traffic_.totals() : net::TrafficTotals{};
  Response response = handle_request(span);
  if (detection_) feed_detection(response, origin_before, span);
  sync_cache_stats(span);
  span.set_status(response.status);
  ex_ = std::move(outer);
  return response;
}

void CdnNode::sync_cache_stats(obs::SpanScope& span) {
  if (!metrics_ && !span) return;
  const Cache::Stats st = cache_.stats();
  // cache_.clear() resets the engine's monotonic counters; restart the
  // deltas instead of underflowing (the Prometheus counters stay monotonic).
  if (st.evictions < cache_evictions_seen_) cache_evictions_seen_ = 0;
  if (st.admission_rejects < cache_rejects_seen_) cache_rejects_seen_ = 0;
  const std::uint64_t ev_delta = st.evictions - cache_evictions_seen_;
  const std::uint64_t rej_delta = st.admission_rejects - cache_rejects_seen_;
  cache_evictions_seen_ = st.evictions;
  cache_rejects_seen_ = st.admission_rejects;
  if (span && ev_delta != 0) {
    span.note("cache_evictions", std::to_string(ev_delta));
  }
  if (span && rej_delta != 0) {
    span.note("cache_admission_rejects", std::to_string(rej_delta));
  }
  if (!metrics_) return;
  if (ev_delta != 0) m_cache_evictions_->inc(ev_delta);
  if (rej_delta != 0) m_cache_rejects_->inc(rej_delta);
  // The gauge is shared across this vendor's nodes, so report the *change*
  // in this node's resident bytes: the gauge then reads the deployment-wide
  // total (and per-shard registries merge additively, see metrics.h).
  const double bytes_delta =
      static_cast<double>(st.bytes) - cache_bytes_reported_;
  if (bytes_delta != 0) m_cache_bytes_->add(bytes_delta);
  cache_bytes_reported_ = static_cast<double>(st.bytes);
}

Response CdnNode::handle_request(obs::SpanScope& span) {
  for (const Guard guard : guards_) {
    if (auto rejected = (this->*guard)(span)) return std::move(*rejected);
  }
  const Request& request = *ex_.request;
  const std::optional<RangeSet>& range = ex_.range;

  if (traits_.cache_enabled) {
    const std::string& key = exchange_key();
    if (const CachedEntity* hit = cache_.find(key)) {
      const double now = sim_now();
      if (hit->fresh_at(now)) {
        span.note("cache", "hit");
        if (m_cache_hits_) m_cache_hits_->inc();
        return respond_entity(*hit, range);
      }
      // Stale under overload pressure: skip the conditional GET entirely --
      // the stale copy absorbs the request at zero upstream cost
      // (stale-while-revalidate collapsed onto the overload manager).
      if (traits_.overload.watermarks.enabled &&
          overload_.admit(now) != OverloadVerdict::kAdmit) {
        ++overload_stats_.degraded;
        ++overload_stats_.stale_under_pressure;
        span.note("overload", "serve-stale");
        if (m_overload_degraded_) m_overload_degraded_->inc();
        return respond_stale(*hit, range, 110);
      }
      // Stale: revalidate with a conditional GET instead of a refetch.
      // (Key differs from the terminal "cache" verdict: a failed revalidation
      // falls through to the miss path, and note keys must stay unique.)
      span.note("revalidate", "stale");
      http::Request conditional = request;
      conditional.headers.set("If-None-Match", hit->etag);
      FetchResult check = fetch_result(conditional, std::nullopt);
      if (check.shed == ShedCause::kDeadline || check.deadline_expired) {
        // Deadline outranks serve-stale: past the client-facing deadline
        // even the stale copy is useless work (see degrade()).
        span.note("degrade", "deadline-504");
        return degrade(request, range, check);
      }
      if (!check.ok() &&
          traits_.resilience.degradation == DegradationPolicy::kServeStale) {
        // Stale-if-error: the revalidation failed, the stale copy absorbs it.
        span.note("degrade", "serve-stale");
        return respond_stale(*hit, range, 111);
      }
      if (check.ok()) {
        if (check.response.status == 304) {
          // Build the reply before touching: a purge-on-touch (stale entry
          // whose new horizon is not in the future) frees the slot `hit`
          // points into.
          Response resp = respond_entity(*hit, range);
          cache_.touch(key, now + traits_.cache_ttl_seconds, now);
          return resp;
        }
        if (auto entity = entity_from_response(check.response)) {
          store(request, *entity);
          return respond_entity(*entity, range);
        }
      }
      // Revalidation failed outright: fall through to the vendor's miss path.
    }
    // Only the negative-cache degradation writes #neg entries (degrade()).
    if (traits_.resilience.degradation == DegradationPolicy::kNegativeCache) {
      if (const CachedEntity* negative = cache_.find(key + "#neg")) {
        if (negative->fresh_at(sim_now())) {
          span.note("cache", "negative-hit");
          return error(http::kBadGateway, "negative-cached upstream failure");
        }
      }
    }
  }

  span.note("cache", "miss");
  if (m_cache_misses_) m_cache_misses_->inc();
  // Request coalescing: a miss whose (key, Range) pair matches a fill still
  // inside its lock window replays the leader's response instead of running
  // the vendor miss path -- N concurrent cache-busting misses collapse into
  // one origin fetch (proxy_cache_lock / Varnish request collapsing).  A
  // held fill outranks overload shedding: replaying the leader's response
  // costs the origin nothing, so shedding it would only hurt availability
  // (same argument as serve-stale vs the open breaker).
  const bool coalescing = traits_.shield.coalescing.enabled;
  const double now = sim_now();
  std::string fill_key;
  if (coalescing) {
    fill_key = exchange_key();
    fill_key.push_back('\x1f');
    fill_key.append(request.headers.get_or("Range", ""));
    if (const Response* held = fills_.find(fill_key, now)) {
      ++shield_stats_.coalesced_hits;
      span.note("fill_lock", "coalesced-hit");
      if (m_coalesced_hits_) m_coalesced_hits_->inc();
      return *held;
    }
  }
  if (auto refused = check_overload(span)) return std::move(*refused);
  if (!coalescing) return logic_->on_miss(*this, request, range);
  ++shield_stats_.fill_fetches;
  span.note("fill_lock", "leader");
  Response filled = logic_->on_miss(*this, request, range);
  fills_.record(std::move(fill_key), filled, now);
  return filled;
}

std::optional<Response> CdnNode::check_header_limits(obs::SpanScope& span) {
  const auto violation = check_request_limits(traits_.limits, *ex_.request);
  if (!violation) return std::nullopt;
  span.note("verdict", "header-limits");
  return error(http::kRequestHeaderFieldsTooLarge, *violation);
}

std::optional<Response> CdnNode::check_cdn_loop(obs::SpanScope& span) {
  const LoopDefensePolicy& loop = traits_.shield.loop;
  const auto reject = [&](int status, const std::string& note,
                          std::uint64_t& counter) {
    ++counter;
    span.note("verdict", "loop-rejected");
    if (m_loop_rejected_) m_loop_rejected_->inc();
    return error(status, note);
  };
  std::vector<CdnLoopEntry> entries;
  for (const std::string_view value : ex_.request->headers.get_all("CDN-Loop")) {
    auto parsed = parse_cdn_loop(value);
    if (!parsed) {
      // A value we cannot lex cannot be checked for recurrence; failing
      // closed is the only safe option for a loop defense.
      return reject(http::kBadRequest, "malformed CDN-Loop header",
                    shield_stats_.loop_rejected);
    }
    entries.insert(entries.end(), parsed->begin(), parsed->end());
  }
  if (cdn_loop_contains(entries, loop_token_)) {
    return reject(http::kLoopDetected,
                  "loop detected: " + loop_token_ + " already forwarded this",
                  shield_stats_.loop_rejected);
  }
  if (loop.max_hops != 0 && entries.size() >= loop.max_hops) {
    return reject(http::kLoopDetected,
                  "CDN-Loop hop cap exceeded (" +
                      std::to_string(entries.size()) + " >= " +
                      std::to_string(loop.max_hops) + ")",
                  shield_stats_.hop_cap_rejected);
  }
  return std::nullopt;
}

std::optional<Response> CdnNode::check_deadline_ingress(obs::SpanScope& span) {
  const Request& request = *ex_.request;
  const RetryBudgetPolicy& rb = traits_.overload.retry_budget;
  if (const auto value = request.headers.get(kAttemptCountHeader)) {
    if (const auto count = parse_attempt_count(*value)) {
      ex_.incoming_attempt_count = *count;
      if (rb.enabled && rb.count_chain_attempts && *count > 1) {
        // An upstream hop is retrying through us: charge its retry against
        // our budget so a chain cannot multiply attempts geometrically.
        overload_.note_chain_attempt(sim_now());
        ++overload_stats_.chain_attempts;
        span.note("chain_attempt", std::to_string(*count));
      }
    }
  }

  const DeadlinePolicy& dp = traits_.overload.deadline;
  if (!dp.enabled) return std::nullopt;  // here for chain counting alone
  double budget = dp.default_budget_seconds;
  if (const auto value = request.headers.get(kDeadlineBudgetHeader)) {
    if (const auto parsed = parse_deadline_budget(*value)) budget = *parsed;
    // An unparseable value falls back to the default: the header is
    // internal, and failing open here only loses an optimization.
  }
  ex_.deadline_remaining = budget;
  if (budget < dp.per_hop_min_seconds) {
    ++overload_stats_.deadline_rejected_ingress;
    if (m_deadline_expired_) m_deadline_expired_->inc();
    span.note("deadline", "expired-at-ingress");
    span.note("verdict", "deadline-expired");
    return deadline_response("at ingress");
  }
  return std::nullopt;
}

std::optional<Response> CdnNode::check_range_count(obs::SpanScope& span) {
  const std::size_t cap = traits_.ingress_max_range_count;
  if (!ex_.range || ex_.range->count() <= cap) return std::nullopt;
  span.note("verdict", "range-count");
  return error(http::kBadRequest,
               "Range header carries too many ranges (guard: " +
                   std::to_string(cap) + ")");
}

std::optional<Response> CdnNode::check_quarantine(obs::SpanScope& span) {
  const double now = sim_now();
  const NodeDetection::Match verdict =
      detection_->match(ex_.client_key, ex_.base_key, ex_.shape, now);
  if (verdict == NodeDetection::Match::kNone) return std::nullopt;
  if (verdict == NodeDetection::Match::kClient) {
    // The attack is demonstrably still live; without this refresh the
    // signature would expire under the quarantine (quarantined requests
    // never reach the detectors) and the cluster would oscillate between
    // quarantining and re-detecting the same client.
    detection_->refresh_client(ex_.client_key, now);
  }
  span.note("verdict", verdict == NodeDetection::Match::kClient
                           ? "quarantine-client"
                           : "quarantine-pattern");
  if (m_quarantined_) m_quarantined_->inc();
  Response resp =
      error(http::kTooManyRequests,
            verdict == NodeDetection::Match::kClient
                ? "request quarantined: client matches an active RangeAmp "
                  "attack signature"
                : "request quarantined: target/shape matches an active "
                  "RangeAmp attack signature");
  char value[32];
  std::snprintf(value, sizeof(value), "%.0f",
                traits_.detection.quarantine_retry_after_seconds);
  resp.headers.add("Retry-After", value);
  return resp;
}

void CdnNode::feed_detection(const Response& response,
                             const net::TrafficTotals& origin_before,
                             obs::SpanScope& span) {
  // A quarantine 429 is the detector's own output, not evidence: the
  // stream behind it carries no origin traffic and would read as clean,
  // decaying the very alarm that blocks it.
  if (response.status == http::kTooManyRequests) return;
  const Request& request = *ex_.request;
  net::TrafficTotals origin_delta = upstream_traffic_.totals();
  origin_delta.request_bytes -= origin_before.request_bytes;
  origin_delta.response_bytes -= origin_before.response_bytes;
  net::TrafficTotals client_delta;
  client_delta.request_bytes = http::serialized_size(request);
  client_delta.response_bytes = http::serialized_size(response);
  const std::uint64_t resource = resource_bytes_from_response(response);
  const double now = sim_now();
  const core::DetectorSample sample = core::make_detector_sample(
      core::selected_bytes_of(ex_.range, resource), resource, client_delta,
      origin_delta, std::move(ex_.client_key), std::move(ex_.base_key),
      ex_.shape);
  const std::uint64_t alarms_before = detection_->stats().alarms;
  const AttackSignature* fresh = detection_->observe(sample, now);
  if (detection_->stats().alarms != alarms_before) {
    span.note("detect", "alarm");
    if (m_detect_alarms_) m_detect_alarms_->inc();
  }
  if (fresh != nullptr && gossip_ != nullptr) {
    gossip_->note_fresh_signature(*fresh, now);
  }
}

std::optional<Response> CdnNode::check_overload(obs::SpanScope& span) {
  const WatermarkPolicy& wp = traits_.overload.watermarks;
  if (!wp.enabled) return std::nullopt;
  const double now = sim_now();
  const OverloadVerdict verdict = overload_.admit(now);
  if (verdict == OverloadVerdict::kAdmit) {
    ++overload_stats_.admitted;
    overload_.note_queued(now);
    return std::nullopt;
  }
  span.note("overload", std::string{overload_verdict_name(verdict)});
  span.note("pressure",
            std::string{pressure_dim_name(overload_.last_pressure_dim())});
  if (verdict == OverloadVerdict::kDegrade) {
    ++overload_stats_.degraded;
    if (m_overload_degraded_) m_overload_degraded_->inc();
    if (const CachedEntity* stale = stale_entity(*ex_.request)) {
      ++overload_stats_.stale_under_pressure;
      return respond_stale(*stale, ex_.range, 110);
    }
    return shed_response(ShedCause::kOverloadLow);
  }
  ++overload_stats_.shed_high_watermark;
  if (m_overload_shed_) m_overload_shed_->inc();
  return shed_response(ShedCause::kOverloadHigh);
}

void CdnNode::set_upstream_fault_injector(net::FaultInjector* injector) {
  upstream_->set_fault_injector(injector);
}

void CdnNode::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  upstream_->set_tracer(tracer);
}

void CdnNode::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (!metrics) {
    m_requests_ = m_cache_hits_ = m_cache_misses_ = m_coalesced_hits_ =
        m_fetch_attempts_ = m_loop_rejected_ = m_shed_ = m_budget_overflows_ =
            m_overload_shed_ = m_overload_degraded_ = m_deadline_expired_ =
                m_retry_budget_denied_ = m_cache_evictions_ = m_cache_rejects_ =
                    m_detect_alarms_ = m_quarantined_ = nullptr;
    m_cache_bytes_ = nullptr;
    return;
  }
  const std::string label = "{vendor=\"" + traits_.name + "\"}";
  m_requests_ = &metrics->counter("cdn_requests_total" + label,
                                  "requests this vendor's nodes handled");
  m_cache_hits_ = &metrics->counter("cdn_cache_hits_total" + label,
                                    "fresh full-entity cache hits");
  m_cache_misses_ = &metrics->counter("cdn_cache_misses_total" + label,
                                      "requests that reached the miss path");
  m_coalesced_hits_ =
      &metrics->counter("cdn_coalesced_hits_total" + label,
                        "misses answered from a fill-lock leader's response");
  m_fetch_attempts_ =
      &metrics->counter("cdn_origin_fetch_attempts_total" + label,
                        "upstream wire transfers, retries included");
  m_loop_rejected_ =
      &metrics->counter("cdn_loop_rejected_total" + label,
                        "requests rejected by the CDN-Loop defense (508/400)");
  m_shed_ = &metrics->counter(
      "cdn_shed_total" + label,
      "fetches shed before any wire transfer (breaker open / admission)");
  m_budget_overflows_ = &metrics->counter(
      "cdn_validator_budget_overflows_total" + label,
      "body-buffer / multipart-assembly budget trips (ingest and egress)");
  m_overload_shed_ = &metrics->counter(
      "cdn_overload_shed_total" + label,
      "misses hard-rejected 503 at a high watermark");
  m_overload_degraded_ = &metrics->counter(
      "cdn_overload_degraded_total" + label,
      "misses degraded between watermarks (stale served or 503)");
  m_deadline_expired_ = &metrics->counter(
      "cdn_deadline_expired_total" + label,
      "exchanges refused or cancelled by the propagated deadline (504)");
  m_retry_budget_denied_ = &metrics->counter(
      "cdn_retry_budget_denied_total" + label,
      "upstream retries refused by the cross-hop retry budget");
  m_cache_evictions_ = &metrics->counter(
      "cdn_cache_evictions_total" + label,
      "cache entries evicted under the byte budget (markers' stranded "
      "variants included)");
  m_cache_rejects_ = &metrics->counter(
      "cdn_cache_admission_rejects_total" + label,
      "cache inserts shed because eviction could not make room");
  m_detect_alarms_ = &metrics->counter(
      "cdn_detection_alarms_total" + label,
      "per-client detector alarm transitions at ingress");
  m_quarantined_ = &metrics->counter(
      "cdn_detection_quarantined_total" + label,
      "requests answered 429 on an active attack-signature match");
  m_cache_bytes_ = &metrics->gauge(
      "cdn_cache_bytes" + label,
      "charged bytes resident in this vendor's caches (key + entity + "
      "per-entry overhead)");
  // Fresh registry handles: re-baseline the deltas so a registry attached
  // mid-life starts from the cache's current state.
  cache_evictions_seen_ = cache_.evictions();
  cache_rejects_seen_ = cache_.admission_rejects();
  cache_bytes_reported_ = 0;
  const double bytes_now = static_cast<double>(cache_.bytes());
  if (bytes_now != 0) m_cache_bytes_->add(bytes_now);
  cache_bytes_reported_ = bytes_now;
}

Request CdnNode::build_upstream_request(const Request& client_request,
                                        const std::optional<RangeSet>& range,
                                        http::Method method_override) const {
  Request upstream_request;
  upstream_request.method = method_override;
  upstream_request.target = client_request.target;
  for (const auto& f : client_request.headers.fields()) {
    if (http::iequals(f.name, "Range") || is_hop_by_hop(f.name)) continue;
    // The deadline/attempt headers are hop-by-hop too: each hop re-stamps
    // its own values per attempt (fetch_result), never relays the client's.
    if (http::iequals(f.name, kDeadlineBudgetHeader) ||
        http::iequals(f.name, kAttemptCountHeader)) {
      continue;
    }
    upstream_request.headers.add(f.name, f.value);
  }
  for (const auto& f : traits_.forward_headers) {
    upstream_request.headers.add(f.name, f.value);
  }
  if (traits_.shield.loop.enabled) {
    // RFC 8586: every forwarding CDN appends its cdn-id.  Incoming CDN-Loop
    // fields were copied through above, so the chain accumulates hop by hop.
    // Some vendors (Cloudflare, StackPath) already emit their cdn-id among
    // the canonical forward_headers; skip the append rather than name this
    // hop twice.
    bool already_listed = false;
    for (const std::string_view value :
         upstream_request.headers.get_all("CDN-Loop")) {
      const auto parsed = parse_cdn_loop(value);
      if (parsed && cdn_loop_contains(*parsed, loop_token_)) {
        already_listed = true;
        break;
      }
    }
    if (!already_listed) upstream_request.headers.add("CDN-Loop", loop_token_);
  }
  if (traits_.emit_via) {
    upstream_request.headers.add("Via", "1.1 " + traits_.node_id);
  }
  if (range) upstream_request.headers.add("Range", range->to_string());
  return upstream_request;
}

Response CdnNode::shed_response(ShedCause cause) {
  const bool overload_cause = cause == ShedCause::kOverloadHigh ||
                              cause == ShedCause::kOverloadLow;
  Response resp = error(http::kServiceUnavailable,
                        std::string{overload_cause
                                        ? "request shed by overload control: "
                                        : "request shed by origin shield: "} +
                            std::string{shed_cause_name(cause)});
  char value[32];
  std::snprintf(value, sizeof(value), "%.0f",
                overload_cause
                    ? traits_.overload.watermarks.retry_after_seconds
                    : traits_.shield.breaker.retry_after_seconds);
  resp.headers.add("Retry-After", value);
  ++shield_stats_.shed_responses;
  return resp;
}

Response CdnNode::deadline_response(std::string_view where) {
  return error(http::kGatewayTimeout,
               std::string{"exchange deadline expired "} + std::string{where});
}

Response CdnNode::fetch(const Request& client_request,
                        const std::optional<RangeSet>& range,
                        const net::TransferOptions& options,
                        http::Method method_override) {
  FetchResult result = fetch_result(client_request, range, options, method_override);
  if (result.shed == ShedCause::kDeadline) {
    return deadline_response("before upstream leg");
  }
  if (result.shed != ShedCause::kNone) return shed_response(result.shed);
  if (result.error) {
    // Present the failure as an upstream gateway error so callers that only
    // understand responses still behave: the status is never cacheable and
    // relays as this vendor's 502/504.
    Response failed;
    failed.status = result.error->kind == net::TransferErrorKind::kTimeout
                        ? http::kGatewayTimeout
                        : http::kBadGateway;
    failed.headers.add("Content-Length", "0");
    failed.headers.add("X-Transfer-Error",
                       std::string{net::transfer_error_name(result.error->kind)});
    return failed;
  }
  return std::move(result.response);
}

FetchResult CdnNode::fetch_result(const Request& client_request,
                                  const std::optional<RangeSet>& range,
                                  const net::TransferOptions& options,
                                  http::Method method_override) {
  ex_.taint_no_store = false;
  const ResiliencePolicy& rp = traits_.resilience;
  const DeadlinePolicy& dlp = traits_.overload.deadline;
  const RetryBudgetPolicy& rbp = traits_.overload.retry_budget;
  Request upstream_request =
      build_upstream_request(client_request, range, method_override);

  obs::SpanScope span(tracer_, "cdn.fetch");
  if (span) {
    // The upstream Range is the vendor's rewrite of the client's (Laziness
    // keeps it, Deletion drops it, Expansion widens it).
    span.note("upstream_range", range ? range->to_string() : "(none)");
    if (traits_.shield.breaker.enabled) {
      span.note("breaker", breaker_state_name(breaker_.state()));
    }
  }

  net::TransferOptions attempt_options = options;
  if (!attempt_options.timeout_seconds && rp.attempt_timeout_seconds > 0) {
    attempt_options.timeout_seconds = rp.attempt_timeout_seconds;
  }

  // Stale-if-error short-circuit: when a stale copy can absorb the failure,
  // do not hammer the origin with the full retry budget.
  int budget = rp.max_retries;
  if (rp.degradation == DegradationPolicy::kServeStale &&
      rp.serve_stale_skips_retries && stale_entity(client_request) != nullptr) {
    budget = 0;
  }

  // A leg the exchange deadline cut: marked expired and never stored.
  // `where` names the cut on the fetch span.
  const auto expire = [&](FetchResult& cut, std::string_view where) {
    cut.deadline_expired = true;
    ex_.taint_no_store = true;
    ++overload_stats_.deadline_cancelled_legs;
    if (m_deadline_expired_) m_deadline_expired_->inc();
    span.note("deadline", where);
  };

  // Deadline gate ahead of everything else, the breaker included: a leg
  // whose remaining budget is below the per-hop minimum is cancelled before
  // any side effect -- no wire byte moves and no breaker state is touched.
  std::optional<double>& remaining = ex_.deadline_remaining;
  const bool deadline_active = dlp.enabled && remaining.has_value();
  if (deadline_active && *remaining < dlp.per_hop_min_seconds) {
    FetchResult cancelled;
    cancelled.shed = ShedCause::kDeadline;
    cancelled.attempts = 0;
    expire(cancelled, "cancelled-before-wire");
    return cancelled;
  }

  // Circuit breaker + admission control gate the whole fetch: an open
  // circuit or exhausted connection budget sheds the request before any
  // counted wire transfer -- the origin never sees it.
  const double now = sim_now();
  if (const ShedCause cause = breaker_.admit(now); cause != ShedCause::kNone) {
    FetchResult shed;
    shed.shed = cause;
    shed.attempts = 0;
    ++(cause == ShedCause::kBreakerOpen ? shield_stats_.shed_breaker_open
                                        : shield_stats_.shed_admission);
    span.note("shed", shed_cause_name(cause));
    if (m_shed_) m_shed_->inc();
    return shed;
  }
  if (traits_.shield.breaker.enabled &&
      breaker_.state() == UpstreamBreaker::State::kHalfOpen) {
    ++shield_stats_.half_open_probes;
  }
  const std::uint64_t trips_before = breaker_.trips();

  FetchResult result;
  double backoff = rp.backoff_initial_seconds;
  for (int attempt = 0;; ++attempt) {
    net::TransferOptions this_attempt = attempt_options;
    bool deadline_binds = false;
    if (deadline_active) {
      // The remaining budget caps this attempt's timeout: a leg the deadline
      // would outlive is cut at the budget, costing only the request bytes
      // that already crossed (the response never does).
      if (!this_attempt.timeout_seconds ||
          *remaining < *this_attempt.timeout_seconds) {
        this_attempt.timeout_seconds = *remaining;
        deadline_binds = true;
      }
      if (dlp.propagate) {
        upstream_request.headers.set(std::string{kDeadlineBudgetHeader},
                                     format_deadline_budget(*remaining));
      }
    }
    if (rbp.enabled && rbp.count_chain_attempts) {
      // x-envoy-attempt-count semantics: the chain-wide attempt number of
      // this leg, so the next hop can charge retried requests against its
      // own budget.
      upstream_request.headers.set(
          std::string{kAttemptCountHeader},
          std::to_string(ex_.incoming_attempt_count + attempt));
    }
    if (attempt == 0 && rbp.enabled) {
      overload_.note_first_attempt(now);
      ++overload_stats_.attempts.first_attempts;
    }

    net::TransferOutcome outcome =
        upstream_->transfer_outcome(upstream_request, this_attempt);
    result.attempts = attempt + 1;
    result.elapsed_seconds += outcome.latency_seconds;
    result.error = outcome.error;
    result.upstream_5xx = outcome.ok() && rp.retry_on_5xx &&
                          outcome.response.status >= 500 &&
                          outcome.response.status <= 599;
    // The transfer occupies a breaker connection slot for its injected
    // latency and feeds the overload manager's pressure windows.
    breaker_.occupy_connection(now + outcome.latency_seconds);
    overload_.note_inflight(now, now + outcome.latency_seconds);
    if (!outcome.error.has_value()) {
      overload_.note_body_bytes(now, outcome.response.body.size());
    }
    if (deadline_active) *remaining -= outcome.latency_seconds;
    const bool timed_out =
        outcome.error.has_value() &&
        outcome.error->kind == net::TransferErrorKind::kTimeout;
    result.response = std::move(outcome.response);

    if (deadline_binds && timed_out) {
      // The deadline, not the vendor's attempt timeout, cut this leg: mark
      // the exchange expired, never store, and stop -- a retry would only
      // burn more of a budget that is already gone.
      expire(result, "cancelled-leg");
      break;
    }

    const bool retryable = result.error.has_value() || result.upstream_5xx;
    if (!retryable || attempt >= budget) break;
    if (deadline_active && *remaining - backoff < dlp.per_hop_min_seconds) {
      // Backing off would eat the rest of the budget; give up now.
      expire(result, "no-budget-for-retry");
      break;
    }
    if (!overload_.try_start_retry(sim_now())) {
      // Retry budget spent: the failure stands, and the cross-hop storm the
      // per-request policy would have started never leaves this node.
      ++overload_stats_.retries_denied;
      if (m_retry_budget_denied_) m_retry_budget_denied_->inc();
      span.note("retry_budget", "denied");
      break;
    }
    if (rbp.enabled) ++overload_stats_.attempts.retries;
    result.elapsed_seconds += backoff;
    if (deadline_active) *remaining -= backoff;
    backoff *= rp.backoff_multiplier;
  }
  // Feed the breaker ONE verdict for the whole fetch.  Counting every
  // attempt would let a single request's retries trip the breaker on their
  // own (retries x trip-threshold coupling) and would re-open a half-open
  // circuit several times per probe; the breaker tracks upstream health per
  // exchange, and the resilience layer's retries are internal to one
  // exchange.  (Any 5xx counts, retryable or not -- health, not retryability.)
  if (result.attempts > 0) {
    const bool upstream_failure = result.error.has_value() ||
                                  (result.response.status >= 500 &&
                                   result.response.status <= 599);
    if (upstream_failure) {
      breaker_.on_failure(now);
    } else {
      breaker_.on_success();
    }
  }
  shield_stats_.breaker_trips += breaker_.trips() - trips_before;
  if (span) {
    span.note("attempts", std::to_string(result.attempts));
    if (result.error) {
      span.note("transfer_error",
                net::transfer_error_name(result.error->kind));
    }
    span.set_status(result.response.status);
  }
  if (m_fetch_attempts_) {
    m_fetch_attempts_->inc(static_cast<std::uint64_t>(result.attempts));
  }
  if (traits_.conformance.mode != ConformanceMode::kOff &&
      result.shed == ShedCause::kNone && !result.error.has_value()) {
    apply_conformance(result, range, span);
  }
  return result;
}

void CdnNode::count_violation(http::ValidationCheck check,
                              std::string_view action) {
  if (!metrics_) return;
  metrics_
      ->counter("cdn_validator_violations_total{vendor=\"" + traits_.name +
                    "\",check=\"" +
                    std::string{http::validation_check_name(check)} +
                    "\",action=\"" + std::string{action} + "\"}",
                "upstream response validation failures by check and verdict")
      .inc();
}

void CdnNode::apply_conformance(FetchResult& result,
                                const std::optional<RangeSet>& range,
                                obs::SpanScope& span) {
  const ConformancePolicy& cp = traits_.conformance;
  ++validation_stats_.upstream_responses_validated;

  const http::ResponseValidator validator(
      {cp.max_body_bytes, cp.max_multipart_assembly_bytes});
  const http::ValidationReport report = validator.validate(result.response, range);
  if (report.ok()) {
    span.note("validator", "ok");
    return;
  }
  validation_stats_.violations += report.violations.size();
  const bool over_budget = report.has(http::ValidationCheck::kBodyBudget) ||
                           report.has(http::ValidationCheck::kMultipartBudget);
  if (over_budget) {
    ++validation_stats_.budget_overflows;
    if (m_budget_overflows_) m_budget_overflows_->inc();
  }

  // Verdict.  Strict rejects any violation; lenient rejects fatal shapes,
  // truncates an over-long identity body down to its declared length, and
  // passes the remaining soft lies through uncached.  Every verdict taints
  // the fetch: its response never enters the cache.
  std::string_view action;
  if (cp.mode == ConformanceMode::kStrict || report.any_fatal()) {
    action = "reject-502";
    Response rejected =
        error(http::kBadGateway,
              "upstream response failed validation: " + report.summary());
    rejected.headers.add("X-Validator-Checks", report.summary());
    result.response = std::move(rejected);
    ++validation_stats_.rejected_502;
  } else if (report.has(http::ValidationCheck::kContentLengthMismatch) &&
             report.declared_content_length &&
             result.response.body.size() > *report.declared_content_length) {
    // Truncate-and-drop: keep the declared prefix, drop the smuggled tail.
    action = "truncate-drop";
    result.response.body = result.response.body.slice(
        0, *report.declared_content_length);
    ++validation_stats_.passed_uncached;
  } else {
    action = "pass-uncached";
    ++validation_stats_.passed_uncached;
  }
  ex_.taint_no_store = true;
  for (const auto& v : report.violations) count_violation(v.check, action);
  if (span) {
    span.note("validator", std::string{action});
    span.note("validator_checks", report.summary());
  }
}

std::optional<Response> CdnNode::check_assembly_budget(
    std::uint64_t body_bytes) {
  const ConformancePolicy& cp = traits_.conformance;
  if (cp.mode == ConformanceMode::kOff ||
      cp.max_multipart_assembly_bytes == 0 ||
      body_bytes <= cp.max_multipart_assembly_bytes) {
    return std::nullopt;
  }
  ++validation_stats_.assembly_overflows;
  if (m_budget_overflows_) m_budget_overflows_->inc();
  count_violation(http::ValidationCheck::kMultipartBudget, "reject-502");
  return error(http::kBadGateway,
               "multipart assembly of " + std::to_string(body_bytes) +
                   " bytes exceeds budget of " +
                   std::to_string(cp.max_multipart_assembly_bytes));
}

Response CdnNode::respond_multipart(std::string_view etag,
                                    std::string_view last_modified,
                                    std::string_view content_type,
                                    std::uint64_t total_size, Body source,
                                    std::vector<http::MultipartPart> parts) {
  // The body is one lazy window: its exact size is known before any framing
  // byte exists.
  Body body = http::build_multipart_byteranges(
      {traits_.multipart_boundary, content_type,
       traits_.multipart_part_extra_headers},
      total_size, std::move(source), std::move(parts));
  if (auto over = check_assembly_budget(body.size())) return std::move(*over);
  Headers content = validator_headers(etag, last_modified);
  content.add("Content-Length", std::to_string(body.size()));
  content.add("Content-Type",
              http::multipart_content_type(traits_.multipart_boundary));
  return style(http::kPartialContent, content, std::move(body));
}

const CachedEntity* CdnNode::stale_entity(const Request& request) {
  if (!traits_.cache_enabled) return nullptr;
  return cache_.find(key_of(request));
}

Response CdnNode::degrade(const Request& request,
                          const std::optional<RangeSet>& range,
                          const FetchResult& result) {
  const ResiliencePolicy& rp = traits_.resilience;
  if (result.shed == ShedCause::kDeadline || result.deadline_expired) {
    // Deadline outranks every degradation, serve-stale included: past the
    // client-facing deadline the downstream has abandoned the exchange, so
    // even a free stale answer is useless work.  504, never cached.
    return deadline_response("after " + std::to_string(result.attempts) +
                             " attempt(s)");
  }
  // Serve-stale outranks the open circuit as well as the failure: the stale
  // copy costs the origin nothing, so shedding it would only hurt
  // availability.
  if (rp.degradation == DegradationPolicy::kServeStale) {
    if (const CachedEntity* stale = stale_entity(request)) {
      return respond_stale(*stale, range, 111);
    }
  }
  // Every other shed fetch is answered 503 + Retry-After (see
  // docs/defense-model.md).
  if (result.shed != ShedCause::kNone) return shed_response(result.shed);
  if (rp.degradation == DegradationPolicy::kNegativeCache &&
      traits_.cache_enabled) {
    CachedEntity negative;
    negative.content_type = "#negative";
    negative.expires_at = sim_now() + rp.negative_cache_ttl_seconds;
    cache_.put(key_of(request) + "#neg", std::move(negative));
  }
  if (result.error) {
    const bool timeout =
        result.error->kind == net::TransferErrorKind::kTimeout;
    return error(timeout ? http::kGatewayTimeout : http::kBadGateway,
                 std::string{"upstream failure: "} +
                     std::string{net::transfer_error_name(result.error->kind)} +
                     " after " + std::to_string(result.attempts) + " attempt(s)");
  }
  // A concrete upstream 5xx survived the retries: relay it faithfully.
  return relay(result.response);
}

std::optional<CachedEntity> CdnNode::entity_from_response(const Response& upstream) {
  if (upstream.status != http::kOk) return std::nullopt;
  CachedEntity entity;
  if (http::is_chunked(upstream)) {
    // A chunked 200 must be de-framed before ranges can be served from it.
    // A stream cut mid-chunk fails to decode, so truncated chunked entities
    // can never poison the cache.
    auto decoded = http::decode_chunked(upstream.body.materialize());
    if (!decoded) return std::nullopt;
    entity.entity = std::move(*decoded);
  } else {
    // Refuse partial fills: a body shorter than the declared Content-Length
    // is a truncated transfer (upstream died mid-entity), and caching it
    // would serve a poisoned representation forever.
    if (const auto declared = upstream.headers.get("Content-Length")) {
      if (http::parse_u64(*declared) != upstream.body.size()) return std::nullopt;
    }
    entity.entity = upstream.body;
  }
  read_representation(upstream, entity);
  entity.vary = std::string{upstream.headers.get_or("Vary", "")};
  return entity;
}

std::string CdnNode::resolve_cache_key(const Request& request) const {
  const std::string base = cache_key(request);
  // A marker entry records that this URL's responses vary; the entity then
  // lives under a per-variant key (RFC 7234 section 4.1's secondary key).
  if (const CachedEntity* marker = cache_.find(base + "#vary")) {
    return base + "#variant=" + variant_of(request, marker->vary);
  }
  return base;
}

const std::string& CdnNode::exchange_key() {
  if (!ex_.key) ex_.key = resolve_cache_key(*ex_.request);
  return *ex_.key;
}

std::string CdnNode::key_of(const Request& request) {
  return &request == ex_.request ? exchange_key() : resolve_cache_key(request);
}

std::string CdnNode::cache_key(const Request& request) const {
  return Cache::key(request.headers.get_or("Host", ""),
                    traits_.cache_ignore_query ? request.path()
                                               : std::string_view{request.target});
}

void CdnNode::store(const Request& request, const CachedEntity& entity) {
  if (!traits_.cache_enabled) return;
  if (ex_.taint_no_store) {
    // Cache-poison guard: the response this entity came from failed
    // validation, so it may be relayed downstream but never stored.
    ++validation_stats_.store_suppressed;
    if (metrics_) {
      metrics_
          ->counter("cdn_validator_store_suppressed_total{vendor=\"" +
                        traits_.name + "\"}",
                    "cache writes blocked by the never-cache taint")
          .inc();
    }
    return;
  }
  CachedEntity stored = entity;
  if (traits_.cache_ttl_seconds > 0 && clock_) {
    stored.expires_at = clock_() + traits_.cache_ttl_seconds;
  }
  const std::string base = cache_key(request);
  if (!stored.vary.empty()) {
    CachedEntity marker;
    marker.vary = stored.vary;
    const std::string variant_key =
        base + "#variant=" + variant_of(request, stored.vary);
    cache_.put(base + "#vary", std::move(marker));
    cache_.put(variant_key, std::move(stored));
    ex_.key.reset();  // the marker changes what the key resolves to
    return;
  }
  cache_.put(base, std::move(stored));
}

Response CdnNode::respond_416(std::uint64_t total_size) {
  Headers content;
  content.add("Content-Range", http::content_range_unsatisfied(total_size));
  content.add("Content-Length", "0");
  return style(http::kRangeNotSatisfiable, content, Body{});
}

Response CdnNode::entity_reply(Body body, std::optional<ResolvedRange> part,
                               std::uint64_t total,
                               std::string_view content_type,
                               std::string_view etag,
                               std::string_view last_modified) {
  Headers content = validator_headers(etag, last_modified);
  content.add("Content-Length",
              std::to_string(part ? part->length() : body.size()));
  if (part) content.add("Content-Range", http::content_range(*part, total));
  content.add("Content-Type", std::string{content_type});
  return style(part ? http::kPartialContent : http::kOk, content,
               std::move(body));
}

Response CdnNode::respond_stale(const CachedEntity& stale,
                                const std::optional<RangeSet>& range,
                                int warn_code) {
  Response resp = respond_entity(stale, range);
  // RFC 5861 markers (obs-deprecated Warning codes kept for observability;
  // only degraded paths ever carry them).
  resp.headers.add("Warning", warn_code == 110
                                  ? "110 - \"Response is Stale\""
                                  : "111 - \"Revalidation Failed\"");
  return resp;
}

Response CdnNode::respond_entity(const CachedEntity& entity,
                                 const std::optional<RangeSet>& range) {
  if (range) {
    return respond_ranges(entity.entity, 0, entity.size(), entity.content_type,
                          entity.etag, entity.last_modified, *range);
  }
  return entity_reply(entity.entity, std::nullopt, entity.size(),
                      entity.content_type, entity.etag, entity.last_modified);
}

Response CdnNode::respond_window(const EntityWindow& window, const RangeSet& range) {
  return respond_ranges(window.body, window.offset, window.total_size,
                        window.content_type, window.etag, window.last_modified,
                        range);
}

Response CdnNode::respond_ranges(const Body& body, std::uint64_t offset,
                                 std::uint64_t total,
                                 std::string_view content_type,
                                 std::string_view etag,
                                 std::string_view last_modified,
                                 const RangeSet& range) {
  const std::uint64_t win_size = body.size();
  auto servable = http::resolve_all(range, total);
  if (servable.empty()) return respond_416(total);

  // Keep only ranges the window can serve.
  std::erase_if(servable, [&](const ResolvedRange& r) {
    return r.first < offset || r.last >= offset + win_size;
  });
  if (servable.empty()) {
    return error(http::kBadGateway, "no requested range within fetched window");
  }

  const auto single = [&](const ResolvedRange& r) {
    return entity_reply(body.slice(r.first - offset, r.length()), r, total,
                        content_type, etag, last_modified);
  };
  const auto multipart = [&](const std::vector<ResolvedRange>& ranges) {
    std::vector<http::MultipartPart> parts;
    parts.reserve(ranges.size());
    for (const auto& r : ranges) {
      parts.push_back({r, r.first - offset, r.length()});
    }
    return respond_multipart(etag, last_modified, content_type, total, body,
                             std::move(parts));
  };
  const auto full_200 = [&]() -> Response {
    if (offset != 0 || win_size != total) {
      return error(http::kBadGateway, "policy requires full entity not held");
    }
    return entity_reply(body, std::nullopt, total, content_type, etag,
                        last_modified);
  };

  if (servable.size() == 1) return single(servable.front());

  switch (traits_.multi_reply) {
    case MultiRangeReplyPolicy::kHonorOverlapping:
      if (traits_.multi_reply_max_ranges != 0 &&
          servable.size() > traits_.multi_reply_max_ranges) {
        return full_200();
      }
      return multipart(servable);
    case MultiRangeReplyPolicy::kCoalesce: {
      const auto merged = http::coalesce(servable);
      if (merged.size() == 1) return single(merged.front());
      return multipart(merged);
    }
    case MultiRangeReplyPolicy::kRejectOverlapping416:
      if (http::any_overlap(servable)) return respond_416(total);
      return multipart(servable);
    case MultiRangeReplyPolicy::kFirstRangeOnly:
      return single(servable.front());
    case MultiRangeReplyPolicy::kIgnoreRange:
      return full_200();
    case MultiRangeReplyPolicy::kReject416:
      return respond_416(total);
  }
  return error(http::kBadGateway, "unreachable reply policy");
}

Response CdnNode::respond_assembled(
    std::uint64_t total_size, const std::string& content_type,
    const std::string& etag, const std::string& last_modified,
    std::vector<std::pair<http::ResolvedRange, Body>> parts) {
  if (parts.empty()) return respond_416(total_size);
  if (parts.size() == 1) {
    auto& [r, payload] = parts.front();
    return entity_reply(std::move(payload), r, total_size, content_type, etag,
                        last_modified);
  }
  // The part payloads, concatenated, are the source the parts frame.
  Body source;
  std::vector<http::MultipartPart> framed;
  framed.reserve(parts.size());
  for (const auto& [r, payload] : parts) {
    framed.push_back({r, source.size(), payload.size()});
    source.append_body(payload);
  }
  return respond_multipart(etag, last_modified, content_type, total_size,
                           std::move(source), std::move(framed));
}

Response CdnNode::relay(const Response& upstream) {
  Headers content;
  for (const std::string_view name :
       {"Last-Modified", "ETag", "Content-Length", "Content-Range",
        "Content-Type", "Transfer-Encoding"}) {
    if (const auto v = upstream.headers.get(name)) {
      content.add(std::string{name}, std::string{*v});
    }
  }
  return style(upstream.status, content, upstream.body);
}

Response CdnNode::error(int status, std::string_view note) {
  Headers content;
  Body body = Body::literal(std::string{note});
  content.add("Content-Length", std::to_string(body.size()));
  content.add("Content-Type", "text/plain");
  return style(status, content, std::move(body));
}

Response CdnNode::style(int status, const Headers& content_headers,
                        Body body) const {
  return styled_response(traits_, ++response_serial_, status, content_headers,
                         std::move(body));
}

std::size_t calibrate_response_pad(const VendorTraits& traits) {
  if (traits.client_response_target_bytes == 0) return 0;
  // Canonical exploited-case response: single-range 206, bytes 0-0 of a
  // 25 MB resource, Apache-flavored validators (mirrors what the origin
  // model emits).
  VendorTraits probe = traits;
  probe.response_pad_bytes = 0;
  Headers content;
  content.add("Last-Modified", "Mon, 06 Jul 2020 11:22:33 GMT");
  content.add("ETag", "\"3a7f52-1900000\"");
  content.add("Content-Length", "1");
  content.add("Content-Range", "bytes 0-0/26214400");
  content.add("Content-Type", "application/octet-stream");
  const Response canonical =
      styled_response(probe, 0, http::kPartialContent, content, Body::literal("x"));
  const std::uint64_t base = http::serialized_size(canonical);
  if (traits.client_response_target_bytes <= base) return 0;
  const std::uint64_t diff = traits.client_response_target_bytes - base;
  // The pad header costs "X-Edge-Trace: " + value + CRLF = value + 16 bytes.
  const std::uint64_t overhead = kPadHeaderName.size() + 4;
  if (diff <= overhead) return 0;
  return static_cast<std::size_t>(diff - overhead);
}

}  // namespace rangeamp::cdn

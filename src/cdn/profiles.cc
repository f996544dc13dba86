#include "cdn/profiles.h"

#include <algorithm>
#include <iterator>
#include <list>
#include <string_view>
#include <unordered_map>

#include "cdn/logic.h"
#include "cdn/rules.h"

namespace rangeamp::cdn {

using http::ByteRangeSpec;
using http::RangeSet;
using http::Request;
using http::Response;

namespace {

// Appends a trace header so the serialized size of the forward header set
// hits `target_bytes` exactly.  The forward header footprint of the FCDN is
// what differentiates the max n per cascade in Table V, so it is calibrated
// like the response pad.
void pad_forward_headers(VendorTraits& traits, std::size_t target_bytes) {
  std::size_t current = 0;
  for (const auto& f : traits.forward_headers) current += f.line_size() + 2;
  constexpr std::string_view kName = "X-Edge-Req-Trace";
  const std::size_t overhead = kName.size() + 4;  // ": " + CRLF
  if (current + overhead >= target_bytes) return;
  traits.forward_headers.push_back(
      {std::string{kName}, std::string(target_bytes - current - overhead, 'r')});
}

// Appends extra per-part headers so each multipart part carries
// `target_bytes` of framing beyond boundary/Content-Type/Content-Range
// (Azure's verbose part framing, calibrated to Table V).
void pad_part_headers(VendorTraits& traits, std::size_t target_bytes) {
  std::size_t current = 0;
  for (const auto& f : traits.multipart_part_extra_headers) {
    current += f.line_size() + 2;
  }
  constexpr std::string_view kName = "X-Part-Trace";
  const std::size_t overhead = kName.size() + 4;
  if (current + overhead >= target_bytes) return;
  traits.multipart_part_extra_headers.push_back(
      {std::string{kName}, std::string(target_bytes - current - overhead, 'p')});
}

// ---------------------------------------------------------------------------
// Vendor logics.  Most of Table I is a table: per vendor, a Range shape --
// sometimes guarded by a first-byte or file-size condition -- maps to
// Deletion ("None") or Laziness (forwarded unchanged).  Those vendors are
// PolicyRule tables run by RuleBasedLogic (rules.h): first match wins, a
// ranged request no rule matches is forwarded lazily, a Range-less one is
// fetched full.  The comments cite the rows each table implements.  Vendors
// whose behaviour is not a shape->action decision keep a class below.
// ---------------------------------------------------------------------------

constexpr RuleAction kLazy{RuleAction::Kind::kLazy};
constexpr RuleAction kDelete{RuleAction::Kind::kDelete};

// An unguarded table row: `shape` -> `action`.
PolicyRule row(RuleShape shape, RuleAction action) {
  PolicyRule rule;
  rule.shape = shape;
  rule.action = action;
  return rule;
}

// Akamai, Fastly, G-Core Labs and Cloudflare's cacheable page rule
// (Table I): "bytes=first-last -> None", "bytes=-suffix -> None"; open
// ranges are forwarded unchanged.  Multi-range sets are fetched full too,
// and the traits' reply policy shapes the answer: Akamai honors overlapping
// parts (Table III), Fastly answers the first range only, G-Core coalesces,
// and Cloudflare ignores the Range (200 + full entity).  Cloudflare's Bypass
// mode of Table II is a pure pass-through instead (see make_profile).
std::vector<PolicyRule> open_lazy_else_delete_rules() {
  return {row(RuleShape::kSingleOpen, kLazy), row(RuleShape::kAny, kDelete)};
}

// Alibaba Cloud (Table I): "bytes=-suffix -> None (*)" -- only while the
// customer's Range origin-pull option is disabled.  Closed and open ranges
// are forwarded unchanged; multi-range sets are fetched full and
// answered coalesced (not in Table II/III).
std::vector<PolicyRule> alibaba_rules() {
  return {row(RuleShape::kSingleSuffix, kDelete), row(RuleShape::kMulti, kDelete),
          row(RuleShape::kAny, kLazy)};
}

// CDN77 (Table I): "bytes=first-last (first < 1024) -> None"; everything
// else, including multi-range sets, is forwarded unchanged (Table II).
std::vector<PolicyRule> cdn77_rules() {
  PolicyRule low_closed = row(RuleShape::kSingleClosed, kDelete);
  low_closed.first_below = kCdn77FirstByteThreshold;
  return {low_closed, row(RuleShape::kAny, kLazy)};
}

// CDNsun (Table I): "bytes=0-last -> None" -- any set whose first spec
// starts at byte 0 is fetched full; sets starting at byte >= 1 are forwarded
// unchanged (Table II: "bytes=start1-,... (start1 >= 1) -> Unchanged").
std::vector<PolicyRule> cdnsun_rules() {
  PolicyRule zero_start = row(RuleShape::kAny, kDelete);
  zero_start.first_below = 1;
  return {zero_start, row(RuleShape::kAny, kLazy)};
}

// Huawei Cloud (Table I): "bytes=-suffix (F < 10MB) -> None (*)",
// "bytes=first-last (F >= 10MB) -> None & None (*)".  The size conditions
// make the node learn F with a HEAD probe; the probe plus the full GET is
// exactly the "None & None" request pair the origin observes.  Vulnerable
// only when the customer's Range option is enabled.
std::vector<PolicyRule> huawei_rules() {
  PolicyRule small_suffix = row(RuleShape::kSingleSuffix, kDelete);
  small_suffix.size_below = kHuaweiSizeThreshold;
  PolicyRule large_closed = row(RuleShape::kSingleClosed, kDelete);
  large_closed.size_at_least = kHuaweiSizeThreshold;
  return {row(RuleShape::kSingleOpen, kLazy), small_suffix, large_closed,
          row(RuleShape::kMulti, kDelete), row(RuleShape::kAny, kLazy)};
}

// Tencent Cloud (Table I): "bytes=first-last -> None (*)" -- only while the
// Range origin-pull option is disabled.
std::vector<PolicyRule> tencent_rules() {
  return {row(RuleShape::kSingleClosed, kDelete), row(RuleShape::kMulti, kDelete),
          row(RuleShape::kAny, kLazy)};
}

// Azure (Table I): Deletion for small files; for files beyond 8 MB the first
// back-to-origin connection is closed once a little over 8 MB of payload
// arrived, and a range inside [8388608, 16777215] triggers a second fetch of
// exactly that window ("None & bytes=8388608-16777215").
// Table III: n-part overlapping responses honored up to n = 64 (the reply
// cap lives in the traits).
class AzureLogic final : public VendorLogic {
 public:
  Response on_miss(CdnNode& node, const Request& request,
                   const std::optional<RangeSet>& range) override {
    net::TransferOptions abort_options;
    abort_options.abort_after_body_bytes = kAzureWindowStart + kAzureAbortOvershoot;
    const Response first = node.fetch(request, std::nullopt, abort_options);
    if (first.status != http::kOk) return node.relay(first);

    const std::uint64_t total =
        http::parse_u64(first.headers.get_or("Content-Length", "")).value_or(0);
    const std::uint64_t received = first.body.size();
    if (total == 0 || received >= total) {
      // Entire entity received: plain Deletion behaviour.
      auto entity = CdnNode::entity_from_response(first);
      node.store(request, *entity);
      return node.respond_entity(*entity, range);
    }

    // F > 8 MB; we hold the prefix [0, received).
    EntityWindow prefix;
    prefix.body = first.body;
    prefix.total_size = total;
    read_representation(first, prefix);

    if (!range) {
      // UNDOCUMENTED: a plain GET of a large file; refetch without abort.
      const Response full = node.fetch(request, std::nullopt);
      return serve_upstream_result(node, request, full, range);
    }

    const auto resolved = http::resolve_all(*range, total);
    if (resolved.empty()) {
      return node.respond_window(prefix, *range);  // resolves again -> 416
    }
    // The documented window fetch takes precedence over the prefix: Azure
    // opens the second connection whenever the range sits in the second
    // 8 MiB window, even though the aborted prefix slightly overshoots into
    // it ("None & bytes=8388608-16777215", Table I).
    const bool window_covers =
        resolved.size() == 1 && resolved[0].first >= kAzureWindowStart &&
        resolved[0].last <= kAzureWindowEnd;
    const bool prefix_covers = std::all_of(
        resolved.begin(), resolved.end(),
        [&](const auto& r) { return r.last < received; });
    if (window_covers) {
      // The documented second connection: "bytes=8388608-16777215".
      RangeSet window_range;
      window_range.specs.push_back(
          ByteRangeSpec::closed(kAzureWindowStart, kAzureWindowEnd));
      const Response second = node.fetch(request, window_range);
      return serve_upstream_result(node, request, second, range);
    }
    if (prefix_covers) return node.respond_window(prefix, *range);
    // UNDOCUMENTED: range beyond 16 MiB or unservable multi -- forward the
    // client's range lazily.
    const Response fallback = node.fetch(request, range);
    return serve_upstream_result(node, request, fallback, range);
  }
};

// CloudFront (Table I): full Expansion policy.  Single closed ranges are
// widened to MiB blocks: first' = (first >> 20) << 20,
// last' = (((last >> 20) + 1) << 20) - 1.  Multi-range sets whose expanded
// span is at most 10 MiB become the single range first'-last'.
class CloudFrontLogic final : public VendorLogic {
 public:
  Response on_miss(CdnNode& node, const Request& request,
                   const std::optional<RangeSet>& range) override {
    if (!range) return deletion_miss(node, request, range);

    const auto block_floor = [](std::uint64_t v) {
      return (v >> 20) << 20;
    };
    const auto block_ceil_last = [](std::uint64_t last) {
      return (((last >> 20) + 1) << 20) - 1;
    };

    if (range->count() == 1) {
      const auto& s = range->specs[0];
      if (s.is_suffix()) {
        // UNDOCUMENTED: suffix ranges are not in CloudFront's Table I rows;
        // forwarded unchanged.
        return laziness_miss(node, request, range);
      }
      RangeSet forward;
      if (s.is_open()) {
        forward.specs.push_back(ByteRangeSpec::open(block_floor(*s.first)));
      } else {
        forward.specs.push_back(ByteRangeSpec::closed(block_floor(*s.first),
                                                      block_ceil_last(*s.last)));
      }
      const Response upstream = node.fetch(request, forward);
      return serve_upstream_result(node, request, upstream, range);
    }

    bool all_closed = true;
    std::uint64_t min_first = UINT64_MAX, max_last = 0;
    bool any_suffix = false;
    for (const auto& s : range->specs) {
      if (s.is_suffix()) {
        any_suffix = true;
        all_closed = false;
      } else {
        min_first = std::min(min_first, *s.first);
        if (s.is_closed()) {
          max_last = std::max(max_last, *s.last);
        } else {
          all_closed = false;
        }
      }
    }
    if (all_closed) {
      const std::uint64_t f = block_floor(min_first);
      const std::uint64_t l = block_ceil_last(max_last);
      if (l - f + 1 <= kCloudFrontMultiSpanCap) {
        RangeSet forward;
        forward.specs.push_back(ByteRangeSpec::closed(f, l));
        const Response upstream = node.fetch(request, forward);
        return serve_upstream_result(node, request, upstream, range);
      }
      // UNDOCUMENTED: expanded span above the cap; fetch the full entity
      // (the most conservative behaviour that still satisfies every range).
      return deletion_miss(node, request, range);
    }
    if (any_suffix) {
      // UNDOCUMENTED: mixed suffix multi-range; fetch full.
      return deletion_miss(node, request, range);
    }
    // Open-ended members: cover from the smallest block-aligned first.
    RangeSet forward;
    forward.specs.push_back(ByteRangeSpec::open(block_floor(min_first)));
    const Response upstream = node.fetch(request, forward);
    return serve_upstream_result(node, request, upstream, range);
  }
};

// KeyCDN (Table I): "bytes=first-last (& bytes=first-last) ->
// bytes=first-last (& None)".  The first sighting of a closed-range request
// is forwarded lazily and NOT cached; the second identical request triggers
// Deletion.  An SBR attacker therefore sends every request twice.
class KeyCdnLogic final : public VendorLogic {
 public:
  Response on_miss(CdnNode& node, const Request& request,
                   const std::optional<RangeSet>& range) override {
    if (range && range->count() == 1 && range->specs[0].is_closed()) {
      std::string key =
          Cache::key(request.headers.get_or("Host", ""), request.target);
      if (const auto seen = seen_.find(key); seen != seen_.end()) {
        // Second sighting: Deletion caches the entity, so the key is done.
        const auto sighting = seen->second;
        seen_.erase(seen);
        sightings_.erase(sighting);
        return deletion_miss(node, request, range);
      }
      remember(std::move(key), node.traits().cache);
      const Response upstream = node.fetch(request, range);
      if (upstream.status == http::kOk) {
        // Range-serve a 200 but do not cache on first sight.
        if (auto entity = CdnNode::entity_from_response(upstream)) {
          return node.respond_entity(*entity, range);
        }
      }
      return node.relay(upstream);
    }
    if (!range) return deletion_miss(node, request, range);
    // Multi-range sets are fetched full and answered coalesced -- KeyCDN is
    // absent from Table II, so it must not forward them unchanged.
    if (range->count() > 1) return deletion_miss(node, request, range);
    return laziness_miss(node, request, range);
  }

  std::size_t remembered_keys() const override { return seen_.size(); }

 private:
  // First sightings are keys the node saw but does not hold, so they get
  // the budget the cache keeps for those itself: its ghost lists.  The
  // oldest is forgotten first.
  void remember(std::string key, const CacheTraits& cache) {
    const std::size_t budget =
        std::max<std::size_t>(1, cache.ghost_entries * cache.shards);
    while (seen_.size() >= budget) {
      seen_.erase(sightings_.front());
      sightings_.pop_front();
    }
    sightings_.push_back(std::move(key));
    seen_.emplace(sightings_.back(), std::prev(sightings_.end()));
  }

  std::list<std::string> sightings_;  ///< first sightings, oldest first
  /// Views into sightings_; an entry is erased before its list node.
  std::unordered_map<std::string_view, std::list<std::string>::iterator> seen_;
};

// StackPath (Table I): "bytes=... -> bytes=... [& None]".  Every ranged miss
// is first forwarded unchanged; a 206 answer triggers a second, Range-less
// fetch of the full entity, which is cached and used to answer the client.
// Combined with the kHonorOverlapping reply policy this also realizes its
// Table II (FCDN) and Table III (BCDN) rows.
class StackPathLogic final : public VendorLogic {
 public:
  Response on_miss(CdnNode& node, const Request& request,
                   const std::optional<RangeSet>& range) override {
    if (!range) return deletion_miss(node, request, range);
    const Response first = node.fetch(request, range);
    if (first.status == http::kPartialContent) {
      const Response second = node.fetch(request, std::nullopt);
      if (auto entity = CdnNode::entity_from_response(second)) {
        node.store(request, *entity);
        return node.respond_entity(*entity, range);
      }
      return node.relay(first);
    }
    if (auto entity = CdnNode::entity_from_response(first)) {
      node.store(request, *entity);
      return node.respond_entity(*entity, range);
    }
    return node.relay(first);
  }
};

// ---------------------------------------------------------------------------
// Traits.  client_response_target_bytes values are fitted from Table IV
// (25 MB column): target = (25 MiB + origin header overhead) / AF_25MB.
// Forward-header footprints and multipart part overheads are fitted from the
// max-n and fcdn-bcdn traffic columns of Table V.
// ---------------------------------------------------------------------------

VendorTraits akamai_traits() {
  VendorTraits t;
  t.name = "Akamai";
  t.limits.total_header_bytes = 32 * 1024;  // section V-C
  t.response_identity_headers = {
      {"Server", "AkamaiGHost"},
      {"Mime-Version", "1.0"},
  };
  t.client_response_target_bytes = 608;
  t.forward_headers = {
      {"Via", "1.1 akamai.net(ghost) (AkamaiGHost)"},
      {"X-Forwarded-For", "198.51.100.23"},
  };
  pad_forward_headers(t, 200);
  // Boundary length calibrated so a 1 KB part costs ~1160 B (Table V).
  t.multipart_boundary = "aka_3d6b0396d67c8e4f0a2b9c1d8e7f6a5b4c3d2e1f0a9b8c7d6e";
  t.multi_reply = MultiRangeReplyPolicy::kHonorOverlapping;  // Table III
  return t;
}

VendorTraits alibaba_traits() {
  VendorTraits t;
  t.name = "Alibaba Cloud";
  t.response_identity_headers = {
      {"Server", "Tengine"},
      {"Via", "cache13.l2et2[11,206-0,M], cache8.cn1731[12,0]"},
      {"Timing-Allow-Origin", "*"},
      {"EagleId", "2ff6139916036887396266377e"},
  };
  // 985 + the longer Content-Range of the exploited suffix range
  // "bytes 26214399-26214399/26214400" lands the response at ~999 B.
  t.client_response_target_bytes = 985;
  t.forward_headers = {
      {"Via", "cache8.cn1731[11,0]"},
      {"X-Forwarded-For", "198.51.100.24"},
  };
  pad_forward_headers(t, 200);
  t.multipart_boundary = "ali_2b9c1d8e7f6a5b4c";
  t.multi_reply = MultiRangeReplyPolicy::kCoalesce;
  return t;
}

VendorTraits azure_traits() {
  VendorTraits t;
  t.name = "Azure";
  t.response_identity_headers = {
      {"Server", "ECAcc (sed/58AA)"},
      {"X-Cache", "HIT"},
  };
  // 702 + the extra Content-Range digits of the exploited window range
  // "bytes 8388608-8388608/26214400" lands the on-wire response at ~714 B.
  t.client_response_target_bytes = 702;
  t.forward_headers = {
      {"Via", "1.1 azure-cdn-edge"},
      {"X-Forwarded-For", "198.51.100.25"},
  };
  pad_forward_headers(t, 220);
  t.multipart_boundary = "batchresponse_9f63aa5b-4f21-47e5-ae0c-9f63aa5b4f21";
  t.multi_reply = MultiRangeReplyPolicy::kHonorOverlapping;  // Table III
  t.multi_reply_max_ranges = 64;                             // section V-C
  // Azure writes verbose per-part framing; calibrated to the ~1340 B/part
  // fcdn-bcdn traffic of Table V.
  t.multipart_part_extra_headers = {
      {"X-Ms-Request-Id", "9f63aa5b-4f21-47e5-ae0c-0123456789ab"},
  };
  pad_part_headers(t, 184);
  return t;
}

VendorTraits cdn77_traits() {
  VendorTraits t;
  t.name = "CDN77";
  t.limits.single_header_line_bytes = 16 * 1024;  // section V-C
  t.response_identity_headers = {
      {"Server", "CDN77-Turbo"},
      {"X-77-Cache", "MISS"},
      {"X-77-Pop", "frankfurtDE"},
  };
  t.client_response_target_bytes = 649;
  t.forward_headers = {
      {"Via", "1.1 cdn77-edge-fra01"},
      {"X-Forwarded-For", "198.51.100.26"},
  };
  pad_forward_headers(t, 180);
  t.multipart_boundary = "cdn77_5b4c3d2e1f0a9b8c";
  t.multi_reply = MultiRangeReplyPolicy::kCoalesce;
  return t;
}

VendorTraits cdnsun_traits() {
  VendorTraits t;
  t.name = "CDNsun";
  t.limits.single_header_line_bytes = 16 * 1024;  // section V-C
  t.response_identity_headers = {
      {"Server", "CDNsun"},
      {"X-Cache", "MISS"},
      {"X-Edge-Location", "praguecz"},
  };
  t.client_response_target_bytes = 677;
  t.forward_headers = {
      {"Via", "1.1 cdnsun-edge-prg01"},
      {"X-Forwarded-For", "198.51.100.27"},
  };
  pad_forward_headers(t, 180);
  t.multipart_boundary = "cdnsun_0a9b8c7d6e5f4a3b";
  t.multi_reply = MultiRangeReplyPolicy::kCoalesce;
  return t;
}

VendorTraits cloudflare_traits(ProfileOptions::CloudflareMode mode) {
  VendorTraits t;
  t.name = "Cloudflare";
  t.limits.cloudflare_range_budget = 32411;  // section V-C formula
  t.response_identity_headers = {
      {"Server", "cloudflare"},
      {"CF-RAY", "5aeb2d1f3c0004e1-FRA"},
      {"CF-Cache-Status", "MISS"},
      {"Expect-CT", "max-age=604800"},
  };
  t.client_response_target_bytes = 823;
  t.forward_headers = {
      {"CF-Connecting-IP", "198.51.100.28"},
      {"CF-Ray", "5aeb2d1f3c0004e1-FRA"},
      {"CF-Visitor", "{\"scheme\":\"https\"}"},
      {"X-Forwarded-For", "198.51.100.28"},
      {"X-Forwarded-Proto", "https"},
      {"CDN-Loop", "cloudflare"},
  };
  pad_forward_headers(t, 350);
  t.multipart_boundary = "cf_8c7d6e5f4a3b2c1d";
  t.multi_reply = MultiRangeReplyPolicy::kIgnoreRange;  // 200 + full entity
  t.cache_enabled = mode == ProfileOptions::CloudflareMode::kCacheable;
  return t;
}

VendorTraits cloudfront_traits() {
  VendorTraits t;
  t.name = "CloudFront";
  t.response_identity_headers = {
      {"Via", "1.1 2af08dad59e25761e19e9c26e41a7b14.cloudfront.net (CloudFront)"},
      {"X-Cache", "Miss from cloudfront"},
      {"X-Amz-Cf-Pop", "FRA53-C1"},
      {"X-Amz-Cf-Id", "k5J7x0V9cQ2TqoVS6wZxM1vGg0F3aVvC0hYQsJt9QmXlG1G8aA=="},
  };
  t.client_response_target_bytes = 773;
  t.forward_headers = {
      {"Via", "1.1 2af08dad59e25761e19e9c26e41a7b14.cloudfront.net (CloudFront)"},
      {"X-Amz-Cf-Id", "k5J7x0V9cQ2TqoVS6wZxM1vGg0F3aVvC0hYQsJt9QmXlG1G8aA=="},
      {"X-Forwarded-For", "198.51.100.29"},
  };
  pad_forward_headers(t, 300);
  // 46-char boundary: the two-part multipart answer to the exploited
  // "bytes=0-0,9437184-9437184" case lands at ~1130 B (Table IV).
  t.multipart_boundary = "cfr_6e5f4a3b2c1d0e9f8a7b6c5d4e3f2a1b0c9d8e7f6a";
  // Disjoint multi-range requests are honored as multipart; overlapping
  // members are merged first (not in Table III).
  t.multi_reply = MultiRangeReplyPolicy::kCoalesce;
  return t;
}

VendorTraits fastly_traits() {
  VendorTraits t;
  t.name = "Fastly";
  t.response_identity_headers = {
      {"Via", "1.1 varnish"},
      {"X-Served-By", "cache-fra19128-FRA"},
      {"X-Cache", "MISS"},
      {"X-Timer", "S1594091655.312461,VS0,VE112"},
  };
  t.client_response_target_bytes = 824;
  t.forward_headers = {
      {"Fastly-FF", "Vpnm0h(...)!FRA!cache-fra19128"},
      {"X-Varnish", "3366261930"},
      {"X-Forwarded-For", "198.51.100.30"},
  };
  pad_forward_headers(t, 250);
  t.multipart_boundary = "fst_4a3b2c1d0e9f8a7b";
  t.multi_reply = MultiRangeReplyPolicy::kFirstRangeOnly;
  return t;
}

VendorTraits gcore_traits() {
  VendorTraits t;
  t.name = "G-Core Labs";
  t.response_identity_headers = {
      {"Server", "nginx"},
  };
  t.client_response_target_bytes = 605;
  t.forward_headers = {
      {"Via", "1.1 gcore-edge-fra"},
      {"X-Forwarded-For", "198.51.100.31"},
  };
  pad_forward_headers(t, 160);
  t.multipart_boundary = "gc_2c1d0e9f8a7b6c5d";
  t.multi_reply = MultiRangeReplyPolicy::kCoalesce;
  return t;
}

VendorTraits huawei_traits() {
  VendorTraits t;
  t.name = "Huawei Cloud";
  t.response_identity_headers = {
      {"Server", "CDN"},
      {"X-Ccdn-Cachettl", "86400"},
      {"X-Ccdn-Origin-Time", "112"},
  };
  t.client_response_target_bytes = 721;
  t.forward_headers = {
      {"Via", "1.1 huawei-cdn-edge"},
      {"X-Forwarded-For", "198.51.100.32"},
  };
  pad_forward_headers(t, 200);
  t.multipart_boundary = "hw_0e9f8a7b6c5d4e3f";
  t.multi_reply = MultiRangeReplyPolicy::kCoalesce;
  return t;
}

VendorTraits keycdn_traits() {
  VendorTraits t;
  t.name = "KeyCDN";
  t.response_identity_headers = {
      {"Server", "keycdn-engine"},
      {"X-Cache", "MISS"},
      {"X-Edge-Location", "defra1"},
  };
  t.client_response_target_bytes = 738;
  t.forward_headers = {
      {"Via", "1.1 keycdn-defra1"},
      {"X-Forwarded-For", "198.51.100.33"},
  };
  pad_forward_headers(t, 180);
  t.multipart_boundary = "key_8a7b6c5d4e3f2a1b";
  t.multi_reply = MultiRangeReplyPolicy::kCoalesce;
  return t;
}

VendorTraits stackpath_traits() {
  VendorTraits t;
  t.name = "StackPath";
  t.limits.total_header_bytes = 81 * 1024;  // "about 81KB", section V-C
  t.response_identity_headers = {
      {"Server", "StackPath/1.0"},
      {"X-Hw", "1594091655.dop101.fr2.t,1594091655.cds058.fr2.c"},
  };
  t.client_response_target_bytes = 807;
  t.forward_headers = {
      {"Via", "1.1 sp-edge-cache-01 (StackPath)"},
      {"X-Forwarded-For", "203.0.113.77"},
      {"X-SP-Request-Id", "9f63aa5b-4f21-47e5-ae0c-0123456789ab"},
      {"X-SP-Edge", "iad-edge-7"},
      {"X-Forwarded-Proto", "https"},
      {"CDN-Loop", "stackpath"},
  };
  // Fitted so the Akamai-bound max n lands at Table V's 10801 (see
  // bench_table5): total baggage = 318 bytes.
  pad_forward_headers(t, 318);
  // ~69-char boundary: 1 KB part costs ~1175 B (Table V, StackPath BCDN).
  t.multipart_boundary =
      "sp_6c5d4e3f2a1b0c9d8e7f6a5b4c3d2e1f0a9b8c7d6e5f4a3b2c1d0e9f8a7b6c5d4e";
  t.multi_reply = MultiRangeReplyPolicy::kHonorOverlapping;  // Table III
  return t;
}

VendorTraits tencent_traits() {
  VendorTraits t;
  t.name = "Tencent Cloud";
  t.response_identity_headers = {
      {"Server", "NWS_SPMid"},
      {"X-Cache-Lookup", "Cache Miss"},
      {"X-NWS-LOG-UUID", "5600413182280441423"},
  };
  t.client_response_target_bytes = 808;
  t.forward_headers = {
      {"Via", "1.1 tencent-cdn-edge"},
      {"X-Forwarded-For", "198.51.100.34"},
  };
  pad_forward_headers(t, 200);
  t.multipart_boundary = "tc_4e3f2a1b0c9d8e7f";
  t.multi_reply = MultiRangeReplyPolicy::kCoalesce;
  return t;
}

}  // namespace

std::string_view vendor_name(Vendor v) noexcept {
  switch (v) {
    case Vendor::kAkamai: return "Akamai";
    case Vendor::kAlibabaCloud: return "Alibaba Cloud";
    case Vendor::kAzure: return "Azure";
    case Vendor::kCdn77: return "CDN77";
    case Vendor::kCdnsun: return "CDNsun";
    case Vendor::kCloudflare: return "Cloudflare";
    case Vendor::kCloudFront: return "CloudFront";
    case Vendor::kFastly: return "Fastly";
    case Vendor::kGcoreLabs: return "G-Core Labs";
    case Vendor::kHuaweiCloud: return "Huawei Cloud";
    case Vendor::kKeyCdn: return "KeyCDN";
    case Vendor::kStackPath: return "StackPath";
    case Vendor::kTencentCloud: return "Tencent Cloud";
  }
  return "?";
}

VendorProfile make_profile(Vendor v, const ProfileOptions& options) {
  VendorProfile profile;
  // The rule-table vendors fill `rules`; the option-gated (*) rows leave it
  // empty when the customer option is in its safe position, and the empty
  // table forwards every Range unchanged.
  std::vector<PolicyRule> rules;
  switch (v) {
    case Vendor::kAkamai:
      profile.traits = akamai_traits();
      rules = open_lazy_else_delete_rules();
      break;
    case Vendor::kAlibabaCloud:
      profile.traits = alibaba_traits();
      if (options.origin_range_option_disabled) rules = alibaba_rules();
      break;
    case Vendor::kAzure:
      profile.traits = azure_traits();
      profile.logic = std::make_unique<AzureLogic>();
      break;
    case Vendor::kCdn77:
      profile.traits = cdn77_traits();
      rules = cdn77_rules();
      break;
    case Vendor::kCdnsun:
      profile.traits = cdnsun_traits();
      rules = cdnsun_rules();
      break;
    case Vendor::kCloudflare:
      profile.traits = cloudflare_traits(options.cloudflare_mode);
      if (options.cloudflare_mode == ProfileOptions::CloudflareMode::kBypass) {
        // Bypass page rule: pure pass-through, no caching (Table II).
        profile.logic = std::make_unique<LazinessLogic>(/*serve_range_on_200=*/false);
      } else {
        rules = open_lazy_else_delete_rules();
      }
      break;
    case Vendor::kCloudFront:
      profile.traits = cloudfront_traits();
      profile.logic = std::make_unique<CloudFrontLogic>();
      break;
    case Vendor::kFastly:
      profile.traits = fastly_traits();
      rules = open_lazy_else_delete_rules();
      break;
    case Vendor::kGcoreLabs:
      profile.traits = gcore_traits();
      rules = open_lazy_else_delete_rules();
      break;
    case Vendor::kHuaweiCloud:
      profile.traits = huawei_traits();
      if (options.huawei_range_option_enabled) rules = huawei_rules();
      break;
    case Vendor::kKeyCdn:
      profile.traits = keycdn_traits();
      profile.logic = std::make_unique<KeyCdnLogic>();
      break;
    case Vendor::kStackPath:
      profile.traits = stackpath_traits();
      profile.logic = std::make_unique<StackPathLogic>();
      break;
    case Vendor::kTencentCloud:
      profile.traits = tencent_traits();
      if (options.origin_range_option_disabled) rules = tencent_rules();
      break;
  }
  if (!profile.logic) {
    profile.logic = std::make_unique<RuleBasedLogic>(std::move(rules));
  }
  profile.traits.response_pad_bytes = calibrate_response_pad(profile.traits);
  return profile;
}

}  // namespace rangeamp::cdn

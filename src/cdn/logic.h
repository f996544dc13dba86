// Generic, reusable VendorLogic building blocks.
//
// The three base policies of section III-B (Laziness / Deletion / Expansion)
// as concrete logics, plus free helper functions that RuleBasedLogic's
// actions (rules.h) and the vendor classes left in profiles.cc compose.  BoundedExpansionLogic additionally implements the
// paper's recommended mitigation ("adopt the Expansion policy but not extend
// the byte range too much ... increase the byte range by 8KB", section VI-C).
#pragma once

#include <cstdint>

#include "cdn/node.h"

namespace rangeamp::cdn {

/// Deletion: drop the Range header, fetch and cache the full entity, answer
/// the requested range from it.  The SBR-vulnerable behaviour.
http::Response deletion_miss(CdnNode& node, const http::Request& request,
                             const std::optional<http::RangeSet>& range);

/// Laziness: forward the Range header unchanged.  When the upstream answers
/// 200 with the full entity (e.g. it does not support ranges), the node
/// caches it and -- when `serve_range_on_200` -- answers only the requested
/// range, as RFC 2616 prescribes for proxies; otherwise the 200 is relayed.
http::Response laziness_miss(CdnNode& node, const http::Request& request,
                             const std::optional<http::RangeSet>& range,
                             bool serve_range_on_200 = true);

/// Serves a client request from an upstream fetch result: a 200 is cached
/// and range-served; a single-part 206 is served as a window (Expansion
/// fetches); anything else is relayed.
http::Response serve_upstream_result(CdnNode& node, const http::Request& request,
                                     const http::Response& upstream,
                                     const std::optional<http::RangeSet>& client_range);

/// Builds an EntityWindow from a single-part 206 response (Content-Range
/// parsed).  Returns nullopt when the response is not a usable partial.
std::optional<EntityWindow> window_from_206(const http::Response& upstream);

class DeletionLogic final : public VendorLogic {
 public:
  http::Response on_miss(CdnNode& node, const http::Request& request,
                         const std::optional<http::RangeSet>& range) override {
    return deletion_miss(node, request, range);
  }
};

class LazinessLogic final : public VendorLogic {
 public:
  explicit LazinessLogic(bool serve_range_on_200 = true)
      : serve_range_on_200_(serve_range_on_200) {}

  http::Response on_miss(CdnNode& node, const http::Request& request,
                         const std::optional<http::RangeSet>& range) override {
    return laziness_miss(node, request, range, serve_range_on_200_);
  }

 private:
  bool serve_range_on_200_;
};

/// Bounded Expansion: forward a range grown by at most `slack_bytes`
/// (default 8 KB, the paper's suggested value).  Closed ranges become
/// [first, last + slack]; suffix ranges become -(suffix + slack); open-ended
/// ranges are forwarded unchanged (they already reach the end).  Multi-range
/// sets are coalesced first.  The upstream's partial answer is served as a
/// window; a 200 full answer is cached and range-served.
class BoundedExpansionLogic final : public VendorLogic {
 public:
  explicit BoundedExpansionLogic(std::uint64_t slack_bytes = 8 * 1024)
      : slack_(slack_bytes) {}

  http::Response on_miss(CdnNode& node, const http::Request& request,
                         const std::optional<http::RangeSet>& range) override;

 private:
  std::uint64_t slack_;
};

/// Slice fetching: the nginx-slice-module strategy G-Core Labs shipped as
/// its RangeAmp fix ("make the 'slice' option enabled by default", paper
/// section VII; CDN77 announced the same direction).  Back-to-origin
/// requests are always slice-aligned ranges of `slice_bytes`; each slice is
/// cached individually, and the client's range is assembled from slices.
/// Origin exposure per request is capped at ~(span rounded up to slices),
/// so a 1-byte SBR request costs one slice instead of the whole resource.
class SliceLogic final : public VendorLogic {
 public:
  explicit SliceLogic(std::uint64_t slice_bytes = 1u << 20)
      : slice_(slice_bytes) {}

  http::Response on_miss(CdnNode& node, const http::Request& request,
                         const std::optional<http::RangeSet>& range) override;

 private:
  /// Fetches (or recalls from cache) slice `index` as a window (a recalled
  /// slice leaves total_size 0: the caller reads the total from the size
  /// marker); returns nullopt when the upstream answer is unusable.  On a
  /// 200 the full entity short-circuits through `full_entity`.  A transport
  /// failure short-circuits through `degraded` (the vendor's degradation
  /// response, shaped by `client_range`).
  std::optional<EntityWindow> fetch_slice(
      CdnNode& node, const http::Request& request, std::uint64_t index,
      const std::optional<http::RangeSet>& client_range,
      std::optional<CachedEntity>* full_entity,
      std::optional<http::Response>* degraded);

  std::uint64_t slice_;
};

}  // namespace rangeamp::cdn

#include "cdn/logic.h"

#include <algorithm>
#include <cstdlib>
#include <map>

namespace rangeamp::cdn {

using http::ByteRangeSpec;
using http::RangeSet;
using http::Request;
using http::Response;

Response deletion_miss(CdnNode& node, const Request& request,
                       const std::optional<RangeSet>& range) {
  const FetchResult result = node.fetch_result(request, std::nullopt);
  if (!result.ok()) return node.degrade(request, range, result);
  // Partial fills (truncated entities) never reach the cache:
  // entity_from_response refuses bodies shorter than their Content-Length.
  if (auto entity = CdnNode::entity_from_response(result.response)) {
    node.store(request, *entity);
    return node.respond_entity(*entity, range);
  }
  return node.relay(result.response);
}

Response laziness_miss(CdnNode& node, const Request& request,
                       const std::optional<RangeSet>& range,
                       bool serve_range_on_200) {
  const FetchResult result = node.fetch_result(request, range);
  if (!result.ok()) return node.degrade(request, range, result);
  const Response& upstream = result.response;
  if (upstream.status == http::kOk) {
    if (auto entity = CdnNode::entity_from_response(upstream)) {
      node.store(request, *entity);
      if (range && serve_range_on_200) return node.respond_entity(*entity, range);
      return node.respond_entity(*entity, std::nullopt);
    }
  }
  return node.relay(upstream);
}

std::optional<EntityWindow> window_from_206(const Response& upstream) {
  if (upstream.status != http::kPartialContent) return std::nullopt;
  const auto cr_value = upstream.headers.get("Content-Range");
  if (!cr_value) return std::nullopt;
  const auto cr = http::parse_content_range(*cr_value);
  if (!cr) return std::nullopt;
  EntityWindow window;
  window.body = upstream.body;
  window.offset = cr->range.first;
  window.total_size = cr->resource_size;
  read_representation(upstream, window);
  return window;
}

Response serve_upstream_result(CdnNode& node, const Request& request,
                               const Response& upstream,
                               const std::optional<RangeSet>& client_range) {
  if (upstream.status == http::kOk) {
    if (auto entity = CdnNode::entity_from_response(upstream)) {
      node.store(request, *entity);
      return node.respond_entity(*entity, client_range);
    }
  }
  if (client_range) {
    if (auto window = window_from_206(upstream)) {
      return node.respond_window(*window, *client_range);
    }
  }
  return node.relay(upstream);
}

Response BoundedExpansionLogic::on_miss(CdnNode& node, const Request& request,
                                        const std::optional<RangeSet>& range) {
  if (!range) return deletion_miss(node, request, range);

  // Derive a single forward spec covering the request, grown by the slack.
  // Suffix-only sets stay suffix (the entity size is unknown pre-fetch);
  // anything containing an open-ended spec is forwarded open-ended; closed
  // sets become [min_first, max_last + slack].
  bool any_open = false, any_closed = false, any_suffix = false;
  std::uint64_t min_first = UINT64_MAX, max_last = 0, max_suffix = 0;
  for (const auto& spec : range->specs) {
    if (spec.is_suffix()) {
      any_suffix = true;
      max_suffix = std::max(max_suffix, *spec.suffix);
    } else {
      min_first = std::min(min_first, *spec.first);
      if (spec.is_open()) {
        any_open = true;
      } else {
        any_closed = true;
        max_last = std::max(max_last, *spec.last);
      }
    }
  }

  RangeSet forward;
  if (any_suffix && !any_open && !any_closed) {
    forward.specs.push_back(ByteRangeSpec::suffix_of(max_suffix + slack_));
  } else if (any_suffix || any_open) {
    // Mixed or open: cover from the earliest first to the end.
    forward.specs.push_back(ByteRangeSpec::open(any_closed || any_open ? min_first : 0));
  } else {
    forward.specs.push_back(ByteRangeSpec::closed(min_first, max_last + slack_));
  }

  const FetchResult result = node.fetch_result(request, forward);
  if (!result.ok()) return node.degrade(request, range, result);
  return serve_upstream_result(node, request, result.response, range);
}

std::optional<EntityWindow> SliceLogic::fetch_slice(
    CdnNode& node, const Request& request, std::uint64_t index,
    const std::optional<RangeSet>& client_range,
    std::optional<CachedEntity>* full_entity,
    std::optional<Response>* degraded) {
  // Slices are cached under the path (query excluded): a legitimate slice
  // cache survives the attacker's query rotation, and repeated slices are
  // free.  (This is the nginx slice module's $uri-based key.)
  const std::string key =
      Cache::key(request.headers.get_or("Host", ""), request.path()) +
      "#slice=" + std::to_string(index);
  if (const CachedEntity* hit = node.cache().find(key)) {
    EntityWindow out;
    out.body = hit->entity;
    out.offset = index * slice_;
    out.content_type = hit->content_type;
    out.etag = hit->etag;
    out.last_modified = hit->last_modified;
    return out;
  }

  RangeSet slice_range;
  slice_range.specs.push_back(http::ByteRangeSpec::closed(
      index * slice_, index * slice_ + slice_ - 1));
  const FetchResult result = node.fetch_result(request, slice_range);
  if (!result.ok()) {
    *degraded = node.degrade(request, client_range, result);
    return std::nullopt;
  }
  const Response& upstream = result.response;
  if (upstream.status == http::kOk) {
    if (auto entity = CdnNode::entity_from_response(upstream)) {
      node.store(request, *entity);
      *full_entity = std::move(entity);
      return std::nullopt;
    }
  }
  auto window = window_from_206(upstream);
  if (!window || window->offset != index * slice_) return std::nullopt;

  CachedEntity slice_entity;
  slice_entity.entity = window->body;
  read_representation(upstream, slice_entity);
  node.cache().put(key, slice_entity);
  // Remember the representation size alongside the slice set.
  CachedEntity size_marker;
  size_marker.entity = http::Body{};
  size_marker.content_type = std::to_string(window->total_size);
  node.cache().put(Cache::key(request.headers.get_or("Host", ""),
                              request.path()) +
                       "#slice-total",
                   size_marker);
  return window;
}

Response SliceLogic::on_miss(CdnNode& node, const Request& request,
                             const std::optional<RangeSet>& range) {
  std::optional<CachedEntity> full_entity;
  std::optional<Response> degraded;

  // Discover the representation size: from the cached marker, or by pulling
  // slice 0 (which a ranged request almost always needs anyway).
  std::uint64_t total = 0;
  const std::string total_key =
      Cache::key(request.headers.get_or("Host", ""), request.path()) +
      "#slice-total";
  if (const CachedEntity* marker = node.cache().find(total_key)) {
    total = std::strtoull(marker->content_type.c_str(), nullptr, 10);
  }
  if (total == 0) {
    auto probe = fetch_slice(node, request, 0, range, &full_entity, &degraded);
    if (full_entity) return node.respond_entity(*full_entity, range);
    if (degraded) return *degraded;
    if (!probe) return node.error(http::kBadGateway, "slice fetch failed");
    total = probe->total_size;
    if (total == 0) return node.error(http::kBadGateway, "slice size unknown");
  }

  // A range-less request assembles the entire entity slice by slice.
  if (!range) {
    CachedEntity assembled;
    for (std::uint64_t index = 0; index * slice_ < total; ++index) {
      auto slice = fetch_slice(node, request, index, range, &full_entity, &degraded);
      if (full_entity) return node.respond_entity(*full_entity, std::nullopt);
      if (degraded) return *degraded;
      if (!slice) return node.error(http::kBadGateway, "slice fetch failed");
      if (assembled.content_type.empty()) {
        assembled.content_type = slice->content_type;
        assembled.etag = slice->etag;
        assembled.last_modified = slice->last_modified;
      }
      assembled.entity.append_body(slice->body);
    }
    return node.respond_entity(assembled, std::nullopt);
  }

  // Resolve and coalesce: slice serving inherently merges overlapping
  // ranges (a mitigation bonus -- OBR's n identical parts collapse to one).
  auto resolved = http::resolve_all(*range, total);
  if (resolved.empty()) {
    EntityWindow empty;
    empty.total_size = total;
    return node.respond_window(empty, *range);  // -> 416
  }
  const auto merged = http::coalesce(resolved);

  // Fetch exactly the slices the merged ranges intersect -- never the gaps
  // between scattered ranges (a naive covering-span fetch would let a
  // "bytes=0-0,<far>-<far>" request pull the whole file).
  std::string content_type, etag, last_modified;
  std::vector<std::pair<http::ResolvedRange, http::Body>> parts;
  std::map<std::uint64_t, http::Body> fetched;  // per-request slice reuse
  for (const auto& r : merged) {
    http::Body payload;
    for (std::uint64_t index = r.first / slice_; index <= r.last / slice_;
         ++index) {
      auto it = fetched.find(index);
      if (it == fetched.end()) {
        auto slice = fetch_slice(node, request, index, range, &full_entity, &degraded);
        if (full_entity) return node.respond_entity(*full_entity, range);
        if (degraded) return *degraded;
        if (!slice) return node.error(http::kBadGateway, "slice fetch failed");
        if (content_type.empty()) {
          content_type = slice->content_type;
          etag = slice->etag;
          last_modified = slice->last_modified;
        }
        it = fetched.emplace(index, std::move(slice->body)).first;
      }
      const std::uint64_t slice_start = index * slice_;
      const std::uint64_t begin = std::max(r.first, slice_start);
      const std::uint64_t end =
          std::min<std::uint64_t>(r.last, slice_start + it->second.size() - 1);
      payload.append_body(it->second.slice(begin - slice_start, end - begin + 1));
    }
    parts.emplace_back(r, std::move(payload));
  }
  return node.respond_assembled(total, content_type, etag, last_modified,
                                std::move(parts));
}

}  // namespace rangeamp::cdn

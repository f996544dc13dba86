// Differential tests of the lazy multipart/byteranges body.
//
// build_multipart_byteranges() never spells a part header: it returns one
// window onto a MultipartLayout.  These tests hold that body against an eager
// reference assembler -- the per-part string concatenation the simulator
// used to run -- over a seeded sweep of range sets, windows, vendor part
// headers and boundaries, and check the node-level identity the paper's
// byte counts rest on: serialized_size(resp) == to_bytes(resp).size().
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cdn/node.h"
#include "cdn/profiles.h"
#include "core/testbed.h"
#include "http/generator.h"
#include "http/multipart.h"
#include "http/serialize.h"

namespace rangeamp::http {
namespace {

// The eager reference: every part header spelled as a string.
std::string eager_multipart(const std::string& source,
                            const std::vector<MultipartPart>& parts,
                            std::uint64_t resource_size,
                            std::string_view content_type,
                            std::string_view boundary,
                            const std::vector<HeaderField>& extra_headers) {
  std::string out;
  for (const auto& part : parts) {
    out += "--" + std::string{boundary} + "\r\n";
    for (const auto& f : extra_headers) out += f.name + ": " + f.value + "\r\n";
    out += "Content-Type: " + std::string{content_type} + "\r\n";
    out += "Content-Range: " + content_range(part.range, resource_size) + "\r\n\r\n";
    out += source.substr(static_cast<std::size_t>(part.source_offset),
                         static_cast<std::size_t>(part.length));
    out += "\r\n";
  }
  out += "--" + std::string{boundary} + "--\r\n";
  return out;
}

std::string random_boundary(Rng& rng) {
  constexpr std::string_view kChars =
      "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ'()+_,-./:=?";
  std::string out(static_cast<std::size_t>(rng.between(1, 70)), 'x');
  for (char& c : out) c = kChars[static_cast<std::size_t>(rng.below(kChars.size()))];
  return out;
}

// Closed, open, suffix, duplicate and overlapping specs, up to 300 of them,
// mostly starting inside [lo, hi) of a resource of `resource_size` bytes.
RangeSet random_range_set(Rng& rng, std::uint64_t lo, std::uint64_t hi,
                          std::uint64_t resource_size) {
  RangeSet set;
  const std::size_t n = rng.chance(0.1) ? static_cast<std::size_t>(rng.between(100, 300))
                                        : static_cast<std::size_t>(rng.between(1, 12));
  for (std::size_t i = 0; i < n; ++i) {
    if (!set.specs.empty() && rng.chance(0.15)) {  // duplicate
      set.specs.push_back(set.specs[static_cast<std::size_t>(rng.below(set.specs.size()))]);
      continue;
    }
    const std::uint64_t first = lo + rng.below(hi - lo + 8);  // some unservable
    switch (rng.below(3)) {
      case 0:
        set.specs.push_back(ByteRangeSpec::closed(first, first + rng.below(64)));
        break;
      case 1:
        set.specs.push_back(ByteRangeSpec::open(first));
        break;
      default:
        set.specs.push_back(ByteRangeSpec::suffix_of(rng.below(resource_size + 8)));
        break;
    }
  }
  return set;
}

// Every Body property the lazy chunk must keep, against the eager bytes.
void expect_matches_reference(Rng& rng, const Body& body, const std::string& ref) {
  const std::string bytes = body.materialize();
  ASSERT_EQ(bytes, ref);
  ASSERT_EQ(body.size(), bytes.size());
  for (int k = 0; k < 4; ++k) {
    const std::uint64_t a = rng.below(ref.size() + 1);
    const std::uint64_t len = rng.below(ref.size() - a + 1);
    ASSERT_EQ(body.slice(a, len).materialize(),
              ref.substr(static_cast<std::size_t>(a), static_cast<std::size_t>(len)))
        << a << "+" << len;
    const std::uint64_t cut = rng.below(ref.size() + 1);
    Body truncated = body;
    truncated.truncate(cut);
    ASSERT_EQ(truncated.size(), cut);
    ASSERT_EQ(truncated.materialize(), ref.substr(0, static_cast<std::size_t>(cut)));
  }
  for (int k = 0; k < 16; ++k) {
    const std::uint64_t i = rng.below(ref.size());
    ASSERT_EQ(body.at(i), static_cast<std::uint8_t>(ref[static_cast<std::size_t>(i)])) << i;
  }
}

TEST(LazyMultipart, MatchesEagerAssemblerOnSeededSweep) {
  Rng rng{0x1a2b3c4d};
  const std::vector<std::string> types{"application/octet-stream", "image/jpeg",
                                       "text/plain; charset=utf-8"};
  std::size_t total_parts = 0;
  std::size_t max_parts = 0;
  for (int c = 0; c < 2000; ++c) {
    SCOPED_TRACE(c);
    const std::uint64_t resource_size = rng.between(1, 600);
    const std::uint64_t seed = rng.next();
    Body entity = Body::synthetic(seed, 0, resource_size);
    if (rng.chance(0.2)) {  // literal bytes in the source as well
      const std::uint64_t cut = rng.below(resource_size + 1);
      entity = Body::literal(entity.slice(0, cut).materialize());
      entity.append_synthetic(seed, cut, resource_size - cut);
    }
    // A window of the entity, as respond_window serves a cached slice.
    const bool windowed = rng.chance(0.5);
    const std::uint64_t win_first = windowed ? rng.below(resource_size) : 0;
    const std::uint64_t win_size =
        windowed ? rng.between(1, resource_size - win_first) : resource_size;
    const Body window = entity.slice(win_first, win_size);

    std::vector<MultipartPart> parts;
    const RangeSet set =
        random_range_set(rng, win_first, win_first + win_size, resource_size);
    for (const auto& r : resolve_all(set, resource_size)) {
      if (r.first >= win_first && r.last < win_first + win_size) {
        parts.push_back({r, r.first - win_first, r.length()});
      }
    }
    std::vector<HeaderField> extra;
    const std::size_t extras = static_cast<std::size_t>(rng.below(3));
    for (std::size_t e = 0; e < extras; ++e) {
      extra.push_back({"X-Part-" + std::to_string(e),
                       std::string(static_cast<std::size_t>(rng.below(200)), 'p')});
    }
    const std::string boundary = random_boundary(rng);
    const std::string& type = types[static_cast<std::size_t>(rng.below(types.size()))];

    const Body body = build_multipart_byteranges({boundary, type, extra}, resource_size,
                                                 window, parts);
    total_parts += parts.size();
    max_parts = std::max(max_parts, parts.size());
    const std::string ref =
        eager_multipart(window.materialize(), parts, resource_size, type, boundary, extra);
    expect_matches_reference(rng, body, ref);

    const auto parsed = parse_multipart_byteranges(ref, boundary);
    ASSERT_TRUE(parsed);
    ASSERT_EQ(parsed->size(), parts.size());
    for (std::size_t i = 0; i < parts.size(); ++i) {
      EXPECT_EQ((*parsed)[i].range, parts[i].range);
      EXPECT_EQ((*parsed)[i].resource_size, resource_size);
      EXPECT_EQ((*parsed)[i].content_type, type);
      EXPECT_EQ((*parsed)[i].payload, window.slice(parts[i].source_offset, parts[i].length));
    }
    if (extra.empty() && win_first == 0 && win_size == resource_size) {
      std::vector<ResolvedRange> ranges;
      for (const auto& p : parts) ranges.push_back(p.range);
      EXPECT_EQ(multipart_byteranges_size(ranges, resource_size, type, boundary),
                ref.size());
    }
  }
  // The sweep really exercises many-part bodies.
  EXPECT_GT(total_parts, 20000u);
  EXPECT_GE(max_parts, 200u);
}

TEST(LazyMultipart, ConcatenatedSourceWithShortPayloads) {
  // respond_assembled's shape: payloads laid end to end in one source, one of
  // them shorter than the range its header announces.
  Body source = Body::synthetic(3, 100, 10);
  source.append_literal("short");
  source.append_synthetic(3, 500, 20);
  const std::vector<MultipartPart> parts{
      {{100, 109}, 0, 10}, {{200, 209}, 10, 5}, {{500, 519}, 15, 20}};
  const Body body = build_multipart_byteranges({"b", "text/plain"}, 1000, source, parts);
  Rng rng{7};
  expect_matches_reference(rng, body,
                           eager_multipart(source.materialize(), parts, 1000,
                                           "text/plain", "b", {}));
}

TEST(LazyMultipart, AppendMergesContiguousWindowsOfOneLayout) {
  const Body body = build_multipart_byteranges(Body::synthetic(1, 0, 100),
                                               {{0, 99}, {10, 19}}, 100,
                                               "text/plain", "bnd");
  ASSERT_EQ(body.chunks().size(), 1u);
  Body rebuilt = body.slice(0, 50);
  rebuilt.append_body(body.slice(50, body.size() - 50));
  EXPECT_EQ(rebuilt.chunks().size(), 1u);
  EXPECT_EQ(rebuilt.chunks(), body.chunks());
  // A gap keeps the windows apart.
  Body gapped = body.slice(0, 10);
  gapped.append_body(body.slice(11, 5));
  EXPECT_EQ(gapped.chunks().size(), 2u);
  EXPECT_EQ(gapped.materialize(), body.materialize().substr(0, 10) +
                                      body.materialize().substr(11, 5));
}

TEST(LazyMultipart, NoPartsIsTheClosingDelimiter) {
  const Body body = build_multipart_byteranges(Body::synthetic(1, 0, 10), {}, 10,
                                               "text/plain", "edge");
  EXPECT_EQ(body.materialize(), "--edge--\r\n");
  EXPECT_EQ(body.size(), 10u);
  EXPECT_EQ(body.at(2), 'e');
}

TEST(LazyMultipart, EqualityComparesLogicalBytesAcrossWindows) {
  // Over 128 KiB, so the comparison crosses its 64 KiB windows.
  const Body lazy = build_multipart_byteranges(
      Body::synthetic(5, 0, 4096), std::vector<ResolvedRange>(40, {0, 4095}), 4096,
      "application/octet-stream", "eq");
  const std::string bytes = lazy.materialize();
  ASSERT_GT(bytes.size(), 128u * 1024u);
  EXPECT_EQ(lazy, Body::literal(bytes));
  EXPECT_EQ(Body::literal(bytes), lazy);
  Body mixed = Body::literal(bytes.substr(0, 70000));
  mixed.append_body(lazy.slice(70000, lazy.size() - 70000));
  EXPECT_EQ(mixed, lazy);
  for (const std::size_t pos : {std::size_t{0}, std::size_t{65535}, std::size_t{65536},
                                bytes.size() - 1}) {
    std::string flipped = bytes;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 1);
    EXPECT_NE(lazy, Body::literal(flipped)) << pos;
  }
}

// serialized_size vs materialized bytes on every vendor's multi-range 206:
// respond_assembled always frames several parts, respond_window frames them
// when the vendor's reply policy keeps several ranges.
TEST(LazyMultipart, NodeMultipartSerializedSizeEqualsBytesForAllVendors) {
  constexpr std::uint64_t kSize = 1 << 20;
  for (const cdn::Vendor vendor : cdn::kAllVendors) {
    core::SingleCdnTestbed bed(cdn::make_profile(vendor));
    cdn::CdnNode& node = bed.cdn();
    const Body entity = Body::synthetic(42, 0, kSize);
    for (const std::size_t n : {2u, 64u, 1024u}) {
      SCOPED_TRACE(std::string{cdn::vendor_name(vendor)} + " n=" + std::to_string(n));
      // Disjoint, non-adjacent ranges survive every coalescing policy.
      RangeSet set;
      std::vector<std::pair<ResolvedRange, Body>> parts;
      for (std::size_t i = 0; i < n; ++i) {
        const ResolvedRange r{i * 512, i * 512 + 255};
        set.specs.push_back(ByteRangeSpec::closed(r.first, r.last));
        parts.emplace_back(r, entity.slice(r.first, r.length()));
      }
      const Response assembled = node.respond_assembled(
          kSize, "application/octet-stream", "\"e\"", "", std::move(parts));
      ASSERT_EQ(assembled.status, kPartialContent);
      ASSERT_TRUE(assembled.headers.get_or("Content-Type", "")
                      .starts_with("multipart/byteranges"));
      EXPECT_EQ(serialized_size(assembled), to_bytes(assembled).size());

      cdn::EntityWindow window;
      window.body = entity;
      window.total_size = kSize;
      window.content_type = "application/octet-stream";
      const Response served = node.respond_window(window, set);
      EXPECT_EQ(serialized_size(served), to_bytes(served).size());
    }
  }
}

}  // namespace
}  // namespace rangeamp::http

// Per-vendor conformance tests: each test asserts one row of the paper's
// Tables I (SBR forwarding), II (OBR forwarding) or III (OBR replying).
#include "cdn/profiles.h"

#include <gtest/gtest.h>

#include "core/obr.h"
#include "core/testbed.h"
#include "http/multipart.h"

namespace rangeamp::cdn {
namespace {

using http::Request;
using http::Response;

constexpr std::uint64_t kMiB = 1u << 20;

struct Observed {
  Response response;
  // Origin-side view: (method, Range header or "") per request.
  std::vector<std::pair<http::Method, std::string>> origin_requests;
  std::uint64_t origin_response_bytes = 0;
  std::uint64_t client_response_bytes = 0;
};

Observed run(Vendor vendor, std::uint64_t file_size, const std::string& range,
             const ProfileOptions& options = {}, int sends = 1,
             bool origin_ranges_enabled = true) {
  origin::OriginConfig config;
  config.supports_ranges = origin_ranges_enabled;
  core::SingleCdnTestbed bed(make_profile(vendor, options), config);
  bed.origin().resources().add_synthetic("/t.bin", file_size);
  Request req = http::make_get("site.example", "/t.bin?cb=1");
  if (!range.empty()) req.headers.add("Range", range);
  Observed out;
  for (int i = 0; i < sends; ++i) out.response = bed.send(req);
  for (const auto& r : bed.origin().request_log()) {
    out.origin_requests.emplace_back(
        r.method, std::string{r.headers.get_or("Range", "")});
  }
  out.origin_response_bytes = bed.origin_traffic().response_bytes();
  out.client_response_bytes = bed.client_traffic().response_bytes();
  return out;
}

bool full_entity_pulled(const Observed& o, std::uint64_t file_size) {
  return o.origin_response_bytes >= file_size;
}

std::size_t multipart_parts(const Response& resp) {
  const auto ct = resp.headers.get("Content-Type");
  if (!ct) return 0;
  const auto boundary = http::boundary_from_content_type(*ct);
  if (!boundary) return 0;
  const auto parts =
      http::parse_multipart_byteranges(resp.body.materialize(), *boundary);
  return parts ? parts->size() : 0;
}

// ---------------------------------------------------------------------------
// Table I rows -- SBR-vulnerable forwarding.
// ---------------------------------------------------------------------------

TEST(TableI_Akamai, ClosedAndSuffixDeleted) {
  for (const char* range : {"bytes=0-0", "bytes=-1"}) {
    const auto o = run(Vendor::kAkamai, kMiB, range);
    ASSERT_EQ(o.origin_requests.size(), 1u) << range;
    EXPECT_EQ(o.origin_requests[0].second, "") << range;  // "None"
    EXPECT_TRUE(full_entity_pulled(o, kMiB));
    EXPECT_EQ(o.response.status, 206);
    EXPECT_EQ(o.response.body.size(), 1u);
  }
}

TEST(TableI_AlibabaCloud, SuffixDeletedWhenRangeOptionDisabled) {
  const auto o = run(Vendor::kAlibabaCloud, kMiB, "bytes=-1");
  ASSERT_EQ(o.origin_requests.size(), 1u);
  EXPECT_EQ(o.origin_requests[0].second, "");
  EXPECT_TRUE(full_entity_pulled(o, kMiB));
}

TEST(TableI_AlibabaCloud, ClosedRangeForwardedLazily) {
  const auto o = run(Vendor::kAlibabaCloud, kMiB, "bytes=0-0");
  ASSERT_EQ(o.origin_requests.size(), 1u);
  EXPECT_EQ(o.origin_requests[0].second, "bytes=0-0");
  EXPECT_FALSE(full_entity_pulled(o, kMiB));
}

TEST(TableI_AlibabaCloud, NotVulnerableWithRangeOptionEnabled) {
  ProfileOptions options;
  options.origin_range_option_disabled = false;
  const auto o = run(Vendor::kAlibabaCloud, kMiB, "bytes=-1", options);
  EXPECT_EQ(o.origin_requests[0].second, "bytes=-1");
  EXPECT_FALSE(full_entity_pulled(o, kMiB));
}

TEST(TableI_Azure, SmallFileDeletion) {
  const auto o = run(Vendor::kAzure, kMiB, "bytes=0-0");
  ASSERT_EQ(o.origin_requests.size(), 1u);
  EXPECT_EQ(o.origin_requests[0].second, "");
  EXPECT_TRUE(full_entity_pulled(o, kMiB));
}

TEST(TableI_Azure, LargeFileSecondWindowFetch) {
  // Table I: "bytes=8388608-8388608 (F>8MB)" -> "None & bytes=8388608-16777215".
  const auto o = run(Vendor::kAzure, 25 * kMiB, "bytes=8388608-8388608");
  ASSERT_EQ(o.origin_requests.size(), 2u);
  EXPECT_EQ(o.origin_requests[0].second, "");
  EXPECT_EQ(o.origin_requests[1].second, "bytes=8388608-16777215");
  // First connection aborted a little past 8 MB; second shipped the window.
  EXPECT_GT(o.origin_response_bytes, 16 * kMiB);
  EXPECT_LT(o.origin_response_bytes, 17 * kMiB);
  EXPECT_EQ(o.response.status, 206);
  EXPECT_EQ(o.response.body.size(), 1u);
}

TEST(TableI_Azure, LargeFilePrefixRangeServedFromAbortedPull) {
  const auto o = run(Vendor::kAzure, 25 * kMiB, "bytes=0-0");
  ASSERT_EQ(o.origin_requests.size(), 1u);
  EXPECT_EQ(o.origin_requests[0].second, "");
  // ~8 MB pulled, not 25 MB.
  EXPECT_LT(o.origin_response_bytes, 9 * kMiB);
  EXPECT_EQ(o.response.status, 206);
}

TEST(TableI_Cdn77, ClosedBelow1024Deleted) {
  const auto o = run(Vendor::kCdn77, kMiB, "bytes=0-0");
  EXPECT_EQ(o.origin_requests[0].second, "");
  EXPECT_TRUE(full_entity_pulled(o, kMiB));
}

TEST(TableI_Cdn77, ClosedAtOrAbove1024Lazy) {
  const auto o = run(Vendor::kCdn77, kMiB, "bytes=1024-1030");
  EXPECT_EQ(o.origin_requests[0].second, "bytes=1024-1030");
  EXPECT_FALSE(full_entity_pulled(o, kMiB));
  const auto boundary = run(Vendor::kCdn77, kMiB, "bytes=1023-1030");
  EXPECT_EQ(boundary.origin_requests[0].second, "");  // 1023 < 1024
}

TEST(TableI_Cdnsun, ZeroStartDeleted) {
  for (const char* range : {"bytes=0-0", "bytes=0-499", "bytes=0-"}) {
    const auto o = run(Vendor::kCdnsun, kMiB, range);
    EXPECT_EQ(o.origin_requests[0].second, "") << range;
    EXPECT_TRUE(full_entity_pulled(o, kMiB)) << range;
  }
}

TEST(TableI_Cdnsun, NonZeroStartLazy) {
  const auto o = run(Vendor::kCdnsun, kMiB, "bytes=1-5");
  EXPECT_EQ(o.origin_requests[0].second, "bytes=1-5");
  EXPECT_FALSE(full_entity_pulled(o, kMiB));
}

TEST(TableI_Cloudflare, CacheableModeDeletesClosedAndSuffix) {
  for (const char* range : {"bytes=0-0", "bytes=-1"}) {
    const auto o = run(Vendor::kCloudflare, kMiB, range);
    EXPECT_EQ(o.origin_requests[0].second, "") << range;
    EXPECT_TRUE(full_entity_pulled(o, kMiB)) << range;
  }
}

TEST(TableI_Cloudflare, BypassModeIsPurePassThrough) {
  ProfileOptions options;
  options.cloudflare_mode = ProfileOptions::CloudflareMode::kBypass;
  const auto o = run(Vendor::kCloudflare, kMiB, "bytes=0-0", options);
  EXPECT_EQ(o.origin_requests[0].second, "bytes=0-0");
  EXPECT_FALSE(full_entity_pulled(o, kMiB));
}

TEST(TableI_CloudFront, SingleRangeBlockExpansion) {
  // first' = (first >> 20) << 20, last' = (((last >> 20) + 1) << 20) - 1.
  const auto o = run(Vendor::kCloudFront, 25 * kMiB, "bytes=3145729-3145730");
  ASSERT_EQ(o.origin_requests.size(), 1u);
  EXPECT_EQ(o.origin_requests[0].second, "bytes=3145728-4194303");
  EXPECT_EQ(o.response.status, 206);
  EXPECT_EQ(o.response.body.size(), 2u);
  // Exactly one MiB block crossed the cdn-origin segment.
  EXPECT_GT(o.origin_response_bytes, kMiB);
  EXPECT_LT(o.origin_response_bytes, kMiB + 2048);
}

TEST(TableI_CloudFront, MultiRangeExpandsToCoveringSpanUnder10MiB) {
  // The paper's exploited case: bytes=0-0,9437184-9437184 -> bytes=0-10485759.
  const auto o = run(Vendor::kCloudFront, 25 * kMiB, "bytes=0-0,9437184-9437184");
  ASSERT_EQ(o.origin_requests.size(), 1u);
  EXPECT_EQ(o.origin_requests[0].second, "bytes=0-10485759");
  EXPECT_EQ(o.response.status, 206);
  EXPECT_EQ(multipart_parts(o.response), 2u);
  EXPECT_GT(o.origin_response_bytes, 10 * kMiB);
  EXPECT_LT(o.origin_response_bytes, 10 * kMiB + kMiB);
}

TEST(TableI_Fastly, ClosedAndSuffixDeleted) {
  for (const char* range : {"bytes=0-0", "bytes=-1"}) {
    const auto o = run(Vendor::kFastly, kMiB, range);
    EXPECT_EQ(o.origin_requests[0].second, "") << range;
    EXPECT_TRUE(full_entity_pulled(o, kMiB)) << range;
  }
}

TEST(TableI_GcoreLabs, ClosedAndSuffixDeleted) {
  for (const char* range : {"bytes=0-0", "bytes=-1"}) {
    const auto o = run(Vendor::kGcoreLabs, kMiB, range);
    EXPECT_EQ(o.origin_requests[0].second, "") << range;
    EXPECT_TRUE(full_entity_pulled(o, kMiB)) << range;
  }
}

TEST(TableI_HuaweiCloud, SuffixSmallFileHeadThenDeletion) {
  // "bytes=-suffix (F<10MB) -> None (*)": a HEAD size probe then a full GET.
  const auto o = run(Vendor::kHuaweiCloud, kMiB, "bytes=-1");
  ASSERT_EQ(o.origin_requests.size(), 2u);
  EXPECT_EQ(o.origin_requests[0].first, http::Method::HEAD);
  EXPECT_EQ(o.origin_requests[0].second, "");
  EXPECT_EQ(o.origin_requests[1].first, http::Method::GET);
  EXPECT_EQ(o.origin_requests[1].second, "");
  EXPECT_TRUE(full_entity_pulled(o, kMiB));
}

TEST(TableI_HuaweiCloud, SuffixLargeFileLazy) {
  const auto o = run(Vendor::kHuaweiCloud, 12 * kMiB, "bytes=-1");
  EXPECT_EQ(o.origin_requests.back().second, "bytes=-1");
  EXPECT_FALSE(full_entity_pulled(o, 12 * kMiB));
}

TEST(TableI_HuaweiCloud, ClosedLargeFileDeleted) {
  const auto o = run(Vendor::kHuaweiCloud, 12 * kMiB, "bytes=0-0");
  ASSERT_EQ(o.origin_requests.size(), 2u);  // "None & None"
  EXPECT_EQ(o.origin_requests[1].second, "");
  EXPECT_TRUE(full_entity_pulled(o, 12 * kMiB));
}

TEST(TableI_HuaweiCloud, ClosedSmallFileLazy) {
  const auto o = run(Vendor::kHuaweiCloud, kMiB, "bytes=0-0");
  EXPECT_EQ(o.origin_requests.back().second, "bytes=0-0");
  EXPECT_FALSE(full_entity_pulled(o, kMiB));
}

TEST(TableI_HuaweiCloud, NotVulnerableWithRangeOptionDisabled) {
  ProfileOptions options;
  options.huawei_range_option_enabled = false;
  const auto o = run(Vendor::kHuaweiCloud, kMiB, "bytes=-1", options);
  EXPECT_EQ(o.origin_requests[0].second, "bytes=-1");
  EXPECT_FALSE(full_entity_pulled(o, kMiB));
}

TEST(TableI_KeyCdn, FirstSendLazySecondSendDeletes) {
  // Row: "bytes=first-last (& bytes=first-last) -> bytes=first-last (& None)".
  const auto o = run(Vendor::kKeyCdn, kMiB, "bytes=0-0", {}, /*sends=*/2);
  ASSERT_EQ(o.origin_requests.size(), 2u);
  EXPECT_EQ(o.origin_requests[0].second, "bytes=0-0");
  EXPECT_EQ(o.origin_requests[1].second, "");
  EXPECT_TRUE(full_entity_pulled(o, kMiB));
}

TEST(TableI_KeyCdn, SingleSendAloneDoesNotAmplify) {
  const auto o = run(Vendor::kKeyCdn, kMiB, "bytes=0-0", {}, /*sends=*/1);
  ASSERT_EQ(o.origin_requests.size(), 1u);
  EXPECT_EQ(o.origin_requests[0].second, "bytes=0-0");
  EXPECT_FALSE(full_entity_pulled(o, kMiB));
}

TEST(TableI_KeyCdn, FirstSightingNotCached) {
  // After the pair of sends the entity is cached; a third request must not
  // hit the origin again.
  origin::OriginConfig config;
  core::SingleCdnTestbed bed(make_profile(Vendor::kKeyCdn), config);
  bed.origin().resources().add_synthetic("/t.bin", kMiB);
  Request req = http::make_get("site.example", "/t.bin?cb=1");
  req.headers.add("Range", "bytes=0-0");
  bed.send(req);
  EXPECT_EQ(bed.cdn().cache().size(), 0u);  // not cached on first sight
  bed.send(req);
  EXPECT_EQ(bed.cdn().cache().size(), 1u);
  bed.send(req);
  EXPECT_EQ(bed.origin().request_log().size(), 2u);
}

Request closed_range_get(const std::string& target) {
  Request req = http::make_get("site.example", target);
  req.headers.add("Range", "bytes=0-0");
  return req;
}

TEST(TableI_KeyCdn, CacheBustingFloodKeepsFirstSightingsBounded) {
  // A fresh query string per request is a first sighting every time; the
  // node remembers at most its cache's ghost budget of them.
  VendorProfile profile = make_profile(Vendor::kKeyCdn);
  const VendorLogic& logic = *profile.logic;
  const CacheTraits& cache = profile.traits.cache;
  const std::size_t budget = cache.ghost_entries * cache.shards;
  core::SingleCdnTestbed bed(std::move(profile));
  bed.origin().resources().add_synthetic("/t.bin", 1024);
  for (int i = 0; i < 100'000; ++i) {
    bed.send(closed_range_get("/t.bin?cb=" + std::to_string(i)));
    if (i % 1000 == 999) bed.origin().clear_log();
  }
  EXPECT_EQ(logic.remembered_keys(), budget);
  EXPECT_EQ(bed.cdn().cache().size(), 0u);  // first sightings are not cached
}

TEST(TableI_KeyCdn, DeletionForgetsTheKeyAndOldestSightingGoesFirst) {
  VendorProfile profile = make_profile(Vendor::kKeyCdn);
  const VendorLogic& logic = *profile.logic;
  profile.traits.cache.ghost_entries = 2;
  core::SingleCdnTestbed bed(std::move(profile));
  bed.origin().resources().add_synthetic("/t.bin", 1024);
  const auto origin_range = [&] {
    const Request& last = bed.origin().request_log().back();
    return std::string{last.headers.get_or("Range", "")};
  };
  for (const char* target : {"/t.bin?a", "/t.bin?b", "/t.bin?c"}) {
    bed.send(closed_range_get(target));
  }
  EXPECT_EQ(logic.remembered_keys(), 2u);  // ?a was forgotten for ?c
  bed.send(closed_range_get("/t.bin?c"));  // second sighting: Deletion
  EXPECT_EQ(origin_range(), "");
  EXPECT_EQ(logic.remembered_keys(), 1u);  // ?c is cached, not remembered
  bed.send(closed_range_get("/t.bin?a"));  // a first sighting again
  EXPECT_EQ(origin_range(), "bytes=0-0");
  EXPECT_EQ(logic.remembered_keys(), 2u);
}

TEST(TableI_StackPath, LazyThenDeletionOn206) {
  // Row: "bytes=... -> bytes=... [& None]".
  const auto o = run(Vendor::kStackPath, kMiB, "bytes=0-0");
  ASSERT_EQ(o.origin_requests.size(), 2u);
  EXPECT_EQ(o.origin_requests[0].second, "bytes=0-0");
  EXPECT_EQ(o.origin_requests[1].second, "");
  EXPECT_TRUE(full_entity_pulled(o, kMiB));
}

TEST(TableI_StackPath, NoSecondFetchWhenOriginReturns200) {
  const auto o = run(Vendor::kStackPath, kMiB, "bytes=0-0", {}, 1,
                     /*origin_ranges_enabled=*/false);
  ASSERT_EQ(o.origin_requests.size(), 1u);
  EXPECT_EQ(o.origin_requests[0].second, "bytes=0-0");
  EXPECT_EQ(o.response.status, 206);  // range-served from the 200 entity
}

TEST(TableI_TencentCloud, ClosedDeletedWhenOptionDisabled) {
  const auto o = run(Vendor::kTencentCloud, kMiB, "bytes=0-0");
  EXPECT_EQ(o.origin_requests[0].second, "");
  EXPECT_TRUE(full_entity_pulled(o, kMiB));
}

TEST(TableI_TencentCloud, SuffixLazy) {
  const auto o = run(Vendor::kTencentCloud, kMiB, "bytes=-1");
  EXPECT_EQ(o.origin_requests[0].second, "bytes=-1");
  EXPECT_FALSE(full_entity_pulled(o, kMiB));
}

TEST(TableI_TencentCloud, NotVulnerableWithOptionEnabled) {
  ProfileOptions options;
  options.origin_range_option_disabled = false;
  const auto o = run(Vendor::kTencentCloud, kMiB, "bytes=0-0", options);
  EXPECT_EQ(o.origin_requests[0].second, "bytes=0-0");
  EXPECT_FALSE(full_entity_pulled(o, kMiB));
}

// ---------------------------------------------------------------------------
// Table II rows -- OBR FCDN forwarding (multi-range unchanged).
// ---------------------------------------------------------------------------

TEST(TableII, Cdn77ForwardsOverlappingMultiUnchanged) {
  const std::string range = core::obr_range_case(Vendor::kCdn77, 3).to_string();
  const auto o = run(Vendor::kCdn77, 1024, range);
  ASSERT_EQ(o.origin_requests.size(), 1u);
  EXPECT_EQ(o.origin_requests[0].second, range);
}

TEST(TableII, CdnsunForwardsStart1Unchanged) {
  const std::string range = core::obr_range_case(Vendor::kCdnsun, 3).to_string();
  const auto o = run(Vendor::kCdnsun, 1024, range);
  EXPECT_EQ(o.origin_requests[0].second, range);
}

TEST(TableII, CloudflareBypassForwardsUnchanged) {
  ProfileOptions options;
  options.cloudflare_mode = ProfileOptions::CloudflareMode::kBypass;
  const std::string range = "bytes=0-,0-,0-";
  const auto o = run(Vendor::kCloudflare, 1024, range, options);
  EXPECT_EQ(o.origin_requests[0].second, range);
}

TEST(TableII, CloudflareCacheableDoesNotForwardMulti) {
  const auto o = run(Vendor::kCloudflare, 1024, "bytes=0-,0-,0-");
  EXPECT_EQ(o.origin_requests[0].second, "");
}

TEST(TableII, StackPathForwardsUnchangedThenRefetches) {
  const std::string range = "bytes=0-,0-,0-";
  const auto o = run(Vendor::kStackPath, 1024, range);
  ASSERT_GE(o.origin_requests.size(), 1u);
  EXPECT_EQ(o.origin_requests[0].second, range);
}

TEST(TableII, NonFcdnVendorsDoNotForwardMultiUnchanged) {
  for (const Vendor vendor :
       {Vendor::kAkamai, Vendor::kAlibabaCloud, Vendor::kAzure,
        Vendor::kCloudFront, Vendor::kFastly, Vendor::kGcoreLabs,
        Vendor::kHuaweiCloud, Vendor::kKeyCdn, Vendor::kTencentCloud}) {
    const std::string range = "bytes=0-,0-,0-";
    const auto o = run(vendor, 1024, range);
    for (const auto& [method, forwarded] : o.origin_requests) {
      EXPECT_NE(forwarded, range) << vendor_name(vendor);
    }
  }
}

// ---------------------------------------------------------------------------
// Table III rows -- OBR BCDN replying (overlapping n-part).
// ---------------------------------------------------------------------------

Observed run_as_bcdn(Vendor vendor, std::size_t n) {
  return run(vendor, 1024,
             core::obr_range_case(Vendor::kCloudflare, n).to_string(), {}, 1,
             /*origin_ranges_enabled=*/false);
}

TEST(TableIII, AkamaiHonorsOverlappingNparts) {
  const auto o = run_as_bcdn(Vendor::kAkamai, 8);
  EXPECT_EQ(o.response.status, 206);
  EXPECT_EQ(multipart_parts(o.response), 8u);
  EXPECT_GE(o.response.body.size(), 8 * 1024u);
}

TEST(TableIII, StackPathHonorsOverlappingNparts) {
  const auto o = run_as_bcdn(Vendor::kStackPath, 8);
  EXPECT_EQ(o.response.status, 206);
  EXPECT_EQ(multipart_parts(o.response), 8u);
}

TEST(TableIII, AzureHonorsUpTo64) {
  const auto at64 = run_as_bcdn(Vendor::kAzure, 64);
  EXPECT_EQ(at64.response.status, 206);
  EXPECT_EQ(multipart_parts(at64.response), 64u);
  const auto at65 = run_as_bcdn(Vendor::kAzure, 65);
  EXPECT_EQ(at65.response.status, 200);
  EXPECT_EQ(at65.response.body.size(), 1024u);
}

TEST(TableIII, GuardedVendorsNeverMultiplyPayload) {
  for (const Vendor vendor :
       {Vendor::kAlibabaCloud, Vendor::kCdn77, Vendor::kCdnsun,
        Vendor::kCloudflare, Vendor::kCloudFront, Vendor::kFastly,
        Vendor::kGcoreLabs, Vendor::kHuaweiCloud, Vendor::kKeyCdn,
        Vendor::kTencentCloud}) {
    const auto o = run_as_bcdn(vendor, 8);
    EXPECT_LT(o.response.body.size(), 2 * 1024u) << vendor_name(vendor);
  }
}

// ---------------------------------------------------------------------------
// Identity & registry sanity.
// ---------------------------------------------------------------------------

TEST(Profiles, AllVendorsConstructAndServe) {
  for (const Vendor vendor : kAllVendors) {
    const auto o = run(vendor, 4096, "");
    EXPECT_EQ(o.response.status, 200) << vendor_name(vendor);
    EXPECT_EQ(o.response.body.size(), 4096u) << vendor_name(vendor);
    EXPECT_TRUE(o.response.headers.has("Accept-Ranges")) << vendor_name(vendor);
  }
}

TEST(Profiles, VendorNamesAreUniqueAndNonEmpty) {
  std::set<std::string_view> names;
  for (const Vendor vendor : kAllVendors) {
    const auto name = vendor_name(vendor);
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(names.insert(name).second) << name;
  }
  EXPECT_EQ(names.size(), 13u);
}

TEST(Profiles, CalibratedPadsAreAppliedForEveryVendor) {
  for (const Vendor vendor : kAllVendors) {
    const VendorProfile profile = make_profile(vendor);
    EXPECT_GT(profile.traits.client_response_target_bytes, 0u)
        << vendor_name(vendor);
    EXPECT_GT(profile.traits.response_pad_bytes, 0u) << vendor_name(vendor);
  }
}

TEST(Profiles, LegitimateRangedDownloadStillWorksEverywhere) {
  // A sanity guard: the vulnerable behaviours must not break correct range
  // semantics for a normal client.
  for (const Vendor vendor : kAllVendors) {
    origin::OriginConfig config;
    core::SingleCdnTestbed bed(make_profile(vendor), config);
    bed.origin().resources().add_synthetic("/file.bin", 64 * 1024);
    const std::string expected =
        bed.origin().resources().find("/file.bin")->entity.materialize();
    Request req = http::make_get("site.example", "/file.bin");
    req.headers.add("Range", "bytes=1000-1999");
    const Response resp = bed.send(req);
    ASSERT_EQ(resp.status, 206) << vendor_name(vendor);
    EXPECT_EQ(resp.body.materialize(), expected.substr(1000, 1000))
        << vendor_name(vendor);
    EXPECT_EQ(resp.headers.get("Content-Range"), "bytes 1000-1999/65536")
        << vendor_name(vendor);
  }
}

}  // namespace
}  // namespace rangeamp::cdn

// Vendor resilience: retry budgets, per-attempt timeouts, degradation
// policies (synthesize-error / serve-stale / negative-cache) and the
// truncated-entity cache-poisoning guard.
#include <gtest/gtest.h>

#include "cdn/logic.h"
#include "cdn/node.h"
#include "cdn/profiles.h"
#include "cdn/rules.h"
#include "core/testbed.h"

namespace rangeamp::cdn {
namespace {

using http::Body;
using http::Request;
using http::Response;

VendorProfile resilient_profile(int retries,
                                DegradationPolicy degradation,
                                double cache_ttl = 0) {
  VendorProfile profile;
  profile.traits.name = "TestCDN";
  profile.traits.response_identity_headers = {{"Server", "TestCDN"}};
  profile.traits.multipart_boundary = "test_boundary_123";
  profile.traits.resilience.max_retries = retries;
  profile.traits.resilience.degradation = degradation;
  profile.traits.cache_ttl_seconds = cache_ttl;
  profile.logic = std::make_unique<DeletionLogic>();
  return profile;
}

Request ranged(std::string target, std::string range) {
  Request req = http::make_get("site.example", std::move(target));
  if (!range.empty()) req.headers.add("Range", std::move(range));
  return req;
}

// ---------------------------------------------------------------------------
// Retry budget
// ---------------------------------------------------------------------------

TEST(Resilience, RetriesUntilTheFaultClearsThenServes) {
  core::SingleCdnTestbed bed(
      resilient_profile(2, DegradationPolicy::kSynthesizeError));
  bed.origin().resources().add_synthetic("/r.bin", 1000);
  net::FaultInjector faults;
  faults.fail_first(2, net::FaultSpec::reset());
  bed.set_origin_fault_injector(&faults);

  const Response resp = bed.send(ranged("/r.bin", "bytes=0-0"));
  EXPECT_EQ(resp.status, 206);
  EXPECT_EQ(faults.transfers_seen(), 3u);  // two faulted attempts + success
  EXPECT_EQ(faults.faults_injected(), 2u);
}

TEST(Resilience, ExhaustedBudgetSynthesizesBadGateway) {
  core::SingleCdnTestbed bed(
      resilient_profile(1, DegradationPolicy::kSynthesizeError));
  bed.origin().resources().add_synthetic("/r.bin", 1000);
  net::FaultInjector faults;
  faults.fail_always(net::FaultSpec::reset());
  bed.set_origin_fault_injector(&faults);

  const Response resp = bed.send(ranged("/r.bin", "bytes=0-0"));
  EXPECT_EQ(resp.status, http::kBadGateway);
  EXPECT_EQ(resp.headers.get_or("Server", ""), "TestCDN");  // vendor-styled
  EXPECT_EQ(faults.transfers_seen(), 2u);  // 1 + max_retries, not more
}

TEST(Resilience, TimeoutFailuresSynthesizeGatewayTimeout) {
  VendorProfile profile =
      resilient_profile(0, DegradationPolicy::kSynthesizeError);
  profile.traits.resilience.attempt_timeout_seconds = 1.0;
  core::SingleCdnTestbed bed(std::move(profile));
  bed.origin().resources().add_synthetic("/r.bin", 1000);
  net::FaultInjector faults;
  faults.fail_always(net::FaultSpec::latency(10.0));
  bed.set_origin_fault_injector(&faults);

  const Response resp = bed.send(ranged("/r.bin", "bytes=0-0"));
  EXPECT_EQ(resp.status, http::kGatewayTimeout);
}

TEST(Resilience, RealUpstream5xxIsRetriedThenRelayed) {
  core::SingleCdnTestbed bed(
      resilient_profile(2, DegradationPolicy::kSynthesizeError));
  bed.origin().resources().add_synthetic("/r.bin", 1000);
  net::FaultInjector faults;
  faults.fail_always(net::FaultSpec::status_code(503));
  bed.origin().config().fault_injector = &faults;

  const Response resp = bed.send(ranged("/r.bin", "bytes=0-0"));
  // The concrete 503 that survived the budget is relayed, not synthesized.
  EXPECT_EQ(resp.status, 503);
  EXPECT_EQ(resp.headers.get_or("Server", ""), "TestCDN");
  EXPECT_EQ(faults.transfers_seen(), 3u);
}

// ---------------------------------------------------------------------------
// Degradation: serve-stale (RFC 5861 stale-if-error)
// ---------------------------------------------------------------------------

class ServeStaleTest : public ::testing::Test {
 protected:
  void prime(core::SingleCdnTestbed& bed) {
    bed.cdn().set_clock([this] { return now_; });
    bed.origin().resources().add_synthetic("/r.bin", 1000);
    now_ = 0;
    EXPECT_EQ(bed.send(ranged("/r.bin", "")).status, 200);  // cache fill
    now_ = 120;  // past the 60s TTL: the entry is stale
  }

  double now_ = 0;
};

TEST_F(ServeStaleTest, FailedRevalidationServesStaleWithWarning) {
  core::SingleCdnTestbed bed(
      resilient_profile(0, DegradationPolicy::kServeStale, 60));
  prime(bed);
  net::FaultInjector faults;
  faults.fail_always(net::FaultSpec::status_code(503));
  bed.origin().config().fault_injector = &faults;

  const Response resp = bed.send(ranged("/r.bin", "bytes=0-4"));
  EXPECT_EQ(resp.status, 206);
  EXPECT_EQ(resp.body.size(), 5u);
  EXPECT_EQ(resp.headers.get_or("Warning", ""), "111 - \"Revalidation Failed\"");
}

TEST_F(ServeStaleTest, StaleCopyShortCircuitsTheRetryBudget) {
  core::SingleCdnTestbed bed(
      resilient_profile(3, DegradationPolicy::kServeStale, 60));
  prime(bed);
  net::FaultInjector faults;
  faults.fail_always(net::FaultSpec::reset());
  bed.set_origin_fault_injector(&faults);

  const Response resp = bed.send(ranged("/r.bin", "bytes=0-0"));
  EXPECT_EQ(resp.status, 206);
  // serve_stale_skips_retries: one attempt, then the stale copy absorbs it.
  EXPECT_EQ(faults.transfers_seen(), 1u);
}

TEST_F(ServeStaleTest, WithoutStaleCopyTheFailureStillDegrades) {
  core::SingleCdnTestbed bed(
      resilient_profile(1, DegradationPolicy::kServeStale, 60));
  prime(bed);
  net::FaultInjector faults;
  faults.fail_always(net::FaultSpec::reset());
  bed.set_origin_fault_injector(&faults);

  // A different URL has no cached copy to fall back on.
  bed.origin().resources().add_synthetic("/other.bin", 1000);
  const Response resp = bed.send(ranged("/other.bin", "bytes=0-0"));
  EXPECT_EQ(resp.status, http::kBadGateway);
  EXPECT_EQ(faults.transfers_seen(), 2u);  // full budget: no short-circuit
}

// ---------------------------------------------------------------------------
// Degradation: negative caching
// ---------------------------------------------------------------------------

TEST(NegativeCache, FailureIsRememberedForItsTtl) {
  VendorProfile profile =
      resilient_profile(0, DegradationPolicy::kNegativeCache, 60);
  profile.traits.resilience.negative_cache_ttl_seconds = 30;
  core::SingleCdnTestbed bed(std::move(profile));
  bed.origin().resources().add_synthetic("/r.bin", 1000);
  double now = 0;
  bed.cdn().set_clock([&now] { return now; });
  net::FaultInjector faults;
  faults.fail_always(net::FaultSpec::reset());
  bed.set_origin_fault_injector(&faults);

  EXPECT_EQ(bed.send(ranged("/r.bin", "bytes=0-0")).status, http::kBadGateway);
  EXPECT_EQ(faults.transfers_seen(), 1u);

  // Within the negative TTL: answered from the marker, no upstream attempt.
  now = 10;
  EXPECT_EQ(bed.send(ranged("/r.bin", "bytes=0-0")).status, http::kBadGateway);
  EXPECT_EQ(faults.transfers_seen(), 1u);

  // Past the negative TTL (and healthy again): the origin is re-tried.
  now = 40;
  faults.clear_rules();
  EXPECT_EQ(bed.send(ranged("/r.bin", "bytes=0-0")).status, 206);
  EXPECT_EQ(faults.transfers_seen(), 2u);
}

TEST(NegativeCache, OtherDegradationsNeverProbeTheNegativeEntry) {
  // Only kNegativeCache writes `#neg` entries, so a Cloudflare SBR miss
  // looks up the entity and its `#vary` marker and nothing else.
  VendorProfile profile = make_profile(Vendor::kCloudflare);
  ASSERT_NE(profile.traits.resilience.degradation,
            DegradationPolicy::kNegativeCache);
  core::SingleCdnTestbed bed(std::move(profile));
  bed.origin().resources().add_synthetic("/r.bin", 1000);
  for (int i = 1; i <= 3; ++i) {
    EXPECT_EQ(bed.send(ranged("/r.bin?cb=" + std::to_string(i), "bytes=0-0"))
                  .status,
              206);
    EXPECT_EQ(bed.cdn().cache().misses(), 2u * static_cast<unsigned>(i));
  }
}

// ---------------------------------------------------------------------------
// Truncated-entity cache poisoning guard
// ---------------------------------------------------------------------------

TEST(PoisonGuard, EntityFromResponseRefusesShortBodies) {
  Response upstream = http::make_response(http::kOk, Body::synthetic(3, 0, 500));
  upstream.headers.set("Content-Length", "1000");
  EXPECT_FALSE(CdnNode::entity_from_response(upstream));
  upstream.headers.set("Content-Length", "500");
  EXPECT_TRUE(CdnNode::entity_from_response(upstream));
}

TEST(PoisonGuard, TruncatedFetchNeverPoisonsTheCache) {
  core::SingleCdnTestbed bed(
      resilient_profile(0, DegradationPolicy::kSynthesizeError));
  bed.origin().resources().add_synthetic("/r.bin", 1000);
  net::FaultInjector faults;
  faults.fail_nth(1, net::FaultSpec::truncate(999));
  bed.set_origin_fault_injector(&faults);

  EXPECT_EQ(bed.send(ranged("/r.bin", "bytes=0-0")).status, http::kBadGateway);
  EXPECT_EQ(bed.cdn().cache().size(), 0u);

  // The next (healthy) fetch serves the real bytes end to end.
  const Response resp = bed.send(ranged("/r.bin", "bytes=995-999"));
  EXPECT_EQ(resp.status, 206);
  const Response full = bed.send(ranged("/r.bin", ""));
  EXPECT_EQ(resp.body.materialize(), full.body.materialize().substr(995, 5));
}

TEST(PoisonGuard, OriginTruncationIsNotCachedEither) {
  // Origin-level truncation (body short of its own Content-Length) must not
  // produce a cacheable entity even though the transport succeeded.
  core::SingleCdnTestbed bed(
      resilient_profile(0, DegradationPolicy::kSynthesizeError));
  bed.origin().resources().add_synthetic("/r.bin", 1000);
  net::FaultInjector faults;
  faults.fail_nth(1, net::FaultSpec::truncate(100));
  bed.origin().config().fault_injector = &faults;

  const Response first = bed.send(ranged("/r.bin", ""));
  EXPECT_EQ(bed.cdn().cache().size(), 0u);
  EXPECT_EQ(first.body.size(), 100u);  // the damaged 200 is relayed as-is

  const Response second = bed.send(ranged("/r.bin", ""));
  EXPECT_EQ(second.status, 200);
  EXPECT_EQ(second.body.size(), 1000u);
}

// ---------------------------------------------------------------------------
// Profile-spec resilience knobs
// ---------------------------------------------------------------------------

TEST(ProfileSpecResilience, ParsesAllKnobs) {
  const char* spec = R"(name: ResilientCDN
resilience.retries: 3
resilience.timeout_seconds: 2.5
resilience.backoff_initial_seconds: 0.25
resilience.degrade: serve-stale
rule: default -> lazy
)";
  std::string error;
  const auto profile = parse_profile_spec(spec, &error);
  ASSERT_TRUE(profile) << error;
  EXPECT_EQ(profile->traits.resilience.max_retries, 3);
  EXPECT_DOUBLE_EQ(profile->traits.resilience.attempt_timeout_seconds, 2.5);
  EXPECT_DOUBLE_EQ(profile->traits.resilience.backoff_initial_seconds, 0.25);
  EXPECT_EQ(profile->traits.resilience.degradation, DegradationPolicy::kServeStale);

  EXPECT_FALSE(parse_profile_spec("resilience.degrade: shrug", &error));
  EXPECT_FALSE(parse_profile_spec("resilience.retries: many", &error));
  EXPECT_FALSE(parse_profile_spec("resilience.timeout_seconds: -1", &error));
}

}  // namespace
}  // namespace rangeamp::cdn

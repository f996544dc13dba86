// Rule-based profiles: spec parsing, rule evaluation, and differential
// equivalence of spec replicas with the built-in vendor tables.
#include "cdn/rules.h"

#include <gtest/gtest.h>

#include "core/scanner.h"
#include "core/testbed.h"

namespace rangeamp::cdn {
namespace {

using http::Request;
using http::Response;

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

TEST(ProfileSpec, ParsesFullDocument) {
  const char* spec = R"(# a comment
name: ExampleCDN
limit.total_header_bytes: 32768
limit.single_header_line_bytes: 16384
limit.cloudflare_range_budget: 32411
limit.max_range_count: 100
reply: honor
reply.max_ranges: 64
cache: on
response_target_bytes: 700

rule: single-closed if first<1024 -> delete
rule: single-suffix -> delete
rule: single-closed if size>=10485760 -> delete
rule: multi -> lazy
rule: default -> lazy
)";
  std::string error;
  const auto profile = parse_profile_spec(spec, &error);
  ASSERT_TRUE(profile) << error;
  EXPECT_EQ(profile->traits.name, "ExampleCDN");
  EXPECT_EQ(profile->traits.limits.total_header_bytes, 32768u);
  EXPECT_EQ(profile->traits.limits.single_header_line_bytes, 16384u);
  EXPECT_EQ(profile->traits.limits.cloudflare_range_budget, 32411u);
  EXPECT_EQ(profile->traits.ingress_max_range_count, 100u);
  EXPECT_EQ(profile->traits.multi_reply, MultiRangeReplyPolicy::kHonorOverlapping);
  EXPECT_EQ(profile->traits.multi_reply_max_ranges, 64u);
  EXPECT_TRUE(profile->traits.cache_enabled);
  EXPECT_GT(profile->traits.response_pad_bytes, 0u);
  const auto* logic = dynamic_cast<RuleBasedLogic*>(profile->logic.get());
  ASSERT_NE(logic, nullptr);
  EXPECT_EQ(logic->rules().size(), 5u);
  EXPECT_EQ(logic->rules()[0].first_below, 1024u);
  EXPECT_EQ(logic->rules()[2].size_at_least, 10485760u);
}

TEST(ProfileSpec, RejectsMalformedLines) {
  std::string error;
  EXPECT_FALSE(parse_profile_spec("no colon here", &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_FALSE(parse_profile_spec("rule: single-closed -> explode", &error));
  EXPECT_FALSE(parse_profile_spec("rule: weird-shape -> lazy", &error));
  EXPECT_FALSE(parse_profile_spec("rule: multi if wat>5 -> lazy", &error));
  EXPECT_FALSE(parse_profile_spec("rule: multi lazy", &error));  // no arrow
  EXPECT_FALSE(parse_profile_spec("reply: sometimes", &error));
  EXPECT_FALSE(parse_profile_spec("cache: maybe", &error));
  EXPECT_FALSE(parse_profile_spec("limit.total_header_bytes: many", &error));
  EXPECT_FALSE(parse_profile_spec("unknown.key: 5", &error));
}

TEST(ProfileSpec, ActionParameters) {
  const auto profile = parse_profile_spec(
      "rule: single-closed -> expand:4096\nrule: default -> slice:65536\n");
  ASSERT_TRUE(profile);
  const auto* logic = dynamic_cast<RuleBasedLogic*>(profile->logic.get());
  ASSERT_NE(logic, nullptr);
  EXPECT_EQ(logic->rules()[0].action.kind, RuleAction::Kind::kExpand);
  EXPECT_EQ(logic->rules()[0].action.parameter, 4096u);
  EXPECT_EQ(logic->rules()[1].action.kind, RuleAction::Kind::kSlice);
  EXPECT_EQ(logic->rules()[1].action.parameter, 65536u);
}

// ---------------------------------------------------------------------------
// Rule evaluation
// ---------------------------------------------------------------------------

core::SingleCdnTestbed bed_for(const char* spec, std::uint64_t size) {
  auto profile = parse_profile_spec(spec);
  EXPECT_TRUE(profile);
  core::SingleCdnTestbed bed(std::move(*profile));
  bed.origin().resources().add_synthetic("/r.bin", size);
  return bed;
}

Response send_range(core::SingleCdnTestbed& bed, const std::string& range,
                    const std::string& cb = "1") {
  Request req = http::make_get("h.example", "/r.bin?cb=" + cb);
  if (!range.empty()) req.headers.add("Range", range);
  return bed.send(req);
}

TEST(RuleBasedLogic, FirstMatchWins) {
  auto bed = bed_for(
      "rule: single-closed if first<1024 -> delete\n"
      "rule: single-closed -> lazy\n",
      1u << 20);
  send_range(bed, "bytes=0-0", "a");
  EXPECT_FALSE(bed.origin().request_log()[0].headers.has("Range"));
  send_range(bed, "bytes=2048-2049", "b");
  EXPECT_EQ(bed.origin().request_log()[1].headers.get("Range"),
            "bytes=2048-2049");
}

TEST(RuleBasedLogic, SizeConditionTriggersHeadProbe) {
  auto bed = bed_for("rule: single-suffix if size<10485760 -> delete\n"
                     "rule: default -> lazy\n",
                     1u << 20);
  send_range(bed, "bytes=-1");
  ASSERT_EQ(bed.origin().request_log().size(), 2u);
  EXPECT_EQ(bed.origin().request_log()[0].method, http::Method::HEAD);
  EXPECT_FALSE(bed.origin().request_log()[1].headers.has("Range"));
}

TEST(RuleBasedLogic, UnmatchedRequestsFallBackToLazy) {
  auto bed = bed_for("rule: single-suffix -> delete\n", 1u << 20);
  send_range(bed, "bytes=5-9");
  EXPECT_EQ(bed.origin().request_log()[0].headers.get("Range"), "bytes=5-9");
}

TEST(RuleBasedLogic, ExpandAndSliceActionsWork) {
  auto bed = bed_for("rule: single-closed -> expand:100\n", 1u << 20);
  const Response resp = send_range(bed, "bytes=10-19");
  EXPECT_EQ(resp.status, 206);
  EXPECT_EQ(resp.body.size(), 10u);
  EXPECT_EQ(bed.origin().request_log()[0].headers.get("Range"), "bytes=10-119");

  auto sliced = bed_for("rule: default -> slice:4096\n", 1u << 20);
  const Response sresp = send_range(sliced, "bytes=0-0");
  EXPECT_EQ(sresp.status, 206);
  EXPECT_LT(sliced.origin_traffic().response_bytes(), 8192u);
}

TEST(RuleBasedLogic, HuaweiFailedSizeProbeDegradesWithoutGet) {
  // Huawei's suffix row is conditioned on the file size, learned by a HEAD
  // probe.  A failed probe decides nothing: the vendor's degradation
  // response answers, and no Deletion GET follows.
  core::SingleCdnTestbed bed(make_profile(Vendor::kHuaweiCloud));
  bed.origin().resources().add_synthetic("/r.bin", 1u << 20);
  net::FaultInjector faults;
  faults.fail_always(net::FaultSpec::reset(), [](const Request& r) {
    return r.method == http::Method::HEAD;
  });
  bed.set_origin_fault_injector(&faults);

  const Response resp = send_range(bed, "bytes=-1");
  EXPECT_EQ(resp.status, http::kBadGateway);
  EXPECT_EQ(resp.headers.get_or("Server", ""), "CDN");  // vendor-styled
  EXPECT_EQ(faults.faults_injected(), 1u);
  for (const auto& r : bed.origin().request_log()) {
    EXPECT_NE(r.method, http::Method::GET) << r.headers.get_or("Range", "");
  }
}

// ---------------------------------------------------------------------------
// Differential: rule-spec replicas of built-in vendors behave identically
// under the policy scanner.
// ---------------------------------------------------------------------------

void expect_same_scan(VendorProfile (*make_replica)(), Vendor builtin,
                      const ProfileOptions& options = {}) {
  // Compare forwarding signatures per probe at two file sizes.
  for (const std::uint64_t size : {1u << 20, 12u << 20}) {
    for (const auto& probe : core::standard_forward_probes()) {
      core::SingleCdnTestbed a(make_profile(builtin, options));
      a.origin().resources().add_synthetic("/d.bin", size);
      core::SingleCdnTestbed b(make_replica());
      b.origin().resources().add_synthetic("/d.bin", size);

      Request req = http::make_get("h.example", "/d.bin?cb=1");
      req.headers.add("Range", probe.range.to_string());
      a.send(req);
      b.send(req);

      // Identical origin-side Range header sequences...
      ASSERT_EQ(a.origin().request_log().size(), b.origin().request_log().size())
          << vendor_name(builtin) << " " << probe.label << " size=" << size;
      for (std::size_t i = 0; i < a.origin().request_log().size(); ++i) {
        EXPECT_EQ(a.origin().request_log()[i].headers.get_or("Range", ""),
                  b.origin().request_log()[i].headers.get_or("Range", ""))
            << vendor_name(builtin) << " " << probe.label;
      }
      // ...and identical origin-side byte totals.
      EXPECT_EQ(a.origin_traffic().response_bytes(),
                b.origin_traffic().response_bytes())
          << vendor_name(builtin) << " " << probe.label;
    }
  }

  // The built-in logic runs the replica's own table.  A lone
  // `default -> lazy` restates the evaluator's fallback, which is how an
  // option-gated variant's empty table reads.
  const VendorProfile replica = make_replica();
  const VendorProfile reference = make_profile(builtin, options);
  const auto* replica_logic = dynamic_cast<const RuleBasedLogic*>(replica.logic.get());
  const auto* builtin_logic =
      dynamic_cast<const RuleBasedLogic*>(reference.logic.get());
  ASSERT_NE(replica_logic, nullptr);
  ASSERT_NE(builtin_logic, nullptr) << vendor_name(builtin);
  std::vector<PolicyRule> expected = replica_logic->rules();
  PolicyRule lazy_default;
  lazy_default.action = {RuleAction::Kind::kLazy, 0};
  if (expected == std::vector<PolicyRule>{lazy_default}) expected.clear();
  EXPECT_EQ(builtin_logic->rules(), expected) << vendor_name(builtin);
}

TEST(RuleDifferential, Cdn77ReplicaMatchesBuiltin) {
  expect_same_scan(
      [] {
        return *parse_profile_spec(
            "name: CDN77-replica\n"
            "limit.single_header_line_bytes: 16384\n"
            "reply: coalesce\n"
            "rule: single-closed if first<1024 -> delete\n"
            "rule: default -> lazy\n");
      },
      Vendor::kCdn77);
}

TEST(RuleDifferential, TencentReplicaMatchesBuiltin) {
  expect_same_scan(
      [] {
        return *parse_profile_spec(
            "name: Tencent-replica\n"
            "reply: coalesce\n"
            "rule: single-closed -> delete\n"
            "rule: multi -> delete\n"
            "rule: default -> lazy\n");
      },
      Vendor::kTencentCloud);
}

TEST(RuleDifferential, HuaweiReplicaMatchesBuiltin) {
  expect_same_scan(
      [] {
        return *parse_profile_spec(
            "name: Huawei-replica\n"
            "reply: coalesce\n"
            "rule: single-open -> lazy\n"
            "rule: single-suffix if size<10485760 -> delete\n"
            "rule: single-closed if size>=10485760 -> delete\n"
            "rule: multi -> delete\n"
            "rule: default -> lazy\n");
      },
      Vendor::kHuaweiCloud);
}

// Akamai, Cloudflare (cacheable), Fastly and G-Core share one table; their
// replicas differ only in the reply policy, which the scan does not see.
VendorProfile open_lazy_else_delete_replica() {
  return *parse_profile_spec(
      "name: open-lazy-replica\n"
      "rule: single-open -> lazy\n"
      "rule: default -> delete\n");
}

TEST(RuleDifferential, AkamaiReplicaMatchesBuiltin) {
  expect_same_scan(open_lazy_else_delete_replica, Vendor::kAkamai);
}

TEST(RuleDifferential, CloudflareReplicaMatchesBuiltin) {
  expect_same_scan(open_lazy_else_delete_replica, Vendor::kCloudflare);
}

TEST(RuleDifferential, FastlyReplicaMatchesBuiltin) {
  expect_same_scan(open_lazy_else_delete_replica, Vendor::kFastly);
}

TEST(RuleDifferential, GcoreReplicaMatchesBuiltin) {
  expect_same_scan(open_lazy_else_delete_replica, Vendor::kGcoreLabs);
}

TEST(RuleDifferential, AlibabaReplicaMatchesBuiltin) {
  expect_same_scan(
      [] {
        return *parse_profile_spec(
            "name: Alibaba-replica\n"
            "reply: coalesce\n"
            "rule: single-suffix -> delete\n"
            "rule: multi -> delete\n"
            "rule: default -> lazy\n");
      },
      Vendor::kAlibabaCloud);
}

TEST(RuleDifferential, CdnsunReplicaMatchesBuiltin) {
  expect_same_scan(
      [] {
        return *parse_profile_spec(
            "name: CDNsun-replica\n"
            "reply: coalesce\n"
            "rule: any if first<1 -> delete\n"
            "rule: default -> lazy\n");
      },
      Vendor::kCdnsun);
}

// The option-gated (*) rows of Table I: with the customer option in its
// safe position the vendor forwards every Range unchanged.
VendorProfile forward_unchanged_replica() {
  return *parse_profile_spec(
      "name: forward-replica\n"
      "rule: default -> lazy\n");
}

TEST(RuleDifferential, AlibabaRangeOptionEnabledMatchesLazyReplica) {
  ProfileOptions options;
  options.origin_range_option_disabled = false;
  expect_same_scan(forward_unchanged_replica, Vendor::kAlibabaCloud, options);
}

TEST(RuleDifferential, TencentRangeOptionEnabledMatchesLazyReplica) {
  ProfileOptions options;
  options.origin_range_option_disabled = false;
  expect_same_scan(forward_unchanged_replica, Vendor::kTencentCloud, options);
}

TEST(RuleDifferential, HuaweiRangeOptionDisabledMatchesLazyReplica) {
  ProfileOptions options;
  options.huawei_range_option_enabled = false;
  expect_same_scan(forward_unchanged_replica, Vendor::kHuaweiCloud, options);
}

}  // namespace
}  // namespace rangeamp::cdn

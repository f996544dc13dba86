// The 13 vendor profiles of the paper's evaluation (section III-A).
//
// Each profile encodes one CDN's range-request behaviour exactly as measured
// by the paper:
//   * the Range-forwarding rows of Table I  (SBR-relevant),
//   * the multi-range forwarding rows of Table II (OBR FCDN-relevant),
//   * the multi-range replying rows of Table III (OBR BCDN-relevant),
//   * the request-header limits of section V-C,
//   * and a client-response header footprint calibrated so the SBR
//     amplification factors land on Table IV.
//
// The Table I rows are data where they can be: Akamai, Alibaba Cloud, CDN77,
// CDNsun, Cloudflare (cacheable), Fastly, G-Core Labs, Huawei Cloud and
// Tencent Cloud are PolicyRule tables run by RuleBasedLogic (rules.h).
// Azure's aborted pull, CloudFront's MiB-block expansion, KeyCDN's
// second-sighting state and StackPath's double forward are not shape->action
// decisions and keep hand-written VendorLogic classes.
//
// Behaviours the paper leaves undocumented (e.g. how CloudFront forwards a
// multi-range whose expanded span exceeds 10 MiB) are modelled with the most
// RFC-conservative plausible choice and marked UNDOCUMENTED in profiles.cc.
#pragma once

#include <array>
#include <string_view>

#include "cdn/node.h"

namespace rangeamp::cdn {

enum class Vendor {
  kAkamai,
  kAlibabaCloud,
  kAzure,
  kCdn77,
  kCdnsun,
  kCloudflare,
  kCloudFront,
  kFastly,
  kGcoreLabs,
  kHuaweiCloud,
  kKeyCdn,
  kStackPath,
  kTencentCloud,
};

inline constexpr std::array<Vendor, 13> kAllVendors = {
    Vendor::kAkamai,     Vendor::kAlibabaCloud, Vendor::kAzure,
    Vendor::kCdn77,      Vendor::kCdnsun,       Vendor::kCloudflare,
    Vendor::kCloudFront, Vendor::kFastly,       Vendor::kGcoreLabs,
    Vendor::kHuaweiCloud, Vendor::kKeyCdn,      Vendor::kStackPath,
    Vendor::kTencentCloud,
};

std::string_view vendor_name(Vendor v) noexcept;

/// Customer-visible configuration options the paper calls out as gating the
/// vulnerabilities (the (*) rows of Tables I and II).  Defaults are the
/// configurations the paper's experiments exercised.
struct ProfileOptions {
  /// Alibaba Cloud / Tencent Cloud "Range" origin-pull option: the vendors
  /// are vulnerable only when the option is DISABLED (no Range back to
  /// origin).  The paper notes this is the tested configuration.
  bool origin_range_option_disabled = true;

  /// Huawei Cloud is vulnerable only when its Range option is ENABLED.
  bool huawei_range_option_enabled = true;

  /// Cloudflare page-rule mode for the target path: Cacheable makes it
  /// SBR-vulnerable (Table I); Bypass makes it OBR-FCDN-vulnerable
  /// (Table II).
  enum class CloudflareMode { kCacheable, kBypass };
  CloudflareMode cloudflare_mode = CloudflareMode::kCacheable;
};

/// Builds the profile for one vendor.
VendorProfile make_profile(Vendor v, const ProfileOptions& options = {});

/// Azure's back-to-origin window constants (section V-A): the first
/// connection is cut once a little over 8 MB of payload arrived; the second
/// fetches the fixed window bytes=8388608-16777215.
inline constexpr std::uint64_t kAzureWindowStart = 8'388'608;
inline constexpr std::uint64_t kAzureWindowEnd = 16'777'215;
inline constexpr std::uint64_t kAzureAbortOvershoot = 64 * 1024;

/// CloudFront's Expansion granularity (1 MiB blocks) and multi-range
/// expansion cap (10 MiB), from section V-A.
inline constexpr std::uint64_t kCloudFrontBlock = 1u << 20;
inline constexpr std::uint64_t kCloudFrontMultiSpanCap = 10'485'760;

/// Huawei Cloud's file-size threshold separating its two Table I rows.
inline constexpr std::uint64_t kHuaweiSizeThreshold = 10 * (1u << 20);

/// CDN77's Deletion trigger: closed ranges with first < 1024 (Table I).
inline constexpr std::uint64_t kCdn77FirstByteThreshold = 1024;

}  // namespace rangeamp::cdn

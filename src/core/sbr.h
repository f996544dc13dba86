// Small Byte Range (SBR) attack: planning and measurement (sections IV-B,
// V-B of the paper; Table IV and Fig 6).
//
// The planner reproduces Table IV column 2: for each vendor, the Range
// header case that maximizes origin response traffic while minimizing client
// response traffic, including the file-size-dependent cases (Azure, Huawei)
// and KeyCDN's send-twice requirement.  The executor runs the attack request
// against a fresh SingleCdnTestbed and reports the response traffic on both
// segments plus the amplification factor
//
//     AF = response bytes on cdn-origin / response bytes on client-cdn,
//
// exactly the quantity the paper plots.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cdn/profiles.h"
#include "http/range.h"
#include "obs/trace.h"

namespace rangeamp::core {

/// The exploited Range case for one vendor and file size (Table IV col. 2).
struct SbrPlan {
  std::string description;  ///< the paper's spelling, e.g. "bytes=0-0"
  http::RangeSet range;     ///< the header to send
  int sends = 1;            ///< requests per amplification unit (KeyCDN: 2)
};

/// Builds the Table IV exploited case for `vendor` against a resource of
/// `file_size` bytes.
SbrPlan sbr_plan(cdn::Vendor vendor, std::uint64_t file_size);

/// One SBR measurement (one row point of Fig 6 / Table IV).
struct SbrMeasurement {
  cdn::Vendor vendor;
  std::uint64_t file_size = 0;
  std::string exploited_case;
  std::uint64_t client_response_bytes = 0;  ///< client-cdn segment, Fig 6b
  std::uint64_t origin_response_bytes = 0;  ///< cdn-origin segment, Fig 6c
  std::uint64_t client_request_bytes = 0;
  std::uint64_t origin_request_bytes = 0;
  double amplification = 0;                 ///< Fig 6a / Table IV
};

/// Runs one SBR attack request (or request pair, per the plan) against a
/// fresh testbed with a synthetic resource of `file_size` bytes and the
/// vendor in its paper-tested configuration.  With a tracer, the run is one
/// "sbr.measure" trace whose root span carries the recorder totals as
/// expect_* notes -- the cross-check scripts/check_trace.py verifies against
/// the trace's own per-segment wire-span sums.
SbrMeasurement measure_sbr(cdn::Vendor vendor, std::uint64_t file_size,
                           const cdn::ProfileOptions& options = {},
                           obs::Tracer* tracer = nullptr);

/// Sweeps file sizes (the paper: 1..25 MB step 1 MB) for one vendor.
/// Every measurement runs against a fresh testbed, so the sweep is
/// embarrassingly parallel: with `threads` > 1 the measurements run as one
/// shard per size on up to `threads` workers (core/parallel.h) and are
/// reduced in file-size order -- the returned vector, and with a tracer the
/// merged span tree, are byte-identical at any thread count.
std::vector<SbrMeasurement> sweep_sbr(cdn::Vendor vendor,
                                      const std::vector<std::uint64_t>& file_sizes,
                                      const cdn::ProfileOptions& options = {},
                                      obs::Tracer* tracer = nullptr,
                                      int threads = 1);

/// Like measure_sbr, but the attacker speaks HTTP/2 to the CDN edge
/// (section VI-B: "the RangeAmp threats in HTTP/1.1 are also applicable to
/// HTTP/2").  `requests` > 1 amortizes the h2 connection setup and lets
/// HPACK compress the repeated headers, which *raises* the factor.
SbrMeasurement measure_sbr_h2(cdn::Vendor vendor, std::uint64_t file_size,
                              int requests = 1,
                              const cdn::ProfileOptions& options = {},
                              obs::Tracer* tracer = nullptr);

}  // namespace rangeamp::core

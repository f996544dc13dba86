// RangeAmp: umbrella header for the public API.
//
// A C++20 reproduction of "CDN Backfired: Amplification Attacks Based on
// HTTP Range Requests" (Li et al., DSN 2020).  The library bundles:
//
//   * an RFC 7233-complete HTTP range-request substrate (http/),
//   * byte-exact per-segment traffic accounting (net/),
//   * an Apache-flavored origin server model (origin/),
//   * a CDN node simulator with 13 calibrated vendor profiles (cdn/),
//   * a processor-sharing bandwidth simulator (sim/),
//   * and the RangeAmp toolkit itself: policy scanners, SBR/OBR attack
//     planners and executors, and mitigations (core/).
//
// Quick start:
//
//   #include "core/rangeamp.h"
//   using namespace rangeamp;
//
//   auto m = core::measure_sbr(cdn::Vendor::kAkamai, 25 * (1u << 20));
//   std::cout << m.amplification << "\n";   // ~43000
#pragma once

#include "cdn/cluster.h"
#include "cdn/logic.h"
#include "cdn/profiles.h"
#include "core/campaign.h"
#include "core/cost.h"
#include "core/detector.h"
#include "core/mitigations.h"
#include "core/obr.h"
#include "core/parallel.h"
#include "core/report.h"
#include "core/sbr.h"
#include "core/scanner.h"
#include "core/testbed.h"
#include "http/generator.h"
#include "http/multipart.h"
#include "http/range.h"
#include "http/serialize.h"
#include "origin/origin_server.h"
#include "sim/attack_load.h"

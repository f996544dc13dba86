// Fig 6a over real loopback TCP: the SBR amplification factor measured on
// the SocketTransport backend, with wall-clock timing.
//
// The committed Fig 6 CSVs come from the deterministic in-memory pipe
// (bench_table4_fig6_sbr_amplification).  This bench re-runs the 10 MB
// Fig 6a row with every HTTP/1.1 segment on real sockets -- one connection
// per exchange through net::SocketTransport -- and checks that the
// wall-clock backend agrees with the in-memory model: the measured
// amplification factor must land within 20% of the in-memory reference for
// every vendor (exit 1 otherwise).  In practice the two agree exactly,
// because both backends count serialized bytes; the tolerance absorbs any
// future framing drift without letting a broken backend pass.
//
// No CSV output: wall-clock numbers vary run to run and must never feed the
// reproduce.sh drift gate.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>

#include "core/rangeamp.h"
#include "net/transport_factory.h"

using namespace rangeamp;

namespace {

struct SocketRun {
  core::SbrMeasurement m;
  double wall_seconds = 0;
};

// core::measure_sbr with a transport knob and a stopwatch (no tracing: the
// point here is the socket path, not the span tree).
SocketRun measure_sbr_on(const net::TransportSpec& spec, cdn::Vendor vendor,
                         std::uint64_t file_size) {
  core::SingleCdnTestbed bed(cdn::make_profile(vendor), {}, spec);
  bed.origin().resources().add_synthetic("/payload.bin", file_size);

  const core::SbrPlan plan = core::sbr_plan(vendor, file_size);
  http::Request request =
      http::make_get(std::string{core::kDefaultHost}, "/payload.bin?cb=000001");
  request.headers.add("Range", plan.range.to_string());

  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < plan.sends; ++i) bed.send(request);
  const auto stop = std::chrono::steady_clock::now();

  SocketRun run;
  run.wall_seconds = std::chrono::duration<double>(stop - start).count();
  run.m.vendor = vendor;
  run.m.file_size = file_size;
  run.m.exploited_case = plan.description;
  run.m.client_response_bytes = bed.client_traffic().response_bytes();
  run.m.origin_response_bytes = bed.origin_traffic().response_bytes();
  run.m.client_request_bytes = bed.client_traffic().request_bytes();
  run.m.origin_request_bytes = bed.origin_traffic().request_bytes();
  run.m.amplification =
      run.m.client_response_bytes == 0
          ? 0
          : static_cast<double>(run.m.origin_response_bytes) /
                static_cast<double>(run.m.client_response_bytes);
  return run;
}

}  // namespace

int main() {
  constexpr std::uint64_t kFileSize = 10u << 20;  // the Fig 6a 10 MB row

  core::Table table({"CDN", "Exploited Range Case", "AF (in-memory)",
                     "AF (socket)", "socket wall ms", "origin MB/s"});
  int violations = 0;

  for (const cdn::Vendor vendor : cdn::kAllVendors) {
    const core::SbrMeasurement reference = core::measure_sbr(vendor, kFileSize);
    const SocketRun socket =
        measure_sbr_on(net::kSocketTransportSpec, vendor, kFileSize);

    const double tolerance = 0.20 * reference.amplification;
    const bool ok =
        std::fabs(socket.m.amplification - reference.amplification) <= tolerance;
    if (!ok) ++violations;

    const double origin_mb_per_s =
        socket.wall_seconds > 0
            ? (static_cast<double>(socket.m.origin_response_bytes) / 1048576.0) /
                  socket.wall_seconds
            : 0;
    table.add_row({std::string{cdn::vendor_name(vendor)} +
                       (ok ? "" : "  <-- DIVERGED"),
                   socket.m.exploited_case,
                   core::fixed(reference.amplification, 1),
                   core::fixed(socket.m.amplification, 1),
                   core::fixed(socket.wall_seconds * 1000.0, 1),
                   core::fixed(origin_mb_per_s, 0)});
  }

  std::printf("Fig 6a on real loopback sockets (10 MB target, one TCP "
              "connection per exchange)\n\n%s\n",
              table.to_markdown().c_str());

  if (violations > 0) {
    std::fprintf(stderr,
                 "FAIL: %d vendor(s) diverged more than 20%% from the "
                 "in-memory amplification factor\n",
                 violations);
    return 1;
  }
  std::printf("All %zu vendors within 20%% of the in-memory reference "
              "(byte accounting agrees across backends)\n",
              cdn::kAllVendors.size());
  return 0;
}

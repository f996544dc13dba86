// Micro-benchmarks (google-benchmark) for the substrate hot paths: Range
// header parsing, multipart framing size computation, serialization size,
// full SBR/OBR end-to-end exchanges and the corpus generator.
#include <benchmark/benchmark.h>

#include "core/rangeamp.h"
#include "http/date.h"
#include "http2/hpack.h"

using namespace rangeamp;

namespace {

void BM_ParseRangeHeaderSingle(benchmark::State& state) {
  for (auto _ : state) {
    auto set = http::parse_range_header("bytes=0-0");
    benchmark::DoNotOptimize(set);
  }
}
BENCHMARK(BM_ParseRangeHeaderSingle);

void BM_ParseRangeHeaderMulti(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::string value = core::obr_range_case(cdn::Vendor::kCloudflare, n)
                                .to_string();
  for (auto _ : state) {
    auto set = http::parse_range_header(value);
    benchmark::DoNotOptimize(set);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ParseRangeHeaderMulti)->Range(8, 8192)->Complexity(benchmark::oN);

void BM_MultipartSizeComputation(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<http::ResolvedRange> ranges(n, http::ResolvedRange{0, 1023});
  for (auto _ : state) {
    auto size = http::multipart_byteranges_size(ranges, 1024,
                                                "application/octet-stream",
                                                "boundary123456");
    benchmark::DoNotOptimize(size);
  }
}
BENCHMARK(BM_MultipartSizeComputation)->Range(8, 8192);

void BM_SerializedSize25MB(benchmark::State& state) {
  http::Response resp = http::make_response(
      http::kOk, http::Body::synthetic(1, 0, 25 * (1u << 20)));
  for (auto _ : state) {
    auto size = http::serialized_size(resp);
    benchmark::DoNotOptimize(size);
  }
}
BENCHMARK(BM_SerializedSize25MB);

void BM_SbrExchange(benchmark::State& state) {
  const std::uint64_t size = static_cast<std::uint64_t>(state.range(0)) << 20;
  for (auto _ : state) {
    auto m = core::measure_sbr(cdn::Vendor::kAkamai, size);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_SbrExchange)->Arg(1)->Arg(25);

void BM_ObrExchange(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  core::CascadeTestbed bed(
      cdn::make_profile(cdn::Vendor::kStackPath),
      cdn::make_profile(cdn::Vendor::kAkamai), core::obr_origin_config());
  bed.origin().resources().add_synthetic("/p.bin", 1024);
  auto request = http::make_get("victim.example.com", "/p.bin");
  request.headers.add(
      "Range", core::obr_range_case(cdn::Vendor::kStackPath, n).to_string());
  net::TransferOptions abort_early;
  abort_early.abort_after_body_bytes = 4096;
  for (auto _ : state) {
    auto response = bed.send(request, abort_early);
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_ObrExchange)->Arg(64)->Arg(1024)->Arg(10240);

void BM_GenerateCorpus(benchmark::State& state) {
  for (auto _ : state) {
    auto corpus = http::generate_corpus(42, 128, 1u << 20);
    benchmark::DoNotOptimize(corpus);
  }
}
BENCHMARK(BM_GenerateCorpus);

void BM_CacheHitServe(benchmark::State& state) {
  core::SingleCdnTestbed bed(cdn::make_profile(cdn::Vendor::kCloudflare));
  bed.origin().resources().add_synthetic("/hot.bin", 1u << 20);
  auto request = http::make_get("victim.example.com", "/hot.bin");
  bed.send(request);  // warm the cache
  request.headers.add("Range", "bytes=0-1023");
  for (auto _ : state) {
    auto response = bed.send(request);
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_CacheHitServe);

void BM_HpackEncodeRequestHeaders(benchmark::State& state) {
  http2::Encoder encoder;
  const std::vector<http2::HeaderEntry> headers = {
      {":method", "GET"},
      {":scheme", "https"},
      {":authority", "victim.example.com"},
      {":path", "/payload.bin?cb=1"},
      {"range", "bytes=0-0"},
      {"user-agent", "rangeamp/1.0"},
  };
  for (auto _ : state) {
    auto block = encoder.encode(headers);
    benchmark::DoNotOptimize(block);
  }
}
BENCHMARK(BM_HpackEncodeRequestHeaders);

void BM_HpackDecodeRequestHeaders(benchmark::State& state) {
  http2::Encoder encoder;
  const std::string block = encoder.encode({
      {":method", "GET"},
      {":path", "/payload.bin"},
      {"range", "bytes=0-0"},
  });
  for (auto _ : state) {
    http2::Decoder decoder;
    auto headers = decoder.decode(block);
    benchmark::DoNotOptimize(headers);
  }
}
BENCHMARK(BM_HpackDecodeRequestHeaders);

void BM_HttpDateParse(benchmark::State& state) {
  for (auto _ : state) {
    auto ts = http::parse_http_date("Sun, 06 Nov 1994 08:49:37 GMT");
    benchmark::DoNotOptimize(ts);
  }
}
BENCHMARK(BM_HttpDateParse);

// Fig 7 at the knee: m = 12 x 10 MB pulls per second, 30 s + 10 s drain.
void BM_AttackLoad(benchmark::State& state) {
  sim::AttackLoadConfig config;
  config.requests_per_second = 12;
  config.origin_response_bytes = 10'486'029;
  config.client_response_bytes = 822;
  for (auto _ : state) {
    auto series = sim::simulate_attack_load(config);
    benchmark::DoNotOptimize(series);
  }
}
BENCHMARK(BM_AttackLoad);

// The sbr_flood projection's shape: 2000 req/s x 65,800 B for 10 s, just
// past the 1000 Mbps knee, so thousands of flows share the link at once.
void BM_AttackLoadSaturated(benchmark::State& state) {
  sim::AttackLoadConfig config;
  config.requests_per_second = 2000;
  config.duration_s = 10;
  config.origin_response_bytes = 65'800;
  config.client_response_bytes = 800;
  for (auto _ : state) {
    auto series = sim::simulate_attack_load(config);
    benchmark::DoNotOptimize(series);
  }
}
BENCHMARK(BM_AttackLoadSaturated)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

// Simulator benchmark driver: runs one workload for a fixed wall-clock
// budget and prints every metric by name, unit and sample count, then one
// JSON result line.
//
//   rangeamp_perfbench --workload sbr_flood|obr_cascade|mixed_edge
//                      --seed N --seconds S --trace 0|1
//                      [--scale full|tiny] [--expect key=value]...
//
// --trace 0 measures the end-to-end metrics through the public campaign
// entry points.  --trace 1 replays the workload through the benchmark's
// own decorated driver and reports the per-layer ledger.  Every call's
// fingerprint is checked against the workload's reference (and the
// reference against committed results via --expect); any mismatch makes
// the run exit non-zero.  Sharded runs use 64 shards on min(nproc, 4)
// threads.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "http/multipart.h"
#include "http/range.h"
#include "ledger.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Scale scale = Scale::kFull;
  std::map<std::string, std::string> expect;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "rangeamp_perfbench: %s\nusage: rangeamp_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--scale full|tiny] [--expect key=value]...\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") usage("--scale must be full or tiny");
      o.scale = value == "tiny" ? Scale::kTiny : Scale::kFull;
    } else if (flag == "--expect") {
      const std::size_t eq = value.find('=');
      if (eq == std::string::npos) usage("--expect takes key=value");
      o.expect[value.substr(0, eq)] = value.substr(eq + 1);
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

/// min(nproc, 4): the CPUs this process may run on, capped at four.
int shard_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus = sched_getaffinity(0, sizeof(set), &set) == 0
                       ? CPU_COUNT(&set)
                       : static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(cpus, 1, 4);
}

/// One reported metric: a value, its unit and how many samples it summarizes.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

/// Calls attempted and failed (threw, or produced the wrong fingerprint).
class Gate {
 public:
  explicit Gate(std::string reference) : reference_(std::move(reference)) {}

  /// Runs `fn`, which returns a fingerprint, and counts it failed when it
  /// throws or the fingerprint differs from the reference.
  void check(const char* what, const std::function<std::string()>& fn) {
    ++attempted_;
    try {
      const std::string got = fn();
      if (got == reference_) return;
      std::fprintf(stderr, "FAIL %s: fingerprint differs from reference\n  got      %s\n  "
                   "expected %s\n", what, got.c_str(), reference_.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "FAIL %s: %s\n", what, e.what());
    }
    ++failed_;
  }

  void fail(const std::string& why) {
    ++attempted_;
    ++failed_;
    std::fprintf(stderr, "FAIL %s\n", why.c_str());
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::string reference_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Rounds of shuffled steps until the budget is spent (at least one round).
void run_rounds(std::uint64_t seed, double seconds,
                const std::vector<std::function<void()>>& steps) {
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> order(steps.size());
  std::iota(order.begin(), order.end(), 0);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  do {
    std::shuffle(order.begin(), order.end(), rng);
    for (const std::size_t i : order) steps[i]();
  } while (Clock::now() < deadline);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---------------------------------------------------------------------------
// End-to-end metrics: public campaign entry points, untraced.
// ---------------------------------------------------------------------------

/// The call-time quantile the end-to-end timings report.  On a shared host a
/// vCPU's speed moves as neighbours come and go (on a 4-vCPU Xeon VM: bursts
/// at about 1.4x the usual speed, lasting seconds and covering anywhere from
/// a few to most of a run's calls).  A quantile near the share of fast calls,
/// the median included, jumps between speeds from run to run.  The 90th
/// percentile stays at the usual speed unless nine calls in ten are fast,
/// and a slower program still moves it one for one.
constexpr double kCallQuantile = 0.9;

/// End-to-end metrics, plus the medians of the same samples as notes.
struct EndToEnd {
  std::vector<Metric> metrics;
  std::vector<Metric> notes;
};

EndToEnd end_to_end(Workload& workload, const Options& o, Gate& gate) {
  const double exchanges = static_cast<double>(workload.exchanges());
  std::vector<double> serial_s;
  std::vector<double> sharded_s;
  std::vector<double> setup_s;
  const auto campaign_step = [&](bool shard, std::vector<double>& into) {
    return [&, shard] {
      gate.check(shard ? "sharded campaign" : "serial campaign", [&] {
        const CampaignRun run = workload.campaign(shard);
        into.push_back(run.wall_s);
        return run.fingerprint;
      });
    };
  };
  run_rounds(o.seed, o.seconds,
             {campaign_step(false, serial_s), campaign_step(true, sharded_s),
              [&] {
                try {
                  setup_s.push_back(workload.setup());
                } catch (const std::exception& e) {
                  gate.fail(std::string("setup: ") + e.what());
                }
              }});
  const auto rate = [&](const std::vector<double>& wall_s, double q) {
    return wall_s.empty() ? 0.0 : exchanges / quantile(wall_s, q);
  };
  return {
      {
          {"exchanges_per_s", rate(serial_s, kCallQuantile), "1/s", serial_s.size()},
          {"exchanges_per_s_sharded", rate(sharded_s, kCallQuantile), "1/s", sharded_s.size()},
          {"setup_s", quantile(setup_s, kCallQuantile), "s", setup_s.size()},
          {"peak_rss_mb", peak_rss_mb(), "MB", 1},
      },
      {
          {"exchanges_per_s_median", rate(serial_s, 0.5), "1/s", serial_s.size()},
          {"exchanges_per_s_sharded_median", rate(sharded_s, 0.5), "1/s", sharded_s.size()},
          {"setup_s_median", median(setup_s), "s", setup_s.size()},
      },
  };
}

// ---------------------------------------------------------------------------
// Per-layer metrics: the decorated replay, sharded replay, and probes.
// ---------------------------------------------------------------------------

/// Median time per call of `fn` in microseconds, over batches sized to take
/// at least a millisecond each.
double probe_us(const std::function<void()>& fn, std::size_t& samples) {
  std::size_t batch = 1;
  for (;;) {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) fn();
    if (seconds_between(start, Clock::now()) >= 1e-3) break;
    batch *= 2;
  }
  std::vector<double> per_call;
  for (int b = 0; b < 15; ++b) {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) fn();
    per_call.push_back(seconds_between(start, Clock::now()) * 1e6 / static_cast<double>(batch));
  }
  samples = per_call.size() * batch;
  return median(per_call);
}

std::vector<Metric> per_layer(Workload& workload, const Options& o, Gate& gate) {
  std::vector<TracedRun> traced;
  std::vector<ShardedRun> sharded;
  std::vector<double> untraced_wall;
  std::vector<double> sinks_on;
  std::vector<double> sinks_off;
  const auto timed = [&](const char* what, std::vector<double>& into,
                         const std::function<double()>& fn) {
    return [&, what, fn] {
      try {
        into.push_back(fn());
      } catch (const std::exception& e) {
        gate.fail(std::string(what) + ": " + e.what());
      }
    };
  };
  run_rounds(o.seed, o.seconds,
             {[&] {
                gate.check("traced replay", [&] {
                  traced.push_back(workload.traced());
                  return traced.back().fingerprint;
                });
              },
              [&] {
                gate.check("sharded traced replay", [&] {
                  sharded.push_back(workload.traced_sharded());
                  return sharded.back().fingerprint;
                });
              },
              [&] {
                gate.check("untraced campaign", [&] {
                  const CampaignRun run = workload.campaign(false);
                  untraced_wall.push_back(run.wall_s);
                  return run.fingerprint;
                });
              },
              timed("sinks attached", sinks_on, [&] { return workload.sinks_wall(true); }),
              timed("sinks detached", sinks_off, [&] { return workload.sinks_wall(false); })});

  std::vector<Metric> out;
  const auto add = [&](const char* name, const std::vector<double>& values, const char* unit) {
    out.push_back({name, median(values), unit, values.size()});
  };
  // Each traced run contributes one value per metric; the metric is their median.
  const auto per_run = [&](const std::function<double(const TracedRun&)>& f) {
    std::vector<double> values;
    for (const TracedRun& r : traced) values.push_back(f(r));
    return values;
  };
  const auto per_sharded = [&](const std::function<double(const ShardedRun&)>& f) {
    std::vector<double> values;
    for (const ShardedRun& r : sharded) values.push_back(f(r));
    return values;
  };
  const auto self = [](const TracedRun& r, Layer layer) { return r.ledger[layer].self_s; };
  const auto per_exchange = [](const TracedRun& r, std::uint64_t count) {
    return static_cast<double>(count) / static_cast<double>(r.counts.exchanges);
  };

  add("sim.projection_s", per_run([](const TracedRun& r) { return r.phases.projection_s; }), "s");
  add("sim.projection_share",
      per_run([](const TracedRun& r) { return r.phases.projection_s / r.wall_s; }), "share");

  add("core.serial_tail_s", per_sharded([](const ShardedRun& r) {
        return r.phases.merge_s + r.phases.replay_s + r.phases.projection_s;
      }), "s");
  add("core.shard_idle_share", per_sharded([](const ShardedRun& r) {
        double busy = 0;
        for (const double b : r.shard_busy_s) busy += b;
        return 1.0 - busy / (static_cast<double>(r.threads) * r.shards_s);
      }), "share");
  add("core.shard_imbalance", per_sharded([](const ShardedRun& r) {
        double busy = 0;
        for (const double b : r.shard_busy_s) busy += b;
        const double mean = busy / static_cast<double>(r.shard_busy_s.size());
        return *std::max_element(r.shard_busy_s.begin(), r.shard_busy_s.end()) / mean;
      }), "ratio");
  add("core.merge_s", per_sharded([](const ShardedRun& r) { return r.phases.merge_s; }), "s");
  add("core.detector_replay_s", per_run([](const TracedRun& r) { return r.phases.replay_s; }),
      "s");
  add("core.driver_self_s", per_run([](const TracedRun& r) {
        return r.loop_s - r.ledger[Layer::kNetClient].total_s;
      }), "s");
  add("core.obr_discovery_s", per_run([](const TracedRun& r) { return r.phases.discovery_s; }),
      "s");
  add("core.testbed_s", per_run([](const TracedRun& r) { return r.phases.testbed_s; }), "s");

  add("net.client.self_s", per_run([&](const TracedRun& r) { return self(r, Layer::kNetClient); }),
      "s");
  std::vector<double> exchange_us;
  for (const TracedRun& r : traced) {
    for (const double s : r.exchange_s) exchange_us.push_back(s * 1e6);
  }
  out.push_back({"net.exchange_us_p50", quantile(exchange_us, 0.50), "us", exchange_us.size()});
  out.push_back({"net.exchange_us_p99", quantile(exchange_us, 0.99), "us", exchange_us.size()});

  add("cdn.edge.self_s", per_run([&](const TracedRun& r) {
        return self(r, Layer::kCdnFront) + self(r, Layer::kCdnBack);
      }), "s");
  add("cdn.fcdn.self_s", per_run([&](const TracedRun& r) { return self(r, Layer::kCdnFront); }),
      "s");
  add("cdn.bcdn.self_s", per_run([&](const TracedRun& r) { return self(r, Layer::kCdnBack); }),
      "s");
  add("cdn.cache.lookups_per_exchange", per_run([&](const TracedRun& r) {
        return per_exchange(r, r.counts.cache_hits + r.counts.cache_misses);
      }), "count/exchange");
  add("cdn.cache.hit_ratio", per_run([](const TracedRun& r) {
        const std::uint64_t lookups = r.counts.cache_hits + r.counts.cache_misses;
        return lookups == 0 ? 0.0
                            : static_cast<double>(r.counts.cache_hits) /
                                  static_cast<double>(lookups);
      }), "share");
  add("cdn.upstream_fetches_per_exchange",
      per_run([&](const TracedRun& r) { return per_exchange(r, r.counts.upstream_fetches); }),
      "count/exchange");
  add("cdn.quarantined_share",
      per_run([&](const TracedRun& r) { return per_exchange(r, r.counts.quarantined); }),
      "share");
  add("cdn.gossip.messages_sent", per_run([](const TracedRun& r) {
        return static_cast<double>(r.counts.gossip_messages_sent);
      }), "count");
  add("cdn.gossip.signatures_accepted", per_run([](const TracedRun& r) {
        return static_cast<double>(r.counts.gossip_signatures_accepted);
      }), "count");

  add("origin.self_s", per_run([&](const TracedRun& r) { return self(r, Layer::kOrigin); }), "s");
  add("origin.calls", per_run([](const TracedRun& r) {
        return static_cast<double>(r.ledger[Layer::kOrigin].calls);
      }), "count");
  add("origin.response_bytes_per_exchange",
      per_run([&](const TracedRun& r) { return per_exchange(r, r.counts.origin_response_bytes); }),
      "B/exchange");

  // Standalone http probes on the workload's own Range header.
  const std::string header = workload.range_header();
  const std::uint64_t resource = workload.range_resource_bytes();
  const std::optional<rangeamp::http::RangeSet> parsed = rangeamp::http::parse_range_header(header);
  if (!parsed) {
    gate.fail("http probe: the workload's Range header does not parse");
  } else {
    const std::vector<rangeamp::http::ResolvedRange> resolved =
        rangeamp::http::resolve_all(*parsed, resource);
    volatile std::uint64_t sink = 0;
    std::size_t samples = 0;
    const double parse_us = probe_us(
        [&] { sink = sink + rangeamp::http::parse_range_header(header)->specs.size(); }, samples);
    out.push_back({"http.range_parse_us", parse_us, "us", samples});
    const double size_us = probe_us(
        [&] {
          sink = sink + rangeamp::http::multipart_byteranges_size(
                            resolved, resource, "application/octet-stream", "perfbench-boundary");
        },
        samples);
    out.push_back({"http.multipart_size_us", size_us, "us", samples});
  }

  out.push_back({"obs.trace_overhead_share",
                 median(per_run([](const TracedRun& r) { return r.wall_s; })) /
                         median(untraced_wall) -
                     1.0,
                 "share", traced.size() + untraced_wall.size()});
  out.push_back({"obs.sinks_on_overhead_share", median(sinks_on) / median(sinks_off) - 1.0,
                 "share", sinks_on.size() + sinks_off.size()});
  add("unattributed_share", per_run([](const TracedRun& r) {
        const Phases& p = r.phases;
        const double attributed = r.loop_s + p.discovery_s + p.testbed_s + p.merge_s +
                                  p.replay_s + p.projection_s;
        return 1.0 - attributed / r.wall_s;
      }), "share");
  return out;
}

/// Prints every metric and note by name, then the JSON result, which holds
/// the metrics only.
void print_result(const std::vector<Metric>& metrics, const std::vector<Metric>& notes,
                  const Gate& gate) {
  for (const std::vector<Metric>* list : {&metrics, &notes}) {
    for (const Metric& m : *list) {
      std::printf("%-36s %16.6g %-15s samples=%zu\n", m.name.c_str(), m.value, m.unit.c_str(),
                  m.samples);
    }
  }
  std::printf("%-36s %16.6g %-15s samples=%llu\n", "failed_share",
              gate.attempted() == 0 ? 0.0
                                    : static_cast<double>(gate.failed()) /
                                          static_cast<double>(gate.attempted()),
              "share", static_cast<unsigned long long>(gate.attempted()));
  std::string json = "{\"correct\": ";
  json += gate.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(gate.attempted());
  json += ", \"failed\": " + std::to_string(gate.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const int threads = shard_threads();
  std::unique_ptr<Workload> workload;
  CampaignRun reference;
  std::string problem;
  try {
    workload = make_workload(o.workload, o.seed, o.scale, threads, o.expect);
    if (!workload) usage(("unknown workload " + o.workload).c_str());
    // Reference: the serial campaign, checked against committed results;
    // every later call must reproduce it.
    reference = workload->campaign(false);
    problem = workload->check_reference(reference.fingerprint);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL reference campaign: %s\n", e.what());
    return 1;
  }
  Gate gate(reference.fingerprint);
  if (!problem.empty()) gate.fail(problem);
  gate.check("sharded reference", [&] { return workload->campaign(true).fingerprint; });

  std::printf("workload %s seed %llu threads %d exchanges/call %llu\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), threads,
              static_cast<unsigned long long>(workload->exchanges()));
  const EndToEnd result =
      o.trace ? EndToEnd{per_layer(*workload, o, gate), {}} : end_to_end(*workload, o, gate);
  print_result(result.metrics, result.notes, gate);
  return gate.failed() == 0 ? 0 : 1;
}

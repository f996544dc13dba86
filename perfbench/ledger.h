// Wall-clock span ledger for the benchmark's traced runs.
//
// Spans are recorded from outside the simulator: TimedHandler decorates any
// net::HttpHandler (a CDN node, an EdgeCluster, the origin) and the driver
// opens spans around its own calls into a layer (client transfers, detector
// replay, projection).  Spans nest on one thread; a span's self time is its
// duration minus the durations of the spans opened inside it, so the self
// times of all layers add up to the traced wall time less whatever the
// driver did outside any span.
//
// One Ledger belongs to one thread (a sharded traced run gives every shard
// its own), so nothing here is synchronized.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/handler.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// The layers a traced exchange crosses, outermost first.  kCdnFront is the
/// ingress tier (the edge cluster, or the FCDN of a cascade); kCdnBack is the
/// second tier of a cascade.
enum class Layer : std::size_t { kNetClient, kCdnFront, kCdnBack, kOrigin, kCount };

class Ledger {
 public:
  struct Totals {
    double total_s = 0;
    double self_s = 0;
    std::uint64_t calls = 0;
  };

  void begin(Layer layer) { open_.push_back({layer, Clock::now(), 0}); }

  /// Closes the innermost span and returns its duration in seconds.
  double end() {
    const Clock::time_point now = Clock::now();
    const Frame frame = open_.back();
    open_.pop_back();
    const double duration = seconds_between(frame.start, now);
    Totals& totals = totals_[static_cast<std::size_t>(frame.layer)];
    totals.total_s += duration;
    totals.self_s += duration - frame.child_s;
    ++totals.calls;
    if (!open_.empty()) open_.back().child_s += duration;
    return duration;
  }

  const Totals& operator[](Layer layer) const {
    return totals_[static_cast<std::size_t>(layer)];
  }

 private:
  struct Frame {
    Layer layer;
    Clock::time_point start;
    double child_s;
  };
  std::vector<Frame> open_;
  std::array<Totals, static_cast<std::size_t>(Layer::kCount)> totals_{};
};

/// Times every call into `inner` as a span of `layer`.  Transparent to the
/// bytes: the request and response pass through untouched.
class TimedHandler final : public rangeamp::net::HttpHandler {
 public:
  TimedHandler(Ledger& ledger, Layer layer, rangeamp::net::HttpHandler& inner)
      : ledger_(&ledger), layer_(layer), inner_(&inner) {}

  rangeamp::http::Response handle(const rangeamp::http::Request& request) override {
    ledger_->begin(layer_);
    rangeamp::http::Response response = inner_->handle(request);
    ledger_->end();
    return response;
  }

 private:
  Ledger* ledger_;
  Layer layer_;
  rangeamp::net::HttpHandler* inner_;
};

/// Quantile (q in [0, 1]) of an unsorted sample, interpolating linearly
/// between the two nearest ranks; 0 when empty.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto below = static_cast<std::size_t>(position);
  if (below + 1 >= values.size()) return values.back();
  const double fraction = position - static_cast<double>(below);
  return values[below] + fraction * (values[below + 1] - values[below]);
}

inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

}  // namespace perfbench

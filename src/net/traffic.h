// Per-segment traffic accounting.
//
// The paper's measurements are all of the form "response traffic on the
// cdn-origin connection" vs "response traffic on the client-cdn connection"
// (Fig 6, Tables IV/V).  A TrafficRecorder is the tcpdump of this
// reproduction: every Wire transfer adds the exact serialized request and
// response byte counts of its segment.  Byte pairs are spelled with the
// shared TrafficTotals vocabulary from net/accounting.h.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/accounting.h"

namespace rangeamp::net {

/// Light record of one request/response exchange on a segment.
struct ExchangeRecord {
  std::string target;        ///< request target
  std::string range_header;  ///< request Range value ("" when absent)
  int status = 0;            ///< response status
  TrafficTotals bytes;       ///< exact serialized request/response sizes
  bool response_truncated = false;  ///< receiver aborted mid-body
  bool faulted = false;             ///< an injected fault hit this exchange
};

/// Byte and exchange counters for one connection segment.
class TrafficRecorder {
 public:
  explicit TrafficRecorder(std::string segment_name = {})
      : name_(std::move(segment_name)),
        segment_(segment_from_name(name_)) {}

  void record(ExchangeRecord record) {
    totals_ += record.bytes;
    ++exchanges_count_;
    if (record.faulted) ++faulted_count_;
    if (record.response_truncated) ++truncated_count_;
    if (keep_log_) log_.push_back(std::move(record));
  }

  /// Enables/disables retention of per-exchange records (counters always
  /// accumulate).  Scanners enable it; long benchmark sweeps leave it off.
  void set_keep_log(bool keep) { keep_log_ = keep; }
  /// True when record() keeps the per-exchange log.  Transports fill the
  /// record's target and Range strings only then.
  bool keep_log() const noexcept { return keep_log_; }

  void reset() {
    totals_ = {};
    exchanges_count_ = 0;
    faulted_count_ = 0;
    truncated_count_ = 0;
    log_.clear();
  }

  const std::string& name() const noexcept { return name_; }
  /// Canonical classification of this segment (derived from the name).
  SegmentId segment() const noexcept { return segment_; }
  const TrafficTotals& totals() const noexcept { return totals_; }
  std::uint64_t request_bytes() const noexcept { return totals_.request_bytes; }
  std::uint64_t response_bytes() const noexcept { return totals_.response_bytes; }
  std::uint64_t total_bytes() const noexcept { return totals_.total(); }
  std::uint64_t exchange_count() const noexcept { return exchanges_count_; }
  std::uint64_t faulted_count() const noexcept { return faulted_count_; }
  /// Exchanges whose response body the receiver (or a fault) cut short.
  /// The byte counters above already count only the received prefix; this
  /// exposes *how many* exchanges were cut, which the per-exchange log used
  /// to be the only way to learn.
  std::uint64_t truncated_count() const noexcept { return truncated_count_; }
  const std::vector<ExchangeRecord>& log() const noexcept { return log_; }

 private:
  std::string name_;
  SegmentId segment_;
  TrafficTotals totals_;
  std::uint64_t exchanges_count_ = 0;
  std::uint64_t faulted_count_ = 0;
  std::uint64_t truncated_count_ = 0;
  bool keep_log_ = true;
  std::vector<ExchangeRecord> log_;
};

}  // namespace rangeamp::net

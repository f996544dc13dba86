// Origin-shielding machinery: CDN-Loop parsing (RFC 8586), the per-key fill
// lock behind request coalescing, and the upstream circuit breaker.
//
// The policies (all-off defaults) live in types.h as part of VendorTraits;
// this header holds the runtime state machines a CdnNode instantiates when
// the knobs are turned on.  Everything is deterministic and clock-driven:
// "now" is whatever the node's simulation clock says (0 forever when no
// clock is installed), so shielded experiments replay byte-identically.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cdn/types.h"
#include "http/message.h"

namespace rangeamp::cdn {

// ---------------------------------------------------------------------------
// CDN-Loop (RFC 8586).
// ---------------------------------------------------------------------------

/// One element of a CDN-Loop header: a cdn-id plus its raw parameter string
/// (";"-joined, "" when absent).  Parameters are carried opaquely -- loop
/// detection only compares ids -- but they must still lex (quoted strings
/// balanced) for the element to be accepted.
struct CdnLoopEntry {
  std::string id;
  std::string params;

  bool operator==(const CdnLoopEntry& other) const noexcept {
    return id == other.id && params == other.params;
  }
};

/// Parses a CDN-Loop field value: #cdn-info where cdn-info is
/// cdn-id *( OWS ";" OWS parameter ).  This parser sits on the untrusted
/// boundary of every hop, so it is total: any input returns either a parsed
/// list or nullopt, never crashes, and anything accepted round-trips through
/// cdn_loop_to_string().  Empty elements and ids with illegal characters are
/// rejected.
std::optional<std::vector<CdnLoopEntry>> parse_cdn_loop(std::string_view value);

/// Canonical spelling: entries joined with ", ", parameters re-attached with
/// ";".
std::string cdn_loop_to_string(const std::vector<CdnLoopEntry>& entries);

/// Case-insensitive membership test for `token` among parsed cdn-ids.
bool cdn_loop_contains(const std::vector<CdnLoopEntry>& entries,
                       std::string_view token);

/// The cdn-id a vendor advertises when its profile does not set one:
/// the vendor name lowercased with spaces squeezed to '-', e.g.
/// "Alibaba Cloud" -> "alibaba-cloud".
std::string default_cdn_loop_token(std::string_view vendor_name);

// ---------------------------------------------------------------------------
// Shed / shield accounting.
// ---------------------------------------------------------------------------

/// Why a request (or an upstream fetch) was refused before touching the
/// wire.  Precedence when several layers could refuse the same miss: a held
/// coalesced fill always wins (it costs nothing), then deadline expiry
/// (504 -- the client-facing deadline makes even a stale answer useless),
/// then the overload watermarks, then the circuit breaker.  See
/// docs/overload-model.md for the full ordering.
enum class ShedCause {
  kNone,
  kBreakerOpen,    ///< circuit open: failure threshold tripped, not yet probed
  kAdmission,      ///< max_connections/max_pending exceeded
  kOverloadHigh,   ///< a pressure dimension at/above its high watermark
  kOverloadLow,    ///< between watermarks with no stale copy to degrade to
  kDeadline,       ///< per-exchange deadline budget below the per-hop minimum
};

std::string_view shed_cause_name(ShedCause cause) noexcept;

/// Counters one node's shielding layer accumulates.  Shed requests are
/// accounted separately from served traffic -- the bench reports them as
/// availability loss, not as amplification.
struct ShieldStats {
  std::uint64_t loop_rejected = 0;      ///< 508: own token seen in CDN-Loop
  std::uint64_t hop_cap_rejected = 0;   ///< 508: CDN-Loop longer than cap
  std::uint64_t coalesced_hits = 0;     ///< misses absorbed by a fill lock
  std::uint64_t fill_fetches = 0;       ///< misses that became the fill leader
  std::uint64_t shed_breaker_open = 0;  ///< 503: circuit open
  std::uint64_t shed_admission = 0;     ///< 503: connection/pending limits
  std::uint64_t breaker_trips = 0;      ///< closed -> open transitions
  std::uint64_t half_open_probes = 0;   ///< probes admitted while half-open
  std::uint64_t shed_responses = 0;     ///< client-facing 503 + Retry-After

  std::uint64_t shed_total() const noexcept {
    return shed_breaker_open + shed_admission;
  }
  std::uint64_t loop_rejects_total() const noexcept {
    return loop_rejected + hop_cap_rejected;
  }

  /// Field-wise sum: totals across nodes, and across campaign shards.
  ShieldStats& operator+=(const ShieldStats& other) noexcept {
    loop_rejected += other.loop_rejected;
    hop_cap_rejected += other.hop_cap_rejected;
    coalesced_hits += other.coalesced_hits;
    fill_fetches += other.fill_fetches;
    shed_breaker_open += other.shed_breaker_open;
    shed_admission += other.shed_admission;
    breaker_trips += other.breaker_trips;
    half_open_probes += other.half_open_probes;
    shed_responses += other.shed_responses;
    return *this;
  }
};

// ---------------------------------------------------------------------------
// Circuit breaker.
// ---------------------------------------------------------------------------

/// Envoy-style upstream outlier breaker with half-open probing, plus busy
/// connection tracking for admission control.  Deterministic: every
/// transition is a pure function of (policy, outcome sequence, clock).
class UpstreamBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  explicit UpstreamBreaker(CircuitBreakerPolicy policy)
      : policy_(std::move(policy)) {}

  /// Asks to start one upstream transfer at `now`.  kNone admits the
  /// transfer (the caller MUST follow up with on_success/on_failure and
  /// occupy_connection); anything else is a shed.
  ShedCause admit(double now);

  /// Reports the admitted transfer's outcome (a retryable 5xx counts as a
  /// failure, mirroring the resilience layer's retry classification).
  void on_success();
  void on_failure(double now);

  /// Marks an upstream connection busy until `until` (admission control).
  void occupy_connection(double until);

  State state() const noexcept { return state_; }
  int consecutive_failures() const noexcept { return consecutive_failures_; }
  std::uint64_t trips() const noexcept { return trips_; }

  /// Upstream transfers still in flight at `now` (expired slots pruned).
  std::size_t busy_connections(double now);

 private:
  void trip(double now);

  CircuitBreakerPolicy policy_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  double open_until_ = 0;
  int probes_in_flight_ = 0;
  std::uint64_t trips_ = 0;
  std::vector<double> busy_until_;
};

// ---------------------------------------------------------------------------
// Fill lock table (request coalescing).
// ---------------------------------------------------------------------------

/// Per-cache-key fill locks: the leader's response is held for
/// `window_seconds` and replayed to every same-key (and same-Range) miss
/// arriving inside the window -- N concurrent cache-busting misses collapse
/// into one origin fetch.
class FillLockTable {
 public:
  explicit FillLockTable(CoalescingPolicy policy) : policy_(std::move(policy)) {}

  /// The held response for `key` when a fill is still within its window.
  const http::Response* find(const std::string& key, double now) const;

  /// Records the leader's response for `key` at `now`.
  void record(std::string key, const http::Response& response, double now);

  std::size_t size() const noexcept { return fills_.size(); }

 private:
  struct Fill {
    http::Response response;
    double until = 0;
  };

  CoalescingPolicy policy_;
  std::unordered_map<std::string, Fill> fills_;
};

}  // namespace rangeamp::cdn

// Declarative, rule-based vendor behaviour.
//
// A rule table maps a Range shape, optionally guarded by a first-byte or
// file-size condition, to a forwarding policy -- the form of the paper's
// Table I.  Nine of the 13 built-in profiles (profiles.cc) are such tables
// run by RuleBasedLogic.  The same evaluator lets a user model a *new*
// middlebox without writing C++: a profile spec is a small text document of
// identity fields, limits and forwarding rules.
//
//   name: ExampleCDN
//   limit.single_header_line_bytes: 16384
//   reply: coalesce
//   cache: on
//   rule: single-closed if first<1024 -> delete
//   rule: single-suffix -> delete
//   rule: single-closed if size>=10485760 -> delete
//   rule: multi -> lazy
//   rule: default -> lazy
//
// Rules are evaluated top-down; the first match wins.  A size condition
// triggers a HEAD probe toward the origin (exactly how the Huawei Cloud
// profile realizes its file-size-conditional rows).  Actions map onto the
// policy vocabulary of section III-B: lazy, delete, expand:<slack-bytes>,
// slice:<slice-bytes>.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "cdn/node.h"

namespace rangeamp::cdn {

/// The request-shape classes a rule can match.
enum class RuleShape {
  kSingleClosed,  ///< bytes=first-last
  kSingleOpen,    ///< bytes=first-
  kSingleSuffix,  ///< bytes=-suffix
  kMulti,         ///< more than one spec
  kAny,           ///< matches every ranged request ("default")
};

/// What to do with a matched request.
struct RuleAction {
  enum class Kind { kLazy, kDelete, kExpand, kSlice } kind = Kind::kLazy;
  std::uint64_t parameter = 0;  ///< expand slack / slice size

  bool operator==(const RuleAction&) const = default;
};

/// One forwarding rule.
struct PolicyRule {
  RuleShape shape = RuleShape::kAny;
  /// Optional guard on the first spec's first-byte position.
  std::optional<std::uint64_t> first_below;
  std::optional<std::uint64_t> first_at_least;
  /// Optional guard on the resource size (forces a HEAD probe).
  std::optional<std::uint64_t> size_below;
  std::optional<std::uint64_t> size_at_least;

  RuleAction action;

  bool needs_size() const noexcept {
    return size_below.has_value() || size_at_least.has_value();
  }

  bool operator==(const PolicyRule&) const = default;
};

/// VendorLogic driven by an ordered rule list.  Requests with no Range
/// header always fetch-and-cache the full entity; ranged requests take the
/// first matching rule (falling back to Laziness when none matches).
class RuleBasedLogic final : public VendorLogic {
 public:
  explicit RuleBasedLogic(std::vector<PolicyRule> rules)
      : rules_(std::move(rules)) {}

  http::Response on_miss(CdnNode& node, const http::Request& request,
                         const std::optional<http::RangeSet>& range) override;

  const std::vector<PolicyRule>& rules() const noexcept { return rules_; }

 private:
  std::vector<PolicyRule> rules_;
};

/// Parses a profile spec document.  On error returns nullopt and, when
/// `error` is non-null, a line-numbered message.
std::optional<VendorProfile> parse_profile_spec(std::string_view text,
                                                std::string* error = nullptr);

}  // namespace rangeamp::cdn

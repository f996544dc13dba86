#include "http/validate.h"

#include <algorithm>

#include "http/chunked.h"
#include "http/headers.h"
#include "http/multipart.h"

namespace rangeamp::http {
namespace {

// Lax Content-Range split: extracts first/last/total without the bounds
// checks parse_content_range applies, so a lying "bytes 100-199/50" is
// reported as a bounds violation rather than silently unparsable.
struct LaxContentRange {
  std::uint64_t first = 0;
  std::uint64_t last = 0;
  std::uint64_t total = 0;
};

std::optional<LaxContentRange> split_content_range(std::string_view value) {
  constexpr std::string_view kUnit = "bytes ";
  while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
  if (!value.starts_with(kUnit)) return std::nullopt;
  value.remove_prefix(kUnit.size());
  const auto dash = value.find('-');
  const auto slash = value.find('/');
  if (dash == std::string_view::npos || slash == std::string_view::npos ||
      dash > slash) {
    return std::nullopt;
  }
  const auto first = parse_u64(value.substr(0, dash));
  const auto last = parse_u64(value.substr(dash + 1, slash - dash - 1));
  const auto total = parse_u64(value.substr(slash + 1));
  if (!first || !last || !total) return std::nullopt;
  return LaxContentRange{*first, *last, *total};
}

class ReportBuilder {
 public:
  explicit ReportBuilder(ValidationReport& report) : report_(report) {}

  void violate(ValidationCheck check, std::string detail) {
    report_.violations.push_back({check, std::move(detail)});
  }

 private:
  ValidationReport& report_;
};

}  // namespace

std::string_view validation_check_name(ValidationCheck check) noexcept {
  switch (check) {
    case ValidationCheck::kStatusRangeAgreement: return "status-range-agreement";
    case ValidationCheck::kContentRangeBounds: return "content-range-bounds";
    case ValidationCheck::kContentLengthMismatch: return "content-length-mismatch";
    case ValidationCheck::kDuplicateContentLength: return "duplicate-content-length";
    case ValidationCheck::kContentLengthWithChunked: return "cl-te-conflict";
    case ValidationCheck::kChunkedFraming: return "chunked-framing";
    case ValidationCheck::kMultipartFraming: return "multipart-framing";
    case ValidationCheck::kMultipartPartCount: return "multipart-part-count";
    case ValidationCheck::kBodyBudget: return "body-budget";
    case ValidationCheck::kMultipartBudget: return "multipart-budget";
  }
  return "unknown";
}

ValidationSeverity validation_check_severity(ValidationCheck check) noexcept {
  switch (check) {
    case ValidationCheck::kDuplicateContentLength:
    case ValidationCheck::kContentLengthWithChunked:
    case ValidationCheck::kChunkedFraming:
    case ValidationCheck::kMultipartFraming:
    case ValidationCheck::kBodyBudget:
    case ValidationCheck::kMultipartBudget:
      return ValidationSeverity::kFatal;
    case ValidationCheck::kStatusRangeAgreement:
    case ValidationCheck::kContentRangeBounds:
    case ValidationCheck::kContentLengthMismatch:
    case ValidationCheck::kMultipartPartCount:
      return ValidationSeverity::kSoft;
  }
  return ValidationSeverity::kFatal;
}

bool ValidationReport::has(ValidationCheck check) const noexcept {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const ValidationViolation& v) { return v.check == check; });
}

bool ValidationReport::any_fatal() const noexcept {
  return std::any_of(violations.begin(), violations.end(),
                     [](const ValidationViolation& v) {
                       return validation_check_severity(v.check) ==
                              ValidationSeverity::kFatal;
                     });
}

std::string ValidationReport::summary() const {
  std::string out;
  for (const auto& v : violations) {
    if (!out.empty()) out += ",";
    out += validation_check_name(v.check);
  }
  return out;
}

ValidationReport ResponseValidator::validate(
    const Response& response, const std::optional<RangeSet>& requested) const {
  ValidationReport report;
  ReportBuilder rb(report);

  // --- Smuggling shapes (header-only, checked before any body work). ------
  const auto cl_values = response.headers.get_all("Content-Length");
  std::optional<std::uint64_t> declared;
  if (!cl_values.empty()) {
    declared = parse_u64(cl_values.front());
    bool divergent = !declared.has_value();
    for (std::size_t i = 1; i < cl_values.size(); ++i) {
      const auto other = parse_u64(cl_values[i]);
      if (!other || !declared || *other != *declared) divergent = true;
    }
    if (cl_values.size() > 1 && divergent) {
      rb.violate(ValidationCheck::kDuplicateContentLength,
                 std::to_string(cl_values.size()) +
                     " differing Content-Length fields");
      declared.reset();  // no single authoritative length exists
    } else if (!declared) {
      rb.violate(ValidationCheck::kContentLengthMismatch,
                 "unparsable Content-Length \"" +
                     std::string{cl_values.front()} + "\"");
    }
  }
  report.declared_content_length = declared;

  const bool chunked = is_chunked(response);
  if (chunked && !cl_values.empty()) {
    rb.violate(ValidationCheck::kContentLengthWithChunked,
               "Content-Length alongside Transfer-Encoding: chunked");
  }

  // --- Budgets (on the raw received bytes, before any materialization). ---
  const std::uint64_t raw_size = response.body.size();
  if (limits_.max_body_bytes != 0 && raw_size > limits_.max_body_bytes) {
    rb.violate(ValidationCheck::kBodyBudget,
               "body of " + std::to_string(raw_size) +
                   " bytes exceeds budget of " +
                   std::to_string(limits_.max_body_bytes));
    // Refuse to buffer further: every remaining check would materialize.
    return report;
  }

  // --- Transfer framing: the chunked stream must decode completely. -------
  std::uint64_t entity_size = raw_size;
  std::optional<std::string> decoded;  // materialized entity when chunked
  if (chunked) {
    auto entity = decode_chunked(response.body.materialize());
    if (!entity) {
      rb.violate(ValidationCheck::kChunkedFraming,
                 "chunked stream fails to decode");
      return report;  // nothing below can reason about an unframed body
    }
    decoded = entity->materialize();
    entity_size = decoded->size();
  }

  // --- Content-Length vs actual bytes (identity framing only). ------------
  if (!chunked && declared && *declared != entity_size) {
    rb.violate(ValidationCheck::kContentLengthMismatch,
               "declared " + std::to_string(*declared) + " bytes, received " +
                   std::to_string(entity_size));
  }

  // --- Status / Content-Range agreement and bounds. ------------------------
  const auto content_range = response.headers.get("Content-Range");
  const auto content_type = response.headers.get_or("Content-Type", "");
  const bool multipart_type =
      content_type.starts_with("multipart/byteranges");

  if (response.status == kPartialContent) {
    if (multipart_type) {
      if (content_range) {
        rb.violate(ValidationCheck::kStatusRangeAgreement,
                   "multipart 206 carries a top-level Content-Range");
      }
      const auto boundary = boundary_from_content_type(content_type);
      if (!boundary) {
        rb.violate(ValidationCheck::kMultipartFraming,
                   "multipart Content-Type without a usable boundary");
        return report;
      }
      if (limits_.max_multipart_bytes != 0 &&
          entity_size > limits_.max_multipart_bytes) {
        rb.violate(ValidationCheck::kMultipartBudget,
                   "multipart body of " + std::to_string(entity_size) +
                       " bytes exceeds assembly budget of " +
                       std::to_string(limits_.max_multipart_bytes));
        return report;
      }
      const std::string body =
          decoded ? std::move(*decoded) : response.body.materialize();
      const auto parts = parse_multipart_byteranges(body, *boundary);
      if (!parts) {
        rb.violate(ValidationCheck::kMultipartFraming,
                   "multipart body fails to parse against boundary \"" +
                       *boundary + "\"");
        return report;
      }
      std::optional<std::uint64_t> total;
      bool bounds_ok = true;
      for (const auto& part : *parts) {
        if (part.range.last >= part.resource_size) bounds_ok = false;
        if (total && *total != part.resource_size) bounds_ok = false;
        total = part.resource_size;
      }
      if (!bounds_ok) {
        rb.violate(ValidationCheck::kContentRangeBounds,
                   "part Content-Range out of bounds or inconsistent totals");
      }
      if (requested && parts->size() > requested->count()) {
        rb.violate(ValidationCheck::kMultipartPartCount,
                   std::to_string(parts->size()) + " parts for " +
                       std::to_string(requested->count()) +
                       " requested range(s)");
      }
      if (!requested && !parts->empty()) {
        rb.violate(ValidationCheck::kStatusRangeAgreement,
                   "multipart 206 answer to a request without a Range");
      }
    } else {
      if (!content_range) {
        rb.violate(ValidationCheck::kStatusRangeAgreement,
                   "single-part 206 without a Content-Range");
      } else {
        const auto cr = split_content_range(*content_range);
        if (!cr) {
          rb.violate(ValidationCheck::kContentRangeBounds,
                     "unparsable Content-Range \"" +
                         std::string{*content_range} + "\"");
        } else {
          if (cr->first > cr->last || cr->last >= cr->total) {
            rb.violate(ValidationCheck::kContentRangeBounds,
                       "Content-Range bytes " + std::to_string(cr->first) +
                           "-" + std::to_string(cr->last) +
                           " outside declared total " +
                           std::to_string(cr->total));
          } else if (cr->last - cr->first + 1 != entity_size) {
            rb.violate(ValidationCheck::kContentRangeBounds,
                       "Content-Range spans " +
                           std::to_string(cr->last - cr->first + 1) +
                           " bytes, body carries " +
                           std::to_string(entity_size));
          }
        }
      }
      if (!requested) {
        rb.violate(ValidationCheck::kStatusRangeAgreement,
                   "206 answer to a request without a Range");
      }
    }
  } else if (content_range && response.status != kRangeNotSatisfiable) {
    // Only 206 and 416 ("bytes */size") may carry Content-Range.
    rb.violate(ValidationCheck::kStatusRangeAgreement,
               "status " + std::to_string(response.status) +
                   " carries a Content-Range");
  }

  return report;
}

}  // namespace rangeamp::http

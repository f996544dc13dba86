#include "http/range.h"

#include <algorithm>
#include <charconv>

namespace rangeamp::http {
namespace {

// RFC 7230 OWS: SP / HTAB.
bool is_ows(char c) noexcept { return c == ' ' || c == '\t'; }
bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

// Trims optional whitespace from both ends.
std::string_view trim_ows(std::string_view s) {
  while (!s.empty() && is_ows(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_ows(s.back())) s.remove_suffix(1);
  return s;
}

// Parses 1*DIGIT at `p` into `v` and advances `p` past it.  False when no
// digit is there or the value does not fit 64 bits.
bool parse_digits(const char*& p, const char* end, std::uint64_t& v) {
  const auto [ptr, ec] = std::from_chars(p, end, v);
  if (ec != std::errc{}) return false;
  p = ptr;
  return true;
}

// Length of ByteRangeSpec::to_string().
std::size_t spelled_size(const ByteRangeSpec& spec) noexcept {
  if (spec.is_suffix()) return 1 + decimal_digits(*spec.suffix);
  return decimal_digits(*spec.first) + 1 + (spec.last ? decimal_digits(*spec.last) : 0);
}

// Appends ByteRangeSpec::to_string() to `out`.
void append_spec(std::string& out, const ByteRangeSpec& spec) {
  if (spec.is_suffix()) {
    out.push_back('-');
    append_decimal(out, *spec.suffix);
    return;
  }
  append_decimal(out, *spec.first);
  out.push_back('-');
  if (spec.last) append_decimal(out, *spec.last);
}

}  // namespace

std::optional<std::uint64_t> parse_u64(std::string_view s) noexcept {
  if (s.empty()) return std::nullopt;
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

void append_decimal(std::string& out, std::uint64_t v) {
  char digits[20];
  const auto [end, ec] = std::to_chars(digits, digits + sizeof(digits), v);
  out.append(digits, end);
}

std::string ByteRangeSpec::to_string() const {
  std::string out;
  append_spec(out, *this);
  return out;
}

std::string RangeSet::to_string() const {
  constexpr std::string_view kUnit = "bytes=";
  std::size_t size = kUnit.size() + (specs.empty() ? 0 : specs.size() - 1);
  for (const auto& spec : specs) size += spelled_size(spec);
  std::string out;
  out.reserve(size);
  out.append(kUnit);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (i) out.push_back(',');
    append_spec(out, specs[i]);
  }
  return out;
}

std::optional<RangeSet> parse_range_header(std::string_view value,
                                           std::size_t max_value_bytes) {
  if (max_value_bytes != 0 && value.size() > max_value_bytes) {
    return std::nullopt;
  }
  value = trim_ows(value);
  constexpr std::string_view kUnit = "bytes=";
  if (value.size() <= kUnit.size()) return std::nullopt;
  // The bytes-unit is case-insensitive per RFC 7233 (range units are tokens
  // compared case-insensitively).
  for (std::size_t i = 0; i < kUnit.size(); ++i) {
    const char a = value[i] >= 'A' && value[i] <= 'Z'
                       ? static_cast<char>(value[i] - 'A' + 'a')
                       : value[i];
    if (a != kUnit[i]) return std::nullopt;
  }
  const char* p = value.data() + kUnit.size();
  const char* const end = value.data() + value.size();

  RangeSet set;
  set.specs.reserve(static_cast<std::size_t>(std::count(p, end, ',')) + 1);
  while (true) {
    while (p != end && is_ows(*p)) ++p;
    // RFC 7230 #rule allows empty list elements; skip them.
    if (p != end && *p != ',') {
      // Filled in place: copying a spec of three optionals costs more than
      // parsing it.
      ByteRangeSpec& spec = set.specs.emplace_back();
      std::uint64_t v = 0;
      if (*p == '-') {  // suffix-byte-range-spec: "-suffix"
        ++p;
        if (!parse_digits(p, end, v)) return std::nullopt;
        spec.suffix = v;
      } else {
        if (!parse_digits(p, end, v) || p == end || *p != '-') return std::nullopt;
        ++p;
        spec.first = v;
        if (p != end && is_digit(*p)) {
          if (!parse_digits(p, end, v)) return std::nullopt;
          if (v < *spec.first) return std::nullopt;  // RFC 7233 §2.1: invalid spec
          spec.last = v;
        }
      }
      while (p != end && is_ows(*p)) ++p;
    }
    if (p == end) break;
    if (*p != ',') return std::nullopt;
    ++p;
  }
  if (set.specs.empty()) return std::nullopt;  // byte-range-set is 1#(...)
  return set;
}

std::optional<ResolvedRange> resolve(const ByteRangeSpec& spec,
                                     std::uint64_t resource_size) noexcept {
  if (resource_size == 0) return std::nullopt;
  if (spec.is_suffix()) {
    if (*spec.suffix == 0) return std::nullopt;  // "-0" selects nothing
    const std::uint64_t len = std::min(*spec.suffix, resource_size);
    return ResolvedRange{resource_size - len, resource_size - 1};
  }
  if (!spec.first) return std::nullopt;
  if (*spec.first >= resource_size) return std::nullopt;
  const std::uint64_t last =
      spec.last ? std::min(*spec.last, resource_size - 1) : resource_size - 1;
  return ResolvedRange{*spec.first, last};
}

std::vector<ResolvedRange> resolve_all(const RangeSet& set,
                                       std::uint64_t resource_size) {
  std::vector<ResolvedRange> out;
  out.reserve(set.specs.size());
  for (const auto& spec : set.specs) {
    if (auto r = resolve(spec, resource_size)) out.push_back(*r);
  }
  return out;
}

bool any_overlap(const std::vector<ResolvedRange>& ranges) {
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    for (std::size_t j = i + 1; j < ranges.size(); ++j) {
      if (ranges[i].overlaps(ranges[j])) return true;
    }
  }
  return false;
}

std::size_t overlapping_pair_count(const std::vector<ResolvedRange>& ranges) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    for (std::size_t j = i + 1; j < ranges.size(); ++j) {
      if (ranges[i].overlaps(ranges[j])) ++n;
    }
  }
  return n;
}

bool is_ascending_disjoint(const std::vector<ResolvedRange>& ranges) {
  for (std::size_t i = 1; i < ranges.size(); ++i) {
    if (ranges[i].first <= ranges[i - 1].last) return false;
  }
  return true;
}

std::vector<ResolvedRange> coalesce(std::vector<ResolvedRange> ranges) {
  if (ranges.empty()) return ranges;
  std::sort(ranges.begin(), ranges.end(),
            [](const ResolvedRange& a, const ResolvedRange& b) {
              return a.first < b.first || (a.first == b.first && a.last < b.last);
            });
  std::vector<ResolvedRange> out;
  out.push_back(ranges.front());
  for (std::size_t i = 1; i < ranges.size(); ++i) {
    if (out.back().touches(ranges[i])) {
      out.back().last = std::max(out.back().last, ranges[i].last);
    } else {
      out.push_back(ranges[i]);
    }
  }
  return out;
}

std::uint64_t total_selected_bytes(const std::vector<ResolvedRange>& ranges) {
  std::uint64_t total = 0;
  for (const auto& r : ranges) total += r.length();
  return total;
}

std::string content_range(const ResolvedRange& r, std::uint64_t resource_size) {
  return "bytes " + std::to_string(r.first) + "-" + std::to_string(r.last) + "/" +
         std::to_string(resource_size);
}

std::string content_range_unsatisfied(std::uint64_t resource_size) {
  return "bytes */" + std::to_string(resource_size);
}

std::optional<ContentRange> parse_content_range(std::string_view value) {
  value = trim_ows(value);
  constexpr std::string_view kUnit = "bytes ";
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
  const auto size = parse_u64(value.substr(slash + 1));
  if (!first || !last || !size || *last < *first || *last >= *size) {
    return std::nullopt;
  }
  return ContentRange{ResolvedRange{*first, *last}, *size};
}

}  // namespace rangeamp::http

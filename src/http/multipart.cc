#include "http/multipart.h"

#include <algorithm>
#include <cassert>

#include "http/headers.h"

namespace rangeamp::http {
namespace {

constexpr std::string_view kContentRangePrefix = "Content-Range: bytes ";
constexpr std::string_view kCrlf = "\r\n";

std::string head_prefix(const MultipartFraming& framing) {
  std::string out;
  out.append("--").append(framing.boundary).append("\r\n");
  for (const auto& f : framing.extra_headers) {
    out.append(f.name).append(": ").append(f.value).append("\r\n");
  }
  out.append("Content-Type: ").append(framing.content_type).append("\r\n");
  out.append(kContentRangePrefix);
  return out;
}

std::string head_suffix(std::uint64_t resource_size) {
  std::string out = "/";
  append_decimal(out, resource_size);
  out.append("\r\n\r\n");
  return out;
}

std::string closing_delimiter(std::string_view boundary) {
  std::string out;
  out.append("--").append(boundary).append("--\r\n");
  return out;
}

// Bytes a part occupies beside its head: the payload and its trailing CRLF.
std::uint64_t part_tail_size(std::uint64_t payload) noexcept {
  return payload + kCrlf.size();
}

// Length of a part head: fixed framing plus "first-last" in decimal.
std::uint64_t part_head_size(std::size_t fixed, const ResolvedRange& r) noexcept {
  return fixed + decimal_digits(r.first) + 1 + decimal_digits(r.last);
}

// RFC 2046 section 5.1.1: boundary := 0*69<bchars> bcharsnospace, i.e. at
// most 70 characters from a fixed alphabet, not ending in a space.  A
// boundary outside the grammar is an injection vector (a crafted one can
// alias part delimiters), so it is rejected rather than used.
bool is_bchar(char c) noexcept {
  if ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
      (c >= 'A' && c <= 'Z')) {
    return true;
  }
  constexpr std::string_view kSpecials = "'()+_,-./:=? ";
  return kSpecials.find(c) != std::string_view::npos;
}

bool valid_boundary(std::string_view b) noexcept {
  if (b.empty() || b.size() > 70 || b.back() == ' ') return false;
  for (const char c : b) {
    if (!is_bchar(c)) return false;
  }
  return true;
}

}  // namespace

MultipartLayout::MultipartLayout(const MultipartFraming& framing,
                                 std::uint64_t resource_size, Body source,
                                 std::vector<MultipartPart> parts)
    : head_prefix_(head_prefix(framing)),
      head_suffix_(head_suffix(resource_size)),
      closing_(closing_delimiter(framing.boundary)),
      source_(std::move(source)),
      parts_(std::move(parts)) {
  starts_.reserve(parts_.size() + 1);
  std::uint64_t pos = 0;
  for (const auto& part : parts_) {
    assert(part.source_offset + part.length <= source_.size());
    starts_.push_back(pos);
    pos += head_size(part) + part_tail_size(part.length);
  }
  starts_.push_back(pos);
}

std::size_t MultipartLayout::head_size(const MultipartPart& part) const noexcept {
  return static_cast<std::size_t>(
      part_head_size(head_prefix_.size() + head_suffix_.size(), part.range));
}

std::string MultipartLayout::head(const MultipartPart& part) const {
  std::string out;
  out.reserve(head_size(part));
  out.append(head_prefix_);
  append_decimal(out, part.range.first);
  out.push_back('-');
  append_decimal(out, part.range.last);
  out.append(head_suffix_);
  return out;
}

std::size_t MultipartLayout::part_at(std::uint64_t offset) const noexcept {
  // The last start not greater than offset; starts_.front() == 0.
  const auto it = std::upper_bound(starts_.begin(), starts_.end(), offset);
  return static_cast<std::size_t>(it - starts_.begin()) - 1;
}

void MultipartLayout::append_bytes(std::string& out, std::uint64_t offset,
                                   std::uint64_t length) const {
  assert(offset + length <= size());
  // Each part is three regions: head, payload, CRLF; the closing delimiter
  // follows the last part.
  const std::uint64_t end = offset + length;
  for (std::size_t i = part_at(offset); offset < end; ++i) {
    if (i == parts_.size()) {
      out.append(closing_, static_cast<std::size_t>(offset - starts_[i]),
                 static_cast<std::size_t>(end - offset));
      return;
    }
    const MultipartPart& part = parts_[i];
    const std::uint64_t payload_at = starts_[i] + head_size(part);
    const std::uint64_t crlf_at = payload_at + part.length;
    if (offset < payload_at) {
      const std::uint64_t n = std::min(end, payload_at) - offset;
      out.append(head(part), static_cast<std::size_t>(offset - starts_[i]),
                 static_cast<std::size_t>(n));
      offset += n;
    }
    if (offset < end && offset < crlf_at) {
      const std::uint64_t n = std::min(end, crlf_at) - offset;
      source_.slice(part.source_offset + (offset - payload_at), n)
          .materialize_into(out);
      offset += n;
    }
    if (offset < end) {
      const std::uint64_t n = std::min(end, starts_[i + 1]) - offset;
      out.append(kCrlf.substr(static_cast<std::size_t>(offset - crlf_at),
                              static_cast<std::size_t>(n)));
      offset += n;
    }
  }
}

std::uint8_t MultipartLayout::byte_at(std::uint64_t offset) const {
  assert(offset < size());
  const std::size_t i = part_at(offset);
  std::uint64_t at = offset - starts_[i];
  if (i == parts_.size()) return static_cast<std::uint8_t>(closing_[at]);
  const MultipartPart& part = parts_[i];
  const std::uint64_t head_len = head_size(part);
  if (at < head_len) {
    return static_cast<std::uint8_t>(head(part)[static_cast<std::size_t>(at)]);
  }
  at -= head_len;
  if (at < part.length) return source_.at(part.source_offset + at);
  return static_cast<std::uint8_t>(kCrlf[static_cast<std::size_t>(at - part.length)]);
}

Body build_multipart_byteranges(const MultipartFraming& framing,
                                std::uint64_t resource_size, Body source,
                                std::vector<MultipartPart> parts) {
  return Body::multipart(std::make_shared<const MultipartLayout>(
      framing, resource_size, std::move(source), std::move(parts)));
}

Body build_multipart_byteranges(const Body& entity,
                                const std::vector<ResolvedRange>& ranges,
                                std::uint64_t resource_size,
                                std::string_view content_type,
                                std::string_view boundary) {
  assert(entity.size() == resource_size);
  std::vector<MultipartPart> parts;
  parts.reserve(ranges.size());
  for (const auto& r : ranges) parts.push_back({r, r.first, r.length()});
  return build_multipart_byteranges({boundary, content_type}, resource_size,
                                    entity, std::move(parts));
}

std::uint64_t multipart_byteranges_size(const std::vector<ResolvedRange>& ranges,
                                        std::uint64_t resource_size,
                                        std::string_view content_type,
                                        std::string_view boundary) {
  const std::size_t fixed = head_prefix({boundary, content_type}).size() +
                            head_suffix(resource_size).size();
  std::uint64_t total = closing_delimiter(boundary).size();
  for (const auto& r : ranges) {
    total += part_head_size(fixed, r) + part_tail_size(r.length());
  }
  return total;
}

std::string multipart_content_type(std::string_view boundary) {
  std::string out = "multipart/byteranges; boundary=";
  out.append(boundary);
  return out;
}

std::optional<std::string> boundary_from_content_type(std::string_view value) {
  constexpr std::string_view kType = "multipart/byteranges";
  if (!value.starts_with(kType)) return std::nullopt;
  const auto pos = value.find("boundary=");
  if (pos == std::string_view::npos) return std::nullopt;
  std::string_view b = value.substr(pos + 9);
  // Strip optional quotes and trailing parameters.
  if (!b.empty() && b.front() == '"') {
    b.remove_prefix(1);
    const auto q = b.find('"');
    if (q == std::string_view::npos) return std::nullopt;
    b = b.substr(0, q);
  } else {
    const auto sc = b.find(';');
    if (sc != std::string_view::npos) b = b.substr(0, sc);
  }
  if (!valid_boundary(b)) return std::nullopt;
  return std::string{b};
}

std::optional<std::vector<BytesRangePart>> parse_multipart_byteranges(
    std::string_view body, std::string_view boundary) {
  const std::string delim = "--" + std::string{boundary};
  const std::string closing = delim + "--";
  std::vector<BytesRangePart> parts;

  std::size_t cursor = 0;
  while (true) {
    const auto start = body.find(delim, cursor);
    if (start == std::string_view::npos) return std::nullopt;
    // Closing delimiter?
    if (body.compare(start, closing.size(), closing) == 0) break;
    std::size_t line_end = body.find("\r\n", start);
    if (line_end == std::string_view::npos) return std::nullopt;
    std::size_t pos = line_end + 2;

    BytesRangePart part;
    std::optional<ContentRange> cr;
    // Part headers until blank line.
    while (true) {
      const auto eol = body.find("\r\n", pos);
      if (eol == std::string_view::npos) return std::nullopt;
      if (eol == pos) {  // blank line
        pos = eol + 2;
        break;
      }
      const std::string_view line = body.substr(pos, eol - pos);
      const auto colon = line.find(':');
      if (colon == std::string_view::npos) return std::nullopt;
      std::string_view name = line.substr(0, colon);
      std::string_view value = line.substr(colon + 1);
      while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
      if (iequals(name, "Content-Type")) {
        part.content_type = std::string{value};
      } else if (iequals(name, "Content-Range")) {
        cr = parse_content_range(value);
        if (!cr) return std::nullopt;
      }
      pos = eol + 2;
    }
    if (!cr) return std::nullopt;
    part.range = cr->range;
    part.resource_size = cr->resource_size;
    const std::uint64_t len = part.range.length();
    if (body.size() - pos < len + 2) return std::nullopt;
    part.payload = Body::literal(std::string{body.substr(pos, len)});
    pos += len;
    if (body.compare(pos, 2, "\r\n") != 0) return std::nullopt;
    parts.push_back(std::move(part));
    cursor = pos + 2;
  }
  return parts;
}

}  // namespace rangeamp::http

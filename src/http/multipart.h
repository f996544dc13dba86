// multipart/byteranges framing (RFC 7233 appendix A).
//
// A multi-part 206 body looks like:
//
//   --BOUNDARY\r\n
//   [vendor extra part headers]\r\n
//   Content-Type: image/jpeg\r\n
//   Content-Range: bytes 1-1/1000\r\n
//   \r\n
//   <payload bytes>\r\n
//   --BOUNDARY\r\n
//   ...
//   --BOUNDARY--\r\n
//
// The per-part framing overhead (~100-160 bytes depending on the boundary
// string and the Content-Range digits) is why the OBR attack's measured
// amplification in Table V exceeds n * resource_size by a few percent.
//
// Every multipart body in the simulator -- origin, malicious origin and CDN
// node alike -- comes from the one builder below.  It never spells a part
// header: a MultipartLayout keeps the framing strings once and the part
// starts as prefix sums of closed-form lengths (fixed framing + decimal digit
// counts + payload + CRLF), and the returned Body is a single window onto
// it.  Sizes are therefore exact before any framing byte exists, and bytes are
// produced only when something reads them (materialize(), at()).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "http/body.h"
#include "http/headers.h"
#include "http/range.h"

namespace rangeamp::http {

/// One part of a multipart/byteranges payload.
struct BytesRangePart {
  ResolvedRange range;
  std::uint64_t resource_size = 0;
  std::string content_type;
  Body payload;
};

/// What every part of one multipart body repeats.
struct MultipartFraming {
  std::string_view boundary;
  std::string_view content_type;  ///< the part-level Content-Type
  /// Vendor header lines written between the delimiter and Content-Type
  /// (Azure's padded X-Part-Trace).
  std::span<const HeaderField> extra_headers = {};
};

/// One part to frame: the range its Content-Range announces and where its
/// payload lies in the builder's source body.
struct MultipartPart {
  ResolvedRange range;
  std::uint64_t source_offset = 0;
  std::uint64_t length = 0;  ///< payload bytes; normally range.length()
};

/// A shared, immutable description of one multipart/byteranges body.
class MultipartLayout {
 public:
  MultipartLayout(const MultipartFraming& framing, std::uint64_t resource_size,
                  Body source, std::vector<MultipartPart> parts);

  /// Exact body size, framing included.
  std::uint64_t size() const noexcept { return starts_.back() + closing_.size(); }

  /// Appends body bytes [offset, offset+length) to `out`.
  void append_bytes(std::string& out, std::uint64_t offset,
                    std::uint64_t length) const;
  /// The body byte at `offset`; requires offset < size().
  std::uint8_t byte_at(std::uint64_t offset) const;

 private:
  std::size_t head_size(const MultipartPart& part) const noexcept;
  std::string head(const MultipartPart& part) const;
  /// Index of the part containing `offset`, or parts_.size() for the
  /// closing delimiter.
  std::size_t part_at(std::uint64_t offset) const noexcept;

  /// "--B\r\n", the extra header lines, "Content-Type: T\r\n" and
  /// "Content-Range: bytes ": everything of a part head before its digits.
  std::string head_prefix_;
  std::string head_suffix_;  ///< "/<total>\r\n\r\n"
  std::string closing_;      ///< "--B--\r\n"
  Body source_;
  std::vector<MultipartPart> parts_;
  /// starts_[i] is the offset of part i's delimiter; starts_[n] that of the
  /// closing delimiter.
  std::vector<std::uint64_t> starts_;
};

/// The multipart builder: frames `parts` of `source` as one lazy body.
/// `boundary` must not occur in the payload (synthetic payloads make
/// collisions astronomically unlikely; callers use fixed vendor-flavored
/// boundaries).
Body build_multipart_byteranges(const MultipartFraming& framing,
                                std::uint64_t resource_size, Body source,
                                std::vector<MultipartPart> parts);

/// Frames the given resolved ranges of `entity` (the full representation).
Body build_multipart_byteranges(const Body& entity,
                                const std::vector<ResolvedRange>& ranges,
                                std::uint64_t resource_size,
                                std::string_view content_type,
                                std::string_view boundary);

/// Exact size of the body build_multipart_byteranges() would produce,
/// computed in closed form without building it.
std::uint64_t multipart_byteranges_size(const std::vector<ResolvedRange>& ranges,
                                        std::uint64_t resource_size,
                                        std::string_view content_type,
                                        std::string_view boundary);

/// The Content-Type header value announcing the multipart body.
std::string multipart_content_type(std::string_view boundary);

/// Extracts the boundary parameter from a Content-Type value like
/// "multipart/byteranges; boundary=XYZ".  RFC 2046 quoted boundaries
/// (boundary="X") are accepted and unquoted.  Returns nullopt when the value
/// is not a multipart/byteranges type or the boundary falls outside the
/// RFC 2046 grammar (over 70 chars, characters outside bchars, trailing
/// space) -- a malformed boundary is an injection vector, not a parameter.
std::optional<std::string> boundary_from_content_type(std::string_view value);

/// Parses a materialized multipart/byteranges body back into parts.
/// Test/verification helper; returns nullopt on framing errors.
std::optional<std::vector<BytesRangePart>> parse_multipart_byteranges(
    std::string_view body, std::string_view boundary);

}  // namespace rangeamp::http

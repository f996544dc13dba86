// Message body representation.
//
// The experiments in the paper move resources of up to 25 MB through several
// network segments thousands of times.  The metric is always *bytes on the
// wire*, so materializing those payloads would be pure waste.  A Body is a
// sequence of chunks of three kinds:
//
//   * a literal string (error texts, small test payloads, parsed wire bytes);
//   * a *synthetic span*: a (resource seed, offset, length) triple whose bytes
//     are produced by a deterministic function on demand;
//   * a *multipart window*: {offset, length} onto a shared, immutable
//     MultipartLayout (http/multipart.h) -- a whole multipart/byteranges body
//     described by its framing strings, one source Body and per-part ranges.
//     An n-part OBR answer is one such chunk, not 2n+1 strings.
//
// Costs, with c the number of chunks (1 for every body an OBR exchange moves):
//   copy of a synthetic or window chunk               O(1)
//   append (merges adjacent literals, contiguous synthetic spans and
//           contiguous windows of the same layout)    O(1) plus the literal copy
//   size(), empty(), slice(), truncate()              O(c)
//   at()                                              O(c), plus O(log n) parts
//                                                     for a window chunk
//   materialize()                                     O(bytes produced)
// Bytes of synthetic spans and multipart windows exist only when read.
//
// Synthetic bytes are deterministic in (seed, absolute offset), so a slice of
// a synthetic body equals the corresponding substring of the materialized
// whole; tests rely on this to verify range semantics byte-for-byte.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace rangeamp::http {

/// The deterministic content byte of synthetic resource `seed` at `offset`.
std::uint8_t synthetic_byte(std::uint64_t seed, std::uint64_t offset) noexcept;

/// A contiguous run of synthetic resource bytes.
struct SyntheticSpan {
  std::uint64_t seed = 0;    ///< identifies the resource's content stream
  std::uint64_t offset = 0;  ///< absolute offset within that stream
  std::uint64_t length = 0;

  bool operator==(const SyntheticSpan&) const = default;
};

class MultipartLayout;  // http/multipart.h

/// A run of bytes of one lazily framed multipart/byteranges body.
struct MultipartWindow {
  std::shared_ptr<const MultipartLayout> layout;
  std::uint64_t offset = 0;  ///< position within the layout's body
  std::uint64_t length = 0;

  bool operator==(const MultipartWindow&) const = default;
};

/// A body chunk: literal bytes, a synthetic span or a multipart window.
using BodyChunk = std::variant<std::string, SyntheticSpan, MultipartWindow>;

/// A message body as an ordered chunk list.
class Body {
 public:
  Body() = default;

  /// A body holding literal bytes.
  static Body literal(std::string bytes);

  /// A body holding `length` synthetic bytes of resource `seed`, starting at
  /// absolute offset `offset` within the resource.
  static Body synthetic(std::uint64_t seed, std::uint64_t offset, std::uint64_t length);

  /// The whole multipart body `layout` describes, as one window chunk.
  static Body multipart(std::shared_ptr<const MultipartLayout> layout);

  /// Appends a chunk (merging adjacent compatible chunks when possible).
  void append(BodyChunk chunk);
  void append_literal(std::string_view bytes);
  void append_synthetic(std::uint64_t seed, std::uint64_t offset, std::uint64_t length);
  void append_body(const Body& other);

  /// Total size in bytes. O(number of chunks).
  std::uint64_t size() const noexcept;

  bool empty() const noexcept { return size() == 0; }

  /// The sub-body covering byte positions [first, first+length).
  /// Requires first + length <= size().
  Body slice(std::uint64_t first, std::uint64_t length) const;

  /// Truncates the body to at most `max_bytes` (used to model aborted
  /// transfers, e.g. Azure closing its first back-to-origin connection once
  /// 8 MB of payload have arrived).
  void truncate(std::uint64_t max_bytes);

  /// Materializes the full byte string.  Intended for tests, the socket path
  /// and small bodies; costs O(size()).
  std::string materialize() const;

  /// Appends the full byte string to `out`.
  void materialize_into(std::string& out) const;

  /// The byte at position `pos` without materializing. Requires pos < size().
  std::uint8_t at(std::uint64_t pos) const;

  const std::vector<BodyChunk>& chunks() const noexcept { return chunks_; }

  /// Logical byte equality, whatever the chunk layouts.
  bool operator==(const Body& other) const;

 private:
  std::vector<BodyChunk> chunks_;
};

}  // namespace rangeamp::http

#include "http/body.h"

#include <algorithm>
#include <cassert>

#include "http/multipart.h"

namespace rangeamp::http {

std::uint8_t synthetic_byte(std::uint64_t seed, std::uint64_t offset) noexcept {
  // splitmix64-style mix of (seed, offset): cheap, well distributed, and
  // stable across platforms so serialized byte counts are reproducible.
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + offset + 0xD1B54A32D192ED03ULL;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<std::uint8_t>(x & 0xFF);
}

namespace {

std::uint64_t chunk_size(const BodyChunk& c) noexcept {
  if (const auto* s = std::get_if<std::string>(&c)) return s->size();
  if (const auto* span = std::get_if<SyntheticSpan>(&c)) return span->length;
  return std::get<MultipartWindow>(c).length;
}

// The bytes [first, first+length) of chunk `c`, as a chunk of the same kind.
BodyChunk sub_chunk(const BodyChunk& c, std::uint64_t first, std::uint64_t length) {
  if (const auto* s = std::get_if<std::string>(&c)) {
    return s->substr(static_cast<std::size_t>(first), static_cast<std::size_t>(length));
  }
  if (const auto* span = std::get_if<SyntheticSpan>(&c)) {
    return SyntheticSpan{span->seed, span->offset + first, length};
  }
  const auto& window = std::get<MultipartWindow>(c);
  return MultipartWindow{window.layout, window.offset + first, length};
}

}  // namespace

Body Body::literal(std::string bytes) {
  Body b;
  b.append(std::move(bytes));
  return b;
}

Body Body::synthetic(std::uint64_t seed, std::uint64_t offset, std::uint64_t length) {
  Body b;
  b.append(SyntheticSpan{seed, offset, length});
  return b;
}

Body Body::multipart(std::shared_ptr<const MultipartLayout> layout) {
  Body b;
  const std::uint64_t length = layout->size();
  b.append(MultipartWindow{std::move(layout), 0, length});
  return b;
}

void Body::append(BodyChunk chunk) {
  const std::uint64_t length = chunk_size(chunk);
  if (length == 0) return;
  if (!chunks_.empty()) {
    BodyChunk& back = chunks_.back();
    if (auto* s = std::get_if<std::string>(&chunk)) {
      if (auto* prev = std::get_if<std::string>(&back)) {
        prev->append(*s);
        return;
      }
    } else if (auto* span = std::get_if<SyntheticSpan>(&chunk)) {
      auto* prev = std::get_if<SyntheticSpan>(&back);
      if (prev && prev->seed == span->seed &&
          prev->offset + prev->length == span->offset) {
        prev->length += span->length;
        return;
      }
    } else {
      const auto& window = std::get<MultipartWindow>(chunk);
      auto* prev = std::get_if<MultipartWindow>(&back);
      if (prev && prev->layout == window.layout &&
          prev->offset + prev->length == window.offset) {
        prev->length += window.length;
        return;
      }
    }
  }
  chunks_.push_back(std::move(chunk));
}

void Body::append_literal(std::string_view bytes) { append(std::string{bytes}); }

void Body::append_synthetic(std::uint64_t seed, std::uint64_t offset, std::uint64_t length) {
  append(SyntheticSpan{seed, offset, length});
}

void Body::append_body(const Body& other) {
  for (const auto& c : other.chunks_) append(c);
}

std::uint64_t Body::size() const noexcept {
  std::uint64_t total = 0;
  for (const auto& c : chunks_) total += chunk_size(c);
  return total;
}

Body Body::slice(std::uint64_t first, std::uint64_t length) const {
  assert(first + length <= size());
  Body out;
  std::uint64_t pos = 0;  // absolute position of current chunk start
  for (const auto& c : chunks_) {
    if (length == 0) break;
    const std::uint64_t chunk_end = pos + chunk_size(c);
    if (chunk_end > first) {
      const std::uint64_t begin_in_chunk = first - pos;
      const std::uint64_t take = std::min(chunk_end - first, length);
      out.append(sub_chunk(c, begin_in_chunk, take));
      first += take;
      length -= take;
    }
    pos = chunk_end;
  }
  return out;
}

void Body::truncate(std::uint64_t max_bytes) {
  if (size() <= max_bytes) return;
  *this = slice(0, max_bytes);
}

std::string Body::materialize() const {
  std::string out;
  out.reserve(static_cast<std::size_t>(size()));
  materialize_into(out);
  return out;
}

void Body::materialize_into(std::string& out) const {
  for (const auto& c : chunks_) {
    if (const auto* s = std::get_if<std::string>(&c)) {
      out.append(*s);
    } else if (const auto* span = std::get_if<SyntheticSpan>(&c)) {
      for (std::uint64_t i = 0; i < span->length; ++i) {
        out.push_back(static_cast<char>(synthetic_byte(span->seed, span->offset + i)));
      }
    } else {
      const auto& window = std::get<MultipartWindow>(c);
      window.layout->append_bytes(out, window.offset, window.length);
    }
  }
}

std::uint8_t Body::at(std::uint64_t pos) const {
  assert(pos < size());
  std::uint64_t chunk_start = 0;
  for (const auto& c : chunks_) {
    const std::uint64_t chunk_len = chunk_size(c);
    if (pos < chunk_start + chunk_len) {
      const std::uint64_t off = pos - chunk_start;
      if (const auto* s = std::get_if<std::string>(&c)) {
        return static_cast<std::uint8_t>((*s)[static_cast<std::size_t>(off)]);
      }
      if (const auto* span = std::get_if<SyntheticSpan>(&c)) {
        return synthetic_byte(span->seed, span->offset + off);
      }
      const auto& window = std::get<MultipartWindow>(c);
      return window.layout->byte_at(window.offset + off);
    }
    chunk_start += chunk_len;
  }
  assert(false && "position out of range");
  return 0;
}

bool Body::operator==(const Body& other) const {
  if (size() != other.size()) return false;
  // Fast path: identical chunk vectors.
  if (chunks_ == other.chunks_) return true;
  // Chunk layouts differ: compare logical bytes one bounded window at a time.
  constexpr std::uint64_t kWindow = 64 * 1024;
  for (std::uint64_t pos = 0; pos < size(); pos += kWindow) {
    const std::uint64_t n = std::min(kWindow, size() - pos);
    if (slice(pos, n).materialize() != other.slice(pos, n).materialize()) {
      return false;
    }
  }
  return true;
}

}  // namespace rangeamp::http

#include "http/range.h"

#include <gtest/gtest.h>

#include <charconv>

#include "http/generator.h"

namespace rangeamp::http {
namespace {

// ---------------------------------------------------------------------------
// Grammar: parse_range_header
// ---------------------------------------------------------------------------

TEST(ParseRange, SingleClosed) {
  const auto set = parse_range_header("bytes=0-499");
  ASSERT_TRUE(set);
  ASSERT_EQ(set->count(), 1u);
  EXPECT_EQ(set->specs[0], ByteRangeSpec::closed(0, 499));
}

TEST(ParseRange, SingleOpen) {
  const auto set = parse_range_header("bytes=9500-");
  ASSERT_TRUE(set);
  EXPECT_EQ(set->specs[0], ByteRangeSpec::open(9500));
}

TEST(ParseRange, SingleSuffix) {
  const auto set = parse_range_header("bytes=-500");
  ASSERT_TRUE(set);
  EXPECT_EQ(set->specs[0], ByteRangeSpec::suffix_of(500));
}

TEST(ParseRange, MultipleMixed) {
  const auto set = parse_range_header("bytes=1-1,-2,7-");
  ASSERT_TRUE(set);
  ASSERT_EQ(set->count(), 3u);
  EXPECT_EQ(set->specs[0], ByteRangeSpec::closed(1, 1));
  EXPECT_EQ(set->specs[1], ByteRangeSpec::suffix_of(2));
  EXPECT_EQ(set->specs[2], ByteRangeSpec::open(7));
}

TEST(ParseRange, ToleratesOwsAndEmptyListElements) {
  // RFC 7230 #rule: empty elements and OWS around elements are legal.
  const auto set = parse_range_header("bytes= 0-0 , , 5-9 ,");
  ASSERT_TRUE(set);
  ASSERT_EQ(set->count(), 2u);
  EXPECT_EQ(set->specs[1], ByteRangeSpec::closed(5, 9));
}

TEST(ParseRange, UnitIsCaseInsensitive) {
  EXPECT_TRUE(parse_range_header("Bytes=0-0"));
  EXPECT_TRUE(parse_range_header("BYTES=0-0"));
}

TEST(ParseRange, RejectsMalformed) {
  // Unknown unit.
  EXPECT_FALSE(parse_range_header("items=0-5"));
  // No unit.
  EXPECT_FALSE(parse_range_header("0-5"));
  // Empty set.
  EXPECT_FALSE(parse_range_header("bytes="));
  EXPECT_FALSE(parse_range_header("bytes=,"));
  // last < first is an invalid byte-range-spec (RFC 7233 section 2.1).
  EXPECT_FALSE(parse_range_header("bytes=5-4"));
  // Bare dash selects nothing and has no digits.
  EXPECT_FALSE(parse_range_header("bytes=-"));
  // Non-numeric positions.
  EXPECT_FALSE(parse_range_header("bytes=a-b"));
  EXPECT_FALSE(parse_range_header("bytes=1-2x"));
  EXPECT_FALSE(parse_range_header("bytes=1.5-2"));
  // Negative first position is not grammar (it would parse as suffix "-1"
  // followed by junk).
  EXPECT_FALSE(parse_range_header("bytes=-1-2"));
  // One bad spec poisons the whole header.
  EXPECT_FALSE(parse_range_header("bytes=0-0,5-4"));
  EXPECT_FALSE(parse_range_header("bytes=0-0,oops"));
}

TEST(ParseRange, SuffixZeroParsesButIsUnsatisfiable) {
  // "-0" matches the grammar; satisfiability is a resolution concern.
  const auto set = parse_range_header("bytes=-0");
  ASSERT_TRUE(set);
  EXPECT_FALSE(resolve(set->specs[0], 100).has_value());
}

TEST(ParseRange, RoundTripsThroughToString) {
  for (const char* value :
       {"bytes=0-0", "bytes=-1", "bytes=5-", "bytes=1-1,-2,7-",
        "bytes=0-,0-,0-", "bytes=8388608-16777215"}) {
    const auto set = parse_range_header(value);
    ASSERT_TRUE(set) << value;
    EXPECT_EQ(set->to_string(), value);
    const auto again = parse_range_header(set->to_string());
    ASSERT_TRUE(again);
    EXPECT_EQ(*again, *set);
  }
}

TEST(ParseRange, HugeValuesParse) {
  const auto set = parse_range_header("bytes=18446744073709551614-");
  ASSERT_TRUE(set);
  EXPECT_EQ(*set->specs[0].first, 18446744073709551614ULL);
}

TEST(ParseRange, LengthGuardBoundaries) {
  // A value of exactly the limit parses; one byte more is rejected before
  // any parsing work happens.  Trailing OWS keeps the value well-formed.
  const std::string at_limit =
      "bytes=0-0" + std::string(kMaxRangeHeaderBytes - 9, ' ');
  ASSERT_EQ(at_limit.size(), kMaxRangeHeaderBytes);
  EXPECT_TRUE(parse_range_header(at_limit));
  EXPECT_FALSE(parse_range_header(at_limit + " "));
}

TEST(ParseRange, LengthGuardIsConfigurable) {
  EXPECT_TRUE(parse_range_header("bytes=0-0", 9));
  EXPECT_FALSE(parse_range_header("bytes=0-0", 8));
  // 0 disables the guard entirely.
  const std::string huge =
      "bytes=0-0" + std::string(kMaxRangeHeaderBytes, ' ');
  EXPECT_FALSE(parse_range_header(huge));
  EXPECT_TRUE(parse_range_header(huge, 0));
}

TEST(ParseRange, GuardAdmitsTheLargestExperimentHeader) {
  // The biggest header any RangeAmp experiment emits (StackPath's OBR case,
  // thousands of "0-" specs, ~81 KB) must stay inside the default guard.
  std::string value = "bytes=0-0";
  while (value.size() < 100 * 1024) value += ",0-0";
  const auto set = parse_range_header(value);
  ASSERT_TRUE(set);
  EXPECT_GT(set->count(), 20000u);
}

// ---------------------------------------------------------------------------
// Resolution: RFC 7233 section 2.1 satisfiability
// ---------------------------------------------------------------------------

TEST(Resolve, ClosedWithinBounds) {
  const auto r = resolve(ByteRangeSpec::closed(10, 19), 100);
  ASSERT_TRUE(r);
  EXPECT_EQ(*r, (ResolvedRange{10, 19}));
  EXPECT_EQ(r->length(), 10u);
}

TEST(Resolve, ClosedClampsLastToEnd) {
  const auto r = resolve(ByteRangeSpec::closed(90, 1000), 100);
  ASSERT_TRUE(r);
  EXPECT_EQ(*r, (ResolvedRange{90, 99}));
}

TEST(Resolve, FirstAtOrBeyondSizeIsUnsatisfiable) {
  EXPECT_FALSE(resolve(ByteRangeSpec::closed(100, 100), 100));
  EXPECT_FALSE(resolve(ByteRangeSpec::open(100), 100));
  EXPECT_TRUE(resolve(ByteRangeSpec::closed(99, 99), 100));
}

TEST(Resolve, OpenRunsToEnd) {
  const auto r = resolve(ByteRangeSpec::open(40), 100);
  ASSERT_TRUE(r);
  EXPECT_EQ(*r, (ResolvedRange{40, 99}));
}

TEST(Resolve, SuffixTakesLastBytes) {
  const auto r = resolve(ByteRangeSpec::suffix_of(2), 1000);
  ASSERT_TRUE(r);
  EXPECT_EQ(*r, (ResolvedRange{998, 999}));
}

TEST(Resolve, SuffixLargerThanResourceIsWholeResource) {
  const auto r = resolve(ByteRangeSpec::suffix_of(5000), 100);
  ASSERT_TRUE(r);
  EXPECT_EQ(*r, (ResolvedRange{0, 99}));
}

TEST(Resolve, EmptyResourceSatisfiesNothing) {
  EXPECT_FALSE(resolve(ByteRangeSpec::closed(0, 0), 0));
  EXPECT_FALSE(resolve(ByteRangeSpec::suffix_of(5), 0));
  EXPECT_FALSE(resolve(ByteRangeSpec::open(0), 0));
}

TEST(ResolveAll, DropsUnsatisfiableMembers) {
  RangeSet set;
  set.specs = {ByteRangeSpec::closed(0, 0), ByteRangeSpec::closed(500, 600),
               ByteRangeSpec::suffix_of(1)};
  const auto resolved = resolve_all(set, 100);
  ASSERT_EQ(resolved.size(), 2u);
  EXPECT_EQ(resolved[0], (ResolvedRange{0, 0}));
  EXPECT_EQ(resolved[1], (ResolvedRange{99, 99}));
}

TEST(ResolveAll, PreservesRequestOrder) {
  RangeSet set;
  set.specs = {ByteRangeSpec::closed(50, 59), ByteRangeSpec::closed(0, 9)};
  const auto resolved = resolve_all(set, 100);
  ASSERT_EQ(resolved.size(), 2u);
  EXPECT_EQ(resolved[0].first, 50u);
  EXPECT_EQ(resolved[1].first, 0u);
}

// ---------------------------------------------------------------------------
// Range-set properties
// ---------------------------------------------------------------------------

TEST(RangeProperties, OverlapDetection) {
  EXPECT_TRUE((ResolvedRange{0, 10}).overlaps({10, 20}));
  EXPECT_TRUE((ResolvedRange{5, 15}).overlaps({0, 30}));
  EXPECT_FALSE((ResolvedRange{0, 9}).overlaps({10, 20}));
  EXPECT_TRUE(any_overlap({{0, 99}, {50, 60}}));
  EXPECT_FALSE(any_overlap({{0, 9}, {10, 19}, {30, 40}}));
  EXPECT_FALSE(any_overlap({}));
  EXPECT_FALSE(any_overlap({{0, 10}}));
}

TEST(RangeProperties, OverlappingPairCount) {
  // n identical open ranges -> n*(n-1)/2 overlapping pairs.
  std::vector<ResolvedRange> same(5, ResolvedRange{0, 99});
  EXPECT_EQ(overlapping_pair_count(same), 10u);
  EXPECT_EQ(overlapping_pair_count({{0, 9}, {10, 19}}), 0u);
}

TEST(RangeProperties, AscendingDisjoint) {
  EXPECT_TRUE(is_ascending_disjoint({{0, 9}, {10, 19}, {30, 40}}));
  EXPECT_FALSE(is_ascending_disjoint({{10, 19}, {0, 9}}));
  EXPECT_FALSE(is_ascending_disjoint({{0, 10}, {10, 20}}));
  EXPECT_TRUE(is_ascending_disjoint({}));
  EXPECT_TRUE(is_ascending_disjoint({{5, 5}}));
}

TEST(RangeProperties, CoalesceMergesOverlappingAndAdjacent) {
  const auto merged = coalesce({{10, 20}, {0, 5}, {6, 9}, {50, 60}, {15, 30}});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0], (ResolvedRange{0, 30}));
  EXPECT_EQ(merged[1], (ResolvedRange{50, 60}));
}

TEST(RangeProperties, CoalesceIdentityOnDisjoint) {
  const std::vector<ResolvedRange> disjoint{{0, 1}, {3, 4}, {100, 200}};
  EXPECT_EQ(coalesce(disjoint), disjoint);
}

TEST(RangeProperties, TotalSelectedBytesCountsOverlapsMultiply) {
  // The OBR payload arithmetic: n copies of the whole resource.
  std::vector<ResolvedRange> ranges(7, ResolvedRange{0, 1023});
  EXPECT_EQ(total_selected_bytes(ranges), 7u * 1024u);
}

// ---------------------------------------------------------------------------
// Content-Range
// ---------------------------------------------------------------------------

TEST(ContentRangeFormat, FormatsAndParses) {
  EXPECT_EQ(content_range({0, 0}, 1000), "bytes 0-0/1000");
  EXPECT_EQ(content_range({998, 999}, 1000), "bytes 998-999/1000");
  EXPECT_EQ(content_range_unsatisfied(100), "bytes */100");

  const auto cr = parse_content_range("bytes 0-0/1000");
  ASSERT_TRUE(cr);
  EXPECT_EQ(cr->range, (ResolvedRange{0, 0}));
  EXPECT_EQ(cr->resource_size, 1000u);
}

TEST(ContentRangeFormat, ParseRejectsNonsense) {
  EXPECT_FALSE(parse_content_range("bytes */100"));  // unsatisfied form
  EXPECT_FALSE(parse_content_range("bytes 5-4/100"));
  EXPECT_FALSE(parse_content_range("bytes 0-100/100"));  // last >= size
  EXPECT_FALSE(parse_content_range("items 0-0/10"));
  EXPECT_FALSE(parse_content_range("bytes 0-0"));
}

TEST(ContentRangeFormat, RoundTrip) {
  const ResolvedRange r{8388608, 16777215};
  const auto cr = parse_content_range(content_range(r, 26214400));
  ASSERT_TRUE(cr);
  EXPECT_EQ(cr->range, r);
  EXPECT_EQ(cr->resource_size, 26214400u);
}

// ---------------------------------------------------------------------------
// Decimal field parsing (Content-Length, Content-Range positions)
// ---------------------------------------------------------------------------

TEST(ParseU64, AcceptsExactlyOneOrMoreDigits) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("007"), 7u);
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
  EXPECT_FALSE(parse_u64(""));
  EXPECT_FALSE(parse_u64("18446744073709551616"));  // overflow
  EXPECT_FALSE(parse_u64("12a"));                   // trailing byte
  EXPECT_FALSE(parse_u64("12 "));
  EXPECT_FALSE(parse_u64(" 12"));
  EXPECT_FALSE(parse_u64("+12"));
  EXPECT_FALSE(parse_u64("-12"));
}

// ---------------------------------------------------------------------------
// Parameterized property sweep: resolution invariants over many sizes
// ---------------------------------------------------------------------------

class ResolveProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ResolveProperty, ResolvedRangesAlwaysWithinBounds) {
  const std::uint64_t size = GetParam();
  const std::vector<ByteRangeSpec> specs = {
      ByteRangeSpec::closed(0, 0),
      ByteRangeSpec::closed(size / 2, size),
      ByteRangeSpec::closed(size - 1, size + 100),
      ByteRangeSpec::open(0),
      ByteRangeSpec::open(size / 3),
      ByteRangeSpec::suffix_of(1),
      ByteRangeSpec::suffix_of(size),
      ByteRangeSpec::suffix_of(size * 2),
  };
  for (const auto& spec : specs) {
    const auto r = resolve(spec, size);
    if (!r) continue;
    EXPECT_LE(r->first, r->last);
    EXPECT_LT(r->last, size);
    EXPECT_GE(r->length(), 1u);
    EXPECT_LE(r->length(), size);
  }
}

TEST_P(ResolveProperty, CoalesceIsIdempotentAndConserving) {
  const std::uint64_t size = GetParam();
  std::vector<ResolvedRange> ranges;
  for (std::uint64_t i = 0; i + 1 < size && ranges.size() < 20; i += size / 7 + 1) {
    ranges.push_back({i, std::min(size - 1, i + size / 5)});
  }
  const auto once = coalesce(ranges);
  EXPECT_EQ(coalesce(once), once);
  EXPECT_TRUE(is_ascending_disjoint(once));
  // Coalescing never selects more bytes than the raw set.
  EXPECT_LE(total_selected_bytes(once), std::max(total_selected_bytes(ranges),
                                                 static_cast<std::uint64_t>(0)));
  // And never loses coverage: every original first/last is inside some
  // merged range.
  for (const auto& r : ranges) {
    bool first_covered = false, last_covered = false;
    for (const auto& m : once) {
      if (r.first >= m.first && r.first <= m.last) first_covered = true;
      if (r.last >= m.first && r.last <= m.last) last_covered = true;
    }
    EXPECT_TRUE(first_covered && last_covered);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ResolveProperty,
                         ::testing::Values(1, 2, 3, 16, 100, 1024, 65537,
                                           1u << 20, 26214400));


// ---------------------------------------------------------------------------
// Codec property: the one-pass parser and the to_chars spelling against the
// split/trim/substr parser and std::to_string spelling they replaced.
// ---------------------------------------------------------------------------

namespace reference {

std::string_view trim_ows(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
  return s;
}

std::optional<std::uint64_t> parse_pos(std::string_view s) {
  if (s.empty()) return std::nullopt;
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

std::optional<ByteRangeSpec> parse_spec(std::string_view s) {
  s = trim_ows(s);
  const auto dash = s.find('-');
  if (dash == std::string_view::npos) return std::nullopt;
  const std::string_view before = s.substr(0, dash);
  const std::string_view after = s.substr(dash + 1);
  if (before.empty()) {
    const auto suffix = parse_pos(after);
    if (!suffix) return std::nullopt;
    return ByteRangeSpec::suffix_of(*suffix);
  }
  const auto first = parse_pos(before);
  if (!first) return std::nullopt;
  if (after.empty()) return ByteRangeSpec::open(*first);
  const auto last = parse_pos(after);
  if (!last || *last < *first) return std::nullopt;
  return ByteRangeSpec::closed(*first, *last);
}

std::optional<RangeSet> parse(std::string_view value) {
  if (value.size() > kMaxRangeHeaderBytes) return std::nullopt;
  value = trim_ows(value);
  constexpr std::string_view kUnit = "bytes=";
  if (value.size() <= kUnit.size()) return std::nullopt;
  for (std::size_t i = 0; i < kUnit.size(); ++i) {
    const char a = value[i] >= 'A' && value[i] <= 'Z'
                       ? static_cast<char>(value[i] - 'A' + 'a')
                       : value[i];
    if (a != kUnit[i]) return std::nullopt;
  }
  value.remove_prefix(kUnit.size());
  RangeSet set;
  std::size_t start = 0;
  while (start <= value.size()) {
    const auto comma = value.find(',', start);
    const std::string_view piece = value.substr(
        start, comma == std::string_view::npos ? std::string_view::npos : comma - start);
    if (!trim_ows(piece).empty()) {
      auto spec = parse_spec(piece);
      if (!spec) return std::nullopt;
      set.specs.push_back(*spec);
    }
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  if (set.specs.empty()) return std::nullopt;
  return set;
}

std::string spell(const RangeSet& set) {
  std::string out = "bytes=";
  for (std::size_t i = 0; i < set.specs.size(); ++i) {
    const ByteRangeSpec& s = set.specs[i];
    if (i) out.push_back(',');
    if (s.is_suffix()) {
      out += "-" + std::to_string(*s.suffix);
    } else {
      out += std::to_string(*s.first) + "-";
      if (s.last) out += std::to_string(*s.last);
    }
  }
  return out;
}

}  // namespace reference

// Edits aimed at the grammar's edges: OWS, empty elements, stray '-', digits
// past 2^64, '+' signs, junk, case, and plain byte damage.
std::string mutate_range(Rng& rng, std::string value) {
  static const std::vector<std::string> kInserts{
      " ", "\t", ",", ",,", " , ", "-", "--", "+5", "+", "18446744073709551615",
      "18446744073709551616", "99999999999999999999999", "0", "x", ";", "\r\n",
      "=", "bytes=", "\xff"};
  switch (rng.below(6)) {
    case 0: {  // insert a grammar-edge token anywhere
      const std::string& token = kInserts[static_cast<std::size_t>(rng.below(kInserts.size()))];
      value.insert(static_cast<std::size_t>(rng.below(value.size() + 1)), token);
      break;
    }
    case 1:  // trailing junk
      value += kInserts[static_cast<std::size_t>(rng.below(kInserts.size()))];
      break;
    case 2:  // delete a byte
      if (!value.empty()) value.erase(static_cast<std::size_t>(rng.below(value.size())), 1);
      break;
    case 3:  // flip a byte to anything
      if (!value.empty()) {
        value[static_cast<std::size_t>(rng.below(value.size()))] =
            static_cast<char>(rng.below(256));
      }
      break;
    case 4:  // truncate
      value.resize(static_cast<std::size_t>(rng.below(value.size() + 1)));
      break;
    default:  // change the unit's case
      for (std::size_t i = 0; i < std::min<std::size_t>(6, value.size()); ++i) {
        if (rng.chance(0.5) && value[i] >= 'a' && value[i] <= 'z') value[i] -= 32;
      }
      break;
  }
  return value;
}

TEST(RangeCodecProperty, AgreesWithReferenceOnGeneratedAndMutatedHeaders) {
  Rng rng{0x5eed2020};
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto generated =
        generate_range(rng, static_cast<RangeShape>(rng.below(7)),
                       rng.chance(0.5) ? 1 << 20 : 26214400);
    // The canonical spelling is byte for byte the std::to_string one:
    // forwarded Range headers are counted bytes.
    const std::string spelled = generated.set.to_string();
    ASSERT_EQ(spelled, reference::spell(generated.set));

    std::string value = spelled;
    const int mutations = static_cast<int>(rng.below(4));
    for (int m = 0; m < mutations; ++m) value = mutate_range(rng, value);
    SCOPED_TRACE(value);
    const auto parsed = parse_range_header(value);
    const auto expected = reference::parse(value);
    ASSERT_EQ(parsed.has_value(), expected.has_value());
    if (!parsed) {
      ++rejected;
      continue;
    }
    ++accepted;
    ASSERT_EQ(*parsed, *expected);
    ASSERT_EQ(parsed->to_string(), reference::spell(*parsed));
    const auto again = parse_range_header(parsed->to_string());
    ASSERT_TRUE(again);
    ASSERT_EQ(*again, *parsed);
  }
  // Both verdicts are well represented.
  EXPECT_GT(accepted, 5000u);
  EXPECT_GT(rejected, 2000u);
}

TEST(RangeCodecProperty, GrammarEdgesMatchReference) {
  for (const std::string_view value :
       {"bytes=0-1", "bytes= 0-1 ", "\tbytes=0-1\t", "BYTES=0-", "bytes=,,0-1,,",
        "bytes= , ", "bytes=", "bytes=-", "bytes=--5", "bytes=5--6", "bytes=5- 6",
        "bytes=5 -6", "bytes=+5-6", "bytes=5-+6", "bytes=-+5", "bytes=0-1x",
        "bytes=0-1,x", "bytes=18446744073709551615-", "bytes=18446744073709551616-",
        "bytes=0-18446744073709551616", "bytes=-99999999999999999999",
        "bytes=6-5", "bytes=5-5", "bytes=007-8", "bytes=0x5-6", "bytes=0-1;",
        "bytes=1-2-3", "bytes=5", "bytes=\r0-1", "bytes=0-1,\t-5\t,9-"}) {
    SCOPED_TRACE(value);
    const auto parsed = parse_range_header(value);
    const auto expected = reference::parse(value);
    ASSERT_EQ(parsed.has_value(), expected.has_value());
    if (parsed) {
      EXPECT_EQ(*parsed, *expected);
    }
  }
}

}  // namespace
}  // namespace rangeamp::http

// Support utilities: RNG determinism and distributions, tables, stats, CLI,
// and the versioned/CRC-guarded blob format underneath plan persistence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "support/blob.hpp"
#include "support/cli.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace msptrsv::support {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 5);
}

TEST(Rng, NextBelowStaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowRejectsZeroBound) {
  Xoshiro256 rng(7);
  EXPECT_THROW(rng.next_below(0), PreconditionError);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Xoshiro256 rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Xoshiro256 rng(11);
  double mean = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    mean += u;
  }
  EXPECT_NEAR(mean / 20000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability) {
  Xoshiro256 rng(13);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, GeometricMeanMatchesTheory) {
  Xoshiro256 rng(17);
  const double p = 0.25;
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) sum += static_cast<double>(rng.geometric(p));
  // E[failures before first success] = (1-p)/p = 3.
  EXPECT_NEAR(sum / 20000.0, 3.0, 0.15);
}

TEST(Rng, ForkProducesIndependentStream) {
  Xoshiro256 a(5);
  Xoshiro256 c = a.fork();
  EXPECT_NE(a.next(), c.next());
}

TEST(Stats, MeanAndGeomean) {
  const std::vector<double> xs = {1.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 7.0 / 3.0);
  EXPECT_DOUBLE_EQ(geomean(xs), 2.0);
}

TEST(Stats, GeomeanRejectsNonPositive) {
  const std::vector<double> xs = {1.0, 0.0};
  EXPECT_THROW(geomean(xs), PreconditionError);
}

TEST(Stats, ImbalanceFactor) {
  const std::vector<double> balanced = {3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(imbalance_factor(balanced), 1.0);
  const std::vector<double> skewed = {1.0, 1.0, 4.0};
  EXPECT_DOUBLE_EQ(imbalance_factor(skewed), 2.0);
}

TEST(Stats, StddevAndCoV) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_NEAR(stddev(xs), 2.0, 1e-12);
  EXPECT_NEAR(coeff_of_variation(xs), 0.4, 1e-12);
}

TEST(Stats, PercentileInterpolatesOrderStatistics) {
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  const std::vector<double> one = {7.0};
  EXPECT_DOUBLE_EQ(percentile(one, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile(one, 0.99), 7.0);
  // Unsorted input; R-7 linear interpolation between order statistics.
  const std::vector<double> xs = {40.0, 10.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 40.0);
  EXPECT_NEAR(percentile(xs, 0.99), 39.7, 1e-12);
}

TEST(Table, RendersAlignedColumnsAndSeparators) {
  Table t({"Name", "Value"});
  t.add_row("alpha", 1);
  t.add_separator();
  t.add_row("b", 23);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| Name  | Value |"), std::string::npos);
  EXPECT_NE(s.find("| alpha |     1 |"), std::string::npos);
  EXPECT_NE(s.find("| b     |    23 |"), std::string::npos);
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table t({"a", "b"});
  t.add_row("x,y", "say \"hi\"");
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, RejectsTooManyCells) {
  Table t({"only"});
  t.begin_row();
  t.add_cell("one");
  EXPECT_THROW(t.add_cell("two"), PreconditionError);
}

TEST(Cli, ParsesAllSupportedSyntaxes) {
  CliParser cli("test");
  cli.add_option("alpha", "0", "an int");
  cli.add_option("beta", "x", "a string");
  cli.add_option("flag", "false", "a bool");
  const char* argv[] = {"prog", "--alpha=5", "--beta", "hello", "--flag"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_EQ(cli.get_int("alpha"), 5);
  EXPECT_EQ(cli.get_string("beta"), "hello");
  EXPECT_TRUE(cli.get_bool("flag"));
}

TEST(Cli, DefaultsApplyWhenAbsent) {
  CliParser cli("test");
  cli.add_option("gamma", "2.5", "a double");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_DOUBLE_EQ(cli.get_double("gamma"), 2.5);
}

TEST(Cli, RejectsUnknownFlag) {
  CliParser cli("test");
  const char* argv[] = {"prog", "--nope"};
  EXPECT_THROW(cli.parse(2, argv), PreconditionError);
}

TEST(Cli, ListParsing) {
  CliParser cli("test");
  cli.add_option("names", "", "csv list");
  const char* argv[] = {"prog", "--names=a,b,c"};
  ASSERT_TRUE(cli.parse(2, argv));
  const auto list = cli.get_list("names");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], "a");
  EXPECT_EQ(list[2], "c");
}

TEST(Contracts, MacrosThrowTypedErrors) {
  EXPECT_THROW(MSPTRSV_REQUIRE(false, "msg"), PreconditionError);
  EXPECT_THROW(MSPTRSV_ENSURE(false, "msg"), InvariantError);
  EXPECT_NO_THROW(MSPTRSV_REQUIRE(true, "msg"));
}

// ---- blob format (the plan-persistence substrate) --------------------------

TEST(Blob, PrimitivesAndSpansRoundTrip) {
  BlobWriter w(3);
  w.write_u8(7);
  w.write_u32(0xDEADBEEFu);
  w.write_i64(-42);
  w.write_f64(2.5);
  w.write_string("msptrsv");
  const std::vector<std::int32_t> ints{1, -2, 3};
  const std::vector<double> doubles{0.5, -0.25};
  w.write_span(std::span<const std::int32_t>(ints));
  w.write_span(std::span<const double>(doubles));
  const std::vector<std::uint8_t> blob = std::move(w).finish();

  BlobReader r(blob, 3);
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.version(), 3);
  EXPECT_EQ(r.read_u8(), 7);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_i64(), -42);
  EXPECT_EQ(r.read_f64(), 2.5);
  EXPECT_EQ(r.read_string(), "msptrsv");
  EXPECT_EQ(r.read_vector<std::int32_t>(), ints);
  EXPECT_EQ(r.read_vector<double>(), doubles);
  EXPECT_TRUE(r.at_end());
  ASSERT_TRUE(r.ok()) << r.error();
}

TEST(Blob, CrcDetectsEveryFlippedByte) {
  BlobWriter w(1);
  w.write_string("payload under test");
  w.write_u64(123456789);
  const std::vector<std::uint8_t> blob = std::move(w).finish();
  ASSERT_TRUE(BlobReader(blob, 1).ok());
  // Any single-bit corruption anywhere -- payload OR trailer -- must fail
  // the constructor (header bytes fail their own checks).
  for (std::size_t i = 8; i < blob.size(); ++i) {
    std::vector<std::uint8_t> bad = blob;
    bad[i] ^= 0x01;
    EXPECT_FALSE(BlobReader(bad, 1).ok()) << "byte " << i;
  }
}

TEST(Blob, RejectsTruncationWrongVersionAndBadMagic) {
  BlobWriter w(2);
  w.write_u64(99);
  const std::vector<std::uint8_t> blob = std::move(w).finish();

  for (std::size_t keep = 0; keep < blob.size(); ++keep) {
    BlobReader r(std::span<const std::uint8_t>(blob).first(keep), 2);
    EXPECT_FALSE(r.ok()) << "kept " << keep;
  }
  BlobReader wrong_version(blob, 5);
  EXPECT_FALSE(wrong_version.ok());
  EXPECT_NE(wrong_version.error().find("version"), std::string::npos);
  EXPECT_EQ(wrong_version.version(), 2);  // still reported for diagnostics

  std::vector<std::uint8_t> bad_magic = blob;
  bad_magic[0] = 'X';
  EXPECT_NE(BlobReader(bad_magic, 2).error().find("magic"), std::string::npos);

  std::vector<std::uint8_t> bad_endian = blob;
  bad_endian[6] = 99;
  EXPECT_NE(BlobReader(bad_endian, 2).error().find("endian"),
            std::string::npos);
}

TEST(Blob, ReadsAreFailStopAndBoundsChecked) {
  BlobWriter w(1);
  w.write_u32(5);
  const std::vector<std::uint8_t> blob = std::move(w).finish();
  BlobReader r(blob, 1);
  EXPECT_EQ(r.read_u32(), 5u);
  // Overrun: returns zero, latches the error, and stays failed.
  EXPECT_EQ(r.read_u64(), 0u);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.read_u32(), 0u);
  EXPECT_TRUE(r.read_vector<double>().empty());
  EXPECT_FALSE(r.at_end());  // at_end is "cleanly consumed", not "failed"
}

TEST(Blob, LyingArrayCountCannotForceAllocation) {
  // A corrupt (huge) element count must be rejected by the bounds check
  // before any allocation happens. Build a blob whose count field claims
  // far more elements than the payload holds, with a valid CRC.
  BlobWriter w(1);
  w.write_span(std::span<const double>(std::vector<double>{1.0, 2.0}));
  std::vector<std::uint8_t> blob = std::move(w).finish();
  // Rewrite the count (first 8 payload bytes) to a huge value and reseal.
  const std::uint64_t huge = ~std::uint64_t{0} / 16;
  std::memcpy(blob.data() + 8, &huge, sizeof(huge));
  const std::uint32_t crc = crc32(
      std::span<const std::uint8_t>(blob).subspan(8, blob.size() - 12));
  std::memcpy(blob.data() + blob.size() - 4, &crc, sizeof(crc));

  BlobReader r(blob, 1);
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_TRUE(r.read_vector<double>().empty());
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("exceeds"), std::string::npos) << r.error();
}

TEST(Blob, FileRoundTripAndMissingFile) {
  BlobWriter w(1);
  w.write_string("to disk and back");
  const std::vector<std::uint8_t> blob = std::move(w).finish();
  const std::string path = ::testing::TempDir() + "blob_roundtrip.bin";
  ASSERT_TRUE(write_file(path, blob));
  std::vector<std::uint8_t> back;
  ASSERT_TRUE(read_file(path, back));
  EXPECT_EQ(back, blob);
  std::remove(path.c_str());
  EXPECT_FALSE(read_file(path, back));
  EXPECT_TRUE(back.empty());
}

/// One byte through the CRC-32C register, a bit at a time: the definition,
/// with no tables and no instruction.
std::uint32_t crc32c_bitwise_update(std::uint32_t c, std::uint8_t byte) {
  c ^= byte;
  for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
  return c;
}

std::uint32_t crc32c_bitwise(std::span<const std::uint8_t> bytes) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : bytes) c = crc32c_bitwise_update(c, b);
  return c ^ 0xFFFFFFFFu;
}

TEST(Blob, Crc32MatchesKnownVectors) {
  // The CRC-32C check value and the RFC 3720 (iSCSI) B.4 vectors, on
  // crc32() -- the instruction path on SSE4.2 hosts -- on the portable
  // slice-by-8 path, and on the bitwise definition.
  const std::string check = "123456789";
  std::vector<std::uint8_t> ascending(32), descending(32);
  for (int i = 0; i < 32; ++i) {
    ascending[i] = static_cast<std::uint8_t>(i);
    descending[i] = static_cast<std::uint8_t>(31 - i);
  }
  const std::vector<std::pair<std::vector<std::uint8_t>, std::uint32_t>>
      vectors = {
          {{check.begin(), check.end()}, 0xE3069283u},
          {{}, 0x00000000u},
          {std::vector<std::uint8_t>(32, 0x00), 0x8A9136AAu},
          {std::vector<std::uint8_t>(32, 0xFF), 0x62A8AB43u},
          {ascending, 0x46DD794Eu},
          {descending, 0x113FDB5Cu},
      };
  for (const auto& [bytes, want] : vectors) {
    EXPECT_EQ(crc32(bytes), want) << bytes.size() << " bytes";
    EXPECT_EQ(detail::crc32_portable(bytes), want) << bytes.size() << " bytes";
    EXPECT_EQ(crc32c_bitwise(bytes), want) << bytes.size() << " bytes";
  }
}

TEST(Blob, Crc32PathsAgreeWithBitwiseReference) {
  // Every length up to one 3-way run of 8 KiB blocks, one of 256-byte
  // blocks and a tail, at every start address mod 8: each mix of
  // alignment prologue, block merges and single-chain tail the
  // instruction path has runs here. The bitwise register is carried
  // along, so the reference for every prefix costs one byte step.
  constexpr std::size_t kMaxLen = 3 * 8192 + 3 * 256 + 64;
  std::vector<std::uint8_t> buf(kMaxLen + 8);
  Xoshiro256 rng(0xC7C32u);
  for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const std::span<const std::uint8_t> base(buf.data() + offset, kMaxLen);
    std::uint32_t reg = 0xFFFFFFFFu;
    std::size_t mismatches = 0;
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      const std::uint32_t want = reg ^ 0xFFFFFFFFu;
      const std::span<const std::uint8_t> bytes = base.first(len);
      const std::uint32_t hw = crc32(bytes);
      const std::uint32_t portable = detail::crc32_portable(bytes);
      if ((hw != want || portable != want) && ++mismatches <= 5) {
        ADD_FAILURE() << "offset " << offset << ", length " << len
                      << ": reference " << want << ", crc32 " << hw
                      << ", portable " << portable;
      }
      if (len < kMaxLen) reg = crc32c_bitwise_update(reg, base[len]);
    }
    EXPECT_EQ(mismatches, 0u) << "at offset " << offset;
  }
  // One 4 MiB buffer: a long row of 24 KiB runs merged back to back.
  std::vector<std::uint8_t> big(4u << 20);
  for (std::uint8_t& b : big) b = static_cast<std::uint8_t>(rng.next());
  const std::uint32_t want = crc32c_bitwise(big);
  EXPECT_EQ(crc32(big), want);
  EXPECT_EQ(detail::crc32_portable(big), want);
  // A merge shifts the register of the data before it, one table entry
  // per register byte, so the lengths above reach only a few dozen
  // entries. 2048 windows of the random buffer, each one 3-way run of
  // both block sizes, feed each shift table ~4096 different registers:
  // an entry left unread is then a ~1e-7 event, not a likely one.
  std::size_t window_mismatches = 0;
  for (std::size_t start = 0; start < 2048; ++start) {
    const std::span<const std::uint8_t> window =
        std::span<const std::uint8_t>(big).subspan(start * 1031,
                                                   3 * 8192 + 3 * 256);
    if (crc32(window) != detail::crc32_portable(window)) ++window_mismatches;
  }
  EXPECT_EQ(window_mismatches, 0u);
}

TEST(Blob, Crc32FoldPathAgreesWithPortable) {
  // The carry-less fold takes spans of 512 bytes or more in 256-byte
  // strides and hands the rest to the crc32 chains: every length across
  // the threshold and every stride boundary up to 4 KiB (and its two
  // neighbours) at every start offset mod 64, then one multi-MB span.
  if (std::string(crc32_implementation()) != "vpclmulqdq-fold") {
    GTEST_SKIP() << "crc32() takes '" << crc32_implementation()
                 << "' on this CPU (no VPCLMULQDQ): no fold path to test";
  }
  std::vector<std::size_t> lengths;
  for (std::size_t len = 480; len <= 544; ++len) lengths.push_back(len);
  for (std::size_t stride = 768; stride <= 4096; stride += 256) {
    for (std::size_t len = stride - 1; len <= stride + 1; ++len) {
      lengths.push_back(len);
    }
  }
  std::vector<std::uint8_t> buf(4096 + 1 + 64);
  Xoshiro256 rng(0xF01Du);
  for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng.next());
  std::size_t mismatches = 0;
  for (std::size_t offset = 0; offset < 64; ++offset) {
    for (const std::size_t len : lengths) {
      const std::span<const std::uint8_t> bytes(buf.data() + offset, len);
      const std::uint32_t want = detail::crc32_portable(bytes);
      if (crc32(bytes) != want && ++mismatches <= 5) {
        ADD_FAILURE() << "offset " << offset << ", length " << len;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  std::vector<std::uint8_t> big((6u << 20) + 77);
  for (std::uint8_t& b : big) b = static_cast<std::uint8_t>(rng.next());
  EXPECT_EQ(crc32(big), detail::crc32_portable(big));
}

TEST(Blob, InPlaceArrayReadsViewTheBlobOrFail) {
  BlobWriter w(1);
  w.write_u8(7);
  const std::vector<double> values = {1.5, -2.0, 0.25};
  w.write_span<double>(values);
  std::vector<std::uint8_t> blob = std::move(w).finish();
  // The vector's own storage starts aligned: the view points into it.
  BlobReader aligned(blob, 1);
  EXPECT_EQ(aligned.read_u8(), 7);
  const std::span<const double> view = aligned.read_view<double>();
  ASSERT_TRUE(aligned.ok()) << aligned.error();
  EXPECT_TRUE(aligned.at_end());
  ASSERT_EQ(view.size(), values.size());
  EXPECT_EQ(static_cast<const void*>(view.data()),
            static_cast<const void*>(blob.data() + 8 + 8 + 8));
  EXPECT_TRUE(std::equal(view.begin(), view.end(), values.begin()));
  // The same image one byte further on: the elements are misaligned, so
  // the reader fails instead of handing out a misaligned span.
  std::vector<std::uint8_t> shifted(blob.size() + 1);
  std::copy(blob.begin(), blob.end(), shifted.begin() + 1);
  BlobReader misaligned(std::span<const std::uint8_t>(shifted).subspan(1), 1);
  EXPECT_EQ(misaligned.read_u8(), 7);
  EXPECT_TRUE(misaligned.read_view<double>().empty());
  EXPECT_FALSE(misaligned.ok());
  EXPECT_NE(misaligned.error().find("aligned"), std::string::npos)
      << misaligned.error();
}

}  // namespace
}  // namespace msptrsv::support
